"""Asynchronous request objects — the unit of work in every engine.

Figure 6's programming model is: every engine call returns a request
immediately (``read_req = se.read(...)``), the sproc continues issuing
work, and later ``wait(req)`` suspends until completion, after which
``req.data`` holds the result.  :class:`AsyncRequest` is that object,
shared by the Compute, Network, and Storage engines so cross-engine
pipelines compose uniformly.
"""

from __future__ import annotations

from typing import Any, Optional

from ..errors import DeadlineExceededError
from ..obs.trace import NULL_SPAN
from ..sim import Environment, Event

__all__ = ["AsyncRequest", "wait"]


class AsyncRequest:
    """A handle to in-progress work in one of the engines."""

    __slots__ = ("env", "kind", "issued_at", "completed_at", "done",
                 "_result", "span")

    def __init__(self, env: Environment, kind: str):
        self.env = env
        self.kind = kind
        self.issued_at = env.now
        self.completed_at: Optional[float] = None
        self.done: Event = env.event()
        self._result: Any = None
        #: the trace span covering this request (NULL_SPAN when
        #: tracing is off or the issuing engine is uninstrumented)
        self.span = NULL_SPAN

    def complete(self, result: Any = None) -> None:
        """Mark the request finished with ``result``."""
        self._result = result
        if not self.done.triggered:
            self.completed_at = self.env.now
            self.done.succeed(result)

    def fail(self, exception: BaseException) -> None:
        """Mark the request failed; waiters see the exception raised."""
        if not self.done.triggered:
            self.completed_at = self.env.now
            self.done.fail(exception)
            # A request nobody is waiting on yet must not crash the
            # kernel's unobserved-failure check; waiters who yield
            # ``done`` later still see the exception thrown.
            self.done._defuse()

    @property
    def completed(self) -> bool:
        return self.done.triggered

    @property
    def failed(self) -> bool:
        """True once the request finished with an error."""
        return self.done.triggered and not self.done.ok

    @property
    def data(self) -> Any:
        """The result (valid after completion)."""
        return self._result

    @property
    def latency(self) -> float:
        """Time from issue to completion (to now, while pending)."""
        if self.completed_at is not None:
            return self.completed_at - self.issued_at
        return self.env.now - self.issued_at

    def __repr__(self) -> str:
        state = "done" if self.completed else "pending"
        return f"AsyncRequest({self.kind}, {state})"


def wait(request: AsyncRequest, timeout_s: Optional[float] = None):
    """Suspend until ``request`` completes: ``yield from wait(req)``.

    Returns the request's result, mirroring Figure 6's ``wait(req)``.
    A failed request re-raises its exception here.  ``timeout_s``
    bounds the wait itself: if the request is still pending when the
    budget expires, :class:`DeadlineExceededError` is raised and the
    request keeps running.
    """
    if timeout_s is None:
        yield request.done
        return request.data
    expiry = request.env.timeout(timeout_s)
    yield request.env.any_of([request.done, expiry])
    if not request.done.triggered:
        raise DeadlineExceededError(
            f"wait({request.kind}) timed out after {timeout_s}s",
            deadline_s=timeout_s,
        )
    return request.data
