"""Sim-time tracing: causal spans across the three engines.

A :class:`Tracer` records *spans* — named intervals of simulated time
with attributes and parent links — so one DDS request can be followed
from its network arrival, through UDF parsing on a DPU core, into the
file service and down to the SSD, as a single causal tree.

Design constraints (they shape the whole API):

* **Zero overhead when off** — every instrumented call site uses the
  module-level :data:`NULL_TRACER` unless a real tracer was injected;
  the null tracer returns one shared no-op span, so the disabled path
  is a single attribute access and a constant return.
* **Deterministic** — span ids come from a per-tracer counter and all
  timestamps are ``env.now``; a tracer never yields, sleeps, or
  charges cycles, so enabling tracing cannot perturb simulation
  results (the benchmarks assert this).
* **Nestable inside simulation processes** — ``with tracer.span(...)``
  nests implicitly, but the implicit stack is kept *per simulation
  process* (keyed by the kernel's active process): interleaved processes do
  not corrupt each other's trees.  Causality that crosses a process
  boundary (a request handed to a reactor through a ring) is expressed
  with an explicit ``parent=`` link and the begin/finish form.
* **A parent is opened first** — a span's parent is a :class:`Span`
  this tracer opened earlier (``None`` or :data:`NULL_SPAN`: none), so
  a span knows its local root when it opens and every export builds
  its trees in one (start, id)-ordered pass.

Distributed traces: every tracer carries a ``node`` name and can mint
a :class:`TraceContext` — (trace id, parent span ref, origin node) —
small enough to ride inside a DDS request envelope.  The receiving
node's tracer *adopts* the context onto its local root span, and
:func:`merge_chrome_events` later stitches the per-node trees into one
cluster trace (one Chrome process per node) by resolving the recorded
``remote_parent`` refs into cross-process parent links.

Exports: Chrome ``trace_event`` JSON (open in ``chrome://tracing`` or
https://ui.perfetto.dev) and a plain-text flame summary.
"""

from __future__ import annotations

import itertools
import json
from operator import attrgetter
from typing import Any, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "Span",
    "TraceContext",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "NULL_SPAN",
    "merge_chrome_events",
]


class Span:
    """One named interval of simulated time in the trace tree."""

    __slots__ = ("_tracer", "name", "category", "span_id", "parent_id",
                 "start_s", "end_s", "attrs", "_stack_key", "_root")

    def __init__(self, tracer: "Tracer", name: str, category: str,
                 span_id: int, parent_id: Optional[int],
                 start_s: float, attrs: Dict[str, Any],
                 stack_key: Any = None):
        self._tracer = tracer
        self.name = name
        self.category = category
        self.span_id = span_id
        self.parent_id = parent_id
        self.start_s = start_s
        self.end_s: Optional[float] = None
        self.attrs = attrs
        self._stack_key = stack_key
        self._root = self       # a child's is its parent's (_make)

    @property
    def finished(self) -> bool:
        """True once :meth:`finish` (or ``__exit__``) has run."""
        return self.end_s is not None

    @property
    def duration_s(self) -> float:
        """Span length in simulated seconds (to now while open)."""
        end = self.end_s if self.end_s is not None else self._tracer.now
        return end - self.start_s

    def annotate(self, **attrs: Any) -> "Span":
        """Attach (or overwrite) attributes; returns self for chaining."""
        self.attrs.update(attrs)
        return self

    def finish(self) -> None:
        """Close the span at the current simulated time (idempotent)."""
        if self.end_s is None:
            tracer = self._tracer
            self.end_s = tracer._env.now
            tracer._on_finish(self)

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self.finish()
        return False

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly view (flight-recorder bundles, debugging)."""
        return {
            "name": self.name,
            "category": self.category,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "attrs": dict(self.attrs),
        }

    def __repr__(self) -> str:
        state = f"{self.end_s - self.start_s:.3g}s" if self.finished \
            else "open"
        return f"Span({self.name}#{self.span_id} {state})"


class TraceContext:
    """The propagatable identity of a distributed trace.

    Three strings, small enough to ride inside a request envelope:
    ``trace_id`` names the whole causal tree (the ref of its
    origin-node root span), ``parent_ref`` names the remote span the
    next hop should hang under (``"node:span_id"``), and ``origin`` is
    the node that started the trace.  The wire form is a plain dict so
    it survives the JSON request headers the DDS envelope already
    uses.
    """

    __slots__ = ("trace_id", "parent_ref", "origin")

    def __init__(self, trace_id: str, parent_ref: str, origin: str):
        self.trace_id = trace_id
        self.parent_ref = parent_ref
        self.origin = origin

    def to_wire(self) -> Dict[str, str]:
        """Encode for embedding in a request header."""
        return {"id": self.trace_id, "parent": self.parent_ref,
                "origin": self.origin}

    @classmethod
    def from_wire(cls, data: Any) -> Optional["TraceContext"]:
        """Decode a wire dict; ``None`` if absent or malformed."""
        if not isinstance(data, dict):
            return None
        trace_id = data.get("id")
        parent = data.get("parent")
        if not isinstance(trace_id, str) or not isinstance(parent, str):
            return None
        origin = data.get("origin")
        return cls(trace_id, parent,
                   origin if isinstance(origin, str) else "")

    def as_attrs(self) -> Dict[str, str]:
        """Span attributes a receiving tracer adopts onto its root."""
        return {"trace_id": self.trace_id,
                "remote_parent": self.parent_ref,
                "origin": self.origin}

    def __eq__(self, other: Any) -> bool:
        return (isinstance(other, TraceContext)
                and self.to_wire() == other.to_wire())

    def __repr__(self) -> str:
        return (f"TraceContext(id={self.trace_id!r}, "
                f"parent={self.parent_ref!r}, origin={self.origin!r})")


class _NullSpan:
    """The shared do-nothing span returned by :class:`NullTracer`."""

    __slots__ = ()

    name = "null"
    category = "null"
    span_id = 0
    parent_id = None
    start_s = 0.0
    end_s = 0.0
    attrs: Dict[str, Any] = {}
    finished = True
    duration_s = 0.0

    def annotate(self, **attrs: Any) -> "_NullSpan":
        """No-op; returns self."""
        return self

    def finish(self) -> None:
        """No-op."""

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def __repr__(self) -> str:
        return "NullSpan()"


#: The shared no-op span every disabled call site receives.
NULL_SPAN = _NullSpan()


class NullTracer:
    """A tracer that records nothing — the default everywhere.

    Instrumented code holds a reference to one of these unless real
    telemetry was injected, so the tracing-off cost of a call site is
    one method call returning a shared constant.  It opens (no-op)
    spans and nothing else: whatever reads a trace back — contexts,
    span lists, exports — sits behind ``tracer.enabled``.
    """

    enabled = False
    node = "null"

    def bind(self, env) -> None:
        """No-op (a real tracer binds to the environment's clock)."""

    def span(self, name: str, category: str = "app",
             parent: Any = None, **attrs: Any) -> _NullSpan:
        """Return the shared no-op span."""
        return NULL_SPAN

    def begin(self, name: str, category: str = "app",
              parent: Any = None, **attrs: Any) -> _NullSpan:
        """Return the shared no-op span."""
        return NULL_SPAN

    def instant(self, name: str, category: str = "app",
                **attrs: Any) -> None:
        """No-op."""


#: The process-wide disabled tracer instance.
NULL_TRACER = NullTracer()

#: Sentinel stack key for spans opened with :meth:`Tracer.begin`.
_DETACHED = object()


class _Unbound:
    """What an unbound tracer reads: time 0.0, no active process."""

    now = 0.0
    _active_process = None


def _write_chrome(path: str, events: List[dict], source: str) -> int:
    document = {
        "traceEvents": events,
        "displayTimeUnit": "ns",
        "otherData": {"clock": "simulated seconds", "source": source},
    }
    with open(path, "w") as handle:
        json.dump(document, handle, indent=1, default=str)
    return len(events)


def _parse_ref(ref: Any) -> Optional[Tuple[str, int]]:
    """``(node, span_id)`` of a ``"node:span_id"`` ref
    (:meth:`Tracer.ref`); None when it is malformed."""
    if not isinstance(ref, str) or ":" not in ref:
        return None
    node, _, span_id = ref.rpartition(":")
    try:
        return node, int(span_id)
    except ValueError:
        return None


def _ordered(spans: List[Span]) -> List[Span]:
    """``spans`` in (start, id) order: every parent before its
    children, since a parent is a span opened earlier."""
    ordered = sorted(spans, key=attrgetter("span_id"))
    ordered.sort(key=attrgetter("start_s"))     # stable: (start, id)
    return ordered


def _tracks(ordered: List[Span]) -> Tuple[Dict[int, int], List[Span]]:
    """Span id -> track id, and each track's head span in track order.

    A track is one local tree: a span shares its parent's track, and a
    span with no parent heads the next one, numbered in ``ordered``
    (:func:`_ordered`) order.
    """
    tids: Dict[int, int] = {}
    heads: List[Span] = []
    for span in ordered:
        if span.parent_id is None:
            heads.append(span)
            tids[span.span_id] = len(heads)
        else:
            tids[span.span_id] = tids[span.parent_id]
    return tids, heads


class Tracer:
    """Records sim-time spans and instants; exports trace files.

    A tracer must be *bound* to a simulation environment before spans
    are created (``Tracer(env)`` or :meth:`bind`); timestamps are read
    from ``env.now``.  Span ids are drawn from a deterministic counter
    so repeated runs produce identical traces.  ``node`` names the
    runtime this tracer observes; it tags every exported event and
    scopes span refs (``"node:span_id"``) in distributed traces.
    """

    enabled = True

    def __init__(self, env=None, node: str = "local"):
        self.bind(env)
        self.node = node
        self._ids = itertools.count(1)
        #: finished spans, in finish order (deterministic)
        self.spans: List[Span] = []
        #: open spans by id (finished spans are moved to ``spans``)
        self._open: Dict[int, Span] = {}
        #: instant events: (time_s, name, category, parent_id, attrs)
        self.instants: List[tuple] = []
        #: implicit nesting stacks, keyed per simulation process
        self._stacks: Dict[Any, List[Span]] = {}

    # -- clock -------------------------------------------------------------

    def bind(self, env) -> None:
        """Attach the tracer to a simulation environment's clock."""
        # The recording path reads the clock and the active process
        # straight off the environment, one attribute load each.
        self._env = env if env is not None else _Unbound

    @property
    def now(self) -> float:
        """Current simulated time (0.0 before binding)."""
        return self._env.now

    # -- span creation ------------------------------------------------------

    def _resolve_parent(self, parent: Any, key: Any) -> Optional[Span]:
        """``parent``, else the top of process ``key``'s stack."""
        if parent is None:
            stack = self._stacks.get(key)
            return stack[-1] if stack else None
        return None if parent is NULL_SPAN else parent

    def _make(self, name: str, category: str, parent: Any,
              attrs: Dict[str, Any], detached: bool) -> Span:
        env = self._env
        key = env._active_process
        parent = self._resolve_parent(parent, key)
        span = Span(self, name, category, next(self._ids),
                    None if parent is None else parent.span_id, env.now,
                    attrs, _DETACHED if detached else key)
        if parent is not None:
            span._root = parent._root
        self._open[span.span_id] = span
        return span

    def span(self, name: str, category: str = "app",
             parent: Any = None, **attrs: Any) -> Span:
        """Open a span and push it on the current process's stack.

        Use as a context manager around work that starts and finishes
        in the same simulation process; spans opened inside the
        ``with`` body (in the same process) become children
        automatically.
        """
        span = self._make(name, category, parent, attrs, False)
        stack = self._stacks.get(span._stack_key)
        if stack is None:
            self._stacks[span._stack_key] = [span]
        else:
            stack.append(span)
        return span

    def begin(self, name: str, category: str = "app",
              parent: Any = None, **attrs: Any) -> Span:
        """Open a span without pushing it on the implicit stack.

        For work that finishes in a *different* process than it starts
        in (ring hand-offs, async requests): keep the returned span,
        link children to it with ``parent=``, and call ``finish()`` at
        the completion point.
        """
        return self._make(name, category, parent, attrs, True)

    def instant(self, name: str, category: str = "app",
                **attrs: Any) -> None:
        """Record a zero-duration event (decisions, cache hits)."""
        env = self._env
        parent = self._resolve_parent(None, env._active_process)
        self.instants.append((env.now, name, category,
                              parent and parent.span_id, attrs))

    def _on_finish(self, span: Span) -> None:
        self._open.pop(span.span_id, None)
        self.spans.append(span)
        key = span._stack_key
        if key is not _DETACHED:
            # a kept span must not keep its process (and the process's
            # generator and pending timeout) alive
            span._stack_key = _DETACHED
            stack = self._stacks.get(key)
            if stack is not None:
                if stack[-1] is span:
                    stack.pop()
                elif span in stack:     # finished out of LIFO order
                    stack.remove(span)
                if not stack:
                    del self._stacks[key]

    # -- introspection -------------------------------------------------------

    def open_spans(self) -> List[Span]:
        """Still-open spans, in id order."""
        return [self._open[i] for i in sorted(self._open)]

    def all_spans(self) -> List[Span]:
        """Finished spans plus still-open ones (deterministic order)."""
        return self.spans + self.open_spans()

    # -- distributed context -------------------------------------------------

    def ref(self, span: Span) -> str:
        """Globally unique name for a local span: ``"node:span_id"``."""
        return f"{self.node}:{span.span_id}"

    def context_for(self, span: Span) -> TraceContext:
        """The :class:`TraceContext` to send along with a request.

        The trace id comes from ``span``'s local root, recorded when
        ``span`` opened: either the id this node itself adopted from an
        upstream hop (so multi-hop chains keep one id), or — when the
        trace starts here — the root's own ref.
        """
        root = span._root
        trace_id = root.attrs.get("trace_id")
        if not isinstance(trace_id, str):
            trace_id = self.ref(root)
        origin = root.attrs.get("origin")
        if not isinstance(origin, str) or not origin:
            origin = self.node
        return TraceContext(trace_id, self.ref(span), origin)

    def adopt(self, span: Span, context: Optional[TraceContext]) -> Span:
        """Hang ``span`` under a remote parent described by ``context``.

        The link is recorded as span attributes (``trace_id``,
        ``remote_parent``, ``origin``); :func:`merge_chrome_events`
        resolves ``remote_parent`` into a real cross-process parent
        link when per-node traces are merged.
        """
        if context is not None:
            span.annotate(**context.as_attrs())
        return span

    # -- export: Chrome trace_event JSON --------------------------------------

    def _chrome_events(self, pid: int, ids: Dict[int, int],
                       peers: Dict[str, Dict[int, int]]) -> List[dict]:
        """Every event, built once, under process ``pid``.

        Spans become complete (``"ph": "X"``) events, one track
        (``tid``) per local tree; metadata (``"ph": "M"``) names the
        process after :attr:`node` and each track after its root span.
        ``ids`` maps local span ids to exported ones, and ``peers``
        holds every merged node's such map by node name, so a
        ``remote_parent`` ref becomes the exported id of the span it
        names.  A tracer with nothing recorded exports no events.
        """
        ordered = _ordered(self.all_spans())
        tids, heads = _tracks(ordered)
        now = self.now
        events: List[dict] = []
        for span in ordered:
            tid = tids[span.span_id]
            start = span.start_s
            end = span.end_s if span.end_s is not None else now
            span_id, parent_id = ids[span.span_id], ids.get(span.parent_id)
            attrs = span.attrs
            if parent_id is None:
                args = {"span_id": span_id, **attrs}
            else:
                args = {"span_id": span_id, "parent_id": parent_id, **attrs}
            if "remote_parent" in attrs:
                remote = _parse_ref(attrs["remote_parent"])
                if remote is not None:
                    resolved = peers.get(remote[0], {}).get(remote[1])
                    if resolved is not None:
                        args["parent_id"] = resolved
            duration = end - start
            events.append({
                "name": span.name, "cat": span.category, "ph": "X",
                "ts": start * 1e6,
                # max(duration, 0.0), spelled out
                "dur": (0.0 if 0.0 > duration else duration) * 1e6,
                "pid": pid, "tid": tid, "args": args,
            })
        for when, name, category, parent_id, attrs in self.instants:
            tid = tids.get(parent_id, 0)
            args = dict(attrs)
            parent_id = ids.get(parent_id)
            if parent_id is not None:
                args["parent_id"] = parent_id
            events.append({
                "name": name, "cat": category, "ph": "i", "s": "t",
                "ts": when * 1e6, "pid": pid, "tid": tid, "args": args,
            })
        if not events:
            return []
        metadata = [{
            "name": "process_name", "ph": "M", "pid": pid,
            "args": {"name": self.node},
        }]
        for tid, head in enumerate(heads, start=1):
            metadata.append({
                "name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
                "args": {"name": f"{head.name}#{head.span_id}"},
            })
        return metadata + events

    def write_chrome(self, path: str) -> int:
        """Write Chrome trace JSON to ``path``: this one node's
        :func:`merge_chrome_events`.  Returns the event count."""
        return _write_chrome(path, merge_chrome_events([(self.node, self)]),
                             "repro.obs.Tracer")

    # -- export: flame summary -------------------------------------------------

    def flame_summary(self, max_rows: int = 60) -> str:
        """Aggregate spans by tree path into a plain-text table.

        Rows are ``root;child;...`` paths with call counts, total
        (inclusive) time, and self (exclusive) time — a poor man's
        flame graph for terminals.
        """
        spans = self.all_spans()
        paths: Dict[int, str] = {}
        for span in _ordered(spans):
            parent_id = span.parent_id
            paths[span.span_id] = (span.name if parent_id is None
                                   else f"{paths[parent_id]};{span.name}")
        totals: Dict[str, List[float]] = {}
        child_time: Dict[int, float] = {}
        for span in spans:
            if span.parent_id is not None:
                child_time[span.parent_id] = (
                    child_time.get(span.parent_id, 0.0)
                    + span.duration_s
                )
        for span in spans:
            path = paths[span.span_id]
            row = totals.setdefault(path, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += span.duration_s
            row[2] += max(
                span.duration_s - child_time.get(span.span_id, 0.0),
                0.0,
            )
        if not totals:
            return "(no spans recorded)"
        ordered = sorted(totals.items(),
                         key=lambda kv: (-kv[1][1], kv[0]))[:max_rows]
        width = max(len(path) for path, _ in ordered)
        width = max(width, len("span path"))
        lines = [
            f"{'span path'.ljust(width)}  {'count':>7}  "
            f"{'total_s':>12}  {'self_s':>12}",
            f"{'-' * width}  {'-' * 7}  {'-' * 12}  {'-' * 12}",
        ]
        for path, (count, total, self_time) in ordered:
            lines.append(
                f"{path.ljust(width)}  {count:>7d}  "
                f"{total:>12.6g}  {self_time:>12.6g}"
            )
        return "\n".join(lines)


# -- multi-node merge --------------------------------------------------------


def merge_chrome_events(tracers: Iterable[Tuple[str, "Tracer"]]
                        ) -> List[dict]:
    """Merge per-node tracers into one cluster-wide Chrome trace.

    Each node becomes its own Chrome process (``pid``) named via
    ``process_name`` metadata.  Span ids are remapped into one global
    namespace, and every ``remote_parent`` ref recorded by
    :meth:`Tracer.adopt` is resolved into a concrete cross-process
    ``parent_id`` — so a forwarded request renders (and validates) as
    a single connected tree.
    """
    items = list(tracers)
    counter = itertools.count(1)
    # node -> {local span id: global id}; zip stops at the last span
    # without drawing from the counter
    peers = {node: dict(zip([span.span_id for span in tracer.all_spans()],
                            counter))
             for node, tracer in items}
    merged: List[dict] = []
    for pid, (node, tracer) in enumerate(items, start=1):
        merged += tracer._chrome_events(pid, peers[node], peers)
    return merged
