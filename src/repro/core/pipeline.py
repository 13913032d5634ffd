"""Cross-engine streaming pipelines (paper Section 4, Interactions).

"DPDPU enables efficient, streamlined data communication across engine
boundaries … one engine's output can be streamed to another engine
without waiting for the completion of work in progress", building
asynchronous pipelines that overlap I/O and computation.

A :class:`Pipeline` is a chain of stages connected by bounded queues.
Each stage is a generator function ``fn(ctx_item) -> result`` executed
by one or more workers; items flow as soon as they are produced, so a
read→compress→send pipeline has pages compressing while later pages
are still being read — the paper's canonical composition.
"""

from __future__ import annotations

from typing import Callable, List

from ..sim import Environment, Store
from .requests import AsyncRequest

__all__ = ["Pipeline"]

_SENTINEL = object()


class _Stage:
    def __init__(self, name: str, fn: Callable, workers: int):
        if workers < 1:
            raise ValueError("stages need at least one worker")
        self.name = name
        self.fn = fn
        self.workers = workers


class Pipeline:
    """A multi-stage streaming pipeline over simulation processes."""

    def __init__(self, env: Environment, name: str = "pipeline",
                 depth: int = 16):
        if depth < 1:
            raise ValueError("queue depth must be >= 1")
        self.env = env
        self.name = name
        self.depth = depth
        self._stages: List[_Stage] = []

    def add_stage(self, name: str, fn: Callable,
                  workers: int = 1) -> "Pipeline":
        """Append a stage; ``fn(item)`` is a generator -> result.

        Returning ``None`` drops the item (filter semantics).
        """
        self._stages.append(_Stage(name, fn, workers))
        return self

    def run(self, items) -> AsyncRequest:
        """Feed ``items`` through all stages.

        Returns a request that completes with the list of final-stage
        outputs (in completion order).
        """
        if not self._stages:
            raise ValueError("pipeline has no stages")
        items = list(items)
        result = AsyncRequest(self.env, f"pipeline:{self.name}")
        queues = [Store(self.env, capacity=self.depth,
                        name=f"{self.name}.q{i}")
                  for i in range(len(self._stages) + 1)]
        outputs: List = []

        def feeder():
            for item in items:
                yield queues[0].put(item)
            for _ in range(self._stages[0].workers):
                yield queues[0].put(_SENTINEL)

        errors: List[BaseException] = []

        def worker(stage_index: int, stage: _Stage):
            inbox = queues[stage_index]
            outbox = queues[stage_index + 1]
            while True:
                item = yield inbox.get()
                if item is _SENTINEL:
                    break
                if errors:
                    continue           # drain after a failure
                try:
                    value = yield from stage.fn(item)
                except BaseException as exc:
                    errors.append(exc)
                    continue
                if value is not None:
                    if stage_index + 1 == len(self._stages):
                        outputs.append(value)
                    else:
                        yield outbox.put(value)

        def supervisor():
            workers = []
            for index, stage in enumerate(self._stages):
                for _ in range(stage.workers):
                    workers.append(self.env.process(
                        worker(index, stage),
                        name=f"{self.name}.{stage.name}",
                    ))
            self.env.process(feeder())
            # Wait stage by stage, then propagate sentinels downstream.
            offset = 0
            for index, stage in enumerate(self._stages):
                stage_workers = workers[offset:offset + stage.workers]
                offset += stage.workers
                yield self.env.all_of(stage_workers)
                if index + 1 < len(self._stages):
                    for _ in range(self._stages[index + 1].workers):
                        yield queues[index + 1].put(_SENTINEL)
            if errors:
                result.fail(errors[0])
            else:
                result.complete(outputs)

        self.env.process(supervisor(), name=f"{self.name}-supervisor")
        return result
