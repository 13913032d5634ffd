"""Critical-path extraction and conserved latency attribution.

One DDS request's end-to-end latency is the length of its root span
(``dds.request``).  Every instant of that window is attributed to
exactly one *resource category* — the category of the **deepest span
active at that instant** in the request's (possibly cross-node) tree,
or ``queue`` when only the root itself is active (dispatch/queue
wait).  Summed per category this yields a ledger whose segments add
up to the measured latency *exactly*: the elementary intervals of the
sweep partition the root window, so conservation is structural, not
statistical.

Cross-node trees: a forwarded request's remote subtree hangs under
the origin's ``cluster.route`` span via the ``remote_parent`` ref
recorded by :meth:`~repro.obs.trace.Tracer.adopt`.  The
:class:`SpanIndex` resolves those refs into one global parent table,
so a request that hopped DPU-to-DPU (or was served by a crashed
node's host) is attributed as one tree.

Resource categories (:data:`CATEGORIES`):

``queue``      root self-time and ring-buffer hop spans (``*.hop``)
``dpu_arm``    DPU Arm-core work (UDF parse, shard serve, CE on Arm)
``asic``       accelerator jobs (``ce.kernel.*`` with device
               ``dpu_asic``)
``nic_wire``   wire/NIC time (TCP, RDMA, NE send paths)
``pcie``       PCIe/DMA transfers (``ce.*`` on ``pcie_*`` peers)
``ssd``        flash and filesystem time (``ssd.*``, ``fs.*``,
               ``journal.*``, migration exports)
``host_cpu``   host-core work (degraded serves, host forward path)
``forward``    the DPU-to-DPU routing hop (``cluster.route``)
``retry``      retry attempts and backoff (``retry.*``, faults)
``other``      anything unrecognized (kept so the ledger still sums)
"""

from __future__ import annotations

from bisect import insort
from functools import lru_cache
from typing import Any, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "CATEGORIES",
    "SpanIndex",
    "RequestAttribution",
    "AttributionReport",
    "KernelObservation",
    "categorize",
    "attribute_request",
    "build_report",
]

#: Every category a segment can be attributed to, in report order.
CATEGORIES: Tuple[str, ...] = (
    "queue", "dpu_arm", "asic", "nic_wire", "pcie", "ssd",
    "host_cpu", "forward", "retry", "other",
)

#: the span every DDS server opens per request: an attribution root
REQUEST_ROOT = "dds.request"

#: rows in a bottleneck ranking
TOP_K = 5

#: ``ce.kernel.*`` / ``ce.fused.*`` device attribute -> category.
_DEVICE_CATEGORY = {
    "dpu_asic": "asic",
    "dpu_cpu": "dpu_arm",
    "host_cpu": "host_cpu",
}

#: exact span-name prefixes, first match wins (checked before the
#: span's own coarse category).
_NAME_RULES: Tuple[Tuple[str, str], ...] = (
    ("cluster.route", "forward"),
    ("cluster.shard_dpu", "dpu_arm"),
    ("cluster.shard_host", "host_cpu"),
    ("dds.udf_parse", "dpu_arm"),
    ("dds.offload", "dpu_arm"),
    ("dds.forward", "host_cpu"),
    ("ce.sproc", "dpu_arm"),
    ("se.dpu_", "dpu_arm"),
    ("se.execute", "dpu_arm"),
    ("se.", "host_cpu"),          # host-side frontend enqueue spans
    ("ssd.", "ssd"),
    ("fs.", "ssd"),
    ("journal.", "ssd"),
    ("mig.export", "ssd"),
    ("rebalance.pull", "nic_wire"),
    ("tcp.", "nic_wire"),
    ("rdma.", "nic_wire"),
    ("ne.", "nic_wire"),
    ("retry.", "retry"),
)

#: span ``category`` fallback when no name rule matched.
_CATEGORY_FALLBACK = {
    "compute": "dpu_arm",
    "network": "nic_wire",
    "storage": "ssd",
    "fault": "retry",
}


def categorize(span) -> str:
    """The resource category one span's time is attributed to.

    Accepts anything span-shaped (``name`` / ``category`` / ``attrs``
    attributes) — real :class:`~repro.obs.trace.Span` objects or test
    stubs alike.
    """
    name = span.name
    if name.startswith(("ce.kernel.", "ce.fused.")) \
            and not name.endswith(".hop"):
        device = span.attrs.get("device", "")
        if isinstance(device, str) and device.startswith("pcie_"):
            return "pcie"
        return _DEVICE_CATEGORY.get(device, "dpu_arm")
    return _named_category(name, span.category)


@lru_cache(maxsize=1024)
def _named_category(name: str, span_category: str) -> str:
    # a run has a few dozen distinct pairs over 10^5 spans
    if name.endswith(".hop"):
        return "queue"
    for prefix, category in _NAME_RULES:
        if name.startswith(prefix):
            return category
    return _CATEGORY_FALLBACK.get(span_category, "other")


class SpanIndex:
    """A global (node, span_id) table over per-node tracers.

    Resolves each span's parent — local ``parent_id`` first, then the
    ``remote_parent`` ref (``"node:span_id"``) recorded when a node
    adopted an upstream trace context — so cross-node request trees
    walk as one.
    """

    def __init__(self, tracers: Iterable[Tuple[str, Any]] = ()):
        #: (node, span_id) -> span
        self.spans: Dict[Tuple[str, int], Any] = {}
        #: (node, span_id) -> its children's keys, sorted
        self._children: Dict[Tuple[str, int],
                             List[Tuple[str, int]]] = {}
        #: open parentless spans: they may still adopt a remote parent
        self._unlinked: List[Tuple[str, int]] = []
        self.extend((node, tracer.all_spans())
                    for node, tracer in tracers)

    def extend(self, batches: Iterable[Tuple[str, Iterable[Any]]]
               ) -> None:
        """Index more ``(node, spans)`` batches, skipping spans
        already indexed (handed in open, then again finished)."""
        spans, children = self.spans, self._children
        fresh, self._unlinked = self._unlinked, []
        for node, batch in batches:
            for span in batch:
                key = (node, span.span_id)
                if key not in spans:
                    spans[key] = span
                    fresh.append(key)
        for key in fresh:
            span = spans[key]
            parent = (key[0], span.parent_id)
            if parent not in spans:
                parent = (self.parent_key(key)
                          if "remote_parent" in span.attrs else None)
            if parent is None:
                if span.end_s is None:
                    self._unlinked.append(key)
            elif parent in children:
                insort(children[parent], key)
            else:
                children[parent] = [key]

    def parent_key(self, key: Tuple[str, int]
                   ) -> Optional[Tuple[str, int]]:
        """The global parent of ``key``, or None for a root."""
        node, _ = key
        span = self.spans[key]
        if span.parent_id is not None:
            local = (node, span.parent_id)
            if local in self.spans:
                return local
        remote = span.attrs.get("remote_parent")
        if isinstance(remote, str) and ":" in remote:
            remote_node, _, span_id = remote.rpartition(":")
            try:
                remote_key = (remote_node, int(span_id))
            except ValueError:
                return None
            if remote_key in self.spans:
                return remote_key
        return None

    def subtree(self, root: Tuple[str, int]
                ) -> List[Tuple[Tuple[str, int], int]]:
        """``(key, depth)`` pairs of ``root``'s subtree, preorder."""
        children = self._children
        out: List[Tuple[Tuple[str, int], int]] = []
        stack: List[Tuple[Tuple[str, int], int]] = [(root, 0)]
        while stack:
            item = stack.pop()
            out.append(item)
            below = children.get(item[0])
            if below:
                depth = item[1] + 1
                stack.extend([(child, depth)
                              for child in reversed(below)])
        return out

    def request_roots(self) -> List[Tuple[str, int]]:
        """Finished request roots: :data:`REQUEST_ROOT` spans with no
        parent.

        An adopted remote root (one carrying ``remote_parent``) is a
        *subtree* of the origin's request, not a root of its own.
        """
        roots = [key for key, span in self.spans.items()
                 if span.name == REQUEST_ROOT and span.finished
                 and self.parent_key(key) is None]
        return sorted(roots)


class RequestAttribution:
    """One request's conserved latency ledger."""

    __slots__ = ("node", "span_id", "shard", "path", "start_s",
                 "end_s", "segments", "spans", "nodes_touched",
                 "forwarded", "failover")

    def __init__(self, node: str, span_id: int, shard: Optional[int],
                 path: str, start_s: float, end_s: float,
                 segments: Dict[str, float], spans: int,
                 nodes_touched: int, forwarded: bool, failover: bool):
        self.node = node
        self.span_id = span_id
        self.shard = shard
        self.path = path
        self.start_s = start_s
        self.end_s = end_s
        #: category -> attributed seconds; sums to :attr:`total_s`
        self.segments = segments
        self.spans = spans
        self.nodes_touched = nodes_touched
        self.forwarded = forwarded
        self.failover = failover

    @property
    def total_s(self) -> float:
        """The measured end-to-end latency (root span length)."""
        return self.end_s - self.start_s

    @property
    def attributed_s(self) -> float:
        """Sum of all segments (== :attr:`total_s` up to float eps)."""
        return sum(self.segments.values())

    @property
    def conservation_error_s(self) -> float:
        """|attributed - measured|; the invariant the claims check."""
        return abs(self.attributed_s - self.total_s)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly form (``--attr-out`` reports)."""
        return {
            "node": self.node,
            "span_id": self.span_id,
            "shard": self.shard,
            "path": self.path,
            "start_s": self.start_s,
            "total_s": self.total_s,
            "segments": dict(self.segments),
            "spans": self.spans,
            "nodes_touched": self.nodes_touched,
            "forwarded": self.forwarded,
            "failover": self.failover,
        }

    def __repr__(self) -> str:
        return (f"RequestAttribution({self.node}:{self.span_id} "
                f"{self.total_s:.3g}s)")


def attribute_request(index: SpanIndex, root_key: Tuple[str, int]
                      ) -> RequestAttribution:
    """Decompose one request's latency by a deepest-active-span sweep.

    Every span interval in the tree is clamped to the root window;
    the window is cut at every clamped boundary, and each elementary
    interval is charged to the deepest active span (ties broken by
    latest start, then ``(node, span_id)`` — deterministic).  Open
    descendants (wedged in a crashed node) are treated as running to
    the root's end.
    """
    spans = index.spans
    root = spans[root_key]
    window_start, window_end = root.start_s, root.end_s
    members = []      # ((depth, start, node, span_id), start, end, category)
    nodes = set()
    forwarded = failover = False
    for key, depth in index.subtree(root_key):
        span = spans[key]
        nodes.add(key[0])
        if span.name == "cluster.route":
            forwarded = True
        elif span.name == "cluster.shard_host":
            failover = True
        end = span.end_s if span.end_s is not None else window_end
        start = min(max(span.start_s, window_start), window_end)
        end = min(max(end, start), window_end)
        category = "queue" if depth == 0 else categorize(span)
        members.append(((depth, start, key[0], key[1]),
                        start, end, category))

    # Highest priority first: the first member covering an interval
    # is the deepest active one.  The root (depth 0) covers the whole
    # window, so every interval lands somewhere.
    members.sort(reverse=True)
    boundaries = sorted({m[1] for m in members}
                        .union(m[2] for m in members))
    segments: Dict[str, float] = {}
    lo = boundaries[0]
    for hi in boundaries[1:]:
        for _priority, start, end, category in members:
            if start <= lo and end >= hi:
                segments[category] = (segments.get(category, 0.0)
                                      + (hi - lo))
                break
        lo = hi

    shard = root.attrs.get("shard")
    return RequestAttribution(
        node=root_key[0], span_id=root_key[1],
        shard=shard if isinstance(shard, int) else None,
        path=str(root.attrs.get("path", "unknown")),
        start_s=window_start, end_s=window_end,
        segments=segments, spans=len(members),
        nodes_touched=len(nodes), forwarded=forwarded,
        failover=failover,
    )


class KernelObservation:
    """Aggregate of ``ce.kernel.*`` spans for one (kernel, device)."""

    __slots__ = ("kernel", "device", "calls", "bytes_total",
                 "seconds_total")

    def __init__(self, kernel: str, device: str):
        self.kernel = kernel
        self.device = device
        self.calls = 0
        self.bytes_total = 0.0
        self.seconds_total = 0.0

    def add(self, span) -> None:
        """Fold one finished ``ce.kernel.*`` span into the census."""
        self.calls += 1
        self.bytes_total += float(span.attrs.get("input_bytes", 0))
        self.seconds_total += span.duration_s

    @property
    def mean_bytes(self) -> float:
        return self.bytes_total / self.calls if self.calls else 0.0

    @property
    def mean_latency_s(self) -> float:
        return self.seconds_total / self.calls if self.calls else 0.0

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly form (``--attr-out`` reports)."""
        return {"kernel": self.kernel, "device": self.device,
                "calls": self.calls, "bytes_total": self.bytes_total,
                "seconds_total": self.seconds_total}


class AttributionReport:
    """Every attributed request of one run, plus the aggregates."""

    SCHEMA_NAME = "repro.obs/attr"
    SCHEMA_VERSION = 1

    def __init__(self, requests: List[RequestAttribution],
                 kernels: Optional[Dict[Tuple[str, str],
                                        KernelObservation]] = None):
        self.requests = requests
        #: (kernel, device) -> observed kernel aggregate
        self.kernels = kernels if kernels is not None else {}

    # -- aggregates ----------------------------------------------------------

    def totals(self) -> Dict[str, float]:
        """Attributed seconds per category, across every request."""
        out: Dict[str, float] = {}
        for request in self.requests:
            for category, seconds in request.segments.items():
                out[category] = out.get(category, 0.0) + seconds
        return out

    def by_node(self) -> Dict[str, Dict[str, float]]:
        """Per-node (the request's entry node) category totals."""
        out: Dict[str, Dict[str, float]] = {}
        for request in self.requests:
            ledger = out.setdefault(request.node, {})
            for category, seconds in request.segments.items():
                ledger[category] = ledger.get(category, 0.0) + seconds
        return out

    def by_shard(self) -> Dict[str, Dict[str, float]]:
        """Per-shard category totals (requests with a shard attr)."""
        out: Dict[str, Dict[str, float]] = {}
        for request in self.requests:
            if request.shard is None:
                continue
            ledger = out.setdefault(str(request.shard), {})
            for category, seconds in request.segments.items():
                ledger[category] = ledger.get(category, 0.0) + seconds
        return out

    def top_bottlenecks(self) -> List[Tuple[str, str, float]]:
        """The :data:`TOP_K` largest ``(node, category, seconds)``,
        largest first.

        Ties are broken by ``(node, category)`` so the ranking is
        fully deterministic.
        """
        rows = [(node, category, seconds)
                for node, ledger in self.by_node().items()
                for category, seconds in ledger.items()]
        rows.sort(key=lambda row: (-row[2], row[0], row[1]))
        return rows[:TOP_K]

    def max_conservation_error_s(self) -> float:
        """The worst per-request |attributed - measured| gap."""
        return max((r.conservation_error_s for r in self.requests),
                   default=0.0)

    def conserved_fraction(self) -> float:
        """Fraction of requests whose ledger sums within a nanosecond."""
        if not self.requests:
            return 1.0
        good = sum(1 for r in self.requests
                   if r.conservation_error_s <= 1e-9)
        return good / len(self.requests)

    def to_dict(self) -> Dict[str, Any]:
        """The ``--attr-out`` report document (JSON-able): aggregates
        over every request."""
        return {
            "schema": self.SCHEMA_NAME,
            "schema_version": self.SCHEMA_VERSION,
            "requests": len(self.requests),
            "totals_s": self.totals(),
            "by_node": self.by_node(),
            "by_shard": self.by_shard(),
            "top_bottlenecks": [
                {"node": node, "category": category, "seconds": s}
                for node, category, s in self.top_bottlenecks()
            ],
            "max_conservation_error_s":
                self.max_conservation_error_s(),
            "kernels": [obs.to_dict()
                        for _key, obs in sorted(self.kernels.items())],
        }

    def __repr__(self) -> str:
        return (f"AttributionReport({len(self.requests)} requests, "
                f"max_err={self.max_conservation_error_s():.3g}s)")


def build_report(tracers: Iterable[Tuple[str, Any]]
                 ) -> AttributionReport:
    """Attribute every finished request across a set of node tracers.

    ``tracers`` is the ``(node, tracer)`` list a
    :class:`~repro.obs.plane.ClusterTelemetry` hands out
    (``plane.tracers()``) — or any single-node equivalent.
    """
    index = SpanIndex(tracers)
    requests = [attribute_request(index, root)
                for root in index.request_roots()]
    kernels: Dict[Tuple[str, str], KernelObservation] = {}
    for _key, span in sorted(
            item for item in index.spans.items()
            if item[1].name.startswith("ce.kernel.")
            and item[1].finished):
        kernel = span.name[len("ce.kernel."):]
        device = str(span.attrs.get("device", "unknown"))
        observation = kernels.get((kernel, device))
        if observation is None:
            observation = kernels[(kernel, device)] = \
                KernelObservation(kernel, device)
        observation.add(span)
    return AttributionReport(requests, kernels)
