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
:class:`SpanTable` links those refs beside the local parent links,
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

from functools import lru_cache
from operator import attrgetter
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ...sim.stats import fold_sum
from ..trace import _parse_ref

__all__ = [
    "CATEGORIES",
    "SpanTable",
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
    category = _named_category(span.name, span.category)
    if category is None:
        device = span.attrs.get("device", "")
        if isinstance(device, str) and device.startswith("pcie_"):
            return "pcie"
        return _DEVICE_CATEGORY.get(device, "dpu_arm")
    return category


@lru_cache(maxsize=1024)
def _named_category(name: str, span_category: str) -> Optional[str]:
    """The category a span's name and coarse category settle, or None
    for a ``ce.kernel.*`` / ``ce.fused.*`` span: its device does."""
    # a run has a few dozen distinct pairs over 10^5 spans
    if name.endswith(".hop"):
        return "queue"
    if name.startswith(("ce.kernel.", "ce.fused.")):
        return None
    for prefix, category in _NAME_RULES:
        if name.startswith(prefix):
            return category
    return _CATEGORY_FALLBACK.get(span_category, "other")


class SpanTable:
    """Every span of a set of node tracers, per node by integer span id.

    ``spans[node][span_id]`` is the span.  Each span is linked once,
    when first indexed, under its parent: the local ``parent_id`` when
    that node recorded it, else the span named by a ``remote_parent``
    ref (``"node:span_id"``, recorded when a node adopted an upstream
    trace context), so cross-node request trees walk as one.

    A node's local children form a chain through two integer-keyed
    tables: a parent's id names its last linked child, and a child's id
    names the sibling linked before it, so linking allocates no object
    per span.  A child adopted from another node goes in a list under
    its parent with its node.  Children keep no order: a request's
    ledger does not depend on it.
    """

    def __init__(self):
        #: node -> span_id -> span
        self.spans: Dict[str, Dict[int, Any]] = {}
        #: node -> span_id -> its last linked child on that node
        self._child: Dict[str, Dict[int, Any]] = {}
        #: node -> span_id -> the sibling linked before it
        self._sibling: Dict[str, Dict[int, Any]] = {}
        #: node -> span_id -> its ``(node, child)`` on other nodes
        self._adopted: Dict[str, Dict[int, List[Tuple[str, Any]]]] = {}
        #: node -> span_id -> open parentless span: it may still adopt
        #: a remote parent
        self._unlinked: Dict[str, Dict[int, Any]] = {}

    def extend(self, batches: Iterable[Tuple[str, Iterable[Any]]]
               ) -> Dict[str, List[Any]]:
        """Index more ``(node, spans)`` batches; returns their request
        roots, node by node in batch order.

        A request root is a finished :data:`REQUEST_ROOT` span with no
        parent; an adopted remote root (one whose ``remote_parent``
        names an indexed span) is a *subtree* of the origin's request,
        not a root of its own.  A span already indexed (handed in open,
        then again finished) is skipped, unless it was open and
        parentless: then it is linked again.
        """
        spans, unlinked = self.spans, self._unlinked
        work = []
        # index every span first: a parent may come later in a batch,
        # or on a node whose batch comes later
        for node, batch in batches:
            table = spans.get(node)
            if table is None:
                table = spans[node] = {}
                self._child[node] = {}
                self._sibling[node] = {}
                unlinked[node] = {}
            pending = unlinked[node]
            fresh = []
            for span in batch:
                span_id = span.span_id
                if span_id not in table:
                    table[span_id] = span
                    fresh.append(span)
                elif span_id in pending:
                    fresh.append(pending.pop(span_id))
            work.append((node, table, pending, fresh))
        roots: Dict[str, List[Any]] = {}
        for node, table, pending, fresh in work:
            child, sibling = self._child[node], self._sibling[node]
            for span in fresh:
                parent_id = span.parent_id
                if parent_id in table:
                    last = child.get(parent_id)
                    if last is not None:
                        sibling[span.span_id] = last
                    child[parent_id] = span
                    continue
                if "remote_parent" in span.attrs \
                        and self._adopt(node, span):
                    continue
                if span.end_s is None:
                    pending[span.span_id] = span
                elif span.name == REQUEST_ROOT:
                    roots.setdefault(node, []).append(span)
        return roots

    def _adopt(self, node: str, span) -> bool:
        """Link ``span`` under the indexed span its ``remote_parent``
        names; False if that ref is malformed or names no such span."""
        remote = _parse_ref(span.attrs["remote_parent"])
        if remote is None or remote[1] not in self.spans.get(remote[0],
                                                             {}):
            return False
        self._adopted.setdefault(remote[0], {}) \
            .setdefault(remote[1], []).append((node, span))
        return True


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
        return fold_sum(self.segments.values())

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


def attribute_request(table: SpanTable, root_node: str, root
                      ) -> RequestAttribution:
    """Decompose one request's latency by a deepest-active-span sweep.

    ``root`` is a request root on ``root_node`` (:meth:`SpanTable.extend`
    returns them).  Every span interval in the tree is clamped to the
    root window; the window is cut at every clamped boundary, and each
    elementary interval is charged to the deepest active span (ties
    broken by latest start, then ``(node, span_id)`` — deterministic).
    Open descendants (wedged in a crashed node) are treated as running
    to the root's end.
    """
    window_start, window_end = root.start_s, root.end_s
    first_child, next_sibling = table._child, table._sibling
    adopted = table._adopted
    # (depth, start, node, span_id, end, category): the first four
    # fields are a member's priority, unique per span
    members = []
    edges = []
    nodes = set()
    forwarded = failover = False
    # a stack of sibling chains: (node, last linked span, depth)
    stack = [(root_node, root, 0)]
    while stack:
        node, span, depth = stack.pop()
        nodes.add(node)
        child, sibling = first_child[node], next_sibling[node]
        far = adopted.get(node)
        while span is not None:
            name = span.name
            if name == "cluster.route":
                forwarded = True
            elif name == "cluster.shard_host":
                failover = True
            # clamped to the window: min(max(...)) spelled out, which
            # picks the same float on a tie
            start = span.start_s
            start = window_start if window_start > start else start
            start = window_end if window_end < start else start
            end = span.end_s
            end = window_end if end is None else end
            end = start if start > end else end
            end = window_end if window_end < end else end
            span_id = span.span_id
            members.append((depth, start, node, span_id, end,
                            "queue" if depth == 0 else categorize(span)))
            edges.append(start)
            edges.append(end)
            if span_id in child:
                stack.append((node, child[span_id], depth + 1))
            if far is not None and span_id in far:
                for child_node, remote in far[span_id]:
                    stack.append((child_node, remote, depth + 1))
            span = sibling[span_id] if span_id in sibling else None

    # Highest priority first: the first member covering an interval
    # is the deepest active one.  The root (depth 0) covers the whole
    # window, so every interval lands somewhere.
    members.sort(reverse=True)
    boundaries = sorted(set(edges))
    segments: Dict[str, float] = {}
    lo = boundaries[0]
    for hi in boundaries[1:]:
        for _depth, start, _node, _span_id, end, category in members:
            if start <= lo and end >= hi:
                segments[category] = (segments.get(category, 0.0)
                                      + (hi - lo))
                break
        lo = hi

    shard = root.attrs.get("shard")
    return RequestAttribution(
        node=root_node, span_id=root.span_id,
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
        good = fold_sum(1 for r in self.requests
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


def _observe_kernel(kernels: Dict[Tuple[str, str], KernelObservation],
                    span) -> None:
    """Fold one finished ``ce.kernel.*`` span into ``kernels``, keyed
    ``(kernel, device)``."""
    kernel = span.name[len("ce.kernel."):]
    device = str(span.attrs.get("device", "unknown"))
    observation = kernels.get((kernel, device))
    if observation is None:
        observation = kernels[(kernel, device)] = \
            KernelObservation(kernel, device)
    observation.add(span)


def build_report(tracers: Iterable[Tuple[str, Any]]
                 ) -> AttributionReport:
    """Attribute every finished request across a set of node tracers.

    ``tracers`` is the ``(node, tracer)`` list a
    :class:`~repro.obs.plane.ClusterTelemetry` hands out
    (``plane.tracers()``) — or any single-node equivalent.  Requests
    come in ``(node, span_id)`` order, and so does the kernel census.
    """
    table = SpanTable()
    roots = table.extend((node, tracer.all_spans())
                         for node, tracer in tracers)
    requests = [attribute_request(table, node, root)
                for node in sorted(roots)
                for root in sorted(roots[node], key=attrgetter("span_id"))]
    kernels: Dict[Tuple[str, str], KernelObservation] = {}
    for node in sorted(table.spans):
        by_id = table.spans[node]
        for span_id in sorted(
                span_id for span_id, span in by_id.items()
                if span.name.startswith("ce.kernel.") and span.finished):
            _observe_kernel(kernels, by_id[span_id])
    return AttributionReport(requests, kernels)
