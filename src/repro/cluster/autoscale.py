"""Closing the loop: telemetry-driven scaling and hot-shard splits.

ROADMAP item 5's control plane.  The :class:`Autoscaler` periodically
reads the :class:`~repro.obs.plane.ClusterTelemetry` windows the
plane already derives — per-node p99, host-core occupancy, per-shard
heat — and turns them into placement actions through the existing
migration machinery:

* **scale up** — sustained p99 above the high-water mark (or, when
  ``reject_rate_high`` is set, a sustained admission-rejection rate
  — a protected cluster rejects instead of queueing, so its p99
  stays healthy and silent) provisions a node
  (:meth:`Cluster.add_node`), joins it to the ring with every moving
  shard pinned to its previous owner (:meth:`ShardMap.join_node`),
  live-pulls the pinned shards through the
  :class:`~repro.cluster.rebalance.Rebalancer` — one background
  puller per shard, so transfers off a congested source overlap and
  the loop keeps evaluating — and cuts each one over the moment it
  lands, so service never routes at data that hasn't arrived;
* **scale down** — sustained low p99 *and* low host occupancy drain
  the newest node through the same pull protocol used for failures
  (the migration port on a healthy node is reachable because
  unmatched frames deliver to the host) and retire it;
* **hot-shard split** — when one shard's heat dominates the mean by
  ``hot_shard_ratio``, its pages are pulled onto the coolest peer
  and :meth:`ShardMap.set_split` serves the upper offset range from
  there, halving the hot spot under live traffic.

Every decision is a pure function of scraped telemetry and sim time
— no wall clock, no randomness — and all candidate orderings break
ties deterministically (lowest node index, lowest shard), so a
protected scenario replays byte-identically.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..sim.stats import Counter, fold_sum
from ..units import PAGE_SIZE

__all__ = ["AutoscalePolicy", "Autoscaler"]


class AutoscalePolicy:
    """Thresholds the control loop compares telemetry windows against."""

    def __init__(self,
                 p99_high_s: float = 1.5e-3,
                 p99_low_s: float = 3.0e-4,
                 occupancy_low: float = 0.35,
                 min_nodes: int = 1,
                 max_nodes: int = 8,
                 cooldown_s: float = 2.0e-3,
                 hot_shard_ratio: float = 3.0,
                 min_heat: float = 40.0,
                 min_windows: int = 2,
                 reject_rate_high: Optional[float] = None):
        if min_nodes < 1 or max_nodes < min_nodes:
            raise ValueError("need 1 <= min_nodes <= max_nodes")
        if cooldown_s < 0:
            raise ValueError("cooldown must be non-negative")
        if hot_shard_ratio <= 1.0:
            raise ValueError("hot-shard ratio must exceed 1")
        if min_windows < 1:
            raise ValueError("min_windows must be >= 1")
        self.p99_high_s = p99_high_s
        self.p99_low_s = p99_low_s
        self.occupancy_low = occupancy_low
        self.min_nodes = min_nodes
        self.max_nodes = max_nodes
        self.cooldown_s = cooldown_s
        self.hot_shard_ratio = hot_shard_ratio
        self.min_heat = min_heat
        self.min_windows = min_windows
        #: admission rejections+sheds per second (cluster-wide, from
        #: the plane's tenant verdict series) that trigger a scale-up
        #: even while admission keeps p99 below the high-water mark —
        #: a protected overload rejects instead of queueing, so the
        #: latency signal alone would never fire.  None disables.
        self.reject_rate_high = reject_rate_high


class Autoscaler:
    """Reads telemetry windows; adds, retires and splits accordingly."""

    def __init__(self, cluster, plane, rebalancer,
                 interval_s: float = 5.0e-4,
                 policy: Optional[AutoscalePolicy] = None,
                 node_hook=None):
        if interval_s <= 0:
            raise ValueError("interval must be positive")
        self.cluster = cluster
        self.plane = plane
        self.rebalancer = rebalancer
        self.interval_s = interval_s
        self.policy = policy if policy is not None \
            else AutoscalePolicy()
        #: called with each freshly provisioned node before it joins
        #: the ring — protected scenarios arm admission control here
        self.node_hook = node_hook
        self.scale_ups = Counter("autoscale.scale_ups")
        self.scale_downs = Counter("autoscale.scale_downs")
        self.splits = Counter("autoscale.splits")
        #: (sim time, live node count) per evaluation tick — the
        #: convergence record the SL claims read
        self.node_counts: List[Tuple[float, int]] = []
        #: (sim time, shard, boundary, high owner) per split
        self.split_history: List[Tuple[float, int, int, str]] = []
        self._cooldown_until = 0.0
        self._busy = False
        cluster.env.process(self._loop(), name="autoscale-loop")

    # -- the control loop ----------------------------------------------------

    def _loop(self):
        env = self.cluster.env
        while True:
            yield env.timeout(self.interval_s)
            self.node_counts.append((env.now, len(self._live())))
            if self._busy or env.now < self._cooldown_until:
                continue
            action = self._decide()
            if action is None:
                continue
            self._busy = True
            try:
                yield from action
            finally:
                self._busy = False
                self._cooldown_until = (env.now
                                        + self.policy.cooldown_s)

    def _live(self):
        ring = set(self.cluster.shardmap.nodes)
        return [node for node in self.cluster.nodes
                if not node.retired and node.name in ring]

    def _window_mean(self, metric: str, key: str) -> Optional[float]:
        """Mean of a derived window, None until it has enough scrapes."""
        series = self.plane.series(metric, key)
        if len(series) < self.policy.min_windows:
            return None
        return fold_sum(series) / len(series)

    def _decide(self):
        """Pick at most one action for this tick (or None)."""
        live = self._live()
        if not live or self.plane.latest() is None:
            return None
        policy = self.policy

        # Hot-shard splits outrank scaling: one skewed shard makes a
        # new node useless (the heat follows the shard, not the ring).
        split = self._pick_split(live)
        if split is not None:
            return self._split(*split)

        # Desired-capacity reconciliation: a node being drained
        # (failed, or retiring under a rolling upgrade) no longer
        # counts toward the healthy floor.  Replace it now — waiting
        # for the survivors' latency to confess costs the whole
        # detection window, and the signal queues upstream of the
        # nodes anyway.
        healthy = [node for node in live
                   if node.name not in self.rebalancer.draining]
        if (len(healthy) < policy.min_nodes
                and len(live) < policy.max_nodes):
            return self._scale_up()

        # Admission control converts queueing into rejections, which
        # keeps p99 healthy *and therefore silent* — the reject rate
        # is the overload signal a protected cluster actually emits.
        reject_rate = self._reject_rate()
        if (policy.reject_rate_high is not None
                and reject_rate is not None
                and reject_rate > policy.reject_rate_high
                and len(live) < policy.max_nodes):
            return self._scale_up()

        p99s = [self._window_mean("p99_latency_s", node.name)
                for node in live]
        p99s = [value for value in p99s if value is not None]
        if not p99s:
            return None
        worst_p99 = max(p99s)
        if worst_p99 > policy.p99_high_s \
                and len(live) < policy.max_nodes:
            return self._scale_up()

        occupancies = [self._window_mean("host_core_occupancy",
                                         node.name)
                       for node in live]
        occupancies = [value for value in occupancies
                       if value is not None]
        if (occupancies and len(live) > policy.min_nodes
                and worst_p99 < policy.p99_low_s
                and max(occupancies) < policy.occupancy_low):
            return self._scale_down(live)
        return None

    def _reject_rate(self) -> Optional[float]:
        """Cluster-wide rejections+sheds per second (window mean).

        The plane's ``tenant_rejected`` / ``tenant_shed`` derived
        series are keyed by tenant and already summed across nodes,
        so the cluster-wide rate is the sum of every tenant's window
        mean divided by the scrape interval.  None until at least one
        tenant has ``min_windows`` scrapes.
        """
        latest = self.plane.latest()
        means = []
        for metric in ("tenant_rejected", "tenant_shed"):
            for tenant in sorted(latest.derived.get(metric, {})):
                mean = self._window_mean(metric, tenant)
                if mean is not None:
                    means.append(mean)
        if not means:
            return None
        return fold_sum(means) / self.plane.scrape_interval_s

    def _pick_split(self, live):
        """The (shard, dest) to split, or None."""
        latest = self.plane.latest()
        heat = latest.derived.get("shard_heat", {})
        if len(heat) < 2 or len(live) < 2:
            return None
        top = self.plane.hot_shards(1)
        if not top:
            return None
        shard_key, top_heat = top[0]
        shard = int(shard_key)
        mean_heat = fold_sum(heat.values()) / len(heat)
        if (top_heat < self.policy.min_heat
                or top_heat < self.policy.hot_shard_ratio * mean_heat
                or shard in self.cluster.shardmap.splits):
            return None
        # Splitting moves half the shard's pages — demand the heat be
        # *sustained* for min_windows consecutive windows, not one
        # spiky scrape, before paying for a migration.
        history = self.plane.series("shard_heat", shard_key)
        if (len(history) < self.policy.min_windows
                or any(value < self.policy.min_heat
                       for value in history[-self.policy.min_windows:])):
            return None
        owner = self.cluster.shardmap.owner_of_shard(shard)
        # The coolest peer gets the upper half: fewest owned shards,
        # lowest node index on ties.
        candidates = sorted(
            (node for node in live if node.name != owner),
            key=lambda node: (len(node.owned_shards()), node.name))
        if not candidates:
            return None
        return shard, candidates[0]

    # -- actions (each a generator run inside the loop process) -------------

    def _scale_up(self):
        cluster = self.cluster
        node = cluster.add_node()
        if self.node_hook is not None:
            self.node_hook(node)
        self.rebalancer.watch(node)
        plan = cluster.shardmap.join_node(node.name)
        status = {"failed": 0}
        # One puller per shard, left running in the background: an
        # overloaded source exports slowly (its page reads queue
        # behind the data path), so serial pulls would take
        # len(shards) transfer times and block the control loop past
        # the incident.  Concurrent pulls land in ~one transfer time
        # each, cutovers arrive as they land, and the loop keeps
        # evaluating — the next scale-up only waits out the cooldown.
        for shard, source in sorted(plan.items()):
            cluster.env.process(
                self.rebalancer.pull(cluster.node(source), node,
                                     [shard], status),
                name=f"join-pull-{node.name}:{shard}")
        self.scale_ups.add(1)
        yield cluster.env.timeout(0.0)

    def _scale_down(self, live):
        # Retire the newest node: monotonic names make "newest" the
        # highest index, and never draining node0 keeps a stable
        # anchor for clients.
        victim = max(live, key=lambda node: int(node.name[4:]))
        yield from self.rebalancer.drain(victim)
        self.scale_downs.add(1)

    def _split(self, shard: int, dest):
        cluster = self.cluster
        shardmap = cluster.shardmap
        owner = shardmap.owner_of_shard(shard)
        boundary = (cluster.shard_bytes // PAGE_SIZE // 2) * PAGE_SIZE
        status = {"failed": 0}

        def cutover(landed: int) -> None:
            shardmap.set_split(landed, boundary, dest.name)

        yield from self.rebalancer.pull(
            cluster.node(owner), dest, [shard], status,
            cutover=cutover)
        if status["failed"] == 0:
            self.splits.add(1)
            self.split_history.append(
                (cluster.env.now, shard, boundary, dest.name))
