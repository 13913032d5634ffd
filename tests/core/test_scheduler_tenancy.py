"""Sproc scheduler policies and multi-tenant isolation."""

import pytest

from repro.core import ComputeEngine
from repro.core.scheduler import ScheduledTask, SprocScheduler
from repro.core.tenancy import Tenant, TenantRegistry
from repro.hardware import BLUEFIELD2, CpuCluster, make_server
from repro.sim import Environment
from repro.units import GHZ, MiB


@pytest.fixture
def env():
    return Environment()


def _task(scheduler, cycles, tenant, log, tag):
    def run(core):
        yield from core.run(cycles)
        log.append((tag, scheduler.env.now))

    return ScheduledTask(run, cycles, tenant, scheduler.env.now)


class TestFcfs:
    def test_strict_arrival_order_on_one_core(self, env):
        cpu = CpuCluster(env, 1, 1 * GHZ)
        sched = SprocScheduler(env, cpu, policy="fcfs")
        log = []
        for tag in ("a", "b", "c"):
            sched.submit(_task(sched, 1e6, "t", log, tag))
        env.run(until=1.0)
        assert [tag for tag, _ in log] == ["a", "b", "c"]

    def test_head_of_line_blocking(self, env):
        """One elephant in front delays every mouse behind it."""
        cpu = CpuCluster(env, 1, 1 * GHZ)
        sched = SprocScheduler(env, cpu, policy="fcfs")
        log = []
        sched.submit(_task(sched, 1e9, "big", log, "elephant"))   # 1 s
        for i in range(3):
            sched.submit(_task(sched, 1e5, "small", log, f"m{i}"))
        env.run(until=5.0)
        mouse_times = [t for tag, t in log if tag.startswith("m")]
        assert min(mouse_times) > 1.0     # all blocked behind elephant


class TestDrr:
    def test_tenants_share_despite_elephants(self, env):
        cpu = CpuCluster(env, 1, 1 * GHZ)
        sched = SprocScheduler(env, cpu, policy="drr")
        log = []
        # Tenant "big" floods with elephants; tenant "small" sends mice.
        for i in range(3):
            sched.submit(_task(sched, 5e8, "big", log, f"e{i}"))  # 0.5 s
        for i in range(3):
            sched.submit(_task(sched, 1e5, "small", log, f"m{i}"))
        env.run(until=5.0)
        first_mouse = min(t for tag, t in log if tag.startswith("m"))
        last_elephant = max(t for tag, t in log if tag.startswith("e"))
        # DRR interleaves: mice do not wait for every elephant.
        assert first_mouse < last_elephant

    def test_all_tasks_complete(self, env):
        cpu = CpuCluster(env, 2, 1 * GHZ)
        sched = SprocScheduler(env, cpu, policy="drr")
        log = []
        for i in range(20):
            tenant = f"t{i % 4}"
            sched.submit(_task(sched, 1e6 * (1 + i % 3), tenant, log,
                               i))
        env.run(until=5.0)
        assert len(log) == 20


class TestHybrid:
    def test_short_tasks_jump_the_long_queue(self, env):
        cpu = CpuCluster(env, 1, 1 * GHZ)
        sched = SprocScheduler(env, cpu, policy="hybrid")
        log = []
        for i in range(3):
            sched.submit(_task(sched, 5e8, "big", log, f"e{i}"))
        for i in range(3):
            sched.submit(_task(sched, 1e5, "small", log, f"m{i}"))
        env.run(until=5.0)
        # All mice (FCFS fast path) finish before the last elephant.
        mice = [t for tag, t in log if tag.startswith("m")]
        elephants = [t for tag, t in log if tag.startswith("e")]
        assert max(mice) < max(elephants)
        assert sched.wait_time_short.mean < sched.wait_time_long.mean

    def test_unknown_policy_rejected(self, env):
        cpu = CpuCluster(env, 1, 1 * GHZ)
        with pytest.raises(ValueError):
            SprocScheduler(env, cpu, policy="lottery")


class TestTenancy:
    def test_asic_slots_queue_by_default(self, env):
        tenant = Tenant(env, "app", max_asic_jobs=1)
        order = []

        def job(env, tag):
            slot = yield from tenant.acquire_asic_slot("compression")
            order.append((tag, env.now))
            yield env.timeout(1.0)
            tenant.release_asic_slot("compression", slot)

        env.process(job(env, "a"))
        env.process(job(env, "b"))
        env.run()
        assert order[0][0] == "a"
        assert order[1] == ("b", 1.0)     # queued, not rejected

    def test_registry_default_tenant(self, env):
        registry = TenantRegistry(env)
        assert "default" in registry
        assert registry.get("default").name == "default"
        with pytest.raises(ValueError):
            registry.register("default")
        with pytest.raises(KeyError):
            registry.get("ghost")

    def test_engine_isolates_tenants_on_asic(self, env):
        """Two tenants hammering one ASIC: capacity is partitioned."""
        from repro.buffers import SynthBuffer
        ce = ComputeEngine(make_server(env, dpu_profile=BLUEFIELD2))
        ce.tenants.register("analytics", max_asic_jobs=1)
        ce.tenants.register("oltp", max_asic_jobs=1)
        dpk = ce.get_dpk("compress")
        requests = []
        for tenant in ("analytics", "oltp"):
            for _ in range(4):
                requests.append(
                    dpk(SynthBuffer(1 * MiB), "dpu_asic", tenant=tenant)
                )
        env.run(until=env.all_of([r.done for r in requests]))
        assert all(r.completed and not r.failed for r in requests)
        asic = ce.server.dpu.accelerator("compression")
        assert asic.jobs.value == 8
        for tenant in ("analytics", "oltp"):
            slots = ce.tenants.get(tenant)._asic_slots["compression"]
            assert slots.users == []


class TestTenancyUnderConcurrentShards:
    """Budget enforcement when many shard workers hit one tenant at
    once — the cluster-layer shape: per-shard processes sharing one
    tenant's ASIC quota."""

    def test_asic_quota_queues_concurrent_shards(self, env):
        tenant = Tenant(env, "app", max_asic_jobs=2)
        held = []

        def shard_worker(shard):
            slot = yield from tenant.acquire_asic_slot("compression")
            held.append((shard, env.now))
            yield env.timeout(1.0)
            tenant.release_asic_slot("compression", slot)

        for shard in range(5):
            env.process(shard_worker(shard))
        env.run()
        assert held == [(0, 0.0), (1, 0.0), (2, 1.0), (3, 1.0),
                        (4, 2.0)]
