"""The admission ladder: budgets, bounds, deadlines."""

import pytest

from repro.core import AdmissionController
from repro.core.admission import TokenBucket
from repro.core.tenancy import TenantRegistry
from repro.errors import AdmissionRejected
from repro.obs.metrics import MetricsRegistry
from repro.sim import Environment


@pytest.fixture
def env():
    return Environment()


def _controller(env, tenants=None, **kwargs):
    registry = tenants if tenants is not None else TenantRegistry(env)
    defaults = dict(registry=MetricsRegistry(), max_queue=8,
                    service_rate_ops=1000.0, slo_target_s=1.0e-3)
    defaults.update(kwargs)
    return AdmissionController(env, registry, **defaults)


class TestTokenBucket:
    def test_burst_then_refusal(self, env):
        bucket = TokenBucket(env, rate_per_s=100.0, burst=3.0)
        assert [bucket.try_take() for _ in range(4)] == \
            [True, True, True, False]

    def test_refills_with_sim_time(self, env):
        bucket = TokenBucket(env, rate_per_s=100.0, burst=1.0)
        assert bucket.try_take()
        assert not bucket.try_take()
        env.run(until=10.0e-3)  # one token at 100/s
        assert bucket.try_take()

    def test_retry_after_names_the_refill_gap(self, env):
        bucket = TokenBucket(env, rate_per_s=100.0, burst=1.0)
        bucket.try_take()
        assert bucket.retry_after() == pytest.approx(10.0e-3)


class TestRateBudget:
    def test_over_budget_tenant_is_refused_with_retry_after(self, env):
        tenants = TenantRegistry(env)
        tenants.register("batch", rate_limit_ops_per_s=100.0,
                         burst_ops=1.0)
        controller = _controller(env, tenants)
        controller.admit("batch").release()
        with pytest.raises(AdmissionRejected) as excinfo:
            controller.admit("batch")
        assert excinfo.value.reason == "rate_limit"
        assert excinfo.value.retry_after_s > 0
        assert excinfo.value.tenant == "batch"

    def test_unmetered_tenant_sails_through(self, env):
        tenants = TenantRegistry(env)
        tenants.register("pro")
        controller = _controller(env, tenants)
        for _ in range(5):
            controller.admit("pro").release()

    def test_unknown_tenant_is_unmetered(self, env):
        controller = _controller(env)
        controller.admit("stranger").release()


class TestBoundedQueue:
    def test_full_queue_refuses(self, env):
        controller = _controller(env, max_queue=2,
                                 service_rate_ops=1e9)
        tickets = [controller.admit() for _ in range(2)]
        with pytest.raises(AdmissionRejected) as excinfo:
            controller.admit()
        assert excinfo.value.reason == "queue_full"
        for ticket in tickets:
            ticket.release()
        controller.admit()

    def test_release_is_idempotent(self, env):
        controller = _controller(env)
        ticket = controller.admit()
        ticket.release()
        ticket.release()
        assert controller._inflight == 0


class TestDeadlineRung:
    def test_doomed_request_is_shed_early(self, env):
        # 2 in flight at 1000 ops/s = 2 ms expected wait > 1 ms SLO.
        controller = _controller(env, slo_target_s=1.0e-3)
        controller.admit()
        controller.admit()
        with pytest.raises(AdmissionRejected) as excinfo:
            controller.admit()
        assert excinfo.value.reason == "deadline"
        assert excinfo.value.retry_after_s == pytest.approx(1.0e-3)

    def test_explicit_deadline_overrides_the_target(self, env):
        controller = _controller(env, slo_target_s=1.0e-3)
        controller.admit()
        controller.admit()
        controller.admit(deadline_s=5.0e-3).release()

    def test_negative_budget_always_rejects(self, env):
        # A request that aged past its stamped expiry upstream: even
        # an idle node must refuse it (expected wait 0 > negative).
        controller = _controller(env)
        with pytest.raises(AdmissionRejected) as excinfo:
            controller.admit(deadline_s=-1.0e-4)
        assert excinfo.value.reason == "deadline"


class TestStrictIsolation:
    """No tenant is refused for its ASIC envelope at the door: a
    saturated envelope queues at the device instead."""

    def test_within_envelope_is_admitted(self, env):
        tenants = TenantRegistry(env)
        tenants.register("app", max_asic_jobs=1)
        controller = _controller(env, tenants)
        controller.admit("app").release()

    def test_non_strict_tenant_queues_instead(self, env):
        tenants = TenantRegistry(env)
        tenant = tenants.register("lenient", max_asic_jobs=1)
        env.run(until=env.process(
            tenant.acquire_asic_slot("compress")))
        controller = _controller(env, tenants)
        controller.admit("lenient").release()


class TestTenantCounters:
    def test_verdict_counters_land_in_the_registry(self, env):
        registry = MetricsRegistry()
        tenants = TenantRegistry(env)
        tenants.register("batch", rate_limit_ops_per_s=100.0,
                         burst_ops=1.0)
        controller = _controller(env, tenants, registry=registry)
        controller.admit("batch").release()
        with pytest.raises(AdmissionRejected):
            controller.admit("batch")
        snapshot = registry.snapshot(env.now)
        assert snapshot["tenant.batch.admitted"] == 1.0
        assert snapshot["tenant.batch.rejected"] == 1.0
