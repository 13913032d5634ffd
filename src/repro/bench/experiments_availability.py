"""Availability under injected faults: goodput and tails, recovery on/off.

The robustness experiment the fault layer exists for.  One open-loop
page-read workload (the DDS hot path: ``se.dpu_read``) runs three
times under identical arrival times:

* ``fault_free``       — no injector; the goodput/latency baseline;
* ``faults_norec``     — the :func:`~repro.faults.default_fault_plan`
  (SSD error + latency windows, a DPU Arm-core crash window, a
  slowdown window, a ring stall) with **no** recovery: every injected
  fault is a lost request;
* ``faults_recovery``  — the same plan behind the full recovery
  stack: a :class:`~repro.faults.RetryPolicy` with deterministic
  backoff, a :class:`~repro.faults.CircuitBreaker` that fails the
  DPU-direct path over to the host-served ring path while the Arm
  cores are down, and a deadline on the fallback wait.

A second part demonstrates the connection-establishment deadline:
a TCP client SYNs into a black-holed link and must give up with
:class:`~repro.errors.DeadlineExceededError` in bounded time instead
of backing off forever.

Everything is deterministic — fixed seeds, sim-time only — so two
runs produce byte-identical artifact parts.
"""

from __future__ import annotations

from typing import Dict, List

from ..core import DpdpuRuntime
from ..core.requests import wait
from ..errors import (
    DeadlineExceededError,
    FaultInjectedError,
    ReproError,
    StorageError,
)
from ..faults import (
    CircuitBreaker,
    FaultInjector,
    FaultPlan,
    RetryPolicy,
    default_fault_plan,
    retrying,
)
from ..hardware import (
    BLUEFIELD2,
    CpuCluster,
    Nic,
    Wire,
    default_cost_model,
    make_server,
)
from ..netstack import TcpStack
from ..obs.trace import NULL_TRACER
from ..sim import Environment
from ..sim.stats import Counter, fold_sum
from ..units import GHZ, Gbps, MiB, PAGE_SIZE

__all__ = [
    "availability",
    "availability_tcp_blackhole",
    "availability_run",
]

#: the recovery stack under test (module-level so tests can reuse it)
RECOVERY_POLICY = RetryPolicy(
    max_attempts=8,
    base_delay_s=50e-6,
    multiplier=2.0,
    max_delay_s=1e-3,
    jitter=0.2,
    retryable=(FaultInjectedError, StorageError),
)

#: deadline on one host-fallback read before the client gives up
FALLBACK_DEADLINE_S = 2e-3

#: the page-read workload: fault-plan seed, ops, and the span they
#: arrive over
SEED, N_OPS, DURATION_S = 7, 400, 10e-3

#: how long a client SYNs into a black hole before it gives up
CONNECT_TIMEOUT_S = 5e-3


def _percentile(values: List[float], q: float) -> float:
    """The ``q``-quantile of ``values`` (0.0 for an empty list)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(q * (len(ordered) - 1) + 0.5))
    return ordered[index]


def _run_scenario(inject: bool, recover: bool,
                  telemetry=None) -> Dict[str, float]:
    """One availability scenario; returns its flat metric row.

    ``telemetry`` (a :class:`~repro.obs.Telemetry`) opts this run into
    tracing: each op gets a root span, retry attempts get child spans,
    and the breaker joins the registry.  ``None`` keeps the stock
    zero-overhead path.
    """
    env = Environment()
    server = make_server(env, dpu_profile=BLUEFIELD2)
    injector = None
    if inject:
        injector = FaultInjector(
            env, default_fault_plan(seed=SEED, duration_s=DURATION_S)
        )
    runtime = DpdpuRuntime(server, injector=injector,
                           telemetry=telemetry)
    tracer = (telemetry.tracer if telemetry is not None
              else NULL_TRACER)
    se = runtime.storage
    file_id = se.create("pages", size=64 * MiB)
    file_pages = 1024

    latencies: List[float] = []
    outcomes = Counter("ok")
    failures = Counter("failed")
    failovers = Counter("failovers")
    retries = Counter("retries")
    breaker = CircuitBreaker(
        env,
        window_s=1e-3,
        min_failures=4,
        rate_threshold=0.5,
        reset_timeout_s=0.5e-3,
        name="avail.breaker",
    )
    if telemetry is not None:
        telemetry.register_breaker(breaker)

    def dpu_path(offset: int):
        # The protected path: DPU-direct read, outcome fed to the
        # breaker so a crashed Arm cluster trips it quickly.
        if not breaker.allow():
            failovers.add(1)
            with tracer.span("avail.host_fallback",
                             category="storage"):
                request = se.read(file_id, offset, PAGE_SIZE)
                buffer = yield from wait(
                    request, timeout_s=FALLBACK_DEADLINE_S)
            return buffer
        try:
            buffer = yield from se.dpu_read(file_id, offset, PAGE_SIZE)
        except ReproError:
            breaker.record_failure()
            raise
        breaker.record_success()
        return buffer

    def one_op(index: int):
        offset = (index % file_pages) * PAGE_SIZE
        started = env.now
        span = tracer.span("avail.op", category="client", op=index)
        try:
            if recover:
                yield from retrying(
                    env, RECOVERY_POLICY,
                    lambda: dpu_path(offset),
                    seed=index, retries=retries,
                    tracer=tracer,
                )
            else:
                yield from se.dpu_read(file_id, offset, PAGE_SIZE)
        except ReproError as exc:
            span.annotate(error=type(exc).__name__)
            span.finish()
            failures.add(1)
            return
        span.finish()
        outcomes.add(1)
        latencies.append(env.now - started)

    def driver():
        interval = DURATION_S / N_OPS
        ops = []
        for index in range(N_OPS):
            ops.append(env.process(one_op(index),
                                   name=f"avail-op-{index}"))
            yield env.timeout(interval)
        yield env.all_of(ops)

    env.run(until=env.process(driver()))

    ok = int(outcomes.value)
    failed = int(failures.value)
    row = {
        "ops": float(N_OPS),
        "ok": float(ok),
        "failed": float(failed),
        "error_rate": failed / N_OPS,
        "goodput_ops_per_s": ok / DURATION_S,
        "makespan_s": env.now,
        "mean_s": (fold_sum(latencies) / len(latencies)) if latencies else 0.0,
        "p99_s": _percentile(latencies, 0.99),
        "retries": retries.value,
        "failovers": failovers.value,
        "breaker_trips": breaker.trips.value,
        "faults_injected": (injector.injected.value
                            if injector is not None else 0.0),
    }
    return row


def availability(telemetry=None) -> Dict[str, Dict[str, float]]:
    """The three availability scenarios over one identical workload.

    ``telemetry`` rides the ``faults_recovery`` run only — the one
    whose retry loops and breaker failovers the trace exists to show.
    """
    return {
        "fault_free": _run_scenario(inject=False, recover=False),
        "faults_norec": _run_scenario(inject=True, recover=False),
        "faults_recovery": _run_scenario(inject=True, recover=True,
                                         telemetry=telemetry),
    }


def availability_tcp_blackhole() -> Dict[str, float]:
    """Connection establishment against a black-holed peer.

    The healthy control connects in microseconds; with every frame on
    the wire dropped, ``connect(..., timeout_s=)`` must abandon the
    capped SYN backoff and raise
    :class:`~repro.errors.DeadlineExceededError` in bounded time.
    """

    def build():
        env = Environment()
        costs = default_cost_model().software
        nic_a = Nic(env, 100 * Gbps, name="a")
        nic_b = Nic(env, 100 * Gbps, name="b")
        wire = Wire(env, nic_a, nic_b)
        cpu = CpuCluster(env, 8, 3 * GHZ, name="client")
        stack_a = TcpStack(env, nic_a, nic_a.rx_host, cpu, costs, "a")
        stack_b = TcpStack(env, nic_b, nic_b.rx_host, cpu, costs, "b")
        stack_b.listen(5000)
        return env, wire, stack_a

    # -- control: healthy link, the handshake just works ----------------
    env, _, stack_a = build()
    control: Dict[str, float] = {}

    def healthy_client():
        started = env.now
        yield from stack_a.connect(5000, timeout_s=CONNECT_TIMEOUT_S)
        control["connect_s"] = env.now - started

    env.run(until=env.process(healthy_client()))

    # -- blackhole: a down window swallows every frame -------------------
    env, wire, stack_a = build()
    wire.injector = FaultInjector(
        env, FaultPlan(seed=3).link_flap(0.0, 1.0)
    )
    result: Dict[str, float] = {}

    def blackholed_client():
        started = env.now
        try:
            yield from stack_a.connect(5000, timeout_s=CONNECT_TIMEOUT_S)
        except DeadlineExceededError:
            result["deadline_hit"] = 1.0
        else:
            result["deadline_hit"] = 0.0
        result["elapsed_s"] = env.now - started

    env.run(until=env.process(blackholed_client()))

    return {
        "timeout_s": CONNECT_TIMEOUT_S,
        "healthy_connect_s": control["connect_s"],
        "blackhole_elapsed_s": result["elapsed_s"],
        "deadline_hit": result["deadline_hit"],
    }


def availability_run(telemetry) -> Dict[str, object]:
    """The ``avail`` experiment's one row: its three parts."""
    scenarios = availability(telemetry=telemetry)
    fault_free = scenarios["fault_free"]
    norec = scenarios["faults_norec"]
    recovery = scenarios["faults_recovery"]
    baseline_goodput = fault_free["goodput_ops_per_s"] or 1.0
    summary = {
        "recovery_goodput_fraction":
            recovery["goodput_ops_per_s"] / baseline_goodput,
        "norec_goodput_fraction":
            norec["goodput_ops_per_s"] / baseline_goodput,
        "recovery_error_rate": recovery["error_rate"],
        "norec_error_rate": norec["error_rate"],
        "fault_free_p99_s": fault_free["p99_s"],
        "recovery_p99_s": recovery["p99_s"],
        "recovery_retries": recovery["retries"],
        "recovery_failovers": recovery["failovers"],
        "breaker_trips": recovery["breaker_trips"],
    }
    return {
        "scenarios": scenarios,
        "summary": summary,
        "tcp_blackhole": availability_tcp_blackhole(),
    }
