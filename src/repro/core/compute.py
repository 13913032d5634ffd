"""The DPDPU Compute Engine (paper Section 5).

Responsibilities, mapped to the paper's four goals:

* **Efficient** — DP kernels are placed on ASIC accelerators whenever
  available; *scheduled execution* picks the placement with the lowest
  estimated completion time across ASICs, DPU cores, and host cores.
* **General-purpose** — users express tasks as *sprocs* (stored
  procedures): plain generator functions registered with the engine
  and invoked per request; kernels cover data-path primitives
  (compress/encrypt/regex/dedup/crc) and relational pushdown
  (filter/aggregate/project).
* **Easy to program** — the Figure-6 API: ``dpk = ce.get_dpk("compress")``,
  then ``req = dpk(data, "dpu_asic")``; ``req is None`` signals the
  requested placement does not exist on this DPU, and the sproc falls
  back (``dpk(data, "dpu_cpu")``).
* **Portable** — nothing here touches vendor specifics; availability
  comes from the :class:`~repro.hardware.profiles.DpuProfile`, so the
  same sproc runs on BlueField-2, BlueField-3, or Intel IPU profiles
  with automatically different placements.
"""

from __future__ import annotations

import inspect
from typing import Any, Callable, Dict, List, Optional

from ..buffers import Buffer, as_buffer
from ..errors import (
    FaultInjectedError,
    KernelUnavailableError,
    SprocError,
)
from ..hardware.costs import PLACEMENTS, server_price, server_prices
from ..hardware.server import Server
from ..obs.trace import NULL_TRACER
from ..sim.stats import Counter, Tally
from .handles import DpKernelHandle
from .kernels import DpKernelSpec, KernelResult, builtin_kernel_specs
from .requests import AsyncRequest
from .scheduler import ScheduledTask, SprocScheduler
from .tenancy import TenantRegistry

__all__ = ["ComputeEngine", "KernelRequest", "SprocContext",
           "PLACEMENTS"]

#: Placements a *fused* kernel chain may target: the PCIe peers, whose
#: per-job launch and intermediate crossings fusion saves (Section 5).
#: Fixed-function ASICs cannot fuse across kernels.
FUSABLE_PLACEMENTS = ("pcie_gpu", "pcie_fpga")

#: Graceful degradation under injected faults: where a *scheduled*
#: kernel falls back when its placement fails mid-run.  Host CPU is
#: the end of the chain (no fallback — the fault propagates).
DEGRADE_CHAIN = {"dpu_asic": "dpu_cpu", "dpu_cpu": "host_cpu"}


class KernelRequest(AsyncRequest):
    """An in-progress DP-kernel execution (Figure 6's ``comp_req``).

    On completion, ``data`` is the output :class:`Buffer` and ``meta``
    carries kernel-specific results (match counts, ratios, ...).
    """

    __slots__ = ("kernel_name", "device", "meta")

    def __init__(self, env, kernel_name: str, device: str):
        super().__init__(env, f"dpk:{kernel_name}")
        self.kernel_name = kernel_name
        self.device = device
        self.meta: Dict[str, Any] = {}


class SprocContext:
    """Everything a running sproc may touch.

    Exposes the three engines (``ce``/``ne``/``se``), the Figure-6
    helpers (``dpk``, ``wait``), and a way to burn explicit CPU work on
    the core the sproc occupies.
    """

    def __init__(self, engine: "ComputeEngine", core, tenant: str):
        self.env = engine.env
        self.ce = engine
        self.ne = engine.runtime.network if engine.runtime else None
        self.se = engine.runtime.storage if engine.runtime else None
        self.tenant = tenant
        self._core = core

    def dpk(self, name: str):
        """Resolve a DP kernel handle (``ce.get_dpk`` shorthand)."""
        return self.ce.get_dpk(name)

    def wait(self, request: AsyncRequest):
        """``yield from ctx.wait(req)`` — suspend until completion."""
        yield request.done
        return request.data

    def compute(self, cycles: float):
        """Burn ``cycles`` of work on the sproc's own core."""
        yield from self._core.run(cycles)


class _Sproc:
    """A registered stored procedure ("precompiled" user code)."""

    def __init__(self, name: str, fn: Callable,
                 estimated_cycles: float):
        self.name = name
        self.fn = fn
        self.estimated_cycles = estimated_cycles
        self.latency = Tally(f"sproc.{name}.latency")

    def observe_cost(self, cycles: float) -> None:
        """EWMA update of the cost estimate from a finished run."""
        self.estimated_cycles = (
            0.8 * self.estimated_cycles + 0.2 * cycles
        )


class ComputeEngine:
    """The CE instance bound to one DPU-equipped server."""

    def __init__(self, server: Server, policy: str = "hybrid",
                 host_spillover_backlog: int = 0, telemetry=None):
        if server.dpu is None:
            raise SprocError("the Compute Engine requires a DPU")
        self.server = server
        self.env = server.env
        self.dpu = server.dpu
        self.costs = server.costs
        name = "ce"
        self.runtime = None            # set by DpdpuRuntime
        self.tracer = telemetry.tracer if telemetry is not None \
            else NULL_TRACER
        self.kernels: Dict[str, DpKernelSpec] = builtin_kernel_specs()
        self.tenants = TenantRegistry(self.env)
        self.scheduler = SprocScheduler(
            self.env, self.dpu.cpu, policy=policy,
            spillover_cpu=(server.host_cpu
                           if host_spillover_backlog > 0 else None),
            spillover_backlog=host_spillover_backlog,
            name=f"{name}.sched",
            tracer=self.tracer,
        )
        self._sprocs: Dict[str, _Sproc] = {}
        #: kernels submitted but not yet completed, per placement —
        #: the engine's own view of backlog, which (unlike device
        #: queue lengths) is correct even within a same-instant burst.
        self._inflight: Dict[str, int] = {}
        self.kernel_executions = Counter(f"{name}.kernel_execs")
        self.kernel_latency = Tally(f"{name}.kernel_latency")
        self.degraded = Counter(f"{name}.degraded")

    # ------------------------------------------------------------- kernels

    def available_kernels(self) -> List[str]:
        """Names of registered DP kernels ("the user can query …")."""
        return sorted(self.kernels)

    def _peer_for(self, device: str):
        """Resolve a ``pcie_*`` placement to its peer device."""
        return self.server.peer(device[len("pcie_"):])

    def get_dpk(self, name: str) -> "DpKernelHandle":
        """Resolve a kernel handle (Figure 6's ``ce.get_dpk``)."""
        self._kernel_spec(name)           # validate eagerly
        return DpKernelHandle(self, name)

    def _kernel_spec(self, name: str) -> DpKernelSpec:
        spec = self.kernels.get(name)
        if spec is None:
            raise KernelUnavailableError(
                f"no DP kernel named {name!r}; available: "
                f"{self.available_kernels()}"
            )
        return spec

    # -- kernel execution --------------------------------------------------

    def submit_kernel(self, name: str, payload,
                      device: Optional[str] = None,
                      params: Optional[dict] = None,
                      tenant: str = "default",
                      priority: int = 0) -> Optional[KernelRequest]:
        """Launch a kernel; the heart of specified/scheduled execution.

        With an explicit ``device`` (specified execution) the call
        returns ``None`` when that placement is unavailable, matching
        the Figure-6 fallback idiom.  With ``device=None`` (scheduled
        execution) the engine picks the best placement and the call
        "always returns a valid work item in progress".
        """
        spec = self._kernel_spec(name)
        buffer = as_buffer(payload)
        scheduled = device is None
        if device is None:
            # scheduled execution: minimize estimated completion time
            estimates = self._estimates(name, buffer.size)
            device = min(estimates, key=estimates.get)
        elif device not in PLACEMENTS:
            raise KernelUnavailableError(
                f"unknown placement {device!r}; valid: {PLACEMENTS}"
            )
        elif server_price(self.server, name, buffer.size,
                          device) is None:
            return None
        request = KernelRequest(self.env, name, device)
        request.span = self.tracer.begin(
            f"ce.kernel.{name}", category="compute", device=device,
            input_bytes=buffer.size,
            mode="scheduled" if scheduled else "specified",
        )
        self._inflight[device] = self._inflight.get(device, 0) + 1
        self.env.process(
            self._execute_kernel(spec, buffer, device, params or {},
                                 tenant, request, priority),
            name=f"dpk-{name}",
        )
        return request

    def _run_on_device(self, spec: DpKernelSpec, buffer: Buffer,
                       device: str, tenant, priority: int):
        """The device-specific timing of one kernel run (generator)."""
        if device == "dpu_asic":
            kind = self.costs.kernel(spec.name).asic_kind
            asic = self.dpu.accelerator(kind)
            slot = yield from tenant.acquire_asic_slot(
                kind, priority=priority
            )
            try:
                yield from asic.run_job(buffer.size,
                                        priority=priority)
            finally:
                tenant.release_asic_slot(kind, slot)
        elif device == "dpu_cpu":
            cycles = self.costs.cpu_cycles(spec.name, buffer.size,
                                           "dpu")
            yield from self.dpu.cpu.execute(cycles)
        elif device.startswith("pcie_"):
            # PCIe peer-to-peer: ship input to the GPU/FPGA, run,
            # ship the (possibly smaller) result back.
            peer = self._peer_for(device)
            yield from self.dpu.dma.copy(buffer.size,
                                         direction="to_host")
            yield from peer.run_job(spec.name, buffer.size)
        else:  # host_cpu: ship data over PCIe, compute, ship back
            yield from self.dpu.dma.copy(buffer.size,
                                         direction="to_host")
            cycles = self.costs.cpu_cycles(spec.name, buffer.size,
                                           "host")
            yield from self.server.host_cpu.execute(cycles)

    def _execute_kernel(self, spec: DpKernelSpec, buffer: Buffer,
                        device: str, params: dict, tenant_name: str,
                        request: KernelRequest, priority: int = 0):
        tenant = self.tenants.get(tenant_name)
        started = self.env.now
        try:
            while True:
                try:
                    yield from self._run_on_device(spec, buffer,
                                                   device, tenant,
                                                   priority)
                    break
                except FaultInjectedError:
                    # Graceful degradation: a faulted placement falls
                    # down the ASIC -> Arm -> host chain; past the
                    # end, the fault reaches the request's waiter.
                    fallback = DEGRADE_CHAIN.get(device)
                    if fallback is None:
                        raise
                    self.degraded.add(1)
                    self.tracer.instant(
                        "ce.kernel.degrade", category="compute",
                        kernel=spec.name, failed_device=device,
                        fallback=fallback,
                    )
                    device = request.device = fallback
            result: KernelResult = spec.run(buffer, params)
            if device == "host_cpu" or device.startswith("pcie_"):
                yield from self.dpu.dma.copy(result.buffer.size,
                                             direction="to_device")
            request.meta = result.meta
            self.kernel_executions.add(1)
            self.kernel_latency.observe(self.env.now - started)
            request.span.annotate(output_bytes=result.buffer.size)
            request.span.finish()
            request.complete(result.buffer)
        except BaseException as exc:
            request.span.annotate(error=type(exc).__name__)
            request.span.finish()
            request.fail(exc)

    # -- kernel fusion (Section 5 extension) --------------------------------

    def submit_fused(self, names: List[str], payload,
                     device: str) -> Optional[KernelRequest]:
        """Run a chain of DP kernels as one fused job.

        Fusion amortizes per-job launch latency and keeps
        intermediates inside the device — one input transfer, one
        output transfer, one launch for the whole chain (the Section 5
        rationale for GPUs/FPGAs), so valid placements are the peers
        in :data:`FUSABLE_PLACEMENTS`.

        Returns ``None`` when the specified placement cannot run the
        whole chain (missing peer, unsupported kernel).
        """
        if len(names) < 2:
            raise KernelUnavailableError(
                "fusion needs at least two kernels"
            )
        specs = [self._kernel_spec(name) for name in names]
        buffer = as_buffer(payload)
        if device not in FUSABLE_PLACEMENTS:
            raise KernelUnavailableError(
                f"cannot fuse on {device!r}; valid: {FUSABLE_PLACEMENTS}"
            )
        peer = self._peer_for(device)
        if peer is None or not all(peer.supports(n) for n in names):
            return None
        label = "+".join(names)
        request = KernelRequest(self.env, label, device)
        request.span = self.tracer.begin(
            f"ce.fused.{label}", category="compute", device=device,
            input_bytes=buffer.size, stages=len(names),
        )
        self.env.process(
            self._execute_fused(specs, buffer, peer, request),
            name=f"dpk-fused-{label}",
        )
        return request

    def _run_chain_fn(self, specs, buffer: Buffer):
        """Apply the functional chain, each kernel with its default
        parameters; returns (stages, result)."""
        stages = []
        current = buffer
        meta: Dict[str, Any] = {}
        for spec in specs:
            stages.append((spec.name, current.size))
            result = spec.run(current, {})
            current = result.buffer
            meta.update(result.meta)
        return stages, current, meta

    def _execute_fused(self, specs, buffer: Buffer, peer,
                       request: KernelRequest):
        started = self.env.now
        try:
            stages, out_buffer, meta = self._run_chain_fn(specs, buffer)
            yield from self.dpu.dma.copy(buffer.size, direction="to_host")
            yield from peer.run_chain(stages)
            yield from self.dpu.dma.copy(out_buffer.size,
                                         direction="to_device")
            request.meta = meta
            self.kernel_executions.add(1)
            self.kernel_latency.observe(self.env.now - started)
            request.span.annotate(output_bytes=out_buffer.size)
            request.span.finish()
            request.complete(out_buffer)
        except BaseException as exc:
            request.span.annotate(error=type(exc).__name__)
            request.span.finish()
            request.fail(exc)

    @staticmethod
    def _device_down(device) -> bool:
        """Whether the device's injector reports it down right now."""
        injector = getattr(device, "injector", None)
        if injector is None:
            return False
        if hasattr(device, "cpu_class"):        # CpuCluster
            return injector.is_down(f"cpu.{device.name}")
        return injector.is_down(f"accel.{device.name}")

    def _estimates(self, name: str, size: int) -> Dict[str, float]:
        """Estimated completion seconds of every eligible placement.

        Each placement's idle cost is :func:`server_prices`; the
        engine adds only the live backlog, as a factor on the service
        time.  The ASIC and the Arm cores are skipped outright inside
        a fault ``down`` window — no point scheduling onto a crashed
        Arm cluster or an offline ASIC (host cores and peers are
        always eligible).
        """
        server = self.server
        candidates: Dict[str, float] = {}
        for placement, price in server_prices(server, name,
                                              size).items():
            if placement == "dpu_asic":
                device = self.dpu.accelerator(
                    self.costs.kernel(name).asic_kind)
                queued, width = device.queue_length, device.spec.channels
            elif placement == "dpu_cpu":
                device = self.dpu.cpu
                queued, width = device.queue_length, device.cores
            elif placement == "host_cpu":
                device = None
                queued = server.host_cpu.queue_length
                width = server.host_cpu.cores
            else:
                device = None
                peer = self._peer_for(placement)
                queued = peer._channels.queue_length
                width = peer.spec.channels
            if device is not None and self._device_down(device):
                continue
            backlog = max(queued,
                          self._inflight.get(placement, 0) - width)
            candidates[placement] = (
                price.service_s * (1 + max(0, backlog) / width)
                + price.pcie_s
            )
        return candidates

    # ---------------------------------------------------------------- sprocs

    def register_sproc(self, name: str, fn: Callable,
                       estimated_cycles: float = 50_000.0) -> None:
        """Register ("precompile") a stored procedure.

        ``fn`` must be a generator function taking ``(ctx, request)``;
        its return value becomes the invocation result.
        """
        if not inspect.isgeneratorfunction(fn):
            raise SprocError(
                f"sproc {name!r} must be a generator function "
                "(use yield for asynchronous waits)"
            )
        if name in self._sprocs:
            raise SprocError(f"sproc {name!r} already registered")
        self._sprocs[name] = _Sproc(name, fn, estimated_cycles)

    def unregister_sproc(self, name: str) -> None:
        """Drop a registered sproc; ``KeyError`` on an unknown name."""
        del self._sprocs[name]

    def sproc_names(self) -> List[str]:
        """Names of registered sprocs."""
        return sorted(self._sprocs)

    def invoke(self, name: str, request_arg: Any = None,
               tenant: str = "default") -> AsyncRequest:
        """Invoke a sproc; returns immediately with an AsyncRequest.

        The invocation is queued through the sproc scheduler and runs
        to completion on a dedicated DPU core.
        """
        sproc = self._sprocs.get(name)
        if sproc is None:
            raise SprocError(
                f"no sproc named {name!r}; registered: "
                f"{self.sproc_names()}"
            )
        if tenant not in self.tenants:
            raise KeyError(f"unknown tenant {tenant!r}")
        result_request = AsyncRequest(self.env, f"sproc:{name}")
        dispatch_cycles = self.costs.software.sproc_dispatch_cycles
        span = self.tracer.begin(
            f"ce.sproc.{name}", category="compute", tenant=tenant,
            estimated_cycles=sproc.estimated_cycles,
        )
        result_request.span = span

        def run(core):
            yield from core.run(dispatch_cycles)
            ctx = SprocContext(self, core, tenant)
            started = self.env.now
            with self.tracer.span(f"ce.sproc.{name}.run",
                                  category="compute", parent=span):
                try:
                    value = yield from sproc.fn(ctx, request_arg)
                except BaseException as exc:
                    span.annotate(error=type(exc).__name__)
                    span.finish()
                    result_request.fail(exc)
                    return
            elapsed = self.env.now - started
            sproc.observe_cost(elapsed * self.dpu.cpu.frequency_hz)
            sproc.latency.observe(self.env.now - result_request.issued_at)
            span.annotate(
                actual_cycles=elapsed * self.dpu.cpu.frequency_hz
            )
            span.finish()
            result_request.complete(value)

        self.scheduler.submit(ScheduledTask(
            run, sproc.estimated_cycles, tenant, self.env.now
        ))
        return result_request
