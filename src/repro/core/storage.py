"""The DPDPU Storage Engine (paper Section 7).

Two halves, matching the paper:

* **Offloading file execution** — a DPU-backed storage framework with
  a POSIX-like file API for host applications.  File requests travel
  through lock-free rings, are lazily DMA'ed by the DPU, and execute
  in a *file service* on a dedicated DPU core using an SPDK-style
  userspace path to PCIe-attached SSDs (~2.2 K cycles/page instead of
  the kernel stack's ~18 K — and those cycles are Arm cycles, not host
  cycles).  The DPU owns the file mapping, which is what later lets
  remote requests be served without the host (DDS).
* **Caching and fast persistence** (Section 9 next steps) — optional
  page caches in host and DPU memory (ablation A3), and
  ``write_persistent``: the write is made durable in a DPU-side
  journal and acknowledged immediately, with the file write applied
  asynchronously (ablation A4).

The DPU-direct entry points (:meth:`dpu_read` / :meth:`dpu_write`)
bypass the rings entirely; they are the path the offload engine uses
for remote requests (Figure 8's "save the round trips").
"""

from __future__ import annotations

from typing import Optional

from ..buffers import Buffer, SynthBuffer, as_buffer
from ..errors import FaultInjectedError, ReproError, StorageError
from ..fs import BlockDevice, FileSystem, Journal, PageCache
from ..hardware.server import Server
from ..obs.trace import NULL_TRACER
from ..sim.stats import Counter, Tally
from ..units import GiB, PAGE_SIZE
from .requests import AsyncRequest

__all__ = ["StorageEngine"]

_POLL_INTERVAL = 2e-6

#: size of the DPU-owned filesystem on the server's first SSD
FS_CAPACITY_BYTES = 256 * GiB
#: size of the fast-persistence journal on the DPU's onboard storage
JOURNAL_BYTES = 1 * GiB


class StorageEngine:
    """The SE instance bound to one DPU-equipped server."""

    def __init__(self, server: Server,
                 dpu_cache_bytes: int = 0,
                 host_cache_bytes: int = 0,
                 ring_capacity: int = 4096,
                 telemetry=None, injector=None):
        if server.dpu is None:
            raise StorageError("the Storage Engine requires a DPU")
        if not server.ssds:
            raise StorageError("the Storage Engine requires an SSD")
        self.server = server
        self.env = server.env
        self.dpu = server.dpu
        self.costs = server.costs.software
        self.name = name = "se"
        self.tracer = telemetry.tracer if telemetry is not None \
            else NULL_TRACER
        #: optional FaultInjector for the SE-private pieces the
        #: server-wide install() cannot reach: journal device, rings
        self.injector = injector
        #: the DPU-owned filesystem (file mapping lives here)
        self.fs = FileSystem(
            BlockDevice(server.ssd(0), capacity_bytes=FS_CAPACITY_BYTES,
                        tracer=self.tracer),
            name=f"{name}.fs",
            tracer=self.tracer,
        )
        # The fast-persistence journal lives on the DPU's onboard fast
        # storage (Section 9: "persist a write request to … DPU's
        # onboard fast storage before forwarding the operation to the
        # host"), modelled as a small low-latency device.
        from ..hardware.ssd import Ssd, SsdSpec
        self._journal_device = Ssd(
            self.env,
            SsdSpec(read_latency_s=8e-6, write_latency_s=6e-6,
                    read_bandwidth_bps=6.4e10, write_bandwidth_bps=4.8e10,
                    queue_depth=64),
            name=f"{name}.pmem",
        )
        self.journal = Journal(self._journal_device, JOURNAL_BYTES,
                               name=f"{name}.journal",
                               tracer=self.tracer, injector=injector)
        self.dpu_cache: Optional[PageCache] = (
            PageCache(self.dpu.memory, dpu_cache_bytes,
                      name=f"{name}.dpu_cache")
            if dpu_cache_bytes else None
        )
        self.host_cache: Optional[PageCache] = (
            PageCache(server.host_memory, host_cache_bytes,
                      name=f"{name}.host_cache")
            if host_cache_bytes else None
        )
        from ..netstack.ringbuffer import RingPair
        self.rings = RingPair(self.env, capacity=ring_capacity,
                              name=f"{name}.rings",
                              tracer=self.tracer, category="storage",
                              injector=injector)
        self.host_ops = Counter(f"{name}.host_ops")
        self.dpu_ops = Counter(f"{name}.dpu_ops")
        self.apply_failures = Counter(f"{name}.apply_failures")
        self.host_op_latency = Tally(f"{name}.host_latency")
        self.persist_ack_latency = Tally(f"{name}.persist_ack")
        self.env.process(self._reactor(), name=f"{name}-reactor")

    # -- namespace operations (metadata; host-side) -------------------------

    def create(self, name: str, size: int = 0) -> int:
        """Create a file; returns its file id."""
        self._charge_host_async(self.costs.file_frontend_cycles_per_op)
        return self.fs.create(name, size)

    # -- host data path (Figure 6's se.read / se.write) ------------------------

    def read(self, file_id: int, offset: int,
             size: int = PAGE_SIZE) -> AsyncRequest:
        """Async read; completes with the page :class:`Buffer`."""
        request = AsyncRequest(self.env, "se:read")
        request.span = self.tracer.begin(
            "se.read", category="storage", file_id=file_id,
            offset=offset, size=size,
        )
        self._charge_host_async(self.costs.file_frontend_cycles_per_op)
        if self.host_cache is not None:
            cached = self.host_cache.get((file_id, offset, size))
            if cached is not None:
                request.span.annotate(cache="host_hit")
                request.span.finish()
                request.complete(cached)
                self.host_ops.add(1)
                return request
        if not self.rings.submit({"op": "read", "file_id": file_id,
                                  "offset": offset, "size": size,
                                  "request": request,
                                  "span": request.span}):
            request.span.annotate(error="RingOverflow")
            request.span.finish()
            request.fail(StorageError("SE submission ring overflow"))
        return request

    def write(self, file_id: int, offset: int, payload) -> AsyncRequest:
        """Async write; completes (with the byte count) at durability."""
        buffer = as_buffer(payload)
        request = AsyncRequest(self.env, "se:write")
        request.span = self.tracer.begin(
            "se.write", category="storage", file_id=file_id,
            offset=offset, size=buffer.size,
        )
        self._charge_host_async(self.costs.file_frontend_cycles_per_op)
        if not self.rings.submit({"op": "write", "file_id": file_id,
                                  "offset": offset, "buffer": buffer,
                                  "request": request,
                                  "span": request.span}):
            request.span.annotate(error="RingOverflow")
            request.span.finish()
            request.fail(StorageError("SE submission ring overflow"))
        return request

    def write_persistent(self, file_id: int, offset: int,
                         payload) -> AsyncRequest:
        """Fast persistence: ack once the DPU journal is durable.

        The request completes when the write is journaled on the
        DPU-attached device; the in-place file write is applied
        asynchronously afterwards (Section 9, "Faster persistence").
        """
        buffer = as_buffer(payload)
        request = AsyncRequest(self.env, "se:write_persistent")
        request.span = self.tracer.begin(
            "se.persist", category="storage", file_id=file_id,
            offset=offset, size=buffer.size,
        )
        self._charge_host_async(self.costs.file_frontend_cycles_per_op)
        if not self.rings.submit({"op": "persist", "file_id": file_id,
                                  "offset": offset, "buffer": buffer,
                                  "request": request,
                                  "span": request.span}):
            request.span.annotate(error="RingOverflow")
            request.span.finish()
            request.fail(StorageError("SE submission ring overflow"))
        return request

    # -- DPU-direct data path (used by the offload engine / DDS) ----------------

    def dpu_read(self, file_id: int, offset: int, size: int):
        """Read executed entirely on the DPU (generator -> Buffer)."""
        self.dpu_ops.add(1)
        with self.tracer.span("se.dpu_read", category="storage",
                              file_id=file_id, offset=offset,
                              size=size) as span:
            if self.dpu_cache is not None:
                cached = self.dpu_cache.get((file_id, offset, size))
                if cached is not None:
                    span.annotate(cache="dpu_hit")
                    return cached
                span.annotate(cache="dpu_miss")
            yield from self.dpu.cpu.execute(
                self.costs.dpu_file_service_cycles_per_op
            )
            buffer = yield from self.fs.read(file_id, offset, size)
            if self.dpu_cache is not None:
                self.dpu_cache.put((file_id, offset, size), buffer)
            return buffer

    def dpu_write(self, file_id: int, offset: int, payload):
        """Write executed entirely on the DPU (generator -> size)."""
        self.dpu_ops.add(1)
        buffer = as_buffer(payload)
        with self.tracer.span("se.dpu_write", category="storage",
                              file_id=file_id, offset=offset,
                              size=buffer.size):
            yield from self.dpu.cpu.execute(
                self.costs.dpu_file_service_cycles_per_op
            )
            written = yield from self.fs.write(file_id, offset, buffer)
            self._invalidate(file_id, offset, buffer.size)
            return written

    # -- the DPU file service reactor ----------------------------------------------

    def _reactor(self):
        """Dedicated DPU core: poll rings, submit I/O, complete ops.

        Submission is cheap (SPDK-style polled mode); the device time
        itself overlaps across requests via spawned processes.
        """
        core = yield from self.dpu.cpu.acquire_core()
        spdk_cycles = self.costs.spdk_cycles_per_page
        while True:
            batch = self.rings.poll_submissions(32)
            if not batch:
                # Sleep until the host pushes again, then charge one
                # poll interval of latency (the lazy-DMA poll gap).
                yield self.rings.submission.signal.get()
                yield from core.sleep(_POLL_INTERVAL)
                continue
            # Batched descriptor DMA; payloads move per-request inside
            # _execute so writes do not serialize the reactor.
            yield from self.dpu.dma.copy(64 * len(batch),
                                         direction="to_device")
            for item in batch:
                yield from core.run(
                    self.costs.dpu_file_service_cycles_per_op
                )
                pages = max(
                    1,
                    (item.get("size")
                     or item["buffer"].size
                     or 1) // PAGE_SIZE,
                )
                yield from core.run(spdk_cycles * pages)
                self.env.process(self._execute(item),
                                 name=f"{self.name}-io")

    def _execute(self, item: dict):
        request: AsyncRequest = item["request"]
        try:
            with self.tracer.span("se.execute", category="storage",
                                  parent=request.span, op=item["op"]):
                if item["op"] == "read":
                    buffer = yield from self._service_read(
                        item["file_id"], item["offset"], item["size"]
                    )
                    yield from self.dpu.dma.copy(max(buffer.size, 64),
                                                 direction="to_host")
                    if self.host_cache is not None:
                        self.host_cache.put(
                            (item["file_id"], item["offset"],
                             item["size"]),
                            buffer,
                        )
                    result = buffer
                elif item["op"] == "write":
                    if item["buffer"].size:
                        yield from self.dpu.dma.copy(
                            item["buffer"].size, direction="to_device"
                        )
                    result = yield from self.fs.write(
                        item["file_id"], item["offset"], item["buffer"]
                    )
                    self._invalidate(item["file_id"], item["offset"],
                                     item["buffer"].size)
                    yield from self.dpu.dma.copy(64,
                                                 direction="to_host")
                elif item["op"] == "persist":
                    if item["buffer"].size:
                        yield from self.dpu.dma.copy(
                            item["buffer"].size, direction="to_device"
                        )
                    result = yield from self._service_persist(item)
                else:
                    raise StorageError(f"unknown SE op {item['op']!r}")
        except BaseException as exc:
            request.span.annotate(error=type(exc).__name__)
            request.span.finish()
            request.fail(exc)
            return
        self.host_ops.add(1)
        self._charge_host_async(self.costs.ring_read_cycles_per_op)
        self.host_op_latency.observe(self.env.now - request.issued_at)
        request.span.finish()
        request.complete(result)

    def _service_read(self, file_id: int, offset: int, size: int):
        if self.dpu_cache is not None:
            cached = self.dpu_cache.get((file_id, offset, size))
            if cached is not None:
                return cached
        buffer = yield from self.fs.read(file_id, offset, size)
        if self.dpu_cache is not None:
            self.dpu_cache.put((file_id, offset, size), buffer)
        return buffer

    def _service_persist(self, item: dict):
        buffer: Buffer = item["buffer"]
        record = yield from self.journal.append(
            "write", {"file_id": item["file_id"],
                      "offset": item["offset"],
                      "size": buffer.size},
            max(buffer.size, 64),
        )
        # Ack now — this is the fast-persistence durability point.
        request: AsyncRequest = item["request"]
        yield from self.dpu.dma.copy(64, direction="to_host")
        self.persist_ack_latency.observe(self.env.now - request.issued_at)
        self.env.process(self._apply_persisted(item, record.lsn))
        return buffer.size

    def _apply_persisted(self, item: dict, lsn: int):
        # The ack already went out; this is the crash window Section 9
        # worries about.  A fault here must NOT lose the write — the
        # journal record stays (no truncation) so recover() replays it.
        try:
            yield from self.fs.write(item["file_id"], item["offset"],
                                     item["buffer"])
        except ReproError as exc:
            self.apply_failures.add(1)
            self.tracer.instant(
                "se.apply_failed", category="storage", lsn=lsn,
                error=type(exc).__name__,
            )
            return
        self._invalidate(item["file_id"], item["offset"],
                         item["buffer"].size)
        self.journal.truncate_through(lsn)

    # -- recovery ----------------------------------------------------------------------

    def recover(self):
        """Replay un-applied journal records into the filesystem.

        The coordinated-recovery path Section 9 calls out: after a
        crash between a fast-persistence acknowledgement and its
        asynchronous in-place apply, surviving journal records are
        replayed in LSN order and the journal is truncated.  Returns
        the number of records replayed (generator).
        """
        records = self.journal.replay()
        for record in records:
            payload = record.payload
            yield from self.fs.write(
                payload["file_id"], payload["offset"],
                SynthBuffer(payload["size"],
                            label=f"recovered@{record.lsn}"),
            )
            self._invalidate(payload["file_id"], payload["offset"],
                             payload["size"])
        if records:
            self.journal.truncate_through(records[-1].lsn)
        return len(records)

    # -- helpers ---------------------------------------------------------------------

    def _invalidate(self, file_id: int, offset: int, size: int) -> None:
        for cache in (self.dpu_cache, self.host_cache):
            if cache is not None:
                cache.invalidate((file_id, offset, size))

    def _charge_host_async(self, cycles: float) -> None:
        if cycles <= 0:
            return
        if self.server.host_cpu.charge_async(cycles):
            return

        def charge():
            try:
                yield from self.server.host_cpu.execute(cycles)
            except FaultInjectedError:
                pass    # accounting-only cycles lost in a crash window

        self.env.process(charge())
