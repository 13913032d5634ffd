"""The conventional disaggregated-storage server (Figure 8 left).

The baseline DDS competes against: remote requests terminate in the
host kernel TCP stack, the host application parses and executes them
through the kernel storage stack, and responses go back out through
kernel TCP.  Every byte and every request burns host cycles — this is
the server whose "10s of CPU cores" DDS saves (Section 9).
"""

from __future__ import annotations

from ..buffers import Buffer, SynthBuffer
from ..core.dds import HOST_REPLAY_CYCLES, HOST_REQUEST_CYCLES
from ..core.storage import FS_CAPACITY_BYTES
from ..core.wire import ACK, default_udf
from ..fs import BlockDevice, FileSystem
from ..hardware.server import Server
from ..netstack.tcp import TcpStack
from ..sim.stats import Counter, Tally

__all__ = ["HostServedStorage"]


class HostServedStorage:
    """A host-only remote storage server over kernel TCP."""

    def __init__(self, server: Server, port: int):
        self.server = server
        self.env = server.env
        self.costs = server.costs.software
        self.port = port
        self.name = name = "host-served"
        self.fs = FileSystem(
            BlockDevice(server.ssd(0), capacity_bytes=FS_CAPACITY_BYTES),
            name=f"{name}.fs",
        )
        self.tcp = TcpStack(
            self.env, server.nic, server.nic.rx_host, server.host_cpu,
            self.costs, name=f"{name}.tcp", mode="kernel",
        )
        self.requests_served = Counter(f"{name}.requests")
        self.request_latency = Tally(f"{name}.latency")
        self.env.process(self._accept_loop(), name=f"{name}-accept")

    def create_file(self, file_name: str, size: int) -> int:
        """Create a served file; returns its file id."""
        return self.fs.create(file_name, size)

    def _accept_loop(self):
        listener = self.tcp.listen(self.port)
        while True:
            connection = yield listener.accept()
            self.env.process(self._serve(connection),
                             name=f"{self.name}-conn")

    def _serve(self, connection):
        # Pipelined like DDS: requests process concurrently, responses
        # re-serialize into request order.
        from ..core.dds import OrderedResponder
        ordered = OrderedResponder(self.env, connection)
        sequence = 0
        while True:
            message = yield connection.recv_message()
            self.env.process(
                self._handle_one(message, sequence, ordered),
                name=f"{self.name}-req",
            )
            sequence += 1

    def _handle_one(self, message: Buffer, sequence: int, ordered):
        started = self.env.now
        response = yield from self._handle(message)
        ordered.post(sequence, response)
        self.requests_served.add(1)
        self.request_latency.observe(self.env.now - started)

    def _handle(self, message: Buffer):
        # Interrupt-driven path: softirq wake-up + completion IRQ
        # latency that the DPU's polled path does not pay.
        wake = self.costs.kernel_wakeup_latency_s
        request = default_udf(message)
        kind = request.get("type") if request else None
        # Parsing, request handling, and block-io submission run
        # back-to-back on the host before any I/O: one fused charge
        # burns the identical cycle total in one scheduler entry.
        cycles = self.costs.udf_parse_cycles
        if kind == "log_replay":
            cycles += HOST_REPLAY_CYCLES
        else:
            cycles += HOST_REQUEST_CYCLES
        if request is not None:
            cycles += self.costs.kernel_block_io_cycles_per_page
        cpu = self.server.host_cpu
        if cpu.charge_async(cycles):
            # Free core: the wake-up sleep and the charge collapse into
            # one timeout (the busy window starts at the wake instant
            # either way only under contention; here the core was idle,
            # so reserving it now just blocks nobody).
            yield self.env.timeout(wake + cpu.seconds_for(cycles))
        else:
            yield self.env.timeout(wake)
            yield from cpu.execute(cycles)
        if request is None:
            return ACK
        if kind == "read":
            buffer = yield from self.fs.read(
                request["file_id"], request["offset"], request["size"]
            )
            return buffer
        # write / log_replay both persist a page.
        yield from self.fs.write(
            request["file_id"], request["offset"],
            SynthBuffer(request["size"]),
        )
        return ACK
