"""DDS generality: user-supplied UDFs over custom wire protocols.

Section 7: "users supply a UDF that parses network messages to
identify remote storage requests that can be offloaded, and
translates them into file operations."  These tests run DDS with a
binary (non-JSON) protocol UDF to show the offload engine is not tied
to the built-in codec.
"""

import struct

import pytest

from repro.buffers import Buffer, RealBuffer
from repro.core import DdsClient, DpdpuRuntime
from repro.baselines.host_tcp import make_kernel_tcp
from repro.hardware import BLUEFIELD2, connect, make_server
from repro.sim import Environment
from repro.units import MiB, PAGE_SIZE

# A compact binary protocol: magic(2s) op(B) file(I) offset(Q) size(I).
_WIRE = struct.Struct(">2sBIQI")
_MAGIC = b"KV"
_OP_READ = 1
_OP_WRITE = 2


def encode_binary_read(file_id: int, offset: int,
                       size: int = PAGE_SIZE) -> Buffer:
    return RealBuffer(_WIRE.pack(_MAGIC, _OP_READ, file_id, offset,
                                 size))


def binary_udf(message: Buffer):
    """Parse the binary protocol; decline anything else."""
    if not isinstance(message, RealBuffer):
        return None
    data = message.data
    if len(data) < _WIRE.size or data[:2] != _MAGIC:
        return None
    magic, op, file_id, offset, size = _WIRE.unpack(
        data[:_WIRE.size]
    )
    kind = {_OP_READ: "read", _OP_WRITE: "write"}.get(op)
    if kind is None:
        return None
    return {"type": kind, "file_id": file_id, "offset": offset,
            "size": size}


@pytest.fixture
def env():
    return Environment()


def _deploy(env, udf):
    storage = make_server(env, name="storage", dpu_profile=BLUEFIELD2)
    client_machine = make_server(env, name="client", dpu_profile=None)
    connect(storage, client_machine)
    runtime = DpdpuRuntime(storage)
    file_id = runtime.storage.create("kv.log", size=64 * MiB)
    dds = runtime.dds(port=9400, udf=udf)
    client_tcp = make_kernel_tcp(client_machine, "c")
    return runtime, dds, file_id, client_tcp


class TestBinaryUdf:
    def test_parses_wire_format(self):
        request = binary_udf(encode_binary_read(7, 8192, 4096))
        assert request == {"type": "read", "file_id": 7,
                           "offset": 8192, "size": 4096}

    def test_declines_garbage(self):
        assert binary_udf(RealBuffer(b"XX" + b"\x00" * 30)) is None
        assert binary_udf(RealBuffer(b"KV")) is None     # too short

    def test_declines_unknown_opcode(self):
        frame = _WIRE.pack(_MAGIC, 99, 1, 0, 10)
        assert binary_udf(RealBuffer(frame)) is None

    def test_dds_offloads_binary_requests(self, env):
        runtime, dds, file_id, client_tcp = _deploy(env, binary_udf)
        sizes = []

        def client():
            connection = yield from client_tcp.connect(9400)
            dds_client = DdsClient(connection)
            for i in range(10):
                request = dds_client.submit(
                    encode_binary_read(file_id, i * PAGE_SIZE)
                )
                buffer = yield request.done
                sizes.append(buffer.size)

        env.process(client())
        env.run(until=2.0)
        assert sizes == [PAGE_SIZE] * 10
        assert dds.offloaded.value == 10
        assert runtime.server.host_cpu.busy_seconds() / env.now < 0.01

    def test_undeclined_messages_fall_back_to_host(self, env):
        runtime, dds, file_id, client_tcp = _deploy(env, binary_udf)
        done = []

        def client():
            connection = yield from client_tcp.connect(9400)
            dds_client = DdsClient(connection)
            request = dds_client.submit(
                RealBuffer(b"SQL SELECT * FROM t")     # not our protocol
            )
            yield request.done
            done.append(True)

        env.process(client())
        env.run(until=2.0)
        assert done == [True]
        assert dds.forwarded.value == 1
        assert dds.offloaded.value == 0
