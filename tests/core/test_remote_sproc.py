"""Remote sproc invocation through DDS (CompuCache-style offload)."""

import json

import pytest

from repro.baselines.host_tcp import make_kernel_tcp
from repro.core import DdsClient, DpdpuRuntime, encode_sproc
from repro.hardware import BLUEFIELD2, connect, make_server
from repro.sim import Environment
from repro.units import MiB, PAGE_SIZE


@pytest.fixture
def env():
    return Environment()


def _deploy(env):
    storage = make_server(env, name="storage", dpu_profile=BLUEFIELD2)
    client_machine = make_server(env, name="client", dpu_profile=None)
    connect(storage, client_machine)
    runtime = DpdpuRuntime(storage)
    file_id = runtime.storage.create("data", size=64 * MiB)
    dds = runtime.dds(port=9500)
    client_tcp = make_kernel_tcp(client_machine, "c")
    return runtime, dds, file_id, client_tcp


class TestRemoteSproc:
    def test_invoke_returns_json_result(self, env):
        runtime, dds, file_id, client_tcp = _deploy(env)

        def double(ctx, arg):
            yield from ctx.compute(10_000)
            return arg * 2

        runtime.compute.register_sproc("double", double)
        results = []

        def client():
            connection = yield from client_tcp.connect(9500)
            dds_client = DdsClient(connection)
            request = dds_client.submit(encode_sproc("double", 21))
            buffer = yield request.done
            results.append(json.loads(buffer.data))

        env.process(client())
        env.run(until=2.0)
        assert results == [{"result": 42}]
        assert dds.offloaded.value == 1

    def test_sproc_returning_buffer_ships_bytes(self, env):
        runtime, dds, file_id, client_tcp = _deploy(env)

        def read_and_compress(ctx, arg):
            """A remote analytical task: read a page, compress it."""
            page = yield from ctx.wait(
                ctx.se.read(arg["file_id"], arg["offset"], PAGE_SIZE)
            )
            dpk = ctx.dpk("compress")
            compressed = yield from ctx.wait(
                dpk(page, "dpu_asic") or dpk(page, "dpu_cpu")
            )
            return compressed

        runtime.compute.register_sproc("read_and_compress",
                                       read_and_compress)
        results = []

        def client():
            connection = yield from client_tcp.connect(9500)
            dds_client = DdsClient(connection)
            request = dds_client.submit(encode_sproc(
                "read_and_compress",
                {"file_id": file_id, "offset": 0},
            ))
            buffer = yield request.done
            results.append(buffer.size)

        env.process(client())
        env.run(until=2.0)
        assert results and results[0] < PAGE_SIZE
        assert runtime.server.host_cpu.busy_seconds() / env.now < 0.01

    def test_unknown_sproc_falls_back_to_host(self, env):
        runtime, dds, file_id, client_tcp = _deploy(env)
        done = []

        def client():
            connection = yield from client_tcp.connect(9500)
            dds_client = DdsClient(connection)
            request = dds_client.submit(encode_sproc("ghost"))
            yield request.done
            done.append(True)

        env.process(client())
        env.run(until=2.0)
        assert done == [True]
        assert dds.forwarded.value == 1

    def test_sproc_error_returns_error_reply(self, env):
        runtime, dds, file_id, client_tcp = _deploy(env)

        def exploding(ctx, arg):
            yield from ctx.compute(1000)
            raise RuntimeError("kaboom")

        runtime.compute.register_sproc("exploding", exploding)
        results = []

        def client():
            connection = yield from client_tcp.connect(9500)
            dds_client = DdsClient(connection)
            request = dds_client.submit(encode_sproc("exploding"))
            buffer = yield request.done
            results.append(json.loads(buffer.data))

        env.process(client())
        env.run(until=2.0)
        assert results[0]["error"] == "RuntimeError"
        assert "kaboom" in results[0]["detail"]
