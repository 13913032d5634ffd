"""SE namespace operations: stat / list / append."""

import pytest

from repro.buffers import SynthBuffer
from repro.core.storage import StorageEngine
from repro.hardware import BLUEFIELD2, make_server
from repro.sim import Environment
from repro.units import MiB, PAGE_SIZE


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def se(env):
    return StorageEngine(make_server(env, dpu_profile=BLUEFIELD2))


class TestNamespace:
    def test_stat_reports_size(self, se):
        file_id = se.create("a.db", size=2 * MiB)
        inode = se.stat(file_id)
        assert inode.size == 2 * MiB
        assert inode.name == "a.db"

    def test_list_files_sorted(self, se):
        se.create("zeta")
        se.create("alpha")
        se.create("mid")
        assert se.fs.mapping.names() == ["alpha", "mid", "zeta"]

    def test_append_extends_file(self, env, se):
        file_id = se.create("log", size=PAGE_SIZE)
        request = se.append(file_id, SynthBuffer(PAGE_SIZE))
        env.run(until=request.done)
        assert se.stat(file_id).size == 2 * PAGE_SIZE

    def test_sequential_appends_stack(self, env, se):
        file_id = se.create("log")
        for _ in range(4):
            request = se.append(file_id, SynthBuffer(PAGE_SIZE))
            env.run(until=request.done)
        assert se.stat(file_id).size == 4 * PAGE_SIZE

    def test_appended_data_readable(self, env, se):
        from repro.buffers import RealBuffer
        file_id = se.create("log")
        payload = RealBuffer(b"appended!" * 100)
        request = se.append(file_id, payload)
        env.run(until=request.done)
        read = se.read(file_id, 0, payload.size)
        buffer = env.run(until=read.done)
        assert buffer.data == payload.data
