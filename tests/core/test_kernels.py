"""Functional tests for the built-in DP kernels."""


from repro.buffers import RealBuffer, SynthBuffer
from repro.core.kernels import BUILTIN_KERNELS, builtin_kernel_specs


def run(name, buffer, **params):
    return BUILTIN_KERNELS[name].run(buffer, params)


class TestCompressKernels:
    def test_real_roundtrip(self):
        original = RealBuffer(b"page contents " * 500)
        compressed = run("compress", original)
        assert compressed.buffer.size < original.size
        assert compressed.meta["ratio"] > 1.0
        restored = run("decompress", compressed.buffer)
        assert restored.buffer.data == original.data

    def test_synth_scales_by_declared_ratio(self):
        buffer = SynthBuffer(9000, compress_ratio=3.0, label="p")
        compressed = run("compress", buffer)
        assert compressed.buffer.size == 3000
        restored = run("decompress", compressed.buffer)
        assert restored.buffer.size == 9000
        assert restored.buffer.label == "p"

    def test_incompressible_real_data_ratio_near_one(self):
        import random
        rng = random.Random(3)
        noise = RealBuffer(bytes(rng.randrange(256) for _ in range(4096)))
        result = run("compress", noise)
        assert result.meta["ratio"] < 1.1


class TestCryptoKernels:
    def test_encrypt_decrypt_roundtrip(self):
        original = RealBuffer(b"secret page data" * 100)
        encrypted = run("encrypt", original)
        assert encrypted.buffer.data != original.data
        assert encrypted.buffer.size == original.size
        decrypted = run("decrypt", encrypted.buffer)
        assert decrypted.buffer.data == original.data

    def test_synth_size_preserved(self):
        buffer = SynthBuffer(8192, label="page")
        encrypted = run("encrypt", buffer)
        assert encrypted.buffer.size == 8192
        decrypted = run("decrypt", encrypted.buffer)
        assert decrypted.buffer.label == "page"

    def test_custom_key(self):
        data = RealBuffer(b"x" * 64)
        a = run("encrypt", data, key=b"k" * 16)
        b = run("encrypt", data, key=b"q" * 16)
        assert a.buffer.data != b.buffer.data


class TestScanKernels:
    def test_regex_counts_real_matches(self):
        text = RealBuffer(b"err=1 warn=22 err=333 info=4")
        result = run("regex", text, pattern=rb"err=\d+")
        assert result.meta["count"] == 2

    def test_regex_synth_density(self):
        buffer = SynthBuffer(64_000)
        result = run("regex", buffer, match_density=1 / 1000)
        assert result.meta["count"] == 64

    def test_dedup_reports_duplicates(self):
        import random
        rng = random.Random(9)
        block = bytes(rng.randrange(256) for _ in range(30_000))
        result = run("dedup", RealBuffer(block + block))
        assert result.meta["unique_chunks"] < result.meta["chunks"]

    def test_crc_matches_zlib(self):
        import zlib
        data = b"integrity-checked page"
        result = run("crc32", RealBuffer(data))
        assert result.meta["crc32"] == zlib.crc32(data)


class TestPushdownKernels:
    RECORDS = b"1,alice,90\n2,bob,55\n3,carol,78\n4,dave,31\n"

    def test_filter_predicate(self):
        result = run(
            "filter", RealBuffer(self.RECORDS),
            predicate=lambda r: int(r.split(b",")[2]) >= 70,
        )
        assert result.meta["out"] == 2
        assert b"alice" in result.buffer.data
        assert b"bob" not in result.buffer.data

    def test_filter_selectivity_on_synth(self):
        result = run("filter", SynthBuffer(100_000), selectivity=0.25)
        assert result.buffer.size == 25_000

    def test_aggregate_sum_min_max(self):
        result = run(
            "aggregate", RealBuffer(self.RECORDS),
            extract=lambda r: int(r.split(b",")[2]),
        )
        assert result.meta["sum"] == 254
        assert result.meta["min"] == 31
        assert result.meta["max"] == 90
        assert result.meta["count"] == 4

    def test_project_columns(self):
        result = run("project", RealBuffer(self.RECORDS), columns=[1])
        assert result.buffer.data == b"alice\nbob\ncarol\ndave\n"

    def test_empty_filter_result(self):
        result = run("filter", RealBuffer(self.RECORDS),
                     predicate=lambda r: False)
        assert result.buffer.size == 0
        assert result.meta["out"] == 0


class TestRegistry:
    def test_builtin_names_match_cost_table(self):
        from repro.hardware.costs import DEFAULT_KERNEL_COSTS
        assert set(BUILTIN_KERNELS) == set(DEFAULT_KERNEL_COSTS)

    def test_specs_copy_is_independent(self):
        specs = builtin_kernel_specs()
        specs.pop("compress")
        assert "compress" in BUILTIN_KERNELS
