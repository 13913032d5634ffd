"""kernels_real_bytes: real DEFLATE/AES/regex, mirrored on fig1/fig6.

A ``DpdpuRuntime`` on a BlueField-2 and one on ``GENERIC_DPU`` (no
ASICs, so the Figure-6 ``dpu_asic`` request falls back to ``dpu_cpu``).
Closed loop of one caller over 64 KiB ``RealBuffer`` corpus pages:
per page, the Figure-6 sproc read -> compress -> encrypt -> crc32 on
each server, a scheduled ``regex`` DP kernel on the BF-2, and a
``dedup`` DP kernel placed on the host CPU of the other server (the
host-side leg that gives the workload a non-zero host-core figure).
The simulator core is nearly idle here; the from-scratch algorithms in
``repro.algos`` are the cost.
"""

from __future__ import annotations

import zlib

from repro.algos import aes128_ctr
from repro.buffers import RealBuffer
from repro.core import DpdpuRuntime
from repro.hardware import BLUEFIELD2, GENERIC_DPU, make_server
from repro.sim import Environment
from repro.units import KiB
from repro.workloads import TextCorpus

from .base import (Outcome, Scenario, core_counts, cpu_counts,
                   nic_counts, ssd_ios)

PAGE_BYTES = 64 * KiB
REGEX = r"data[a-z]+"
#: the crypto kernels' defaults (``repro.core.kernels``); CTR mode is
#: its own inverse, which the round-trip check uses
AES_KEY = b"dpdpu-aes128-key"
AES_NONCE = b"dpdpunce"


def _read_compress_encrypt_crc(ctx, request):
    """Figure 6, extended: read -> compress -> encrypt -> crc32."""
    def on_asic_or_arm(kernel, data):
        handle = ctx.dpk(kernel)
        work = handle(data, "dpu_asic")
        if work is None:
            work = handle(data, "dpu_cpu")
        return work

    page = yield from ctx.wait(ctx.se.read(
        request["file_id"], request["addr"], PAGE_BYTES))
    compress = on_asic_or_arm("compress", page)
    compressed = yield from ctx.wait(compress)
    encrypt = on_asic_or_arm("encrypt", compressed)
    encrypted = yield from ctx.wait(encrypt)
    checksum = ctx.dpk("crc32")(encrypted, "dpu_cpu")
    yield from ctx.wait(checksum)
    return {"compressed": compressed.data, "encrypted": encrypted.data,
            "crc32": checksum.meta["crc32"],
            "devices": [compress.device, encrypt.device,
                        checksum.device]}


class _Machine:
    """One DPU server with the sproc registered and pages stored."""

    def __init__(self, label: str, profile, n_pages: int):
        self.label = label
        self.env = Environment()
        self.server = make_server(self.env, name=label,
                                  dpu_profile=profile)
        self.runtime = DpdpuRuntime(self.server)
        self.file_id = self.runtime.storage.create(
            "pages", size=n_pages * PAGE_BYTES)
        self.runtime.compute.register_sproc(
            "read_compress_encrypt_crc", _read_compress_encrypt_crc)

    def store(self, pages) -> None:
        writes = [self.runtime.storage.write(
            self.file_id, index * PAGE_BYTES, RealBuffer(page))
            for index, page in enumerate(pages)]

        def settle():
            for write in writes:
                yield write.done

        self.env.run(until=self.env.process(settle()))

    def call(self, request):
        """Closed loop: run until ``request`` completes; return it."""
        self.env.run(until=request.done)
        return request


class KernelsRealBytes(Scenario):
    """See the module docstring."""

    name = "kernels_real_bytes"
    op_metric = "algos.op_host_ms"
    FULL = {"pages": 5}
    REDUCED = {"pages": 1}

    def build(self) -> None:
        pages = self.sizes["pages"]
        self.machines = [_Machine("bf2", BLUEFIELD2, pages),
                         _Machine("generic", GENERIC_DPU, pages)]

    def generate(self) -> None:
        corpus = TextCorpus(seed=self.seed)
        # generate() can return one byte short of what is asked for
        self.pages = [corpus.generate(PAGE_BYTES + 1,
                                      stream_seed=index)[:PAGE_BYTES]
                      for index in range(self.sizes["pages"])]

    def connect(self) -> None:
        for machine in self.machines:
            machine.store(self.pages)

    def run(self) -> None:
        self.ops = []
        bf2, generic = self.machines
        pace = self.spans.pace
        self.sim_started = [m.env.now for m in self.machines]
        self.host_busy_before = sum(
            m.server.host_cpu.busy_seconds() for m in self.machines)
        for index, page in enumerate(self.pages):
            for machine in self.machines:
                with self.spans.span(f"op:sproc{index}@{machine.label}"):
                    done = machine.call(machine.runtime.compute.invoke(
                        "read_compress_encrypt_crc",
                        {"file_id": machine.file_id,
                         "addr": index * PAGE_BYTES}))
                self.ops.append(("sproc", machine.label, index, done))
                pace()
            with self.spans.span(f"op:regex{index}@bf2"):
                done = bf2.call(bf2.runtime.compute.submit_kernel(
                    "regex", RealBuffer(page),
                    params={"pattern": REGEX}))
            self.ops.append(("regex", "bf2", index, done))
            pace()
            with self.spans.span(f"op:dedup{index}@generic"):
                done = generic.call(
                    generic.runtime.compute.submit_kernel(
                        "dedup", RealBuffer(page), device="host_cpu"))
            self.ops.append(("dedup", "generic", index, done))
            pace()

    def collect(self) -> Outcome:
        machines = self.machines
        window_s = sum(m.env.now - started for m, started
                       in zip(machines, self.sim_started))
        host_busy = sum(m.server.host_cpu.busy_seconds()
                        for m in machines) - self.host_busy_before
        rows, latencies = [], []
        bytes_in = bytes_out = 0
        inflate_ok = aes_ok = crc_ok = failed = 0
        sprocs = 0
        for kind, label, index, request in self.ops:
            page = self.pages[index]
            row = {"op": kind, "machine": label, "page": index,
                   "latency_s": request.latency}
            if request.failed:
                failed += 1
                latencies.append(None)
                rows.append(row)
                continue
            latencies.append(request.latency * 1e6)
            if kind == "sproc":
                sprocs += 1
                result = request.data
                compressed = result["compressed"]
                encrypted = result["encrypted"]
                inflate_ok += zlib.decompress(compressed, -15) == page
                aes_ok += aes128_ctr(encrypted, AES_KEY,
                                     AES_NONCE) == compressed
                crc_ok += result["crc32"] == zlib.crc32(encrypted)
                bytes_in += (len(page) + len(compressed)
                             + len(encrypted))
                bytes_out += len(compressed) + 2 * len(encrypted)
                row.update(compressed_bytes=len(compressed),
                           crc32=result["crc32"],
                           devices=result["devices"])
            else:
                bytes_in += len(page)
                bytes_out += request.data.size
                row.update(device=request.device, meta={
                    key: value for key, value in request.meta.items()
                    if isinstance(value, (int, float))})
            rows.append(row)
        counts = {}
        counts.update(core_counts(m.env for m in machines))
        counts.update(cpu_counts([m.server.host_cpu for m in machines],
                                 [m.server.dpu.cpu for m in machines]))
        counts.update(nic_counts(m.server.nic for m in machines))
        counts.update({
            "hardware.ssd.ios": ssd_ios(m.server for m in machines),
            "core.ce.kernel_execs": sum(
                m.runtime.compute.kernel_executions.value
                for m in machines),
            "core.ce.degraded": sum(
                m.runtime.compute.degraded.value for m in machines),
            "core.se.dpu_ops": sum(
                m.runtime.storage.dpu_ops.value for m in machines),
            "core.se.host_ops": sum(
                m.runtime.storage.host_ops.value for m in machines),
            "algos.bytes_in": float(bytes_in),
            "algos.bytes_out": float(bytes_out),
            "workloads.ops_generated": float(len(self.pages)),
            "client.issued": float(len(self.ops)),
            "client.ok": float(len(self.ops) - failed),
            "client.error": float(failed),
        })
        return Outcome(
            simulated={"counts": counts, "ops": rows,
                       "host_cores": host_busy / window_s},
            latencies_us=latencies,
            censor_us=window_s * 1e6,
            good=len(self.ops) - failed,
            window_s=window_s,
            host_cores=host_busy / window_s,
            sim_ops=len(self.ops),
            counts=counts,
            checks=[
                ("every_op_completed", failed == 0),
                ("zlib_inflates_our_deflate", inflate_ok == sprocs),
                ("aes_ctr_round_trips", aes_ok == sprocs),
                ("crc_equals_zlib_crc32", crc_ok == sprocs),
            ],
        )
