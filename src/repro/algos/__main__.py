"""``python -m repro.algos``: host milliseconds per call of each
real-bytes kernel, as the markdown table docs/PERFORMANCE.md quotes.

Median of 7 calls over the seed-13 corpus page that
``kernels_real_bytes`` runs first.  Host times compare on one machine
only: run a parent and a change checkout side by side.
"""

import statistics
import time

from ..workloads import TextCorpus
from . import Pattern, aes128_ctr, chunk_stream, crc32, deflate, inflate

REPEATS = 7


def _median_ms(call) -> float:
    times = []
    for _ in range(REPEATS):
        started = time.perf_counter()
        call()
        times.append(time.perf_counter() - started)
    return statistics.median(times) * 1e3


def main() -> None:
    page = TextCorpus(seed=13).generate(64 * 1024 + 1)[:64 * 1024]
    packed = deflate(page, 6)
    print(f"| call ({len(page)} B page, median of {REPEATS}) | ms |")
    print("|---|---|")
    for label, call in [
        ("deflate(page, 6)", lambda: deflate(page, 6)),
        # a new Pattern each call: an empty DFA, as the first page sees
        ('Pattern("data[a-z]+").findall(page)',
         lambda: Pattern("data[a-z]+").findall(page)),
        ("chunk_stream(page)", lambda: chunk_stream(page)),
        (f"inflate({len(packed)} B)", lambda: inflate(packed)),
        ("aes128_ctr(page)",
         lambda: aes128_ctr(page, b"dpdpu-aes128-key", b"dpdpunce")),
        ("crc32(page)", lambda: crc32(page)),
    ]:
        print(f"| `{label}` | {_median_ms(call):.2f} |")


if __name__ == "__main__":
    main()
