"""Write ``BENCHMARK.json`` and ``hostbench/baseline.json``.

``BENCHMARK.json`` has exactly the keys the benchmark driver reads and
is a pure function of :mod:`hostbench.spec`.  ``baseline.json`` holds
what was measured and nothing that the code already says: the digests
pinned for the default seed (full and reduced size), the A/A noise,
the measured self-time shares and the first results.  Sizes are the
``FULL``/``REDUCED`` constants of ``hostbench/workloads/*.py``; each
per-layer metric's target is in ``hostbench/spec.py``.

``python -m hostbench.manifest --results T.json --reduced D.json
--noise N.json`` rewrites both (T from ``python -m hostbench --traced
--json-out``, D the same with ``--reduced``, N from ``noise
--json-out``).  Re-pin after a deliberate model change the same way.
"""

from __future__ import annotations

import argparse
import json
import os

from .spec import (DEFAULT_SEED, END_TO_END, LAYERS, PER_LAYER,
                   RUN_SECONDS, WORKLOADS)


def benchmark_json() -> dict:
    """The driver's contract file, from the spec tables."""
    return {
        "command": ["python3", "-m", "hostbench"],
        "paths": ["hostbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why}
                      for name, (_loop, _mirrors, why)
                      in WORKLOADS.items()],
        "end_to_end": [{"name": name, "unit": unit, "better": better,
                        "bound": bound}
                       for name, unit, better, bound in END_TO_END],
        "per_layer": [{"name": name, "unit": unit, "better": better}
                      for name, unit, better, _moves in PER_LAYER],
    }


def baseline_json(results: dict, reduced: dict, noise: dict) -> dict:
    """Pins and first measurements."""
    for result, size in ((results, False), (reduced, True)):
        if result["seed"] != DEFAULT_SEED or result["reduced"] != size:
            raise SystemExit("manifest: pins need seed "
                             f"{DEFAULT_SEED}, one full and one "
                             "reduced result")
    shares = {}
    for name, record in results["workloads"].items():
        span = sum(record["per_layer"][f"{layer}.self_s"]
                   for layer in LAYERS)
        shares[name] = {
            layer: round(100 * record["per_layer"][f"{layer}.self_s"]
                         / span, 1)
            for layer in LAYERS}
    return {
        "schema": "hostbench-baseline/1",
        "seed": DEFAULT_SEED,
        "provenance": results["provenance"],
        "digests": {
            size: {name: record["digest"]
                   for name, record in result["workloads"].items()}
            for size, result in (("full", results),
                                 ("reduced", reduced))},
        "noise": noise,
        "measured_self_time_share_pct": shares,
        "results": {
            name: {key: record[key]
                   for key in ("repeats", "latency_samples",
                               "tail_samples", "end_to_end", "raw",
                               "per_layer")}
            for name, record in results["workloads"].items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m hostbench.manifest")
    parser.add_argument("--results", required=True)
    parser.add_argument("--reduced", required=True)
    parser.add_argument("--noise", required=True)
    args = parser.parse_args(argv)
    loaded = []
    for path in (args.results, args.reduced, args.noise):
        with open(path) as handle:
            loaded.append(json.load(handle))
    package = os.path.dirname(os.path.abspath(__file__))
    targets = (
        (os.path.join(os.path.dirname(package), "BENCHMARK.json"),
         benchmark_json()),
        (os.path.join(package, "baseline.json"),
         baseline_json(*loaded)),
    )
    for path, document in targets:
        with open(path, "w") as handle:
            json.dump(document, handle, indent=1)
            handle.write("\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
