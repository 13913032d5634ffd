"""``python -m hostbench noise --sets 3``: A/A noise of the same code.

Runs the whole suite ``--sets`` times in the benchmark driver's form
(default seed, ``--seconds RUN_SECONDS``) and prints, per workload and
end-to-end metric, the max relative spread ((max - min) / median)
across the sets.  ``sim_*`` metrics must read 0.  A host metric whose
spread exceeds half its bound is flagged: lengthen that workload
rather than widen the bound.  ``--json-out`` saves the table; it is
committed as the ``noise`` block of ``hostbench/baseline.json``.
"""

from __future__ import annotations

import argparse
import json

from .measure import spread
from .runner import run_suite
from .spec import DEFAULT_SEED, END_TO_END, RUN_SECONDS, WORKLOADS

__all__ = ["noise_table", "main"]


def noise_table(results) -> dict:
    """workload -> metric -> {"values", "spread", "bound", "flag"}."""
    table = {}
    for workload in results[0]["workloads"]:
        table[workload] = {}
        for name, _unit, _better, bound in END_TO_END:
            values = [result["workloads"][workload]["end_to_end"][name]
                      for result in results]
            width = spread(values)
            table[workload][name] = {
                "values": values, "spread": width, "bound": bound,
                "flag": (width > 0.0 if name.startswith("sim_")
                         else width > bound / 2),
            }
    return table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m hostbench noise")
    parser.add_argument("--sets", type=int, default=3)
    parser.add_argument("--json-out", default=None)
    args = parser.parse_args(argv)
    if args.sets < 2:
        parser.error("--sets must be at least 2")
    results = [run_suite(list(WORKLOADS), seed=DEFAULT_SEED,
                         seconds=RUN_SECONDS)
               for _ in range(args.sets)]
    table = noise_table(results)
    print(f"{'workload':20s} {'metric':20s} {'spread':>8s} "
          f"{'bound':>6s}")
    flagged = 0
    for workload, metrics in table.items():
        for name, row in metrics.items():
            mark = ""
            if row["flag"]:
                flagged += 1
                mark = ("  NOT EXACT" if name.startswith("sim_")
                        else "  > bound/2: lengthen the workload")
            print(f"{workload:20s} {name:20s} {row['spread']:8.4f} "
                  f"{row['bound']:6.2f}{mark}")
    speeds = [result["workloads"][workload]["raw"]["speed"]
              for result in results for workload in table]
    print(f"machine speed over the sets: {min(speeds):.3f} to "
          f"{max(speeds):.3f}")
    digests = {
        workload: len({result["workloads"][workload]["digest"]
                       for result in results}) == 1
        for workload in table}
    print("digests equal across sets:", digests)
    if args.json_out:
        with open(args.json_out, "w") as handle:
            json.dump({"sets": args.sets, "seed": DEFAULT_SEED,
                       "seconds": RUN_SECONDS,
                       "machine_speed": [min(speeds), max(speeds)],
                       "spread": {w: {m: row["spread"]
                                      for m, row in metrics.items()}
                                  for w, metrics in table.items()},
                       "digests_equal": digests},
                      handle, indent=1, sort_keys=True)
    return 1 if flagged or not all(digests.values()) else 0
