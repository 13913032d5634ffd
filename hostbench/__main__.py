"""``python -m hostbench``: run, ``compare`` and ``noise``.

``PYTHONPATH=src python -m hostbench [--workloads W,...] [--repeats 3]
[--seed 13] [--traced] [--json-out PATH]`` runs the workloads one at a
time, each in its own fresh interpreter, and prints every metric by
name with its unit.  With exactly one workload the workload runs in
this interpreter and the last line of standard output is the
benchmark driver's result object; the driver spells the same options
``--workload W --seed N --seconds S --trace 0|1``.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import ensure_repro_importable, runner
from .spec import DEFAULT_SEED, WORKLOADS


def _run_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m hostbench",
        description="Host-time benchmark of the DPDPU simulator; "
                    "subcommands: compare A.json B.json, noise --sets N")
    parser.add_argument("--workloads", "--workload", default=None,
                        help="comma-separated subset (default: all "
                             "five); a single one runs in-process")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--repeats", type=int, default=None,
                        help="timed repeats per workload (default 3)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measure for about this long instead of "
                             "a fixed repeat count")
    parser.add_argument("--traced", "--trace", nargs="?", type=int,
                        choices=(0, 1), const=1, default=0,
                        help="add one sampled repeat; per-layer "
                             "self-times and hostbench/out/trace_*.json")
    parser.add_argument("--reduced", action="store_true",
                        help="warm-up sizes for the timed repeats too "
                             "(self-tests)")
    parser.add_argument("--json-out", default=None)
    return parser


def _selected(args) -> list:
    if args.workloads:
        names = [name for name in args.workloads.split(",") if name]
    else:
        names = list(WORKLOADS)
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        sys.exit(f"hostbench: unknown workload(s) {unknown}; "
                 f"known: {list(WORKLOADS)}")
    return names


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "compare":
        from .compare import main as compare_main
        return compare_main(argv[1:])
    ensure_repro_importable()
    if argv and argv[0] == "noise":
        from .noise import main as noise_main
        return noise_main(argv[1:])

    args = _run_parser().parse_args(argv)
    names = _selected(args)
    options = dict(seed=args.seed, repeats=args.repeats,
                   seconds=args.seconds, reduced=args.reduced,
                   traced=bool(args.traced))
    if len(names) == 1:
        result = runner.run_workload(names[0], **options)
    else:
        result = runner.run_suite(names, **options)
    if args.json_out:
        with open(args.json_out, "w") as handle:
            json.dump(result, handle, indent=1)
    print(runner.render(result))
    if len(names) == 1:
        print(runner.driver_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
