"""hostbench: the repo's host-time benchmark.

Five fixed workloads built only from the layers' public APIs, seven
end-to-end metrics plus a check count, and a per-layer ledger (sampled
self-time, phase spans, work counts).  See ``hostbench/README.md``.

Two clocks: a metric named ``sim_*`` is simulated time (what the
modelled DPU server would take; deterministic); every other metric is
host time (what the simulator takes on this machine; noisy).
"""

import importlib.util
import os
import sys

SCHEMA = "hostbench/1"


def ensure_repro_importable() -> None:
    """Put ``<checkout>/src`` on ``sys.path`` when ``repro`` is not.

    The benchmark driver runs the command without ``PYTHONPATH``.  In
    a directory that holds only the benchmark this exits non-zero.
    """
    if importlib.util.find_spec("repro") is not None:
        return
    source = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        sys.exit("hostbench: cannot find the repro package "
                 f"(looked on sys.path and in {source})")
    sys.path.insert(0, source)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [source, os.environ.get("PYTHONPATH")]))
