"""The import graph is pinned: engines do not load the observatory.

What a process pays before its first event is what its imports load.
These tests fix *which modules* the layers pull in and how much those
modules allocate — in a fresh interpreter, so this test run's own
imports do not leak in — that the lazily resolved ``repro.obs`` names
still behave like ordinary module attributes, and that the objects
made per request carry no instance dict.  Nothing here is timed.
"""

import subprocess
import sys

import pytest

_LAYERS = ("sim", "hardware", "netstack", "fs", "core", "cluster",
           "query", "workloads", "baselines")

_NOT_LOADED_BY_THE_LAYERS = (
    "numpy", "repro.bench", "repro.obs.claims", "repro.obs.regress",
    "repro.obs.artifact", "repro.obs.plane", "repro.obs.attr",
    "platform", "subprocess",
)

#: ``repro.obs.__all__`` as it was when every name was imported eagerly
_OBS_PUBLIC_NAMES = (
    "AttributionCollector AttributionReport ClusterTelemetry "
    "FlightRecorder OffloadAdvisor RequestAttribution MetricsRegistry "
    "NULL_SPAN NULL_TRACER NullTracer SloMonitor SloSpec SloViolation "
    "Span Telemetry TelemetrySnapshot TraceContext Tracer artifact "
    "build_report claims merge_chrome_events regress write_merged_chrome"
)


def _python(*args):
    """Run a fresh interpreter on ``args`` (``repro`` importable as here)."""
    return subprocess.run([sys.executable, *args], text=True,
                          capture_output=True, timeout=120)


def _run_code(code):
    result = _python("-c", code)
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_layers_do_not_import_the_observatory_or_numpy():
    imports = "; ".join(f"import repro.{layer}" for layer in _LAYERS)
    loaded = _run_code(
        f"import sys; {imports}; "
        f"print([m for m in {_NOT_LOADED_BY_THE_LAYERS!r} "
        "if m in sys.modules])")
    assert loaded.strip() == "[]"


def test_layers_hold_little_after_import():
    # A module-level table of tuples is what breaks this: DEFLATE's
    # 32 769 distance entries as tuples held 3.2 MiB on one line.
    imports = "; ".join(f"import repro.{layer}" for layer in _LAYERS)
    sizes = _run_code(f"""
import os, tracemalloc
tracemalloc.start()
{imports}
import repro
root = os.path.join(os.path.dirname(repro.__file__), "*")
snapshot = tracemalloc.take_snapshot().filter_traces(
    [tracemalloc.Filter(True, root)])
print(*(stat.size for stat in snapshot.statistics("lineno")))
""")
    sizes = [int(size) for size in sizes.split()]
    assert sizes
    assert sum(sizes) < 1.5 * 2**20
    assert max(sizes) <= 256 * 2**10


def test_requests_and_buffers_carry_no_instance_dict():
    from repro.buffers import RealBuffer, SynthBuffer
    from repro.core.compute import KernelRequest
    from repro.core.requests import AsyncRequest
    from repro.sim import Environment

    env = Environment()
    for instance in (AsyncRequest(env, "op"),
                     KernelRequest(env, "compress", "dpu_cpu"),
                     RealBuffer(b"page"), SynthBuffer(4096)):
        assert not hasattr(instance, "__dict__"), instance
        with pytest.raises(AttributeError):
            instance.detail = {}


def test_every_public_obs_name_resolves_lazily():
    _run_code("""
import repro.obs
names = repro.obs.__all__
assert len(names) == len(set(names))
missing = set(%r.split()) - set(names)
assert not missing, missing
listed = dir(repro.obs)
for name in names:
    assert name in listed, name
    assert getattr(repro.obs, name) is not None, name
    assert name in vars(repro.obs), name      # bound after first access
namespace = {}
exec("from repro.obs import *", namespace)
assert all(name in namespace for name in names)
from repro.obs import ClusterTelemetry, SloMonitor, SloSpec, claims
import repro.obs.plane, repro.obs.claims
assert ClusterTelemetry is repro.obs.plane.ClusterTelemetry
assert claims is repro.obs.claims
try:
    repro.obs.nonexistent
except AttributeError as error:
    assert "nonexistent" in str(error)
else:
    raise AssertionError("repro.obs.nonexistent resolved")
""" % _OBS_PUBLIC_NAMES)


def test_observatory_entry_points_still_start():
    for module in ("repro.obs.plane", "repro.bench"):
        result = _python("-m", module, "--help")
        assert result.returncode == 0, result.stderr
        assert "usage" in result.stdout.lower()
