"""The import graph is pinned: engines do not load the observatory.

What a process pays before its first event is what its imports load.
These tests fix *which modules* the layers pull in — in a fresh
interpreter, so this test run's own imports do not leak in — and that
the lazily resolved ``repro.obs`` names still behave like ordinary
module attributes.  Nothing here is timed.
"""

import subprocess
import sys

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
