"""Observability: sim-time tracing and a unified metrics registry.

``repro.obs`` is the telemetry layer threaded through the DPDPU
runtime.  :class:`Tracer` records nested sim-time spans across the
compute, network, and storage engines and exports Chrome
``trace_event`` JSON (loadable in Perfetto) plus a plain-text flame
summary; :class:`MetricsRegistry` gives every scattered counter and
tally one hierarchical namespace; :class:`Telemetry` bundles both for
injection via ``DpdpuRuntime(..., telemetry=...)``.

Tracing is off by default: disabled call sites hit the shared
:data:`NULL_TRACER` singleton and return :data:`NULL_SPAN`, so
instrumentation has zero overhead and never perturbs results.

The package is also the **benchmark observatory**: :mod:`.artifact`
defines the schema-versioned run artifact ``python -m repro.bench
--json-out`` writes, :mod:`.claims` encodes the paper's quantitative
claims (F1–F3, F6–F8, S9) as data for ``--check``, and
:mod:`.regress` compares two artifacts exactly, path by path, for
``--identity``.
"""

from importlib import import_module

from .metrics import MetricsRegistry
from .telemetry import Telemetry
from .trace import (
    NULL_SPAN,
    NULL_TRACER,
    NullTracer,
    Span,
    TraceContext,
    Tracer,
    merge_chrome_events,
    write_merged_chrome,
)

#: observatory names, resolved on first access (PEP 562) so that an
#: engine importing ``NULL_TRACER`` loads none of these submodules
_LAZY = {name: submodule for submodule, names in {
    "artifact": ["artifact"], "claims": ["claims"], "regress": ["regress"],
    "attr": ["AttributionCollector", "AttributionReport", "OffloadAdvisor",
             "RequestAttribution", "build_report"],
    "plane": ["ClusterTelemetry", "FlightRecorder", "SloMonitor", "SloSpec",
              "SloViolation", "TelemetrySnapshot"],
}.items() for name in names}


def __getattr__(name):
    submodule = _LAZY.get(name)
    if submodule is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f".{submodule}", __name__)
    value = module if name == submodule else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))


__all__ = [
    "AttributionCollector",
    "AttributionReport",
    "ClusterTelemetry",
    "FlightRecorder",
    "OffloadAdvisor",
    "RequestAttribution",
    "MetricsRegistry",
    "NULL_SPAN",
    "NULL_TRACER",
    "NullTracer",
    "SloMonitor",
    "SloSpec",
    "SloViolation",
    "Span",
    "Telemetry",
    "TelemetrySnapshot",
    "TraceContext",
    "Tracer",
    "artifact",
    "build_report",
    "claims",
    "merge_chrome_events",
    "regress",
    "write_merged_chrome",
]
