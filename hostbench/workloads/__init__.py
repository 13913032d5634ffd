"""The five workloads; each module builds its scenario from the
layers' public APIs only and owns its sizes.

:func:`load` imports a workload's module on demand, so the runner can
time the import of the ``repro`` layers it pulls in.
"""

from __future__ import annotations

import importlib

__all__ = ["load"]

#: workload name -> (module under this package, class name)
_REGISTRY = {
    "dds_serving": ("dds_serving", "DdsServing"),
    "cluster_chaos": ("cluster", "ClusterChaos"),
    "cluster_traced": ("cluster", "ClusterTraced"),
    "scan_pushdown": ("scan_pushdown", "ScanPushdown"),
    "kernels_real_bytes": ("kernels_real_bytes", "KernelsRealBytes"),
}


def load(name: str):
    """The scenario class for workload ``name``."""
    module, cls = _REGISTRY[name]
    return getattr(importlib.import_module(f"{__name__}.{module}"), cls)
