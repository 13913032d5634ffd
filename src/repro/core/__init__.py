"""DPDPU core: the Compute, Network, and Storage engines.

This package is the paper's contribution; everything else in
:mod:`repro` is substrate.  See :class:`DpdpuRuntime` for the entry
point and the package docstrings for the mapping to paper sections.
"""

from .admission import AdmissionController, CodelShedder, TokenBucket
from .compute import ComputeEngine, KernelRequest, SprocContext
from .dds import DdsClient, DdsServer
from .dpdpu import DpdpuRuntime
from .handles import DpKernelHandle
from .kernels import BUILTIN_KERNELS, DpKernelSpec, KernelResult
from .network import DfiFlow, HostListener, HostSocket, NetworkEngine, OffloadedQp
from .pipeline import Pipeline
from .requests import AsyncRequest, wait
from .scheduler import POLICIES, ScheduledTask, SprocScheduler
from .storage import StorageEngine
from .traffic import TrafficDirector
from .tenancy import Tenant, TenantRegistry
from .wire import (default_udf, encode_log_replay, encode_read,
                   encode_sproc, encode_write)

__all__ = [
    "AdmissionController",
    "CodelShedder",
    "TokenBucket",
    "ComputeEngine",
    "KernelRequest",
    "SprocContext",
    "DdsClient",
    "DdsServer",
    "default_udf",
    "encode_log_replay",
    "encode_read",
    "encode_sproc",
    "encode_write",
    "DpdpuRuntime",
    "DpKernelHandle",
    "BUILTIN_KERNELS",
    "DpKernelSpec",
    "KernelResult",
    "DfiFlow",
    "HostListener",
    "HostSocket",
    "NetworkEngine",
    "OffloadedQp",
    "Pipeline",
    "AsyncRequest",
    "wait",
    "POLICIES",
    "ScheduledTask",
    "SprocScheduler",
    "StorageEngine",
    "TrafficDirector",
    "Tenant",
    "TenantRegistry",
]
