"""User-facing kernel handle (split out to avoid import cycles)."""

from __future__ import annotations

from typing import Optional

__all__ = ["DpKernelHandle"]


class DpKernelHandle:
    """A callable bound to one DP kernel on one Compute Engine.

    Mirrors Figure 6: ``dpk_compress = ce.get_dpk("compress")`` then
    ``comp_req = dpk_compress(data, "dpu_asic")``.  Returns ``None``
    when the specified placement is unavailable; with no placement the
    engine schedules it and always returns a live request.
    """

    def __init__(self, engine, kernel_name: str):
        self._engine = engine
        self.kernel_name = kernel_name

    def __call__(self, payload, device: Optional[str] = None,
                 params: Optional[dict] = None,
                 tenant: str = "default", priority: int = 0):
        return self._engine.submit_kernel(
            self.kernel_name, payload, device, params, tenant,
            priority=priority,
        )

    def __repr__(self) -> str:
        return f"DpKernelHandle({self.kernel_name!r})"
