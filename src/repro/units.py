"""Units and formatting helpers shared across the library.

Conventions used everywhere in this repository:

* time is in **seconds** (simulated),
* data sizes are in **bytes**,
* rates are **bytes/second** or **bits/second** (named explicitly),
* CPU work is in **cycles**; a "core" is one hardware thread.
"""

from __future__ import annotations

__all__ = [
    "KB", "MB", "GB", "KiB", "MiB", "GiB",
    "KHZ", "MHZ", "GHZ",
    "Kbps", "Mbps", "Gbps",
    "US", "MS",
    "PAGE_SIZE",
    "fmt_bytes", "fmt_time",
]

# Decimal (storage/network vendor) units.
KB = 1_000
MB = 1_000_000
GB = 1_000_000_000

# Binary (memory) units.
KiB = 1 << 10
MiB = 1 << 20
GiB = 1 << 30

# Frequencies (Hz).
KHZ = 1_000
MHZ = 1_000_000
GHZ = 1_000_000_000

# Network rates (bits per second).
Kbps = 1_000
Mbps = 1_000_000
Gbps = 1_000_000_000

# Time (seconds).
US = 1e-6
MS = 1e-3

#: The paper's page size for all storage and network micro-benchmarks.
PAGE_SIZE = 8 * KiB


def fmt_bytes(nbytes: float) -> str:
    """Human-readable byte count, binary units."""
    value = float(nbytes)
    for unit in ("B", "KiB", "MiB", "GiB", "TiB"):
        if abs(value) < 1024 or unit == "TiB":
            if unit == "B":
                return f"{value:.0f} {unit}"
            return f"{value:.2f} {unit}"
        value /= 1024.0
    raise AssertionError("unreachable")


def fmt_time(seconds: float) -> str:
    """Human-readable duration."""
    if seconds == 0:
        return "0 s"
    if seconds < 1e-6:
        return f"{seconds * 1e9:.1f} ns"
    if seconds < 1e-3:
        return f"{seconds * 1e6:.1f} us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.2f} ms"
    return f"{seconds:.3f} s"
