"""DP kernels: portable compute primitives (paper Section 5).

A *DP kernel* is DPDPU's unit of hardware-accelerable computation.
Each kernel has:

* a **functional implementation** (the real algorithm from
  :mod:`repro.algos`, applied when payloads are real bytes, or a
  metadata transform for synthetic buffers), and
* a **cost identity**: a :class:`~repro.hardware.costs.KernelCost`
  (keyed by the same name) for CPU execution plus the accelerator
  *kind* that can serve it.

The contract the paper states — "each DP kernel can be executed on any
compute hardware; the actual execution during runtime depends purely
on hardware availability" — is enforced here: the functional result is
identical regardless of placement; only the charged time differs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Any, Callable, Dict, Optional

from ..algos import (
    aes128_ctr,
    chunk_stream,
    compile_pattern,
    crc32,
    deflate,
    inflate,
)
from ..buffers import (Buffer, RealBuffer, SynthBuffer, column_verdicts,
                       record_column, split_columns, split_records)

__all__ = ["DpKernelSpec", "KernelResult", "BUILTIN_KERNELS",
           "builtin_kernel_specs"]

#: Default key/nonce for the crypto kernels (payload privacy is not the
#: point of the simulation; determinism is).
_DEFAULT_KEY = b"dpdpu-aes128-key"
_DEFAULT_NONCE = b"dpdpunce"


@dataclass
class KernelResult:
    """Output of one DP-kernel execution."""

    buffer: Buffer
    meta: Dict[str, Any]


KernelFn = Callable[[Buffer, Dict[str, Any]], KernelResult]


@dataclass(frozen=True)
class DpKernelSpec:
    """A registered DP kernel: identity + functional implementation."""

    name: str
    fn: KernelFn

    def run(self, buffer: Buffer,
            params: Optional[Dict[str, Any]] = None) -> KernelResult:
        """Apply the kernel's function (placement-independent)."""
        return self.fn(buffer, params or {})


# -- functional implementations ------------------------------------------------


def _compress_fn(buffer: Buffer, params: Dict[str, Any]) -> KernelResult:
    level = params.get("level", 6)
    if isinstance(buffer, RealBuffer):
        compressed = deflate(buffer.data, level)
        out: Buffer = RealBuffer(compressed)
        ratio = buffer.size / max(len(compressed), 1)
    else:
        ratio = buffer.compress_ratio
        out = buffer.with_size(
            max(1, int(buffer.size / ratio)), label_suffix=".z"
        )
    return KernelResult(out, {"ratio": ratio,
                              "original_size": buffer.size})


def _decompress_fn(buffer: Buffer, params: Dict[str, Any]) -> KernelResult:
    if isinstance(buffer, RealBuffer):
        out: Buffer = RealBuffer(inflate(buffer.data))
    else:
        ratio = buffer.compress_ratio
        label = buffer.label
        if label.endswith(".z"):
            label = label[:-2]
        out = SynthBuffer(int(buffer.size * ratio), ratio, label)
    return KernelResult(out, {"original_size": buffer.size})


def _encrypt_fn(buffer: Buffer, params: Dict[str, Any]) -> KernelResult:
    key = params.get("key", _DEFAULT_KEY)
    nonce = params.get("nonce", _DEFAULT_NONCE)
    if isinstance(buffer, RealBuffer):
        out: Buffer = RealBuffer(aes128_ctr(buffer.data, key, nonce))
    else:
        out = buffer.with_size(buffer.size, label_suffix=".enc")
    return KernelResult(out, {})


def _decrypt_fn(buffer: Buffer, params: Dict[str, Any]) -> KernelResult:
    key = params.get("key", _DEFAULT_KEY)
    nonce = params.get("nonce", _DEFAULT_NONCE)
    if isinstance(buffer, RealBuffer):
        out: Buffer = RealBuffer(aes128_ctr(buffer.data, key, nonce))
    else:
        label = buffer.label
        if label.endswith(".enc"):
            label = label[:-4]
        out = SynthBuffer(buffer.size, buffer.compress_ratio, label)
    return KernelResult(out, {})


def _regex_fn(buffer: Buffer, params: Dict[str, Any]) -> KernelResult:
    pattern = params.get("pattern", r"\d+")
    if isinstance(buffer, RealBuffer):
        matches = compile_pattern(pattern).findall(buffer.data)
        count = len(matches)
    else:
        # Synthetic text: assume a calibrated match density.
        density = params.get("match_density", 1 / 64)
        matches = []
        count = int(buffer.size * density)
    return KernelResult(buffer, {"matches": matches, "count": count})


def _dedup_fn(buffer: Buffer, params: Dict[str, Any]) -> KernelResult:
    if isinstance(buffer, RealBuffer):
        chunks = chunk_stream(buffer.data)
        unique = {chunk.fingerprint for chunk in chunks}
        return KernelResult(buffer, {
            "chunks": len(chunks), "unique_chunks": len(unique),
        })
    avg = params.get("avg_chunk", 4096)
    estimated = max(1, buffer.size // avg)
    return KernelResult(buffer, {
        "chunks": estimated, "unique_chunks": estimated,
    })


def _crc32_fn(buffer: Buffer, params: Dict[str, Any]) -> KernelResult:
    if isinstance(buffer, RealBuffer):
        checksum = crc32(buffer.data)
    else:
        checksum = buffer.fingerprint()
    return KernelResult(buffer, {"crc32": checksum})


def _record_values(buffer: RealBuffer, params: Dict[str, Any]) -> tuple:
    """What ``extract`` sees: field ``column`` of every record, or the
    whole record when no ``column`` is named."""
    return record_column(buffer.data, params.get("column"),
                         params.get("delimiter", b"\n"),
                         params.get("separator", b","))


def _join_records(records: list, delimiter: bytes) -> RealBuffer:
    return RealBuffer(delimiter.join(records) + delimiter
                      if records else b"")


def _filter_fn(buffer: Buffer, params: Dict[str, Any]) -> KernelResult:
    """Predicate pushdown: keep records whose ``column`` value (the
    whole record without one) satisfies ``predicate``."""
    if isinstance(buffer, RealBuffer):
        delimiter = params.get("delimiter", b"\n")
        records = split_records(buffer.data, delimiter)
        kept = list(compress(records, column_verdicts(
            buffer.data, params.get("column"), delimiter,
            params.get("separator", b","),
            params.get("predicate", lambda value: True))))
        selectivity = len(kept) / len(records) if records else 0.0
        return KernelResult(
            _join_records(kept, delimiter),
            {"in": len(records), "out": len(kept),
             "selectivity": selectivity})
    selectivity = params.get("selectivity", 0.1)
    out = buffer.with_size(max(0, int(buffer.size * selectivity)),
                           label_suffix=".flt")
    return KernelResult(out, {"selectivity": selectivity})


def _aggregate_fn(buffer: Buffer, params: Dict[str, Any]) -> KernelResult:
    """Aggregation pushdown: fold ``extract`` of every record's
    ``column`` value (the whole record without one) to one summary."""
    if isinstance(buffer, RealBuffer):
        extract = params.get("extract", lambda value: 1)
        values = list(map(extract, _record_values(buffer, params)))
        result = {
            "count": len(values), "sum": sum(values),
            "min": min(values) if values else None,
            "max": max(values) if values else None,
        }
        out: Buffer = RealBuffer(repr(result).encode())
        return KernelResult(out, result)
    out = SynthBuffer(64, label=buffer.label + ".agg")
    return KernelResult(out, {"count": None})


def _project_fn(buffer: Buffer, params: Dict[str, Any]) -> KernelResult:
    """Projection pushdown: keep selected columns of each record."""
    if isinstance(buffer, RealBuffer):
        delimiter = params.get("delimiter", b"\n")
        separator = params.get("separator", b",")
        columns, width = split_columns(buffer.data, delimiter, separator)
        picks = params.get("columns", [0])
        for c in picks:
            if c < 0:  # no record has it: raise what filter raises
                record_column(buffer.data, c, delimiter, separator)
        picks = [c for c in picks if c < len(columns)]
        if picks and all(0 <= c < width for c in picks):
            rows = zip(*[columns[c] for c in picks])
        else:
            # Ragged (or no column picked): a record contributes the
            # picked fields it has.
            rows = ([fields[c] for c in picks if fields[c] is not None]
                    for fields in zip(*columns))
        projected = list(map(separator.join, rows))
        return KernelResult(_join_records(projected, delimiter),
                            {"records": len(projected)})
    width = params.get("projected_fraction", 0.3)
    out = buffer.with_size(max(0, int(buffer.size * width)),
                           label_suffix=".prj")
    return KernelResult(out, {"records": None})


#: Name -> spec for every kernel shipped with the Compute Engine.  Which
#: accelerator kind serves each is :data:`DEFAULT_KERNEL_COSTS`'s to say.
BUILTIN_KERNELS: Dict[str, DpKernelSpec] = {
    spec.name: spec
    for spec in [
        DpKernelSpec("compress", _compress_fn),
        DpKernelSpec("decompress", _decompress_fn),
        DpKernelSpec("encrypt", _encrypt_fn),
        DpKernelSpec("decrypt", _decrypt_fn),
        DpKernelSpec("regex", _regex_fn),
        DpKernelSpec("dedup", _dedup_fn),
        DpKernelSpec("crc32", _crc32_fn),
        DpKernelSpec("filter", _filter_fn),
        DpKernelSpec("aggregate", _aggregate_fn),
        DpKernelSpec("project", _project_fn),
    ]
}


def builtin_kernel_specs() -> Dict[str, DpKernelSpec]:
    """A fresh copy of the built-in kernel registry."""
    return dict(BUILTIN_KERNELS)
