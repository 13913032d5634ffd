"""Schema-versioned benchmark run artifacts.

One ``python -m repro.bench --json-out BENCH_<runid>.json`` run
serializes every experiment's structured result — the same
:class:`~repro.bench.harness.Sweep` / dict objects the experiment
functions return — into a single auditable document with provenance
(source hash, python version, per-experiment wall clock, hardware
profiles, workload seed).  The claims registry
(:mod:`repro.obs.claims`) and the exact comparison
(:mod:`repro.obs.regress`) both consume this format, so a committed
baseline artifact pins every simulated number the reproduction
claims.  An artifact holds simulated results and wall clocks only;
host-time measurements live in ``hostbench``'s own reports.

Artifact layout (``SCHEMA_VERSION`` 1)::

    {
      "schema": "repro.bench/artifact",
      "schema_version": 1,
      "provenance": {"src_sha256": ..., "python": ..., ...},
      "experiments": {
        "fig1": {
          "title": "Figure 1: ...",
          "wall_clock_s": 1.98,
          "parts": {
            "compression": {"type": "sweep", "x_label": ..., "rows": [...]},
            "real_bytes_checkpoint": {"type": "table", "values": {...}}
          }
        }, ...
      }
    }

Three part types cover every experiment result: ``sweep`` (a
parameter sweep, one series per column), ``table`` (a flat
metric→value mapping), and ``nested`` (config→{metric: value}, the
A1/A2/F6 shape).
"""

from __future__ import annotations

import hashlib
import json
import platform
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

__all__ = [
    "SCHEMA_NAME",
    "SCHEMA_VERSION",
    "DEFAULT_WORKLOAD_SEED",
    "encode_part",
    "decode_part",
    "collect_provenance",
    "make_artifact",
    "write_artifact",
    "load_artifact",
    "validate_artifact",
    "strip_volatile",
]

SCHEMA_NAME = "repro.bench/artifact"
SCHEMA_VERSION = 1

#: The fixed seed the workload generators use (S9, ablations); recorded
#: in provenance so two artifacts are known to describe the same
#: request streams.
DEFAULT_WORKLOAD_SEED = 13

_PART_TYPES = ("sweep", "table", "nested")


# -- part encoding ----------------------------------------------------------


def encode_part(result: Any) -> Dict[str, Any]:
    """Encode one experiment part (Sweep or dict) as JSON-safe data."""
    from ..bench.harness import Sweep

    if isinstance(result, Sweep):
        encoded = result.to_dict()
        encoded["type"] = "sweep"
        return encoded
    if isinstance(result, dict):
        if result and all(isinstance(value, dict)
                          for value in result.values()):
            return {"type": "nested",
                    "rows": {name: dict(values)
                             for name, values in result.items()}}
        return {"type": "table", "values": dict(result)}
    raise TypeError(
        f"cannot encode {type(result).__name__} as an artifact part"
    )


def decode_part(part: Dict[str, Any]) -> Any:
    """Rebuild the Sweep / dict an :func:`encode_part` call flattened."""
    from ..bench.harness import Sweep

    kind = part.get("type")
    if kind == "sweep":
        return Sweep.from_dict(part)
    if kind == "table":
        return dict(part["values"])
    if kind == "nested":
        return {name: dict(values)
                for name, values in part["rows"].items()}
    raise ValueError(f"unknown artifact part type {kind!r}")


# -- provenance -------------------------------------------------------------


def _source_sha256() -> str:
    """sha256 over every ``.py`` file of the imported ``repro``
    package: each file's path relative to the package, then its
    bytes, in path order.  True of the code that ran, whatever the
    checkout's commit or dirt."""
    package = Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    for relative in sorted(path.relative_to(package).as_posix()
                           for path in package.rglob("*.py")):
        data = (package / relative).read_bytes()
        digest.update(f"{relative}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


def collect_provenance(argv: Optional[List[str]] = None) -> Dict[str, Any]:
    """Everything needed to interpret (and trust) an artifact later."""
    from ..hardware import DPU_PROFILES

    profiles = {
        name: {
            "vendor": profile.vendor,
            "arm_cores": profile.arm_cores,
            "arm_frequency_hz": profile.arm_frequency_hz,
            "nic_bandwidth_bps": profile.nic_bandwidth_bps,
            "accelerators": sorted(spec.kind
                                   for spec in profile.accelerators),
        }
        for name, profile in sorted(DPU_PROFILES.items())
    }
    return {
        "src_sha256": _source_sha256(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "argv": list(argv) if argv is not None else sys.argv[1:],
        "workload_seed": DEFAULT_WORKLOAD_SEED,
        "hardware_profiles": profiles,
    }


# -- assembly / IO ----------------------------------------------------------


def make_artifact(experiments: Dict[str, Dict[str, Any]],
                  provenance: Optional[Dict[str, Any]] = None,
                  argv: Optional[List[str]] = None,
                  total_wall_clock_s: Optional[float] = None,
                  ) -> Dict[str, Any]:
    """Assemble the artifact document.

    ``experiments`` maps experiment id to
    ``{"title": str, "wall_clock_s": float, "parts": {name: result}}``
    where each result is a Sweep or dict, encoded here.
    ``total_wall_clock_s`` is the whole run's real elapsed time —
    under ``--jobs N`` it is less than the per-experiment sum, which
    is what the perf gate asserts.
    """
    encoded = {}
    for key, entry in experiments.items():
        encoded[key] = {
            "title": entry.get("title", key),
            "wall_clock_s": entry.get("wall_clock_s"),
            "parts": {name: encode_part(result)
                      for name, result in entry["parts"].items()},
        }
    document = {
        "schema": SCHEMA_NAME,
        "schema_version": SCHEMA_VERSION,
        "provenance": (provenance if provenance is not None
                       else collect_provenance(argv)),
        "experiments": encoded,
    }
    if total_wall_clock_s is not None:
        document["total_wall_clock_s"] = total_wall_clock_s
    return document


def strip_volatile(document: Dict[str, Any]) -> Dict[str, Any]:
    """A deep copy of ``document`` holding only what a rerun must
    reproduce.

    Two runs of the same code must agree on the result *byte for
    byte* — regardless of ``--jobs``, load, machine, interpreter or
    which commit of an unchanged simulator ran them.  This canonical
    form drops the fields that name the run rather than its results:
    wall clocks (per-experiment and total), the recorded command line,
    and the provenance of source and host (``src_sha256``, ``python``,
    ``implementation``, ``platform``; ``git_sha`` and ``git_dirty`` in
    artifacts written before the source hash replaced them).
    ``--identity`` shows those and never compares them.  Everything
    else — every simulated metric, and the inputs that define them
    (``workload_seed``, ``hardware_profiles``, the schema) — must
    match.
    """
    import copy

    canonical = copy.deepcopy(document)
    canonical.pop("total_wall_clock_s", None)
    provenance = canonical.get("provenance")
    if isinstance(provenance, dict):
        for name in ("argv", "src_sha256", "git_sha", "git_dirty",
                     "python", "implementation", "platform"):
            provenance.pop(name, None)
    experiments = canonical.get("experiments")
    if isinstance(experiments, dict):
        for entry in experiments.values():
            if isinstance(entry, dict):
                entry.pop("wall_clock_s", None)
    return canonical


def write_artifact(path: str, document: Dict[str, Any]) -> None:
    """Write an artifact as stable, sorted, indented JSON."""
    with open(path, "w") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")


def load_artifact(path: str) -> Dict[str, Any]:
    """Load and validate an artifact; raise ``ValueError`` if broken."""
    with open(path) as handle:
        document = json.load(handle)
    errors = validate_artifact(document)
    if errors:
        raise ValueError(
            f"{path}: not a valid benchmark artifact: "
            + "; ".join(errors[:5])
        )
    return document


# -- validation -------------------------------------------------------------


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _validate_part(where: str, part: Any, errors: List[str]) -> None:
    if not isinstance(part, dict):
        errors.append(f"{where}: part is not an object")
        return
    kind = part.get("type")
    if kind not in _PART_TYPES:
        errors.append(f"{where}: unknown part type {kind!r}")
        return
    if kind == "sweep":
        if not isinstance(part.get("x_label"), str):
            errors.append(f"{where}: sweep missing x_label")
        rows = part.get("rows")
        if not isinstance(rows, list):
            errors.append(f"{where}: sweep rows must be a list")
            return
        for index, row in enumerate(rows):
            if not isinstance(row, dict) or "x" not in row \
                    or not isinstance(row.get("values"), dict):
                errors.append(f"{where}: malformed sweep row {index}")
                return
            if not _is_number(row["x"]):
                errors.append(f"{where}: row {index} x is not numeric")
            for name, value in row["values"].items():
                if not _is_number(value):
                    errors.append(
                        f"{where}: row {index} series {name!r} "
                        "is not numeric"
                    )
    elif kind == "table":
        values = part.get("values")
        if not isinstance(values, dict):
            errors.append(f"{where}: table missing values")
            return
        for name, value in values.items():
            if not _is_number(value):
                errors.append(f"{where}: metric {name!r} is not numeric")
    else:  # nested
        rows = part.get("rows")
        if not isinstance(rows, dict):
            errors.append(f"{where}: nested part missing rows")
            return
        for config, values in rows.items():
            if not isinstance(values, dict):
                errors.append(f"{where}: config {config!r} is not an "
                              "object")
                continue
            for name, value in values.items():
                if not _is_number(value):
                    errors.append(f"{where}: {config}.{name} is not "
                                  "numeric")


def validate_artifact(document: Any) -> List[str]:
    """All schema violations in ``document`` (empty list = valid)."""
    errors: List[str] = []
    if not isinstance(document, dict):
        return ["artifact is not a JSON object"]
    if document.get("schema") != SCHEMA_NAME:
        errors.append(f"schema is {document.get('schema')!r}, "
                      f"expected {SCHEMA_NAME!r}")
    if document.get("schema_version") != SCHEMA_VERSION:
        errors.append(
            f"schema_version is {document.get('schema_version')!r}, "
            f"this reader understands {SCHEMA_VERSION}"
        )
    total = document.get("total_wall_clock_s")
    if total is not None and not _is_number(total):
        errors.append("total_wall_clock_s is not numeric")
    provenance = document.get("provenance")
    if not isinstance(provenance, dict):
        errors.append("missing provenance object")
    else:
        for field in ("python", "platform", "workload_seed"):
            if field not in provenance:
                errors.append(f"provenance missing {field!r}")
    experiments = document.get("experiments")
    if not isinstance(experiments, dict):
        errors.append("missing experiments object")
        return errors
    for key, entry in experiments.items():
        if not isinstance(entry, dict):
            errors.append(f"experiment {key!r} is not an object")
            continue
        wall = entry.get("wall_clock_s")
        if wall is not None and not _is_number(wall):
            errors.append(f"experiment {key!r} wall_clock_s is not "
                          "numeric")
        parts = entry.get("parts")
        if not isinstance(parts, dict):
            errors.append(f"experiment {key!r} missing parts")
            continue
        for name, part in parts.items():
            _validate_part(f"{key}.{name}", part, errors)
    return errors
