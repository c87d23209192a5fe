"""Schema, persistence and diffing for ``BENCH_<n>.json`` perf manifests.

The committed manifest is the repo's performance trajectory: one file per
optimization PR, regenerable with ``repro bench manifest --output
BENCH_<n>.json``.  The schema is validated by hand (no jsonschema
dependency) so a malformed or truncated artifact fails loudly instead of
producing a silently wrong comparison.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Union

__all__ = [
    "BENCH_SCHEMA",
    "SCHEMA_ID",
    "load_bench",
    "write_bench",
    "validate_bench",
    "compare_manifests",
    "format_comparison",
    "format_manifest",
]

SCHEMA_ID = "repro-bench/1"

#: structural schema of a manifest payload: top-level key -> (type, required).
#: ``kernels`` values are checked against ``_KERNEL_FIELDS`` the same way.
BENCH_SCHEMA: Dict[str, Any] = {
    "schema": (str, True),
    "bench": (str, True),
    "generated_at": (str, True),
    "git_rev": (str, True),
    "machine": (dict, True),
    "rounds": (int, True),
    "kernels": (dict, True),
    # written only by earlier manifests; kept so committed BENCH_6.json validates
    "suite": (dict, False),
    "cache": (dict, False),
}

_KERNEL_FIELDS: Dict[str, type] = {
    "title": str,
    "size": str,
    "rounds": int,
    "current_ms": float,
    "reference_ms": float,
    "speedup": float,
    "speedup_min": float,
    "speedup_max": float,
}


def validate_bench(payload: Any) -> Dict[str, Any]:
    """Check a manifest payload against :data:`BENCH_SCHEMA`.

    Returns the payload unchanged; raises ``ValueError`` describing the first
    problem found.
    """
    if not isinstance(payload, dict):
        raise ValueError(f"bench manifest must be an object, got {type(payload).__name__}")
    schema = payload.get("schema")
    if schema != SCHEMA_ID:
        raise ValueError(f"unsupported bench schema {schema!r} (expected {SCHEMA_ID!r})")
    for key, (kind, required) in BENCH_SCHEMA.items():
        if key not in payload:
            if required:
                raise ValueError(f"bench manifest is missing required key {key!r}")
            continue
        value = payload[key]
        if kind is float:
            ok = isinstance(value, (int, float)) and not isinstance(value, bool)
        else:
            ok = isinstance(value, kind) and not (
                kind is int and isinstance(value, bool)
            )
        if not ok:
            raise ValueError(
                f"bench manifest key {key!r} must be {kind.__name__}, "
                f"got {type(value).__name__}"
            )
    if not payload["kernels"]:
        raise ValueError("bench manifest has an empty 'kernels' section")
    for name, entry in payload["kernels"].items():
        if not isinstance(entry, dict):
            raise ValueError(f"kernel {name!r} entry must be an object")
        for key, kind in _KERNEL_FIELDS.items():
            if key not in entry:
                raise ValueError(f"kernel {name!r} is missing field {key!r}")
            value = entry[key]
            if kind is float:
                ok = isinstance(value, (int, float)) and not isinstance(value, bool)
            else:
                ok = isinstance(value, kind) and not isinstance(value, bool)
            if not ok:
                raise ValueError(
                    f"kernel {name!r} field {key!r} must be {kind.__name__}, "
                    f"got {type(value).__name__}"
                )
    return payload


def write_bench(payload: Dict[str, Any], path: Union[str, Path]) -> Path:
    """Validate and write a manifest as stable, diff-friendly JSON."""
    validate_bench(payload)
    path = Path(path)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def load_bench(path: Union[str, Path]) -> Dict[str, Any]:
    """Read and validate a committed manifest."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from exc
    return validate_bench(payload)


def compare_manifests(
    baseline: Dict[str, Any], candidate: Dict[str, Any]
) -> Dict[str, Any]:
    """Per-kernel drift of ``candidate`` relative to ``baseline``.

    The comparison is informational: kernels present on only one side are
    listed, shared kernels get the wall-clock delta of the *current*
    implementation and the change in measured speedup.  Absolute times from
    different machines are not comparable — the ``speedup`` column (measured
    against the in-process reference) is the portable signal.
    """
    old_kernels = baseline.get("kernels", {})
    new_kernels = candidate.get("kernels", {})
    shared = sorted(set(old_kernels) & set(new_kernels))
    comparison: Dict[str, Any] = {
        "baseline_rev": baseline.get("git_rev", "unknown"),
        "candidate_rev": candidate.get("git_rev", "unknown"),
        "only_in_baseline": sorted(set(old_kernels) - set(new_kernels)),
        "only_in_candidate": sorted(set(new_kernels) - set(old_kernels)),
        "kernels": {},
    }
    for name in shared:
        old = old_kernels[name]
        new = new_kernels[name]
        current_delta = (
            (new["current_ms"] - old["current_ms"]) / old["current_ms"]
            if old["current_ms"] > 0
            else float("inf")
        )
        comparison["kernels"][name] = {
            "baseline_current_ms": old["current_ms"],
            "candidate_current_ms": new["current_ms"],
            "current_ms_delta_pct": 100.0 * current_delta,
            "baseline_speedup": old["speedup"],
            "candidate_speedup": new["speedup"],
            "speedup_delta": new["speedup"] - old["speedup"],
        }
    return comparison


def _fmt_row(cells: List[str], widths: List[int]) -> str:
    return "  ".join(cell.ljust(width) for cell, width in zip(cells, widths)).rstrip()


def format_manifest(payload: Dict[str, Any]) -> str:
    """Human-readable table of one manifest (what the CLI prints)."""
    lines: List[str] = []
    machine = payload.get("machine", {})
    lines.append(
        f"bench {payload.get('bench', '?')} @ {payload.get('git_rev', '?')} "
        f"({machine.get('platform', 'unknown platform')}, "
        f"numpy {machine.get('numpy', '?')}, rounds={payload.get('rounds', '?')})"
    )
    header = ["kernel", "current", "reference", "speedup", "range"]
    rows = [header]
    for name, entry in payload.get("kernels", {}).items():
        rows.append(
            [
                name,
                f"{entry['current_ms']:.1f} ms",
                f"{entry['reference_ms']:.1f} ms",
                f"{entry['speedup']:.2f}x",
                f"[{entry['speedup_min']:.2f}, {entry['speedup_max']:.2f}]",
            ]
        )
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    lines.append(_fmt_row(header, widths))
    for row in rows[1:]:
        lines.append(_fmt_row(row, widths))
    return "\n".join(lines)


def format_comparison(comparison: Dict[str, Any]) -> str:
    """Human-readable diff produced by :func:`compare_manifests`."""
    lines: List[str] = [
        f"baseline {comparison['baseline_rev']} -> candidate {comparison['candidate_rev']}"
    ]
    header = ["kernel", "current ms", "delta", "speedup", "delta"]
    rows = [header]
    for name, entry in comparison["kernels"].items():
        rows.append(
            [
                name,
                f"{entry['baseline_current_ms']:.1f} -> {entry['candidate_current_ms']:.1f}",
                f"{entry['current_ms_delta_pct']:+.1f}%",
                f"{entry['baseline_speedup']:.2f}x -> {entry['candidate_speedup']:.2f}x",
                f"{entry['speedup_delta']:+.2f}",
            ]
        )
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    lines.append(_fmt_row(header, widths))
    for row in rows[1:]:
        lines.append(_fmt_row(row, widths))
    for side, names in (
        ("baseline", comparison["only_in_baseline"]),
        ("candidate", comparison["only_in_candidate"]),
    ):
        if names:
            lines.append(f"only in {side}: {', '.join(names)}")
    return "\n".join(lines)
