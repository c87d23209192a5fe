"""Aggregate reporting over suite and verification results.

:func:`build_report` folds the JSONL cell records into a
:class:`SuiteReport`: per *method × operation-family* success and
error-free matrices, per-method totals, and the list of failing cells.
:func:`build_verify_report` does the same for verification verdicts — a
*relation × operation-family* matrix of checks/violations
(:class:`VerifyReport`).  Both render as JSON (machine-readable, CI
artifacts) and markdown (human-readable summary tables), and both emit an
explicit "no records" notice instead of an empty matrix when the store has
nothing in it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from repro.scenarios.matrix import SuiteStore

__all__ = [
    "CellTally",
    "NO_RECORDS_NOTICE",
    "SpendTally",
    "SuiteReport",
    "VerifyReport",
    "VerifyTally",
    "build_report",
    "build_verify_report",
    "load_report",
    "load_verify_report",
]

#: the line both report renderers emit when the results store is empty
NO_RECORDS_NOTICE = (
    "_No records — the results store is empty or missing; run the suite "
    "(`repro suite run`) or the verifier (`repro verify run`) first._"
)


def _write_text(path: Union[str, Path], text: str) -> Path:
    """Shared artifact writer for every report flavor (parents created)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return path


@dataclass
class CellTally:
    """Counts for one (method, family) bucket."""

    cells: int = 0
    error_free: int = 0
    screenshots: int = 0

    def add(self, record: Dict[str, Any]) -> None:
        self.cells += 1
        if not record.get("error", True):
            self.error_free += 1
        if record.get("screenshot", False):
            self.screenshots += 1

    def as_dict(self) -> Dict[str, int]:
        return {
            "cells": self.cells,
            "error_free": self.error_free,
            "screenshots": self.screenshots,
        }


@dataclass
class SpendTally:
    """Aggregated LLM spend for one method column (from record ``usage``).

    Records written since the observability PR also carry a per-cell
    ``metrics`` dict (engine node executed/cached counts straight from the
    engine's own counters); the tally folds those in to report a pipeline
    cache hit-rate per method without re-deriving it from timings.  Older
    stores without ``metrics`` render the hit-rate column as ``—``.
    """

    model: str = ""
    calls: int = 0
    cached_calls: int = 0
    tokens: int = 0
    cached_tokens: int = 0
    retries: int = 0
    cost: float = 0.0
    nodes_executed: int = 0
    nodes_cached: int = 0
    has_metrics: bool = False

    def add(self, record: Dict[str, Any]) -> None:
        """Fold one cell record's ``usage`` (and ``metrics``) dicts into the tally."""
        usage = record.get("usage") or {}
        self.model = str(record.get("model", self.model) or self.model)
        self.calls += int(usage.get("calls", 0))
        self.cached_calls += int(usage.get("cached_calls", 0))
        self.tokens += int(usage.get("prompt_tokens", 0)) + int(usage.get("completion_tokens", 0))
        self.cached_tokens += int(usage.get("cached_tokens", 0))
        self.retries += int(usage.get("retries", 0))
        self.cost += float(usage.get("cost", 0.0))
        metrics = record.get("metrics")
        if metrics:
            self.has_metrics = True
            self.nodes_executed += int(metrics.get("nodes_executed", 0))
            self.nodes_cached += int(metrics.get("nodes_cached", 0))

    @property
    def node_hit_rate(self) -> Optional[float]:
        """Pipeline-node cache hit-rate, or ``None`` without metrics records."""
        if not self.has_metrics:
            return None
        consulted = self.nodes_executed + self.nodes_cached
        return self.nodes_cached / consulted if consulted else 0.0

    def render_hit_rate(self) -> str:
        """The hit-rate cell for the markdown spend table (``—`` if unknown)."""
        rate = self.node_hit_rate
        return "—" if rate is None else f"{rate:.0%}"

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready counters (the report's ``spend`` entries)."""
        payload: Dict[str, Any] = {
            "model": self.model,
            "calls": self.calls,
            "cached_calls": self.cached_calls,
            "tokens": self.tokens,
            "cached_tokens": self.cached_tokens,
            "retries": self.retries,
            "cost": round(self.cost, 8),
        }
        if self.has_metrics:
            payload["nodes_executed"] = self.nodes_executed
            payload["nodes_cached"] = self.nodes_cached
            payload["node_hit_rate"] = round(self.node_hit_rate, 6)
        return payload


@dataclass
class SuiteReport:
    """Success/error matrices aggregated from suite cell records."""

    methods: List[str] = field(default_factory=list)
    families: List[str] = field(default_factory=list)
    matrix: Dict[Tuple[str, str], CellTally] = field(default_factory=dict)
    totals: Dict[str, CellTally] = field(default_factory=dict)
    n_scenarios: int = 0
    n_cells: int = 0
    failing_cells: List[Dict[str, Any]] = field(default_factory=list)
    #: per-method LLM spend, present only when records carry ``usage``
    spend: Dict[str, SpendTally] = field(default_factory=dict)

    def tally(self, method: str, family: str) -> CellTally:
        return self.matrix.get((method, family), CellTally())

    # ------------------------------------------------------------------ #
    def to_json(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "methods": self.methods,
            "families": self.families,
            "n_scenarios": self.n_scenarios,
            "n_cells": self.n_cells,
            "matrix": {
                method: {
                    family: self.tally(method, family).as_dict() for family in self.families
                }
                for method in self.methods
            },
            "totals": {method: self.totals[method].as_dict() for method in self.methods},
            "failing_cells": self.failing_cells,
        }
        if self.spend:
            payload["spend"] = {
                method: tally.as_dict() for method, tally in self.spend.items()
            }
        return payload

    def write_json(self, path: Union[str, Path]) -> Path:
        return _write_text(path, json.dumps(self.to_json(), indent=2, sort_keys=True) + "\n")

    # ------------------------------------------------------------------ #
    def _markdown_matrix(self, numerator: str) -> List[str]:
        header = "| method | " + " | ".join(self.families) + " | total |"
        rule = "|" + " --- |" * (len(self.families) + 2)
        lines = [header, rule]
        for method in self.methods:
            row = [f"| {method} "]
            for family in self.families:
                tally = self.tally(method, family)
                cell = "—" if tally.cells == 0 else (
                    f"{getattr(tally, numerator)}/{tally.cells}"
                )
                row.append(f"| {cell} ")
            total = self.totals[method]
            row.append(f"| **{getattr(total, numerator)}/{total.cells}** |")
            lines.append("".join(row))
        return lines

    def to_markdown(self) -> str:
        if self.n_cells == 0:
            return f"# Scenario suite report\n\n{NO_RECORDS_NOTICE}\n"
        lines = [
            "# Scenario suite report",
            "",
            f"{self.n_scenarios} scenarios × {len(self.methods)} method(s) — "
            f"{self.n_cells} cells.",
            "",
            "## Screenshots produced (method × operation family)",
            "",
        ]
        lines.extend(self._markdown_matrix("screenshots"))
        lines.extend(["", "## Error-free runs (method × operation family)", ""])
        lines.extend(self._markdown_matrix("error_free"))
        if self.spend:
            lines.extend(
                [
                    "",
                    "## LLM spend (per method)",
                    "",
                    "| method | model | calls | cache hits | billed tokens | cost ($) | node hit-rate |",
                    "|" + " --- |" * 7,
                ]
            )
            for method in self.methods:
                tally = self.spend.get(method)
                if tally is None:
                    continue
                lines.append(
                    f"| {method} | {tally.model or '—'} | {tally.calls} "
                    f"| {tally.cached_calls} | {tally.tokens} | {tally.cost:.4f} "
                    f"| {tally.render_hit_rate()} |"
                )
        if self.failing_cells:
            lines.extend(["", f"## Failing cells ({len(self.failing_cells)})", ""])
            for record in self.failing_cells:
                error_type = record.get("error_type") or record.get("error_category") or "error"
                lines.append(
                    f"- `{record.get('method')}` on `{record.get('scenario')}` "
                    f"({record.get('phrasing')}): {error_type}"
                )
        lines.append("")
        return "\n".join(lines)

    def write_markdown(self, path: Union[str, Path]) -> Path:
        return _write_text(path, self.to_markdown())


def build_report(records: Iterable[Dict[str, Any]]) -> SuiteReport:
    """Aggregate cell records (store order preserved) into a report."""
    report = SuiteReport()
    scenarios = set()
    for record in records:
        method = str(record.get("method", "?"))
        family = str(record.get("family", "?"))
        if method not in report.methods:
            report.methods.append(method)
        if family not in report.families:
            report.families.append(family)
        report.matrix.setdefault((method, family), CellTally()).add(record)
        report.totals.setdefault(method, CellTally()).add(record)
        if record.get("usage"):
            report.spend.setdefault(method, SpendTally()).add(record)
        scenarios.add(record.get("scenario"))
        report.n_cells += 1
        if record.get("error", False):
            report.failing_cells.append(record)
    report.n_scenarios = len(scenarios)
    return report


def load_report(store: Union[str, Path, SuiteStore]) -> SuiteReport:
    """Build a report straight from a results store path.

    Structured ``{"failed": true}`` records carry no measurements and are
    skipped (see :meth:`SuiteStore.results`).
    """
    if not isinstance(store, SuiteStore):
        store = SuiteStore(store)
    return build_report(store.results().values())


# --------------------------------------------------------------------------- #
# verification matrix
# --------------------------------------------------------------------------- #
@dataclass
class VerifyTally:
    """Counts for one (relation, family) bucket of verification verdicts."""

    cells: int = 0
    violations: int = 0
    skipped: int = 0

    @property
    def checked(self) -> int:
        return self.cells - self.skipped

    def add(self, record: Dict[str, Any]) -> None:
        self.cells += 1
        if record.get("violation", False):
            self.violations += 1
        if record.get("skipped", False):
            self.skipped += 1

    def as_dict(self) -> Dict[str, int]:
        return {"cells": self.cells, "violations": self.violations, "skipped": self.skipped}

    def render(self) -> str:
        if self.cells == 0:
            return "—"
        if self.violations:
            return f"**{self.violations}✗**/{self.checked}"
        if self.checked == 0:
            return f"skip/{self.cells}"
        return f"{self.checked}✓"


@dataclass
class VerifyReport:
    """The relation × operation-family verification matrix."""

    relations: List[str] = field(default_factory=list)
    families: List[str] = field(default_factory=list)
    matrix: Dict[Tuple[str, str], VerifyTally] = field(default_factory=dict)
    totals: Dict[str, VerifyTally] = field(default_factory=dict)
    n_scenarios: int = 0
    n_cells: int = 0
    nodes_executed: int = 0
    nodes_cached: int = 0
    violations: List[Dict[str, Any]] = field(default_factory=list)

    def tally(self, relation: str, family: str) -> VerifyTally:
        return self.matrix.get((relation, family), VerifyTally())

    @property
    def clean(self) -> bool:
        return self.n_cells > 0 and not self.violations

    # ------------------------------------------------------------------ #
    def to_json(self) -> Dict[str, Any]:
        return {
            "relations": self.relations,
            "families": self.families,
            "n_scenarios": self.n_scenarios,
            "n_cells": self.n_cells,
            "nodes_executed": self.nodes_executed,
            "nodes_cached": self.nodes_cached,
            "matrix": {
                relation: {
                    family: self.tally(relation, family).as_dict() for family in self.families
                }
                for relation in self.relations
            },
            "totals": {
                relation: self.totals[relation].as_dict() for relation in self.relations
            },
            "violations": self.violations,
        }

    def write_json(self, path: Union[str, Path]) -> Path:
        return _write_text(path, json.dumps(self.to_json(), indent=2, sort_keys=True) + "\n")

    # ------------------------------------------------------------------ #
    def to_markdown(self) -> str:
        if self.n_cells == 0:
            return f"# Verification report\n\n{NO_RECORDS_NOTICE}\n"
        n_violations = len(self.violations)
        verdict = (
            "**no violations**" if n_violations == 0 else f"**{n_violations} violation(s)**"
        )
        lines = [
            "# Verification report",
            "",
            f"{self.n_scenarios} scenarios × {len(self.relations)} relation(s) — "
            f"{self.n_cells} verdict cells, {verdict}. "
            f"Pipeline nodes: {self.nodes_executed} executed, {self.nodes_cached} cached.",
            "",
            "## Verification matrix (relation × operation family)",
            "",
            "| relation | " + " | ".join(self.families) + " | total |",
            "|" + " --- |" * (len(self.families) + 2),
        ]
        for relation in self.relations:
            row = [f"| `{relation}` "]
            for family in self.families:
                row.append(f"| {self.tally(relation, family).render()} ")
            total = self.totals[relation]
            row.append(f"| {total.render()} |")
            lines.append("".join(row))
        if self.violations:
            lines.extend(["", f"## Violations ({n_violations})", ""])
            for record in self.violations:
                details = str(record.get("details", "")).splitlines()
                summary = details[0] if details else "violated"
                lines.append(
                    f"- `{record.get('relation')}` on `{record.get('scenario')}`: {summary}"
                )
        lines.append("")
        return "\n".join(lines)

    def write_markdown(self, path: Union[str, Path]) -> Path:
        return _write_text(path, self.to_markdown())


def build_verify_report(records: Iterable[Dict[str, Any]]) -> VerifyReport:
    """Aggregate verification verdict records into the relation matrix."""
    report = VerifyReport()
    scenarios = set()
    for record in records:
        relation = str(record.get("relation", "?"))
        family = str(record.get("family", "?"))
        if relation not in report.relations:
            report.relations.append(relation)
        if family not in report.families:
            report.families.append(family)
        report.matrix.setdefault((relation, family), VerifyTally()).add(record)
        report.totals.setdefault(relation, VerifyTally()).add(record)
        scenarios.add(record.get("scenario"))
        report.n_cells += 1
        report.nodes_executed += int(record.get("nodes_executed", 0))
        report.nodes_cached += int(record.get("nodes_cached", 0))
        if record.get("violation", False):
            report.violations.append(record)
    report.n_scenarios = len(scenarios)
    return report


def load_verify_report(store: Union[str, Path, SuiteStore]) -> VerifyReport:
    """Build a verification report straight from a verdict store path.

    ``{"failed": true}`` infrastructure-failure records carry no verdicts
    and are skipped (see :meth:`SuiteStore.results`).
    """
    if not isinstance(store, SuiteStore):
        store = SuiteStore(store)
    return build_verify_report(store.results().values())
