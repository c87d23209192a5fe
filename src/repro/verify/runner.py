"""The differential oracle runner.

:class:`VerifyRunner` is the :class:`~repro.scenarios.matrix.MatrixRunner`
of the scenario × relation matrix: verdict records stream into the same
resumable JSONL store (:class:`~repro.scenarios.matrix.SuiteStore`) as the
suite's, and the summary totals the pipeline nodes each executed cell ran
vs. got from the tiered cache.  Because every relation routes its pipeline
work through the shared engine cache, variant pairs — and different
relations over the same scenario — compute shared prefixes once, and a warm
re-run against a persistent disk tier executes strictly fewer pipeline
nodes than the cold run (the property the acceptance test pins).

Verdict records are *results*, violations included — a violated relation is
the measurement, not an infrastructure failure, so it lands in the store and
is not retried.  Only genuinely broken cells (an exception escaping the
check) surface as failures: stored as ``{"failed": true}`` records and
re-run next time.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.engine.batch import BatchJob
from repro.obs.trace import span as obs_span
from repro.scenarios.matrix import Cell, MatrixRunner, MatrixRunSummary, cell_key
from repro.scenarios.spec import Scenario
from repro.verify.relations import (
    RelationContext,
    get_relation,
    relations_for,
)

__all__ = [
    "DEFAULT_VERIFY_RESOLUTION",
    "VerifyRunSummary",
    "VerifyRunner",
    "run_verify_cell",
    "verify_cell_key",
]

#: default render size for verification cells — small enough that the full
#: canonical matrix runs in seconds, large enough for meaningful image metrics
DEFAULT_VERIFY_RESOLUTION: Tuple[int, int] = (192, 144)


#: content-addressed identity of one (scenario, relation) verdict cell
verify_cell_key = cell_key


# --------------------------------------------------------------------------- #
# one cell (module-level and plain-data: picklable for the process executor)
# --------------------------------------------------------------------------- #
def run_verify_cell(
    scenario: Scenario,
    relation_name: str,
    cell_dir: Union[str, Path],
    resolution: Optional[Tuple[int, int]] = DEFAULT_VERIFY_RESOLUTION,
    small_data: bool = True,
    goldens_dir: Optional[Union[str, Path]] = None,
) -> Dict[str, Any]:
    """Run one relation check and return its verdict record.

    A relation *violation* is a result (captured in the record); only
    infrastructure errors raise.  ``nodes_executed``/``nodes_cached`` are the
    calling thread's engine-counter deltas across the check — the signal the
    warm-vs-cold acceptance test sums.
    """
    from repro.engine.errors import NodeExecutionError
    from repro.pvsim.errors import PipelineError
    from repro.pvsim.pipeline import pvsim_engine
    from repro.verify.relations import RelationOutcome

    relation = get_relation(relation_name)
    ctx = RelationContext(
        scenario=scenario,
        cell_dir=Path(cell_dir),
        resolution=tuple(resolution) if resolution else None,
        small_data=small_data,
        goldens_dir=Path(goldens_dir) if goldens_dir else None,
    )
    stats_before = pvsim_engine().thread_stats().snapshot()
    with obs_span(
        f"{relation_name}/{scenario.name}",
        "verify.cell",
        scenario=scenario.name,
        relation=relation_name,
    ):
        try:
            outcome = relation.run(ctx)
        except (PipelineError, NodeExecutionError, KeyError, ValueError) as exc:
            # the substrate refusing to execute a variant IS a verdict — record
            # it as a violation instead of an infrastructure failure that
            # retries (algorithms raise KeyError/ValueError for bad arrays and
            # parameters)
            outcome = RelationOutcome.violated(
                f"variant pipeline failed to execute: {type(exc).__name__}: {exc}"
            )
    stats_delta = pvsim_engine().thread_stats().delta(stats_before)
    return {
        "scenario": scenario.name,
        "spec": scenario.spec_name,
        "family": scenario.family,
        "dataset": scenario.dataset,
        "relation": relation_name,
        "violation": bool(outcome.violation),
        "skipped": bool(outcome.skipped),
        "details": outcome.details,
        "metrics": {k: float(v) for k, v in sorted(outcome.metrics.items())},
        "nodes_executed": stats_delta.misses,
        "nodes_cached": stats_delta.hits,
    }


# --------------------------------------------------------------------------- #
# the runner
# --------------------------------------------------------------------------- #
class VerifyRunSummary(MatrixRunSummary):
    """Outcome of one :meth:`VerifyRunner.run` call."""

    @property
    def violations(self) -> List[Dict[str, Any]]:
        return [r for r in self.records if r.get("violation")]

    @property
    def nodes_executed(self) -> int:
        """Pipeline nodes executed by the cells run in *this* call."""
        return sum(r.get("nodes_executed", 0) for r in self.executed_records())

    @property
    def nodes_cached(self) -> int:
        return sum(r.get("nodes_cached", 0) for r in self.executed_records())

    @property
    def clean(self) -> bool:
        return not self.violations and not self.failures

    def describe(self) -> str:
        text = (
            f"{self.total} verification cells: {self.executed} executed, "
            f"{self.skipped} reused from the store; {len(self.violations)} violation(s)"
        )
        if self.failures:
            text += f", {len(self.failures)} FAILED"
        text += f" — {self.nodes_executed} pipeline node(s) executed, {self.nodes_cached} cached"
        return text


class VerifyRunner(MatrixRunner):
    """Run the scenario × relation matrix, resumably.

    ``relations=None`` lets every scenario select its applicable relations
    (its spec's ``relations`` axis when set, otherwise the registry's
    ``applies`` predicates); an explicit list restricts the matrix to those
    names for every scenario they apply to.  ``options`` are the execution
    and store options of :class:`~repro.scenarios.matrix.MatrixRunner`.
    """

    phase = "verify.run"
    summary_class = VerifyRunSummary

    def __init__(
        self,
        scenarios: Sequence[Scenario],
        relations: Optional[Sequence[str]] = None,
        *,
        resolution: Optional[Tuple[int, int]] = DEFAULT_VERIFY_RESOLUTION,
        goldens_dir: Optional[Union[str, Path]] = None,
        **options: Any,
    ) -> None:
        super().__init__(scenarios, resolution=resolution, **options)
        if relations is not None:
            for name in relations:
                get_relation(name)  # fail fast on unknown names
        self.relations = list(relations) if relations is not None else None
        self.goldens_dir = Path(goldens_dir) if goldens_dir else None

    # ------------------------------------------------------------------ #
    def _relations_of(self, scenario: Scenario) -> List[str]:
        applicable = [relation.name for relation in relations_for(scenario)]
        if self.relations is None:
            return applicable
        return [name for name in self.relations if name in applicable]

    def _cell_settings(self, scenario: Scenario, relation: str) -> Tuple[Tuple[str, Any], ...]:
        settings: List[Tuple[str, Any]] = [
            ("small_data", self.small_data),
            ("goldens", str(self.goldens_dir) if self.goldens_dir else None),
        ]
        # external-artifact state feeds the cell identity (see
        # MetamorphicRelation.store_token): a golden-image verdict recorded
        # before `update-goldens` must not satisfy a resume afterwards
        token = get_relation(relation).store_token
        if token is not None:
            settings.append(
                ("store_token", repr(token(scenario, self.resolution, self.goldens_dir)))
            )
        return tuple(settings)

    def cells(self) -> List[Cell]:
        """The (scenario, relation, key) matrix in deterministic order."""
        return [
            (
                scenario,
                relation,
                verify_cell_key(
                    scenario, relation, self.resolution, self._cell_settings(scenario, relation)
                ),
            )
            for scenario in self.scenarios
            for relation in self._relations_of(scenario)
        ]

    def _job(self, name: str, scenario: Scenario, relation: str) -> BatchJob:
        return BatchJob(
            name=name,
            fn=run_verify_cell,
            args=(scenario, relation, self._cell_dir(scenario, relation)),
            kwargs={
                "resolution": self.resolution,
                "small_data": self.small_data,
                "goldens_dir": str(self.goldens_dir) if self.goldens_dir else None,
            },
        )

    # ------------------------------------------------------------------ #
    def update_goldens(self) -> List[str]:
        """Regenerate the golden artifacts for every scenario in the run."""
        from repro.verify.goldens import GoldenStore
        from repro.verify.pipelines import run_scenario_script, scenario_script

        if self.goldens_dir is None:
            raise ValueError("update_goldens() needs a goldens_dir")
        store = GoldenStore(self.goldens_dir)
        updated: List[str] = []
        for scenario in self.scenarios:
            run = run_scenario_script(
                scenario,
                self.working_dir / scenario.name / "golden",
                resolution=self.resolution,
                small_data=self.small_data,
            )
            if not run.ok:
                raise RuntimeError(
                    f"cannot regenerate golden for {scenario.name!r}: "
                    f"{run.result.error_type}: {run.result.error_message}"
                )
            script = scenario_script(scenario, self.resolution)
            store.update(scenario, run.image, script, resolution=self.resolution)
            updated.append(scenario.name)
        return updated
