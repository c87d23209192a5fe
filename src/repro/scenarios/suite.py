"""The scenario suite: the (scenario × method) cell matrix.

Methods are unassisted model names plus the assisted ``"ChatVis"`` loop
(and the generate→critique→repair ``"Review"`` column).
:class:`SuiteRunner` is the :class:`~repro.scenarios.matrix.MatrixRunner`
whose cells run :func:`run_suite_cell`; the matrix runner supplies the
resumable JSONL store, content-addressed :func:`cell_key`, batch execution
and failure records.  Changing any scenario axis (dataset parameters,
operation chain, view, phrasing) or the method list changes the affected
keys and re-runs exactly those cells.

Serial runs — the default — complete in suite order, making two cold runs
byte-identical apart from the timing fields (``duration``, ``finished_at``,
``metrics``; see :func:`strip_timing`).  A model error (script error,
missing screenshot) is the measurement and lands in the record; only
infrastructure errors fail a cell, which is then stored as a structured
``{"failed": true}`` record and retried by the next run.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.engine.batch import BatchJob
from repro.llm.core.budget import BudgetExceededError, BudgetLedger, RunBudget
from repro.llm.core.review import REVIEW_METHOD
from repro.obs.trace import span as obs_span
from repro.scenarios.matrix import Cell, MatrixRunner, MatrixRunSummary, SuiteStore, cell_key
from repro.scenarios.spec import Scenario

__all__ = [
    "CHATVIS_METHOD",
    "REVIEW_METHOD",
    "SuiteRunSummary",
    "SuiteRunner",
    "SuiteStore",
    "cell_key",
    "run_suite_cell",
    "strip_timing",
]

#: the assisted method name (other than "Review", everything else is an
#: unassisted model name)
CHATVIS_METHOD = "ChatVis"

#: record fields that vary run-to-run and are excluded from determinism
#: checks — "metrics" counts node cache hits, which depend on what previous
#: cells (or runs) already warmed, not on the cell's result
TIMING_FIELDS = ("duration", "finished_at", "metrics")


def strip_timing(record: Dict[str, Any]) -> Dict[str, Any]:
    """A record without its timing fields (for determinism comparisons)."""
    return {k: v for k, v in record.items() if k not in TIMING_FIELDS}


# --------------------------------------------------------------------------- #
# one cell (module-level and plain-data: picklable for the process executor)
# --------------------------------------------------------------------------- #
def run_suite_cell(
    scenario: Scenario,
    method: str,
    cell_dir: Union[str, Path],
    resolution: Optional[Tuple[int, int]] = None,
    small_data: bool = True,
    max_iterations: int = 5,
    chatvis_model: str = "gpt-4",
    budget: Optional[RunBudget] = None,
    ledger: Optional[BudgetLedger] = None,
    llm_cache_dir: Optional[Union[str, Path]] = None,
    review_model: str = "gpt-4",
    review_rounds: int = 2,
    blocks: Optional[int] = None,
    ghost: int = 1,
    block_workers: int = 1,
) -> Dict[str, Any]:
    """Run one (scenario, method) cell and return its result record.

    ``resolution=None`` keeps the scenario's own resolution AND its prompt
    verbatim — the phrasing axis includes resolution variants (``px``,
    no-space, mixed case) that must reach the models un-normalized; an
    explicit override rescales the prompt the same way the Table II harness
    rescales the paper's prompts.  Model failures (script errors, missing
    screenshots) are *results*, captured in the record — only
    infrastructure problems (and budget refusals) raise.

    Every model call goes through a :class:`~repro.llm.core.dispatch.ManagedLLM`,
    so the record always carries the resolved ``model`` name, a ``usage``
    spend dict (cache hits included, at zero marginal cost), and a
    ``cached`` flag that is true when the whole cell was served from the
    completion cache.  Budget enforcement uses the shared ``ledger`` when
    one is passed (thread/serial executors) and falls back to a per-cell
    ledger built from ``budget`` (process workers, which cannot share the
    lock-bearing ledger).

    The cell is wrapped in one ``suite.cell`` span (when tracing is on) and
    the record always carries a ``metrics`` dict — per-cell engine node
    executed/cached counts and LLM call/cache/retry counts — sourced from
    the engine's thread-local stats and the cell's own spend, so reports can
    show cache hit-rates without re-deriving them.
    """
    from repro.core.assistant import ChatVis, ChatVisConfig
    from repro.core.error_extraction import classify_error
    from repro.core.tasks import prepare_task_data
    from repro.engine.blocks import BlocksConfig, blocked_execution, stats_snapshot
    from repro.eval.harness import run_unassisted, scaled_prompt
    from repro.llm.core.cache import CompletionCache
    from repro.llm.core.dispatch import ManagedLLM
    from repro.llm.core.review import run_review
    from repro.llm.registry import get_model
    from repro.pvsim.executor import PvPythonExecutor
    from repro.pvsim.pipeline import pvsim_engine

    if blocks:
        block_scope = blocked_execution(
            BlocksConfig(
                n_blocks=int(blocks),
                ghost=int(ghost),
                executor="thread",
                max_workers=max(1, int(block_workers)),
            )
        )
    else:
        block_scope = nullcontext()

    task = scenario.task
    resolution = tuple(resolution) if resolution else None
    prompt = scaled_prompt(task, resolution) if resolution else task.user_prompt
    record: Dict[str, Any] = {
        "scenario": scenario.name,
        "spec": scenario.spec_name,
        "family": scenario.family,
        "phrasing": scenario.phrasing,
        "dataset": scenario.dataset,
        "method": str(method),
        "resolution": list(resolution or task.resolution),
        "iterations": 1,
    }
    stats_before = pvsim_engine().thread_stats().snapshot()
    blocks_before = stats_snapshot()
    with block_scope, obs_span(
        f"{method}/{scenario.name}", "suite.cell", scenario=scenario.name, method=str(method)
    ):
        prepare_task_data(task, cell_dir, small=small_data)
        cell_ledger = ledger
        if cell_ledger is None and budget is not None:
            cell_ledger = BudgetLedger(budget)
        cache = CompletionCache(llm_cache_dir) if llm_cache_dir else None
        model_name = {CHATVIS_METHOD: chatvis_model, REVIEW_METHOD: review_model}.get(method, str(method))
        llm = ManagedLLM(get_model(model_name), ledger=cell_ledger, cache=cache)

        if method == CHATVIS_METHOD:
            assistant = ChatVis(
                llm,
                working_dir=cell_dir,
                config=ChatVisConfig(max_iterations=max_iterations),
            )
            run = assistant.run(prompt)
            final_error = run.iterations[-1].error_type if run.iterations else None
            record.update(
                error=not run.success,
                screenshot=bool(run.screenshots),
                error_category="none" if run.success else "other",
                error_type=None if run.success else final_error,
                iterations=run.n_iterations,
            )
        else:
            if method == REVIEW_METHOD:
                review = run_review(llm, prompt, rounds=review_rounds)
                execution = PvPythonExecutor(working_dir=cell_dir).run(
                    review.script, script_name=f"review_{task.name}.py"
                )
                record.update(
                    iterations=1 + review.rounds_used,
                    review_rounds=review.rounds_used,
                    review_repaired=review.repaired,
                    review_stopped=review.stopped,
                )
            else:
                _script, execution = run_unassisted(llm, task, cell_dir, resolution=resolution)
            record.update(
                error=not execution.success,
                screenshot=execution.produced_screenshot,
                error_category=classify_error(execution.output),
                error_type=execution.error_type,
            )
        blocks_delta = stats_snapshot().delta(blocks_before)
    stats_delta = pvsim_engine().thread_stats().delta(stats_before)
    usage = llm.spend.as_dict()
    record["model"] = llm.model_name
    record["usage"] = usage
    record["cached"] = llm.spend.calls == 0 and llm.spend.cached_calls > 0
    record["metrics"] = {
        "nodes_executed": stats_delta.misses,
        "nodes_cached": stats_delta.hits,
        "llm_calls": usage.get("calls", 0),
        "llm_cached_calls": usage.get("cached_calls", 0),
        "llm_retries": usage.get("retries", 0),
        "blocked_runs": blocks_delta.runs,
        "blocks_total": blocks_delta.blocks_total,
        "blocks_executed": blocks_delta.blocks_executed,
        "blocks_cached": blocks_delta.blocks_cached,
    }
    return record


# --------------------------------------------------------------------------- #
# the runner
# --------------------------------------------------------------------------- #
@dataclass
class SuiteRunSummary(MatrixRunSummary):
    """Outcome of one :meth:`SuiteRunner.run` call."""

    #: aggregate LLM spend of the freshly-executed cells (``Spend.as_dict``)
    spend: Optional[Dict[str, Any]] = None
    #: per-model LLM spend of the freshly-executed cells
    per_model_spend: Dict[str, Dict[str, Any]] = field(default_factory=dict)

    @property
    def warm(self) -> bool:
        """True only when every cell was served from the store."""
        return self.total > 0 and self.skipped == self.total and not self.failures

    def describe(self) -> str:
        text = (
            f"{self.total} cells: {self.executed} executed, "
            f"{self.skipped} reused from the store"
        )
        if self.failures:
            text += f", {len(self.failures)} FAILED"
        if self.warm:
            text += " (fully warm — zero scenarios re-run)"
        if self.spend is not None and (self.spend["calls"] or self.spend["cached_calls"]):
            text += (
                f"; LLM spend ${self.spend['cost']:.4f} over {self.spend['calls']} calls"
                f" ({self.spend['cached_calls']} served from cache)"
            )
        return text


class SuiteRunner(MatrixRunner):
    """Run a scenario × method matrix, resumably.

    Parameters mirror ``run_table_two``; ``options`` are the execution and
    store options of :class:`~repro.scenarios.matrix.MatrixRunner`.  Without
    a ``store`` every call executes the full matrix (the Table II path).
    """

    phase = "suite.run"
    summary_class = SuiteRunSummary

    def __init__(
        self,
        scenarios: Sequence[Scenario],
        methods: Sequence[str] = ("gpt-4",),
        *,
        max_iterations: int = 5,
        chatvis_model: str = "gpt-4",
        budget: Optional[RunBudget] = None,
        llm_cache_dir: Optional[Union[str, Path]] = None,
        review_model: str = "gpt-4",
        review_rounds: int = 2,
        blocks: Optional[int] = None,
        ghost: int = 1,
        **options: Any,
    ) -> None:
        super().__init__(scenarios, **options)
        self.methods = [str(m) for m in methods]
        if len(set(self.methods)) != len(self.methods):
            raise ValueError(f"duplicate methods in suite: {self.methods}")
        self.max_iterations = max_iterations
        self.chatvis_model = chatvis_model
        self.budget = budget
        self.llm_cache_dir = Path(llm_cache_dir) if llm_cache_dir is not None else None
        self.review_model = review_model
        self.review_rounds = review_rounds
        # block decomposition is an execution strategy, not a measurement
        # setting: it stays out of _cell_settings so stored records remain
        # byte-identical between whole and blocked runs
        self.blocks = int(blocks) if blocks else None
        self.ghost = int(ghost)
        #: the run-wide budget ledger of the current :meth:`run` (None for
        #: process workers, which enforce the budget per cell)
        self._ledger: Optional[BudgetLedger] = None

    # ------------------------------------------------------------------ #
    def _cell_settings(self, method: str) -> Tuple[Tuple[str, Any], ...]:
        """The runner options that feed a cell's key (see :func:`cell_key`).

        Budget and completion-cache options are deliberately absent: they
        change what a run *costs*, never what a cell *measures*, so stored
        records stay valid across them.
        """
        settings: List[Tuple[str, Any]] = [("small_data", self.small_data)]
        if method == CHATVIS_METHOD:
            settings.append(("chatvis_model", self.chatvis_model))
            settings.append(("max_iterations", self.max_iterations))
        if method == REVIEW_METHOD:
            settings.append(("review_model", self.review_model))
            settings.append(("review_rounds", self.review_rounds))
        return tuple(settings)

    def cells(self) -> List[Cell]:
        """The full (scenario, method, key) matrix in deterministic order."""
        return [
            (scenario, method, cell_key(scenario, method, self.resolution, self._cell_settings(method)))
            for scenario in self.scenarios
            for method in self.methods
        ]

    def _job(self, name: str, scenario: Scenario, method: str) -> BatchJob:
        return BatchJob(
            name=name,
            fn=run_suite_cell,
            args=(scenario, method, self._cell_dir(scenario, method)),
            kwargs={
                "resolution": self.resolution,
                "small_data": self.small_data,
                "max_iterations": self.max_iterations,
                "chatvis_model": self.chatvis_model,
                "budget": self.budget if self._ledger is None else None,
                "ledger": self._ledger,
                "llm_cache_dir": str(self.llm_cache_dir) if self.llm_cache_dir else None,
                "review_model": self.review_model,
                "review_rounds": self.review_rounds,
                "blocks": self.blocks,
                "ghost": self.ghost,
                "block_workers": self.max_workers,
            },
        )

    # ------------------------------------------------------------------ #
    def run(self, resume: bool = True) -> SuiteRunSummary:
        """Execute the matrix; with a store, only the cells not yet in it.

        With a ``budget``, in-process executors share one
        :class:`~repro.llm.core.budget.BudgetLedger` across every cell (a
        true run budget, enforced at dispatch time); worker processes each
        enforce the budget per cell and the run-level total is checked after
        their records come back.  Either way a trip raises
        :class:`~repro.llm.core.budget.BudgetExceededError` — cells already
        finished stay in the store, so a raised budget resumes the run.
        """
        # process workers cannot share the lock-bearing ledger: give them the
        # budget spec (per-cell ceiling) and aggregate totals afterwards
        self._ledger = BudgetLedger(self.budget) if self.executor != "process" else None
        summary = super().run(resume)
        ledger = self._ledger
        if ledger is None:
            ledger = BudgetLedger(self.budget)
            for record in summary.executed_records():
                if record.get("usage"):
                    ledger.merge_record(record.get("model", record["method"]), record["usage"])
            ledger.check_total()  # run-level budget over aggregated worker spend
        summary.spend = ledger.spend().as_dict()
        summary.per_model_spend = {m: s.as_dict() for m, s in ledger.per_model().items()}
        return summary

    # ------------------------------------------------------------------ #
    def prefetch(self, max_concurrency: int = 4) -> Dict[str, int]:
        """Warm the completion cache for the matrix's generation calls.

        Dispatches every pending unassisted generation (and the Review
        method's opening generation, which uses the identical request)
        concurrently per model — bounded by ``max_concurrency`` — so the
        subsequent :meth:`run` hits the completion cache instead of calling
        models from inside pipeline-executing cells.  ChatVis cells are not
        prefetchable (their later prompts depend on earlier completions).

        Requires ``llm_cache_dir``; respects ``budget`` via a dedicated
        ledger (a trip raises before the suite starts).  Returns the number
        of completions fetched per model name.
        """
        from repro.eval.harness import scaled_prompt
        from repro.llm.base import user
        from repro.llm.core.cache import CompletionCache
        from repro.llm.core.dispatch import DispatchRequest, ManagedLLM, dispatch_completions
        from repro.llm.registry import get_model

        if self.llm_cache_dir is None:
            raise ValueError("prefetch requires llm_cache_dir (there is no cache to warm)")

        existing = self.store.results() if self.store is not None else {}
        cache = CompletionCache(self.llm_cache_dir)
        ledger = BudgetLedger(self.budget)

        prompts_by_model: Dict[str, List[str]] = {}
        for scenario, method, _key in self.pending(existing):
            if method == CHATVIS_METHOD:
                continue
            model = self.review_model if method == REVIEW_METHOD else str(method)
            prompt = (
                scaled_prompt(scenario.task, self.resolution)
                if self.resolution
                else scenario.task.user_prompt
            )
            prompts_by_model.setdefault(model, []).append(prompt)

        fetched: Dict[str, int] = {}
        for model, prompts in prompts_by_model.items():
            managed = ManagedLLM(get_model(model), ledger=ledger, cache=cache)
            # the request shape must match run_unassisted / run_review exactly
            # (one user message, default parameters) or the keys differ
            requests = [DispatchRequest(messages=(user(p),)) for p in dict.fromkeys(prompts)]
            results = dispatch_completions(managed, requests, max_concurrency=max_concurrency)
            for result in results:
                if isinstance(result.error, BudgetExceededError):
                    raise result.error
            fetched[managed.model_name] = sum(1 for r in results if r.ok)
        return fetched
