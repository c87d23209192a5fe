"""One resumable cell matrix, run on the engine's batch runner.

Both matrices this package evaluates are scenarios × *columns*, one
independent cell per pair: the scenario suite
(:class:`~repro.scenarios.suite.SuiteRunner`, columns are methods — model
names plus the assisted ChatVis loop) and the verification oracle
(:class:`~repro.verify.runner.VerifyRunner`, columns are metamorphic
relations).  :class:`MatrixRunner` owns everything they share; a subclass
supplies only its cells, its per-cell
:class:`~repro.engine.batch.BatchJob` and the name of its phase span.

Cells run through :func:`repro.engine.batch.run_batch` (threads or worker
processes, optionally over a shared disk cache) and land in an
**append-only JSONL store** (:class:`SuiteStore`) keyed by a
content-addressed :func:`cell_key`.  Records are appended as each cell
completes, in completion order, so a killed run resumes by executing only
the missing cells (readers go through the keyed :meth:`SuiteStore.load`,
never line positions), and a warm re-run executes **zero** cells.

A cell's *result* (a model error, a violated relation) is the measurement
and lands in its record.  A cell that *fails* — an infrastructure error
escaping the cell function after any retries — is appended as a structured
``{"failed": true}`` record, reported in the summary's ``failures``, and
resumed as pending by the next run.  Cancelled cells (never attempted) and
LLM budget trips are never persisted; the first budget trip re-raises after
the batch, so finished cells stay stored and a raised budget resumes the run.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union

from repro.engine.batch import BatchJob, BatchResult, CancelledJob, raise_failures, run_batch
from repro.llm.core.budget import BudgetExceededError
from repro.obs.trace import span as obs_span
from repro.scenarios.spec import Scenario

__all__ = ["Cell", "MatrixRunSummary", "MatrixRunner", "SuiteStore", "cell_key"]

#: one matrix cell: (scenario, column name, content-addressed key)
Cell = Tuple[Scenario, str, str]


def cell_key(
    scenario: Scenario,
    column: str,
    resolution: Optional[Tuple[int, int]],
    settings: Tuple[Tuple[str, Any], ...] = (),
) -> str:
    """Content-addressed identity of one matrix cell.

    ``column`` is the cell's method (suite) or relation (verification) name.
    ``settings`` carries every runner option that shapes the cell's result
    beyond the scenario and column themselves, so a store never hands back
    records produced under a different configuration.
    """
    material = (
        scenario.key(),
        str(column),
        tuple(resolution) if resolution else None,
        tuple(settings),
    )
    return hashlib.sha1(repr(material).encode("utf-8")).hexdigest()


# --------------------------------------------------------------------------- #
# the JSONL store
# --------------------------------------------------------------------------- #
class SuiteStore:
    """Append-only JSONL store of cell records, keyed by content-addressed key.

    Loading tolerates a truncated trailing line (the signature of a process
    killed mid-append): the broken line is skipped, so the interrupted cell
    simply runs again.  Duplicate keys keep the latest record.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)

    def load(self) -> Dict[str, Dict[str, Any]]:
        records: Dict[str, Dict[str, Any]] = {}
        if not self.path.exists():
            return records
        with open(self.path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue  # truncated by an interrupted writer — re-run it
                key = record.get("key")
                if key:
                    records[key] = record
        return records

    def append(self, record: Dict[str, Any]) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a+b") as handle:
            # a previous writer killed mid-append leaves a torn trailing line;
            # terminate it so the new record is not merged into the corruption
            if handle.seek(0, 2) > 0:
                handle.seek(-1, 2)
                if handle.read(1) != b"\n":
                    handle.write(b"\n")
            handle.write((json.dumps(record, sort_keys=True) + "\n").encode("utf-8"))
            handle.flush()

    def results(self) -> Dict[str, Dict[str, Any]]:
        """The stored records by key, without structured failure records.

        A cell that died (a fault, a timeout, a poison worker) left a
        ``{"failed": true}`` record: it carries no measurement, and the next
        run resumes it as *pending*, never as done.
        """
        return {key: record for key, record in self.load().items() if not record.get("failed")}

    def clear(self) -> None:
        if self.path.exists():
            self.path.unlink()

    def __len__(self) -> int:
        return len(self.load())


# --------------------------------------------------------------------------- #
# the runner
# --------------------------------------------------------------------------- #
@dataclass
class MatrixRunSummary:
    """Outcome of one :meth:`MatrixRunner.run` call."""

    total: int
    skipped: int
    #: full matrix records in cell order (stored + freshly executed)
    records: List[Dict[str, Any]] = field(default_factory=list)
    #: (job name, "ErrorType: message") for cells that failed this run
    failures: List[Tuple[str, str]] = field(default_factory=list)
    store_path: Optional[Path] = None
    #: keys of the cells this run executed (the rest came from the store)
    executed_keys: Set[str] = field(default_factory=set)

    @property
    def executed(self) -> int:
        return len(self.executed_keys)

    def executed_records(self) -> Iterator[Dict[str, Any]]:
        """The records of the cells executed by *this* run."""
        return (record for record in self.records if record["key"] in self.executed_keys)


class MatrixRunner:
    """Run a scenario × column matrix, resumably.

    ``executor``/``max_workers`` select the batch substrate, ``cache_dir``
    the shared disk-cache root for process workers.  ``store`` (a path or
    :class:`SuiteStore`) enables the resumable JSONL store; without it every
    call executes the full matrix.  ``job_timeout``/``job_retries`` bound
    each cell attempt and grant retryable failures bounded re-attempts (see
    :func:`~repro.engine.batch.run_batch`); ``stop_on_error`` re-raises the
    first failure as a :class:`~repro.engine.batch.BatchJobError` naming the
    cell.

    Subclasses implement :meth:`cells` and :meth:`_job`, and set
    :attr:`phase` and :attr:`summary_class`.
    """

    #: name of the ``phase`` span around the batch
    phase = "matrix.run"
    #: the summary type :meth:`run` returns
    summary_class = MatrixRunSummary

    def __init__(
        self,
        scenarios: Sequence[Scenario],
        working_dir: Union[str, Path] = ".",
        store: Optional[Union[str, Path, SuiteStore]] = None,
        resolution: Optional[Tuple[int, int]] = None,
        small_data: bool = True,
        max_workers: int = 1,
        executor: str = "thread",
        cache_dir: Optional[Union[str, Path]] = None,
        stop_on_error: bool = False,
        job_timeout: Optional[float] = None,
        job_retries: int = 0,
    ) -> None:
        self.scenarios = list(scenarios)
        # job names (and the store's per-cell identity mapping) key on the
        # scenario name, so a matrix must not contain two scenarios that share
        # one name but differ in content
        names = [s.name for s in self.scenarios]
        if len(set(names)) != len(names):
            duplicates = sorted({n for n in names if names.count(n) > 1})
            raise ValueError(f"duplicate scenario names in matrix: {duplicates}")
        self.working_dir = Path(working_dir)
        self.store = store if store is None or isinstance(store, SuiteStore) else SuiteStore(store)
        self.resolution = tuple(resolution) if resolution else None
        self.small_data = small_data
        self.max_workers = max_workers
        self.executor = executor
        self.cache_dir = cache_dir
        self.stop_on_error = stop_on_error
        self.job_timeout = job_timeout
        self.job_retries = job_retries

    # ------------------------------------------------------------------ #
    def cells(self) -> List[Cell]:
        """The full (scenario, column, key) matrix in deterministic order."""
        raise NotImplementedError

    def _cell_dir(self, scenario: Scenario, column: str) -> Path:
        """The cell's private workspace: ``working_dir/<scenario>/<column slug>``."""
        slug = str(column).replace(":", "_").replace("/", "_").lower()
        return self.working_dir / scenario.name / slug

    def _job(self, name: str, scenario: Scenario, column: str) -> BatchJob:
        """The batch job that computes one cell's record."""
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    def pending(
        self,
        existing: Dict[str, Dict[str, Any]],
        cells: Optional[List[Cell]] = None,
    ) -> List[Cell]:
        """The cells whose keys are not yet in the loaded store records."""
        if cells is None:
            cells = self.cells()
        return [cell for cell in cells if cell[2] not in existing]

    def run(self, resume: bool = True) -> MatrixRunSummary:
        """Execute the matrix; with a store, only the cells not yet in it.

        Completed cells are appended to the store *as they finish* (on the
        calling thread, in completion order), which is what makes an aborted
        run — a Ctrl-C, a crash, a kill — resumable at per-cell granularity.
        """
        existing = self.store.results() if (self.store is not None and resume) else {}
        cells = self.cells()
        pending = self.pending(existing, cells)
        jobs = [self._job(f"{column}/{scenario.name}", scenario, column) for scenario, column, _key in pending]
        key_of_job = {job.name: key for job, (_scenario, _column, key) in zip(jobs, pending)}
        fresh: Dict[str, Dict[str, Any]] = {}

        def _persist(outcome: BatchResult) -> None:
            if outcome.error is not None:
                # cancelled cells were never attempted, and a tripped budget
                # re-raises below — neither is a cell-level failure worth a
                # store record; everything else is recorded so the run's
                # damage is inspectable (and resumable) after completion
                if isinstance(outcome.error, (CancelledJob, BudgetExceededError)):
                    return
                record = {
                    "key": key_of_job[outcome.name],
                    "job": outcome.name,
                    "failed": True,
                    "error_type": type(outcome.error).__name__,
                    "error": str(outcome.error)[:500],
                    "finished_at": time.time(),
                }
            else:
                record = dict(outcome.value)
                record["key"] = key_of_job[outcome.name]
                record["duration"] = outcome.duration
                record["finished_at"] = time.time()
                fresh[record["key"]] = record
            if self.store is not None:
                self.store.append(record)

        with obs_span(self.phase, "phase", executor=self.executor, pending=len(pending), total=len(cells)):
            outcomes = run_batch(
                jobs,
                max_workers=self.max_workers,
                stop_on_error=self.stop_on_error,
                executor=self.executor,
                cache_dir=self.cache_dir,
                on_result=_persist,
                job_timeout=self.job_timeout,
                job_retries=self.job_retries,
            )

        # a tripped budget outranks generic failure reporting: surface it typed
        for outcome in outcomes:
            if isinstance(outcome.error, BudgetExceededError):
                raise outcome.error
        if self.stop_on_error:
            raise_failures(outcomes)  # BatchJobError names the failing cell

        # pending cells are exactly those missing from ``existing``, so the
        # two record sources never hold the same key
        done = {**existing, **fresh}
        return self.summary_class(
            total=len(cells),
            skipped=len(cells) - len(pending),
            records=[done[key] for _scenario, _column, key in cells if key in done],
            failures=[
                (outcome.name, f"{type(outcome.error).__name__}: {outcome.error}")
                for outcome in outcomes
                if outcome.error is not None
            ],
            store_path=self.store.path if self.store is not None else None,
            executed_keys=set(fresh),
        )
