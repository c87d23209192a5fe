"""``repro`` — the command-line entry point for the reproduction harness.

One front door for the things people (and CI) run:

* ``repro eval``  — regenerate the Table II matrix, optionally in parallel
  (threads or processes) and against a persistent disk cache;
* ``repro suite`` — the procedural scenario suite: ``list`` the generated
  catalog, ``run`` the scenario × model matrix resumably against a JSONL
  results store, ``report`` the aggregate success/error matrices;
* ``repro verify`` — the metamorphic/differential verification layer:
  ``run`` the scenario × relation matrix (resumable JSONL verdict store),
  ``report`` the relation × family verification matrix, ``update-goldens``
  to (re)capture the golden artifacts, ``relations`` to list the registry;
* ``repro bench manifest`` — the kernel manifest: each substrate kernel
  timed against its pinned ``_*_loop`` reference, written as
  ``BENCH_<n>.json`` (the end-to-end benchmark is ``e2ebench/run.py``);
* ``repro llm``  — the LLM dispatch layer: ``stats`` shows the completion
  cache footprint, the simulated pricing table, and (with ``--results``)
  per-model spend recorded in a suite store;
* ``repro cache`` — inspect (``stats``) or empty (``clear``) a disk cache
  root;
* ``repro obs``  — observability: ``summary`` digests a trace file
  (per-phase wall-clock, cache hit-rates, LLM retry/denial counts, slowest
  spans), ``top`` lists the N slowest spans, ``export`` converts to the
  Chrome trace-event format for Perfetto.

``repro eval``, ``repro suite run`` and ``repro verify run`` accept
``--trace PATH`` to record a JSONL trace of the run (spans from every layer
plus a final metrics snapshot); the top-level ``--log-level`` flag
configures the ``repro`` logger hierarchy (:func:`repro.obs.logging_setup`).

``repro eval`` and ``repro suite run`` accept ``--budget
tokens=...,calls=...,cost=...`` (enforced at dispatch time — a trip exits
with status 2), ``--llm-cache``/``--no-llm-cache`` for the completion
cache, and ``--review`` to add the generate→critique→repair method column.

``repro suite run`` and ``repro verify run`` accept ``--faults PLAN.json``
(arm the :mod:`repro.faults` injection plan for the whole command),
``--job-timeout`` and ``--job-retries`` (per-cell hardening knobs passed to
the batch runner).  Runs that complete with recorded cell failures exit 3 —
distinct from 1 (could not run / relation violated) and 2 (budget trip) —
and ``repro suite diff A B`` compares two stores cell-by-cell with timing
fields stripped (exit 1 when any cell differs; the chaos-parity CI job is
built on it).

The cache root resolves, in order: ``--cache-dir``, the ``REPRO_CACHE_DIR``
environment variable, then ``~/.cache/chatvis-repro`` (honoring
``XDG_CACHE_HOME``).  Everything the CLI does goes through the same library
code paths the test suite and benchmarks use — the CLI adds no behavior,
only argument parsing and reporting.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.engine.cache import CACHE_DIR_ENV_VAR, DiskCache

__all__ = ["main", "build_parser", "default_cache_dir", "resolve_cache_dir"]


def default_cache_dir() -> Path:
    """``$XDG_CACHE_HOME/chatvis-repro`` (or ``~/.cache/chatvis-repro``)."""
    base = os.environ.get("XDG_CACHE_HOME")
    root = Path(base) if base else Path.home() / ".cache"
    return root / "chatvis-repro"


def resolve_cache_dir(explicit: Optional[str]) -> Path:
    """Apply the --cache-dir > $REPRO_CACHE_DIR > default precedence."""
    if explicit:
        return Path(explicit)
    env = os.environ.get(CACHE_DIR_ENV_VAR)
    if env:
        return Path(env)
    return default_cache_dir()


def _configure_cache(ns: argparse.Namespace) -> Optional[Path]:
    """Resolve and attach the shared disk tier; None when ``--no-cache``."""
    from repro.engine.cache import configure_shared_cache

    if ns.no_cache:
        return None
    cache_dir = resolve_cache_dir(ns.cache_dir)
    configure_shared_cache(cache_dir)
    return cache_dir


def _parse_resolution(text: str) -> Tuple[int, int]:
    try:
        width, height = text.lower().split("x")
        return int(width), int(height)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"resolution must look like 480x270, got {text!r}"
        ) from None


def _parse_csv(text: str) -> List[str]:
    return [item.strip() for item in text.split(",") if item.strip()]


def _parse_budget(text: str):
    """argparse type for ``--budget tokens=50000,calls=100,cost=1.50``."""
    from repro.llm.core.budget import RunBudget

    try:
        return RunBudget.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _resolve_llm_cache(ns: argparse.Namespace) -> Optional[Path]:
    """Completion-cache root: --llm-cache > <cache root>/llm-completions.

    ``--no-llm-cache`` disables completion caching entirely; the default
    lives next to the pipeline disk cache so ``REPRO_CACHE_DIR`` governs
    both.
    """
    from repro.llm.core.cache import LLM_CACHE_SUBDIR

    if getattr(ns, "no_llm_cache", False):
        return None
    explicit = getattr(ns, "llm_cache", None)
    if explicit:
        return Path(explicit)
    return resolve_cache_dir(getattr(ns, "cache_dir", None)) / LLM_CACHE_SUBDIR


def _add_llm_arguments(parser: argparse.ArgumentParser) -> None:
    """The budget / completion-cache / review flags shared by eval and suite run."""
    parser.add_argument(
        "--budget",
        type=_parse_budget,
        default=None,
        help="LLM run budget, e.g. tokens=50000,calls=100,cost=1.50 (any subset)",
    )
    parser.add_argument(
        "--llm-cache",
        default=None,
        help="completion-cache root (default: <cache root>/llm-completions)",
    )
    parser.add_argument(
        "--no-llm-cache", action="store_true", help="disable the completion cache"
    )
    parser.add_argument(
        "--review",
        action="store_true",
        help="add the generate→critique→repair 'Review' method column",
    )
    parser.add_argument(
        "--review-rounds", type=int, default=2, help="critique–repair rounds (default: 2)"
    )


# --------------------------------------------------------------------------- #
# repro eval
# --------------------------------------------------------------------------- #
def _cmd_eval(ns: argparse.Namespace) -> int:
    from repro.engine.cache import shared_cache
    from repro.eval.harness import DEFAULT_RESOLUTION, PAPER_MODELS, run_table_two
    from repro.llm.core.budget import BudgetExceededError

    cache_dir = _configure_cache(ns)
    cache = shared_cache()
    stats_before = cache.stats.snapshot()

    models = tuple(ns.models) if ns.models else PAPER_MODELS
    started = time.perf_counter()
    try:
        result = run_table_two(
            ns.working_dir,
            models=models,
            tasks=ns.tasks or None,
            resolution=ns.resolution or DEFAULT_RESOLUTION,
            include_chatvis=not ns.no_chatvis,
            max_iterations=ns.max_iterations,
            max_workers=ns.max_workers,
            executor=ns.executor,
            cache_dir=cache_dir,
            budget=ns.budget,
            llm_cache_dir=_resolve_llm_cache(ns),
            include_review=ns.review,
            review_rounds=ns.review_rounds,
        )
    except BudgetExceededError as exc:
        print(f"aborted: {exc}")
        return 2
    elapsed = time.perf_counter() - started

    print(result.format_table())
    print()
    screenshots = result.success_counts()
    error_free = result.error_free_counts()
    for method in result.methods:
        print(
            f"{method:>14s}: {error_free.get(method, 0)}/{len(result.tasks)} error-free, "
            f"{screenshots.get(method, 0)}/{len(result.tasks)} screenshots"
        )
    delta = cache.stats.delta(stats_before)
    print()
    print(f"completed in {elapsed:.2f}s — cache: {delta!r}")
    if cache.disk is not None:
        print(
            f"disk tier: {len(cache.disk)} entries, "
            f"{cache.disk.total_bytes()} bytes at {cache.disk.root}"
        )
    return 0


# --------------------------------------------------------------------------- #
# repro suite
# --------------------------------------------------------------------------- #
def _select_scenarios(ns: argparse.Namespace):
    from repro.scenarios import canonical_scenarios, generate_scenarios

    if getattr(ns, "canonical", False):
        scenarios = canonical_scenarios()
        if ns.spec is not None:
            scenarios = [s for s in scenarios if s.spec_name == ns.spec]
        if ns.family is not None:
            scenarios = [s for s in scenarios if s.family == ns.family]
        if ns.phrasing is not None:
            scenarios = [s for s in scenarios if s.phrasing == ns.phrasing]
        if ns.limit is not None:
            scenarios = scenarios[: ns.limit]
        return scenarios
    return generate_scenarios(
        family=ns.family, spec=ns.spec, phrasing=ns.phrasing, limit=ns.limit
    )


def _add_scenario_filters(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--family", default=None, help="only this operation family")
    parser.add_argument("--spec", default=None, help="only scenarios from this spec")
    parser.add_argument("--phrasing", default=None, help="only this prompt phrasing")
    parser.add_argument("--limit", type=int, default=None, help="cap the scenario count")
    parser.add_argument(
        "--canonical",
        action="store_true",
        help="the paper's five verbatim tasks instead of the generated catalog",
    )


def _open_store(ns: argparse.Namespace, default_name: str):
    """The ``--results`` store (default ``WORKING_DIR/default_name``), emptied by ``--fresh``."""
    from repro.scenarios import SuiteStore

    store = SuiteStore(Path(ns.results) if ns.results else Path(ns.working_dir) / default_name)
    if ns.fresh:
        store.clear()
    return store


def _write_reports(ns: argparse.Namespace, report) -> None:
    if ns.report:
        print(f"wrote {report.write_markdown(ns.report)}")
    if ns.report_json:
        print(f"wrote {report.write_json(ns.report_json)}")


def _cmd_suite_list(ns: argparse.Namespace) -> int:
    scenarios = _select_scenarios(ns)
    if ns.json:
        payload = [
            {
                "name": s.name,
                "key": s.key(),
                "family": s.family,
                "spec": s.spec_name,
                "phrasing": s.phrasing,
                "dataset": s.dataset,
                "operations": s.structural_kinds(),
                "resolution": list(s.resolution),
            }
            for s in scenarios
        ]
        print(json.dumps(payload, indent=2))
        return 0
    for scenario in scenarios:
        print(scenario.describe())
    families = sorted({s.family for s in scenarios})
    specs = sorted({s.spec_name for s in scenarios})
    print(f"\n{len(scenarios)} scenarios from {len(specs)} spec(s), families: {', '.join(families)}")
    return 0


def _cmd_suite_run(ns: argparse.Namespace) -> int:
    from repro.llm.core.budget import BudgetExceededError
    from repro.scenarios import SuiteRunner, build_report
    from repro.scenarios.suite import REVIEW_METHOD

    cache_dir = _configure_cache(ns)
    scenarios = _select_scenarios(ns)
    if not scenarios:
        print("no scenarios selected")
        return 1
    methods = list(ns.models) if ns.models else ["gpt-4"]
    if ns.review:
        methods.insert(0, REVIEW_METHOD)
    if ns.chatvis:
        methods.insert(0, "ChatVis")

    store = _open_store(ns, "suite-results.jsonl")
    llm_cache_dir = _resolve_llm_cache(ns)
    started = time.perf_counter()
    runner = SuiteRunner(
        scenarios,
        methods=methods,
        working_dir=Path(ns.working_dir),
        store=store,
        resolution=ns.resolution,
        max_workers=ns.max_workers,
        executor=ns.executor,
        cache_dir=cache_dir,
        budget=ns.budget,
        llm_cache_dir=llm_cache_dir,
        review_rounds=ns.review_rounds,
        job_timeout=ns.job_timeout,
        job_retries=ns.job_retries,
        blocks=ns.blocks,
        ghost=ns.ghost,
    )
    try:
        if ns.prefetch:
            if llm_cache_dir is None:
                print("--prefetch needs a completion cache (drop --no-llm-cache)")
                return 1
            fetched = runner.prefetch(max_concurrency=max(1, ns.max_workers))
            for model, count in sorted(fetched.items()):
                print(f"prefetched {count} completion(s) for {model}")
        summary = runner.run(resume=True)
    except BudgetExceededError as exc:
        print(f"aborted: {exc}")
        print(f"results store: {store.path} (finished cells were kept; re-run to resume)")
        return 2
    elapsed = time.perf_counter() - started

    print(f"suite: {summary.describe()} in {elapsed:.2f}s")
    print(f"results store: {store.path}")
    if llm_cache_dir is not None:
        print(f"completion cache: {llm_cache_dir}")
    for name, error in summary.failures:
        print(f"  FAILED {name}: {error}")

    report = build_report(summary.records)
    for method in report.methods:
        totals = report.totals[method]
        print(
            f"{method:>14s}: {totals.error_free}/{totals.cells} error-free, "
            f"{totals.screenshots}/{totals.cells} screenshots"
        )
    for model, spend in sorted(summary.per_model_spend.items()):
        print(
            f"{model:>14s}: ${spend['cost']:.4f} over {spend['calls']} calls "
            f"({spend['cached_calls']} cache hits, {spend['retries']} retries)"
        )
    _write_reports(ns, report)
    # 3 = "completed with failures": every cell ran (or was recorded as a
    # structured failure) and the store is resumable — distinct from 1
    # (couldn't run at all) and 2 (budget trip aborted the run).
    return 3 if summary.failures else 0


def _cmd_suite_diff(ns: argparse.Namespace) -> int:
    from repro.scenarios import SuiteStore
    from repro.scenarios.suite import strip_timing

    stores = []
    for path in (ns.left, ns.right):
        store_path = Path(path)
        if not store_path.exists():
            print(f"no records: results store {store_path} does not exist")
            return 1
        stores.append(SuiteStore(store_path).results())
    left, right = stores

    def canonical(record) -> str:
        return json.dumps(strip_timing(record), sort_keys=True)

    def label(record) -> str:
        return f"{record.get('method', '?')} × {record.get('scenario', '?')}"

    differing = 0
    for key in sorted(set(left) | set(right)):
        a, b = left.get(key), right.get(key)
        if a is None:
            print(f"only in {ns.right}: {label(b)}")
        elif b is None:
            print(f"only in {ns.left}: {label(a)}")
        elif canonical(a) != canonical(b):
            print(f"differs: {label(a)} ({key[:12]})")
        else:
            continue
        differing += 1
    if differing:
        print(f"{differing} differing cell(s) out of {len(set(left) | set(right))}")
        return 1
    print(f"stores match: {len(left)} cell(s) byte-identical after timing strip")
    return 0


def _cmd_report(ns: argparse.Namespace) -> int:
    """``repro suite report`` / ``repro verify report``: one store's matrix."""
    from repro.scenarios import load_report, load_verify_report

    load, noun = {
        "suite": (load_report, "results store"),
        "verify": (load_verify_report, "verdict store"),
    }[ns.command]
    results = Path(ns.results)
    if not results.exists():
        print(f"no records: {noun} {results} does not exist — run `repro {ns.command} run` first")
        return 1
    report = load(results)
    if report.n_cells == 0:
        print(f"no records: {noun} {results} is empty — run `repro {ns.command} run` first")
    if ns.markdown:
        print(f"wrote {report.write_markdown(ns.markdown)}")
    if ns.json:
        print(f"wrote {report.write_json(ns.json)}")
    if not ns.markdown and not ns.json:
        print(report.to_markdown())
    return 0


# --------------------------------------------------------------------------- #
# repro verify
# --------------------------------------------------------------------------- #
def _verify_runner(ns: argparse.Namespace, scenarios, cache_dir: Optional[Path], store=None):
    from repro.verify import DEFAULT_VERIFY_RESOLUTION, VerifyRunner

    working_dir = Path(ns.working_dir)
    return VerifyRunner(
        scenarios,
        relations=ns.relations or None,
        working_dir=working_dir,
        store=store,
        resolution=ns.resolution or DEFAULT_VERIFY_RESOLUTION,
        goldens_dir=ns.goldens or (working_dir / "goldens"),
        max_workers=ns.max_workers,
        executor=ns.executor,
        cache_dir=cache_dir,
        # update-goldens shares this builder but not the fault arguments
        job_timeout=getattr(ns, "job_timeout", None),
        job_retries=getattr(ns, "job_retries", 0),
    )


def _cmd_verify_run(ns: argparse.Namespace) -> int:
    from repro.scenarios import build_verify_report

    cache_dir = _configure_cache(ns)
    scenarios = _select_scenarios(ns)
    if not scenarios:
        print("no scenarios selected")
        return 1
    store = _open_store(ns, "verify-results.jsonl")
    started = time.perf_counter()
    runner = _verify_runner(ns, scenarios, cache_dir, store=store)
    summary = runner.run(resume=True)
    elapsed = time.perf_counter() - started

    print(f"verify: {summary.describe()} in {elapsed:.2f}s")
    print(f"verdict store: {store.path}")
    for name, error in summary.failures:
        print(f"  FAILED {name}: {error}")
    for record in summary.violations:
        details = str(record.get("details", "")).splitlines()
        print(
            f"  VIOLATION {record['relation']} on {record['scenario']}: "
            f"{details[0] if details else ''}"
        )

    _write_reports(ns, build_verify_report(summary.records))
    # violations (a relation actually falsified) outrank failures (cells
    # that errored out and were recorded for resume)
    if summary.violations:
        return 1
    return 3 if summary.failures else 0


def _cmd_verify_update_goldens(ns: argparse.Namespace) -> int:
    cache_dir = _configure_cache(ns)
    scenarios = _select_scenarios(ns)
    if not scenarios:
        print("no scenarios selected")
        return 1
    runner = _verify_runner(ns, scenarios, cache_dir)
    updated = runner.update_goldens()
    print(f"stored golden artifacts for {len(updated)} scenario(s) in {runner.goldens_dir}:")
    for name in updated:
        print(f"  {name}")
    return 0


def _cmd_verify_relations(ns: argparse.Namespace) -> int:
    from repro.verify import all_relations

    for relation in all_relations():
        print(f"{relation.name:<24s} {relation.description}")
    return 0


# --------------------------------------------------------------------------- #
# repro bench
# --------------------------------------------------------------------------- #
def _cmd_bench_manifest(ns: argparse.Namespace) -> int:
    from repro.perf import run_manifest
    from repro.perf.report import (
        compare_manifests,
        format_comparison,
        format_manifest,
        load_bench,
        write_bench,
    )

    payload = run_manifest(
        rounds=ns.rounds,
        kernels=ns.kernel or None,
        progress=lambda message: print(f"  {message}"),
    )
    print(format_manifest(payload))
    if ns.output:
        write_bench(payload, ns.output)
        print(f"wrote {ns.output}")
    if ns.compare:
        baseline = load_bench(ns.compare)
        print(format_comparison(compare_manifests(baseline, payload)))
    return 0


# --------------------------------------------------------------------------- #
# repro llm
# --------------------------------------------------------------------------- #
def _cmd_llm_stats(ns: argparse.Namespace) -> int:
    from repro.llm.core.budget import PRICING, Spend
    from repro.llm.core.cache import CompletionCache
    from repro.llm.registry import available_models

    llm_cache_dir = _resolve_llm_cache(ns)
    print(f"completion cache: {llm_cache_dir}")
    if llm_cache_dir is not None and llm_cache_dir.exists():
        cache = CompletionCache(llm_cache_dir)
        print(f"  entries: {len(cache)}")
        print(f"  size:    {_format_bytes(cache.total_bytes())}")
    else:
        print("  (empty — nothing cached yet)")

    print("\nregistered models and simulated pricing ($/1k tokens):")
    for name in available_models():
        pricing = PRICING.get(name)
        if pricing is None:
            print(f"  {name:<20s} default pricing")
        else:
            print(
                f"  {name:<20s} prompt {pricing.prompt_per_1k:.4f}  "
                f"completion {pricing.completion_per_1k:.4f}"
            )

    if ns.results:
        results = Path(ns.results)
        if not results.exists():
            print(f"\nno records: results store {results} does not exist")
            return 1
        from repro.scenarios.suite import SuiteStore

        per_model: Dict[str, Spend] = {}
        for record in SuiteStore(results).load().values():
            usage = record.get("usage")
            if not usage:
                continue
            model = str(record.get("model", record.get("method", "?")))
            per_model.setdefault(model, Spend()).merge(Spend.from_dict(usage))
        print(f"\nrecorded spend in {results}:")
        if not per_model:
            print("  (no usage-bearing records)")
        for model, spend in sorted(per_model.items()):
            print(
                f"  {model:<20s} ${spend.cost:.4f} over {spend.calls} calls / "
                f"{spend.tokens} tokens ({spend.cached_calls} cache hits)"
            )
    return 0


# --------------------------------------------------------------------------- #
# repro obs
# --------------------------------------------------------------------------- #
def _read_trace_or_fail(path: str):
    """Parse a trace file, or print a friendly error and return ``None``."""
    from repro.obs import read_trace

    trace_path = Path(path)
    if not trace_path.exists():
        print(f"no trace: {trace_path} does not exist — run with --trace PATH first")
        return None
    return read_trace(trace_path)


def _cmd_obs_summary(ns: argparse.Namespace) -> int:
    from repro.obs import format_summary, summarize

    trace = _read_trace_or_fail(ns.trace_file)
    if trace is None:
        return 1
    digest = summarize(trace, limit=ns.top)
    if ns.json:
        print(json.dumps(digest, indent=2, sort_keys=True))
    else:
        print(format_summary(digest))
    return 0


def _cmd_obs_top(ns: argparse.Namespace) -> int:
    from repro.obs.summary import slowest_spans

    trace = _read_trace_or_fail(ns.trace_file)
    if trace is None:
        return 1
    spans = trace.spans
    if ns.category:
        spans = [s for s in spans if s.category == ns.category]
    for i, s in enumerate(slowest_spans(spans, limit=ns.count), start=1):
        flag = "" if s.status == "ok" else f"  [{s.status}: {s.error_type}]"
        print(f"{i:>3}. {s.duration:9.3f}s  {s.category or 'span':<14} {s.name}{flag}")
    if not spans:
        print("(no matching spans)")
    return 0


def _cmd_obs_export(ns: argparse.Namespace) -> int:
    from repro.obs import write_chrome_trace

    trace = _read_trace_or_fail(ns.trace_file)
    if trace is None:
        return 1
    path = write_chrome_trace(ns.output, trace.spans)
    print(
        f"wrote {path} ({len(trace.spans)} events) — "
        "load in Perfetto (https://ui.perfetto.dev) or chrome://tracing"
    )
    return 0


# --------------------------------------------------------------------------- #
# repro cache
# --------------------------------------------------------------------------- #
def _format_bytes(n: int) -> str:
    """Human-readable size: 512 B, 1.5 KiB, 3.2 MiB, ..."""
    value = float(n)
    for unit in ("B", "KiB", "MiB", "GiB", "TiB"):
        if value < 1024.0 or unit == "TiB":
            return f"{int(value)} {unit}" if unit == "B" else f"{value:.1f} {unit}"
        value /= 1024.0
    return f"{n} B"  # pragma: no cover - unreachable


def _entry_kinds(disk: DiskCache) -> Dict[str, int]:
    """Entry count per payload kind (the cached value's type name).

    This decodes every entry (one at a time), so it costs a full read of the
    cache — ``--no-kinds`` skips it on large roots.
    """
    from repro.datamodel.serialization import CachePayloadError, read_payload_file

    kinds: Dict[str, int] = {}
    for path in disk.entry_paths():
        try:
            value = read_payload_file(path)
            kind = type(value).__name__
        except (CachePayloadError, OSError):
            kind = "<corrupt>"
        kinds[kind] = kinds.get(kind, 0) + 1
    return kinds


def _cmd_cache_stats(ns: argparse.Namespace) -> int:
    cache_dir = resolve_cache_dir(ns.cache_dir)
    if not cache_dir.exists():
        print(f"cache root {cache_dir} does not exist (nothing cached yet)")
        return 0
    disk = DiskCache(cache_dir)
    total = disk.total_bytes()
    print(f"cache root: {disk.root}")
    print(f"entries:    {len(disk)}")
    print(f"size:       {_format_bytes(total)} ({total} bytes)")
    if not ns.no_kinds:
        kinds = _entry_kinds(disk)
        if kinds:
            print("entries by kind:")
            for kind, count in sorted(kinds.items(), key=lambda item: (-item[1], item[0])):
                print(f"  {kind:<20s} {count}")
    return 0


def _cmd_cache_clear(ns: argparse.Namespace) -> int:
    cache_dir = resolve_cache_dir(ns.cache_dir)
    if not cache_dir.exists():
        print(f"cache root {cache_dir} does not exist (nothing to clear)")
        return 0
    disk = DiskCache(cache_dir)
    n_entries = len(disk)
    disk.clear()
    print(f"cleared {n_entries} entries from {disk.root}")
    return 0


# --------------------------------------------------------------------------- #
# parser
# --------------------------------------------------------------------------- #
def _add_cache_dir_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache-dir",
        default=None,
        help=f"disk-cache root (default: ${CACHE_DIR_ENV_VAR} or ~/.cache/chatvis-repro)",
    )


def _add_matrix_arguments(parser: argparse.ArgumentParser) -> None:
    """The workspace, executor and disk-cache options of every matrix command."""
    parser.add_argument("working_dir", help="directory for per-cell workspaces")
    parser.add_argument("--max-workers", type=int, default=1)
    parser.add_argument(
        "--executor",
        choices=("thread", "process"),
        default="thread",
        help="concurrency substrate for the cells",
    )
    parser.add_argument(
        "--no-cache", action="store_true", help="run without the persistent disk tier"
    )
    _add_cache_dir_argument(parser)


def _add_store_arguments(parser: argparse.ArgumentParser, default_name: str) -> None:
    """The resumable results store and report outputs of ``suite run``/``verify run``."""
    parser.add_argument(
        "--results",
        default=None,
        help=f"JSONL results store (default: WORKING_DIR/{default_name})",
    )
    parser.add_argument(
        "--fresh", action="store_true", help="discard the results store before running"
    )
    parser.add_argument("--report", default=None, help="also write the markdown report here")
    parser.add_argument("--report-json", default=None, help="also write the JSON report here")


def _add_report_parser(subparsers, noun: str, matrix: str) -> None:
    """The ``report`` subcommand of ``suite`` and ``verify``."""
    parser = subparsers.add_parser("report", help=f"aggregate a {noun} into {matrix}")
    parser.add_argument("results", help=f"path to the JSONL {noun}")
    parser.add_argument("--markdown", default=None, help="write markdown here instead of stdout")
    parser.add_argument("--json", default=None, help="also write the JSON report here")
    parser.set_defaults(func=_cmd_report)


def _add_trace_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="record a JSONL trace of the run (inspect with `repro obs summary PATH`)",
    )


def _add_fault_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--faults",
        default=None,
        metavar="PLAN.json",
        help="inject deterministic faults from a seeded fault plan (see docs/robustness.md)",
    )
    parser.add_argument(
        "--job-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock limit per cell attempt (exceeded cells fail with JobTimeoutError)",
    )
    parser.add_argument(
        "--job-retries",
        type=int,
        default=0,
        metavar="N",
        help="retry budget per cell for transient failures and timeouts (default: 0)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ChatVis reproduction harness: evaluation, benchmarks, cache control.",
    )
    parser.add_argument(
        "--log-level",
        default=None,
        choices=("debug", "info", "warning", "error", "critical"),
        help="logging threshold for the repro logger hierarchy (default: $REPRO_LOG_LEVEL or warning)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    eval_parser = subparsers.add_parser(
        "eval", help="regenerate the Table II matrix (optionally parallel + disk-cached)"
    )
    _add_matrix_arguments(eval_parser)
    eval_parser.add_argument(
        "--models", type=_parse_csv, default=None, help="comma-separated model list"
    )
    eval_parser.add_argument(
        "--tasks", type=_parse_csv, default=None, help="comma-separated task list"
    )
    eval_parser.add_argument(
        "--resolution", type=_parse_resolution, default=None, help="render size, e.g. 480x270"
    )
    eval_parser.add_argument("--max-iterations", type=int, default=5)
    eval_parser.add_argument(
        "--no-chatvis", action="store_true", help="skip the assisted ChatVis column"
    )
    _add_llm_arguments(eval_parser)
    _add_trace_argument(eval_parser)
    eval_parser.set_defaults(func=_cmd_eval)

    suite_parser = subparsers.add_parser(
        "suite", help="procedural scenario suite: list, run (resumable), report"
    )
    suite_sub = suite_parser.add_subparsers(dest="suite_command", required=True)

    list_parser = suite_sub.add_parser("list", help="show the generated scenario catalog")
    _add_scenario_filters(list_parser)
    list_parser.add_argument("--json", action="store_true", help="machine-readable listing")
    list_parser.set_defaults(func=_cmd_suite_list)

    run_parser = suite_sub.add_parser(
        "run", help="run the scenario × model matrix against a resumable JSONL store"
    )
    _add_matrix_arguments(run_parser)
    _add_store_arguments(run_parser, "suite-results.jsonl")
    _add_scenario_filters(run_parser)
    run_parser.add_argument(
        "--models", type=_parse_csv, default=None, help="comma-separated model list (default: gpt-4)"
    )
    run_parser.add_argument(
        "--chatvis", action="store_true", help="also run the assisted ChatVis column"
    )
    run_parser.add_argument(
        "--resolution",
        type=_parse_resolution,
        default=None,
        help="override every scenario's render size, e.g. 160x120",
    )
    run_parser.add_argument(
        "--blocks",
        type=int,
        default=None,
        help="run contour/slice/threshold/clip block-decomposed into N blocks",
    )
    run_parser.add_argument(
        "--ghost",
        type=int,
        default=1,
        help="ghost layer width for block decomposition (with --blocks)",
    )
    _add_llm_arguments(run_parser)
    run_parser.add_argument(
        "--prefetch",
        action="store_true",
        help="warm the completion cache concurrently before running the cells",
    )
    _add_trace_argument(run_parser)
    _add_fault_arguments(run_parser)
    run_parser.set_defaults(func=_cmd_suite_run)

    _add_report_parser(suite_sub, "results store", "success/error matrices")

    diff_parser = suite_sub.add_parser(
        "diff",
        help="compare two results stores cell-by-cell, ignoring timing fields",
    )
    diff_parser.add_argument("left", help="baseline JSONL results store")
    diff_parser.add_argument("right", help="candidate JSONL results store")
    diff_parser.set_defaults(func=_cmd_suite_diff)

    verify_parser = subparsers.add_parser(
        "verify",
        help="metamorphic & differential verification: run, report, update-goldens",
    )
    verify_sub = verify_parser.add_subparsers(dest="verify_command", required=True)

    def _add_verify_common(parser: argparse.ArgumentParser) -> None:
        _add_matrix_arguments(parser)
        _add_scenario_filters(parser)
        parser.add_argument(
            "--relations",
            type=_parse_csv,
            default=None,
            help="comma-separated relation names (default: every applicable relation)",
        )
        parser.add_argument(
            "--resolution",
            type=_parse_resolution,
            default=None,
            help="verification render size (default: 192x144)",
        )
        parser.add_argument(
            "--goldens",
            default=None,
            help="golden-artifact store root (default: WORKING_DIR/goldens)",
        )

    verify_run_parser = verify_sub.add_parser(
        "run", help="run the scenario × relation matrix against a resumable JSONL store"
    )
    _add_verify_common(verify_run_parser)
    _add_store_arguments(verify_run_parser, "verify-results.jsonl")
    _add_trace_argument(verify_run_parser)
    _add_fault_arguments(verify_run_parser)
    verify_run_parser.set_defaults(func=_cmd_verify_run)

    _add_report_parser(verify_sub, "verdict store", "the verification matrix")

    goldens_parser = verify_sub.add_parser(
        "update-goldens",
        help="(re)render the selected scenarios and store their golden artifacts",
    )
    _add_verify_common(goldens_parser)
    goldens_parser.set_defaults(func=_cmd_verify_update_goldens)

    relations_parser = verify_sub.add_parser(
        "relations", help="list the registered metamorphic relations"
    )
    relations_parser.set_defaults(func=_cmd_verify_relations)

    bench_parser = subparsers.add_parser(
        "bench", help="benchmarks: 'manifest' = kernels vs their pinned references"
    )
    bench_sub = bench_parser.add_subparsers(dest="bench_command", required=True)
    manifest_parser = bench_sub.add_parser(
        "manifest",
        help="run the canonical kernel benchmark manifest (BENCH_<n>.json)",
    )
    manifest_parser.add_argument(
        "--rounds", type=int, default=5, help="interleaved timing rounds per kernel"
    )
    manifest_parser.add_argument(
        "--kernel",
        action="append",
        default=None,
        help="limit to this kernel (repeatable); default: all",
    )
    manifest_parser.add_argument(
        "--output", default=None, help="write the validated manifest JSON here"
    )
    manifest_parser.add_argument(
        "--compare",
        default=None,
        help="also diff against a committed BENCH_<n>.json (informational)",
    )
    manifest_parser.set_defaults(func=_cmd_bench_manifest)

    llm_parser = subparsers.add_parser(
        "llm", help="LLM dispatch layer: completion-cache stats, pricing, recorded spend"
    )
    llm_sub = llm_parser.add_subparsers(dest="llm_command", required=True)
    llm_stats_parser = llm_sub.add_parser(
        "stats", help="completion-cache footprint, model pricing, per-model spend"
    )
    llm_stats_parser.add_argument(
        "--llm-cache",
        default=None,
        help="completion-cache root (default: <cache root>/llm-completions)",
    )
    llm_stats_parser.add_argument(
        "--results",
        default=None,
        help="also aggregate recorded per-model spend from this JSONL results store",
    )
    _add_cache_dir_argument(llm_stats_parser)
    llm_stats_parser.set_defaults(func=_cmd_llm_stats)

    obs_parser = subparsers.add_parser(
        "obs", help="observability: summarize, rank, or export a --trace file"
    )
    obs_sub = obs_parser.add_subparsers(dest="obs_command", required=True)
    obs_summary_parser = obs_sub.add_parser(
        "summary",
        help="per-phase wall-clock, cache hit-rates, LLM retry/denial counts, slowest spans",
    )
    obs_summary_parser.add_argument("trace_file", metavar="trace", help="JSONL trace file from a --trace run")
    obs_summary_parser.add_argument(
        "--top", type=int, default=10, help="number of slowest spans to list (default: 10)"
    )
    obs_summary_parser.add_argument(
        "--json", action="store_true", help="machine-readable digest instead of the text report"
    )
    obs_summary_parser.set_defaults(func=_cmd_obs_summary)
    obs_top_parser = obs_sub.add_parser("top", help="the N slowest spans in a trace")
    obs_top_parser.add_argument("trace_file", metavar="trace", help="JSONL trace file from a --trace run")
    obs_top_parser.add_argument(
        "-n", "--count", type=int, default=10, help="how many spans (default: 10)"
    )
    obs_top_parser.add_argument(
        "--category", default=None, help="only spans of this category (e.g. engine.node)"
    )
    obs_top_parser.set_defaults(func=_cmd_obs_top)
    obs_export_parser = obs_sub.add_parser(
        "export", help="convert a trace to Chrome trace-event JSON (Perfetto-loadable)"
    )
    obs_export_parser.add_argument("trace_file", metavar="trace", help="JSONL trace file from a --trace run")
    obs_export_parser.add_argument("output", help="where to write the Chrome trace JSON")
    obs_export_parser.set_defaults(func=_cmd_obs_export)

    cache_parser = subparsers.add_parser("cache", help="inspect or clear a disk-cache root")
    cache_sub = cache_parser.add_subparsers(dest="cache_command", required=True)
    stats_parser = cache_sub.add_parser(
        "stats", help="entry count, on-disk footprint, per-kind breakdown"
    )
    stats_parser.add_argument(
        "--no-kinds",
        action="store_true",
        help="skip the per-kind breakdown (it decodes every entry)",
    )
    _add_cache_dir_argument(stats_parser)
    stats_parser.set_defaults(func=_cmd_cache_stats)
    clear_parser = cache_sub.add_parser("clear", help="remove every cache entry")
    _add_cache_dir_argument(clear_parser)
    clear_parser.set_defaults(func=_cmd_cache_clear)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Parse arguments, configure logging, run the command, flush any trace."""
    from repro.obs import logging_setup

    ns = build_parser().parse_args(argv)
    logging_setup(ns.log_level)

    faults_path = getattr(ns, "faults", None)
    plan_installed = False
    if faults_path:
        from repro.faults import FaultPlan, FaultPlanError, enable_faults

        try:
            plan = FaultPlan.load(faults_path)
        except FaultPlanError as exc:
            print(f"bad fault plan: {exc}")
            return 1
        enable_faults(plan)
        plan_installed = True
        print(plan.describe())

    try:
        trace_path = getattr(ns, "trace", None)
        if not trace_path:
            return ns.func(ns)

        from repro.obs import METRICS, disable_tracing, enable_tracing, write_trace

        tracer = enable_tracing()
        try:
            return ns.func(ns)
        finally:
            # written even when the command aborts (budget trip, failure) — a
            # partial run's trace is exactly when you want to see where time went
            spans = tracer.drain()
            disable_tracing()
            arg_list = list(argv) if argv is not None else sys.argv[1:]
            written = write_trace(
                trace_path,
                spans,
                metrics=METRICS.snapshot().as_dict(),
                meta={"command": "repro " + " ".join(str(a) for a in arg_list)},
            )
            print(f"wrote trace: {written} ({len(spans)} spans)")
    finally:
        if plan_installed:
            from repro.faults import disable_faults

            disable_faults()


if __name__ == "__main__":  # pragma: no cover - exercised via the console script
    sys.exit(main())
