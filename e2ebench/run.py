"""End-to-end benchmark of the ChatVis reproduction: one workload per call.

Run from the root of a checkout::

    python3 e2ebench/run.py --workload catalog-cold --seed 1 --seconds 15 --trace 0

Every pass runs in a fresh interpreter (``worker.py``) with single-threaded
BLAS, a fixed hash seed and fresh working roots under ``.e2ebench_work/``,
which is removed afterwards.  Passes repeat until ``--seconds`` of timed
work is done (at least one).  With ``--trace 0`` the last stdout line holds
the end-to-end metrics (medians over passes); with ``--trace 1`` one extra
traced pass reports the per-layer metrics.  The line before it records the
machine state (nproc, load, versions, revision) so an outlier can be
explained.  Exit status is 1 when any output differs from the stored
reference, 2 when the checkout has no ``src/repro`` to benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
SPEC_PATH = BENCH_DIR.parent / "BENCHMARK.json"
#: setup_s is a median over at least this many set-ups per run
MIN_SETUP_SAMPLES = 5
#: no new pass starts after this much of a run's time is spent
RUN_BUDGET_S = 130.0
WORKER_TIMEOUT_S = 170.0


def _worker_env(checkout: Path, work: Path) -> Dict[str, str]:
    env = dict(os.environ)
    src = str(checkout / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
        # nothing may fall back to the per-user default cache root
        REPRO_CACHE_DIR=str(work / "default-cache"),
    )
    return env


class Runner:
    """Starts workers for one workload and collects their results."""

    def __init__(self, checkout: Path, work: Path, ns: argparse.Namespace) -> None:
        self.work = work
        self.ns = ns
        self.env = _worker_env(checkout, work)
        self.started = time.monotonic()
        self.spawned = 0
        self.crashes: List[str] = []

    def worker(
        self, mode: str, trace: int = 0, caches: Optional[Path] = None, extra: Sequence[str] = ()
    ) -> Optional[Dict[str, Any]]:
        self.spawned += 1
        root = self.work / f"{mode}-{self.spawned}"
        root.mkdir(parents=True)
        out = root / "result.json"
        cmd = [
            sys.executable, str(BENCH_DIR / "worker.py"),
            "--workload", self.ns.workload, "--seed", str(self.ns.seed), "--root", str(root),
            "--mode", mode, "--trace", str(trace), "--out", str(out),
        ]
        if caches is not None:
            cmd += ["--caches", str(caches)]
        if self.ns.limit is not None:
            cmd += ["--limit", str(self.ns.limit)]
        cmd += list(extra)
        spawned_at = time.monotonic()
        try:
            proc = subprocess.run(
                cmd + ["--spawned-at", repr(spawned_at)],
                env=self.env, cwd=str(root), capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            self.crashes.append(f"{mode} worker timed out after {WORKER_TIMEOUT_S:.0f}s")
            return None
        if proc.returncode != 0 or not out.exists():
            tail = "\n".join(proc.stderr.strip().splitlines()[-15:])
            self.crashes.append(f"{mode} worker exited {proc.returncode}: {tail}")
            return None
        result = json.loads(out.read_text())
        result["root"] = str(root)
        result["process_s"] = time.monotonic() - spawned_at
        shutil.rmtree(root / "cells", ignore_errors=True)  # keep the work root small
        return result

    def elapsed(self) -> float:
        return time.monotonic() - self.started


def _info(checkout: Path) -> Dict[str, Any]:
    import platform

    info: Dict[str, Any] = {
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
    }
    for module in ("numpy", "scipy"):
        try:
            info[module] = __import__(module).__version__
        except ImportError:
            info[module] = None
    info["git_rev"] = _git_rev(checkout)
    return info


def _git_rev(checkout: Path) -> str:
    head = checkout / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (checkout / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def run_workload(checkout: Path, ns: argparse.Namespace) -> Dict[str, Any]:
    work = checkout / ".e2ebench_work" / f"{ns.workload}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    try:
        return _run(Runner(checkout, work, ns), ns)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (checkout / ".e2ebench_work").rmdir()
        except OSError:
            pass  # another run still owns a work root


def _run(runner: Runner, ns: argparse.Namespace) -> Dict[str, Any]:
    caches = None
    if ns.workload == "catalog-warm":
        # priming is one cold catalog pass: its cost is catalog-cold's wall_s,
        # so it stays out of setup_s, where a single sample would add its noise
        caches = runner.work / "primed-caches"
        primed = runner.worker("prime", caches=caches)
        if primed is None or primed["failures"]:
            raise SystemExit(f"priming the warm caches failed: {runner.crashes or primed['failures']}")

    passes: List[Dict[str, Any]] = []
    while True:
        result = runner.worker("pass", caches=caches)
        if result is not None:
            passes.append(result)
        walls = [p["wall_s"] for p in passes]
        done = sum(walls) + (statistics.median(walls) / 2 if walls else 0.0)
        if result is None or done >= ns.seconds or runner.elapsed() > RUN_BUDGET_S:
            break

    setups = [p["setup_s"] for p in passes]
    traced = None
    if ns.trace:
        traced = runner.worker("pass", trace=1, caches=caches)
    else:
        while len(setups) < MIN_SETUP_SAMPLES and not runner.crashes:
            sample = runner.worker("setup", caches=caches)
            if sample is not None:
                setups.append(sample["setup_s"])

    checked = passes + ([traced] if traced else [])
    attempted = sum(p["attempted"] for p in checked) + len(runner.crashes)
    failures = [f for p in checked for f in p["failures"]] + runner.crashes
    for p in checked:
        if p["layers_loaded"] and p is not traced:
            failures.append("a timed pass loaded the layer wrappers")
        if p.get("leaked_wrappers"):
            failures.append(f"wrappers left installed: {p['leaked_wrappers']}")
    attempted = max(attempted, 1)
    summary: Dict[str, Any] = {
        "correct": not failures,
        "attempted": attempted,
        "failed": min(len(failures), attempted),
        "passes": len(passes),
        "failures": failures[:20],
    }
    if not passes:
        summary["metrics"] = {}
        return summary

    def median(key: str) -> float:
        return statistics.median(p[key] for p in passes)

    spec = json.loads(SPEC_PATH.read_text())
    if ns.trace:
        listed = spec["per_layer"]
        values = {m["name"]: 0.0 for m in listed}  # a layer the workload never reaches reads 0
        if traced:
            values.update(traced["layers"])
            values.update(traced["counters"])
            values["trace.overhead_s"] = traced["wall_s"] - median("wall_s")
        values["process.import_s"] = median("import_s")
        values["process.cpu_s"] = median("cpu_s")
    else:
        values = {
            "wall_s": median("wall_s"),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": median("peak_rss_mb"),
            "correct_ratio": (attempted - summary["failed"]) / attempted,
        }
        listed = spec["end_to_end"]
    summary["metrics"] = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in listed}
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0, help="timed work per run (whole passes)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--limit", type=int, help="catalog/verify scenario subset (self-tests only)")
    ns = parser.parse_args(argv)

    checkout = Path.cwd()
    if not (checkout / "src" / "repro" / "__init__.py").is_file():
        print(f"no src/repro under {checkout}: run from the root of a checkout", file=sys.stderr)
        return 2
    info = _info(checkout)
    summary = run_workload(checkout, ns)
    info["loadavg_after"] = list(os.getloadavg())
    info.update(workload=ns.workload, seed=ns.seed, passes=summary.pop("passes"))
    for failure in summary.pop("failures"):
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({"info": info}))
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
