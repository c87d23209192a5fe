"""Tests for the ``repro`` command-line entry point.

The CLI is a thin shell over the library (harness, tiered cache, batch
runner); these tests drive ``repro.cli.main`` in-process and assert on its
output and on the cache state it leaves behind.
"""

import argparse
import json
from pathlib import Path

import pytest

from repro.cli import build_parser, default_cache_dir, main, resolve_cache_dir
from repro.engine import configure_shared_cache
from repro.engine.cache import CACHE_DIR_ENV_VAR
from repro.pvsim import state


@pytest.fixture(autouse=True)
def _isolated(monkeypatch):
    """Keep CLI runs hermetic: fresh session, no leaked disk tier/env var."""
    monkeypatch.delenv(CACHE_DIR_ENV_VAR, raising=False)
    state.reset_session()
    yield
    state.reset_session()
    configure_shared_cache(None)


#: every (sub)command's option strings and positionals — adding, removing or
#: renaming a flag must be a deliberate edit here, never a refactoring side effect
PARSER_SURFACE = {
    "": ["--help", "--log-level", "-h"],
    "bench": ["--help", "-h"],
    "bench manifest": ["--compare", "--help", "--kernel", "--output", "--rounds", "-h"],
    "cache": ["--help", "-h"],
    "cache clear": ["--cache-dir", "--help", "-h"],
    "cache stats": ["--cache-dir", "--help", "--no-kinds", "-h"],
    "eval": [
        "--budget", "--cache-dir", "--executor", "--help", "--llm-cache", "--max-iterations",
        "--max-workers", "--models", "--no-cache", "--no-chatvis", "--no-llm-cache",
        "--resolution", "--review", "--review-rounds", "--tasks", "--trace", "-h", "working_dir",
    ],
    "llm": ["--help", "-h"],
    "llm stats": ["--cache-dir", "--help", "--llm-cache", "--results", "-h"],
    "obs": ["--help", "-h"],
    "obs export": ["--help", "-h", "output", "trace_file"],
    "obs summary": ["--help", "--json", "--top", "-h", "trace_file"],
    "obs top": ["--category", "--count", "--help", "-h", "-n", "trace_file"],
    "suite": ["--help", "-h"],
    "suite diff": ["--help", "-h", "left", "right"],
    "suite list": [
        "--canonical", "--family", "--help", "--json", "--limit", "--phrasing", "--spec", "-h",
    ],
    "suite report": ["--help", "--json", "--markdown", "-h", "results"],
    "suite run": [
        "--blocks", "--budget", "--cache-dir", "--canonical", "--chatvis", "--executor",
        "--family", "--faults", "--fresh", "--ghost", "--help", "--job-retries", "--job-timeout",
        "--limit", "--llm-cache", "--max-workers", "--models", "--no-cache", "--no-llm-cache",
        "--phrasing", "--prefetch", "--report", "--report-json", "--resolution", "--results",
        "--review", "--review-rounds", "--spec", "--trace", "-h", "working_dir",
    ],
    "verify": ["--help", "-h"],
    "verify relations": ["--help", "-h"],
    "verify report": ["--help", "--json", "--markdown", "-h", "results"],
    "verify run": [
        "--cache-dir", "--canonical", "--executor", "--family", "--faults", "--fresh",
        "--goldens", "--help", "--job-retries", "--job-timeout", "--limit", "--max-workers",
        "--no-cache", "--phrasing", "--relations", "--report", "--report-json", "--resolution",
        "--results", "--spec", "--trace", "-h", "working_dir",
    ],
    "verify update-goldens": [
        "--cache-dir", "--canonical", "--executor", "--family", "--goldens", "--help", "--limit",
        "--max-workers", "--no-cache", "--phrasing", "--relations", "--resolution", "--spec",
        "-h", "working_dir",
    ],
}


def _parser_surface(parser, prefix=()):
    """``{"suite run": sorted option strings + positional dests, ...}``."""
    surface = {}
    options = []
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                surface.update(_parser_surface(sub, prefix + (name,)))
        elif action.option_strings:
            options.extend(action.option_strings)
        else:
            options.append(action.dest)
    surface[" ".join(prefix)] = sorted(options)
    return surface


def test_parser_surface_is_pinned(capsys):
    assert _parser_surface(build_parser()) == PARSER_SURFACE
    # every command group needs a subcommand: bare, it is a usage error
    for group in ("bench", "cache", "llm", "obs", "suite", "verify"):
        with pytest.raises(SystemExit) as excinfo:
            main([group])
        assert excinfo.value.code == 2, group
        assert "usage: repro " + group in capsys.readouterr().err


class TestCacheDirResolution:
    def test_explicit_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV_VAR, str(tmp_path / "env"))
        assert resolve_cache_dir(str(tmp_path / "flag")) == tmp_path / "flag"

    def test_env_var_beats_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV_VAR, str(tmp_path / "env"))
        assert resolve_cache_dir(None) == tmp_path / "env"

    def test_default_is_user_cache_dir(self):
        assert resolve_cache_dir(None) == default_cache_dir()


class TestCacheCommands:
    def test_stats_on_missing_root(self, tmp_path, capsys):
        assert main(["cache", "stats", "--cache-dir", str(tmp_path / "nope")]) == 0
        assert "does not exist" in capsys.readouterr().out

    def test_stats_and_clear_round_trip(self, tmp_path, capsys):
        from repro.engine import DiskCache

        disk = DiskCache(tmp_path / "cache")
        disk.put("deadbeef", {"some": "value"})

        assert main(["cache", "stats", "--cache-dir", str(tmp_path / "cache")]) == 0
        out = capsys.readouterr().out
        assert "entries:    1" in out

        assert main(["cache", "clear", "--cache-dir", str(tmp_path / "cache")]) == 0
        assert "cleared 1 entries" in capsys.readouterr().out
        assert len(DiskCache(tmp_path / "cache")) == 0

    def test_stats_human_sizes_and_kind_breakdown(self, tmp_path, capsys):
        import numpy as np

        from repro.data import generate_marschner_lobb
        from repro.engine import DiskCache

        disk = DiskCache(tmp_path / "cache")
        disk.put("a" * 40, generate_marschner_lobb(8))
        disk.put("b" * 40, generate_marschner_lobb(10))
        disk.put("c" * 40, np.zeros(64 * 1024))  # pushes the total past 1 KiB

        assert main(["cache", "stats", "--cache-dir", str(tmp_path / "cache")]) == 0
        out = capsys.readouterr().out
        assert "entries:    3" in out
        assert "KiB" in out or "MiB" in out  # human-readable, not raw bytes only
        assert "entries by kind:" in out
        assert "ImageData" in out and "2" in out
        assert "ndarray" in out


class TestEvalCommand:
    def test_eval_prints_table_and_persists_cache(self, tmp_path, capsys):
        code = main(
            [
                "eval",
                str(tmp_path / "work"),
                "--models",
                "gpt-4",
                "--tasks",
                "isosurface",
                "--resolution",
                "96x72",
                "--no-chatvis",
                "--cache-dir",
                str(tmp_path / "cache"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Isosurfacing" in out
        assert "gpt-4" in out
        assert "disk tier:" in out
        assert list((tmp_path / "cache").rglob("*.bin"))

    def test_eval_no_cache_runs_memory_only(self, tmp_path, capsys):
        code = main(
            [
                "eval",
                str(tmp_path / "work"),
                "--models",
                "gpt-4",
                "--tasks",
                "isosurface",
                "--resolution",
                "96x72",
                "--no-chatvis",
                "--no-cache",
            ]
        )
        assert code == 0
        assert "disk tier:" not in capsys.readouterr().out

    def test_bad_resolution_is_a_usage_error(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["eval", str(tmp_path), "--resolution", "banana"])


class TestSuiteCommands:
    def test_list_prints_catalog_summary(self, capsys):
        assert main(["suite", "list"]) == 0
        out = capsys.readouterr().out
        assert "scenarios from" in out
        assert "iso-values" in out

    def test_list_json_is_machine_readable(self, capsys):
        assert main(["suite", "list", "--family", "flow", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload and all(entry["family"] == "flow" for entry in payload)
        assert all("key" in entry for entry in payload)

    def test_canonical_listing_honors_filters(self, capsys):
        assert main(["suite", "list", "--canonical", "--json"]) == 0
        assert len(json.loads(capsys.readouterr().out)) == 5
        assert main(["suite", "list", "--canonical", "--family", "flow", "--limit", "1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [entry["name"] for entry in payload] == ["streamlines"]

    def test_run_warm_rerun_and_report(self, tmp_path, capsys):
        work = str(tmp_path / "work")
        args = ["suite", "run", work, "--limit", "3", "--no-cache"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "3 executed" in out

        assert main(args) == 0
        out = capsys.readouterr().out
        assert "0 executed" in out and "fully warm" in out

        results = str(Path(work) / "suite-results.jsonl")
        assert main(["suite", "report", results]) == 0
        out = capsys.readouterr().out
        assert "# Scenario suite report" in out
        assert "| method |" in out

    def test_run_writes_report_artifacts(self, tmp_path, capsys):
        work = str(tmp_path / "work")
        report_md = tmp_path / "report.md"
        report_json = tmp_path / "report.json"
        code = main(
            [
                "suite", "run", work, "--limit", "2", "--no-cache",
                "--report", str(report_md), "--report-json", str(report_json),
            ]
        )
        assert code == 0
        capsys.readouterr()
        assert "# Scenario suite report" in report_md.read_text()
        assert json.loads(report_json.read_text())["n_cells"] == 2

    def test_report_on_missing_store(self, tmp_path, capsys):
        assert main(["suite", "report", str(tmp_path / "nope.jsonl")]) == 1
        assert "does not exist" in capsys.readouterr().out

    def test_report_on_empty_store_emits_no_records_notice(self, tmp_path, capsys):
        from repro.scenarios.report import NO_RECORDS_NOTICE

        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["suite", "report", str(empty)]) == 0
        out = capsys.readouterr().out
        assert "no records" in out
        assert NO_RECORDS_NOTICE in out


class TestVerifyCommands:
    def test_relations_listing(self, capsys):
        assert main(["verify", "relations"]) == 0
        out = capsys.readouterr().out
        assert "camera-azimuth" in out
        assert "translate-commute" in out

    def test_run_report_and_resume(self, tmp_path, capsys):
        work = str(tmp_path / "work")
        args = [
            "verify", "run", work, "--canonical", "--limit", "1",
            "--relations", "repeat-determinism,translate-commute",
            "--resolution", "96x72", "--no-cache",
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "2 executed" in out
        assert "0 violation(s)" in out

        # warm resume against the verdict store executes nothing
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "0 executed" in out

        results = str(Path(work) / "verify-results.jsonl")
        assert main(["verify", "report", results]) == 0
        out = capsys.readouterr().out
        assert "# Verification report" in out
        assert "`repeat-determinism`" in out

    def test_update_goldens_then_golden_relation_passes(self, tmp_path, capsys):
        work = str(tmp_path / "work")
        common = ["--canonical", "--limit", "1", "--resolution", "96x72", "--no-cache"]
        assert main(["verify", "update-goldens", work] + common) == 0
        out = capsys.readouterr().out
        assert "stored golden artifacts for 1 scenario(s)" in out

        code = main(
            ["verify", "run", work, "--relations", "golden-image"] + common
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "0 violation(s)" in out

    def test_verify_report_on_missing_store(self, tmp_path, capsys):
        assert main(["verify", "report", str(tmp_path / "nope.jsonl")]) == 1
        assert "no records" in capsys.readouterr().out

    def test_verify_report_on_empty_store(self, tmp_path, capsys):
        from repro.scenarios.report import NO_RECORDS_NOTICE

        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["verify", "report", str(empty)]) == 0
        out = capsys.readouterr().out
        assert NO_RECORDS_NOTICE in out
