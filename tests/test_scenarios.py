"""Tests for the procedural scenario-suite subsystem.

Covers the grammar (spec → expansion round-trip determinism, prompt
parsing), cross-process seed/key stability, the resumable suite runner
(warm runs execute nothing, resume-after-kill executes only missing
cells), synthesized ground truths, and the report generator.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core.tasks import prepare_task_data
from repro.pvsim.executor import PvPythonExecutor
from repro.scenarios import (
    PHRASINGS,
    ScenarioSpec,
    SuiteRunner,
    SuiteStore,
    build_report,
    builtin_specs,
    canonical_scenarios,
    chain_specs,
    generate_scenarios,
    load_report,
    strip_timing,
)
from repro.scenarios.spec import STRUCTURAL_KINDS, ViewSpec, isosurface, ops
from repro.scenarios.templates import render_prompt


@pytest.fixture(scope="module")
def catalog():
    return generate_scenarios()


# --------------------------------------------------------------------------- #
# grammar and expansion
# --------------------------------------------------------------------------- #
class TestGrammar:
    def test_catalog_size_and_uniqueness(self, catalog):
        assert len(builtin_specs()) >= 10
        assert len(catalog) >= 40
        names = [s.name for s in catalog]
        assert len(set(names)) == len(names)
        keys = [s.key() for s in catalog]
        assert len(set(keys)) == len(keys)

    def test_catalog_covers_all_families(self, catalog):
        assert {s.family for s in catalog} == {"contour", "slicing", "volume", "geometry", "flow"}
        assert {s.phrasing for s in catalog} >= set(PHRASINGS)

    def test_expansion_is_deterministic(self, catalog):
        again = generate_scenarios()
        assert [s.name for s in again] == [s.name for s in catalog]
        assert [s.key() for s in again] == [s.key() for s in catalog]
        assert [s.task.user_prompt for s in again] == [s.task.user_prompt for s in catalog]
        assert [s.seed for s in again] == [s.seed for s in catalog]

    def test_every_prompt_round_trips_through_the_parser(self, catalog):
        for scenario in catalog:
            plan = scenario.parsed_plan()
            parsed = [op.kind for op in plan.operations if op.kind in STRUCTURAL_KINDS]
            assert parsed == scenario.structural_kinds(), scenario.name
            assert plan.filenames() == [scenario.dataset], scenario.name
            assert plan.screenshot_filename() == scenario.task.screenshot, scenario.name
            assert plan.resolution() == tuple(scenario.resolution), scenario.name

    def test_phrasings_differ_in_text_but_not_in_plan(self):
        scenarios = generate_scenarios(spec="iso-phrasings")
        assert len(scenarios) == len(PHRASINGS)
        prompts = [s.task.user_prompt for s in scenarios]
        assert len(set(prompts)) == len(prompts)
        plans = [
            [op.kind for op in s.parsed_plan().operations if op.kind in STRUCTURAL_KINDS]
            for s in scenarios
        ]
        assert all(plan == plans[0] for plan in plans)

    def test_key_changes_with_any_axis(self, catalog):
        scenario = catalog[0]
        other = generate_scenarios(spec="iso-values")[1]
        assert scenario.key() != other.key()

    def test_filters(self):
        flow = generate_scenarios(family="flow")
        assert flow and all(s.family == "flow" for s in flow)
        paper = generate_scenarios(phrasing="paper")
        assert paper and all(s.phrasing == "paper" for s in paper)
        assert len(generate_scenarios(limit=3)) == 3

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="empty axis"):
            ScenarioSpec(name="bad", family="contour", datasets=(), operations=())

    def test_name_collisions_rejected(self):
        spec = builtin_specs()[0]
        with pytest.raises(ValueError, match="collision"):
            chain_specs([spec, spec])

    def test_combinators_produce_new_axes(self):
        spec = builtin_specs()[0]
        widened = spec.with_phrasings(*PHRASINGS)
        assert widened.n_scenarios() == spec.n_scenarios() // len(spec.phrasings) * len(PHRASINGS)
        single = spec.with_views(ViewSpec("isometric"))
        assert all(s.view == "isometric" for s in single.expand())

    def test_unknown_phrasing_raises(self):
        with pytest.raises(KeyError, match="unknown phrasing"):
            render_prompt("x.vtk", (isosurface(),), ViewSpec(), "x.png", phrasing="haiku")

    def test_ops_labels_reach_scenario_names(self):
        label, steps = ops("v0p5", isosurface(value=0.5))
        assert label == "v0p5" and steps[0].get("value") == 0.5
        assert any("v0p5" in s.name for s in generate_scenarios(spec="iso-values"))


class TestCanonicalScenarios:
    def test_wrap_the_verbatim_tasks(self):
        scenarios = canonical_scenarios()
        assert [s.name for s in scenarios] == [
            "isosurface", "slice_contour", "volume_render", "delaunay", "streamlines",
        ]
        from repro.core.tasks import CANONICAL_TASKS

        for scenario in scenarios:
            assert scenario.task is CANONICAL_TASKS[scenario.name]
            assert scenario.phrasing == "verbatim"

    def test_subset_selection(self):
        assert [s.name for s in canonical_scenarios(["delaunay"])] == ["delaunay"]


# --------------------------------------------------------------------------- #
# seed / key stability across processes
# --------------------------------------------------------------------------- #
class TestSeedStability:
    def test_keys_and_seeds_stable_across_processes(self, catalog):
        src_root = str(Path(repro.__file__).parents[1])
        code = (
            "from repro.scenarios import generate_scenarios;"
            "print('\\n'.join(f'{s.key()} {s.seed}' for s in generate_scenarios()))"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
        ).stdout.strip().splitlines()
        assert out == [f"{s.key()} {s.seed}" for s in catalog]


# --------------------------------------------------------------------------- #
# synthesized ground truth
# --------------------------------------------------------------------------- #
class TestScenarioGroundTruth:
    @pytest.mark.parametrize("family", ["contour", "slicing", "volume", "geometry", "flow"])
    def test_ground_truth_runs_per_family(self, family, work_dir):
        scenario = generate_scenarios(family=family)[0]
        prepare_task_data(scenario.task, work_dir)
        script = scenario.ground_truth()
        result = PvPythonExecutor(working_dir=work_dir).run(script, script_name="gt.py")
        assert result.success, result.output
        assert result.produced_screenshot


# --------------------------------------------------------------------------- #
# the suite runner and its store
# --------------------------------------------------------------------------- #
def _small_suite(work_dir: Path, n=4, store_name="results.jsonl", **kwargs) -> SuiteRunner:
    return SuiteRunner(
        generate_scenarios(limit=n),
        methods=("gpt-4",),
        working_dir=work_dir / "work",
        store=work_dir / store_name,
        **kwargs,
    )


class TestSuiteRunner:
    def test_terse_px_phrasing_reaches_the_model_verbatim(self, work_dir):
        """Without a resolution override, template phrasings are not normalized away."""
        from repro.eval.harness import run_unassisted

        scenario = next(
            s for s in generate_scenarios(spec="iso-phrasings") if s.phrasing == "terse"
        )
        assert "px" in scenario.task.user_prompt
        prepare_task_data(scenario.task, work_dir)
        script, result = run_unassisted("gpt-4", scenario.task, work_dir, resolution=None)
        # the model parsed '160x120 px' itself (the nl_parser px path, live)
        assert "ImageResolution=[160, 120]" in script
        assert result.produced_screenshot

    def test_duplicate_scenario_names_rejected(self, work_dir):
        scenario = generate_scenarios(limit=1)[0]
        with pytest.raises(ValueError, match="duplicate scenario names"):
            SuiteRunner([scenario, scenario], working_dir=work_dir)
        with pytest.raises(ValueError, match="duplicate methods"):
            SuiteRunner([scenario], methods=("gpt-4", "gpt-4"), working_dir=work_dir)

    def test_cold_then_warm(self, work_dir):
        runner = _small_suite(work_dir)
        cold = runner.run()
        assert cold.total == 4 and cold.executed == 4 and cold.skipped == 0
        assert not cold.failures
        store_bytes = (work_dir / "results.jsonl").read_bytes()
        assert len(store_bytes.splitlines()) == 4

        warm = _small_suite(work_dir).run()
        assert warm.executed == 0 and warm.skipped == 4
        assert warm.warm
        assert (work_dir / "results.jsonl").read_bytes() == store_bytes
        assert [r["scenario"] for r in warm.records] == [r["scenario"] for r in cold.records]

    def test_resume_after_kill_executes_only_missing(self, work_dir):
        _small_suite(work_dir).run()
        store_path = work_dir / "results.jsonl"
        lines = store_path.read_text().splitlines()
        # simulate a kill mid-append: two cells lost, the last one torn mid-write
        store_path.write_text("\n".join(lines[:2]) + "\n" + lines[2][: len(lines[2]) // 2])

        resumed = _small_suite(work_dir).run()
        assert resumed.executed == 2 and resumed.skipped == 2
        assert len(SuiteStore(store_path).load()) == 4

    def test_two_cold_runs_are_identical_modulo_timing(self, tmp_path):
        a = _small_suite(tmp_path / "a").run()
        b = _small_suite(tmp_path / "b").run()
        assert [strip_timing(r) for r in a.records] == [strip_timing(r) for r in b.records]
        for record in a.records:
            assert "duration" in record and "finished_at" in record

    def test_chatvis_settings_change_invalidates_only_chatvis_cells(self, work_dir):
        scenarios = generate_scenarios(limit=2)
        common = dict(
            methods=("ChatVis", "gpt-4"),
            working_dir=work_dir / "work",
            store=work_dir / "results.jsonl",
        )
        first = SuiteRunner(scenarios, max_iterations=5, **common).run()
        assert first.executed == 4
        # a different correction budget must not reuse the old ChatVis records
        rerun = SuiteRunner(scenarios, max_iterations=2, **common).run()
        assert rerun.executed == 2
        assert rerun.skipped == 2  # the unassisted gpt-4 cells are untouched

    def test_resolution_override_changes_cell_keys(self, work_dir):
        _small_suite(work_dir, n=2).run()
        rescaled = _small_suite(work_dir, n=2, resolution=(96, 72)).run()
        assert rescaled.executed == 2  # different keys: nothing reused
        assert all(r["resolution"] == [96, 72] for r in rescaled.records)

    def test_storeless_runner_always_executes(self, work_dir):
        runner = SuiteRunner(
            generate_scenarios(limit=2), methods=("gpt-4",), working_dir=work_dir
        )
        first = runner.run()
        assert first.executed == 2 and first.store_path is None
        assert runner.run().executed == 2

    def test_records_stream_to_the_store_as_cells_complete(self, work_dir, monkeypatch):
        """An abort mid-suite keeps every already-finished cell (per-cell durability)."""
        from repro.scenarios import suite as suite_module

        real_cell = suite_module.run_suite_cell
        calls = {"n": 0}

        def flaky_cell(scenario, method, cell_dir, **kwargs):
            calls["n"] += 1
            if calls["n"] == 3:
                raise KeyboardInterrupt  # the user hits Ctrl-C on the third cell
            return real_cell(scenario, method, cell_dir, **kwargs)

        monkeypatch.setattr(suite_module, "run_suite_cell", flaky_cell)
        runner = _small_suite(work_dir)
        with pytest.raises(KeyboardInterrupt):
            runner.run()
        # the two cells that finished before the interrupt are on disk
        assert len(SuiteStore(work_dir / "results.jsonl").load()) == 2

        monkeypatch.setattr(suite_module, "run_suite_cell", real_cell)
        resumed = _small_suite(work_dir).run()
        assert resumed.executed == 2 and resumed.skipped == 2

    def test_process_executor_matches_serial(self, tmp_path):
        scenarios = generate_scenarios(limit=3)
        serial = SuiteRunner(
            scenarios, methods=("gpt-4",), working_dir=tmp_path / "s", store=tmp_path / "s.jsonl"
        ).run()
        process = SuiteRunner(
            scenarios,
            methods=("gpt-4",),
            working_dir=tmp_path / "p",
            store=tmp_path / "p.jsonl",
            executor="process",
            max_workers=2,
            cache_dir=tmp_path / "cache",
        ).run()
        assert not process.failures
        assert [strip_timing(r) for r in process.records] == [
            strip_timing(r) for r in serial.records
        ]

    def test_chatvis_method_records_iterations(self, work_dir):
        runner = SuiteRunner(
            generate_scenarios(spec="delaunay-phrasings", limit=1),
            methods=("ChatVis", "codegemma"),
            working_dir=work_dir / "work",
            store=work_dir / "results.jsonl",
        )
        summary = runner.run()
        chatvis, weak = summary.records
        assert chatvis["method"] == "ChatVis"
        assert not chatvis["error"] and chatvis["screenshot"]
        assert chatvis["iterations"] >= 1
        assert weak["method"] == "codegemma"
        assert weak["error"] and not weak["screenshot"]


class TestMatrixRunner:
    """Contracts both matrix runners (suite and verification) share."""

    @pytest.mark.parametrize("kind", ["suite", "verify"])
    def test_failed_cells_are_stored_and_retried(self, kind, work_dir, monkeypatch):
        if kind == "suite":
            from repro.scenarios import suite as module

            cell_fn = "run_suite_cell"

            def make_runner():
                return _small_suite(work_dir)

        else:
            from repro.verify import VerifyRunner
            from repro.verify import runner as module

            cell_fn = "run_verify_cell"
            iso = [s for s in canonical_scenarios() if s.name == "isosurface"]

            def make_runner():
                return VerifyRunner(
                    iso,
                    relations=["repeat-determinism", "translate-commute"],
                    working_dir=work_dir / "work",
                    store=work_dir / "results.jsonl",
                    resolution=(96, 72),
                )

        real_cell = getattr(module, cell_fn)
        victim_scenario, victim_column, victim_key = make_runner().cells()[-1]

        def broken_cell(scenario, column, cell_dir, **kwargs):
            if (scenario.name, column) == (victim_scenario.name, victim_column):
                raise RuntimeError("disk full")
            return real_cell(scenario, column, cell_dir, **kwargs)

        monkeypatch.setattr(module, cell_fn, broken_cell)
        summary = make_runner().run()
        assert len(summary.failures) == 1
        assert summary.failures[0][0] == f"{victim_column}/{victim_scenario.name}"
        assert "disk full" in summary.failures[0][1]
        assert summary.executed == summary.total - 1
        assert victim_key not in {r["key"] for r in summary.records}
        # a failing run is never reported as warm / clean
        assert not (summary.warm if kind == "suite" else summary.clean)
        # the failure is stored as a structured record ...
        stored = SuiteStore(work_dir / "results.jsonl").load()
        assert stored[victim_key]["failed"] is True
        assert stored[victim_key]["error_type"] == "RuntimeError"

        # ... and the next run retries exactly that cell
        monkeypatch.setattr(module, cell_fn, real_cell)
        retried = make_runner().run()
        assert retried.executed == 1 and retried.skipped == retried.total - 1
        assert not retried.failures
        assert not SuiteStore(work_dir / "results.jsonl").load()[victim_key].get("failed")


# --------------------------------------------------------------------------- #
# reporting
# --------------------------------------------------------------------------- #
class TestReport:
    def test_report_matrices_and_render(self, work_dir):
        runner = SuiteRunner(
            generate_scenarios(limit=3),
            methods=("gpt-4", "codegemma"),
            working_dir=work_dir / "work",
            store=work_dir / "results.jsonl",
        )
        summary = runner.run()
        report = build_report(summary.records)
        assert report.n_scenarios == 3 and report.n_cells == 6
        assert report.methods == ["gpt-4", "codegemma"]
        assert report.totals["gpt-4"].cells == 3

        markdown = report.to_markdown()
        assert "| method | contour | total |" in markdown
        assert "gpt-4" in markdown and "codegemma" in markdown

        json_path = report.write_json(work_dir / "report.json")
        payload = json.loads(json_path.read_text())
        assert payload["n_cells"] == 6
        assert payload["matrix"]["gpt-4"]["contour"]["cells"] == 3

        from_store = load_report(work_dir / "results.jsonl")
        assert from_store.n_cells == 6

    def test_failing_cells_listed(self):
        records = [
            {"method": "m", "family": "contour", "scenario": "s1", "error": False, "screenshot": True},
            {"method": "m", "family": "contour", "scenario": "s2", "error": True,
             "screenshot": False, "error_type": "AttributeError", "phrasing": "paper"},
        ]
        report = build_report(records)
        assert len(report.failing_cells) == 1
        assert "AttributeError" in report.to_markdown()
