"""Tests for the ``repro bench manifest`` subsystem (repro.perf)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli import main
from repro.perf import all_kernel_names, run_manifest
from repro.perf.manifest import BENCH_FILENAME, KernelSpec
from repro.perf.report import (
    SCHEMA_ID,
    compare_manifests,
    format_comparison,
    format_manifest,
    load_bench,
    validate_bench,
    write_bench,
)


def _tiny_spec(name="tiny", scale=1.0):
    def setup():
        return {"x": np.arange(2048, dtype=np.float64)}

    def current(ctx):
        return float((ctx["x"] * scale).sum())

    def reference(ctx):
        total = 0.0
        for value in ctx["x"]:
            total += value * scale
        return total

    return KernelSpec(
        name=name,
        title="toy reduction",
        size="2048 doubles",
        setup=setup,
        current=current,
        reference=reference,
    )


@pytest.fixture(scope="module")
def tiny_payload():
    return run_manifest(rounds=2, specs=[_tiny_spec()])


class TestRunManifest:
    def test_payload_shape_and_schema(self, tiny_payload):
        assert validate_bench(tiny_payload) is tiny_payload
        assert tiny_payload["schema"] == SCHEMA_ID
        assert tiny_payload["bench"] == BENCH_FILENAME
        assert tiny_payload["rounds"] == 2
        # the kernels are the whole manifest: end-to-end timing is e2ebench's
        assert "suite" not in tiny_payload and "cache" not in tiny_payload
        entry = tiny_payload["kernels"]["tiny"]
        assert entry["current_ms"] > 0
        assert entry["reference_ms"] > 0
        assert entry["speedup_min"] <= entry["speedup"] <= entry["speedup_max"]
        machine = tiny_payload["machine"]
        assert machine["numpy"] == np.__version__
        assert machine["cpu_count"] >= 1

    def test_vectorized_toy_kernel_beats_python_loop(self, tiny_payload):
        # sanity of the measurement itself: a numpy sum vs a python loop
        # must show a large speedup even on noisy shared hardware
        assert tiny_payload["kernels"]["tiny"]["speedup"] > 5

    def test_kernel_selection_and_unknown_kernel(self):
        with pytest.raises(KeyError):
            run_manifest(rounds=1, kernels=["nope"], specs=[_tiny_spec()])
        payload = run_manifest(
            rounds=1, kernels=["a"], specs=[_tiny_spec("a"), _tiny_spec("b")]
        )
        assert list(payload["kernels"]) == ["a"]

    def test_rounds_must_be_positive(self):
        with pytest.raises(ValueError):
            run_manifest(rounds=0, specs=[_tiny_spec()])

    def test_all_kernel_names_lists_the_four_substrate_kernels(self):
        assert all_kernel_names() == ["isosurface", "volume", "streamline", "delaunay"]


class TestBenchReport:
    def test_write_load_roundtrip(self, tiny_payload, tmp_path):
        path = write_bench(tiny_payload, tmp_path / "BENCH_test.json")
        loaded = load_bench(path)
        assert loaded == json.loads(json.dumps(tiny_payload))

    def test_validation_rejects_missing_and_mistyped(self, tiny_payload):
        bad = dict(tiny_payload)
        bad.pop("git_rev")
        with pytest.raises(ValueError, match="git_rev"):
            validate_bench(bad)
        bad = json.loads(json.dumps(tiny_payload))
        bad["kernels"]["tiny"]["speedup"] = "fast"
        with pytest.raises(ValueError, match="speedup"):
            validate_bench(bad)
        with pytest.raises(ValueError, match="schema"):
            validate_bench({"schema": "other/9"})
        with pytest.raises(ValueError, match="JSON|object"):
            validate_bench([1, 2, 3])

    def test_load_rejects_truncated_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"schema": "repro-bench/1", ')
        with pytest.raises(ValueError, match="not valid JSON"):
            load_bench(path)

    def test_compare_and_format(self, tiny_payload):
        candidate = json.loads(json.dumps(tiny_payload))
        candidate["git_rev"] = "feedbeef"
        candidate["kernels"]["tiny"]["current_ms"] *= 0.5
        candidate["kernels"]["extra"] = dict(candidate["kernels"]["tiny"])
        comparison = compare_manifests(tiny_payload, candidate)
        assert comparison["kernels"]["tiny"]["current_ms_delta_pct"] == pytest.approx(-50.0)
        assert comparison["only_in_candidate"] == ["extra"]
        text = format_comparison(comparison)
        assert "tiny" in text and "-50.0%" in text and "feedbeef" in text
        table = format_manifest(tiny_payload)
        assert "tiny" in table and "toy reduction" not in table  # table shows names
        assert "speedup" in table


class TestBenchManifestCli:
    def test_manifest_subcommand_writes_and_compares(self, tmp_path, capsys):
        out_path = tmp_path / "bench.json"
        code = main(
            [
                "bench",
                "manifest",
                "--rounds",
                "1",
                "--kernel",
                "isosurface",
                "--output",
                str(out_path),
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "isosurface" in printed and "speedup" in printed
        payload = load_bench(out_path)
        assert list(payload["kernels"]) == ["isosurface"]
        assert "suite" not in payload and "cache" not in payload
        assert payload["kernels"]["isosurface"]["speedup"] > 1.0

        # informational diff against the artifact we just wrote
        code = main(
            [
                "bench",
                "manifest",
                "--rounds",
                "1",
                "--kernel",
                "isosurface",
                "--compare",
                str(out_path),
            ]
        )
        assert code == 0
        assert "baseline" in capsys.readouterr().out


class TestCommittedBench:
    def test_committed_manifest_is_valid_and_meets_the_bar(self):
        from pathlib import Path

        committed = Path(__file__).resolve().parents[1] / BENCH_FILENAME
        payload = load_bench(committed)
        kernels = payload["kernels"]
        assert set(kernels) == set(all_kernel_names())
        # the campaign's acceptance bar: >= 2x on at least three kernels
        at_bar = [name for name, entry in kernels.items() if entry["speedup"] >= 2.0]
        assert len(at_bar) >= 3, f"only {at_bar} reached 2x in the committed manifest"


class TestCommittedBlocksBench:
    def test_committed_blocks_manifest_is_valid(self):
        from pathlib import Path

        # a frozen record: nothing in the repo regenerates it
        committed = Path(__file__).resolve().parents[1] / "BENCH_10.json"
        payload = load_bench(committed)
        assert payload["bench"] == "BENCH_10.json"
        expected = {f"blocks_w{w}" for w in [1, 2, 4, 8]}
        assert set(payload["kernels"]) == expected
        for name, entry in payload["kernels"].items():
            assert entry["current_ms"] > 0, name
            assert entry["reference_ms"] > 0, name
            assert entry["rounds"] >= 1, name
            assert entry["speedup_min"] <= entry["speedup"] <= entry["speedup_max"], name
        blocks = payload["blocks"]
        assert blocks["workers"] == [1, 2, 4, 8]
        assert set(blocks["ops"]) == {"contour", "slice", "threshold", "clip"}
        # the out-of-core claim needs a volume well beyond the canonical suite
        assert blocks["n_points"] >= 4 * 24**3
