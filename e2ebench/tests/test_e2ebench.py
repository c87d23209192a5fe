"""Self-tests of the end-to-end benchmark (run: python -m pytest e2ebench/tests -q)."""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import layers
import metrics
import workloads

BENCH_DIR = Path(__file__).resolve().parents[1]
CHECKOUT = BENCH_DIR.parent
SPEC = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _bench(*args, root=CHECKOUT, timeout=170):
    return subprocess.run(
        [sys.executable, str(root / "e2ebench" / "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=timeout,
    )


def _copy_tree(dest, src="link"):
    """BENCHMARK.json and e2ebench/ copied to ``dest``; ``src/`` linked or copied."""
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copy(CHECKOUT / "BENCHMARK.json", dest / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, dest / "e2ebench", ignore=ignore)
    if src == "link":
        (dest / "src").symlink_to(CHECKOUT / "src", target_is_directory=True)
    elif src == "copy":
        shutil.copytree(CHECKOUT / "src", dest / "src", ignore=ignore)
    return dest


def _result(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_metric_names_and_units():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.match(metric["name"]), metric
        assert UNIT.match(metric["unit"]), metric
    assert {m["name"] for m in SPEC["per_layer"]} == set(metrics.MOVES)
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_every_layer_metric_names_what_it_should_move():
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    names = {w["name"] for w in SPEC["workloads"]}
    assert names == set(workloads.WORKLOADS)
    for metric in SPEC["per_layer"]:
        moves = metrics.MOVES[metric["name"]]
        assert moves, metric["name"]
        for target, on in moves:
            assert target in end_to_end, (metric["name"], target)
            assert on and set(on) <= names, (metric["name"], on)


def _bindings():
    import sys as _sys

    snapshot = {}
    for name, module in list(_sys.modules.items()):
        if name.split(".")[0] == "repro" and module is not None:
            for attr, value in vars(module).items():
                snapshot[(name, attr)] = value
                if isinstance(value, type):
                    for member, obj in vars(value).items():
                        snapshot[(name, attr, member)] = obj
    return snapshot


def test_wrappers_restore_the_original_bindings():
    import importlib

    for name in layers.PRELOAD:
        importlib.import_module(name)
    before = _bindings()
    recorder = layers.Recorder()
    patches = layers.install(recorder)
    try:
        wrapped = layers.wrapped_bindings()
        # the from-import copies callers look up are patched, not just the definitions
        for binding in (
            "repro.pvsim.filters.clip_dataset",
            "repro.rendering.scene.rasterize_triangles",
            "repro.rendering.framebuffer.write_png",
            "repro.engine.cache.DiskCache.put",
        ):
            assert binding in wrapped
        from repro import algorithms
        from repro.datamodel import ImageData

        image = ImageData((4, 4, 4))
        image.add_point_array("f", image.get_points()[:, 0])
        out = algorithms.threshold(image, array_name="f", lower=0.5, upper=2.5)
        assert recorder.self_s["algorithms.threshold"] > 0
        assert recorder.counts["algorithms.cells_out"] == out.n_cells
    finally:
        layers.uninstall(patches)
    assert layers.wrapped_bindings() == []
    after = _bindings()
    assert all(after[key] is value for key, value in before.items() if key in after)


def test_timed_run_never_installs_wrappers_and_traced_run_attributes():
    timed = _bench("--workload", "catalog-cold", "--seed", "3", "--seconds", "0.1", "--trace", "0", "--limit", "1")
    assert timed.returncode == 0, timed.stderr
    result = _result(timed)
    # run.py fails the run if a timed pass had the layers module loaded
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    traced = _bench("--workload", "catalog-cold", "--seed", "3", "--seconds", "0.1", "--trace", "1", "--limit", "1")
    assert traced.returncode == 0, traced.stderr
    values = {k: v["value"] for k, v in _result(traced)["metrics"].items()}
    assert set(values) == set(metrics.MOVES)
    assert values["scenarios.attributed_ratio"] >= 0.9
    assert values["llm.calls"] > 0 and values["rendering.frames"] > 0


def _assert_incorrect(proc):
    assert proc.returncode == 1, proc.stderr
    result = _result(proc)
    assert not result["correct"] and result["failed"] >= 1
    assert result["metrics"]["correct_ratio"]["value"] < 1.0


def test_perturbed_reference_drives_correct_ratio_below_one(tmp_path):
    root = _copy_tree(tmp_path)
    path = root / "e2ebench" / "references" / "catalog-cold.json"
    payload = json.loads(path.read_text())
    from repro.scenarios import generate_scenarios

    payload["cells"][f"ChatVis/{generate_scenarios(limit=1)[0].name}"]["iterations"] += 1
    path.write_text(json.dumps(payload))
    _assert_incorrect(_bench("--workload", "catalog-cold", "--seed", "1", "--seconds", "0.1", "--trace", "0",
                             "--limit", "1", root=root))


def test_perturbed_rasterizer_drives_correct_ratio_below_one(tmp_path):
    # shift every triangle one pixel right: the records still match, the screenshots do not
    root = _copy_tree(tmp_path, src="copy")
    path = root / "src" / "repro" / "rendering" / "rasterizer.py"
    text = path.read_text()
    assert "\ndef rasterize_triangles(" in text
    path.write_text(text.replace("\ndef rasterize_triangles(", "\ndef _rasterize_triangles(") + (
        "\n\ndef rasterize_triangles(framebuffer, screen_points, *args, **kwargs):\n"
        "    return _rasterize_triangles(framebuffer, screen_points + [1.0, 0.0, 0.0], *args, **kwargs)\n"
    ))
    proc = _bench("--workload", "catalog-cold", "--seed", "1", "--seconds", "0.1", "--trace", "0",
                  "--limit", "1", root=root)
    _assert_incorrect(proc)
    assert "screenshot_pixels" in proc.stderr


def test_refuses_to_run_without_the_program(tmp_path):
    root = _copy_tree(tmp_path, src=None)
    proc = _bench("--workload", "volume-ops", "--seed", "1", "--seconds", "1", "--trace", "0", root=root, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.mark.parametrize("seed", [0, 1, 5])
def test_volume_seed_picks_a_stored_variant(seed):
    params = workloads.volume_params(seed)
    assert params == workloads.volume_params(seed)
    reference = json.loads((workloads.REFERENCE_DIR / "volume-ops.json").read_text())
    assert str(params["variant"]) in reference["variants"]
