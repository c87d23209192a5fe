"""The four benchmark workloads: set-up, the timed phase, and the output checks.

Every workload runs serially (thread executor, one worker) in a fresh
interpreter started by ``worker.py``.  A workload object exposes:

* ``imports()`` — the ``repro`` imports the pass needs (timed as
  ``process.import_s``);
* ``setup(root, seed)`` — everything before the timed phase, returning a
  context;
* ``run(ctx)`` — the timed phase, returning the raw outputs;
* ``check(outputs, reference)`` — ``(attempted, failures)`` against the
  stored reference (after the clock stops: it may read the files the timed
  phase wrote, such as screenshots);
* ``counters(outputs)`` — exact per-layer counts the program itself reports;
* ``reference(outputs)`` — the reference payload ``make_references.py``
  stores.

Seeds only shape the inputs: the catalog and verify workloads permute cell
order with them, ``volume-ops`` draws its field and planes from one of
:data:`VOLUME_VARIANTS` parameter sets.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_DIR = BENCH_DIR / "references"

#: the catalog matrix: the assisted loop plus two unassisted models
CATALOG_METHODS = ("ChatVis", "gpt-4", "gpt-3.5-turbo")
#: error-free cells per method on the full 44-scenario catalog (the paper's shape)
CATALOG_ERROR_FREE = {"ChatVis": 44, "gpt-4": 21, "gpt-3.5-turbo": 0}

#: volume-ops grid edge (points per axis) and block decomposition
VOLUME_DIMS = 24
VOLUME_EXTENT = 2.4
VOLUME_SPACING = VOLUME_EXTENT / (VOLUME_DIMS - 1)
VOLUME_BLOCKS = 4
VOLUME_GHOST = 1
#: the seed picks one of this many stored parameter draws
VOLUME_VARIANTS = 4
VOLUME_OPS = ("contour", "slice", "threshold", "clip")
#: surface points are stored quantized to this many steps over the extent
VOLUME_QUANT = 65535
#: output-vs-reference tolerance: well above the quantization error
VOLUME_POINT_TOL = 1e-4


def pixel_digest(image: np.ndarray) -> str:
    """Exact digest of an image's pixels (shape included), not of its encoding."""
    image = np.ascontiguousarray(image)
    return hashlib.sha256(repr((image.shape, image.dtype.str)).encode("ascii") + image.tobytes()).hexdigest()


def _shuffled(items: List[Any], seed: int) -> List[Any]:
    items = list(items)
    random.Random(seed).shuffle(items)
    return items


# --------------------------------------------------------------------------- #
# catalog: 44 scenarios x {ChatVis, gpt-4, gpt-3.5-turbo}
# --------------------------------------------------------------------------- #
def _permuted_suite_runner(seed: int, **kwargs: Any):
    from repro.scenarios.suite import SuiteRunner

    class PermutedSuiteRunner(SuiteRunner):
        """Runs the same cells in a seed-chosen order."""

        def cells(self):
            return _shuffled(super().cells(), seed)

    return PermutedSuiteRunner(**kwargs)


def cell_id(record: Dict[str, Any]) -> str:
    return f"{record['method']}/{record['scenario']}"


class CatalogWorkload:
    """The generated catalog; warm when ``setup`` is handed primed cache roots."""

    def __init__(self, name: str, limit: Optional[int] = None) -> None:
        self.name = name
        self.limit = limit

    def imports(self) -> None:
        import repro.scenarios  # noqa: F401
        import repro.scenarios.suite  # noqa: F401

    def setup(self, root: Path, seed: int, caches: Optional[Path] = None) -> Dict[str, Any]:
        from repro.engine.cache import configure_shared_cache
        from repro.scenarios import generate_scenarios

        caches = caches if caches is not None else root / "caches"
        configure_shared_cache(caches / "pipeline")
        scenarios = generate_scenarios(limit=self.limit)
        runner = _permuted_suite_runner(
            seed,
            scenarios=scenarios,
            methods=CATALOG_METHODS,
            working_dir=root / "cells",
            store=root / "suite-results.jsonl",
            max_workers=1,
            executor="thread",
            llm_cache_dir=caches / "llm",
        )
        return {"runner": runner}

    def run(self, ctx: Dict[str, Any]) -> Dict[str, Any]:
        summary = ctx["runner"].run(resume=True)
        return {"records": summary.records, "failures": summary.failures, "runner": ctx["runner"]}

    def reference_name(self) -> str:
        return f"{self.name}.json"

    def cell_outputs(self, outputs: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
        """Each cell's record after ``strip_timing``, plus the pixel digest of
        every screenshot the cell wrote, so rendering is pinned too."""
        from repro.io.png import read_png
        from repro.scenarios.suite import strip_timing

        runner = outputs["runner"]
        scenarios = {s.name: s for s in runner.scenarios}
        cells = {}
        for record in outputs["records"]:
            cell_dir = runner._cell_dir(scenarios[record["scenario"]], record["method"])
            cells[cell_id(record)] = dict(
                strip_timing(record),
                screenshot_pixels={p.name: pixel_digest(read_png(p)) for p in sorted(cell_dir.glob("*.png"))},
            )
        return cells

    def reference(self, outputs: Dict[str, Any]) -> Dict[str, Any]:
        return {"cells": dict(sorted(self.cell_outputs(outputs).items()))}

    def check(self, outputs: Dict[str, Any], reference: Dict[str, Any]) -> Tuple[int, List[str]]:
        expected = reference["cells"]
        got = self.cell_outputs(outputs)
        wanted = sorted(got) if self.limit is not None else sorted(expected)
        failures = [f"{name}: {err}" for name, err in outputs["failures"]]
        for name in wanted:
            if name not in got:
                failures.append(f"{name}: no record")
            elif name not in expected:
                failures.append(f"{name}: not in the reference")
            elif got[name] != expected[name]:
                diff = sorted(k for k in set(got[name]) | set(expected[name])
                              if got[name].get(k) != expected[name].get(k))
                failures.append(f"{name}: record differs in {diff}")
        attempted = len(wanted)
        if self.limit is None:
            attempted += 1  # the error-free matrix is one more checked output
            error_free = {m: 0 for m in CATALOG_METHODS}
            for record in outputs["records"]:
                if not record.get("error", True):
                    error_free[record["method"]] += 1
            if error_free != CATALOG_ERROR_FREE:
                failures.append(f"matrix: error-free {error_free} != {CATALOG_ERROR_FREE}")
        return attempted, failures

    def counters(self, outputs: Dict[str, Any]) -> Dict[str, float]:
        out = {
            "engine.nodes_executed": 0, "engine.nodes_cached": 0,
            "llm.calls": 0, "llm.cached_calls": 0, "llm.retries": 0, "llm.billed_tokens": 0,
        }
        for record in outputs["records"]:
            metrics = record.get("metrics") or {}
            usage = record.get("usage") or {}
            out["engine.nodes_executed"] += metrics.get("nodes_executed", 0)
            out["engine.nodes_cached"] += metrics.get("nodes_cached", 0)
            out["llm.calls"] += usage.get("calls", 0)
            out["llm.cached_calls"] += usage.get("cached_calls", 0)
            out["llm.retries"] += usage.get("retries", 0)
            out["llm.billed_tokens"] += usage.get("prompt_tokens", 0) + usage.get("completion_tokens", 0)
        return out


# --------------------------------------------------------------------------- #
# volume-ops: contour / slice / threshold / clip, whole and block-decomposed
# --------------------------------------------------------------------------- #
def volume_params(seed: int) -> Dict[str, Any]:
    """The field frequencies/phases and the slice/clip plane for a seed."""
    variant = seed % VOLUME_VARIANTS
    rng = np.random.default_rng([20240917, variant])
    normal = rng.normal(size=3)
    normal /= np.linalg.norm(normal)
    origin = VOLUME_EXTENT / 2 + rng.uniform(-0.3, 0.3, size=3)
    return {
        "variant": variant,
        "freq": [float(x) for x in rng.uniform(3.0, 6.0, size=3)],
        "phase": [float(x) for x in rng.uniform(0.0, 2 * np.pi, size=3)],
        "ops": {
            "contour": {"isovalues": [0.2], "array_name": "field", "compute_normals": True},
            "slice": {"origin": origin.tolist(), "normal": normal.tolist()},
            "threshold": {"array_name": "field", "lower": -0.3, "upper": 0.7, "all_points": True},
            "clip": {"origin": origin.tolist(), "normal": normal.tolist(), "keep_negative": False},
        },
    }


def volume_dataset(params: Dict[str, Any]):
    """The wave volume of the blocks manifest, with seeded frequencies and phases."""
    from repro.datamodel import ImageData

    image = ImageData((VOLUME_DIMS,) * 3, spacing=(VOLUME_SPACING,) * 3)
    points = image.get_points()
    (fx, fy, fz), (px, py, pz) = params["freq"], params["phase"]
    values = (
        np.sin(fx * points[:, 0] + px) * np.cos(fy * points[:, 1] + py)
        + 0.5 * np.sin(fz * points[:, 2] + pz)
    )
    image.add_point_array("field", values)
    return image


def _whole_op(op: str, image, params: Dict[str, Any]):
    from repro import algorithms

    if op == "contour":
        return algorithms.contour(image, params["isovalues"], array_name=params["array_name"],
                                  compute_normals=params["compute_normals"])
    if op == "slice":
        return algorithms.slice_dataset(image, origin=params["origin"], normal=params["normal"])
    if op == "threshold":
        return algorithms.threshold(image, array_name=params["array_name"], lower=params["lower"],
                                    upper=params["upper"], all_points=params["all_points"])
    return algorithms.clip_dataset(image, origin=params["origin"], normal=params["normal"],
                                   keep_negative=params["keep_negative"])


def cell_set_digest(grid) -> str:
    """Order-insensitive digest of a threshold output's (type, connectivity) cells."""
    cells = sorted((int(t), tuple(int(p) for p in conn)) for t, conn in grid.cells())
    return hashlib.sha256(repr(cells).encode("ascii")).hexdigest()


def quantize_points(points: np.ndarray) -> np.ndarray:
    """Sorted uint16 grid coordinates, stored as row deltas (compress well)."""
    q = np.round(np.asarray(points, dtype=float) / VOLUME_EXTENT * VOLUME_QUANT)
    q = np.clip(q, 0, VOLUME_QUANT).astype(np.uint16)
    q = q[np.lexsort(q.T[::-1])]
    return np.diff(q, axis=0, prepend=np.zeros((1, 3), np.uint16))  # wraps mod 2**16


def dequantize_points(deltas: np.ndarray) -> np.ndarray:
    q = np.cumsum(deltas, axis=0, dtype=np.uint16)  # undoes the wrap exactly
    return q.astype(float) * (VOLUME_EXTENT / VOLUME_QUANT)


class VolumeWorkload:
    name = "volume-ops"

    def imports(self) -> None:
        import repro.algorithms  # noqa: F401
        import repro.engine.blocks  # noqa: F401
        import repro.verify.comparators  # noqa: F401

    def setup(self, root: Path, seed: int, caches: Optional[Path] = None) -> Dict[str, Any]:
        from repro.engine.cache import configure_shared_cache

        configure_shared_cache(None)  # memory tier only: no file I/O in this workload
        params = volume_params(seed)
        return {"params": params, "image": volume_dataset(params)}

    def run(self, ctx: Dict[str, Any]) -> Dict[str, Any]:
        from repro.engine.blocks import BlockRunStats, BlocksConfig, run_blocked
        from repro.engine.cache import shared_cache

        image, ops = ctx["image"], ctx["params"]["ops"]
        whole = {op: _whole_op(op, image, ops[op]) for op in VOLUME_OPS}
        # every block executes for real: cached blocks would time the cache
        shared_cache().clear()
        config = BlocksConfig(n_blocks=VOLUME_BLOCKS, ghost=VOLUME_GHOST, executor="thread", max_workers=1)
        stats = BlockRunStats()
        blocked = {op: run_blocked(op, image, ops[op], config, stats=stats) for op in VOLUME_OPS}
        return {"variant": ctx["params"]["variant"], "whole": whole, "blocked": blocked,
                "blocks_executed": stats.blocks_executed}

    def reference_name(self) -> str:
        return "volume-ops.json"

    def reference(self, outputs: Dict[str, Any]) -> Dict[str, Any]:
        """Counts and digests; the surfaces go to a companion .npz (see make_references)."""
        entry: Dict[str, Any] = {}
        for path in ("whole", "blocked"):
            for op, out in outputs[path].items():
                item = {"n_points": int(out.n_points), "n_cells": int(out.n_cells)}
                if op == "threshold":
                    item["cells_sha256"] = cell_set_digest(out)
                entry[f"{path}/{op}"] = item
        return entry

    def surfaces(self, outputs: Dict[str, Any]) -> Dict[str, np.ndarray]:
        return {f"v{outputs['variant']}_{op}": quantize_points(outputs["whole"][op].get_points())
                for op in VOLUME_OPS if op != "threshold"}

    def check(self, outputs: Dict[str, Any], reference: Dict[str, Any]) -> Tuple[int, List[str]]:
        from repro.datamodel import PolyData
        from repro.verify.comparators import point_sets_close

        variant = outputs["variant"]
        expected = reference["variants"][str(variant)]
        surfaces = reference["surfaces"]
        seam_tol = 0.5 * VOLUME_SPACING
        failures: List[str] = []
        attempted = 0
        for path in ("whole", "blocked"):
            for op in VOLUME_OPS:
                attempted += 1
                out = outputs[path][op]
                want = expected[f"{path}/{op}"]
                name = f"v{variant}/{path}/{op}"
                problems = []
                if out is None:
                    failures.append(f"{name}: did not decompose")
                    continue
                if (int(out.n_points), int(out.n_cells)) != (want["n_points"], want["n_cells"]):
                    problems.append(f"counts {out.n_points}/{out.n_cells} != {want['n_points']}/{want['n_cells']}")
                if op == "threshold":
                    if cell_set_digest(out) != want["cells_sha256"]:
                        problems.append("threshold cell set differs")
                else:
                    ref = PolyData(dequantize_points(surfaces[f"v{variant}_{op}"]))
                    tol = VOLUME_POINT_TOL if path == "whole" else seam_tol
                    verdict = point_sets_close(out, ref, max_distance=tol)
                    if not verdict.ok:
                        problems.append(f"surface vs reference: {verdict.details}")
                    if path == "blocked":
                        verdict = point_sets_close(out, outputs["whole"][op], max_distance=seam_tol)
                        if not verdict.ok:
                            problems.append(f"blocked vs whole: {verdict.details}")
                if path == "blocked" and op == "threshold":
                    if cell_set_digest(out) != cell_set_digest(outputs["whole"][op]):
                        problems.append("blocked threshold differs from whole")
                if problems:
                    failures.append(f"{name}: " + "; ".join(problems))
        return attempted, failures

    def counters(self, outputs: Dict[str, Any]) -> Dict[str, float]:
        return {"engine.blocks.blocks_executed": outputs["blocks_executed"]}


# --------------------------------------------------------------------------- #
# verify-canonical: the five paper tasks x every registered relation
# --------------------------------------------------------------------------- #
def _permuted_verify_runner(seed: int, **kwargs: Any):
    from repro.verify import VerifyRunner

    class PermutedVerifyRunner(VerifyRunner):
        """Runs the same verdict cells in a seed-chosen order."""

        def cells(self):
            return _shuffled(super().cells(), seed)

    return PermutedVerifyRunner(**kwargs)


def verdict_id(record: Dict[str, Any]) -> str:
    return f"{record['relation']}/{record['scenario']}"


class VerifyWorkload:
    name = "verify-canonical"

    def __init__(self, limit: Optional[int] = None) -> None:
        self.limit = limit

    def imports(self) -> None:
        import repro.scenarios  # noqa: F401
        import repro.verify  # noqa: F401

    def setup(self, root: Path, seed: int, caches: Optional[Path] = None) -> Dict[str, Any]:
        from repro.engine.cache import configure_shared_cache
        from repro.scenarios import canonical_scenarios

        caches = caches if caches is not None else root / "caches"
        configure_shared_cache(caches / "pipeline")
        scenarios = canonical_scenarios()[: self.limit]
        runner = _permuted_verify_runner(
            seed,
            scenarios=scenarios,
            working_dir=root / "cells",
            store=root / "verify-results.jsonl",
            goldens_dir=root / "goldens",
            max_workers=1,
            executor="thread",
        )
        runner.update_goldens()
        return {"runner": runner}

    def run(self, ctx: Dict[str, Any]) -> Dict[str, Any]:
        summary = ctx["runner"].run(resume=True)
        return {"records": summary.records, "failures": summary.failures, "runner": ctx["runner"]}

    def reference_name(self) -> str:
        return "verify-canonical.json"

    @staticmethod
    def golden_pixels(outputs: Dict[str, Any]) -> Dict[str, Optional[str]]:
        """Pixel digest of the golden image recorded in set-up, per scenario.

        The golden relation compares every verdict's render against these, so
        pinning them ties the verify workload's rendering to the reference."""
        from repro.verify import GoldenStore

        runner = outputs["runner"]
        store = GoldenStore(runner.goldens_dir)
        digests = {}
        for scenario in runner.scenarios:
            entry = store.lookup(scenario, resolution=runner.resolution)
            digests[scenario.name] = pixel_digest(store.load_image(entry)) if entry else None
        return digests

    def reference(self, outputs: Dict[str, Any]) -> Dict[str, Any]:
        return {"cells": sorted(verdict_id(r) for r in outputs["records"]),
                "golden_pixels": self.golden_pixels(outputs)}

    def check(self, outputs: Dict[str, Any], reference: Dict[str, Any]) -> Tuple[int, List[str]]:
        got = {verdict_id(r): r for r in outputs["records"]}
        wanted = sorted(got) if self.limit is not None else reference["cells"]
        failures = [f"{name}: {err}" for name, err in outputs["failures"]]
        goldens = self.golden_pixels(outputs)
        for name, digest in goldens.items():
            if digest != reference["golden_pixels"].get(name):
                failures.append(f"golden/{name}: golden image pixels differ from the reference")
        for name in wanted:
            record = got.get(name)
            if record is None:
                failures.append(f"{name}: no verdict")
            elif name not in reference["cells"]:
                failures.append(f"{name}: not in the reference")
            elif record.get("violation") or record.get("skipped"):
                failures.append(f"{name}: violation={record.get('violation')} skipped={record.get('skipped')}")
        return len(wanted) + len(goldens), failures

    def counters(self, outputs: Dict[str, Any]) -> Dict[str, float]:
        records = outputs["records"]
        return {
            "engine.nodes_executed": sum(r.get("nodes_executed", 0) for r in records),
            "engine.nodes_cached": sum(r.get("nodes_cached", 0) for r in records),
            "verify.cells": len(records),
            "verify.violations": sum(1 for r in records if r.get("violation")),
            "verify.skipped": sum(1 for r in records if r.get("skipped")),
        }


def make_workload(name: str, limit: Optional[int] = None):
    if name in ("catalog-cold", "catalog-warm"):
        return CatalogWorkload(name, limit=limit)
    if name == "volume-ops":
        return VolumeWorkload()
    if name == "verify-canonical":
        return VerifyWorkload(limit=limit)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("catalog-cold", "catalog-warm", "volume-ops", "verify-canonical")


def load_reference(workload) -> Dict[str, Any]:
    with open(REFERENCE_DIR / workload.reference_name(), "r", encoding="utf-8") as handle:
        reference = json.load(handle)
    if isinstance(workload, VolumeWorkload):
        with np.load(REFERENCE_DIR / "volume-ops-surfaces.npz") as data:
            reference["surfaces"] = {key: data[key] for key in data.files}
    return reference
