"""The canonical benchmark manifest behind ``repro bench manifest``.

One manifest run times every substrate kernel against its pinned ``_*_loop``
reference, the canonical-pipeline suite wall clock and the cold/warm cache
round-trip, and returns the schema'd payload that gets committed as
``BENCH_<n>.json`` — the repo's performance trajectory.

Measurement notes
-----------------
The kernels are timed **interleaved**: each round runs the current
implementation and the loop reference back to back, and the reported speedup
is the median of the per-round ratios.  On shared/virtualized hardware the
wall clock drifts by double-digit percentages over a run; sequential
"all-current then all-reference" timing bakes that drift into the ratio,
while pairwise ratios cancel it.  Medians (not means) keep one descheduled
round from skewing the result.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

__all__ = [
    "KernelSpec",
    "all_kernel_names",
    "run_manifest",
    "run_blocks_manifest",
    "BENCH_FILENAME",
    "BLOCKS_BENCH_FILENAME",
    "BLOCKS_BENCH_WORKERS",
]

#: the perf-trajectory artifact this PR maintains (see README "Performance")
BENCH_FILENAME = "BENCH_6.json"

#: the block-decomposition scaling artifact (same repro-bench/1 schema)
BLOCKS_BENCH_FILENAME = "BENCH_10.json"
BLOCKS_BENCH_WORKERS = (1, 2, 4, 8)


@dataclass(frozen=True)
class KernelSpec:
    """One timed kernel: a current implementation vs. its pinned reference.

    ``setup`` builds the inputs once (outside the timed region); ``current``
    and ``reference`` each take the context it returns and run one full
    evaluation.  Both callables must compute the same quantity — the parity
    tests in ``tests/test_kernel_parity.py`` are the guarantee, the manifest
    only measures.
    """

    name: str
    title: str
    size: str
    setup: Callable[[], Dict[str, Any]]
    current: Callable[[Dict[str, Any]], Any]
    reference: Callable[[Dict[str, Any]], Any]


# --------------------------------------------------------------------------- #
# kernel definitions (sizes match benchmarks/test_perf_substrate.py)
# --------------------------------------------------------------------------- #
def _iso_setup() -> Dict[str, Any]:
    from repro.data.marschner_lobb import generate_marschner_lobb

    volume = generate_marschner_lobb(40)
    scalars = np.asarray(volume.point_data["var0"].values, dtype=np.float64).reshape(-1)
    return {"volume": volume, "g": scalars - 0.5}


def _iso_current(ctx: Dict[str, Any]):
    from repro.algorithms.isosurface import extract_level_set

    return extract_level_set(ctx["volume"], ctx["g"])


def _iso_reference(ctx: Dict[str, Any]):
    from repro.algorithms.isosurface import _extract_level_set_loop

    return _extract_level_set_loop(ctx["volume"], ctx["g"])


def _volume_setup() -> Dict[str, Any]:
    from repro.data.marschner_lobb import generate_marschner_lobb
    from repro.rendering.camera import Camera

    volume = generate_marschner_lobb(40)
    camera = Camera().isometric_view(volume.bounds())
    return {"volume": volume, "camera": camera}


def _volume_render(ctx: Dict[str, Any]):
    from repro.rendering.volume_render import volume_render

    return volume_render(ctx["volume"], "var0", ctx["camera"], 320, 180, n_samples=80)


def _volume_reference(ctx: Dict[str, Any]):
    import importlib

    # import_module, not "import ... as": the package __init__ re-exports a
    # function under the same name as the module
    vr = importlib.import_module("repro.rendering.volume_render")

    saved = vr._composite_rays
    vr._composite_rays = vr._composite_rays_loop
    try:
        return _volume_render(ctx)
    finally:
        vr._composite_rays = saved


def _stream_setup() -> Dict[str, Any]:
    from repro.data.disk_flow import generate_disk_flow

    return {"disk": generate_disk_flow(6, 16, 6)}


def _stream_current(ctx: Dict[str, Any]):
    from repro.algorithms.stream_tracer import stream_tracer

    return stream_tracer(ctx["disk"], "V", n_seed_points=50)


def _stream_reference(ctx: Dict[str, Any]):
    import importlib

    st = importlib.import_module("repro.algorithms.stream_tracer")

    def loop_composition(interpolator, array_name, seeds, options, signs):
        # the pre-campaign composition: one per-direction append-loop trace
        signs = np.asarray(signs, dtype=np.float64)
        results: List[Any] = [None] * signs.shape[0]
        for sign in np.unique(signs):
            rows = np.nonzero(signs == sign)[0]
            traced = st._trace_batch_loop(
                interpolator, array_name, seeds[rows], options, float(sign)
            )
            for row, item in zip(rows, traced):
                results[row] = item
        return results

    saved = st._trace_batch_signed
    st._trace_batch_signed = loop_composition
    try:
        return _stream_current(ctx)
    finally:
        st._trace_batch_signed = saved


def _delaunay_setup() -> Dict[str, Any]:
    rng = np.random.default_rng(7)
    return {"points": rng.random((400, 3))}


def _delaunay_current(ctx: Dict[str, Any]):
    from repro.algorithms.delaunay3d import _bowyer_watson

    return _bowyer_watson(ctx["points"])


def _delaunay_reference(ctx: Dict[str, Any]):
    from repro.algorithms.delaunay3d import _bowyer_watson_loop

    return _bowyer_watson_loop(ctx["points"])


_KERNELS: List[KernelSpec] = [
    KernelSpec(
        name="isosurface",
        title="marching tets level-set extraction",
        size="marschner_lobb(40), isovalue 0.5",
        setup=_iso_setup,
        current=_iso_current,
        reference=_iso_reference,
    ),
    KernelSpec(
        name="volume",
        title="front-to-back ray-marched volume rendering",
        size="marschner_lobb(40), 320x180, 80 samples",
        setup=_volume_setup,
        current=_volume_render,
        reference=_volume_reference,
    ),
    KernelSpec(
        name="streamline",
        title="batched RK4 streamline tracing",
        size="disk_flow(6,16,6), 50 seeds, both directions",
        setup=_stream_setup,
        current=_stream_current,
        reference=_stream_reference,
    ),
    KernelSpec(
        name="delaunay",
        title="incremental Bowyer-Watson tetrahedralization",
        size="400 uniform points",
        setup=_delaunay_setup,
        current=_delaunay_current,
        reference=_delaunay_reference,
    ),
]


def all_kernel_names() -> List[str]:
    return [spec.name for spec in _KERNELS]


# --------------------------------------------------------------------------- #
# block-decomposition scaling kernels (BENCH_10)
# --------------------------------------------------------------------------- #
#: synthetic volume for the blocks bench: 48^3 points is ~8x the largest
#: small-suite canonical dataset (marschner-lobb at 24^3)
BLOCKS_BENCH_DIMS = (48, 48, 48)


def blocks_bench_dataset(dims: Sequence[int] = BLOCKS_BENCH_DIMS):
    """The synthetic wave volume both sides of the blocks bench run on."""
    from repro.datamodel import ImageData

    img = ImageData(tuple(dims), spacing=(0.05, 0.05, 0.05))
    points = img.get_points()
    values = (
        np.sin(4.1 * points[:, 0]) * np.cos(3.3 * points[:, 1])
        + 0.5 * np.sin(5.7 * points[:, 2])
    )
    img.add_point_array("field", values)
    return img


#: the four blocked ops with the parameters both sides of the bench use
BLOCKS_BENCH_OPS: Dict[str, Dict[str, Any]] = {
    "contour": {"isovalues": [0.2], "array_name": "field", "compute_normals": True},
    "slice": {"origin": [1.2, 1.2, 1.2], "normal": [0.25, 0.1, 1.0]},
    "threshold": {"array_name": "field", "lower": -0.3, "upper": 0.7, "all_points": True},
    "clip": {"origin": [1.2, 1.2, 1.2], "normal": [0.25, 0.1, 1.0], "keep_negative": False},
}


def _blocks_whole_ops(dataset) -> None:
    from repro.algorithms import clip_dataset, contour, slice_dataset, threshold

    p = BLOCKS_BENCH_OPS
    contour(
        dataset,
        p["contour"]["isovalues"],
        array_name=p["contour"]["array_name"],
        compute_normals=p["contour"]["compute_normals"],
    )
    slice_dataset(dataset, origin=p["slice"]["origin"], normal=p["slice"]["normal"])
    threshold(
        dataset,
        array_name=p["threshold"]["array_name"],
        lower=p["threshold"]["lower"],
        upper=p["threshold"]["upper"],
        all_points=p["threshold"]["all_points"],
    )
    clip_dataset(
        dataset,
        origin=p["clip"]["origin"],
        normal=p["clip"]["normal"],
        keep_negative=p["clip"]["keep_negative"],
    )


def _blocks_blocked_ops(dataset, n_blocks: int, ghost: int, max_workers: int) -> None:
    from repro.engine.blocks import BlocksConfig, run_blocked
    from repro.engine.cache import shared_cache

    # every timed call executes for real: served-from-cache blocks would
    # measure the cache, not the decomposed execution
    shared_cache().clear()
    config = BlocksConfig(
        n_blocks=n_blocks, ghost=ghost, executor="thread", max_workers=max_workers
    )
    for op, params in BLOCKS_BENCH_OPS.items():
        out = run_blocked(op, dataset, params, config)
        if out is None:  # pragma: no cover - the bench volume always splits
            raise RuntimeError(f"bench dataset did not decompose for {op!r}")


def blocks_kernel_specs(
    n_blocks: int = 8,
    ghost: int = 1,
    workers: Sequence[int] = BLOCKS_BENCH_WORKERS,
    dims: Sequence[int] = BLOCKS_BENCH_DIMS,
) -> List[KernelSpec]:
    """One kernel per worker count: blocked (current) vs whole (reference)."""

    def setup() -> Dict[str, Any]:
        return {"dataset": blocks_bench_dataset(dims)}

    size = (
        f"{dims[0]}x{dims[1]}x{dims[2]} synthetic wave volume, "
        f"{n_blocks} blocks, ghost {ghost}, all four ops"
    )
    specs: List[KernelSpec] = []
    for count in workers:
        specs.append(
            KernelSpec(
                name=f"blocks_w{count}",
                title=f"block-decomposed contour/slice/threshold/clip, {count} worker(s)",
                size=size,
                setup=setup,
                current=(
                    lambda ctx, _w=count: _blocks_blocked_ops(
                        ctx["dataset"], n_blocks, ghost, _w
                    )
                ),
                reference=lambda ctx: _blocks_whole_ops(ctx["dataset"]),
            )
        )
    return specs


def run_blocks_manifest(
    rounds: int = 3,
    n_blocks: int = 8,
    ghost: int = 1,
    workers: Sequence[int] = BLOCKS_BENCH_WORKERS,
    dims: Sequence[int] = BLOCKS_BENCH_DIMS,
    progress: Optional[Callable[[str], None]] = None,
) -> Dict[str, Any]:
    """The ``BENCH_10.json`` payload: blocked-vs-whole wall clock per worker count.

    Shares the repro-bench/1 schema and the interleaved pairwise-ratio timing
    of :func:`run_manifest`; ``reference_ms`` is whole-dataset execution of
    the same four ops, so ``speedup`` reads as "blocked at N workers vs
    whole" (below 1.0 on a single hardware thread, where the decomposition
    buys memory headroom, not wall clock).
    """
    payload = run_manifest(
        rounds=rounds,
        include_suite=False,
        include_cache=False,
        progress=progress,
        specs=blocks_kernel_specs(n_blocks=n_blocks, ghost=ghost, workers=workers, dims=dims),
    )
    payload["bench"] = BLOCKS_BENCH_FILENAME
    payload["blocks"] = {
        "dims": list(dims),
        "n_points": int(np.prod(np.asarray(dims))),
        "n_blocks": n_blocks,
        "ghost": ghost,
        "workers": list(workers),
        "ops": list(BLOCKS_BENCH_OPS),
    }
    return payload


# --------------------------------------------------------------------------- #
# timing
# --------------------------------------------------------------------------- #
def _time_call(fn: Callable[[], Any]) -> float:
    started = time.perf_counter()
    fn()
    return time.perf_counter() - started


def _run_kernel(
    spec: KernelSpec, rounds: int, warmup: int = 1, repeats: int = 2
) -> Dict[str, Any]:
    ctx = spec.setup()
    for _ in range(warmup):
        spec.current(ctx)
        spec.reference(ctx)
    current_s: List[float] = []
    reference_s: List[float] = []
    for index in range(rounds):
        # alternate which side goes first so monotonic clock drift within a
        # round cancels instead of biasing one side; the min over the inner
        # repeats discards one-sided scheduler hiccups (noise only ever
        # makes a measurement slower)
        sides = [
            (current_s, lambda: spec.current(ctx)),
            (reference_s, lambda: spec.reference(ctx)),
        ]
        if index % 2:
            sides.reverse()
        for sink, call in sides:
            sink.append(min(_time_call(call) for _ in range(max(repeats, 1))))
    cur = np.asarray(current_s)
    ref = np.asarray(reference_s)
    ratios = ref / cur
    return {
        "title": spec.title,
        "size": spec.size,
        "rounds": rounds,
        "current_ms": float(np.median(cur) * 1e3),
        "reference_ms": float(np.median(ref) * 1e3),
        "speedup": float(np.median(ratios)),
        "speedup_min": float(ratios.min()),
        "speedup_max": float(ratios.max()),
    }


def _canonical_suite_seconds() -> Dict[str, Any]:
    """Wall clock of the canonical pipelines' engine-level geometric subset.

    The display-only and renderer-level steps of each canonical chain are
    outside the engine operation set (the verify relations make the same
    cut), so each scenario contributes its data materialization plus the
    geometric steps that run through the engine.
    """
    from repro.scenarios.catalog import canonical_scenarios
    from repro.verify.pipelines import (
        GEOMETRIC_KINDS,
        apply_operation_chain,
        load_scenario_dataset,
    )

    scenarios = canonical_scenarios()
    started = time.perf_counter()
    executed = 0
    with tempfile.TemporaryDirectory(prefix="repro-bench-suite-") as tmp:
        for scenario in scenarios:
            steps = [
                step for step in scenario.operations if step.kind in GEOMETRIC_KINDS
            ]
            if not steps:
                continue
            dataset = load_scenario_dataset(scenario, tmp, small_data=True)
            apply_operation_chain(dataset, steps)
            executed += 1
    return {
        "wall_seconds": time.perf_counter() - started,
        "n_scenarios": executed,
    }


def _cache_cold_warm() -> Dict[str, Any]:
    """Cold vs. warm tiered-cache round-trip of a representative pipeline."""
    from repro.engine import Engine, Pipeline
    from repro.engine.cache import DiskCache, ResultCache, TieredCache

    def one_pass(cache: TieredCache) -> float:
        engine = Engine(cache=cache)
        pipeline = Pipeline(engine)
        target = (
            pipeline.source("Wavelet", WholeExtent=[-10, 10, -10, 10, -10, 10])
            .then("Slice", SliceType={"Origin": [0.0, 0.0, 0.0], "Normal": [1.0, 0.0, 0.0]})
            .then("Contour", ContourBy=["POINTS", "RTData"], Isosurfaces=[110.0])
        )
        started = time.perf_counter()
        target.evaluate()
        return time.perf_counter() - started

    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as tmp:
        disk = DiskCache(tmp)
        cold = one_pass(TieredCache(ResultCache(), disk))
        # fresh memory tier over the same disk root: warm hits come from disk
        warm = one_pass(TieredCache(ResultCache(), disk))
    return {
        "cold_seconds": cold,
        "warm_seconds": warm,
        "speedup": cold / warm if warm > 0 else float("inf"),
    }


def _git_rev() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def _machine_info() -> Dict[str, Any]:
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "cpu_count": os.cpu_count() or 1,
    }


def run_manifest(
    rounds: int = 5,
    kernels: Optional[Sequence[str]] = None,
    include_suite: bool = True,
    include_cache: bool = True,
    progress: Optional[Callable[[str], None]] = None,
    specs: Optional[Sequence[KernelSpec]] = None,
) -> Dict[str, Any]:
    """Run the benchmark manifest and return the ``BENCH_<n>.json`` payload.

    ``kernels`` narrows the kernel list by name (default: all four);
    ``include_suite``/``include_cache`` gate the non-kernel sections so tests
    and quick local runs can stay cheap.  ``progress`` receives one line per
    completed section.  ``specs`` replaces the built-in kernel list (tests
    inject tiny kernels through it).
    """
    from repro.perf.report import SCHEMA_ID

    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    say = progress or (lambda message: None)
    selected = list(_KERNELS) if specs is None else list(specs)
    if kernels is not None:
        wanted = set(kernels)
        unknown = wanted - {spec.name for spec in selected}
        if unknown:
            raise KeyError(f"unknown kernel(s): {sorted(unknown)}")
        selected = [spec for spec in selected if spec.name in wanted]

    kernel_results: Dict[str, Any] = {}
    for spec in selected:
        kernel_results[spec.name] = _run_kernel(spec, rounds=rounds)
        say(
            f"{spec.name}: {kernel_results[spec.name]['current_ms']:.1f} ms, "
            f"{kernel_results[spec.name]['speedup']:.2f}x vs reference"
        )

    payload: Dict[str, Any] = {
        "schema": SCHEMA_ID,
        "bench": BENCH_FILENAME,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "git_rev": _git_rev(),
        "machine": _machine_info(),
        "rounds": rounds,
        "kernels": kernel_results,
    }
    if include_suite:
        payload["suite"] = _canonical_suite_seconds()
        say(f"canonical suite: {payload['suite']['wall_seconds']:.2f} s")
    if include_cache:
        payload["cache"] = _cache_cold_warm()
        say(f"cache warm speedup: {payload['cache']['speedup']:.1f}x")
    return payload
