"""The canonical benchmark manifest behind ``repro bench manifest``.

One manifest run times every substrate kernel against its pinned ``_*_loop``
reference and returns the schema'd payload that gets committed as
``BENCH_<n>.json``.  These kernel figures are evidence under the end-to-end
number, which ``e2ebench/run.py`` measures (catalog cold and warm, volume
ops, the verify matrix).

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
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

__all__ = [
    "KernelSpec",
    "all_kernel_names",
    "run_manifest",
    "BENCH_FILENAME",
]

#: the perf-trajectory artifact this PR maintains (see README "Performance")
BENCH_FILENAME = "BENCH_6.json"


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
    progress: Optional[Callable[[str], None]] = None,
    specs: Optional[Sequence[KernelSpec]] = None,
) -> Dict[str, Any]:
    """Run the benchmark manifest and return the ``BENCH_<n>.json`` payload.

    ``kernels`` narrows the kernel list by name (default: all four).
    ``progress`` receives one line per completed kernel.  ``specs`` replaces
    the built-in kernel list (tests inject tiny kernels through it).
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

    return {
        "schema": SCHEMA_ID,
        "bench": BENCH_FILENAME,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "git_rev": _git_rev(),
        "machine": _machine_info(),
        "rounds": rounds,
        "kernels": kernel_results,
    }
