"""Overhead and memory benchmarks for block-decomposed execution.

Two claims are on the line:

* **overhead guard** — one blocked pass of the four ops (8 blocks, ghost 1,
  thread executor) at 1 and at 2 workers must stay within an order of
  magnitude of one whole-dataset pass over the same volume.  Partition,
  merge and weld cost something; they must not cost 10x.  Worker-scaling
  figures are out of scope on a small shared machine; the committed
  ``BENCH_10.json`` is a frozen record of such a sweep, and
  ``e2ebench/run.py --workload volume-ops`` times blocked and whole per layer.
* **out-of-core memory** — executing one block must allocate a fraction of
  what the whole-dataset op allocates, measured with ``tracemalloc`` on a
  synthetic volume several times the largest small-suite canonical dataset.
  That per-block bound is the entire point of the decomposition: peak
  residency is set by the block size, not the dataset size.
"""

from __future__ import annotations

import time
import tracemalloc
from typing import Any, Dict, Sequence

import numpy as np

from repro.algorithms import clip_dataset, contour, slice_dataset, threshold
from repro.engine.blocks import BlocksConfig, partition_image_data, run_blocked
from repro.engine.blocks import _execute_block_op  # the per-block unit of work
from repro.engine.cache import shared_cache

#: synthetic volume for the blocks benchmarks: 48^3 points is ~8x the largest
#: small-suite canonical dataset (marschner-lobb at 24^3)
BLOCKS_BENCH_DIMS = (48, 48, 48)


def blocks_bench_dataset(dims: Sequence[int] = BLOCKS_BENCH_DIMS):
    """The synthetic wave volume both sides of the blocks benchmarks run on."""
    from repro.datamodel import ImageData

    img = ImageData(tuple(dims), spacing=(0.05, 0.05, 0.05))
    points = img.get_points()
    values = (
        np.sin(4.1 * points[:, 0]) * np.cos(3.3 * points[:, 1])
        + 0.5 * np.sin(5.7 * points[:, 2])
    )
    img.add_point_array("field", values)
    return img


#: the four blocked ops with the parameters both sides of the benchmarks use
BLOCKS_BENCH_OPS: Dict[str, Dict[str, Any]] = {
    "contour": {"isovalues": [0.2], "array_name": "field", "compute_normals": True},
    "slice": {"origin": [1.2, 1.2, 1.2], "normal": [0.25, 0.1, 1.0]},
    "threshold": {"array_name": "field", "lower": -0.3, "upper": 0.7, "all_points": True},
    "clip": {"origin": [1.2, 1.2, 1.2], "normal": [0.25, 0.1, 1.0], "keep_negative": False},
}

_WHOLE_OPS = {
    "contour": contour,
    "slice": slice_dataset,
    "threshold": threshold,
    "clip": clip_dataset,
}


def _timed(fn) -> float:
    started = time.perf_counter()
    fn()
    return time.perf_counter() - started


def _whole_pass(dataset) -> None:
    for op, params in BLOCKS_BENCH_OPS.items():
        _WHOLE_OPS[op](dataset, **params)


def _blocked_pass(dataset, max_workers: int) -> None:
    # served-from-cache blocks would measure the cache, not the decomposition
    shared_cache().clear()
    config = BlocksConfig(n_blocks=8, ghost=1, executor="thread", max_workers=max_workers)
    for op, params in BLOCKS_BENCH_OPS.items():
        assert run_blocked(op, dataset, params, config) is not None, op


def test_blocked_stays_within_an_order_of_whole():
    """Decomposition overhead (partition + merge + weld) must not blow wall
    clock up by an order of magnitude at 1 or 2 workers."""
    volume = blocks_bench_dataset()
    whole_s = _timed(lambda: _whole_pass(volume))
    for workers in (1, 2):
        blocked_s = _timed(lambda: _blocked_pass(volume, workers))
        assert blocked_s < 10 * whole_s, (
            f"blocked at {workers} worker(s) took {blocked_s:.1f} s, "
            f">10x the whole pass ({whole_s:.1f} s)"
        )


def _peak_bytes(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


class TestOutOfCoreMemory:
    """Each test builds a fresh volume: ``tetrahedra_of_dataset`` memoizes
    per dataset object, and a warm memo would deflate the whole-dataset peak
    (the blocks always tetrahedralize their freshly-extracted slabs)."""

    def test_per_block_peak_is_a_fraction_of_whole_contour(self):
        bench_volume = blocks_bench_dataset()
        whole_peak = _peak_bytes(
            lambda: contour(bench_volume, 0.2, array_name="field", compute_normals=True)
        )
        blockset = partition_image_data(bench_volume, 8, ghost=1)
        block_peak = max(
            _peak_bytes(
                lambda b=block: _execute_block_op(
                    "contour", "image", b, BLOCKS_BENCH_OPS["contour"]
                )
            )
            for block in blockset.blocks
        )
        assert block_peak < whole_peak / 2, (
            f"per-block contour peak {block_peak} is not a fraction of "
            f"whole-dataset peak {whole_peak}"
        )

    def test_per_block_peak_is_a_fraction_of_whole_threshold(self):
        bench_volume = blocks_bench_dataset()
        whole_peak = _peak_bytes(
            lambda: threshold(
                bench_volume, array_name="field", lower=-0.3, upper=0.7, all_points=True
            )
        )
        blockset = partition_image_data(bench_volume, 8, ghost=1)
        block_peak = max(
            _peak_bytes(
                lambda b=block: _execute_block_op(
                    "threshold", "image", b, BLOCKS_BENCH_OPS["threshold"]
                )
            )
            for block in blockset.blocks
        )
        assert block_peak < whole_peak / 2, (
            f"per-block threshold peak {block_peak} is not a fraction of "
            f"whole-dataset peak {whole_peak}"
        )
