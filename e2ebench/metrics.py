"""What each per-layer metric should move, and the per-layer values of a traced pass.

``BENCHMARK.json`` at the repository root holds every metric's name, unit
and direction; its per-layer entries may carry only those keys, so the
prediction a change to a layer is judged against lives here: each
per-layer metric names the end-to-end metric(s) it should move and on
which workload(s).  The self-tests keep the names here and there in step.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Tuple

from workloads import WORKLOADS as ALL

CATALOG = ("catalog-cold", "catalog-warm")

Moves = List[Tuple[str, Tuple[str, ...]]]


WALL_CATALOG = ("wall_s", CATALOG)
WALL_COLD = ("wall_s", ("catalog-cold",))
WALL_WARM = ("wall_s", ("catalog-warm",))
WALL_VOLUME = ("wall_s", ("volume-ops",))
WALL_VERIFY = ("wall_s", ("verify-canonical",))
WALL_RENDERED = ("wall_s", ("catalog-cold", "catalog-warm", "verify-canonical"))

#: per-layer metric -> [(end-to-end metric, workloads it should move there)]
MOVES: Dict[str, Moves] = {
    "process.import_s": [("setup_s", ALL)],
    "process.cpu_s": [("wall_s", ALL)],
    "scenarios.cell_p50_s": [WALL_CATALOG],
    "scenarios.cell_p92_s": [WALL_CATALOG],
    "scenarios.store_append_s": [WALL_CATALOG],
    "scenarios.unattributed_s": [("wall_s", CATALOG + ("verify-canonical",))],
    "scenarios.attributed_ratio": [("wall_s", CATALOG + ("verify-canonical",))],
    "data.prepare_s": [WALL_CATALOG],
    "data.prepare_calls": [WALL_CATALOG],
    "data.bytes_written": [WALL_CATALOG],
    "llm.complete_s": [WALL_COLD],
    "llm.calls": [WALL_COLD],
    "llm.billed_tokens": [WALL_COLD],
    "llm.cached_calls": [WALL_WARM],
    "llm.retries": [WALL_COLD],
    "core.chatvis_run_s": [WALL_COLD],
    "core.chatvis_iterations": [WALL_COLD],
    "pvsim.exec_s": [WALL_CATALOG],
    "pvsim.exec_calls": [WALL_CATALOG],
    "pvsim.exec_failures": [WALL_CATALOG],
    "engine.nodes_executed": [WALL_COLD],
    "engine.nodes_cached": [WALL_WARM],
    "engine.disk_put_s": [WALL_COLD],
    "engine.disk_puts": [WALL_COLD],
    "engine.disk_bytes_written": [WALL_COLD],
    "engine.disk_get_s": [WALL_WARM],
    "engine.disk_gets": [WALL_WARM],
    "engine.disk_bytes_read": [WALL_WARM],
    "engine.blocks.run_s": [WALL_VOLUME],
    "engine.blocks.merge_s": [WALL_VOLUME],
    "engine.blocks.blocks_executed": [WALL_VOLUME],
    "algorithms.threshold_s": [("wall_s", ("volume-ops", "verify-canonical"))],
    "algorithms.clip_s": [("wall_s", ("volume-ops", "verify-canonical"))],
    "algorithms.contour_s": [("wall_s", ("volume-ops", "verify-canonical"))],
    "algorithms.slice_s": [("wall_s", ("volume-ops", "verify-canonical"))],
    "algorithms.stream_tracer_s": [WALL_COLD],
    "algorithms.tube_s": [WALL_COLD],
    "algorithms.glyph_s": [WALL_COLD],
    "algorithms.delaunay_s": [WALL_COLD],
    "algorithms.cells_out": [("wall_s", ("catalog-cold", "volume-ops"))],
    "datamodel.fingerprint_s": [("wall_s", ("volume-ops", "catalog-cold"))],
    "datamodel.dumps_s": [WALL_COLD],
    "datamodel.loads_s": [WALL_WARM],
    "rendering.triangles_s": [WALL_RENDERED],
    "rendering.lines_s": [WALL_RENDERED],
    "rendering.points_s": [WALL_RENDERED],
    "rendering.volume_s": [WALL_RENDERED],
    "rendering.scene_s": [WALL_RENDERED],
    "rendering.frames": [WALL_RENDERED],
    "rendering.triangles_in": [WALL_RENDERED],
    "io.png_write_s": [WALL_RENDERED],
    "io.png_files": [WALL_RENDERED],
    "io.vtk_write_s": [WALL_RENDERED],
    "io.vtk_read_s": [WALL_RENDERED],
    "verify.compare_s": [WALL_VERIFY],
    "verify.goldens_s": [WALL_VERIFY, ("setup_s", ("verify-canonical",))],
    "verify.cells": [("correct_ratio", ("verify-canonical",))],
    "verify.violations": [("correct_ratio", ("verify-canonical",))],
    "verify.skipped": [("correct_ratio", ("verify-canonical",))],
    "trace.overhead_s": [("wall_s", ALL)],
}


def layer_metrics(recorder, cell_count_metrics: bool) -> Dict[str, float]:
    """Per-layer values of one traced pass from its :class:`layers.Recorder`."""
    values = {name: 0.0 for name in MOVES}
    for layer, seconds in recorder.self_s.items():
        if layer == "scenarios.cell":
            continue
        values[f"{layer}_s"] = values.get(f"{layer}_s", 0.0) + seconds
    for name, count in recorder.counts.items():
        values[name] = float(count)
    cells = recorder.cell_s
    if cells:
        unattributed = recorder.self_s.get("scenarios.cell", 0.0)
        values["scenarios.unattributed_s"] = unattributed
        values["scenarios.attributed_ratio"] = 1.0 - unattributed / sum(cells)
        if cell_count_metrics:
            # p92: the highest percentile with >= 10 of the 132 cells beyond it
            values["scenarios.cell_p50_s"] = statistics.median(cells)
            values["scenarios.cell_p92_s"] = statistics.quantiles(cells, n=100, method="inclusive")[91]
    unknown = sorted(set(values) - set(MOVES))
    if unknown:
        raise KeyError(f"layer values without a metric entry: {unknown}")
    return values
