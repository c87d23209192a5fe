"""Per-layer timing from outside the program: wrappers around ``repro`` calls.

Only the traced pass imports this module.  :func:`install` replaces every
binding of each target — the defining module's attribute *and* every
``from``-import copy held by another loaded ``repro`` module — with a timing
wrapper; :func:`uninstall` puts the originals back.  A layer's ``_s`` metric
is self time: wrapped duration minus the time of wrapped calls nested in it.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: marks a wrapper so a test (or a timed pass) can tell it from the original
WRAPPED_MARK = "__e2ebench_layer__"

#: modules that hold ``from``-import copies of targets; imported before
#: patching so no copy made later survives :func:`uninstall` as a wrapper
PRELOAD = (
    "repro.algorithms",
    "repro.core.assistant",
    "repro.data.marschner_lobb",
    "repro.eval.harness",
    "repro.llm.core.review",
    "repro.pvsim.filters",
    "repro.pvsim.sources",
    "repro.pvsim.views",
    "repro.rendering.framebuffer",
    "repro.scenarios.suite",
    "repro.verify.relations",
    "repro.verify.runner",
)

#: the cell boundaries: their self time is time no wrapper accounts for
CELL_LAYER = "scenarios.cell"

Counter = Callable[["Recorder", Any, tuple, dict], None]


def _count(name: str) -> Counter:
    def counter(rec: "Recorder", _result: Any, _args: tuple, _kwargs: dict) -> None:
        rec.counts[name] += 1

    return counter


def _bytes_of_files(rec: "Recorder", result: Any, _args: tuple, _kwargs: dict) -> None:
    rec.counts["data.prepare_calls"] += 1
    for path in result or ():
        try:
            rec.counts["data.bytes_written"] += os.path.getsize(path)
        except OSError:
            pass


def _exec_result(rec: "Recorder", result: Any, _args: tuple, _kwargs: dict) -> None:
    rec.counts["pvsim.exec_calls"] += 1
    if not getattr(result, "success", False):
        rec.counts["pvsim.exec_failures"] += 1


def _chatvis_result(rec: "Recorder", result: Any, _args: tuple, _kwargs: dict) -> None:
    rec.counts["core.chatvis_iterations"] += int(getattr(result, "n_iterations", 0))


def _cells_out(rec: "Recorder", result: Any, _args: tuple, _kwargs: dict) -> None:
    n_cells = getattr(result, "n_cells", None)
    rec.counts["algorithms.cells_out"] += int(n_cells) if n_cells is not None else len(result)


def _triangles_in(rec: "Recorder", _result: Any, args: tuple, kwargs: dict) -> None:
    triangles = args[2] if len(args) > 2 else kwargs.get("triangles")
    rec.counts["rendering.triangles_in"] += len(triangles)


def _payload_written(rec: "Recorder", result: Any, _args: tuple, _kwargs: dict) -> None:
    rec.counts["engine.disk_bytes_written"] += len(result)


def _payload_read(rec: "Recorder", _result: Any, args: tuple, kwargs: dict) -> None:
    data = args[0] if args else kwargs.get("data", b"")
    rec.counts["engine.disk_bytes_read"] += len(data)


def _block_job(rec: "Recorder", result: Any, _args: tuple, _kwargs: dict) -> None:
    if not result.get("cached"):
        rec.counts["engine.blocks.blocks_executed"] += 1


#: (module, attribute or Class.method, layer, counter).  A function target
#: is patched at every loaded ``repro`` binding of the same object.
TARGETS: List[Tuple[str, str, str, Optional[Counter]]] = [
    ("repro.scenarios.suite", "run_suite_cell", CELL_LAYER, None),
    ("repro.verify.runner", "run_verify_cell", CELL_LAYER, None),
    ("repro.scenarios.suite", "SuiteStore.append", "scenarios.store_append", None),
    ("repro.core.tasks", "prepare_task_data", "data.prepare", _bytes_of_files),
    ("repro.llm.core.dispatch", "ManagedLLM.complete", "llm.complete", None),
    ("repro.core.assistant", "ChatVis.run", "core.chatvis_run", _chatvis_result),
    ("repro.pvsim.executor", "PvPythonExecutor.run", "pvsim.exec", _exec_result),
    ("repro.engine.cache", "DiskCache.put", "engine.disk_put", _count("engine.disk_puts")),
    ("repro.engine.cache", "DiskCache.get", "engine.disk_get", _count("engine.disk_gets")),
    ("repro.engine.blocks", "run_blocked", "engine.blocks.run", None),
    ("repro.engine.blocks", "_block_job", "engine.blocks.run", _block_job),
    ("repro.engine.blocks", "_merge", "engine.blocks.merge", None),
    ("repro.engine.blocks", "_image_threshold_cells", "algorithms.threshold", _cells_out),
    ("repro.engine.blocks", "_grid_threshold_cells", "algorithms.threshold", _cells_out),
    ("repro.algorithms.threshold", "threshold", "algorithms.threshold", _cells_out),
    ("repro.algorithms.clip", "clip_dataset", "algorithms.clip", _cells_out),
    ("repro.algorithms.contour", "contour", "algorithms.contour", _cells_out),
    ("repro.algorithms.slice_", "slice_dataset", "algorithms.slice", _cells_out),
    ("repro.algorithms.stream_tracer", "stream_tracer", "algorithms.stream_tracer", _cells_out),
    ("repro.algorithms.tube", "tube", "algorithms.tube", _cells_out),
    ("repro.algorithms.glyph", "glyph", "algorithms.glyph", _cells_out),
    ("repro.algorithms.delaunay3d", "delaunay_3d", "algorithms.delaunay", _cells_out),
    ("repro.datamodel.dataset", "Dataset.content_fingerprint", "datamodel.fingerprint", None),
    ("repro.datamodel.serialization", "dumps_payload", "datamodel.dumps", _payload_written),
    ("repro.datamodel.serialization", "loads_payload", "datamodel.loads", _payload_read),
    ("repro.rendering.rasterizer", "rasterize_triangles", "rendering.triangles", _triangles_in),
    ("repro.rendering.rasterizer", "rasterize_lines", "rendering.lines", None),
    ("repro.rendering.rasterizer", "rasterize_points", "rendering.points", None),
    ("repro.rendering.volume_render", "volume_render", "rendering.volume", None),
    ("repro.rendering.scene", "render_scene", "rendering.scene", _count("rendering.frames")),
    ("repro.io.png", "write_png", "io.png_write", _count("io.png_files")),
    ("repro.io.vtk_legacy", "write_vtk", "io.vtk_write", None),
    ("repro.io.vtk_legacy", "read_vtk", "io.vtk_read", None),
    ("repro.verify.comparators", "compare_images", "verify.compare", None),
    ("repro.verify.comparators", "images_identical", "verify.compare", None),
    ("repro.verify.comparators", "datasets_close", "verify.compare", None),
    ("repro.verify.comparators", "dataset_stats_close", "verify.compare", None),
    ("repro.verify.comparators", "point_sets_close", "verify.compare", None),
    ("repro.verify.goldens", "GoldenStore.update", "verify.goldens", None),
    ("repro.verify.goldens", "GoldenStore.lookup", "verify.goldens", None),
    ("repro.verify.goldens", "GoldenStore.compare", "verify.goldens", None),
    ("repro.verify.goldens", "GoldenStore.load_image", "verify.goldens", None),
    ("repro.verify.goldens", "GoldenStore.load_script", "verify.goldens", None),
]


class Recorder:
    """Self time per layer, call counts, and per-cell totals (thread-aware)."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        self.cell_s: List[float] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[List[float]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn: Callable, layer: str, counter: Optional[Counter]) -> Callable:
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = self._stack()
            frame = [0.0]  # time of wrapped calls nested in this one
            stack.append(frame)
            started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                with self._lock:
                    self.self_s[layer] += elapsed - frame[0]
                    if layer == CELL_LAYER:
                        self.cell_s.append(elapsed)
            if counter is not None:
                with self._lock:
                    counter(self, result, args, kwargs)
            return result

        functools.update_wrapper(wrapper, fn)
        setattr(wrapper, WRAPPED_MARK, layer)
        return wrapper


#: (owner, attribute, original) of every patched binding
_Patch = Tuple[Any, str, Any]


def _loaded_repro_modules() -> List[Any]:
    return [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "repro" and m is not None]


def install(recorder: Recorder, targets=TARGETS) -> List[_Patch]:
    """Wrap every binding of every target; returns what :func:`uninstall` needs."""
    patches: List[_Patch] = []
    for name in PRELOAD:
        importlib.import_module(name)
    modules = _loaded_repro_modules()
    for module_name, attr, layer, counter in targets:
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, method = attr.split(".")
            owner = getattr(module, cls_name)
            original = owner.__dict__[method]
            patches.append((owner, method, original))
            setattr(owner, method, recorder.wrap(original, layer, counter))
            continue
        original = getattr(module, attr)
        wrapper = recorder.wrap(original, layer, counter)
        for holder in modules + [module]:
            for name, value in list(vars(holder).items()):
                if value is original:
                    patches.append((holder, name, original))
                    setattr(holder, name, wrapper)
    return patches


def uninstall(patches: List[_Patch]) -> None:
    """Restore every binding :func:`install` replaced, newest first."""
    for owner, name, original in reversed(patches):
        setattr(owner, name, original)


def wrapped_bindings() -> List[str]:
    """Every loaded ``repro`` binding that is currently a layer wrapper."""
    found = []
    for module in _loaded_repro_modules():
        for name, value in list(vars(module).items()):
            if getattr(value, WRAPPED_MARK, None) is not None:
                found.append(f"{module.__name__}.{name}")
            elif isinstance(value, type):
                for attr, member in list(vars(value).items()):
                    if getattr(member, WRAPPED_MARK, None) is not None:
                        found.append(f"{module.__name__}.{name}.{attr}")
    return sorted(set(found))
