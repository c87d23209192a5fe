"""Block-decomposed, out-of-core execution of the geometric filters.

The whole-dataset algorithms in :mod:`repro.algorithms` assume the input
fits in memory.  This module removes that cap for the four cell-local
operations (contour / slice / threshold / clip) by partitioning the input
into axis-aligned sub-extents (:class:`ImageData`) or contiguous cell-range
shards (:class:`UnstructuredGrid`), executing each block independently
through :func:`repro.engine.batch.run_batch`, and merging the per-block
results back into whole-dataset output:

* **Partitioning** honours the VTK ``i + nx*(j + ny*k)`` point convention:
  image data is sliced into slabs along the *slowest-varying* axis that has
  cells, so each slab is a contiguous range of the global cell order and
  block-order concatenation reproduces whole-dataset cell order exactly.
  Unstructured grids shard into contiguous cell ranges, with ``ghost``
  rings of neighbouring cells pulled in through shared points.
* **Ghost semantics** — every op here is cell-local, so ghost layers are
  never needed for *correctness*: they only produce duplicate geometry in
  the overlap, which the merge removes (triangle dedup for contour/slice)
  or which ownership restriction avoids entirely (threshold/clip execute
  on owned cells only).
* **Caching** — each block result lands in the shared content-addressed
  tiered cache under a ``(parent fingerprint, block extent, ghost width,
  op params)`` key, so re-runs and overlapping decompositions reuse work
  across thread *and* process executors.
* **Merging** — threshold is rebuilt *byte-exactly* over the parent point
  set (the whole-dataset filter keeps the uncompacted parent points and
  appends passing cells in global order, which the owned-cell shards
  reproduce).  Contour/slice/clip merge by offset concatenation plus a
  quantized point-coincidence weld; they are geometrically equivalent to
  the whole run but may order/tessellate points differently.

Activation is scoped and thread-local: wrap a computation in
:func:`blocked_execution` and every supported pvsim filter evaluated on
that thread routes through :func:`maybe_run_blocked`; worker threads and
processes get fresh thread-locals, so block jobs themselves never nest.
"""

from __future__ import annotations

import threading
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.datamodel import CellType, Dataset, ImageData, PolyData, UnstructuredGrid
from repro.datamodel.unstructured import CellArrays, concat_cells, take_cells, uniform_cells
from repro.engine.batch import BatchJob, run_batch
from repro.engine.cache import node_key, shared_cache
from repro.obs.metrics import METRICS
from repro.obs.trace import span as obs_span

__all__ = [
    "BlocksConfig",
    "BlockRunStats",
    "BlockSet",
    "ImageBlock",
    "GridBlock",
    "SUPPORTED_OPS",
    "blocked_execution",
    "active_config",
    "stats_snapshot",
    "partition_dataset",
    "partition_image_data",
    "partition_unstructured",
    "merge_polydata_blocks",
    "merge_unstructured_blocks",
    "merge_threshold_blocks",
    "run_blocked",
    "maybe_run_blocked",
]

#: operations with a block-decomposed execution path
SUPPORTED_OPS = ("contour", "slice", "threshold", "clip")


# --------------------------------------------------------------------------- #
# configuration and per-run statistics
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class BlocksConfig:
    """How to decompose and execute: block count, ghost width, batch runner."""

    n_blocks: int
    ghost: int = 1
    executor: str = "thread"
    max_workers: int = 2
    cache_dir: Optional[Union[str, Path]] = None


@dataclass
class BlockRunStats:
    """Counters for one :func:`blocked_execution` scope."""

    runs: int = 0
    blocks_total: int = 0
    blocks_cached: int = 0
    blocks_executed: int = 0
    cells_produced: int = 0
    by_op: Dict[str, int] = field(default_factory=dict)

    def snapshot(self) -> "BlockRunStats":
        return BlockRunStats(
            self.runs,
            self.blocks_total,
            self.blocks_cached,
            self.blocks_executed,
            self.cells_produced,
            dict(self.by_op),
        )

    def delta(self, earlier: "BlockRunStats") -> "BlockRunStats":
        by_op = {
            op: count - earlier.by_op.get(op, 0)
            for op, count in self.by_op.items()
            if count - earlier.by_op.get(op, 0)
        }
        return BlockRunStats(
            self.runs - earlier.runs,
            self.blocks_total - earlier.blocks_total,
            self.blocks_cached - earlier.blocks_cached,
            self.blocks_executed - earlier.blocks_executed,
            self.cells_produced - earlier.cells_produced,
            by_op,
        )


class _BlocksState(threading.local):
    """Thread-local activation: fresh (inactive) in every new thread."""

    config: Optional[BlocksConfig] = None
    stats: Optional[BlockRunStats] = None


BLOCKS_STATE = _BlocksState()


@contextmanager
def blocked_execution(config: BlocksConfig) -> Iterator[BlockRunStats]:
    """Route supported filters on this thread through block decomposition."""
    previous = (BLOCKS_STATE.config, BLOCKS_STATE.stats)
    BLOCKS_STATE.config = config
    BLOCKS_STATE.stats = BlockRunStats()
    try:
        yield BLOCKS_STATE.stats
    finally:
        BLOCKS_STATE.config, BLOCKS_STATE.stats = previous


def active_config() -> Optional[BlocksConfig]:
    """The :class:`BlocksConfig` active on this thread, if any."""
    return BLOCKS_STATE.config


def stats_snapshot() -> BlockRunStats:
    """A copy of this thread's live counters (zeros when blocking is off)."""
    stats = BLOCKS_STATE.stats
    return stats.snapshot() if stats is not None else BlockRunStats()


# --------------------------------------------------------------------------- #
# partitioning
# --------------------------------------------------------------------------- #
@dataclass
class ImageBlock:
    """One slab of an :class:`ImageData` along ``axis``.

    ``owned`` / ``ghosted`` are cell ranges ``[lo, hi)`` along the partition
    axis in *parent* lattice coordinates; ``data`` is the extracted ghosted
    sub-image (its origin shifted so coordinates stay in parent space).
    """

    index: int
    axis: int
    owned: Tuple[int, int]
    ghosted: Tuple[int, int]
    parent_dims: Tuple[int, int, int]
    data: ImageData


@dataclass
class GridBlock:
    """One contiguous cell-range shard of an :class:`UnstructuredGrid`.

    ``cell_ids`` lists the included global cell ids in ascending (global)
    order; ``owned_mask`` marks which of them belong to this shard's owned
    range (the rest are ghosts); ``point_ids`` maps local point id → global
    point id.
    """

    index: int
    owned: Tuple[int, int]
    cell_ids: np.ndarray
    owned_mask: np.ndarray
    point_ids: np.ndarray
    data: UnstructuredGrid


@dataclass
class BlockSet:
    """A complete decomposition of one dataset."""

    kind: str  # "image" | "grid"
    ghost: int
    parent_fingerprint: str
    blocks: List[Any]
    axis: Optional[int] = None

    def __len__(self) -> int:
        return len(self.blocks)


def _extract_sub_image(image: ImageData, axis: int, lo: int, hi: int) -> ImageData:
    """Extract the cell slab ``[lo, hi)`` along ``axis`` as its own ImageData.

    Point slab is ``[lo, hi]`` inclusive; the origin shifts by ``lo`` spacings
    so sub-image coordinates land in parent space (up to last-ulp rounding,
    which is why the merge welds by quantized coincidence, not bytes).
    """
    nx, ny, nz = image.dimensions
    dims = [nx, ny, nz]
    dims[axis] = (hi - lo) + 1
    origin = list(image.origin)
    origin[axis] = origin[axis] + image.spacing[axis] * lo
    sub = ImageData(tuple(dims), origin=tuple(origin), spacing=image.spacing)
    # point arrays live on the (nz, ny, nx) lattice: x fastest in the flat
    # order, so lattice axis `axis` is reshape axis `2 - axis`
    slices: List[slice] = [slice(None), slice(None), slice(None)]
    slices[2 - axis] = slice(lo, hi + 1)  # points lo..hi inclusive
    for name in image.point_data.names():
        values = image.point_data[name].values
        grid = values.reshape(nz, ny, nx, values.shape[1])
        sub.add_point_array(name, grid[tuple(slices)].reshape(-1, values.shape[1]).copy())
    return sub


def _global_point_ids(
    parent_dims: Sequence[int], axis: int, lo: int, hi: int
) -> np.ndarray:
    """Local point id → global point id for the ``[lo, hi]`` point slab."""
    nx, ny, nz = parent_dims
    ldims = [nx, ny, nz]
    ldims[axis] = (hi - lo) + 1
    axes = [np.arange(n, dtype=np.int64) for n in ldims]
    axes[axis] = axes[axis] + lo
    kk, jj, ii = np.meshgrid(axes[2], axes[1], axes[0], indexing="ij")
    return (ii + nx * (jj + ny * kk)).ravel()


def partition_image_data(
    image: ImageData, n_blocks: int, ghost: int = 1
) -> Optional[BlockSet]:
    """Slab-decompose an image along its slowest-varying axis with cells.

    Returns ``None`` when the decomposition degenerates (fewer than two
    cells along every axis, or ``n_blocks < 2``): callers fall back to
    whole-dataset execution.  Partitioning along the *last* axis with cells
    keeps every slab a contiguous range of the global ``i + cx*(j + cy*k)``
    cell order, which is what makes the threshold merge byte-exact.
    """
    cdims = image.cell_dimensions
    axis = next((a for a in (2, 1, 0) if cdims[a] > 0), None)
    if axis is None:
        return None
    cells = cdims[axis]
    n = min(int(n_blocks), cells)
    if n < 2:
        return None
    ghost = max(int(ghost), 0)
    blocks: List[ImageBlock] = []
    for b in range(n):
        c0 = b * cells // n
        c1 = (b + 1) * cells // n
        g0 = max(c0 - ghost, 0)
        g1 = min(c1 + ghost, cells)
        blocks.append(
            ImageBlock(
                index=b,
                axis=axis,
                owned=(c0, c1),
                ghosted=(g0, g1),
                parent_dims=image.dimensions,
                data=_extract_sub_image(image, axis, g0, g1),
            )
        )
    return BlockSet(
        kind="image",
        ghost=ghost,
        parent_fingerprint=image.content_fingerprint(),
        blocks=blocks,
        axis=axis,
    )


def partition_unstructured(
    grid: UnstructuredGrid, n_blocks: int, ghost: int = 1
) -> Optional[BlockSet]:
    """Shard a grid into contiguous cell ranges with point-adjacency ghosts."""
    n_cells = grid.n_cells
    n = min(int(n_blocks), n_cells)
    if n < 2:
        return None
    ghost = max(int(ghost), 0)
    cell_list = list(grid.cells())
    point_cells: Dict[int, List[int]] = defaultdict(list)
    for cid, (_ctype, conn) in enumerate(cell_list):
        for p in conn:
            point_cells[int(p)].append(cid)
    points = grid.get_points()

    blocks: List[GridBlock] = []
    for b in range(n):
        c0 = b * n_cells // n
        c1 = (b + 1) * n_cells // n
        included = set(range(c0, c1))
        frontier = included
        for _ in range(ghost):
            boundary = {int(p) for cid in frontier for p in cell_list[cid][1]}
            neighbours = {cid for p in boundary for cid in point_cells[p]} - included
            if not neighbours:
                break
            included |= neighbours
            frontier = neighbours
        cell_ids = np.asarray(sorted(included), dtype=np.int64)
        owned_mask = (cell_ids >= c0) & (cell_ids < c1)
        pid_list = sorted({int(p) for cid in cell_ids for p in cell_list[cid][1]})
        point_ids = np.asarray(pid_list, dtype=np.int64)
        local_of = {g: l for l, g in enumerate(pid_list)}
        data = UnstructuredGrid(points[point_ids].copy() if len(point_ids) else None)
        for name in grid.point_data.names():
            data.add_point_array(name, grid.point_data[name].values[point_ids].copy())
        for cid in cell_ids:
            ctype, conn = cell_list[int(cid)]
            data.add_cell(ctype, tuple(local_of[int(p)] for p in conn))
        blocks.append(
            GridBlock(
                index=b,
                owned=(c0, c1),
                cell_ids=cell_ids,
                owned_mask=owned_mask,
                point_ids=point_ids,
                data=data,
            )
        )
    return BlockSet(
        kind="grid",
        ghost=ghost,
        parent_fingerprint=grid.content_fingerprint(),
        blocks=blocks,
    )


def partition_dataset(
    dataset: Dataset, n_blocks: int, ghost: int = 1
) -> Optional[BlockSet]:
    """Partition any supported dataset; ``None`` when not decomposable."""
    if isinstance(dataset, ImageData):
        return partition_image_data(dataset, n_blocks, ghost)
    if isinstance(dataset, UnstructuredGrid):
        return partition_unstructured(dataset, n_blocks, ghost)
    return None


# --------------------------------------------------------------------------- #
# the point-coincidence weld
# --------------------------------------------------------------------------- #
def _weld_tolerance(dataset: Dataset) -> float:
    """A coincidence quantum far below feature size but above ulp noise."""
    spacing = getattr(dataset, "spacing", None)
    if spacing is not None:
        return float(min(spacing)) * 1e-6
    points = dataset.get_points()
    finite = points[np.isfinite(points).all(axis=1)] if len(points) else points
    if len(finite) == 0:
        return 1e-9
    diagonal = float(np.linalg.norm(finite.max(axis=0) - finite.min(axis=0)))
    return max(diagonal, 1.0) * 1e-9


def _weld_points(points: np.ndarray, tol: float) -> Tuple[np.ndarray, np.ndarray]:
    """First-occurrence weld of coincident rows.

    Returns ``(rep_rows, new_of_old)``: the original row index of each output
    point (in first-occurrence order) and the output id of every input row.
    Rows with non-finite coordinates get unique sentinel keys so NaN
    geometry is carried through unwelded instead of crashing an int cast.
    """
    n = len(points)
    if n == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    finite = np.isfinite(points).all(axis=1)
    keys = np.zeros((n, 4), dtype=np.int64)
    keys[:, :3] = np.round(np.where(np.isfinite(points), points, 0.0) / tol).astype(
        np.int64
    )
    keys[~finite, 3] = np.flatnonzero(~finite) + 1
    _uniq, first, inverse = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    inverse = np.asarray(inverse).reshape(-1)
    order = np.argsort(first, kind="stable")
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order), dtype=np.int64)
    return first[order], rank[inverse]


def _common_array_names(pieces: Sequence[Dataset]) -> List[str]:
    names = set(pieces[0].point_data.names())
    for piece in pieces[1:]:
        names &= set(piece.point_data.names())
    return [name for name in pieces[0].point_data.names() if name in names]


def merge_polydata_blocks(pieces: Sequence[PolyData], tol: float) -> PolyData:
    """Concatenate PolyData blocks, weld coincident points, drop ghost dups.

    Duplicate triangles/verts/lines — the same geometry emitted by two
    blocks whose ghost regions overlap — are identified by their welded,
    order-normalized connectivity and kept once, at first occurrence.
    """
    pieces = [p for p in pieces if p.n_points > 0]
    if not pieces:
        return PolyData()
    names = _common_array_names(pieces)
    points = np.vstack([p.points for p in pieces])
    offsets = np.cumsum([0] + [p.n_points for p in pieces])[:-1]
    rep_rows, new_of_old = _weld_points(points, tol)

    tri_parts = [p.triangles + off for p, off in zip(pieces, offsets) if p.n_triangles]
    tris = new_of_old[np.vstack(tri_parts)] if tri_parts else np.zeros((0, 3), np.int64)
    if len(tris):
        # welding can collapse boundary slivers (the surface grazing a block
        # seam) onto repeated vertices — drop those zero-area artifacts
        distinct = (
            (tris[:, 0] != tris[:, 1])
            & (tris[:, 1] != tris[:, 2])
            & (tris[:, 0] != tris[:, 2])
        )
        tris = tris[distinct]
    if len(tris):
        _u, first = np.unique(np.sort(tris, axis=1), axis=0, return_index=True)
        tris = tris[np.sort(first)]

    vert_parts = [p.verts + off for p, off in zip(pieces, offsets) if p.n_verts]
    verts = new_of_old[np.concatenate(vert_parts)] if vert_parts else np.zeros(0, np.int64)
    if len(verts):
        _u, first = np.unique(verts, return_index=True)
        verts = verts[np.sort(first)]

    lines: List[np.ndarray] = []
    seen_lines = set()
    for piece, off in zip(pieces, offsets):
        for line in piece.lines:
            mapped = new_of_old[line + off]
            key = tuple(mapped.tolist())
            canonical = min(key, key[::-1])
            if canonical in seen_lines:
                continue
            seen_lines.add(canonical)
            lines.append(mapped)

    out = PolyData(points[rep_rows], tris, lines, verts)
    for name in names:
        stacked = np.vstack([p.point_data[name].values for p in pieces])
        out.add_point_array(name, stacked[rep_rows])
    return out


def merge_unstructured_blocks(
    pieces: Sequence[UnstructuredGrid], tol: float
) -> UnstructuredGrid:
    """Concatenate UnstructuredGrid blocks and weld coincident points.

    Cell dedup happens by ghost *ownership*: block jobs for whole-cell ops
    execute on owned cells only, so no cell is ever produced twice and the
    merge only has to weld the shared boundary-face points.
    """
    pieces = [p for p in pieces if p.n_points > 0]
    if not pieces:
        return UnstructuredGrid()
    names = _common_array_names(pieces)
    points = np.vstack([p.get_points() for p in pieces])
    offsets = np.cumsum([0] + [p.n_points for p in pieces])[:-1]
    rep_rows, new_of_old = _weld_points(points, tol)
    out = UnstructuredGrid(points[rep_rows])
    for name in names:
        stacked = np.vstack([p.point_data[name].values for p in pieces])
        out.add_point_array(name, stacked[rep_rows])
    out.add_cell_arrays(
        *concat_cells(
            cells._replace(connectivity=new_of_old[off + cells.connectivity])
            for cells, off in zip((p.cell_arrays() for p in pieces), offsets)
        )
    )
    return out


def merge_threshold_blocks(parent: Dataset, block_cells: Sequence[CellArrays]) -> UnstructuredGrid:
    """Rebuild the whole-dataset threshold output from per-block cells.

    Mirrors :func:`repro.algorithms.threshold.threshold` exactly: the parent
    point set (uncompacted) plus every point array, with the passing cells —
    already remapped to global connectivity by the block jobs — appended in
    global cell order (blocks are contiguous, ordered ranges of it).
    """
    out = UnstructuredGrid(parent.get_points().copy())
    for name in parent.point_data.names():
        out.add_point_array(name, parent.point_data[name].values.copy())
    out.add_cell_arrays(*concat_cells(block_cells))
    return out


# --------------------------------------------------------------------------- #
# per-block execution (module-level: crosses the process-pool pickle boundary)
# --------------------------------------------------------------------------- #
def _owned_only_grid(block: GridBlock) -> UnstructuredGrid:
    """This shard's owned cells as a standalone grid (ghosts stripped)."""
    data = block.data
    owned = UnstructuredGrid(data.get_points().copy())
    for name in data.point_data.names():
        owned.add_point_array(name, data.point_data[name].values.copy())
    owned.add_cell_arrays(*take_cells(data.cell_arrays(), np.flatnonzero(block.owned_mask)))
    return owned


def _owned_only_image(block: ImageBlock) -> ImageData:
    """This slab's owned cell range as a standalone sub-image."""
    g0, _g1 = block.ghosted
    c0, c1 = block.owned
    return _extract_sub_image(block.data, block.axis, c0 - g0, c1 - g0)


def _image_threshold_cells(block: ImageBlock, params: Dict[str, Any]) -> CellArrays:
    """Threshold the ghosted slab, keep owned tets, remap to global ids.

    The Freudenthal 6-tet split is translation-invariant per cell, so the
    slab's tets for a given cell are the (locally-numbered) image of the
    whole dataset's — restricting to cells whose base lattice index along
    the partition axis falls in the owned range reproduces the global
    enumeration exactly.
    """
    from repro.algorithms import threshold as threshold_filter

    out = threshold_filter(
        block.data,
        array_name=params.get("array_name"),
        lower=params["lower"],
        upper=params["upper"],
        all_points=params["all_points"],
    )
    conns = out.cell_arrays().connectivity.reshape(-1, 4)
    g0, g1 = block.ghosted
    c0, c1 = block.owned
    lnx, lny, _lnz = block.data.dimensions
    lattice = (conns % lnx, (conns // lnx) % lny, conns // (lnx * lny))[block.axis]
    base = lattice.min(axis=1) + g0
    kept = conns[(base >= c0) & (base < c1)]
    gmap = _global_point_ids(block.parent_dims, block.axis, g0, g1)
    return uniform_cells(CellType.TETRA, gmap[kept])


def _grid_threshold_cells(block: GridBlock, params: Dict[str, Any]) -> CellArrays:
    """Threshold the owned cells of one shard, remapped to global point ids."""
    from repro.algorithms import threshold as threshold_filter

    out = threshold_filter(
        _owned_only_grid(block),
        array_name=params.get("array_name"),
        lower=params["lower"],
        upper=params["upper"],
        all_points=params["all_points"],
    )
    cells = out.cell_arrays()
    return cells._replace(connectivity=block.point_ids[cells.connectivity])


def _execute_block_op(op: str, kind: str, block: Any, params: Dict[str, Any]) -> Any:
    from repro.algorithms import clip_dataset, contour as contour_filter, slice_dataset

    if op == "contour":
        # normals are attached post-merge over the welded surface; per-block
        # normals would be wrong along block seams anyway
        return contour_filter(
            block.data,
            params["isovalues"],
            array_name=params.get("array_name"),
            compute_normals=False,
        )
    if op == "slice":
        return slice_dataset(block.data, origin=params["origin"], normal=params["normal"])
    if op == "threshold":
        if kind == "image":
            return _image_threshold_cells(block, params)
        return _grid_threshold_cells(block, params)
    if op == "clip":
        owned = _owned_only_image(block) if kind == "image" else _owned_only_grid(block)
        return clip_dataset(
            owned,
            origin=params["origin"],
            normal=params["normal"],
            keep_negative=params["keep_negative"],
        )
    raise ValueError(f"unsupported blocked op {op!r}")


def _block_job(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Execute one block op, consulting the shared tiered cache first."""
    op = payload["op"]
    key = payload["cache_key"]
    cache = shared_cache()
    found, value = cache.get(key)
    if found:
        METRICS.incr("blocks.job.cache_hits", op=op)
        return {"cached": True, "value": value, "n_cells": int(value.n_cells)}
    METRICS.incr("blocks.job.cache_misses", op=op)
    value = _execute_block_op(op, payload["kind"], payload["block"], payload["params"])
    cache.put(key, value)
    return {"cached": False, "value": value, "n_cells": int(value.n_cells)}


# --------------------------------------------------------------------------- #
# the driver
# --------------------------------------------------------------------------- #
def _block_extent(kind: str, block: Any) -> Dict[str, Any]:
    if kind == "image":
        return {
            "axis": block.axis,
            "owned": list(block.owned),
            "ghosted": list(block.ghosted),
            "parent_dims": list(block.parent_dims),
        }
    return {"owned": list(block.owned), "n_cells": int(len(block.cell_ids))}


def _merge(
    op: str,
    parent: Dataset,
    blockset: BlockSet,
    values: List[Any],
    params: Dict[str, Any],
) -> Dataset:
    if op in ("contour", "slice"):
        merged = merge_polydata_blocks(values, _weld_tolerance(parent))
        if op == "contour" and params.get("compute_normals") and merged.n_triangles:
            merged.point_data.add_array("Normals", merged.point_normals())
        return merged
    if op == "threshold":
        return merge_threshold_blocks(parent, values)
    if op == "clip":
        return merge_unstructured_blocks(values, _weld_tolerance(parent))
    raise ValueError(f"unsupported blocked op {op!r}")


def run_blocked(
    op: str,
    dataset: Dataset,
    params: Dict[str, Any],
    config: BlocksConfig,
    stats: Optional[BlockRunStats] = None,
) -> Optional[Dataset]:
    """Partition, execute per block through the batch runner, and merge.

    Returns ``None`` when the dataset does not decompose (unsupported type
    or a degenerate partition) so callers fall back to whole execution.
    Per-block failures re-raise the original exception — blocked execution
    fails the same way whole execution would.
    """
    blockset = partition_dataset(dataset, config.n_blocks, config.ghost)
    if blockset is None:
        return None
    payloads = []
    for block in blockset.blocks:
        key = node_key(
            f"blocks.{op}",
            {
                "parent": blockset.parent_fingerprint,
                "kind": blockset.kind,
                "extent": _block_extent(blockset.kind, block),
                "ghost": blockset.ghost,
                "params": params,
            },
        )
        payloads.append(
            {
                "op": op,
                "kind": blockset.kind,
                "params": params,
                "block": block,
                "cache_key": key,
            }
        )
    with obs_span(
        f"blocks/{op}",
        "blocks.run",
        op=op,
        kind=blockset.kind,
        n_blocks=len(payloads),
        ghost=blockset.ghost,
        executor=config.executor,
    ):
        jobs = [
            BatchJob(name=f"blocks/{op}/{i}", fn=_block_job, args=(payload,))
            for i, payload in enumerate(payloads)
        ]
        results = run_batch(
            jobs,
            max_workers=config.max_workers,
            executor=config.executor,
            cache_dir=config.cache_dir,
        )
        for result in results:
            if result.error is not None:
                raise result.error
        outs = [result.value for result in results]
        # zero-length marker spans: per-block node counts land in the trace
        # even for cache-served blocks, mirroring the engine's cached-node idiom
        for i, out in enumerate(outs):
            with obs_span(
                f"blocks/{op}/{i}",
                "blocks.block",
                op=op,
                index=i,
                cached=bool(out["cached"]),
                n_cells=int(out["n_cells"]),
            ):
                pass
        merged = _merge(op, dataset, blockset, [out["value"] for out in outs], params)

    cached = sum(1 for out in outs if out["cached"])
    executed = len(outs) - cached
    produced = sum(int(out["n_cells"]) for out in outs)
    METRICS.incr("blocks.runs", op=op)
    if executed:
        METRICS.incr("blocks.executed", executed, op=op)
    if cached:
        METRICS.incr("blocks.cached", cached, op=op)
    if stats is not None:
        stats.runs += 1
        stats.blocks_total += len(outs)
        stats.blocks_cached += cached
        stats.blocks_executed += executed
        stats.cells_produced += produced
        stats.by_op[op] = stats.by_op.get(op, 0) + len(outs)
    return merged


def maybe_run_blocked(
    op: str, dataset: Dataset, params: Dict[str, Any]
) -> Optional[Dataset]:
    """Blocked execution when a :func:`blocked_execution` scope is active.

    ``None`` means "no blocking applies here" — wrong op, unsupported
    dataset type, inactive scope, or a degenerate partition — and the caller
    must run the whole-dataset path.
    """
    config = BLOCKS_STATE.config
    if config is None or op not in SUPPORTED_OPS:
        return None
    if not isinstance(dataset, (ImageData, UnstructuredGrid)):
        return None
    return run_blocked(op, dataset, params, config, stats=BLOCKS_STATE.stats)
