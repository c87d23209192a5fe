"""Clipping by a plane (or any implicit function).

Clipping keeps the part of a dataset on one side of the cutting surface,
splitting the cells the surface passes through.  Two entry points are
provided:

* :func:`clip_polydata` — clips triangles, polylines and vertices of a
  :class:`PolyData`, producing a new PolyData.
* :func:`clip_unstructured` — clips an :class:`UnstructuredGrid` (3-d cells
  through their tetrahedra, quads as two triangles), producing a new
  UnstructuredGrid of tetrahedra plus the surviving lower-dimensional cells.

By default the *negative* side of the implicit function is kept
(``keep_negative=True``), matching ParaView's plane clip with the ``Invert``
property enabled, which is its default; the paper's Delaunay pipeline keeps
the ``-x`` half with a +x plane normal, i.e. exactly this convention.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro.algorithms.implicit import ImplicitFunction, Plane
from repro.datamodel import CellType, Dataset, ImageData, PolyData, UnstructuredGrid
from repro.datamodel.cells import TETRA_SPLITS, TRIANGLE_SPLITS
from repro.datamodel.unstructured import (
    CellArrays,
    cells_passing,
    concat_cells,
    offsets_of,
    split_cells,
    split_counts,
    take_cells,
    uniform_cells,
)

__all__ = ["clip_polydata", "clip_unstructured", "clip_dataset"]


class _PointPool:
    """Accumulates output points: originals (lazily) plus edge intersections."""

    def __init__(self, dataset: Dataset, g: np.ndarray) -> None:
        self._points = dataset.get_points()
        self._g = g
        self._dataset = dataset
        self._original_map: Dict[int, int] = {}
        self._edge_map: Dict[Tuple[int, int], int] = {}
        self.coords: List[np.ndarray] = []
        # parallel records for data interpolation: (a, b, t); originals use t=0, b=a
        self._interp_a: List[int] = []
        self._interp_b: List[int] = []
        self._interp_t: List[float] = []

    def original(self, pid: int) -> int:
        new_id = self._original_map.get(pid)
        if new_id is None:
            new_id = len(self.coords)
            self._original_map[pid] = new_id
            self.coords.append(self._points[pid])
            self._interp_a.append(pid)
            self._interp_b.append(pid)
            self._interp_t.append(0.0)
        return new_id

    def edge(self, a: int, b: int) -> int:
        key = (a, b) if a < b else (b, a)
        new_id = self._edge_map.get(key)
        if new_id is None:
            ga, gb = self._g[key[0]], self._g[key[1]]
            denom = ga - gb
            t = 0.5 if denom == 0.0 else float(np.clip(ga / denom, 0.0, 1.0))
            coord = self._points[key[0]] + t * (self._points[key[1]] - self._points[key[0]])
            new_id = len(self.coords)
            self._edge_map[key] = new_id
            self.coords.append(coord)
            self._interp_a.append(key[0])
            self._interp_b.append(key[1])
            self._interp_t.append(t)
        return new_id

    def build_points(self) -> np.ndarray:
        if not self.coords:
            return np.zeros((0, 3), dtype=np.float64)
        return np.vstack(self.coords)

    def attach_point_data(self, target: Dataset) -> None:
        if not len(self._dataset.point_data) or not self.coords:
            return
        a = np.asarray(self._interp_a, dtype=np.int64)
        b = np.asarray(self._interp_b, dtype=np.int64)
        t = np.asarray(self._interp_t, dtype=np.float64)
        interped = self._dataset.point_data.interpolate(a, b, t)
        for name in interped.names():
            target.add_point_array(name, interped[name].values)


def _evaluate(function: Union[ImplicitFunction, Sequence[float], None],
              origin: Sequence[float],
              normal: Sequence[float],
              points: np.ndarray) -> np.ndarray:
    if isinstance(function, ImplicitFunction):
        return function.evaluate(points)
    plane = Plane(origin=tuple(float(v) for v in origin), normal=tuple(float(v) for v in normal))
    return plane.evaluate(points)


# --------------------------------------------------------------------------- #
# PolyData clipping
# --------------------------------------------------------------------------- #
def clip_polydata(
    poly: PolyData,
    origin: Sequence[float] = (0.0, 0.0, 0.0),
    normal: Sequence[float] = (1.0, 0.0, 0.0),
    keep_negative: bool = True,
    function: Optional[ImplicitFunction] = None,
) -> PolyData:
    """Clip a PolyData, keeping one side of a plane (or implicit function)."""
    g = _evaluate(function, origin, normal, poly.points)
    if not keep_negative:
        g = -g
    keep = g <= 0.0

    pool = _PointPool(poly, g)
    out_triangles: List[Tuple[int, int, int]] = []
    out_lines: List[List[int]] = []
    out_verts: List[int] = []

    # triangles
    for tri in poly.triangles:
        ids = [int(tri[0]), int(tri[1]), int(tri[2])]
        inside = [keep[i] for i in ids]
        n_in = sum(inside)
        if n_in == 0:
            continue
        if n_in == 3:
            out_triangles.append(tuple(pool.original(i) for i in ids))
        elif n_in == 1:
            k = ids[inside.index(True)]
            o = [i for i, flag in zip(ids, inside) if not flag]
            e0 = pool.edge(k, o[0])
            e1 = pool.edge(k, o[1])
            out_triangles.append((pool.original(k), e0, e1))
        else:  # n_in == 2
            o = ids[inside.index(False)]
            kept = [i for i, flag in zip(ids, inside) if flag]
            k0, k1 = kept
            e0 = pool.edge(k0, o)
            e1 = pool.edge(k1, o)
            a0, a1 = pool.original(k0), pool.original(k1)
            out_triangles.append((a0, a1, e1))
            out_triangles.append((a0, e1, e0))

    # polylines: keep inside runs, adding crossing points at the boundary
    for line in poly.lines:
        current: List[int] = []
        for idx in range(len(line)):
            pid = int(line[idx])
            if keep[pid]:
                if not current and idx > 0 and not keep[int(line[idx - 1])]:
                    current.append(pool.edge(int(line[idx - 1]), pid))
                current.append(pool.original(pid))
            else:
                if current:
                    current.append(pool.edge(int(line[idx - 1]), pid))
                    if len(current) >= 2:
                        out_lines.append(current)
                    current = []
        if len(current) >= 2:
            out_lines.append(current)

    # vertices
    for vid in poly.verts:
        if keep[int(vid)]:
            out_verts.append(pool.original(int(vid)))

    result = PolyData(
        points=pool.build_points(),
        triangles=np.asarray(out_triangles, dtype=np.int64).reshape(-1, 3),
        lines=out_lines,
        verts=np.asarray(out_verts, dtype=np.int64),
    )
    pool.attach_point_data(result)
    return result


# --------------------------------------------------------------------------- #
# UnstructuredGrid clipping
# --------------------------------------------------------------------------- #
# Every simplex (tet, triangle, vertex) is clipped by a case table indexed by
# the bitmask of its kept corners.  A case lists the *pool calls* the
# clipper makes, in order: ``(a, b)`` local corners, an original point when
# ``a == b`` and otherwise the crossing on edge ``(kept a, dropped b)``;
# then the output simplices as indices into that call list.  Output point
# ids are handed out in first-call order over (cell, piece, call), as a
# point pool filled cell by cell would.
def _tet_case(kept: List[int], out: List[int]):
    if len(kept) == 4:
        return [(k, k) for k in kept], [(0, 1, 2, 3)]
    if len(kept) == 1:
        k0 = kept[0]
        return [(k0, o) for o in out] + [(k0, k0)], [(3, 0, 1, 2)]
    if len(kept) == 3:
        o = out[0]
        calls = [(k, o) for k in kept] + [(k, k) for k in kept]
        return calls, [(3, 4, 5, 0), (4, 5, 0, 1), (5, 0, 1, 2)]
    # two kept: the kept region is a wedge with triangular faces
    # (k0, e00, e01) and (k1, e10, e11)
    (k0, k1), (o0, o1) = kept, out
    calls = [(k0, o0), (k0, o1), (k1, o0), (k1, o1), (k0, k0), (k1, k1)]
    return calls, [(4, 0, 1, 5), (0, 1, 5, 2), (1, 5, 2, 3)]


def _triangle_case(kept: List[int], out: List[int]):
    if len(kept) == 3:
        return [(k, k) for k in kept], [(0, 1, 2)]
    if len(kept) == 2:
        (k0, k1), o = kept, out[0]
        return [(k0, k0), (k1, k1), (k0, o), (k1, o)], [(0, 1, 3), (0, 3, 2)]
    k = kept[0]
    return [(k, k), (k, out[0]), (k, out[1])], [(0, 1, 2)]


def _vertex_case(kept: List[int], out: List[int]):
    return [(0, 0)], [(0,)]


def _case_table(n_corners: int, case_fn) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Padded ``(calls, n_calls, pieces, n_pieces)`` arrays over every mask."""
    cases = []
    for mask in range(1 << n_corners):
        kept = [i for i in range(n_corners) if mask >> i & 1]
        out = [i for i in range(n_corners) if not mask >> i & 1]
        cases.append(case_fn(kept, out) if kept else ([], []))
    max_calls = max(len(c) for c, _p in cases)
    max_pieces = max(len(p) for _c, p in cases)
    calls = np.zeros((len(cases), max_calls, 2), dtype=np.int64)
    pieces = np.zeros((len(cases), max_pieces, n_corners), dtype=np.int64)
    for mask, (case_calls, case_pieces) in enumerate(cases):
        if case_calls:
            calls[mask, : len(case_calls)] = case_calls
            pieces[mask, : len(case_pieces)] = case_pieces
    n_calls = np.asarray([len(c) for c, _p in cases], dtype=np.int64)
    n_pieces = np.asarray([len(p) for _c, p in cases], dtype=np.int64)
    return calls, n_calls, pieces, n_pieces


_TET_TABLE = _case_table(4, _tet_case)
_TRIANGLE_TABLE = _case_table(3, _triangle_case)
_VERTEX_TABLE = _case_table(1, _vertex_case)


_VERTEX_SPLITS = {CellType.VERTEX: ((0,),)}


class _Stream(NamedTuple):
    """One kind's pool calls and output cells, in (cell, piece, call) order.

    ``cells`` index into this stream's own calls; ``call_parent`` and
    ``cell_parent`` are the input cell ids of every call and output cell.
    """

    call_parent: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    cells: CellArrays
    cell_parent: np.ndarray


def _clip_simplices(
    simplices: np.ndarray, parent: np.ndarray, keep: np.ndarray, cell_type: int, table
) -> _Stream:
    calls, n_calls, pieces, n_pieces = table
    width = simplices.shape[1]
    mask = (keep[simplices].astype(np.int64) << np.arange(width)).sum(axis=1)
    live = mask != 0
    simplices, parent, mask = simplices[live], parent[live], mask[live]
    rows = np.arange(len(simplices))[:, None]
    valid = np.arange(calls.shape[1]) < n_calls[mask][:, None]
    a = simplices[rows, calls[mask, :, 0]][valid]
    b = simplices[rows, calls[mask, :, 1]][valid]
    slot = np.cumsum(valid).reshape(valid.shape) - 1
    out_valid = np.arange(pieces.shape[1]) < n_pieces[mask][:, None]
    out = slot[rows[:, :, None], pieces[mask]][out_valid]
    return _Stream(
        np.broadcast_to(parent[:, None], valid.shape)[valid],
        np.minimum(a, b),
        np.maximum(a, b),
        uniform_cells(cell_type, out.reshape(-1, width)),
        np.broadcast_to(parent[:, None], out_valid.shape)[out_valid],
    )


def _keep_whole_lines(cells: CellArrays, keep: np.ndarray) -> _Stream:
    """LINE / POLY_LINE cells survive unchanged when all their points do."""
    is_line = (cells.types == CellType.LINE) | (cells.types == CellType.POLY_LINE)
    kept = np.flatnonzero(is_line & cells_passing(keep[cells.connectivity], cells.offsets, True))
    lines = take_cells(cells, kept)
    ids = lines.connectivity
    return _Stream(
        np.repeat(kept, np.diff(lines.offsets)),
        ids,
        ids,
        CellArrays(lines.types, lines.offsets, np.arange(len(ids))),
        kept,
    )


def clip_unstructured(
    grid: UnstructuredGrid,
    origin: Sequence[float] = (0.0, 0.0, 0.0),
    normal: Sequence[float] = (1.0, 0.0, 0.0),
    keep_negative: bool = True,
    function: Optional[ImplicitFunction] = None,
) -> UnstructuredGrid:
    """Clip an unstructured grid, splitting boundary cells exactly.

    Volumetric cells are clipped through their tetrahedra, triangles and
    quads (as two triangles) are split, vertices kept or dropped, and lines
    and polylines kept only when every point is kept.  The output holds the
    tetrahedra first, then the other cells, each in input cell order.
    """
    from repro.algorithms.isosurface import tetrahedra_of_dataset

    g = _evaluate(function, origin, normal, grid.points)
    if not keep_negative:
        g = -g
    keep = g <= 0.0
    cells = grid.cell_arrays()
    tet_parent = np.repeat(np.arange(cells.n_cells), split_counts(cells.types, TETRA_SPLITS))
    streams = [
        _clip_simplices(tetrahedra_of_dataset(grid), tet_parent, keep, CellType.TETRA, _TET_TABLE),
        _clip_simplices(
            *split_cells(cells, TRIANGLE_SPLITS), keep, CellType.TRIANGLE, _TRIANGLE_TABLE
        ),
        _clip_simplices(*split_cells(cells, _VERTEX_SPLITS), keep, CellType.VERTEX, _VERTEX_TABLE),
        _keep_whole_lines(cells, keep),
    ]

    # number the pooled points in first-call order over the input cells
    order = np.argsort(np.concatenate([s.call_parent for s in streams]), kind="stable")
    n = np.int64(grid.n_points)
    keys = np.concatenate([s.lo for s in streams]) * n + np.concatenate([s.hi for s in streams])
    unique, first, inverse = np.unique(keys[order], return_index=True, return_inverse=True)
    by_first = np.argsort(first)
    rank = np.empty_like(by_first)
    rank[by_first] = np.arange(len(by_first))
    ids = np.empty(len(keys), dtype=np.int64)
    ids[order] = rank[inverse.reshape(-1)]

    # originals copy their point; edge (a, b) crossings interpolate at t
    a = unique[by_first] // max(n, 1)
    b = unique[by_first] - a * n
    edge = a != b
    ga, gb = g[a[edge]], g[b[edge]]
    denom = ga - gb
    t = np.zeros(len(a), dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        t[edge] = np.where(denom == 0.0, 0.5, np.clip(ga / denom, 0.0, 1.0))
    points = grid.points
    coords = points[a]
    pa, pb = points[a[edge]], points[b[edge]]
    coords[edge] = pa + t[edge, None] * (pb - pa)

    result = UnstructuredGrid(coords)
    bases = offsets_of([len(s.lo) for s in streams])
    result.add_cells(CellType.TETRA, ids[bases[0] + streams[0].cells.connectivity].reshape(-1, 4))
    others = concat_cells(
        s.cells._replace(connectivity=ids[base + s.cells.connectivity])
        for base, s in zip(bases[1:], streams[1:])
    )
    parent = np.concatenate([s.cell_parent for s in streams[1:]])
    result.add_cell_arrays(*take_cells(others, np.argsort(parent, kind="stable")))
    if len(grid.point_data) and len(a):
        interped = grid.point_data.interpolate(a, b, t)
        for name in interped.names():
            result.add_point_array(name, interped[name].values)
    return result


# --------------------------------------------------------------------------- #
# generic dispatcher
# --------------------------------------------------------------------------- #
def clip_dataset(
    dataset: Dataset,
    origin: Sequence[float] = (0.0, 0.0, 0.0),
    normal: Sequence[float] = (1.0, 0.0, 0.0),
    keep_negative: bool = True,
    function: Optional[ImplicitFunction] = None,
) -> Dataset:
    """Clip any dataset type (ImageData is converted to tetrahedra first)."""
    if isinstance(dataset, PolyData):
        return clip_polydata(dataset, origin, normal, keep_negative, function)
    if isinstance(dataset, UnstructuredGrid):
        return clip_unstructured(dataset, origin, normal, keep_negative, function)
    if isinstance(dataset, ImageData):
        return clip_unstructured(
            _image_to_unstructured(dataset), origin, normal, keep_negative, function
        )
    raise TypeError(f"cannot clip dataset of type {type(dataset).__name__}")


def _image_to_unstructured(image: ImageData) -> UnstructuredGrid:
    """Convert an ImageData to an UnstructuredGrid of tetrahedra."""
    from repro.algorithms.isosurface import tetrahedra_of_dataset

    grid = UnstructuredGrid(image.get_points())
    grid.add_cells(CellType.TETRA, tetrahedra_of_dataset(image))
    for name in image.point_data.names():
        grid.add_point_array(name, image.point_data[name].values.copy())
    return grid
