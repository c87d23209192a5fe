"""Unstructured grids: explicit points plus a mixed-type cell list."""

from __future__ import annotations

import itertools
import threading
from typing import Dict, Iterable, List, NamedTuple, Sequence, Tuple

import numpy as np

from repro.datamodel.cells import (
    CELL_TYPE_NPOINTS,
    TETRA_SPLITS,
    CellType,
    cell_edges,
    is_surface,
    is_volumetric,
    surface_triangles_of_tetra,
    tetrahedralize_cell,
    triangulate_cell,
)
from repro.datamodel.dataset import Dataset
from repro.datamodel.polydata import PolyData

__all__ = [
    "CellArrays",
    "UnstructuredGrid",
    "cells_passing",
    "concat_cells",
    "offsets_of",
    "split_cells",
    "split_counts",
    "take_cells",
    "uniform_cells",
]

#: fixed point count per cell-type code (-1: variable size, -2: unknown code)
_NPOINTS = np.full(max(CellType) + 1, -2, dtype=np.int64)
for _ct, _n in CELL_TYPE_NPOINTS.items():
    _NPOINTS[int(_ct)] = _n

#: serializes folding of the pending ``add_cell`` buffer (reads may race)
_FOLD_LOCK = threading.Lock()


class CellArrays(NamedTuple):
    """A cell set in ``vtkCellArray`` layout: cell ``i`` has type
    ``types[i]`` and points ``connectivity[offsets[i]:offsets[i + 1]]``."""

    types: np.ndarray
    offsets: np.ndarray
    connectivity: np.ndarray

    @property
    def n_cells(self) -> int:
        return int(self.types.shape[0])


def offsets_of(sizes) -> np.ndarray:
    """The ``n + 1`` offsets of cells with the given point counts."""
    sizes = np.asarray(sizes, dtype=np.int64)
    offsets = np.zeros(sizes.shape[0] + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    return offsets


def uniform_cells(cell_type: int, rows: np.ndarray) -> CellArrays:
    """Cells of one type from an ``(n, k)`` connectivity array."""
    n, k = rows.shape
    return CellArrays(
        np.full(n, int(cell_type), dtype=np.int64),
        np.arange(n + 1, dtype=np.int64) * k,
        rows.reshape(-1),
    )


def cells_passing(flags: np.ndarray, offsets: np.ndarray, all_points: bool) -> np.ndarray:
    """Per-cell ``all`` (or ``any``) of flat per-connectivity ``flags``.

    An empty cell passes "all" and fails "any", as ``all`` and ``any`` of an
    empty selection do.
    """
    counts = np.concatenate([[0], np.cumsum(flags, dtype=np.int64)])
    n_true = counts[offsets[1:]] - counts[offsets[:-1]]
    return n_true == np.diff(offsets) if all_points else n_true > 0


def concat_cells(parts: Sequence[CellArrays]) -> CellArrays:
    """The cells of ``parts`` one after another."""
    parts = list(parts)
    return CellArrays(
        np.concatenate([_empty_ids()] + [p.types for p in parts]),
        offsets_of(np.concatenate([_empty_ids()] + [np.diff(p.offsets) for p in parts])),
        np.concatenate([_empty_ids()] + [p.connectivity for p in parts]),
    )


def take_cells(cells: CellArrays, index) -> CellArrays:
    """The cells at ``index`` (an int array), in that order."""
    index = np.asarray(index, dtype=np.int64)
    starts = cells.offsets[:-1][index]
    sizes = cells.offsets[1:][index] - starts
    offsets = offsets_of(sizes)
    gather = np.repeat(starts - offsets[:-1], sizes) + np.arange(offsets[-1])
    return CellArrays(cells.types[index], offsets, cells.connectivity[gather])


def split_counts(types: np.ndarray, splits: Dict[CellType, Tuple[Tuple[int, ...], ...]]) -> np.ndarray:
    """Number of pieces each cell splits into (0 for types not in ``splits``)."""
    counts = np.zeros(len(types), dtype=np.int64)
    for ct, table in splits.items():
        counts[types == ct] = len(table)
    return counts


def split_cells(
    cells: CellArrays, splits: Dict[CellType, Tuple[Tuple[int, ...], ...]]
) -> Tuple[np.ndarray, np.ndarray]:
    """Decompose cells by local-index tables such as ``TETRA_SPLITS``.

    Returns ``(pieces, parent)``: the global-id pieces of every cell whose
    type has a table, in cell order and table order within a cell, and the
    cell id each piece came from.
    """
    counts = split_counts(cells.types, splits)
    first = offsets_of(counts)
    width = len(next(iter(splits.values()))[0])
    pieces = np.empty((first[-1], width), dtype=np.int64)
    for ct, table in splits.items():
        sel = np.flatnonzero(cells.types == ct)
        if sel.size:
            rows = cells.connectivity[cells.offsets[sel, None] + np.arange(CELL_TYPE_NPOINTS[ct])]
            pieces[first[sel, None] + np.arange(len(table))] = rows[:, np.asarray(table)]
    return pieces, np.repeat(np.arange(len(counts)), counts)


def _empty_ids() -> np.ndarray:
    return np.zeros(0, dtype=np.int64)


class UnstructuredGrid(Dataset):
    """A dataset whose topology is an explicit list of cells.

    Cells are stored column-wise (:class:`CellArrays`): int64 cell types,
    ``n_cells + 1`` offsets and the flat connectivity of global point ids.
    :meth:`add_cell` appends to a small pending buffer that the first read
    folds into the columns, so per-cell callers (readers, generators) stay
    linear; array producers use :meth:`add_cells` / :meth:`add_cell_arrays`.
    The Exodus-style reader and the Delaunay filter produce this type.
    """

    def __init__(self, points=None) -> None:
        super().__init__()
        pts = np.asarray(points if points is not None else [], dtype=np.float64)
        if pts.size == 0:
            pts = np.zeros((0, 3), dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError(f"points must have shape (n, 3), got {pts.shape}")
        self.points: np.ndarray = pts
        self._types = _empty_ids()
        self._offsets = np.zeros(1, dtype=np.int64)
        self._conn = _empty_ids()
        self._pending: List[Tuple[int, Tuple[int, ...]]] = []
        self.point_data.set_expected_tuples(self.n_points)

    # ------------------------------------------------------------------ #
    # topology construction
    # ------------------------------------------------------------------ #
    def _checked(self, cell_type: int, connectivity: Sequence[int]) -> Tuple[int, Tuple[int, ...]]:
        ct = CellType(cell_type)
        conn = tuple(int(i) for i in connectivity)
        if any(i < 0 or i >= self.n_points for i in conn):
            raise IndexError(
                f"cell connectivity {conn} references out-of-range point ids "
                f"(dataset has {self.n_points} points)"
            )
        expected = CELL_TYPE_NPOINTS[ct]
        if expected > 0 and len(conn) != expected:
            raise ValueError(
                f"cell type {ct.name} requires {expected} points, got {len(conn)}"
            )
        return int(ct), conn

    def add_cell(self, cell_type: int, connectivity: Sequence[int]) -> int:
        """Append a cell; returns its cell id."""
        self._pending.append(self._checked(cell_type, connectivity))
        self.cell_data.set_expected_tuples(None)
        return self.n_cells - 1

    def add_cells(self, cell_type: int, connectivity_array) -> None:
        """Append many same-type cells from an ``(n, k)`` connectivity array."""
        ct = CellType(cell_type)
        conn = np.asarray(connectivity_array, dtype=np.int64)
        if conn.size == 0:
            return
        if conn.ndim != 2:
            raise ValueError("connectivity array must be 2-d")
        self.add_cell_arrays(*uniform_cells(ct, conn))

    def add_cell_arrays(self, types, offsets, connectivity) -> None:
        """Append cells given in :class:`CellArrays` layout.

        Validates like :meth:`add_cell` (same exception types and messages,
        reported for the first bad cell) but appends nothing on error.
        """
        types = np.asarray(types, dtype=np.int64).reshape(-1)
        offsets = np.asarray(offsets, dtype=np.int64).reshape(-1)
        conn = np.asarray(connectivity, dtype=np.int64).reshape(-1)
        n = types.shape[0]
        sizes = np.diff(offsets)
        if offsets.shape[0] != n + 1 or offsets[0] != 0 or offsets[-1] != conn.shape[0] or (
            sizes < 0
        ).any():
            raise ValueError(
                f"offsets must rise from 0 to {conn.shape[0]} over {n + 1} entries"
            )
        if n == 0:
            return
        known = (types >= 0) & (types < _NPOINTS.shape[0])
        expected = _NPOINTS[np.where(known, types, 0)]
        known &= expected != -2
        bad_ids = (conn < 0) | (conn >= self.n_points)
        bad = ~known | ((expected > 0) & (sizes != expected))
        bad[np.repeat(np.arange(n), sizes)[bad_ids]] = True
        if bad.any():
            i = int(np.argmax(bad))
            self._checked(int(types[i]), conn[offsets[i] : offsets[i + 1]].tolist())
        self._fold()
        self._append(types, sizes, conn)
        self.cell_data.set_expected_tuples(None)

    def _append(self, types: np.ndarray, sizes: np.ndarray, conn: np.ndarray) -> None:
        self._types = np.concatenate([self._types, types])
        self._offsets = np.concatenate([self._offsets, self._offsets[-1] + np.cumsum(sizes)])
        self._conn = np.concatenate([self._conn, conn])

    def _fold(self) -> None:
        """Move the pending ``add_cell`` buffer into the columns."""
        if not self._pending:
            return
        with _FOLD_LOCK:
            pending = self._pending
            if not pending:
                return
            count = len(pending)
            self._append(
                np.fromiter((t for t, _c in pending), np.int64, count),
                np.fromiter((len(c) for _t, c in pending), np.int64, count),
                np.fromiter(itertools.chain.from_iterable(c for _t, c in pending), np.int64),
            )
            self._pending = []

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def get_points(self) -> np.ndarray:
        return self.points

    @property
    def n_points(self) -> int:
        return int(self.points.shape[0])

    @property
    def n_cells(self) -> int:
        return int(self._types.shape[0]) + len(self._pending)

    def cell_arrays(self) -> CellArrays:
        """The cell columns as read-only views."""
        self._fold()
        views = []
        for arr in (self._types, self._offsets, self._conn):
            view = arr.view()
            view.flags.writeable = False
            views.append(view)
        return CellArrays(*views)

    def cell(self, cell_id: int) -> Tuple[int, Tuple[int, ...]]:
        """Return ``(cell_type, connectivity)`` of a cell."""
        self._fold()
        i = range(self.n_cells)[cell_id]
        conn = self._conn[self._offsets[i] : self._offsets[i + 1]]
        return int(self._types[i]), tuple(conn.tolist())

    def cells(self) -> Iterable[Tuple[int, Tuple[int, ...]]]:
        self._fold()
        conn = self._conn.tolist()
        bounds = self._offsets.tolist()
        return (
            (t, tuple(conn[a:b]))
            for t, a, b in zip(self._types.tolist(), bounds[:-1], bounds[1:])
        )

    def cell_types(self) -> List[int]:
        self._fold()
        return self._types.tolist()

    def cells_of_type(self, cell_type: int) -> np.ndarray:
        """Connectivity of all cells of one fixed-size type as an ``(n, k)`` array."""
        self._fold()
        sel = self._types == int(cell_type)
        if not sel.any():
            return np.zeros((0, 0), dtype=np.int64)
        starts = self._offsets[:-1][sel]
        sizes = self._offsets[1:][sel] - starts
        if (sizes != sizes[0]).any():
            raise ValueError(f"cells of type {int(cell_type)} differ in size")
        return self._conn[starts[:, None] + np.arange(sizes[0])]

    def has_volumetric_cells(self) -> bool:
        self._fold()
        return bool(split_counts(self._types, TETRA_SPLITS).any())

    def cell_centers(self) -> np.ndarray:
        """Centroid of every cell (``(n_cells, 3)``)."""
        centers = np.zeros((self.n_cells, 3), dtype=np.float64)
        for cid, (_t, conn) in enumerate(self.cells()):
            centers[cid] = self.points[list(conn)].mean(axis=0)
        return centers

    # ------------------------------------------------------------------ #
    # conversions
    # ------------------------------------------------------------------ #
    def tetrahedralized(self) -> "UnstructuredGrid":
        """Return a grid where every 3-d cell is decomposed into tetrahedra.

        Surface / line / vertex cells are passed through unchanged.
        """
        out = UnstructuredGrid(self.points.copy())
        for t, conn in self.cells():
            if is_volumetric(t):
                for tet in tetrahedralize_cell(t, conn):
                    out.add_cell(CellType.TETRA, tet)
            else:
                out.add_cell(t, conn)
        for name in self.point_data.names():
            out.add_point_array(name, self.point_data[name].values.copy())
        return out

    def extract_surface(self) -> PolyData:
        """Extract the external surface of the grid as triangles.

        For volumetric cells the boundary faces (faces belonging to exactly one
        cell) are kept; 2-d cells are triangulated directly; lines and
        vertices are passed through.
        """
        face_count: Dict[Tuple[int, ...], Tuple[int, int, int]] = {}

        def register(tri: Tuple[int, int, int]) -> None:
            key = tuple(sorted(tri))
            if key in face_count:
                face_count[key] = None  # type: ignore[assignment]
            else:
                face_count[key] = tri

        surface_tris: List[Tuple[int, int, int]] = []
        lines: List[np.ndarray] = []
        verts: List[int] = []

        for t, conn in self.cells():
            ct = CellType(t)
            if is_volumetric(t):
                for tet in tetrahedralize_cell(t, conn):
                    for tri in surface_triangles_of_tetra(tet):
                        register(tri)
            elif is_surface(t):
                surface_tris.extend(triangulate_cell(t, conn))
            elif ct in (CellType.LINE, CellType.POLY_LINE):
                lines.append(np.asarray(conn, dtype=np.int64))
            elif ct == CellType.VERTEX:
                verts.append(conn[0])

        boundary = [tri for tri in face_count.values() if tri is not None]
        surface_tris.extend(boundary)

        poly = PolyData(
            points=self.points.copy(),
            triangles=np.asarray(surface_tris, dtype=np.int64).reshape(-1, 3),
            lines=lines,
            verts=np.asarray(verts, dtype=np.int64),
        )
        for name in self.point_data.names():
            poly.add_point_array(name, self.point_data[name].values.copy())
        return poly

    def edges(self) -> np.ndarray:
        """Unique undirected edges over all cells."""
        all_edges: List[Tuple[int, int]] = []
        for t, conn in self.cells():
            if CellType(t) == CellType.VERTEX:
                continue
            all_edges.extend(cell_edges(t, conn))
        if not all_edges:
            return np.zeros((0, 2), dtype=np.int64)
        arr = np.sort(np.asarray(all_edges, dtype=np.int64), axis=1)
        return np.unique(arr, axis=0)

    def as_point_cloud(self) -> PolyData:
        """The points as a vertex-only PolyData (data arrays copied)."""
        poly = PolyData.from_points_only(self.points.copy())
        for name in self.point_data.names():
            poly.add_point_array(name, self.point_data[name].values.copy())
        return poly

    def copy(self) -> "UnstructuredGrid":
        self._fold()
        out = UnstructuredGrid(self.points.copy())
        out._types = self._types.copy()
        out._offsets = self._offsets.copy()
        out._conn = self._conn.copy()
        for name in self.point_data.names():
            out.add_point_array(name, self.point_data[name].values.copy())
        for name in self.cell_data.names():
            out.add_cell_array(name, self.cell_data[name].values.copy())
        return out

    def _fingerprint_geometry(self, hasher) -> None:
        from repro.datamodel.arrays import _hash_ndarray

        self._fold()
        _hash_ndarray(hasher, self.points)
        for arr in (self._types, self._offsets, self._conn):
            _hash_ndarray(hasher, arr)

    def __getstate__(self):
        """Fold pending cells first: equal grids pickle to equal bytes."""
        self._fold()
        return super().__getstate__()

    def __repr__(self) -> str:
        self._fold()
        codes, first, counts = np.unique(self._types, return_index=True, return_counts=True)
        order = np.argsort(first)
        type_counts: Dict[str, int] = {
            CellType(int(codes[i])).name: int(counts[i]) for i in order
        }
        return (
            f"UnstructuredGrid(points={self.n_points}, cells={self.n_cells}, "
            f"types={type_counts}, point_arrays={self.point_data.names()})"
        )
