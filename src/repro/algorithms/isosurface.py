"""Level-set extraction by marching tetrahedra.

This is the geometric core shared by the contour and slice filters.  Given a
per-point scalar ``g`` defined on a dataset, :func:`extract_level_set`
extracts the ``g = 0`` surface as triangles; :func:`extract_level_lines`
extracts the ``g = 0`` polyline on a triangle mesh (marching triangles).

Volumetric datasets are decomposed into tetrahedra first:

* :class:`~repro.datamodel.ImageData` voxels use the 6-tetrahedron
  Freudenthal (Kuhn) decomposition, which splits every cube face along the
  diagonal through its lowest and highest corner; neighbouring voxels agree on
  face diagonals, so the extracted surface is crack-free.
* :class:`~repro.datamodel.UnstructuredGrid` cells use the per-cell
  decompositions from :mod:`repro.datamodel.cells`.

The implementation is fully vectorised: tetrahedra are classified by their
4-bit sign mask and every mask class is processed with whole-array NumPy
operations, so isosurfacing a 100³ volume stays interactive in pure Python.
All point-data arrays are linearly interpolated onto the new surface points.
"""

from __future__ import annotations

import threading
import weakref
from typing import Dict, List, Tuple

import numpy as np

from repro.datamodel import Dataset, ImageData, PolyData, UnstructuredGrid
from repro.datamodel.cells import TETRA_SPLITS, CellType
from repro.datamodel.unstructured import split_cells

__all__ = ["extract_level_set", "extract_level_lines", "tetrahedra_of_dataset"]


# --------------------------------------------------------------------------- #
# tetrahedral decomposition
# --------------------------------------------------------------------------- #
# Freudenthal decomposition of the unit cube into 6 tetrahedra, expressed in
# the local corner numbering c_{xyz} -> index x + 2*y + 4*z
# (c000=0, c100=1, c010=2, c110=3, c001=4, c101=5, c011=6, c111=7).
_FREUDENTHAL_TETS = np.array(
    [
        [0, 1, 3, 7],
        [0, 1, 5, 7],
        [0, 2, 3, 7],
        [0, 2, 6, 7],
        [0, 4, 5, 7],
        [0, 4, 6, 7],
    ],
    dtype=np.int64,
)

# local edges of a tetrahedron, indexed 0..5
_TET_EDGES = np.array([[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]], dtype=np.int64)

# marching-tetrahedra case table: 4-bit mask (bit i set <=> vertex i below the
# level) -> list of triangles, each triangle a triple of tet-edge indices.
_MT_CASES: Dict[int, List[Tuple[int, int, int]]] = {
    0b0001: [(0, 1, 2)],
    0b0010: [(0, 3, 4)],
    0b0100: [(1, 3, 5)],
    0b1000: [(2, 4, 5)],
    0b1110: [(0, 1, 2)],
    0b1101: [(0, 3, 4)],
    0b1011: [(1, 3, 5)],
    0b0111: [(2, 4, 5)],
    0b0011: [(1, 3, 4), (1, 4, 2)],
    0b1100: [(1, 3, 4), (1, 4, 2)],
    0b0101: [(0, 3, 5), (0, 5, 2)],
    0b1010: [(0, 3, 5), (0, 5, 2)],
    0b1001: [(0, 4, 5), (0, 5, 1)],
    0b0110: [(0, 4, 5), (0, 5, 1)],
}

# marching-triangles case table: 3-bit mask -> one segment as a pair of
# triangle-edge indices.  Triangle edges: e0=(0,1), e1=(1,2), e2=(2,0).
_TRI_EDGES = np.array([[0, 1], [1, 2], [2, 0]], dtype=np.int64)
_MT2_CASES: Dict[int, Tuple[int, int]] = {
    0b001: (0, 2),
    0b110: (0, 2),
    0b010: (0, 1),
    0b101: (0, 1),
    0b100: (1, 2),
    0b011: (1, 2),
}


def _build_mt_tables():
    """Flatten ``_MT_CASES`` into dense per-mask lookup arrays.

    The vectorised extractor classifies every tet with one gather through
    these tables instead of looping over the case dictionary.  ``rank``
    records each case's position in dict-iteration order so the batched path
    can emit triangles in exactly the order the pinned loop reference does
    (case-major, then triangle slot, then tet) — that ordering is what makes
    the two implementations bit-equal.
    """
    rank = np.full(16, -1, dtype=np.int64)
    n_tris = np.zeros(16, dtype=np.int64)
    corner_a = np.zeros((16, 2, 3), dtype=np.int64)
    corner_b = np.zeros((16, 2, 3), dtype=np.int64)
    for case_rank, (case, triangles) in enumerate(_MT_CASES.items()):
        rank[case] = case_rank
        n_tris[case] = len(triangles)
        for slot, tri in enumerate(triangles):
            for corner, edge_index in enumerate(tri):
                a_local, b_local = _TET_EDGES[edge_index]
                corner_a[case, slot, corner] = a_local
                corner_b[case, slot, corner] = b_local
    return rank, n_tris, corner_a, corner_b


_MT_RANK, _MT_NTRIS, _MT_CORNER_A, _MT_CORNER_B = _build_mt_tables()


def _build_mt2_tables():
    """Dense per-mask lookup arrays for the marching-triangles table."""
    rank = np.full(8, -1, dtype=np.int64)
    has_segment = np.zeros(8, dtype=bool)
    seg_a = np.zeros((8, 2), dtype=np.int64)
    seg_b = np.zeros((8, 2), dtype=np.int64)
    for case_rank, (case, (edge0, edge1)) in enumerate(_MT2_CASES.items()):
        rank[case] = case_rank
        has_segment[case] = True
        for j, edge_index in enumerate((edge0, edge1)):
            a_local, b_local = _TRI_EDGES[edge_index]
            seg_a[case, j] = a_local
            seg_b[case, j] = b_local
    return rank, has_segment, seg_a, seg_b


_MT2_RANK, _MT2_HAS, _MT2_SEG_A, _MT2_SEG_B = _build_mt2_tables()


def _image_data_tetrahedra(image: ImageData) -> np.ndarray:
    """All tetrahedra of an image-data lattice as an ``(m, 4)`` id array."""
    nx, ny, nz = image.dimensions
    cx, cy, cz = max(nx - 1, 0), max(ny - 1, 0), max(nz - 1, 0)
    if cx == 0 or cy == 0 or cz == 0:
        return np.zeros((0, 4), dtype=np.int64)

    # ids of the (i, j, k) corner of every cell
    i = np.arange(cx)
    j = np.arange(cy)
    k = np.arange(cz)
    kk, jj, ii = np.meshgrid(k, j, i, indexing="ij")
    base = (ii + nx * (jj + ny * kk)).ravel()  # (n_cells,)

    # offsets of the 8 cube corners in flat id space, in c_{xyz} order
    dx, dy, dz = 1, nx, nx * ny
    corner_offsets = np.array(
        [0, dx, dy, dx + dy, dz, dx + dz, dy + dz, dx + dy + dz], dtype=np.int64
    )
    corners = base[:, None] + corner_offsets[None, :]  # (n_cells, 8)

    tets = corners[:, _FREUDENTHAL_TETS]  # (n_cells, 6, 4)
    return tets.reshape(-1, 4)


#: per-dataset memo of the decomposition, validated against (n_points,
#: n_cells) so a dataset mutated after caching is re-decomposed.  Multi
#: isovalue Contour calls and repeated slice/contour on the same input hit
#: this instead of redoing the Freudenthal split per call.
_TETRA_CACHE: "weakref.WeakKeyDictionary[Dataset, Tuple[int, int, np.ndarray]]" = (
    weakref.WeakKeyDictionary()
)
_TETRA_CACHE_LOCK = threading.Lock()


def _compute_tetrahedra(dataset: Dataset) -> np.ndarray:
    """The ``(m, 4)`` decomposition, read-only: the memo shares it."""
    if isinstance(dataset, ImageData):
        tets = _image_data_tetrahedra(dataset)
    elif isinstance(dataset, UnstructuredGrid):
        cells = dataset.cell_arrays()
        if (cells.types == CellType.TETRA).all():
            tets = cells.connectivity.reshape(-1, 4)
        else:
            tets = split_cells(cells, TETRA_SPLITS)[0]
    else:
        raise TypeError(
            f"cannot decompose dataset of type {type(dataset).__name__} into tetrahedra"
        )
    tets.flags.writeable = False
    return tets


def tetrahedra_of_dataset(dataset: Dataset) -> np.ndarray:
    """Decompose any volumetric dataset into an ``(m, 4)`` tetrahedron array.

    Memoized per dataset object (weakly, so datasets stay collectable).
    """
    shape = (dataset.n_points, dataset.n_cells)
    with _TETRA_CACHE_LOCK:
        entry = _TETRA_CACHE.get(dataset)
        if entry is not None and entry[:2] == shape:
            return entry[2]
    tets = _compute_tetrahedra(dataset)
    with _TETRA_CACHE_LOCK:
        _TETRA_CACHE[dataset] = (shape[0], shape[1], tets)
    return tets


# --------------------------------------------------------------------------- #
# level-set surface extraction (marching tetrahedra)
# --------------------------------------------------------------------------- #
def extract_level_set(
    dataset: Dataset,
    scalars: np.ndarray,
    interpolate_point_data: bool = True,
) -> PolyData:
    """Extract the ``scalars == 0`` surface of a volumetric dataset.

    Parameters
    ----------
    dataset:
        An :class:`ImageData` or :class:`UnstructuredGrid` with volumetric
        cells.
    scalars:
        Per-point values of the implicit function ``g``; the surface is the
        zero level set.  ``g < 0`` is "below"/"inside".
    interpolate_point_data:
        When true (default), every point-data array of the input is linearly
        interpolated onto the new surface points.

    Returns
    -------
    PolyData
        Triangles; empty PolyData when the level set does not intersect the
        dataset.
    """
    g = np.asarray(scalars, dtype=np.float64).reshape(-1)
    if g.shape[0] != dataset.n_points:
        raise ValueError(
            f"scalars has {g.shape[0]} values but dataset has {dataset.n_points} points"
        )

    points = dataset.get_points()
    tets = tetrahedra_of_dataset(dataset)
    if tets.shape[0] == 0:
        return PolyData()

    gt = g[tets]  # (m, 4)
    below = gt < 0.0
    mask = (
        below[:, 0].astype(np.int64)
        | (below[:, 1].astype(np.int64) << 1)
        | (below[:, 2].astype(np.int64) << 2)
        | (below[:, 3].astype(np.int64) << 3)
    )

    A, B = _collect_surface_corners(tets, mask)
    if A.size == 0:
        return PolyData()
    return _build_surface(points, g, dataset, A, B, interpolate_point_data)


def _collect_surface_corners(tets: np.ndarray, mask: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Edge endpoints of every emitted triangle corner, fully case-batched.

    One pass over the dense marching-tets tables: every crossed tet's
    triangle slots are expanded at once with two table gathers — no
    per-case/per-triangle/per-edge Python loops.  Triangles are emitted in
    (case rank, slot, tet) order, matching the pinned
    :func:`_collect_surface_corners_loop` bit-for-bit.
    """
    n_tris = _MT_NTRIS[mask]
    first = np.nonzero(n_tris >= 1)[0]
    second = np.nonzero(n_tris == 2)[0]
    if first.size == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty
    tet_idx = np.concatenate([first, second])
    slot = np.zeros(tet_idx.shape[0], dtype=np.int64)
    slot[first.size :] = 1
    # loop emission order: case rank ascending, then slot, then tet (the
    # nonzero() selections are already tet-ascending within each group)
    order = np.argsort(_MT_RANK[mask[tet_idx]] * 2 + slot, kind="stable")
    tet_idx = tet_idx[order]
    slot = slot[order]
    case = mask[tet_idx]
    rows = tets[tet_idx[:, None], _MT_CORNER_A[case, slot]]  # (t, 3)
    rows_b = tets[tet_idx[:, None], _MT_CORNER_B[case, slot]]
    return rows.reshape(-1), rows_b.reshape(-1)


def _collect_surface_corners_loop(
    tets: np.ndarray, mask: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """The historical per-case/per-triangle/per-edge loop, kept as the
    reference oracle; the parity tests pin :func:`_collect_surface_corners`
    against this."""
    corner_a: List[np.ndarray] = []
    corner_b: List[np.ndarray] = []
    for case, triangles in _MT_CASES.items():
        sel = np.nonzero(mask == case)[0]
        if sel.size == 0:
            continue
        case_tets = tets[sel]  # (s, 4)
        for tri in triangles:
            for edge_index in tri:
                a_local, b_local = _TET_EDGES[edge_index]
                corner_a.append(case_tets[:, a_local])
                corner_b.append(case_tets[:, b_local])

    if not corner_a:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty
    # corner arrays are built edge-major per (case, triangle); interleave them
    # back into per-triangle corner order.
    return _interleave_corners(corner_a), _interleave_corners(corner_b)


def _interleave_corners(chunks: List[np.ndarray]) -> np.ndarray:
    """Reassemble per-corner chunks into a flat corner array.

    ``chunks`` holds, for every (case, triangle, corner) combination in
    iteration order, the array of global point ids over the tets selected for
    that case.  Within one case the chunks for the three corners of one
    triangle are consecutive, so stacking each consecutive group of three and
    transposing restores per-triangle corner order.
    """
    out: List[np.ndarray] = []
    for start in range(0, len(chunks), 3):
        c0, c1, c2 = chunks[start], chunks[start + 1], chunks[start + 2]
        stacked = np.column_stack([c0, c1, c2])  # (s, 3)
        out.append(stacked.reshape(-1))
    return np.concatenate(out)


def _unique_edges(
    corner_a: np.ndarray, corner_b: np.ndarray, n_points: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Deduplicate undirected point-id edges; returns ``(ea, eb, inverse)``.

    Packs each (lo, hi) pair into a single int64 so the dedup is a scalar
    sort instead of ``np.unique(..., axis=0)``'s much slower row-wise void
    sort — this was the single largest cost of the whole extraction.  The
    packed ordering is the same lexicographic (lo, hi) ordering, so results
    are bit-identical to the row-wise path.
    """
    lo = np.minimum(corner_a, corner_b)
    hi = np.maximum(corner_a, corner_b)
    if n_points < 2**31:
        packed = lo * np.int64(n_points) + hi
        unique_packed, inverse = np.unique(packed, return_inverse=True)
        ea = unique_packed // n_points
        eb = unique_packed - ea * n_points
    else:  # pragma: no cover - datasets this large never fit in memory here
        edge_keys = np.column_stack([lo, hi])
        unique, inverse = np.unique(edge_keys, axis=0, return_inverse=True)
        ea = unique[:, 0]
        eb = unique[:, 1]
    return ea, eb, inverse.reshape(-1)


def _unique_edges_loop(
    corner_a: np.ndarray, corner_b: np.ndarray, n_points: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The historical row-wise ``np.unique(..., axis=0)`` edge dedup, kept as
    the reference oracle for :func:`_unique_edges`."""
    edge_keys = np.column_stack(
        [np.minimum(corner_a, corner_b), np.maximum(corner_a, corner_b)]
    )
    unique, inverse = np.unique(edge_keys, axis=0, return_inverse=True)
    return unique[:, 0], unique[:, 1], inverse.reshape(-1)


def _extract_level_set_loop(
    dataset: Dataset,
    scalars: np.ndarray,
    interpolate_point_data: bool = True,
) -> PolyData:
    """The pre-campaign extraction composition, kept as the reference oracle:
    per-case/per-triangle corner loops plus row-wise edge dedup.  The parity
    tests pin :func:`extract_level_set` against this bit-for-bit, and the
    benchmark manifest times it as the seed implementation."""
    g = np.asarray(scalars, dtype=np.float64).reshape(-1)
    if g.shape[0] != dataset.n_points:
        raise ValueError(
            f"scalars has {g.shape[0]} values but dataset has {dataset.n_points} points"
        )
    points = dataset.get_points()
    tets = tetrahedra_of_dataset(dataset)
    if tets.shape[0] == 0:
        return PolyData()
    gt = g[tets]
    below = gt < 0.0
    mask = (
        below[:, 0].astype(np.int64)
        | (below[:, 1].astype(np.int64) << 1)
        | (below[:, 2].astype(np.int64) << 2)
        | (below[:, 3].astype(np.int64) << 3)
    )
    A, B = _collect_surface_corners_loop(tets, mask)
    if A.size == 0:
        return PolyData()
    return _build_surface(
        points, g, dataset, A, B, interpolate_point_data, _dedup=_unique_edges_loop
    )


def _build_surface(
    points: np.ndarray,
    g: np.ndarray,
    dataset: Dataset,
    corner_a: np.ndarray,
    corner_b: np.ndarray,
    interpolate_point_data: bool,
    _dedup=_unique_edges,
) -> PolyData:
    """Create the output PolyData from flat per-corner edge endpoint arrays."""
    ea, eb, inverse = _dedup(corner_a, corner_b, dataset.n_points)

    triangles = inverse.reshape(-1, 3)
    # drop degenerate triangles (an edge hit exactly at a dataset point can
    # collapse two corners onto the same new point)
    valid = (
        (triangles[:, 0] != triangles[:, 1])
        & (triangles[:, 1] != triangles[:, 2])
        & (triangles[:, 0] != triangles[:, 2])
    )
    triangles = triangles[valid]

    ga = g[ea]
    gb = g[eb]
    denom = ga - gb
    denom[denom == 0.0] = 1.0
    t = np.clip(ga / denom, 0.0, 1.0)
    new_points = points[ea] + t[:, None] * (points[eb] - points[ea])

    poly = PolyData(points=new_points, triangles=triangles)
    if interpolate_point_data and len(dataset.point_data):
        interped = dataset.point_data.interpolate(ea, eb, t)
        for name in interped.names():
            poly.add_point_array(name, interped[name].values)
    return poly


# --------------------------------------------------------------------------- #
# level-set line extraction (marching triangles)
# --------------------------------------------------------------------------- #
def extract_level_lines(
    surface: PolyData,
    scalars: np.ndarray,
    interpolate_point_data: bool = True,
) -> PolyData:
    """Extract the ``scalars == 0`` polyline on a triangle mesh.

    This is the "contour of a slice" operation: the input is a surface (for
    example the output of the slice filter) and the output is a PolyData made
    of line segments along the level set.
    """
    g = np.asarray(scalars, dtype=np.float64).reshape(-1)
    if g.shape[0] != surface.n_points:
        raise ValueError(
            f"scalars has {g.shape[0]} values but surface has {surface.n_points} points"
        )
    if surface.n_triangles == 0:
        return PolyData()

    tris = surface.triangles
    gt = g[tris]
    below = gt < 0.0
    mask = (
        below[:, 0].astype(np.int64)
        | (below[:, 1].astype(np.int64) << 1)
        | (below[:, 2].astype(np.int64) << 2)
    )

    A, B = _collect_line_corners(tris, mask)
    if A.size == 0:
        return PolyData()

    ea, eb, inverse = _unique_edges(A, B, surface.n_points)
    segments = inverse.reshape(-1, 2)
    segments = segments[segments[:, 0] != segments[:, 1]]

    ga = g[ea]
    gb = g[eb]
    denom = ga - gb
    denom[denom == 0.0] = 1.0
    t = np.clip(ga / denom, 0.0, 1.0)
    new_points = surface.points[ea] + t[:, None] * (surface.points[eb] - surface.points[ea])

    lines = [segments[i] for i in range(segments.shape[0])]
    poly = PolyData(points=new_points, lines=lines)
    if interpolate_point_data and len(surface.point_data):
        interped = surface.point_data.interpolate(ea, eb, t)
        for name in interped.names():
            poly.add_point_array(name, interped[name].values)
    return poly


def _collect_line_corners(tris: np.ndarray, mask: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Segment endpoints over all crossed triangles, fully case-batched.

    Mirrors :func:`_collect_surface_corners` for the marching-triangles
    table; emission order (case rank, then triangle, then the two crossed
    edges) matches the pinned loop reference bit-for-bit.
    """
    sel = np.nonzero(_MT2_HAS[mask])[0]
    if sel.size == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty
    order = np.argsort(_MT2_RANK[mask[sel]], kind="stable")
    sel = sel[order]
    case = mask[sel]
    rows_a = tris[sel[:, None], _MT2_SEG_A[case]]  # (s, 2)
    rows_b = tris[sel[:, None], _MT2_SEG_B[case]]
    return rows_a.reshape(-1), rows_b.reshape(-1)


def _collect_line_corners_loop(
    tris: np.ndarray, mask: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """The historical per-case segment loop, kept as the reference oracle."""
    seg_a: List[np.ndarray] = []
    seg_b: List[np.ndarray] = []
    for case, (edge0, edge1) in _MT2_CASES.items():
        sel = np.nonzero(mask == case)[0]
        if sel.size == 0:
            continue
        case_tris = tris[sel]
        for edge_index in (edge0, edge1):
            a_local, b_local = _TRI_EDGES[edge_index]
            seg_a.append(case_tris[:, a_local])
            seg_b.append(case_tris[:, b_local])

    if not seg_a:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty

    # per case we appended [edge0 endpoints], [edge1 endpoints]; re-pair them
    corner_a: List[np.ndarray] = []
    corner_b: List[np.ndarray] = []
    for i in range(0, len(seg_a), 2):
        corner_a.append(np.column_stack([seg_a[i], seg_a[i + 1]]).reshape(-1))
        corner_b.append(np.column_stack([seg_b[i], seg_b[i + 1]]).reshape(-1))
    return np.concatenate(corner_a), np.concatenate(corner_b)
