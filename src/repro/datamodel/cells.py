"""Cell types for unstructured grids and polygonal data.

The numbering follows the VTK cell-type enumeration so that datasets written
by :mod:`repro.io.vtk_legacy` are recognisable to anyone familiar with the
legacy VTK file format.
"""

from __future__ import annotations

from enum import IntEnum
from typing import Dict, List, Sequence, Tuple


__all__ = [
    "CellType",
    "CELL_TYPE_NPOINTS",
    "cell_type_name",
    "triangulate_cell",
    "cell_edges",
    "TETRA_SPLITS",
    "TRIANGLE_SPLITS",
]


class CellType(IntEnum):
    """Supported cell types (values match VTK)."""

    VERTEX = 1
    LINE = 3
    POLY_LINE = 4
    TRIANGLE = 5
    QUAD = 9
    TETRA = 10
    VOXEL = 11
    HEXAHEDRON = 12
    WEDGE = 13
    PYRAMID = 14


#: Fixed number of points per cell type (``None`` for variable-size cells).
CELL_TYPE_NPOINTS: Dict[CellType, int] = {
    CellType.VERTEX: 1,
    CellType.LINE: 2,
    CellType.POLY_LINE: -1,  # variable
    CellType.TRIANGLE: 3,
    CellType.QUAD: 4,
    CellType.TETRA: 4,
    CellType.VOXEL: 8,
    CellType.HEXAHEDRON: 8,
    CellType.WEDGE: 6,
    CellType.PYRAMID: 5,
}


_CELL_NAMES = {
    CellType.VERTEX: "vertex",
    CellType.LINE: "line",
    CellType.POLY_LINE: "polyline",
    CellType.TRIANGLE: "triangle",
    CellType.QUAD: "quad",
    CellType.TETRA: "tetrahedron",
    CellType.VOXEL: "voxel",
    CellType.HEXAHEDRON: "hexahedron",
    CellType.WEDGE: "wedge",
    CellType.PYRAMID: "pyramid",
}


def cell_type_name(cell_type: int) -> str:
    """Human-readable name for a cell-type code."""
    try:
        return _CELL_NAMES[CellType(cell_type)]
    except ValueError:
        return f"unknown({cell_type})"


# --------------------------------------------------------------------------- #
# Decomposition tables
# --------------------------------------------------------------------------- #
# Triangulation of the simple linear cells into triangles (surface cells) or
# into tetrahedra (volumetric cells).  Indices are local to the cell
# connectivity order.

_QUAD_TRIANGLES = [(0, 1, 2), (0, 2, 3)]

_TETRA_TRIANGLES = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]

# VTK voxel ordering: (x,y,z) = (0,0,0),(1,0,0),(0,1,0),(1,1,0),(0,0,1),...
_VOXEL_TO_HEX = [0, 1, 3, 2, 4, 5, 7, 6]

_HEX_TETRAS = [
    (0, 1, 3, 4),
    (1, 2, 3, 6),
    (1, 3, 4, 6),
    (3, 4, 6, 7),
    (1, 4, 5, 6),
]

_WEDGE_TETRAS = [(0, 1, 2, 4), (0, 2, 3, 4), (2, 3, 4, 5)]

_PYRAMID_TETRAS = [(0, 1, 2, 4), (0, 2, 3, 4)]

_EDGES: Dict[CellType, List[Tuple[int, int]]] = {
    CellType.LINE: [(0, 1)],
    CellType.TRIANGLE: [(0, 1), (1, 2), (2, 0)],
    CellType.QUAD: [(0, 1), (1, 2), (2, 3), (3, 0)],
    CellType.TETRA: [(0, 1), (1, 2), (2, 0), (0, 3), (1, 3), (2, 3)],
    CellType.HEXAHEDRON: [
        (0, 1), (1, 2), (2, 3), (3, 0),
        (4, 5), (5, 6), (6, 7), (7, 4),
        (0, 4), (1, 5), (2, 6), (3, 7),
    ],
    CellType.WEDGE: [
        (0, 1), (1, 2), (2, 0),
        (3, 4), (4, 5), (5, 3),
        (0, 3), (1, 4), (2, 5),
    ],
    CellType.PYRAMID: [
        (0, 1), (1, 2), (2, 3), (3, 0),
        (0, 4), (1, 4), (2, 4), (3, 4),
    ],
}


def cell_edges(cell_type: int, connectivity: Sequence[int]) -> List[Tuple[int, int]]:
    """Return the list of global point-id edges of a cell."""
    ct = CellType(cell_type)
    conn = list(connectivity)
    if ct == CellType.VERTEX:
        return []
    if ct == CellType.POLY_LINE:
        return [(conn[i], conn[i + 1]) for i in range(len(conn) - 1)]
    if ct == CellType.VOXEL:
        conn = [conn[i] for i in _VOXEL_TO_HEX]
        ct = CellType.HEXAHEDRON
    edges = _EDGES.get(ct)
    if edges is None:
        raise ValueError(f"no edge table for cell type {cell_type_name(cell_type)}")
    return [(conn[a], conn[b]) for a, b in edges]


#: Local-index triangles of every 2-d cell type, in the order
#: :func:`triangulate_cell` emits them.
TRIANGLE_SPLITS: Dict[CellType, Tuple[Tuple[int, int, int], ...]] = {
    CellType.TRIANGLE: ((0, 1, 2),),
    CellType.QUAD: tuple(_QUAD_TRIANGLES),
}


def triangulate_cell(cell_type: int, connectivity: Sequence[int]) -> List[Tuple[int, int, int]]:
    """Decompose a 2-d cell (triangle/quad) or the *surface* of nothing else.

    Volumetric cells are not handled here — use :func:`tetrahedralize_cell` and
    extract the boundary instead.  Returns a list of global-id triangles.
    """
    table = TRIANGLE_SPLITS.get(CellType(cell_type))
    if table is None:
        raise ValueError(
            f"cannot triangulate cell type {cell_type_name(cell_type)}; "
            "only 2-d cells are supported"
        )
    conn = list(connectivity)
    return [tuple(conn[i] for i in tri) for tri in table]


#: Local-index tetrahedra of every volumetric cell type, in the order
#: :func:`tetrahedralize_cell` emits them (the voxel table is the hexahedron
#: table read through the voxel-to-hexahedron corner permutation).
TETRA_SPLITS: Dict[CellType, Tuple[Tuple[int, int, int, int], ...]] = {
    CellType.TETRA: ((0, 1, 2, 3),),
    CellType.VOXEL: tuple(tuple(_VOXEL_TO_HEX[i] for i in tet) for tet in _HEX_TETRAS),
    CellType.HEXAHEDRON: tuple(_HEX_TETRAS),
    CellType.WEDGE: tuple(_WEDGE_TETRAS),
    CellType.PYRAMID: tuple(_PYRAMID_TETRAS),
}


def tetrahedralize_cell(cell_type: int, connectivity: Sequence[int]) -> List[Tuple[int, int, int, int]]:
    """Decompose a 3-d cell into tetrahedra (global point ids)."""
    table = TETRA_SPLITS.get(CellType(cell_type))
    if table is None:
        raise ValueError(
            f"cannot tetrahedralize cell type {cell_type_name(cell_type)}; "
            "only 3-d cells are supported"
        )
    conn = list(connectivity)
    return [tuple(conn[i] for i in tet) for tet in table]


def surface_triangles_of_tetra(connectivity: Sequence[int]) -> List[Tuple[int, int, int]]:
    """The four triangular faces of a tetrahedron (global ids)."""
    conn = list(connectivity)
    return [tuple(conn[i] for i in tri) for tri in _TETRA_TRIANGLES]


def is_volumetric(cell_type: int) -> bool:
    """Whether the cell type encloses volume (3-d cell)."""
    return CellType(cell_type) in TETRA_SPLITS


def is_surface(cell_type: int) -> bool:
    """Whether the cell type is a 2-d (surface) cell."""
    return CellType(cell_type) in TRIANGLE_SPLITS
