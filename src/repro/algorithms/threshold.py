"""Threshold filter: keep the cells whose data lies inside a scalar range."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.datamodel import CellType, Dataset, ImageData, PolyData, UnstructuredGrid
from repro.datamodel.unstructured import (
    CellArrays,
    cells_passing,
    concat_cells,
    offsets_of,
    take_cells,
    uniform_cells,
)

__all__ = ["threshold"]


def threshold(
    dataset: Dataset,
    array_name: Optional[str] = None,
    lower: float = -np.inf,
    upper: float = np.inf,
    all_points: bool = True,
) -> UnstructuredGrid:
    """Keep cells whose point values fall within ``[lower, upper]``.

    Parameters
    ----------
    array_name:
        Point scalar used for the test; defaults to the first scalar array.
    all_points:
        When true (default) every point of a cell must pass; otherwise a
        single passing point keeps the cell (ParaView's "Any Point" mode).

    Returns
    -------
    UnstructuredGrid
        The surviving cells; point data is carried over unchanged (the point
        set is not compacted, matching the simple behaviour of the VTK
        filter before cleaning).
    """
    if array_name is None:
        arr = dataset.point_data.first_scalar()
        if arr is None:
            raise ValueError("dataset has no point scalar array to threshold")
        array_name = arr.name
    elif array_name not in dataset.point_data:
        raise KeyError(
            f"no point array named {array_name!r}; available: {dataset.point_data.names()}"
        )
    values = dataset.point_data[array_name].as_scalar()

    inside = (values >= lower) & (values <= upper)

    if isinstance(dataset, UnstructuredGrid):
        cells = dataset.cell_arrays()
    elif isinstance(dataset, ImageData):
        from repro.algorithms.isosurface import tetrahedra_of_dataset

        cells = uniform_cells(CellType.TETRA, tetrahedra_of_dataset(dataset))
    elif isinstance(dataset, PolyData):
        lines = dataset.lines
        cells = concat_cells(
            [
                uniform_cells(CellType.TRIANGLE, dataset.triangles),
                uniform_cells(CellType.VERTEX, dataset.verts.reshape(-1, 1)),
                CellArrays(
                    np.full(len(lines), int(CellType.POLY_LINE), dtype=np.int64),
                    offsets_of([len(line) for line in lines]),
                    np.concatenate([np.zeros(0, dtype=np.int64)] + lines),
                ),
            ]
        )
    else:
        raise TypeError(f"cannot threshold dataset of type {type(dataset).__name__}")

    out = UnstructuredGrid(dataset.get_points().copy())
    for name in dataset.point_data.names():
        out.add_point_array(name, dataset.point_data[name].values.copy())
    keep = cells_passing(inside[cells.connectivity], cells.offsets, all_points)
    out.add_cell_arrays(*take_cells(cells, np.flatnonzero(keep)))
    return out
