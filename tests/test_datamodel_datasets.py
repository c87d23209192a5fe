"""Unit tests for ImageData, PolyData and UnstructuredGrid."""

import numpy as np
import pytest

from repro.datamodel import CellType, ImageData, PolyData, UnstructuredGrid
from repro.datamodel.arrays import AssociationError


class TestImageData:
    def test_point_and_cell_counts(self):
        img = ImageData((3, 4, 5))
        assert img.n_points == 60
        assert img.n_cells == 2 * 3 * 4

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            ImageData((0, 2, 2))
        with pytest.raises(ValueError):
            ImageData((2, 2))

    def test_invalid_spacing(self):
        with pytest.raises(ValueError):
            ImageData((2, 2, 2), spacing=(1, 0, 1))

    def test_point_id_roundtrip(self):
        img = ImageData((3, 4, 5))
        for pid in (0, 7, 33, 59):
            i, j, k = img.point_index(pid)
            assert img.point_id(i, j, k) == pid

    def test_point_id_out_of_range(self):
        img = ImageData((2, 2, 2))
        with pytest.raises(IndexError):
            img.point_id(2, 0, 0)
        with pytest.raises(IndexError):
            img.point_index(8)

    def test_points_ordering_x_fastest(self):
        img = ImageData((2, 2, 1), origin=(0, 0, 0), spacing=(1, 1, 1))
        pts = img.get_points()
        assert np.allclose(pts[0], [0, 0, 0])
        assert np.allclose(pts[1], [1, 0, 0])
        assert np.allclose(pts[2], [0, 1, 0])

    def test_bounds(self):
        img = ImageData((3, 3, 3), origin=(-1, -1, -1), spacing=(1, 1, 1))
        assert img.bounds().as_tuple() == (-1, 1, -1, 1, -1, 1)

    def test_scalar_volume_roundtrip(self):
        img = ImageData((3, 4, 5))
        vol = np.arange(60, dtype=float).reshape(5, 4, 3)
        img.set_scalar_volume("f", vol)
        assert np.allclose(img.scalar_volume("f"), vol)
        assert img.point_data["f"].n_tuples == 60

    def test_scalar_volume_shape_mismatch(self):
        img = ImageData((3, 3, 3))
        with pytest.raises(ValueError):
            img.set_scalar_volume("f", np.zeros((2, 3, 3)))

    def test_vector_volume_roundtrip(self):
        img = ImageData((2, 2, 2))
        vol = np.random.default_rng(0).random((2, 2, 2, 3))
        img.set_vector_volume("v", vol)
        assert np.allclose(img.vector_volume("v"), vol)

    def test_scalar_volume_requires_scalar(self):
        img = ImageData((2, 2, 2))
        img.set_vector_volume("v", np.zeros((2, 2, 2, 3)))
        with pytest.raises(ValueError):
            img.scalar_volume("v")

    def test_world_to_continuous_index(self):
        img = ImageData((3, 3, 3), origin=(1, 1, 1), spacing=(2, 2, 2))
        idx = img.world_to_continuous_index([[2.0, 1.0, 5.0]])
        assert np.allclose(idx[0], [0.5, 0.0, 2.0])

    def test_add_point_array_validates_count(self):
        img = ImageData((2, 2, 2))
        with pytest.raises(AssociationError):
            img.add_point_array("bad", np.zeros(5))

    def test_copy_structure_has_no_arrays(self):
        img = ImageData((2, 2, 2))
        img.set_scalar_volume("f", np.zeros((2, 2, 2)))
        assert img.copy_structure().point_data.names() == []

    def test_scalar_range(self):
        img = ImageData((2, 2, 2))
        img.add_point_array("f", np.arange(8, dtype=float))
        assert img.scalar_range("f") == (0.0, 7.0)
        with pytest.raises(KeyError):
            img.scalar_range("missing")


class TestPolyData:
    def test_empty(self):
        poly = PolyData()
        assert poly.is_empty
        assert poly.n_cells == 0

    def test_from_points_only(self):
        poly = PolyData.from_points_only(np.random.rand(5, 3))
        assert poly.n_verts == 5
        assert poly.n_cells == 5

    def test_triangle_counts_and_validation(self):
        pts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=float)
        poly = PolyData(points=pts, triangles=[[0, 1, 2]])
        assert poly.n_triangles == 1
        with pytest.raises(IndexError):
            PolyData(points=pts, triangles=[[0, 1, 5]])

    def test_line_validation(self):
        pts = np.zeros((3, 3))
        with pytest.raises(ValueError):
            PolyData(points=pts, lines=[[0]])
        with pytest.raises(IndexError):
            PolyData(points=pts, lines=[[0, 9]])

    def test_triangle_normals_unit_length(self):
        pts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=float)
        poly = PolyData(points=pts, triangles=[[0, 1, 2]])
        n = poly.triangle_normals()
        assert np.allclose(np.linalg.norm(n, axis=1), 1.0)
        assert np.allclose(np.abs(n[0]), [0, 0, 1])

    def test_point_normals_shape(self):
        pts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]], dtype=float)
        poly = PolyData(points=pts, triangles=[[0, 1, 2], [1, 3, 2]])
        assert poly.point_normals().shape == (4, 3)

    def test_surface_area(self):
        pts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=float)
        poly = PolyData(points=pts, triangles=[[0, 1, 2]])
        assert poly.surface_area() == pytest.approx(0.5)

    def test_line_segments(self):
        pts = np.zeros((4, 3))
        poly = PolyData(points=pts, lines=[[0, 1, 2], [2, 3]])
        segs = poly.line_segments()
        assert segs.shape == (3, 2)

    def test_edges_unique(self):
        pts = np.zeros((4, 3))
        poly = PolyData(points=pts, triangles=[[0, 1, 2], [0, 2, 3]])
        edges = poly.edges()
        # shared edge (0,2) counted once
        assert edges.shape[0] == 5

    def test_merged_with_offsets_connectivity(self):
        a = PolyData(points=[[0, 0, 0], [1, 0, 0], [0, 1, 0]], triangles=[[0, 1, 2]])
        a.add_point_array("s", [1.0, 2.0, 3.0])
        b = PolyData(points=[[0, 0, 1], [1, 0, 1], [0, 1, 1]], triangles=[[0, 1, 2]])
        b.add_point_array("s", [4.0, 5.0, 6.0])
        merged = a.merged_with(b)
        assert merged.n_points == 6
        assert merged.n_triangles == 2
        assert merged.triangles[1].min() >= 3
        assert np.allclose(merged.point_data["s"].as_scalar(), [1, 2, 3, 4, 5, 6])

    def test_merged_drops_uncommon_arrays(self):
        a = PolyData(points=[[0, 0, 0]])
        a.add_point_array("only_a", [1.0])
        b = PolyData(points=[[1, 1, 1]])
        merged = a.merged_with(b)
        assert "only_a" not in merged.point_data

    def test_transformed_translation(self):
        poly = PolyData(points=[[1, 2, 3]])
        m = np.eye(4)
        m[:3, 3] = [10, 0, 0]
        moved = poly.transformed(m)
        assert np.allclose(moved.points[0], [11, 2, 3])

    def test_transformed_requires_4x4(self):
        with pytest.raises(ValueError):
            PolyData(points=[[0, 0, 0]]).transformed(np.eye(3))

    def test_copy_independent(self):
        poly = PolyData(points=[[0, 0, 0]])
        other = poly.copy()
        other.points[0, 0] = 9.0
        assert poly.points[0, 0] == 0.0


class TestUnstructuredGrid:
    def _tet_grid(self):
        pts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float)
        grid = UnstructuredGrid(pts)
        grid.add_cell(CellType.TETRA, (0, 1, 2, 3))
        return grid

    def test_add_cell_and_counts(self):
        grid = self._tet_grid()
        assert grid.n_cells == 1
        assert grid.cell(0)[0] == CellType.TETRA

    def test_add_cell_validates_ids(self):
        grid = UnstructuredGrid(np.zeros((2, 3)))
        with pytest.raises(IndexError):
            grid.add_cell(CellType.LINE, (0, 5))

    def test_add_cell_validates_size(self):
        grid = UnstructuredGrid(np.zeros((4, 3)))
        with pytest.raises(ValueError):
            grid.add_cell(CellType.TETRA, (0, 1, 2))

    def test_add_cells_accepts_empty_input(self):
        grid = UnstructuredGrid(np.zeros((3, 3)))
        grid.add_cells(CellType.TRIANGLE, [])
        grid.add_cells(CellType.TRIANGLE, np.zeros((0, 3), dtype=np.int64))
        assert grid.n_cells == 0 and list(grid.cells()) == []

    @pytest.mark.parametrize(
        "cell_type, conn, error",
        [
            (CellType.LINE, (0, 5), IndexError),
            (CellType.LINE, (-1, 0), IndexError),
            (CellType.TETRA, (0, 1, 2), ValueError),
            (2, (0, 1), ValueError),  # not a cell-type code
            (99, (0,), ValueError),
        ],
    )
    def test_bulk_add_raises_like_add_cell(self, cell_type, conn, error):
        grid = UnstructuredGrid(np.zeros((4, 3)))
        grid.add_cell(CellType.VERTEX, (0,))
        with pytest.raises(error) as single:
            grid.add_cell(cell_type, conn)
        with pytest.raises(error) as bulk:
            grid.add_cell_arrays(
                [CellType.VERTEX, cell_type], [0, 1, 1 + len(conn)], (1,) + conn
            )
        assert str(bulk.value) == str(single.value)
        if int(cell_type) in {int(ct) for ct in CellType}:
            with pytest.raises(error) as rows:
                grid.add_cells(cell_type, [conn])
            assert str(rows.value) == str(single.value)
        assert list(grid.cells()) == [(CellType.VERTEX, (0,))]  # nothing appended

    def test_interleaved_adds_keep_insertion_order(self):
        grid = UnstructuredGrid(np.zeros((5, 3)))
        assert grid.add_cell(CellType.VERTEX, (4,)) == 0
        grid.add_cells(CellType.LINE, [(0, 1), (1, 2)])
        assert grid.add_cell(CellType.TRIANGLE, (0, 1, 2)) == 3
        assert grid.n_cells == 4  # counts the pending cell without a fold
        grid.add_cell_arrays([CellType.POLY_LINE, CellType.VERTEX], [0, 3, 4], [3, 2, 1, 0])
        assert list(grid.cells()) == [
            (CellType.VERTEX, (4,)),
            (CellType.LINE, (0, 1)),
            (CellType.LINE, (1, 2)),
            (CellType.TRIANGLE, (0, 1, 2)),
            (CellType.POLY_LINE, (3, 2, 1)),
            (CellType.VERTEX, (0,)),
        ]
        assert grid.cell(-2) == (CellType.POLY_LINE, (3, 2, 1))
        types, offsets, conn = grid.cell_arrays()
        assert types.tolist() == [1, 3, 3, 5, 4, 1]
        assert offsets.tolist() == [0, 1, 3, 5, 8, 11, 12]
        with pytest.raises(ValueError):
            conn[0] = 1  # read-only views

    def test_read_and_unread_grids_fingerprint_and_pickle_alike(self):
        from repro.datamodel import dumps_payload

        def build():
            grid = UnstructuredGrid(np.arange(15, dtype=float).reshape(5, 3))
            grid.add_cell(CellType.TETRA, (0, 1, 2, 3))
            grid.add_cells(CellType.TRIANGLE, [(1, 2, 4)])
            grid.add_cell(CellType.VERTEX, (4,))
            grid.add_point_array("s", np.arange(5, dtype=float))
            return grid

        read, unread = build(), build()
        assert len(list(read.cells())) == 3  # folds the pending buffer
        assert read.content_fingerprint() == unread.content_fingerprint()
        assert dumps_payload(read) == dumps_payload(build())
        assert dumps_payload(unread) == dumps_payload(read)

    def test_cells_of_type(self):
        grid = self._tet_grid()
        assert grid.cells_of_type(CellType.TETRA).shape == (1, 4)
        assert grid.cells_of_type(CellType.TRIANGLE).size == 0

    def test_extract_surface_of_tet(self):
        surface = self._tet_grid().extract_surface()
        assert surface.n_triangles == 4

    def test_extract_surface_shared_faces_removed(self):
        pts = np.array(
            [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]], dtype=float
        )
        grid = UnstructuredGrid(pts)
        grid.add_cell(CellType.TETRA, (0, 1, 2, 3))
        grid.add_cell(CellType.TETRA, (1, 2, 3, 4))
        surface = grid.extract_surface()
        # two tets sharing one face: 8 faces total, 2 internal -> 6 boundary
        assert surface.n_triangles == 6

    def test_extract_surface_keeps_point_data(self):
        grid = self._tet_grid()
        grid.add_point_array("s", [0.0, 1.0, 2.0, 3.0])
        surface = grid.extract_surface()
        assert "s" in surface.point_data

    def test_tetrahedralized_hex(self):
        pts = np.array(
            [
                [0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0],
                [0, 0, 1], [1, 0, 1], [1, 1, 1], [0, 1, 1],
            ],
            dtype=float,
        )
        grid = UnstructuredGrid(pts)
        grid.add_cell(CellType.HEXAHEDRON, tuple(range(8)))
        tet_grid = grid.tetrahedralized()
        assert tet_grid.n_cells == 5
        assert all(t == CellType.TETRA for t in tet_grid.cell_types())

    def test_edges(self):
        grid = self._tet_grid()
        assert grid.edges().shape == (6, 2)

    def test_cell_centers(self):
        grid = self._tet_grid()
        centers = grid.cell_centers()
        assert np.allclose(centers[0], [0.25, 0.25, 0.25])

    def test_as_point_cloud(self):
        grid = self._tet_grid()
        grid.add_point_array("s", [0.0, 1.0, 2.0, 3.0])
        cloud = grid.as_point_cloud()
        assert cloud.n_verts == 4
        assert "s" in cloud.point_data

    def test_has_volumetric_cells(self):
        grid = self._tet_grid()
        assert grid.has_volumetric_cells()
        empty = UnstructuredGrid(np.zeros((1, 3)))
        empty.add_cell(CellType.VERTEX, (0,))
        assert not empty.has_volumetric_cells()

    def test_copy_independent(self):
        grid = self._tet_grid()
        grid.add_point_array("s", [0.0, 1.0, 2.0, 3.0])
        other = grid.copy()
        other.points[0, 0] = 5.0
        assert grid.points[0, 0] == 0.0
        assert other.n_cells == grid.n_cells
