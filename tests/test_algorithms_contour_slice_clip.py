"""Tests for level-set extraction, contouring, slicing and clipping."""

import numpy as np
import pytest

from repro.algorithms import (
    clip_dataset,
    clip_polydata,
    clip_unstructured,
    contour,
    contour_lines,
    slice_dataset,
)
from repro.algorithms.implicit import Box, Plane, Sphere, plane_signed_distance
from repro.algorithms.isosurface import tetrahedra_of_dataset
from repro.datamodel import CellType, ImageData, UnstructuredGrid


class TestImplicit:
    def test_plane_signed_distance(self):
        d = plane_signed_distance([[1, 0, 0], [-2, 0, 0]], origin=(0, 0, 0), normal=(1, 0, 0))
        assert np.allclose(d, [1, -2])

    def test_plane_normal_normalised(self):
        d = plane_signed_distance([[2, 0, 0]], origin=(0, 0, 0), normal=(10, 0, 0))
        assert d[0] == pytest.approx(2.0)

    def test_plane_axis_aligned(self):
        plane = Plane.axis_aligned("y", 2.0)
        assert plane.evaluate(np.array([[0, 3, 0]]))[0] == pytest.approx(1.0)
        with pytest.raises(ValueError):
            Plane.axis_aligned("w")

    def test_zero_normal_rejected(self):
        with pytest.raises(ValueError):
            Plane(normal=(0, 0, 0)).evaluate(np.zeros((1, 3)))

    def test_sphere(self):
        sphere = Sphere(center=(0, 0, 0), radius=2.0)
        vals = sphere.evaluate(np.array([[0, 0, 0], [3, 0, 0]]))
        assert vals[0] == pytest.approx(-2.0)
        assert vals[1] == pytest.approx(1.0)

    def test_box(self):
        box = Box(bounds=(-1, 1, -1, 1, -1, 1))
        vals = box.evaluate(np.array([[0, 0, 0], [2, 0, 0]]))
        assert vals[0] < 0 < vals[1]


class TestTetrahedralDecomposition:
    def test_image_data_tet_count(self):
        img = ImageData((3, 3, 3))
        tets = tetrahedra_of_dataset(img)
        assert tets.shape == (8 * 6, 4)
        assert tets.max() < img.n_points

    def test_single_slab_has_no_tets(self):
        img = ImageData((3, 3, 1))
        assert tetrahedra_of_dataset(img).shape[0] == 0

    def test_unstructured_mixed_cells(self):
        grid = UnstructuredGrid(np.random.default_rng(0).random((8, 3)))
        grid.add_cell(CellType.TETRA, (0, 1, 2, 3))
        grid.add_cell(CellType.VERTEX, (7,))
        assert tetrahedra_of_dataset(grid).shape == (1, 4)

    def test_freudenthal_covers_cell_volume(self):
        img = ImageData((2, 2, 2), spacing=(1, 1, 1))
        tets = tetrahedra_of_dataset(img)
        pts = img.get_points()
        total = 0.0
        for tet in tets:
            p0, p1, p2, p3 = pts[tet]
            total += abs(np.dot(np.cross(p1 - p0, p2 - p0), p3 - p0)) / 6.0
        assert total == pytest.approx(1.0)


class TestContour:
    def test_sphere_isosurface_radius(self, sphere_field):
        # the 0.5 level set of 1 - |p| is the sphere of radius 0.5
        surface = contour(sphere_field, 0.5, "scalar")
        assert surface.n_triangles > 100
        radii = np.linalg.norm(surface.points, axis=1)
        assert np.all(np.abs(radii - 0.5) < 0.05)

    def test_normals_attached(self, sphere_field):
        surface = contour(sphere_field, 0.5, "scalar")
        assert "Normals" in surface.point_data

    def test_scalar_interpolated_onto_surface(self, sphere_field):
        surface = contour(sphere_field, 0.5, "scalar")
        values = surface.point_data["scalar"].as_scalar()
        assert np.allclose(values, 0.5, atol=1e-6)

    def test_empty_result_outside_range(self, sphere_field):
        surface = contour(sphere_field, 99.0, "scalar")
        assert surface.is_empty

    def test_multiple_isovalues_merge(self, sphere_field):
        single = contour(sphere_field, 0.5, "scalar")
        double = contour(sphere_field, [0.3, 0.5], "scalar")
        assert double.n_triangles > single.n_triangles

    def test_default_array_selection(self, sphere_field):
        assert not contour(sphere_field, 0.5).is_empty

    def test_missing_array_raises(self, sphere_field):
        with pytest.raises(KeyError):
            contour(sphere_field, 0.5, "nope")

    def test_no_isovalues_raises(self, sphere_field):
        with pytest.raises(ValueError):
            contour(sphere_field, [], "scalar")

    def test_contour_on_unstructured_grid(self):
        grid = UnstructuredGrid(
            np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float)
        )
        grid.add_cell(CellType.TETRA, (0, 1, 2, 3))
        grid.add_point_array("f", [0.0, 1.0, 1.0, 1.0])
        surface = contour(grid, 0.5, "f")
        assert surface.n_triangles == 1

    def test_marschner_lobb_isosurface_nonempty(self, marschner_lobb_small):
        surface = contour(marschner_lobb_small, 0.5, "var0")
        assert surface.n_triangles > 0
        assert surface.bounds().diagonal <= marschner_lobb_small.bounds().diagonal * 1.01

    def test_contour_lines_on_slice(self, marschner_lobb_small):
        cut = slice_dataset(marschner_lobb_small, origin=(0, 0, 0), normal=(1, 0, 0))
        lines = contour_lines(cut, 0.5, "var0")
        assert lines.n_lines > 0
        assert lines.n_triangles == 0
        # contour points stay in the slicing plane
        assert np.all(np.abs(lines.points[:, 0]) < 1e-8)


class TestSlice:
    def test_slice_plane_position(self, sphere_field):
        cut = slice_dataset(sphere_field, origin=(0.25, 0, 0), normal=(1, 0, 0))
        assert cut.n_triangles > 0
        assert np.allclose(cut.points[:, 0], 0.25, atol=1e-9)

    def test_slice_carries_point_data(self, sphere_field):
        cut = slice_dataset(sphere_field, origin=(0, 0, 0), normal=(0, 0, 1))
        assert "scalar" in cut.point_data

    def test_slice_outside_bounds_empty(self, sphere_field):
        cut = slice_dataset(sphere_field, origin=(10, 0, 0), normal=(1, 0, 0))
        assert cut.is_empty

    def test_slice_of_surface_gives_lines(self, sphere_field):
        surface = contour(sphere_field, 0.5, "scalar")
        section = slice_dataset(surface, origin=(0, 0, 0), normal=(0, 0, 1))
        assert section.n_lines > 0

    def test_slice_unstructured(self, disk_flow_small):
        cut = slice_dataset(disk_flow_small, origin=(0, 0, 0), normal=(0, 0, 1))
        assert cut.n_triangles > 0
        assert "Temp" in cut.point_data


class TestClip:
    def test_clip_polydata_keeps_negative_side(self, sphere_field):
        surface = contour(sphere_field, 0.5, "scalar")
        clipped = clip_polydata(surface, origin=(0, 0, 0), normal=(1, 0, 0), keep_negative=True)
        assert clipped.n_triangles > 0
        assert clipped.points[:, 0].max() <= 1e-6

    def test_clip_polydata_invert(self, sphere_field):
        surface = contour(sphere_field, 0.5, "scalar")
        clipped = clip_polydata(surface, origin=(0, 0, 0), normal=(1, 0, 0), keep_negative=False)
        assert clipped.points[:, 0].min() >= -1e-6

    def test_clip_preserves_point_data(self, sphere_field):
        surface = contour(sphere_field, 0.5, "scalar")
        clipped = clip_polydata(surface, keep_negative=True)
        assert "scalar" in clipped.point_data
        assert clipped.point_data["scalar"].n_tuples == clipped.n_points

    def test_clip_areas_sum_to_original(self, sphere_field):
        surface = contour(sphere_field, 0.5, "scalar")
        left = clip_polydata(surface, keep_negative=True)
        right = clip_polydata(surface, keep_negative=False)
        total = left.surface_area() + right.surface_area()
        assert total == pytest.approx(surface.surface_area(), rel=1e-6)

    def test_clip_unstructured_tets(self):
        pts = np.array(
            [[-1, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [0, -1, 0]], dtype=float
        )
        grid = UnstructuredGrid(pts)
        grid.add_cell(CellType.TETRA, (0, 1, 2, 3))
        grid.add_cell(CellType.TETRA, (0, 1, 4, 3))
        grid.add_point_array("f", np.arange(5, dtype=float))
        clipped = clip_unstructured(grid, origin=(0, 0, 0), normal=(1, 0, 0), keep_negative=True)
        assert clipped.n_cells > 0
        assert clipped.points[:, 0].max() <= 1e-9
        assert "f" in clipped.point_data

    def test_clip_unstructured_keeps_vertices(self):
        grid = UnstructuredGrid(np.array([[-1, 0, 0], [1, 0, 0]], dtype=float))
        grid.add_cell(CellType.VERTEX, (0,))
        grid.add_cell(CellType.VERTEX, (1,))
        clipped = clip_unstructured(grid, keep_negative=True)
        assert clipped.n_cells == 1

    def test_clip_unstructured_keeps_a_quad_on_the_kept_side(self):
        grid = UnstructuredGrid(
            np.array([[-2, 0, 0], [-1, 0, 0], [-1, 1, 0], [-2, 1, 0]], dtype=float)
        )
        grid.add_cell(CellType.QUAD, (0, 1, 2, 3))
        clipped = clip_unstructured(grid, keep_negative=True)
        assert clipped.n_points == 4
        assert list(clipped.cells()) == [
            (CellType.TRIANGLE, (0, 1, 2)),
            (CellType.TRIANGLE, (0, 2, 3)),
        ]

    def test_cut_quad_matches_its_two_triangles(self):
        pts = np.array([[-1, 0, 0], [1, 0, 0], [1, 1, 0], [-1, 1, 0.5]], dtype=float)
        quads = UnstructuredGrid(pts)
        quads.add_cell(CellType.QUAD, (0, 1, 2, 3))
        quads.add_point_array("f", np.arange(4, dtype=float))
        tris = UnstructuredGrid(pts)
        tris.add_cells(CellType.TRIANGLE, [(0, 1, 2), (0, 2, 3)])
        tris.add_point_array("f", np.arange(4, dtype=float))
        for keep_negative in (True, False):
            a = clip_unstructured(quads, origin=(0.2, 0, 0), keep_negative=keep_negative)
            b = clip_unstructured(tris, origin=(0.2, 0, 0), keep_negative=keep_negative)
            assert a.n_cells > 0
            assert np.array_equal(a.points, b.points)
            assert list(a.cells()) == list(b.cells())
            assert np.array_equal(a.point_data["f"].values, b.point_data["f"].values)

    def test_clip_whole_tet_inside(self):
        pts = np.array([[-3, 0, 0], [-2, 0, 0], [-2, 1, 0], [-2, 0, 1]], dtype=float)
        grid = UnstructuredGrid(pts)
        grid.add_cell(CellType.TETRA, (0, 1, 2, 3))
        clipped = clip_unstructured(grid, keep_negative=True)
        assert clipped.n_cells == 1

    def test_clip_whole_tet_outside(self):
        pts = np.array([[3, 0, 0], [2, 0, 0], [2, 1, 0], [2, 0, 1]], dtype=float)
        grid = UnstructuredGrid(pts)
        grid.add_cell(CellType.TETRA, (0, 1, 2, 3))
        clipped = clip_unstructured(grid, keep_negative=True)
        assert clipped.n_cells == 0

    def test_clip_volume_conserved_for_split_tet(self):
        pts = np.array([[-1, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float)
        grid = UnstructuredGrid(pts)
        grid.add_cell(CellType.TETRA, (0, 1, 2, 3))

        def total_volume(g):
            vol = 0.0
            for _t, conn in g.cells():
                p0, p1, p2, p3 = g.points[list(conn)]
                vol += abs(np.dot(np.cross(p1 - p0, p2 - p0), p3 - p0)) / 6.0
            return vol

        left = clip_unstructured(grid, keep_negative=True)
        right = clip_unstructured(grid, keep_negative=False)
        assert total_volume(left) + total_volume(right) == pytest.approx(total_volume(grid), rel=1e-9)

    def test_clip_dataset_dispatch_image(self, sphere_field):
        clipped = clip_dataset(sphere_field, origin=(0, 0, 0), normal=(0, 1, 0))
        assert isinstance(clipped, UnstructuredGrid)
        assert clipped.n_cells > 0

    def test_clip_with_sphere_function(self, sphere_field):
        surface = contour(sphere_field, 0.5, "scalar")
        clipped = clip_polydata(surface, function=Sphere(center=(0, 0, 0), radius=0.4))
        assert clipped.n_triangles < surface.n_triangles
