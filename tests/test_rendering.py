"""Tests for transforms, camera, colormaps, transfer functions, framebuffer,
rasterizer, volume renderer and scene rendering."""

import numpy as np
import pytest

from repro.datamodel import Bounds
from repro.rendering import (
    Actor,
    Camera,
    ColorTransferFunction,
    Framebuffer,
    LookupTable,
    OpacityTransferFunction,
    RepresentationType,
    Scene,
    default_transfer_functions,
    get_colormap,
    list_colormaps,
    look_at_matrix,
    perspective_matrix,
    rasterize_lines,
    rasterize_points,
    rasterize_triangles,
    render_scene,
    viewport_transform,
    volume_render,
)
from repro.rendering.transforms import (
    normalize,
    orthographic_matrix,
    rotation_about_axis,
    transform_points,
)


class TestTransforms:
    def test_normalize(self):
        assert np.allclose(normalize([0, 0, 5]), [0, 0, 1])
        with pytest.raises(ValueError):
            normalize([0, 0, 0])

    def test_look_at_places_eye_at_origin(self):
        view = look_at_matrix([0, 0, 5], [0, 0, 0], [0, 1, 0])
        eye_cam = (view @ np.array([0, 0, 5, 1]))[:3]
        assert np.allclose(eye_cam, 0, atol=1e-12)

    def test_look_at_target_on_negative_z(self):
        view = look_at_matrix([0, 0, 5], [0, 0, 0], [0, 1, 0])
        target_cam = (view @ np.array([0, 0, 0, 1]))[:3]
        assert target_cam[2] == pytest.approx(-5.0)

    def test_look_at_coincident_raises(self):
        with pytest.raises(ValueError):
            look_at_matrix([1, 1, 1], [1, 1, 1], [0, 1, 0])

    def test_perspective_matrix_properties(self):
        proj = perspective_matrix(45.0, 2.0, 0.1, 100.0)
        assert proj[3, 2] == -1.0
        with pytest.raises(ValueError):
            perspective_matrix(45.0, 1.0, 1.0, 0.5)

    def test_orthographic_matrix(self):
        proj = orthographic_matrix(2.0, 1.0, 0.1, 10.0)
        assert proj[0, 0] == pytest.approx(1.0)

    def test_viewport_transform_corners(self):
        ndc = np.array([[-1.0, 1.0, 0.0], [1.0, -1.0, 0.5]])
        screen = viewport_transform(ndc, 100, 50)
        assert np.allclose(screen[0, :2], [0, 0])
        assert np.allclose(screen[1, :2], [99, 49])

    def test_transform_points(self):
        matrix = np.eye(4)
        matrix[0, 3] = 2.0
        xyz, w = transform_points(matrix, [[1, 1, 1]])
        assert np.allclose(xyz[0], [3, 1, 1])
        assert w[0] == 1.0

    def test_rotation_about_axis(self):
        rot = rotation_about_axis([0, 0, 1], 90.0)
        rotated = (rot @ np.array([1, 0, 0, 1]))[:3]
        assert np.allclose(rotated, [0, 1, 0], atol=1e-12)


class TestCamera:
    def test_reset_frames_bounds(self):
        camera = Camera()
        bounds = Bounds(-1, 1, -1, 1, -1, 1)
        camera.reset(bounds)
        assert camera.distance > bounds.diagonal / 2
        assert np.allclose(camera.focal_point, bounds.center)

    def test_look_along_axis(self):
        camera = Camera()
        bounds = Bounds(-1, 1, -1, 1, -1, 1)
        camera.look_along_axis("+x", bounds)
        assert camera.direction[0] == pytest.approx(1.0)
        with pytest.raises(ValueError):
            camera.look_along_axis("+w", bounds)

    def test_isometric_direction(self):
        camera = Camera().isometric_view(Bounds(-1, 1, -1, 1, -1, 1))
        d = camera.direction
        assert d[0] == pytest.approx(d[1]) == pytest.approx(d[2])

    def test_azimuth_preserves_distance(self):
        camera = Camera(position=(0, 0, 5))
        before = camera.distance
        camera.azimuth(37.0)
        assert camera.distance == pytest.approx(before)

    def test_elevation_preserves_distance(self):
        camera = Camera(position=(0, 0, 5))
        before = camera.distance
        camera.elevation(15.0)
        assert camera.distance == pytest.approx(before)

    def test_dolly(self):
        camera = Camera(position=(0, 0, 4))
        camera.dolly(2.0)
        assert camera.distance == pytest.approx(2.0)
        with pytest.raises(ValueError):
            camera.dolly(0.0)

    def test_view_projection_shapes(self):
        camera = Camera()
        assert camera.view_projection_matrix(1.5).shape == (4, 4)

    def test_parallel_projection(self):
        camera = Camera(parallel_projection=True, parallel_scale=2.0)
        camera.reset(Bounds(-1, 1, -1, 1, -1, 1))
        proj = camera.projection_matrix(1.0)
        assert proj[3, 3] == 1.0  # orthographic

    def test_copy_independent(self):
        camera = Camera()
        clone = camera.copy()
        clone.view_angle = 60.0
        assert camera.view_angle == 30.0


class TestColormapsAndTransferFunctions:
    def test_presets_available(self):
        assert "Cool to Warm" in list_colormaps()
        assert "Viridis" in list_colormaps()

    def test_get_colormap_case_insensitive(self):
        assert get_colormap("cool to warm").name == "Cool to Warm"
        with pytest.raises(KeyError):
            get_colormap("not-a-map")

    def test_lookup_table_endpoints(self):
        lut = get_colormap("Grayscale", scalar_range=(0.0, 10.0))
        assert np.allclose(lut.map_scalar(0.0), (0, 0, 0))
        assert np.allclose(lut.map_scalar(10.0), (1, 1, 1))

    def test_lookup_table_clamps(self):
        lut = get_colormap("Grayscale", scalar_range=(0.0, 1.0))
        assert np.allclose(lut.map_scalar(99.0), (1, 1, 1))

    def test_lookup_table_nan_color(self):
        lut = LookupTable(scalar_range=(0, 1))
        color = lut.map_scalars(np.array([np.nan]))[0]
        assert np.allclose(color, lut.nan_color)

    def test_rescale(self):
        lut = LookupTable()
        lut.rescale(5.0, 2.0)
        assert lut.scalar_range == (2.0, 5.0)

    def test_needs_two_control_points(self):
        with pytest.raises(ValueError):
            LookupTable(control_points=[(0.0, 1, 1, 1)])

    def test_color_transfer_function_interpolation(self):
        ctf = ColorTransferFunction()
        ctf.add_point(0.0, 0, 0, 0).add_point(1.0, 1, 1, 1)
        assert np.allclose(ctf.map_scalars([0.5])[0], [0.5, 0.5, 0.5])

    def test_color_transfer_rescale(self):
        ctf = ColorTransferFunction().add_point(0, 1, 0, 0).add_point(1, 0, 0, 1)
        ctf.rescale(10, 20)
        assert ctf.scalar_range == (10, 20)

    def test_opacity_transfer_function(self):
        otf = OpacityTransferFunction().add_point(0, 0.0).add_point(1, 1.0)
        assert otf.map_scalars([0.25])[0] == pytest.approx(0.25)

    def test_default_transfer_functions(self):
        ctf, otf = default_transfer_functions(2.0, 8.0)
        assert ctf.scalar_range == (2.0, 8.0)
        assert otf.map_scalars([2.0])[0] == pytest.approx(0.0)
        assert otf.map_scalars([8.0])[0] == pytest.approx(0.35)

    def test_from_preset_unknown(self):
        with pytest.raises(KeyError):
            ColorTransferFunction.from_preset("nope", 0, 1)


class TestFramebuffer:
    def test_clear_and_background(self):
        fb = Framebuffer(10, 5, background=(0.2, 0.3, 0.4))
        assert np.allclose(fb.color[0, 0], [0.2, 0.3, 0.4])
        fb.color[:] = 0.0
        fb.clear((1, 1, 1))
        assert np.allclose(fb.color[2, 2], [1, 1, 1])

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            Framebuffer(0, 10)

    def test_to_uint8_and_save(self, work_dir):
        fb = Framebuffer(4, 4)
        path = fb.save(work_dir / "fb.png")
        assert path.exists()
        assert fb.to_uint8().dtype == np.uint8

    def test_coverage(self):
        fb = Framebuffer(4, 4)
        assert fb.coverage() == 0.0
        fb.depth[0, 0] = 0.5
        assert fb.coverage() == pytest.approx(1 / 16)

    def test_resized(self):
        fb = Framebuffer(4, 4)
        fb.color[0, 0] = [1, 0, 0]
        big = fb.resized(8, 8)
        assert big.width == 8 and big.height == 8
        assert np.allclose(big.color[0, 0], [1, 0, 0])


def _screen_triangle():
    # a right triangle covering the lower-left of a 20x20 image
    points = np.array([[1.0, 1.0, 0.5], [18.0, 1.0, 0.5], [1.0, 18.0, 0.5]])
    triangles = np.array([[0, 1, 2]])
    colors = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float)
    return points, triangles, colors


class TestRasterizer:
    def test_triangle_fills_pixels(self):
        fb = Framebuffer(20, 20)
        pts, tris, cols = _screen_triangle()
        drawn = rasterize_triangles(fb, pts, tris, cols)
        assert drawn == 1
        assert fb.coverage() > 0.2

    def test_depth_test_front_wins(self):
        fb = Framebuffer(20, 20)
        pts, tris, cols = _screen_triangle()
        rasterize_triangles(fb, pts, tris, np.ones((3, 3)) * 0.5)
        closer = pts.copy()
        closer[:, 2] = 0.1
        rasterize_triangles(fb, closer, tris, np.zeros((3, 3)))
        assert fb.color[5, 5, 0] == pytest.approx(0.0)
        farther = pts.copy()
        farther[:, 2] = 0.9
        rasterize_triangles(fb, farther, tris, np.ones((3, 3)))
        assert fb.color[5, 5, 0] == pytest.approx(0.0)  # still the closest one

    def test_color_interpolation(self):
        fb = Framebuffer(20, 20)
        pts, tris, cols = _screen_triangle()
        rasterize_triangles(fb, pts, tris, cols)
        corner = fb.color[2, 2]
        assert corner[0] > corner[2]  # near the red vertex

    def test_degenerate_triangle_skipped(self):
        fb = Framebuffer(10, 10)
        pts = np.array([[1, 1, 0], [5, 5, 0], [9, 9, 0]], dtype=float)
        drawn = rasterize_triangles(fb, pts, np.array([[0, 1, 2]]), np.ones((3, 3)))
        assert drawn in (0, 1)
        # degenerate (zero-area) triangles must not corrupt the buffer
        assert np.isfinite(fb.color).all()

    def test_offscreen_triangle_culled(self):
        fb = Framebuffer(10, 10)
        pts = np.array([[100, 100, 0], [110, 100, 0], [100, 110, 0]], dtype=float)
        rasterize_triangles(fb, pts, np.array([[0, 1, 2]]), np.ones((3, 3)))
        assert fb.coverage() == 0.0

    def test_invalid_vertices_skipped(self):
        fb = Framebuffer(10, 10)
        pts, tris, cols = _screen_triangle()
        valid = np.array([True, True, False])
        drawn = rasterize_triangles(fb, pts, tris, cols, valid_vertices=valid)
        assert drawn == 0

    def test_lines(self):
        fb = Framebuffer(20, 20)
        pts = np.array([[0, 0, 0.5], [19, 19, 0.5]])
        drawn = rasterize_lines(fb, pts, np.array([[0, 1]]), np.ones((2, 3)) * 0.3)
        assert drawn == 1
        assert fb.coverage() > 0.0

    def test_points(self):
        fb = Framebuffer(20, 20)
        pts = np.array([[10, 10, 0.5]])
        rasterize_points(fb, pts, np.array([0]), np.ones((1, 3)), point_size=3)
        assert fb.coverage() > 0.0

    def test_offscreen_point_splat_reaches_only_its_own_pixels(self):
        # point_size=2 reaches one pixel around the centre: a point at x=-2
        # touches nothing on screen and must not be clamped onto column 0
        fb = Framebuffer(10, 10)
        rasterize_points(fb, np.array([[-2.0, 5.0, 0.5]]), np.array([0]), np.zeros((1, 3)), point_size=2)
        assert fb.coverage() == 0.0
        # point_size=3 at x=-1 genuinely covers column 0, rows 4..6
        fb = Framebuffer(10, 10)
        rasterize_points(fb, np.array([[-1.0, 5.0, 0.5]]), np.array([0]), np.zeros((1, 3)), point_size=3)
        covered = np.argwhere(np.isfinite(fb.depth))
        assert covered.tolist() == [[4, 0], [5, 0], [6, 0]]


class TestVectorizedSplatRegression:
    """The vectorised neighborhood splat must match the historical loop.

    The loop implementation is kept in the module as the reference oracle
    (``_splat_neighborhood_loop``); fragments arriving far-to-near make the
    two provably identical (every depth write is a strict improvement), so
    the random scenes sort by decreasing depth.
    """

    def _random_points(self, rng, n, width, height):
        pts = np.column_stack(
            [
                rng.uniform(-4, width + 4, n),   # includes off-screen splats
                rng.uniform(-4, height + 4, n),
                rng.uniform(0.05, 0.95, n),
            ]
        )
        return pts[np.argsort(-pts[:, 2])]

    @pytest.mark.parametrize("point_size", [1, 2, 3, 5])
    def test_points_match_loop_reference(self, point_size):
        from repro.rendering.rasterizer import _rasterize_points_reference

        rng = np.random.default_rng(2024 + point_size)
        pts = self._random_points(rng, 400, 64, 48)
        cols = rng.uniform(0, 1, (400, 3))
        ids = np.arange(400)

        fast = Framebuffer(64, 48)
        loop = Framebuffer(64, 48)
        drawn_fast = rasterize_points(fast, pts, ids, cols, point_size=point_size)
        drawn_loop = _rasterize_points_reference(loop, pts, ids, cols, point_size=point_size)

        assert drawn_fast == drawn_loop
        np.testing.assert_array_equal(fast.color, loop.color)
        np.testing.assert_array_equal(fast.depth, loop.depth)

    @pytest.mark.parametrize("line_width", [1, 3, 5])
    def test_lines_match_loop_reference(self, line_width):
        from repro.rendering.rasterizer import _rasterize_lines_reference

        rng = np.random.default_rng(7 + line_width)
        n = 80
        pts = np.column_stack(
            [rng.uniform(0, 64, n), rng.uniform(0, 48, n), rng.uniform(0.05, 0.95, n)]
        )
        segs = rng.integers(0, n, (60, 2))
        cols = rng.uniform(0, 1, (n, 3))

        fast = Framebuffer(64, 48)
        loop = Framebuffer(64, 48)
        drawn_fast = rasterize_lines(fast, pts, segs, cols, line_width=line_width)
        drawn_loop = _rasterize_lines_reference(loop, pts, segs, cols, line_width=line_width)

        assert drawn_fast == drawn_loop
        np.testing.assert_array_equal(fast.color, loop.color)
        np.testing.assert_array_equal(fast.depth, loop.depth)

    def test_lines_with_valid_mask_and_bias_match(self):
        from repro.rendering.rasterizer import _rasterize_lines_reference

        pts = np.array([[2, 2, 0.5], [30, 20, 0.3], [10, 40, 0.7], [50, 5, 0.2]], dtype=float)
        segs = np.array([[0, 1], [1, 2], [2, 3]])
        cols = np.eye(4, 3)
        valid = np.array([True, True, True, False])

        fast = Framebuffer(64, 48)
        loop = Framebuffer(64, 48)
        drawn_fast = rasterize_lines(fast, pts, segs, cols, valid_vertices=valid, line_width=3)
        drawn_loop = _rasterize_lines_reference(
            loop, pts, segs, cols, valid_vertices=valid, line_width=3
        )
        assert drawn_fast == drawn_loop == 2
        np.testing.assert_array_equal(fast.color, loop.color)

    def test_nearer_splat_wins_regardless_of_submission_order(self):
        # the vectorised path resolves same-batch collisions nearest-first —
        # submitting (far, near) or (near, far) must both show the near color
        for order in ([0, 1], [1, 0]):
            fb = Framebuffer(16, 16)
            pts = np.array([[8, 8, 0.9], [8, 8, 0.1]], dtype=float)
            cols = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
            rasterize_points(fb, pts, np.array(order), cols, point_size=2)
            np.testing.assert_array_equal(fb.color[8, 8], [0.0, 1.0, 0.0])

    def test_empty_inputs_draw_nothing(self):
        fb = Framebuffer(8, 8)
        assert rasterize_points(fb, np.zeros((0, 3)), np.zeros(0, int), np.zeros((0, 3))) == 0
        assert rasterize_lines(fb, np.zeros((0, 3)), np.zeros((0, 2), int), np.zeros((0, 3))) == 0
        assert fb.coverage() == 0.0


class TestSceneRendering:
    def test_surface_scene(self, sphere_field, test_resolution):
        from repro.algorithms import contour

        surface = contour(sphere_field, 0.5, "scalar")
        scene = Scene()
        scene.add(Actor(surface, color_by="scalar"))
        camera = Camera().isometric_view(scene.bounds())
        fb = render_scene(scene, camera, *test_resolution)
        assert fb.coverage() > 0.02
        # colored content present (not just white background)
        assert fb.color.min() < 0.9

    def test_wireframe_scene(self, can_points_small, test_resolution):
        from repro.algorithms import delaunay_3d

        grid = delaunay_3d(can_points_small, backend="qhull")
        scene = Scene()
        scene.add(Actor(grid, representation=RepresentationType.WIREFRAME, color=(0, 0, 1)))
        camera = Camera().isometric_view(scene.bounds())
        fb = render_scene(scene, camera, *test_resolution)
        assert fb.coverage() > 0.005

    def test_points_representation(self, can_points_small, test_resolution):
        scene = Scene()
        scene.add(Actor(can_points_small, representation=RepresentationType.POINTS))
        camera = Camera().isometric_view(scene.bounds())
        fb = render_scene(scene, camera, *test_resolution)
        assert fb.coverage() > 0.0

    def test_outline_representation(self, sphere_field, test_resolution):
        scene = Scene()
        scene.add(Actor(sphere_field, representation=RepresentationType.OUTLINE))
        camera = Camera().isometric_view(scene.bounds())
        fb = render_scene(scene, camera, *test_resolution)
        assert fb.coverage() > 0.0

    def test_invisible_actor_not_rendered(self, sphere_field, test_resolution):
        from repro.algorithms import contour

        surface = contour(sphere_field, 0.5, "scalar")
        scene = Scene()
        scene.add(Actor(surface, visible=False))
        camera = Camera().isometric_view(Bounds(-1, 1, -1, 1, -1, 1))
        fb = render_scene(scene, camera, *test_resolution)
        assert fb.coverage() == 0.0

    def test_representation_from_string(self):
        assert RepresentationType.from_string("wireframe") == RepresentationType.WIREFRAME
        with pytest.raises(ValueError):
            RepresentationType.from_string("holographic")

    def test_scene_bounds_union(self, sphere_field, can_points_small):
        scene = Scene()
        scene.add(Actor(sphere_field))
        scene.add(Actor(can_points_small))
        union = scene.bounds()
        assert union.contains(can_points_small.bounds().center)
        assert union.contains(sphere_field.bounds().center)


class TestVolumeRendering:
    def test_volume_render_produces_content(self, marschner_lobb_small, test_resolution):
        camera = Camera().isometric_view(marschner_lobb_small.bounds())
        fb = volume_render(
            marschner_lobb_small, "var0", camera, *test_resolution, n_samples=40
        )
        assert fb.coverage() > 0.05
        assert fb.color.min() < 0.95

    def test_volume_scene_integration(self, marschner_lobb_small, test_resolution):
        scene = Scene()
        scene.add(
            Actor(
                marschner_lobb_small,
                representation=RepresentationType.VOLUME,
                volume_array="var0",
            )
        )
        camera = Camera().isometric_view(scene.bounds())
        fb = render_scene(scene, camera, *test_resolution, volume_samples=30)
        assert fb.coverage() > 0.05

    def test_volume_depth_is_entry_point_not_constant(
        self, marschner_lobb_small, test_resolution
    ):
        camera = Camera().isometric_view(marschner_lobb_small.bounds())
        fb = volume_render(
            marschner_lobb_small, "var0", camera, *test_resolution, n_samples=40
        )
        finite = np.isfinite(fb.depth)
        assert finite.any()
        assert not finite.all()  # background rays stay at +inf
        depths = fb.depth[finite]
        # NDC z of the per-ray box entry point: inside the clip range and
        # varying with the geometry (the old behaviour was a constant)
        assert np.abs(depths).max() <= 1.0 + 1e-9
        assert np.unique(depths).size > 10
        assert depths.std() > 0.0

    def test_volume_depth_moves_with_camera(self, marschner_lobb_small, test_resolution):
        bounds = marschner_lobb_small.bounds()
        near_cam = Camera().isometric_view(bounds)
        far_cam = near_cam.copy()
        far_cam.dolly(0.5)  # dolly < 1 moves the eye away from the focal point
        fb_near = volume_render(
            marschner_lobb_small, "var0", near_cam, *test_resolution, n_samples=40
        )
        fb_far = volume_render(
            marschner_lobb_small, "var0", far_cam, *test_resolution, n_samples=40
        )
        both = np.isfinite(fb_near.depth) & np.isfinite(fb_far.depth)
        assert both.any()
        assert not np.allclose(fb_near.depth[both], fb_far.depth[both])

    def test_missing_array_raises(self, marschner_lobb_small, test_resolution):
        camera = Camera().isometric_view(marschner_lobb_small.bounds())
        with pytest.raises(KeyError):
            volume_render(marschner_lobb_small, "missing", camera, *test_resolution)

    def test_camera_outside_looking_away_sees_nothing(self, marschner_lobb_small, test_resolution):
        camera = Camera(position=(10, 0, 0), focal_point=(20, 0, 0))
        fb = volume_render(marschner_lobb_small, "var0", camera, *test_resolution, n_samples=20)
        assert fb.coverage() == 0.0

    def test_upscaling_path(self, marschner_lobb_small):
        camera = Camera().isometric_view(marschner_lobb_small.bounds())
        fb = volume_render(
            marschner_lobb_small, "var0", camera, 600, 300, n_samples=20, max_casting_width=200
        )
        assert fb.width == 600 and fb.height == 300
