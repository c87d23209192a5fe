"""Parity tests pinning the vectorized kernels against their ``_*_loop`` seeds.

Every hot-path rewrite in the kernel campaign keeps the historical
implementation as a ``_*_loop`` reference; these tests are the contract: the
fast path must reproduce the reference bit-for-bit where the arithmetic is
unchanged, and within a quantified tolerance where it legitimately
reassociates floats (index-space ray marching, early ray termination).
"""

from __future__ import annotations

import importlib

import numpy as np
import pytest

from repro.algorithms.delaunay3d import _bowyer_watson, _bowyer_watson_loop
from repro.algorithms.interpolation import (
    TrilinearSampler,
    _trilinear_gather_loop,
)
from repro.algorithms.isosurface import (
    _collect_line_corners,
    _collect_line_corners_loop,
    _collect_surface_corners,
    _collect_surface_corners_loop,
    _extract_level_set_loop,
    _unique_edges,
    _unique_edges_loop,
    extract_level_set,
)
from repro.algorithms.stream_tracer import (
    StreamTracerOptions,
    _trace_batch_loop,
    _trace_batch_signed,
    stream_tracer,
)
from repro.data.disk_flow import generate_disk_flow
from repro.data.marschner_lobb import generate_marschner_lobb
from repro.rendering.camera import Camera
from repro.rendering.transfer_function import (
    ColorTransferFunction,
    default_transfer_functions,
)

volume_render_module = importlib.import_module("repro.rendering.volume_render")
interpolation_module = importlib.import_module("repro.algorithms.interpolation")


@pytest.fixture(scope="module")
def ml20():
    return generate_marschner_lobb(20)


@pytest.fixture(scope="module")
def level_set_inputs(ml20):
    scalars = np.asarray(ml20.point_data["var0"].values, dtype=np.float64).reshape(-1)
    return ml20, scalars - 0.5


class TestIsosurfaceParity:
    def test_surface_corners_match_loop(self, level_set_inputs):
        from repro.algorithms.isosurface import tetrahedra_of_dataset

        dataset, g = level_set_inputs
        tets = tetrahedra_of_dataset(dataset)
        below = g[tets] < 0.0
        mask = (
            below[:, 0].astype(np.int64)
            | (below[:, 1].astype(np.int64) << 1)
            | (below[:, 2].astype(np.int64) << 2)
            | (below[:, 3].astype(np.int64) << 3)
        )
        fast_a, fast_b = _collect_surface_corners(tets, mask)
        loop_a, loop_b = _collect_surface_corners_loop(tets, mask)
        assert np.array_equal(fast_a, loop_a)
        assert np.array_equal(fast_b, loop_b)

    def test_line_corners_match_loop(self, ml20):
        rng = np.random.default_rng(3)
        tris = rng.integers(0, 50, size=(200, 3))
        below = rng.random(50)[tris] < 0.5
        mask = (
            below[:, 0].astype(np.int64)
            | (below[:, 1].astype(np.int64) << 1)
            | (below[:, 2].astype(np.int64) << 2)
        )
        fast_a, fast_b = _collect_line_corners(tris, mask)
        loop_a, loop_b = _collect_line_corners_loop(tris, mask)
        assert np.array_equal(fast_a, loop_a)
        assert np.array_equal(fast_b, loop_b)

    def test_unique_edges_match_loop(self):
        rng = np.random.default_rng(11)
        corner_a = rng.integers(0, 300, 1000)
        corner_b = rng.integers(0, 300, 1000)
        fast = _unique_edges(corner_a, corner_b, 300)
        loop = _unique_edges_loop(corner_a, corner_b, 300)
        for fast_part, loop_part in zip(fast, loop):
            assert np.array_equal(fast_part, loop_part)

    def test_extract_level_set_bit_equal_end_to_end(self, level_set_inputs):
        dataset, g = level_set_inputs
        fast = extract_level_set(dataset, g)
        loop = _extract_level_set_loop(dataset, g)
        assert np.array_equal(fast.points, loop.points)
        assert np.array_equal(fast.triangles, loop.triangles)
        assert fast.point_data.names() == loop.point_data.names()
        for name in fast.point_data.names():
            assert np.array_equal(
                fast.point_data[name].values, loop.point_data[name].values
            )


class TestTrilinearParity:
    def _world_points(self, image, n, seed=5):
        rng = np.random.default_rng(seed)
        bounds = image.bounds()
        lo = np.array([bounds.xmin, bounds.ymin, bounds.zmin])
        hi = np.array([bounds.xmax, bounds.ymax, bounds.zmax])
        span = hi - lo
        # overshoot the box on purpose: both paths clamp identically
        return lo - 0.1 * span + rng.random((n, 3)) * 1.2 * span

    def test_sampler_bit_equal_to_gather_loop(self, ml20):
        pts = self._world_points(ml20, 4000)
        sampler = TrilinearSampler(ml20, "var0")
        fast = sampler(pts)
        loop = _trilinear_gather_loop(ml20, "var0", pts)
        assert np.array_equal(fast, loop)

    def test_workspace_path_bit_equal(self, ml20):
        pts = self._world_points(ml20, 513, seed=6)
        sampler = TrilinearSampler(ml20, "var0")
        cont = ml20.world_to_continuous_index(pts)
        axes_a = np.ascontiguousarray(cont.T)
        axes_b = axes_a.copy()
        workspace = sampler.make_workspace(1024)
        with_ws = sampler.sample_continuous_axes(axes_a, workspace).copy()
        without_ws = sampler.sample_continuous_axes(axes_b)
        assert np.array_equal(with_ws, without_ws)
        # a sliced re-use of the same workspace (compacted working set)
        axes_c = np.ascontiguousarray(cont.T[:, :100])
        small = sampler.sample_continuous_axes(axes_c, workspace)
        assert np.array_equal(small, without_ws[:100])

    def test_nan_points_come_back_nan(self, ml20):
        # NaN handling is a feature of the sampler only: the pinned loop
        # predates it and faults on non-finite input
        pts = self._world_points(ml20, 10)
        pts[3] = np.nan
        pts[7, 1] = np.inf
        out = TrilinearSampler(ml20, "var0")(pts)
        assert np.isnan(out[3]) and np.isnan(out[7])
        finite_rows = [i for i in range(10) if i not in (3, 7)]
        assert np.isfinite(out[finite_rows]).all()


class TestTrilinearBoundaries:
    def test_exact_max_corner(self, ml20):
        bounds = ml20.bounds()
        corner = np.array([[bounds.xmax, bounds.ymax, bounds.zmax]])
        values = np.asarray(ml20.point_data["var0"].values, dtype=np.float64).reshape(-1)
        out = TrilinearSampler(ml20, "var0")(corner)
        assert out[0] == values[-1]

    def test_out_of_bounds_clamps_to_faces(self, ml20):
        bounds = ml20.bounds()
        inside = np.array([[bounds.xmin, bounds.ymin, bounds.zmin]])
        way_out = inside - 100.0
        sampler = TrilinearSampler(ml20, "var0")
        assert sampler(way_out)[0] == sampler(inside)[0]

    def test_single_slab_dimension(self):
        from repro.datamodel import ImageData

        image = ImageData(dimensions=(4, 4, 1), spacing=(1.0, 1.0, 1.0))
        values = np.arange(16, dtype=np.float64)
        image.point_data.add_array("f", values)
        sampler = TrilinearSampler(image, "f")
        out = sampler(np.array([[1.5, 2.5, 0.0], [0.0, 0.0, 5.0]]))
        # bilinear blend of flat ids 9/10/13/14 with exact 0.5 fractions
        assert out[0] == 11.5
        # the z overshoot clamps onto the slab instead of faulting
        assert out[1] == values[0]


class TestStreamTracerParity:
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_trace_batch_matches_loop(self, disk_flow_small, sign):
        from repro.algorithms.interpolation import FieldInterpolator

        interpolator = FieldInterpolator(disk_flow_small)
        rng = np.random.default_rng(9)
        bounds = disk_flow_small.bounds()
        lo = np.array([bounds.xmin, bounds.ymin, bounds.zmin])
        hi = np.array([bounds.xmax, bounds.ymax, bounds.zmax])
        seeds = lo + rng.random((12, 3)) * (hi - lo)
        options = StreamTracerOptions(max_steps=60)
        signs = np.full(len(seeds), sign)
        fast = _trace_batch_signed(interpolator, "V", seeds, options, signs)
        loop = _trace_batch_loop(interpolator, "V", seeds, options, sign)
        assert len(fast) == len(loop)
        for (fast_path, fast_t), (loop_path, loop_t) in zip(fast, loop):
            assert np.array_equal(fast_path, loop_path)
            assert np.array_equal(fast_t, loop_t)

    def test_stream_tracer_end_to_end_runs(self, disk_flow_small):
        poly = stream_tracer(disk_flow_small, "V", n_seed_points=10)
        assert poly.n_points > 0


class TestCompositeParity:
    def test_volume_render_matches_loop_within_termination_bound(self, ml20):
        camera = Camera().isometric_view(ml20.bounds())
        fast = volume_render_module.volume_render(
            ml20, "var0", camera, 96, 72, n_samples=40
        )
        saved = volume_render_module._composite_rays
        volume_render_module._composite_rays = volume_render_module._composite_rays_loop
        try:
            loop = volume_render_module.volume_render(
                ml20, "var0", camera, 96, 72, n_samples=40
            )
        finally:
            volume_render_module._composite_rays = saved
        # index-space marching reassociates floats (ulp-level) and early
        # termination truncates a saturated ray's tail, whose contribution is
        # bounded by its residual transmittance 1 - 0.995
        assert np.abs(fast.color - loop.color).max() <= 0.005 + 1e-9


class TestDelaunayParity:
    def test_bowyer_watson_bit_equal_random(self):
        rng = np.random.default_rng(7)
        points = rng.random((120, 3))
        assert np.array_equal(_bowyer_watson(points), _bowyer_watson_loop(points))

    def test_bowyer_watson_bit_equal_degenerate_grid(self):
        grid = np.stack(
            np.meshgrid(np.arange(4.0), np.arange(4.0), np.arange(4.0), indexing="ij"),
            axis=-1,
        ).reshape(-1, 3)
        assert np.array_equal(_bowyer_watson(grid), _bowyer_watson_loop(grid))


class TestTransferFunctionParity:
    def test_map_scalars_bit_equal_to_direct_interp(self):
        ctf, otf = default_transfer_functions(0.0, 1.0)
        values = np.random.default_rng(2).random(500)
        xs = np.array([p[0] for p in ctf.points])
        for channel in range(3):
            ys = np.array([p[1 + channel] for p in ctf.points])
            assert np.array_equal(
                ctf.map_scalars(values)[:, channel], np.interp(values, xs, ys)
            )
        oxs = np.array([p[0] for p in otf.points])
        oys = np.array([p[1] for p in otf.points])
        assert np.array_equal(otf.map_scalars(values), np.interp(values, oxs, oys))

    def test_channel_major_matches_row_major(self):
        ctf, _ = default_transfer_functions(0.0, 1.0)
        values = np.random.default_rng(4).random(64)
        rows = ctf.map_scalars(values)
        channels = ctf.map_scalars_channels(values, out=np.empty((3, 64)))
        assert np.array_equal(channels, rows.T)

    def test_cache_invalidates_when_points_change(self):
        ctf = ColorTransferFunction()
        ctf.add_point(0.0, 0.0, 0.0, 0.0).add_point(1.0, 1.0, 1.0, 1.0)
        before = ctf.map_scalars(np.array([0.5]))[0].copy()
        ctf.add_point(0.5, 1.0, 0.0, 0.0)
        after = ctf.map_scalars(np.array([0.5]))[0]
        assert not np.array_equal(before, after)

