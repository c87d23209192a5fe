"""Parity tests pinning the vectorized kernels against their ``_*_loop`` seeds.

Every hot-path rewrite in the kernel campaign keeps the historical
implementation as a ``_*_loop`` reference; these tests are the contract: the
fast path must reproduce the reference bit-for-bit where the arithmetic is
unchanged, and within a quantified tolerance where it legitimately
reassociates floats (index-space ray marching, early ray termination).
The rasterizer's pinned references (the three-path triangle rasterizer and
the per-segment line loop it replaced) live at the end of this file.
"""

from __future__ import annotations

import importlib
from typing import Optional

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

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
from repro.rendering import rasterizer
from repro.rendering.camera import Camera
from repro.rendering.framebuffer import Framebuffer
from repro.rendering.rasterizer import _neighborhood_offsets
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



# --------------------------------------------------------------------------- #
# Rasterizer: the fragment pipeline against its pinned predecessors.
#
# ``rasterizer.py`` draws every primitive through one fragment generator and
# one winner rule.  The implementations it replaced are pinned here verbatim —
# two fixed-tile triangle paths plus a per-triangle loop, and a per-segment
# line loop — and the current code must reproduce their ``color`` and
# ``depth`` buffers bit for bit.

# the pinned references' own tile sizes and batch bound; monkeypatching the
# module's ``_FRAGMENT_BATCH`` leaves these untouched
_TINY_TILE = 4
_TILE = 12
_FRAGMENT_BATCH = 2_000_000


def _rasterize_triangles_reference(
    framebuffer: Framebuffer,
    screen_points: np.ndarray,
    triangles: np.ndarray,
    vertex_colors: np.ndarray,
    valid_vertices: Optional[np.ndarray] = None,
) -> int:
    """The three-path triangle rasterizer the fragment pipeline replaced."""
    width, height = framebuffer.width, framebuffer.height
    color = framebuffer.color
    depth = framebuffer.depth

    pts = np.asarray(screen_points, dtype=np.float64)
    tris = np.asarray(triangles, dtype=np.int64)
    cols = np.asarray(vertex_colors, dtype=np.float64)
    if tris.size == 0:
        return 0

    if valid_vertices is not None:
        tri_ok = valid_vertices[tris].all(axis=1)
        tris = tris[tri_ok]
        if tris.size == 0:
            return 0

    # Precompute per-triangle vertex data.
    v0 = pts[tris[:, 0]]
    v1 = pts[tris[:, 1]]
    v2 = pts[tris[:, 2]]

    # Cull triangles completely outside the viewport.
    min_x = np.minimum(np.minimum(v0[:, 0], v1[:, 0]), v2[:, 0])
    max_x = np.maximum(np.maximum(v0[:, 0], v1[:, 0]), v2[:, 0])
    min_y = np.minimum(np.minimum(v0[:, 1], v1[:, 1]), v2[:, 1])
    max_y = np.maximum(np.maximum(v0[:, 1], v1[:, 1]), v2[:, 1])
    on_screen = (max_x >= 0) & (min_x <= width - 1) & (max_y >= 0) & (min_y <= height - 1)
    order = np.nonzero(on_screen)[0]

    c0 = cols[tris[:, 0]]
    c1 = cols[tris[:, 1]]
    c2 = cols[tris[:, 2]]

    # signed double area; degenerate triangles are dropped up front
    areas = (v1[:, 0] - v0[:, 0]) * (v2[:, 1] - v0[:, 1]) - (v2[:, 0] - v0[:, 0]) * (v1[:, 1] - v0[:, 1])
    usable = on_screen & (np.abs(areas) > 1e-12)

    # Split by bounding-box size: tiny triangles (the overwhelming majority
    # for tubes/glyphs at full HD) go through a fully vectorised tile path;
    # the rest fall back to a per-triangle loop.
    bbox_w = np.ceil(max_x) - np.floor(min_x) + 1
    bbox_h = np.ceil(max_y) - np.floor(min_y) + 1
    bbox = np.maximum(bbox_w, bbox_h)
    tiny = usable & (bbox <= _TINY_TILE)
    small = usable & ~tiny & (bbox <= _TILE)
    large = usable & ~tiny & ~small

    drawn = 0
    drawn += _rasterize_small_triangles(
        framebuffer, np.nonzero(tiny)[0], v0, v1, v2, c0, c1, c2, areas, min_x, min_y,
        tile=_TINY_TILE,
    )
    drawn += _rasterize_small_triangles(
        framebuffer, np.nonzero(small)[0], v0, v1, v2, c0, c1, c2, areas, min_x, min_y,
        tile=_TILE,
    )

    for idx in np.nonzero(large)[0]:
        p0, p1, p2 = v0[idx], v1[idx], v2[idx]
        x_min = max(int(np.floor(min_x[idx])), 0)
        x_max = min(int(np.ceil(max_x[idx])), width - 1)
        y_min = max(int(np.floor(min_y[idx])), 0)
        y_max = min(int(np.ceil(max_y[idx])), height - 1)
        if x_max < x_min or y_max < y_min:
            continue
        area = areas[idx]

        xs = np.arange(x_min, x_max + 1, dtype=np.float64)[None, :]
        ys = np.arange(y_min, y_max + 1, dtype=np.float64)[:, None]

        # barycentric coordinates via broadcasting (no meshgrid allocation)
        w0 = ((p1[0] - xs) * (p2[1] - ys) - (p2[0] - xs) * (p1[1] - ys)) / area
        w1 = ((p2[0] - xs) * (p0[1] - ys) - (p0[0] - xs) * (p2[1] - ys)) / area
        w2 = 1.0 - w0 - w1

        eps = -1e-9
        inside = (w0 >= eps) & (w1 >= eps) & (w2 >= eps)
        if not inside.any():
            continue

        z = w0 * p0[2] + w1 * p1[2] + w2 * p2[2]
        region_depth = depth[y_min : y_max + 1, x_min : x_max + 1]
        visible = inside & (z < region_depth)
        if not visible.any():
            continue

        rgb = (
            w0[..., None] * c0[idx]
            + w1[..., None] * c1[idx]
            + w2[..., None] * c2[idx]
        )
        region_color = color[y_min : y_max + 1, x_min : x_max + 1]
        region_color[visible] = rgb[visible]
        region_depth[visible] = z[visible]
        drawn += 1
    return drawn


def _rasterize_small_triangles(
    framebuffer: Framebuffer,
    indices: np.ndarray,
    v0: np.ndarray,
    v1: np.ndarray,
    v2: np.ndarray,
    c0: np.ndarray,
    c1: np.ndarray,
    c2: np.ndarray,
    areas: np.ndarray,
    min_x: np.ndarray,
    min_y: np.ndarray,
    tile: int,
) -> int:
    """Vectorised rasterization of triangles whose bbox fits in a ``tile`` tile.

    All candidate fragments of a batch are generated at once; the nearest
    fragment per pixel is selected with a (pixel, depth) sort before the
    depth-buffer test, so the result is identical to the per-triangle loop.
    Colors are interpolated only for the winning fragments.
    """
    if indices.size == 0:
        return 0
    width, height = framebuffer.width, framebuffer.height
    color = framebuffer.color.reshape(-1, 3)
    depth = framebuffer.depth.reshape(-1)

    offsets = np.arange(tile, dtype=np.float64)
    off_x = np.tile(offsets, tile)           # (T*T,)
    off_y = np.repeat(offsets, tile)         # (T*T,)
    per_tri = tile * tile
    batch_size = max(_FRAGMENT_BATCH // per_tri, 1)

    drawn = 0
    for start in range(0, indices.size, batch_size):
        batch = indices[start : start + batch_size]
        p0, p1, p2 = v0[batch], v1[batch], v2[batch]
        area = areas[batch][:, None]
        base_x = np.floor(min_x[batch])[:, None]
        base_y = np.floor(min_y[batch])[:, None]
        px = base_x + off_x[None, :]          # (B, T*T)
        py = base_y + off_y[None, :]

        w0 = ((p1[:, 0:1] - px) * (p2[:, 1:2] - py) - (p2[:, 0:1] - px) * (p1[:, 1:2] - py)) / area
        w1 = ((p2[:, 0:1] - px) * (p0[:, 1:2] - py) - (p0[:, 0:1] - px) * (p2[:, 1:2] - py)) / area
        w2 = 1.0 - w0 - w1

        eps = -1e-9
        inside = (
            (w0 >= eps) & (w1 >= eps) & (w2 >= eps)
            & (px >= 0) & (px < width) & (py >= 0) & (py < height)
        )
        if not inside.any():
            continue

        z = w0 * p0[:, 2:3] + w1 * p1[:, 2:3] + w2 * p2[:, 2:3]

        frag_mask = inside.reshape(-1)
        frag_idx = np.nonzero(frag_mask)[0]
        pix = (py.astype(np.int64) * width + px.astype(np.int64)).reshape(-1)[frag_idx]
        frag_z = z.reshape(-1)[frag_idx]

        # nearest fragment per pixel: sort by (pixel, depth), keep the first
        order_idx = np.lexsort((frag_z, pix))
        pix_sorted = pix[order_idx]
        first = np.ones(pix_sorted.shape[0], dtype=bool)
        first[1:] = pix_sorted[1:] != pix_sorted[:-1]
        winners = order_idx[first]

        win_pix = pix[winners]
        win_z = frag_z[winners]
        visible = win_z < depth[win_pix]
        if not visible.any():
            drawn += int(batch.size)
            continue
        winners = winners[visible]
        win_pix = win_pix[visible]
        win_z = win_z[visible]

        # interpolate colors only for the surviving fragments
        flat_winners = frag_idx[winners]
        tri_of_fragment = batch[flat_winners // per_tri]
        w0_win = w0.reshape(-1)[flat_winners][:, None]
        w1_win = w1.reshape(-1)[flat_winners][:, None]
        w2_win = w2.reshape(-1)[flat_winners][:, None]
        rgb = (
            w0_win * c0[tri_of_fragment]
            + w1_win * c1[tri_of_fragment]
            + w2_win * c2[tri_of_fragment]
        )

        depth[win_pix] = win_z
        color[win_pix] = rgb
        drawn += int(batch.size)
    return drawn


def _splat_fragments(
    framebuffer: Framebuffer,
    xs: np.ndarray,
    ys: np.ndarray,
    zs: np.ndarray,
    rgb: np.ndarray,
    half: int,
) -> None:
    """Splat samples over their ``(2*half+1)²`` pixel neighborhoods, vectorised.

    All ``K × N`` candidate fragments are generated at once from the
    precomputed offset grid; per pixel the *nearest* fragment wins (ties go
    to the earliest sample), selected with one ``np.minimum.at`` scatter-min
    into the depth buffer — no Python-level loop over the neighborhood and
    no fragment sort.
    """
    width, height = framebuffer.width, framebuffer.height
    color = framebuffer.color.reshape(-1, 3)
    depth = framebuffer.depth.reshape(-1)

    n = xs.shape[0]
    if n == 0:
        return
    if half > 0:
        offsets = _neighborhood_offsets(half)
        frag_x = np.clip(xs[None, :] + offsets[:, 1:2], 0, width - 1).reshape(-1)
        frag_y = np.clip(ys[None, :] + offsets[:, 0:1], 0, height - 1).reshape(-1)
        k = offsets.shape[0]
        frag_z = np.broadcast_to(zs, (k, n)).reshape(-1)
        sample = np.broadcast_to(np.arange(n), (k, n)).reshape(-1)
    else:
        frag_x = np.clip(xs, 0, width - 1)
        frag_y = np.clip(ys, 0, height - 1)
        frag_z = zs
        sample = np.arange(n)

    pix = frag_y * width + frag_x
    depth_before = depth[pix]
    np.minimum.at(depth, pix, frag_z)
    # winners: fragments that set their pixel's new depth AND beat the old
    # buffer strictly (a fragment exactly at the stored depth loses, matching
    # the loop's strict test)
    winners = np.nonzero((frag_z == depth[pix]) & (frag_z < depth_before))[0]
    if winners.size == 0:
        return
    # reversed fancy assignment: among equal-depth winners of one pixel the
    # *earliest* sample's color lands last and therefore wins
    winners = winners[::-1]
    color[pix[winners]] = rgb[sample[winners]]


def _segment_samples(
    p0: np.ndarray,
    p1: np.ndarray,
    c0: np.ndarray,
    c1: np.ndarray,
    width: int,
    height: int,
    depth_bias: float,
):
    """Rasterised sample points along one segment (clipped to the viewport)."""
    n_steps = int(max(abs(p1[0] - p0[0]), abs(p1[1] - p0[1]))) + 1
    t = np.linspace(0.0, 1.0, n_steps)
    xs = np.round(p0[0] + t * (p1[0] - p0[0])).astype(int)
    ys = np.round(p0[1] + t * (p1[1] - p0[1])).astype(int)
    zs = p0[2] + t * (p1[2] - p0[2]) - depth_bias
    rgb = (1.0 - t)[:, None] * c0 + t[:, None] * c1
    on = (xs >= 0) & (xs < width) & (ys >= 0) & (ys < height)
    if not on.any():
        return None
    return xs[on], ys[on], zs[on], rgb[on]


def _rasterize_lines_per_segment_reference(
    framebuffer: Framebuffer,
    screen_points: np.ndarray,
    segments: np.ndarray,
    vertex_colors: np.ndarray,
    valid_vertices: Optional[np.ndarray] = None,
    line_width: int = 1,
    depth_bias: float = 1e-4,
) -> int:
    """The per-segment line loop the batched segment fragments replaced."""
    width, height = framebuffer.width, framebuffer.height

    pts = np.asarray(screen_points, dtype=np.float64)
    segs = np.asarray(segments, dtype=np.int64).reshape(-1, 2)
    cols = np.asarray(vertex_colors, dtype=np.float64)
    if segs.size == 0:
        return 0
    if valid_vertices is not None:
        ok = valid_vertices[segs].all(axis=1)
        segs = segs[ok]
        if segs.size == 0:
            return 0

    half = max(int(line_width) // 2, 0)
    drawn = 0
    for a, b in segs:
        samples = _segment_samples(
            pts[a], pts[b], cols[a], cols[b], width, height, depth_bias
        )
        if samples is None:
            continue
        xs, ys, zs, rgb = samples
        _splat_fragments(framebuffer, xs, ys, zs, rgb, half)
        drawn += 1
    return drawn


def _assert_same_buffers(fast: Framebuffer, reference: Framebuffer) -> None:
    assert np.array_equal(fast.color, reference.color)
    assert np.array_equal(fast.depth, reference.depth)


def _draw_both(draw, reference, width, height, *args, **kwargs):
    fast_fb, ref_fb = Framebuffer(width, height), Framebuffer(width, height)
    fast = draw(fast_fb, *args, **kwargs)
    ref = reference(ref_fb, *args, **kwargs)
    _assert_same_buffers(fast_fb, ref_fb)
    return fast, ref


_raster_settings = settings(
    max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

#: a 3-value depth set: equal depths across primitives force exact ties
_tied_depths = st.sampled_from([0.25, 0.5, 0.75])
_unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def _coordinate(low: float, high: float):
    return st.floats(min_value=low, max_value=high, allow_nan=False, allow_infinity=False)


@st.composite
def _triangle_group(draw, kind: str, width: int, height: int):
    """Vertices ``(k, 3)`` and local ``(t, 3)`` triangles of one generator kind."""
    if kind == "sub-pixel":
        cx = draw(_coordinate(-1.0, width))
        cy = draw(_coordinate(-1.0, height))
        offsets = [draw(_coordinate(-0.6, 0.6)) for _ in range(6)]
        xy = [(cx + offsets[2 * k], cy + offsets[2 * k + 1]) for k in range(3)]
        tris = [[0, 1, 2]]
    elif kind == "sliver":
        # |2A| drawn log-uniformly from (1e-12, 1e-3): the third vertex sits
        # that far off the line through the first two
        ax, ay = draw(_coordinate(-2.0, width + 1.0)), draw(_coordinate(-2.0, height + 1.0))
        dx, dy = draw(_coordinate(-14.0, 14.0)), draw(_coordinate(-14.0, 14.0))
        assume(dx * dx + dy * dy > 0.25)
        s = draw(_coordinate(-0.5, 1.5))
        double_area = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(_coordinate(-11.9, -3.1))
        lift = double_area / (dx * dx + dy * dy)
        xy = [(ax, ay), (ax + dx, ay + dy), (ax + s * dx - lift * dy, ay + s * dy + lift * dx)]
        tris = [[0, 1, 2]]
    elif kind == "integer":
        xy = [
            (draw(st.integers(-3, width + 2)), draw(st.integers(-3, height + 2)))
            for _ in range(3)
        ]
        tris = [[0, 1, 2]]
    elif kind == "shared-edges":
        # a strip of quads split along a diagonal: every interior edge is
        # shared by two triangles at the same depth
        n = draw(st.integers(1, 4))
        x = draw(_coordinate(-2.0, width - 1.0))
        y = draw(_coordinate(-2.0, height - 1.0))
        step = draw(_coordinate(0.3, 8.0))
        tall = draw(_coordinate(0.3, 8.0))
        xy = [(x + k * step, y + row * tall) for row in (0, 1) for k in range(n + 1)]
        tris = []
        for k in range(n):
            tris += [[k, k + 1, n + 1 + k], [k + 1, n + 2 + k, n + 1 + k]]
    else:  # "off-screen": large triangles reaching past the viewport
        xy = [
            (draw(_coordinate(-width, 2.0 * width)), draw(_coordinate(-height, 2.0 * height)))
            for _ in range(3)
        ]
        tris = [[0, 1, 2]]
    depth = draw(_tied_depths)
    if kind == "shared-edges":
        z = [depth] * len(xy)
    else:
        z = [depth if draw(st.booleans()) else draw(_unit) for _ in xy]
    return np.column_stack([np.asarray(xy, dtype=np.float64), z]), np.asarray(tris)


_TRIANGLE_KINDS = ("sub-pixel", "sliver", "integer", "shared-edges", "off-screen")


@st.composite
def _triangle_scenes(draw, kinds=_TRIANGLE_KINDS):
    """A framebuffer size plus points, triangles, colors and an optional mask."""
    width, height = draw(st.integers(4, 40)), draw(st.integers(4, 40))
    groups = draw(
        st.lists(st.sampled_from(kinds).flatmap(
            lambda kind: _triangle_group(kind, width, height)), min_size=1, max_size=8)
    )
    points, triangles = [], []
    for group_points, group_tris in groups:
        triangles.append(group_tris + sum(len(p) for p in points))
        points.append(group_points)
    points = np.concatenate(points)
    triangles = np.concatenate(triangles)
    order = draw(st.permutations(range(len(triangles))))
    colors = np.asarray(
        [[draw(_unit) for _ in range(3)] for _ in range(len(points))]
    )
    valid = None
    if draw(st.booleans()):
        valid = np.asarray([draw(st.booleans()) for _ in range(len(points))])
    return width, height, points, triangles[list(order)], colors, valid


class TestTriangleFragmentParity:
    @pytest.mark.parametrize("kind", _TRIANGLE_KINDS)
    @_raster_settings
    @given(data=st.data())
    def test_matches_reference_per_kind(self, kind, data):
        width, height, points, triangles, colors, valid = data.draw(_triangle_scenes((kind,)))
        _draw_both(
            rasterizer.rasterize_triangles, _rasterize_triangles_reference,
            width, height, points, triangles, colors, valid,
        )

    @_raster_settings
    @given(scene=_triangle_scenes())
    def test_matches_reference_mixed(self, scene):
        width, height, points, triangles, colors, valid = scene
        _draw_both(
            rasterizer.rasterize_triangles, _rasterize_triangles_reference,
            width, height, points, triangles, colors, valid,
        )

    @_raster_settings
    @given(scene=_triangle_scenes(), batch=st.integers(1, 40))
    def test_matches_reference_across_batch_boundaries(self, scene, batch):
        width, height, points, triangles, colors, valid = scene
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(rasterizer, "_FRAGMENT_BATCH", batch)
            _draw_both(
                rasterizer.rasterize_triangles, _rasterize_triangles_reference,
                width, height, points, triangles, colors, valid,
            )

    def test_tiny_triangle_wins_an_exact_tie_with_a_lower_index_large_one(self):
        # index 0: a large flat triangle; index 1: a tiny one around pixel
        # (5, 5) at the same depth.  Tiny triangles are drawn first, so the
        # tie at the shared pixel goes to the tiny triangle.
        points = np.array(
            [[0.0, 0.0, 0.5], [30.0, 0.0, 0.5], [0.0, 30.0, 0.5],
             [4.6, 4.6, 0.5], [5.6, 4.6, 0.5], [4.6, 5.6, 0.5]]
        )
        colors = np.array([[1.0, 0.0, 0.0]] * 3 + [[0.0, 0.0, 1.0]] * 3)
        triangles = np.array([[0, 1, 2], [3, 4, 5]])
        fast = Framebuffer(20, 20)
        rasterizer.rasterize_triangles(fast, points, triangles, colors)
        assert np.array_equal(fast.color[5, 5], [0.0, 0.0, 1.0])
        assert np.array_equal(fast.color[10, 5], [1.0, 0.0, 0.0])
        _draw_both(
            rasterizer.rasterize_triangles, _rasterize_triangles_reference,
            20, 20, points, triangles, colors,
        )

    def test_count_includes_occluded_triangles(self):
        # the second triangle lies wholly behind the first: it still has
        # inside fragments, so it counts
        near = [[1.0, 1.0, 0.2], [18.0, 1.0, 0.2], [1.0, 18.0, 0.2]]
        far = [[1.0, 1.0, 0.8], [18.0, 1.0, 0.8], [1.0, 18.0, 0.8]]
        points = np.array(near + far)
        fb = Framebuffer(20, 20)
        drawn = rasterizer.rasterize_triangles(
            fb, points, np.array([[0, 1, 2], [3, 4, 5]]), np.ones((6, 3))
        )
        assert drawn == 2
        assert rasterizer.rasterize_triangles(fb, points, np.array([[3, 4, 5]]), np.ones((6, 3))) == 1

    def test_count_excludes_triangles_covering_no_pixel_centre(self):
        points = np.array([[5.1, 5.1, 0.5], [5.4, 5.1, 0.5], [5.1, 5.4, 0.5]])
        fb = Framebuffer(10, 10)
        assert rasterizer.rasterize_triangles(fb, points, np.array([[0, 1, 2]]), np.ones((3, 3))) == 0
        assert fb.coverage() == 0.0


@st.composite
def _line_scenes(draw):
    """Points (some off-screen), segments (some zero-length), colors, mask."""
    width, height = draw(st.integers(4, 40)), draw(st.integers(4, 40))
    n = draw(st.integers(1, 12))
    points = np.asarray(
        [
            [draw(_coordinate(-10.0, width + 10.0)), draw(_coordinate(-10.0, height + 10.0)),
             draw(_tied_depths)]
            for _ in range(n)
        ]
    )
    segments = draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), min_size=1, max_size=16)
    )
    if draw(st.booleans()):
        # a zero-length segment on a repeated vertex
        k = draw(st.integers(0, n - 1))
        segments.append((k, k))
    colors = np.asarray([[draw(_unit) for _ in range(3)] for _ in range(n)])
    valid = None
    if draw(st.booleans()):
        valid = np.asarray([draw(st.booleans()) for _ in range(n)])
    return width, height, points, np.asarray(segments), colors, valid


class TestLineFragmentParity:
    @pytest.mark.parametrize("line_width", [1, 2, 3, 5])
    @_raster_settings
    @given(scene=_line_scenes())
    def test_matches_per_segment_reference(self, line_width, scene):
        width, height, points, segments, colors, valid = scene
        fast, ref = _draw_both(
            rasterizer.rasterize_lines, _rasterize_lines_per_segment_reference,
            width, height, points, segments, colors, valid, line_width=line_width,
        )
        assert fast == ref

    @_raster_settings
    @given(scene=_line_scenes(), line_width=st.sampled_from([1, 2, 3, 5]), batch=st.integers(1, 60))
    def test_matches_per_segment_reference_across_batch_boundaries(self, scene, line_width, batch):
        width, height, points, segments, colors, valid = scene
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(rasterizer, "_FRAGMENT_BATCH", batch)
            fast, ref = _draw_both(
                rasterizer.rasterize_lines, _rasterize_lines_per_segment_reference,
                width, height, points, segments, colors, valid, line_width=line_width,
            )
        assert fast == ref

    def test_segment_crossing_the_viewport_edge_keeps_its_clamped_border(self):
        # a wide line along the top row: offsets above the image clamp onto
        # row 0, and the earlier, nearer fragments keep it
        points = np.array([[-5.0, 0.0, 0.5], [25.0, 0.0, 0.5], [-5.0, 1.0, 0.5], [25.0, 1.0, 0.5]])
        segments = np.array([[0, 1], [2, 3]])
        colors = np.array([[1.0, 0.0, 0.0]] * 2 + [[0.0, 1.0, 0.0]] * 2)
        _draw_both(
            rasterizer.rasterize_lines, _rasterize_lines_per_segment_reference,
            20, 10, points, segments, colors, line_width=5,
        )

    def test_last_sample_sits_exactly_on_the_end_vertex(self):
        # 49·(1/49) rounds to 1 - 2⁻⁵³: only an exact t = 1.0 at the last
        # sample reproduces np.linspace's end depth
        points = np.array([[0.0, 2.0, 0.0], [49.0, 2.0, 1.0]])
        fb = Framebuffer(60, 5)
        rasterizer.rasterize_lines(fb, points, np.array([[0, 1]]), np.ones((2, 3)))
        assert fb.depth[2, 49] == 1.0 - 1e-4
        _draw_both(
            rasterizer.rasterize_lines, _rasterize_lines_per_segment_reference,
            60, 5, points, np.array([[0, 1]]), np.ones((2, 3)),
        )
