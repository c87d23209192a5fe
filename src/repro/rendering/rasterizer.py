"""Z-buffered software rasterization of triangles, lines and points.

All primitives arrive already projected to *screen space*: an ``(n, 3)``
array of ``(x_pixel, y_pixel, depth)`` per vertex (see
:func:`repro.rendering.transforms.viewport_transform`).  Colors are given per
vertex as RGB in ``[0, 1]`` and interpolated across primitives.

Every primitive type becomes *fragments* — ``(pixel, depth)`` candidates —
generated with NumPy array operations in batches of at most
``_FRAGMENT_BATCH``, with no Python loop per primitive.  Triangles are filled
with edge functions (Pineda, "A Parallel Algorithm for Polygon
Rasterization", SIGGRAPH 1988) evaluated over each triangle's pixel range;
line segments are sampled and points taken as they are, and both are splatted
over a square pixel neighborhood.  One winner rule,
:func:`_nearest_fragments`, resolves every batch: per pixel the nearest
fragment wins, ties go to the first fragment in generation order, and a
winner must be strictly nearer than the depth already stored.  Colors are
interpolated for the winners only.
"""

from __future__ import annotations

from typing import Iterator, Optional

import numpy as np

from repro.rendering.framebuffer import Framebuffer

__all__ = ["rasterize_triangles", "rasterize_lines", "rasterize_points"]

#: upper bound on the candidate fragments generated per vectorised batch
_FRAGMENT_BATCH = 2_000_000


def rasterize_triangles(
    framebuffer: Framebuffer,
    screen_points: np.ndarray,
    triangles: np.ndarray,
    vertex_colors: np.ndarray,
    valid_vertices: Optional[np.ndarray] = None,
) -> int:
    """Fill triangles into the framebuffer with depth testing.

    Triangles are drawn in a fixed order: by size class of their pixel
    bounding box (at most 4 px, at most 12 px, larger), then by index.  A
    pixel shared by equally deep fragments keeps the first triangle's color.

    Parameters
    ----------
    screen_points:
        ``(n, 3)`` array of pixel-space vertex positions ``(x, y, depth)``.
    triangles:
        ``(m, 3)`` vertex indices.
    vertex_colors:
        ``(n, 3)`` RGB per vertex.
    valid_vertices:
        Optional boolean mask; triangles touching an invalid vertex (e.g.
        behind the camera) are skipped.

    Returns
    -------
    int
        Number of triangles with at least one inside fragment in the
        viewport, counted before the depth test: an occluded triangle
        counts, a sub-pixel triangle covering no pixel centre does not.
    """
    width, height = framebuffer.width, framebuffer.height
    color = framebuffer.color.reshape(-1, 3)
    depth = framebuffer.depth.reshape(-1)

    pts = np.asarray(screen_points, dtype=np.float64)
    tris = np.asarray(triangles, dtype=np.int64)
    cols = np.asarray(vertex_colors, dtype=np.float64)
    if tris.size == 0:
        return 0
    # one contiguous 1-D column per corner and per coordinate: cheaper to
    # gather and reduce than (m, 3) rows
    corners = [np.ascontiguousarray(tris[:, k]) for k in range(3)]
    if valid_vertices is not None:
        valid = np.asarray(valid_vertices)
        ok = valid[corners[0]] & valid[corners[1]] & valid[corners[2]]
        corners = [c[ok] for c in corners]
    xs, ys, zs = (np.ascontiguousarray(pts[:, k]) for k in range(3))
    x0, x1, x2 = (xs[c] for c in corners)
    y0, y1, y2 = (ys[c] for c in corners)
    min_x = np.minimum(np.minimum(x0, x1), x2)
    max_x = np.maximum(np.maximum(x0, x1), x2)
    min_y = np.minimum(np.minimum(y0, y1), y2)
    max_y = np.maximum(np.maximum(y0, y1), y2)
    on_screen = (max_x >= 0) & (min_x <= width - 1) & (max_y >= 0) & (min_y <= height - 1)
    # signed double area; degenerate triangles are dropped up front
    areas = (x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)
    usable = np.nonzero(on_screen & (np.abs(areas) > 1e-12))[0]

    # draw order: size class of the floor/ceil bounding box, then index;
    # from here on every per-triangle array is in draw order
    box = np.maximum(
        np.ceil(max_x[usable]) - np.floor(min_x[usable]),
        np.ceil(max_y[usable]) - np.floor(min_y[usable]),
    ) + 1
    size_class = (box > 4).astype(np.int8) + (box > 12)
    order = usable[np.argsort(size_class, kind="stable")]
    x0, x1, x2, y0, y1, y2 = (a[order] for a in (x0, x1, x2, y0, y1, y2))
    min_x, max_x, min_y, max_y = (a[order] for a in (min_x, max_x, min_y, max_y))
    areas = areas[order]
    corners = [c[order] for c in corners]

    # Tighter pixel range for well-conditioned triangles: only the integer
    # pixels within m = 1e-6·E of the exact bounding box, E being the larger
    # extent (at least 1).  Dropping the other pixels of the floor/ceil box
    # changes nothing:
    # - the pixel centre p lies δ > m outside the box on some axis; writing
    #   p = Σ wᵢvᵢ with Σ wᵢ = 1, the negative weights must sum to at most
    #   -δ/E, so the exact minimum barycentric is ≤ -δ/(2E) < -5e-7;
    # - the float error of each computed w is ≲ 8u(E+1)²/|2A| (u the unit
    #   roundoff; |p - vᵢ| ≤ E + 1 inside the floor/ceil box), which for
    #   |2A| ≥ 1e-4·E² is ≤ 3.2e5·u ≈ 4e-11, ≪ 1e-9;
    # - so every dropped pixel would have failed the w ≥ -1e-9 test anyway.
    # Ill-conditioned slivers keep the floor/ceil box.
    extent = np.maximum(np.maximum(max_x - min_x, max_y - min_y), 1.0)
    margin = 1e-6 * extent
    well = np.abs(areas) >= 1e-4 * extent * extent
    lo_x, hi_x = np.floor(min_x), np.ceil(max_x)
    lo_y, hi_y = np.floor(min_y), np.ceil(max_y)
    np.maximum(lo_x, np.ceil(min_x - margin), out=lo_x, where=well)
    np.minimum(hi_x, np.floor(max_x + margin), out=hi_x, where=well)
    np.maximum(lo_y, np.ceil(min_y - margin), out=lo_y, where=well)
    np.minimum(hi_y, np.floor(max_y + margin), out=hi_y, where=well)
    lo_x = np.maximum(lo_x, 0).astype(np.int64)
    lo_y = np.maximum(lo_y, 0).astype(np.int64)
    span_x = np.maximum(np.minimum(hi_x, width - 1).astype(np.int64) - lo_x + 1, 0)
    span_y = np.maximum(np.minimum(hi_y, height - 1).astype(np.int64) - lo_y + 1, 0)

    drawn = 0
    eps = -1e-9
    for batch in _batches(span_x * span_y):
        # rows (triangle, y) first, then the pixels of each row; ``tri``
        # indexes the batch's triangles
        row_tri, row_dy = _ragged(span_y[batch])
        frag_row, frag_dx = _ragged(span_x[batch][row_tri])
        tri = row_tri[frag_row]
        ix = lo_x[batch][tri] + frag_dx
        iy = (lo_y[batch][row_tri] + row_dy)[frag_row]
        px = ix.astype(np.float64)
        py = iy.astype(np.float64)

        X0, X1, X2 = x0[batch][tri], x1[batch][tri], x2[batch][tri]
        Y0, Y1, Y2 = y0[batch][tri], y1[batch][tri], y2[batch][tri]
        area = areas[batch][tri]
        w0 = ((X1 - px) * (Y2 - py) - (X2 - px) * (Y1 - py)) / area
        w1 = ((X2 - px) * (Y0 - py) - (X0 - px) * (Y2 - py)) / area
        w2 = 1.0 - w0 - w1
        inside = np.nonzero((w0 >= eps) & (w1 >= eps) & (w2 >= eps))[0]
        if inside.size == 0:
            continue
        tri = tri[inside]
        hit = np.zeros(batch.stop - batch.start, dtype=bool)
        hit[tri] = True
        drawn += int(np.count_nonzero(hit))

        w0, w1, w2 = w0[inside], w1[inside], w2[inside]
        c0, c1, c2 = (c[batch][tri] for c in corners)
        z = w0 * zs[c0] + w1 * zs[c1] + w2 * zs[c2]
        pix = iy[inside] * width + ix[inside]
        win = _nearest_fragments(depth, pix, z)

        c0, c1, c2 = c0[win], c1[win], c2[win]
        color[pix[win]] = (
            w0[win][:, None] * cols[c0] + w1[win][:, None] * cols[c1] + w2[win][:, None] * cols[c2]
        )
    return drawn


def _ragged(counts: np.ndarray):
    """Flatten runs of ``counts`` elements: ``(run, position in run)`` per element."""
    run = np.repeat(np.arange(counts.size), counts)
    starts = np.cumsum(counts) - counts
    return run, np.arange(run.size) - starts[run]


def _batches(sizes: np.ndarray) -> Iterator[slice]:
    """Consecutive slices of ``sizes`` summing to at most ``_FRAGMENT_BATCH``.

    An item larger than the bound gets a batch of its own.
    """
    ends = np.cumsum(sizes)
    start = 0
    while start < sizes.size:
        base = ends[start - 1] if start else 0
        stop = int(np.searchsorted(ends, base + _FRAGMENT_BATCH, side="right"))
        stop = max(stop, start + 1)
        yield slice(start, stop)
        start = stop


def _nearest_fragments(depth: np.ndarray, pix: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Indices of the winning fragments; writes each winner's ``z`` to ``depth``.

    Per pixel the nearest fragment wins, ties going to the first fragment in
    generation order (the stable ``(pixel, z)`` lexsort keeps it first).  A
    winner must be strictly nearer than the stored depth: the pre-filter
    drops occluded fragments, and NaN depths with them.
    """
    candidates = np.nonzero(z < depth[pix])[0]
    ranked = candidates[np.lexsort((z[candidates], pix[candidates]))]
    ranked_pix = pix[ranked]
    first = np.ones(ranked.size, dtype=bool)
    first[1:] = ranked_pix[1:] != ranked_pix[:-1]
    winners = ranked[first]
    depth[pix[winners]] = z[winners]
    return winners


def _neighborhood_offsets(half: int) -> np.ndarray:
    """Precomputed ``(K, 2)`` grid of ``(dy, dx)`` offsets, dy-major.

    Shared by the vectorised splat and the loop reference, so both walk the
    ``-half..half`` neighborhood in the identical order.
    """
    offsets = np.arange(-half, half + 1, dtype=np.int64)
    return np.stack(
        [np.repeat(offsets, offsets.size), np.tile(offsets, offsets.size)], axis=1
    )


def _splat(
    framebuffer: Framebuffer,
    xs: np.ndarray,
    ys: np.ndarray,
    zs: np.ndarray,
    counts: np.ndarray,
    half: int,
):
    """Depth-test the ``(2*half+1)²`` pixel neighborhoods of samples.

    Samples arrive in consecutive runs of ``counts`` (one run per line
    segment; all points form one run).  Fragments are generated run by run
    and, within a run, offset-major: every sample at the first offset, then
    every sample at the next.  Offsets are clamped to the viewport, so a
    sample near the border also paints the border pixel.  Returns the
    ``(pixel, sample)`` of every winner; their depth is already written.
    """
    width, height = framebuffer.width, framebuffer.height
    offsets = _neighborhood_offsets(half)
    k = offsets.shape[0]
    row_run = np.repeat(np.arange(counts.size), k)
    row_offset = np.tile(np.arange(k), counts.size)
    frag_row, position = _ragged(counts[row_run])
    starts = np.cumsum(counts) - counts
    sample = starts[row_run][frag_row] + position
    offset = offsets[row_offset[frag_row]]
    frag_x = np.clip(xs[sample] + offset[:, 1], 0, width - 1)
    frag_y = np.clip(ys[sample] + offset[:, 0], 0, height - 1)
    pix = frag_y * width + frag_x
    win = _nearest_fragments(framebuffer.depth.reshape(-1), pix, zs[sample])
    return pix[win], sample[win]


def _splat_neighborhood_loop(
    framebuffer: Framebuffer,
    xs: np.ndarray,
    ys: np.ndarray,
    zs: np.ndarray,
    rgb: np.ndarray,
    half: int,
) -> None:
    """The historical per-offset splat loop, kept as the reference oracle.

    The regression tests pin :func:`_splat` against this.  (For
    overlap-free splats — and any input whose fragments arrive far-to-near —
    the two are exactly equivalent; the vectorised path additionally resolves
    same-batch pixel collisions nearest-first instead of last-written.)
    """
    width, height = framebuffer.width, framebuffer.height
    color = framebuffer.color
    depth = framebuffer.depth
    for dy, dx in _neighborhood_offsets(half):
        xx = np.clip(xs + dx, 0, width - 1)
        yy = np.clip(ys + dy, 0, height - 1)
        visible = zs < depth[yy, xx]
        depth[yy[visible], xx[visible]] = zs[visible]
        color[yy[visible], xx[visible]] = rgb[visible]


def _segment_steps(p0: np.ndarray, p1: np.ndarray) -> np.ndarray:
    """Samples per segment: one per pixel of the longer screen axis, plus one."""
    return np.maximum(np.abs(p1[:, 0] - p0[:, 0]), np.abs(p1[:, 1] - p0[:, 1])).astype(np.int64) + 1


def _line_samples(
    p0: np.ndarray,
    p1: np.ndarray,
    width: int,
    height: int,
    depth_bias: float,
):
    """Rasterised sample points of the segments ``p0 → p1``, clipped to the viewport.

    A segment of ``n`` steps is sampled at ``t = i·(1/(n−1))`` with the last
    ``t`` exactly 1.0 — ``np.linspace(0, 1, n)`` bit for bit.  Returns the
    segment, ``x``, ``y``, ``z`` and ``t`` of every on-screen sample,
    segment by segment.
    """
    n_steps = _segment_steps(p0, p1)
    seg, i = _ragged(n_steps)
    n = n_steps[seg]
    t = i * (1.0 / np.maximum(n_steps - 1, 1))[seg]
    t[(i == n - 1) & (n > 1)] = 1.0
    xs = np.round(p0[seg, 0] + t * (p1[:, 0] - p0[:, 0])[seg]).astype(int)
    ys = np.round(p0[seg, 1] + t * (p1[:, 1] - p0[:, 1])[seg]).astype(int)
    zs = p0[seg, 2] + t * (p1[:, 2] - p0[:, 2])[seg] - depth_bias
    on = (xs >= 0) & (xs < width) & (ys >= 0) & (ys < height)
    return seg[on], xs[on], ys[on], zs[on], t[on]


def _prepare_segments(
    screen_points: np.ndarray,
    segments: np.ndarray,
    vertex_colors: np.ndarray,
    valid_vertices: Optional[np.ndarray],
):
    """Float points, ``(m, 2)`` segments (invalid ones dropped) and colors."""
    pts = np.asarray(screen_points, dtype=np.float64)
    segs = np.asarray(segments, dtype=np.int64).reshape(-1, 2)
    cols = np.asarray(vertex_colors, dtype=np.float64)
    if valid_vertices is not None and segs.size:
        segs = segs[valid_vertices[segs].all(axis=1)]
    return pts, segs, cols


def rasterize_lines(
    framebuffer: Framebuffer,
    screen_points: np.ndarray,
    segments: np.ndarray,
    vertex_colors: np.ndarray,
    valid_vertices: Optional[np.ndarray] = None,
    line_width: int = 1,
    depth_bias: float = 1e-4,
) -> int:
    """Draw line segments with depth testing.

    ``segments`` is an ``(m, 2)`` array of vertex-index pairs.  Lines are
    drawn with a small depth bias toward the viewer so that wireframe edges
    win over co-planar filled triangles.  Each sample is splatted over its
    ``line_width`` neighborhood; fragments are generated segment by segment,
    so at equal depth the earlier segment keeps the pixel.  Returns the
    number of segments with at least one sample in the viewport.
    """
    width, height = framebuffer.width, framebuffer.height
    color = framebuffer.color.reshape(-1, 3)
    pts, segs, cols = _prepare_segments(screen_points, segments, vertex_colors, valid_vertices)
    if segs.size == 0:
        return 0

    half = max(int(line_width) // 2, 0)
    p0, p1 = pts[segs[:, 0]], pts[segs[:, 1]]
    neighborhood = (2 * half + 1) ** 2
    drawn = 0
    for batch in _batches(_segment_steps(p0, p1) * neighborhood):
        seg, xs, ys, zs, t = _line_samples(p0[batch], p1[batch], width, height, depth_bias)
        counts = np.bincount(seg, minlength=batch.stop - batch.start)
        drawn += int(np.count_nonzero(counts))
        if seg.size == 0:
            continue
        win_pix, win_sample = _splat(framebuffer, xs, ys, zs, counts, half)
        t = t[win_sample]
        ends = segs[batch][seg[win_sample]]
        color[win_pix] = (1.0 - t)[:, None] * cols[ends[:, 0]] + t[:, None] * cols[ends[:, 1]]
    return drawn


def rasterize_points(
    framebuffer: Framebuffer,
    screen_points: np.ndarray,
    point_ids: np.ndarray,
    vertex_colors: np.ndarray,
    valid_vertices: Optional[np.ndarray] = None,
    point_size: int = 2,
) -> int:
    """Draw square point splats with depth testing (vectorised neighborhood)."""
    prepared = _prepare_point_splats(
        framebuffer, screen_points, point_ids, vertex_colors, valid_vertices, point_size
    )
    if prepared is None:
        return 0
    xs, ys, zs, rgb, half, n_ids = prepared
    win_pix, win_sample = _splat(framebuffer, xs, ys, zs, np.array([xs.size]), half)
    framebuffer.color.reshape(-1, 3)[win_pix] = rgb[win_sample]
    return n_ids


def _prepare_point_splats(
    framebuffer: Framebuffer,
    screen_points: np.ndarray,
    point_ids: np.ndarray,
    vertex_colors: np.ndarray,
    valid_vertices: Optional[np.ndarray],
    point_size: int,
):
    """Shared sample preparation for the point splat paths (fast and reference).

    Keeps the points whose ``half``-neighborhood reaches the viewport.
    """
    width, height = framebuffer.width, framebuffer.height
    pts = np.asarray(screen_points, dtype=np.float64)
    ids = np.asarray(point_ids, dtype=np.int64).reshape(-1)
    cols = np.asarray(vertex_colors, dtype=np.float64)
    if ids.size == 0:
        return None
    if valid_vertices is not None:
        ids = ids[valid_vertices[ids]]
        if ids.size == 0:
            return None

    xs = np.round(pts[ids, 0]).astype(int)
    ys = np.round(pts[ids, 1]).astype(int)
    zs = pts[ids, 2]
    rgb = cols[ids]

    half = max(int(point_size) // 2, 0)
    on = (xs >= -half) & (xs < width + half) & (ys >= -half) & (ys < height + half)
    return xs[on], ys[on], zs[on], rgb[on], half, int(ids.size)


def _rasterize_points_reference(
    framebuffer: Framebuffer,
    screen_points: np.ndarray,
    point_ids: np.ndarray,
    vertex_colors: np.ndarray,
    valid_vertices: Optional[np.ndarray] = None,
    point_size: int = 2,
) -> int:
    """:func:`rasterize_points` over the historical loop splat (tests only)."""
    prepared = _prepare_point_splats(
        framebuffer, screen_points, point_ids, vertex_colors, valid_vertices, point_size
    )
    if prepared is None:
        return 0
    xs, ys, zs, rgb, half, n_ids = prepared
    _splat_neighborhood_loop(framebuffer, xs, ys, zs, rgb, half)
    return n_ids


def _rasterize_lines_reference(
    framebuffer: Framebuffer,
    screen_points: np.ndarray,
    segments: np.ndarray,
    vertex_colors: np.ndarray,
    valid_vertices: Optional[np.ndarray] = None,
    line_width: int = 1,
    depth_bias: float = 1e-4,
) -> int:
    """:func:`rasterize_lines` over the historical loop splat, one segment at a time (tests only)."""
    pts, segs, cols = _prepare_segments(screen_points, segments, vertex_colors, valid_vertices)
    if segs.size == 0:
        return 0
    half = max(int(line_width) // 2, 0)
    seg, xs, ys, zs, t = _line_samples(
        pts[segs[:, 0]], pts[segs[:, 1]], framebuffer.width, framebuffer.height, depth_bias
    )
    if seg.size == 0:
        return 0
    rgb = (1.0 - t)[:, None] * cols[segs[seg, 0]] + t[:, None] * cols[segs[seg, 1]]
    runs = np.split(np.arange(seg.size), np.flatnonzero(np.diff(seg)) + 1)
    for run in runs:
        _splat_neighborhood_loop(framebuffer, xs[run], ys[run], zs[run], rgb[run], half)
    return len(runs)
