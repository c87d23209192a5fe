"""Field interpolation: trilinear probing on image data and scattered-point
interpolation on unstructured data.

The stream tracer queries the velocity field at arbitrary positions every
integration step and the volume ray caster samples the scalar field in bulk,
so interpolation is the hot path of flow and volume visualization.  Two
strategies are provided:

* :class:`TrilinearSampler` / :func:`trilinear_interpolate` — exact
  trilinear reconstruction on :class:`~repro.datamodel.ImageData` lattices.
  The sampler precomputes the flat value table once; every call is then a
  *single* batched gather of all eight cell corners (one fancy index of
  shape ``(8, n)``) followed by the lerp arithmetic, instead of eight
  separate 3-axis gathers per call.  The historical per-corner gather path
  is pinned as :func:`_trilinear_gather_loop` and the parity tests assert
  bit-equality.
* inverse-distance weighting over the ``k`` nearest dataset points (built on
  :class:`scipy.spatial.cKDTree`) for unstructured grids and point clouds.

:class:`FieldInterpolator` picks the right strategy from the dataset type and
presents a single ``interpolate(name, points)`` interface.

Out-of-bounds queries are clamped to the boundary (constant extrapolation);
non-finite query points yield NaN output rows instead of garbage indices —
load-bearing once the ray marcher samples positions in bulk.
"""

from __future__ import annotations

import threading
import weakref
from typing import Dict, Optional, Tuple

import numpy as np
from scipy.spatial import cKDTree

from repro.datamodel import Dataset, ImageData

__all__ = ["TrilinearSampler", "trilinear_interpolate", "FieldInterpolator"]


def _as_query_points(points) -> np.ndarray:
    """``(n, 3)`` float64 view of the query points (no copy when possible)."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        pts = pts.reshape(-1, 3)
    return pts


class TrilinearSampler:
    """Reusable trilinear probe of one point array on an ImageData lattice.

    Construction resolves the array, flattens the value table and captures
    the lattice strides; :meth:`__call__` then performs the whole
    interpolation with one batched 8-corner gather.  Results are bit-equal
    to :func:`_trilinear_gather_loop` (same index math, same lerp
    association order).
    """

    def __init__(self, image: ImageData, array_name: str) -> None:
        if array_name not in image.point_data:
            raise KeyError(f"no point array named {array_name!r}")
        arr = image.point_data[array_name]
        nx, ny, nz = image.dimensions
        self.image = image
        self.array_name = array_name
        self.n_components = arr.n_components
        #: kept as a reference for cache validation (see module memo below)
        self._source_values = arr.values
        # point id = x + nx*(y + ny*z): the flat (n_points, c) table is the
        # lattice in native memory order, so corner gathers become flat takes
        self._values = np.ascontiguousarray(
            np.asarray(arr.values, dtype=np.float64).reshape(-1, arr.n_components)
        )
        self._maxs = np.array([nx - 1, ny - 1, nz - 1], dtype=np.float64)
        self._imaxs = self._maxs.astype(np.int64)
        self._i0_cap = np.maximum(self._imaxs - 1, 0)
        self._strides = (1, nx, nx * ny)
        # i1 = i0 + 1 <= imax already holds whenever every axis has >= 2
        # samples (i0 is capped at imax - 1); the clamp pass is only needed
        # for degenerate single-slab axes
        self._needs_i1_clamp = bool((self._imaxs == 0).any())

    # ------------------------------------------------------------------ #
    def __call__(self, points) -> np.ndarray:
        """Interpolate at ``(n, 3)`` world positions.

        Returns ``(n,)`` for scalars, ``(n, c)`` otherwise.  Rows with
        non-finite coordinates come back NaN.
        """
        pts = _as_query_points(points)
        cont = self.image.world_to_continuous_index(pts)

        finite = None
        if not np.isfinite(cont).all():
            finite = np.isfinite(cont).all(axis=1)
            cont = np.where(finite[:, None], cont, 0.0)

        # transposed contiguous layout: every subsequent op runs one pass
        # over a (3, n) block instead of three strided column passes
        n = cont.shape[0]
        axes = np.empty((3, n), dtype=np.float64)
        cont.T.clip(0.0, self._maxs[:, None], out=axes)
        out = self._sample_axes(axes)

        if finite is not None:
            out[~finite] = np.nan
        if self.n_components == 1:
            return out[:, 0]
        return out

    def make_workspace(self, n: int) -> "_SamplerWorkspace":
        """Preallocate reusable gather scratch for up to ``n`` query points.

        Repeated bulk sampling (ray marching) otherwise re-allocates several
        megabytes of index/gather buffers per call; a workspace owned by the
        caller amortises that.  A workspace must not be shared across
        threads or across samplers with different component counts.
        """
        return _SamplerWorkspace(n, self.n_components)

    def sample_continuous_axes(
        self, axes: np.ndarray, workspace: "_SamplerWorkspace" = None
    ) -> np.ndarray:
        """Interpolate at pre-converted continuous lattice coordinates.

        ``axes`` is a ``(3, n)`` float64 buffer of *finite* fractional
        ``(i, j, k)`` indices (the affine world-to-index transform already
        applied); it is consumed as scratch (clipped in place, then
        overwritten with the lerp fractions).  This is the ray
        marcher's fast path: stepping a ray in index space skips the per
        sample world-to-index conversion and the finite scan of
        :meth:`__call__`.  Returns ``(n,)`` for scalars, ``(n, c)``
        otherwise.
        """
        # ndarray.clip dodges the np.clip dispatch wrapper — measurable at
        # one call per marching step
        axes.clip(0.0, self._maxs[:, None], out=axes)
        out = self._sample_axes(axes, workspace)
        if self.n_components == 1:
            return out[:, 0]
        return out

    def _sample_axes(
        self, axes: np.ndarray, workspace: "_SamplerWorkspace" = None
    ) -> np.ndarray:
        """Gather+lerp core over a clipped ``(3, n)`` index buffer."""
        n = axes.shape[1]
        if workspace is not None:
            i0 = workspace.i0[:, :n]
            i1 = workspace.i1[:, :n]
            idx8 = workspace.idx8[:, :n]
        else:
            i0 = np.empty((3, n), dtype=np.int64)
            i1 = np.empty((3, n), dtype=np.int64)
            idx8 = np.empty((8, n), dtype=np.int64)
        # int cast truncates toward zero == floor, since axes is clipped >= 0
        i0[...] = axes
        np.minimum(i0, self._i0_cap[:, None], out=i0)
        frac = np.subtract(axes, i0, out=axes)  # axes buffer is dead after this
        np.add(i0, 1, out=i1)
        if self._needs_i1_clamp:
            np.minimum(i1, self._imaxs[:, None], out=i1)

        _, sy, sz = self._strides
        # scale the y/z index rows in place (frac and i1 are already derived
        # from the raw values, and only i0[0]/i1[0] are consumed unscaled)
        y0 = np.multiply(i0[1], sy, out=i0[1])
        y1 = np.multiply(i1[1], sy, out=i1[1])
        z0 = np.multiply(i0[2], sz, out=i0[2])
        z1 = np.multiply(i1[2], sz, out=i1[2])
        # flat corner ids in x-major order (row = 4*x + 2*y + z) so every
        # lerp level reduces two contiguous halves — one gather, three lerps
        yz = idx8[:4]
        np.add(y0, z0, out=yz[0])
        np.add(y0, z1, out=yz[1])
        np.add(y1, z0, out=yz[2])
        np.add(y1, z1, out=yz[3])
        np.add(yz, i1[0], out=idx8[4:])
        np.add(yz, i0[0], out=yz)

        fx, fy, fz = frac[0], frac[1], frac[2]
        if workspace is None:
            return _gather_lerp(self._values, idx8, fx, fy, fz)
        return _gather_lerp(
            self._values, idx8, fx, fy, fz,
            gather_out=workspace.g[:, :n], f1_out=workspace.f1[:n],
        )


class _SamplerWorkspace:
    """Reusable gather scratch for :meth:`TrilinearSampler.sample_continuous_axes`.

    Slices of these buffers are handed out per call, so the same workspace
    serves a shrinking active set (e.g. compacted rays) without reallocating.
    """

    __slots__ = ("i0", "i1", "idx8", "g", "f1")

    def __init__(self, n: int, n_components: int) -> None:
        self.i0 = np.empty((3, n), dtype=np.int64)
        self.i1 = np.empty((3, n), dtype=np.int64)
        self.idx8 = np.empty((8, n), dtype=np.int64)
        shape = (8, n) if n_components == 1 else (8, n, n_components)
        self.g = np.empty(shape, dtype=np.float64)
        self.f1 = np.empty(n, dtype=np.float64)


def _gather_lerp(
    values: np.ndarray,
    idx8: np.ndarray,
    fx: np.ndarray,
    fy: np.ndarray,
    fz: np.ndarray,
    gather_out: np.ndarray = None,
    f1_out: np.ndarray = None,
) -> np.ndarray:
    """The NumPy gather+lerp core: one batched 8-corner gather, three lerps.

    ``idx8`` rows are x-major (``4*x + 2*y + z``), so each lerp level blends
    the two contiguous halves of the previous one in a single vectorised
    operation.  The elementwise arithmetic matches the pinned
    :func:`_trilinear_gather_loop` exactly (``a*(1-f) + b*f`` association),
    keeping the two bit-equal.
    """
    # mode="clip" is safe (indices are pre-clamped) and dodges np.take's
    # slow bounds-checked write path for mode="raise" with ``out=``
    if values.shape[1] == 1:
        if gather_out is not None:
            g = np.take(values[:, 0], idx8, out=gather_out, mode="clip")  # (8, n)
        else:
            g = values[:, 0][idx8]  # (8, n) — single gather
    else:
        if gather_out is not None:
            g = np.take(values, idx8, axis=0, out=gather_out, mode="clip")  # (8, n, c)
        else:
            g = values[idx8]  # (8, n, c) — single gather
        fx = fx[:, None]
        fy = fy[:, None]
        fz = fz[:, None]
    # reduce in place on the freshly gathered block: same ``a*(1-f) + b*f``
    # operand order as the pinned loop (bit-equal), but no lerp temporaries;
    # the ``1 - f`` complements sequentially reuse one scratch row when the
    # caller provides it (scalar fields only — fx is (n, 1) otherwise)
    if f1_out is not None and values.shape[1] == 1:
        f1 = np.subtract(1.0, fx, out=f1_out)
        g[:4] *= f1
        g[4:] *= fx
        g[:4] += g[4:]
        np.subtract(1.0, fy, out=f1)
        g[0:2] *= f1
        g[2:4] *= fy
        g[0:2] += g[2:4]
        np.subtract(1.0, fz, out=f1)
        g[0] *= f1
        g[1] *= fz
        g[0] += g[1]
    else:
        g[:4] *= 1 - fx
        g[4:] *= fx
        g[:4] += g[4:]
        g[0:2] *= 1 - fy
        g[2:4] *= fy
        g[0:2] += g[2:4]
        g[0] *= 1 - fz
        g[1] *= fz
        g[0] += g[1]
    out = g[0]
    if values.shape[1] == 1:
        return out[:, None]
    return out


def _trilinear_gather_loop(image: ImageData, array_name: str, points: np.ndarray) -> np.ndarray:
    """The historical implementation: eight separate 3-axis corner gathers.

    Pinned as the reference oracle for :class:`TrilinearSampler`; the parity
    tests assert bit-equality between the two.
    """
    if array_name not in image.point_data:
        raise KeyError(f"no point array named {array_name!r}")
    arr = image.point_data[array_name]
    nx, ny, nz = image.dimensions
    values = arr.values.reshape(nz, ny, nx, arr.n_components)

    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    cont = image.world_to_continuous_index(pts)  # columns are (i, j, k) fractional

    # clamp to the valid continuous index range
    maxs = np.array([nx - 1, ny - 1, nz - 1], dtype=np.float64)
    cont = np.clip(cont, 0.0, maxs)

    i0 = np.floor(cont).astype(np.int64)
    i0 = np.minimum(i0, np.maximum(maxs.astype(np.int64) - 1, 0))
    frac = cont - i0
    i1 = np.minimum(i0 + 1, maxs.astype(np.int64))

    fx, fy, fz = frac[:, 0:1], frac[:, 1:2], frac[:, 2:3]
    ix0, iy0, iz0 = i0[:, 0], i0[:, 1], i0[:, 2]
    ix1, iy1, iz1 = i1[:, 0], i1[:, 1], i1[:, 2]

    c000 = values[iz0, iy0, ix0]
    c100 = values[iz0, iy0, ix1]
    c010 = values[iz0, iy1, ix0]
    c110 = values[iz0, iy1, ix1]
    c001 = values[iz1, iy0, ix0]
    c101 = values[iz1, iy0, ix1]
    c011 = values[iz1, iy1, ix0]
    c111 = values[iz1, iy1, ix1]

    c00 = c000 * (1 - fx) + c100 * fx
    c10 = c010 * (1 - fx) + c110 * fx
    c01 = c001 * (1 - fx) + c101 * fx
    c11 = c011 * (1 - fx) + c111 * fx
    c0 = c00 * (1 - fy) + c10 * fy
    c1 = c01 * (1 - fy) + c11 * fy
    out = c0 * (1 - fz) + c1 * fz

    if arr.n_components == 1:
        return out[:, 0]
    return out


#: per-image memo of samplers, keyed weakly so datasets stay collectable and
#: validated against the source values object so replaced arrays re-build
_SAMPLER_CACHE: "weakref.WeakKeyDictionary[ImageData, Dict[str, TrilinearSampler]]" = (
    weakref.WeakKeyDictionary()
)
_SAMPLER_CACHE_LOCK = threading.Lock()


def _sampler_for(image: ImageData, array_name: str) -> TrilinearSampler:
    with _SAMPLER_CACHE_LOCK:
        per_image = _SAMPLER_CACHE.get(image)
        if per_image is not None:
            sampler = per_image.get(array_name)
            if sampler is not None and sampler._source_values is image.point_data[array_name].values:
                return sampler
    sampler = TrilinearSampler(image, array_name)
    with _SAMPLER_CACHE_LOCK:
        _SAMPLER_CACHE.setdefault(image, {})[array_name] = sampler
    return sampler


def trilinear_interpolate(image: ImageData, array_name: str, points: np.ndarray) -> np.ndarray:
    """Trilinearly interpolate a point array of an :class:`ImageData`.

    Parameters
    ----------
    image:
        The structured grid.
    array_name:
        Name of the point data array (scalar or multi-component).
    points:
        ``(n, 3)`` world-space query points.  Points outside the grid are
        clamped to the boundary (constant extrapolation); points with
        non-finite coordinates yield NaN.

    Returns
    -------
    ``(n,)`` array for scalars or ``(n, c)`` for ``c``-component arrays.

    The sampler is memoized per ``(image, array)`` so repeated bulk probes
    (ray marching, RK4 integration) skip the per-call setup.
    """
    return _sampler_for(image, array_name)(points)


class FieldInterpolator:
    """Interpolate any point array of a dataset at arbitrary positions.

    For :class:`ImageData` inputs the interpolation is trilinear; for every
    other dataset type an inverse-distance weighting over the ``k`` nearest
    points (default 8) is used, backed by a KD-tree built once per
    interpolator instance.
    """

    def __init__(self, dataset: Dataset, k_neighbors: int = 8, power: float = 2.0) -> None:
        self.dataset = dataset
        self.k_neighbors = int(k_neighbors)
        self.power = float(power)
        self._tree: Optional[cKDTree] = None
        self._points: Optional[np.ndarray] = None
        self._k: int = self.k_neighbors
        self._is_image = isinstance(dataset, ImageData)
        #: per-array memos so the integration loop skips repeated lookups
        self._arrays: Dict[str, Tuple[np.ndarray, int]] = {}
        self._samplers: Dict[str, TrilinearSampler] = {}
        if not self._is_image:
            self._points = dataset.get_points()
            if self._points.shape[0] == 0:
                raise ValueError("cannot interpolate on a dataset with no points")
            self._tree = cKDTree(self._points)
            self._k = min(self.k_neighbors, self._points.shape[0])
        self._bounds = dataset.bounds()

    # ------------------------------------------------------------------ #
    @property
    def bounds(self):
        return self._bounds

    def contains(self, points: np.ndarray, tol_fraction: float = 0.0) -> np.ndarray:
        """Vectorised test of whether query points lie inside the data bounds."""
        tol = tol_fraction * self._bounds.diagonal
        return self._bounds.contains_points(points, tol=tol)

    def array_names(self):
        return self.dataset.point_data.names()

    def n_components(self, array_name: str) -> int:
        return self.dataset.point_data[array_name].n_components

    # ------------------------------------------------------------------ #
    def interpolate(self, array_name: str, points: np.ndarray) -> np.ndarray:
        """Interpolate the named point array at ``(n, 3)`` positions."""
        pts = _as_query_points(points)
        if self._is_image:
            sampler = self._samplers.get(array_name)
            if sampler is None:
                sampler = _sampler_for(self.dataset, array_name)
                self._samplers[array_name] = sampler
            return sampler(pts)
        return self._idw(array_name, pts)

    def velocity(self, array_name: str, points: np.ndarray) -> np.ndarray:
        """Interpolate a vector array, always returning ``(n, 3)``."""
        out = self.interpolate(array_name, points)
        if out.ndim == 1:
            raise ValueError(f"array {array_name!r} is scalar, not a vector field")
        if out.shape[1] != 3:
            raise ValueError(f"array {array_name!r} has {out.shape[1]} components, need 3")
        return out

    # ------------------------------------------------------------------ #
    def _idw(self, array_name: str, pts: np.ndarray) -> np.ndarray:
        cached = self._arrays.get(array_name)
        if cached is None:
            if array_name not in self.dataset.point_data:
                raise KeyError(f"no point array named {array_name!r}")
            arr = self.dataset.point_data[array_name]
            cached = (arr.values, arr.n_components)
            self._arrays[array_name] = cached
        values, n_components = cached
        assert self._tree is not None
        k = self._k
        distances, indices = self._tree.query(pts, k=k)
        if k == 1:
            distances = distances[:, None]
            indices = indices[:, None]
        # exact hits: avoid division by zero by treating them as dominant
        eps = 1e-12
        weights = 1.0 / np.maximum(distances, eps) ** self.power
        weights /= weights.sum(axis=1, keepdims=True)
        neighbor_values = values[indices]  # (n, k, c)
        out = np.einsum("nk,nkc->nc", weights, neighbor_values)
        if n_components == 1:
            return out[:, 0]
        return out
