"""3-d Delaunay triangulation.

Two backends are provided:

* ``"bowyer-watson"`` — an incremental Bowyer–Watson implementation written
  here, operating on a super-tetrahedron and inserting points one at a time.
  It is the default and is what the paper's Delaunay3D pipeline runs on.
* ``"qhull"`` — :class:`scipy.spatial.Delaunay`, used as an independent
  cross-check in the test suite and as a faster option for very large inputs.

Both return the same logical result (a tetrahedralisation of the convex hull
of the input points); the tetrahedra themselves may differ when points are
nearly co-spherical, which is expected for Delaunay triangulations.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.datamodel import CellType, Dataset, UnstructuredGrid

__all__ = ["delaunay_tetrahedra", "delaunay_3d", "DelaunayError"]


class DelaunayError(RuntimeError):
    """Raised when a triangulation cannot be constructed."""


# --------------------------------------------------------------------------- #
# geometric predicates
# --------------------------------------------------------------------------- #
def _circumsphere(p0: np.ndarray, p1: np.ndarray, p2: np.ndarray, p3: np.ndarray) -> Tuple[np.ndarray, float]:
    """Circumcenter and squared circumradius of a tetrahedron.

    Solves the linear system derived from equating squared distances to the
    four vertices.  Degenerate (flat) tetrahedra yield an infinite radius so
    that they are always considered "bad" and removed.
    """
    a = np.vstack([p1 - p0, p2 - p0, p3 - p0])
    b = 0.5 * np.array(
        [
            np.dot(p1, p1) - np.dot(p0, p0),
            np.dot(p2, p2) - np.dot(p0, p0),
            np.dot(p3, p3) - np.dot(p0, p0),
        ]
    )
    det = np.linalg.det(a)
    if abs(det) < 1e-14:
        return np.zeros(3), np.inf
    center = np.linalg.solve(a, b)
    radius2 = float(np.dot(center - p0, center - p0))
    return center, radius2


def _tet_volume(p0: np.ndarray, p1: np.ndarray, p2: np.ndarray, p3: np.ndarray) -> float:
    return float(np.dot(np.cross(p1 - p0, p2 - p0), p3 - p0)) / 6.0


#: the four faces of a tetrahedron, in the boundary-walk order of the
#: historical loop (kept so the batched path emits faces identically)
_TET_FACES = np.array([[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]], dtype=np.int64)


def _super_tetrahedron(points: np.ndarray) -> np.ndarray:
    """Vertices of a tetrahedron generously enclosing all points."""
    center = points.mean(axis=0)
    extent = float(np.max(np.linalg.norm(points - center, axis=1)))
    extent = max(extent, 1e-6)
    s = 40.0 * extent
    return np.array(
        [
            center + np.array([0.0, 0.0, 3.0 * s]),
            center + np.array([2.0 * s, 0.0, -s]),
            center + np.array([-s, 1.8 * s, -s]),
            center + np.array([-s, -1.8 * s, -s]),
        ]
    )


def _circumspheres_batch(p0, p1, p2, p3) -> Tuple[np.ndarray, np.ndarray]:
    """Circumcenters and squared circumradii of ``(k, 3)`` vertex batches.

    Batched form of :func:`_circumsphere`: LAPACK factorises each ``(3, 3)``
    system individually inside the stacked ``det``/``solve`` calls, so the
    results are bit-identical to calling the scalar predicate per
    tetrahedron.  Degenerate rows get an infinite radius.
    """
    a = np.stack([p1 - p0, p2 - p0, p3 - p0], axis=1)  # (k, 3, 3)
    sq = lambda p: np.einsum("ij,ij->i", p, p)  # noqa: E731
    s0 = sq(p0)
    b = 0.5 * np.stack([sq(p1) - s0, sq(p2) - s0, sq(p3) - s0], axis=1)
    dets = np.linalg.det(a)
    good = np.abs(dets) >= 1e-14
    centers = np.zeros((p0.shape[0], 3))
    radii2 = np.full(p0.shape[0], np.inf)
    if good.any():
        centers[good] = np.linalg.solve(a[good], b[good][..., None])[..., 0]
        diff = centers[good] - p0[good]
        radii2[good] = np.einsum("ij,ij->i", diff, diff)
    return centers, radii2


def _tet_volumes_batch(p0, p1, p2, p3) -> np.ndarray:
    """Signed volumes of ``(k, 3)`` vertex batches (see :func:`_tet_volume`)."""
    return np.einsum("ij,ij->i", np.cross(p1 - p0, p2 - p0), p3 - p0) / 6.0


def _bowyer_watson(points: np.ndarray) -> np.ndarray:
    """Incremental Delaunay tetrahedralisation; returns an ``(m, 4)`` id array.

    Fully array-based insertion: the live triangulation is parallel NumPy
    arrays (vertex ids, circumcenters, squared circumradii), the
    circumsphere-violation test is one vectorised operation per insertion,
    cavity boundary faces are found with a packed-key ``np.unique`` count
    (singletons, in generation order — matching the historical dict walk),
    and all new tetrahedra of an insertion get their circumspheres from one
    batched LAPACK call.  The per-tet/per-face loop version is pinned as
    :func:`_bowyer_watson_loop`; parity tests assert identical output.
    """
    n = points.shape[0]
    if n < 4:
        raise DelaunayError("Delaunay3D requires at least 4 points")

    all_points = np.vstack([points, _super_tetrahedron(points)])
    n_total = n + 4
    if n_total >= 2**21:  # packed face keys need n_total**3 < 2**63
        raise DelaunayError("native Bowyer-Watson supports at most 2**21 points")

    verts = np.array([[n, n + 1, n + 2, n + 3]], dtype=np.int64)
    c0, r0 = _circumsphere(*(all_points[v] for v in verts[0]))
    centers = np.asarray([c0])
    radii2 = np.asarray([r0])

    # Insert points in a shuffled but deterministic order to avoid the
    # pathological behaviour of sorted inputs.
    order = np.random.default_rng(12345).permutation(n)

    for pid in order:
        p = all_points[pid]
        d2 = np.einsum("ij,ij->i", centers - p, centers - p)
        with np.errstate(invalid="ignore"):
            bad_mask = (d2 <= radii2 * (1.0 + 1e-10)) | ~np.isfinite(radii2)
        if not bad_mask.any():
            # numerical trouble: attach to the tet whose circumsphere is closest
            bad_mask = np.zeros(verts.shape[0], dtype=bool)
            bad_mask[int(np.argmin(d2 - radii2))] = True

        bad = verts[bad_mask]  # (k, 4)

        # cavity boundary: faces appearing exactly once among the bad tets,
        # kept in generation order (tet-major, face-minor) like the dict walk
        faces = bad[:, _TET_FACES].reshape(-1, 3)  # (4k, 3)
        keys = np.sort(faces, axis=1)
        packed = (keys[:, 0] * n_total + keys[:, 1]) * n_total + keys[:, 2]
        _, inverse, counts = np.unique(packed, return_inverse=True, return_counts=True)
        boundary = faces[counts[inverse.reshape(-1)] == 1]  # (f, 3)

        keep_mask = ~bad_mask
        verts = verts[keep_mask]
        centers = centers[keep_mask]
        radii2 = radii2[keep_mask]

        if boundary.shape[0]:
            new_verts = np.concatenate(
                [boundary, np.full((boundary.shape[0], 1), pid, dtype=np.int64)],
                axis=1,
            )
            p0, p1, p2, p3 = (all_points[new_verts[:, i]] for i in range(4))
            volumes = _tet_volumes_batch(p0, p1, p2, p3)
            solid = np.abs(volumes) >= 1e-14
            if solid.any():
                new_verts = new_verts[solid]
                new_centers, new_radii2 = _circumspheres_batch(
                    p0[solid], p1[solid], p2[solid], p3[solid]
                )
                verts = np.concatenate([verts, new_verts])
                centers = np.concatenate([centers, new_centers])
                radii2 = np.concatenate([radii2, new_radii2])

    # Drop every tetrahedron touching the super-tetrahedron vertices.
    final = verts[(verts < n).all(axis=1)]
    if final.shape[0] == 0:
        raise DelaunayError("triangulation collapsed; input points may be degenerate")
    return np.ascontiguousarray(final, dtype=np.int64)


def _bowyer_watson_loop(points: np.ndarray) -> np.ndarray:
    """The historical per-tet/per-face insertion loop, kept as the reference
    oracle; the parity tests pin :func:`_bowyer_watson` against this."""
    n = points.shape[0]
    if n < 4:
        raise DelaunayError("Delaunay3D requires at least 4 points")

    all_points = np.vstack([points, _super_tetrahedron(points)])
    sv = (n, n + 1, n + 2, n + 3)

    verts_list: List[Tuple[int, int, int, int]] = [sv]
    c0, r0 = _circumsphere(*(all_points[v] for v in sv))
    centers = np.asarray([c0])
    radii2 = np.asarray([r0])

    order = np.random.default_rng(12345).permutation(n)

    for pid in order:
        p = all_points[pid]
        d2 = np.einsum("ij,ij->i", centers - p, centers - p)
        with np.errstate(invalid="ignore"):
            bad_mask = (d2 <= radii2 * (1.0 + 1e-10)) | ~np.isfinite(radii2)
        if not bad_mask.any():
            # numerical trouble: attach to the tet whose circumsphere is closest
            bad_mask = np.zeros(len(verts_list), dtype=bool)
            bad_mask[int(np.argmin(d2 - radii2))] = True

        bad_indices = np.nonzero(bad_mask)[0]

        # boundary of the cavity: faces appearing exactly once among bad tets
        face_count: Dict[Tuple[int, int, int], Optional[Tuple[int, int, int]]] = {}
        for idx in bad_indices:
            v = verts_list[idx]
            for face in (
                (v[0], v[1], v[2]),
                (v[0], v[1], v[3]),
                (v[0], v[2], v[3]),
                (v[1], v[2], v[3]),
            ):
                key = tuple(sorted(face))
                if key in face_count:
                    face_count[key] = None
                else:
                    face_count[key] = face
        boundary = [f for f in face_count.values() if f is not None]

        keep_mask = ~bad_mask
        verts_list = [verts_list[i] for i in np.nonzero(keep_mask)[0]]
        centers = centers[keep_mask]
        radii2 = radii2[keep_mask]

        new_centers: List[np.ndarray] = []
        new_radii2: List[float] = []
        for face in boundary:
            verts = (face[0], face[1], face[2], int(pid))
            p0, p1, p2, p3 = (all_points[v] for v in verts)
            if abs(_tet_volume(p0, p1, p2, p3)) < 1e-14:
                continue
            c, r2 = _circumsphere(p0, p1, p2, p3)
            verts_list.append(verts)
            new_centers.append(c)
            new_radii2.append(r2)
        if new_centers:
            centers = np.vstack([centers, np.asarray(new_centers)])
            radii2 = np.concatenate([radii2, np.asarray(new_radii2)])

    # Drop every tetrahedron touching the super-tetrahedron vertices.
    final = [v for v in verts_list if all(i < n for i in v)]
    if not final:
        raise DelaunayError("triangulation collapsed; input points may be degenerate")
    return np.asarray(final, dtype=np.int64)


def _qhull(points: np.ndarray) -> np.ndarray:
    from scipy.spatial import Delaunay as _SciPyDelaunay

    tri = _SciPyDelaunay(points)
    return np.asarray(tri.simplices, dtype=np.int64)


def delaunay_tetrahedra(
    points: np.ndarray,
    backend: str = "bowyer-watson",
) -> np.ndarray:
    """Tetrahedralise a point set; returns an ``(m, 4)`` connectivity array."""
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    if pts.shape[0] < 4:
        raise DelaunayError("Delaunay3D requires at least 4 points")
    backend = backend.lower()
    if backend in ("bowyer-watson", "bw", "native"):
        return _bowyer_watson(pts)
    if backend in ("qhull", "scipy"):
        return _qhull(pts)
    raise ValueError(f"unknown Delaunay backend {backend!r}")


def delaunay_3d(
    dataset: Dataset,
    backend: str = "auto",
    max_native_points: int = 1500,
) -> UnstructuredGrid:
    """Delaunay3D filter: triangulate the points of any dataset.

    ``backend="auto"`` uses the native Bowyer–Watson implementation up to
    ``max_native_points`` input points and the qhull backend beyond that
    (the native insertion loop is pure Python and scales roughly
    quadratically).

    The output grid carries all point-data arrays of the input unchanged
    (point order and count are preserved).
    """
    points = dataset.get_points()
    if backend == "auto":
        chosen = "bowyer-watson" if points.shape[0] <= max_native_points else "qhull"
    else:
        chosen = backend
    tets = delaunay_tetrahedra(points, backend=chosen)

    grid = UnstructuredGrid(points.copy())
    grid.add_cells(CellType.TETRA, tets)
    for name in dataset.point_data.names():
        grid.add_point_array(name, dataset.point_data[name].values.copy())
    return grid
