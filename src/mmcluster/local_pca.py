"""Local sample covariances and tangent-projection estimation.

Covariances are normalized by the neighborhood size m (empirical-measure
convention), not m - 1; the closed-form oracles for uniform samples on
balls and segments rely on this.

One batched kernel serves every caller: ``_covariances`` reduces all
neighborhoods at once and ``_tangents`` runs one eigendecomposition over
the stack.  The single-matrix functions are views on it over a stack of
one.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from . import linalg
from .errors import EmptyNeighborhood, InvalidInput, ZeroCovariance
from .neighborhoods import NeighborhoodIndex, PointCloud

Array = np.ndarray


@dataclass
class LocalModels:
    """Local PCA summaries of n centers, as stacked arrays in center order.

    centers (n, D), neighbor_count (n,), covariance (n, D, D),
    projection (n, D, D), est_dim (n,) and degenerate (n,) bool.
    degenerate marks neighborhoods with fewer than 2 points (zero
    covariance), and neighborhoods whose covariance has fewer than d
    eigenvalues (none, in thresholded mode) above rounding; indicator
    affinities treat such models as unconnected.
    est_dim equals trace(projection) except for degenerate models, where
    both are zero.
    """

    centers: Array
    neighbor_count: Array
    covariance: Array
    projection: Array
    est_dim: Array
    degenerate: Array

    def __len__(self) -> int:
        return self.centers.shape[0]


def empirical_covariance(points: Array) -> Array:
    """Covariance of the empirical measure on ``points`` (1/m normalization)."""
    points = np.asarray(points, dtype=float)
    mu = points.mean(axis=0)
    dev = points - mu
    return linalg.symmetrize(dev.T @ dev / points.shape[0])


def _covariances(coords: Array, neighbor_lists) -> tuple[Array, Array]:
    """Neighbor counts (n,) and 1/m covariances (n, D, D) of index lists.

    Every list must be nonempty: ``reduceat`` has no empty segment.
    Two passes: the mean of each neighborhood, then the deviations from
    it, so precision does not depend on the distance from the origin.
    Entries are reduced one (a, b) pair at a time, keeping temporaries
    at O(nnz * D).  Neighborhoods of fewer than 2 points get the zero
    matrix.
    """
    counts = np.fromiter(map(len, neighbor_lists), dtype=np.intp,
                         count=len(neighbor_lists))
    dev = coords[np.fromiter(chain.from_iterable(neighbor_lists), dtype=np.intp,
                             count=int(counts.sum()))]
    starts = np.cumsum(counts) - counts
    mean = np.add.reduceat(dev, starts, axis=0) / counts[:, None]
    dim = coords.shape[1]
    for a in range(dim):
        dev[:, a] -= np.repeat(mean[:, a], counts)
    covs = np.empty((counts.size, dim, dim))
    for a in range(dim):
        for b in range(a, dim):
            covs[:, a, b] = covs[:, b, a] = (
                np.add.reduceat(dev[:, a] * dev[:, b], starts) / counts)
    covs[counts < 2] = 0.0
    return counts, covs


def _tangents(covs: Array, d: int | None = None, eta: float | None = None,
              floor: float = 0.0) -> tuple[Array, Array, Array]:
    """Ascending eigenvalues, est_dim and projection for each matrix of a stack.

    With ``d`` the projection is onto the top-d eigenvectors; with
    ``eta`` onto those whose eigenvalue strictly exceeds both sqrt(eta)
    times the top one and ``floor``.  A projection V diag(keep) V^T does
    not depend on the sign of the eigenvectors.
    """
    vals, vecs = np.linalg.eigh(covs)  # ascending
    if d is not None:
        keep = np.broadcast_to(np.arange(vals.shape[1]) >= vals.shape[1] - d, vals.shape)
    else:
        keep = vals > np.maximum(np.sqrt(eta) * vals[:, -1:], floor)
    proj = np.einsum("nij,nj,nkj->nik", vecs, keep.astype(float), vecs)
    return vals, keep.sum(axis=1), proj


def _stack_of_one(c: Array) -> Array:
    """The symmetric part of one finite matrix, as a (1, D, D) stack."""
    c = linalg.symmetrize(c)
    if not np.all(np.isfinite(c)):
        raise InvalidInput("matrix has non-finite entries")
    return c[None]


def local_covariance(cloud: PointCloud, index: NeighborhoodIndex, x: Array, r: float) -> Array:
    """Sample covariance of the closed r-ball neighborhood of ``x``."""
    idx = index.query(np.asarray(x, float), r)
    if idx.size == 0:
        raise EmptyNeighborhood(f"no points within r={r} of {x}")
    return _covariances(cloud.coords, [idx])[1][0]


def estimate_projection(c: Array, d: int) -> Array:
    """Rank-d orthogonal projection onto the top-d eigenvectors of ``c``."""
    c = _stack_of_one(c)
    if not 1 <= d <= c.shape[-1]:
        raise InvalidInput(f"d={d} out of range for dimension {c.shape[-1]}")
    return _tangents(c, d=d)[2][0]


def estimate_dim_thresholded(c: Array, eta: float) -> tuple[int, Array]:
    """Dimension and projection from eigenvalues exceeding sqrt(eta)*||c||.

    The count uses strict inequality.  Raises ZeroCovariance on the zero
    matrix.
    """
    if not 0.0 < eta < 1.0:
        raise InvalidInput("eta must lie in (0, 1)")
    vals, est_dim, proj = _tangents(_stack_of_one(c), eta=eta)
    if vals[0, -1] <= 0.0:
        raise ZeroCovariance("cannot threshold the zero covariance matrix")
    return int(est_dim[0]), proj[0]


def batch_local_models(
    cloud: PointCloud,
    index: NeighborhoodIndex,
    centers: Array,
    r: float,
    d: int | None = None,
    eta: float | None = None,
) -> LocalModels:
    """Local PCA of the closed r-ball around each center index, in center order.

    Exactly one of ``d`` (fixed tangent dimension) and ``eta``
    (threshold scale for dimension estimation) must be given.
    """
    if (d is None) == (eta is None):
        raise InvalidInput("pass exactly one of d (fixed) or eta (thresholded)")
    if d is not None and not 1 <= d <= cloud.dim:
        raise InvalidInput(f"d={d} out of range for ambient dimension {cloud.dim}")
    if eta is not None and not 0.0 < eta < 1.0:
        raise InvalidInput("eta must lie in (0, 1)")
    if not r > 0:
        raise InvalidInput("radius must be positive")
    centers = np.asarray(centers, dtype=int)
    if centers.size == 0:
        raise InvalidInput("centers must be nonempty")

    neighbor_lists = index.tree.query_ball_point(cloud.coords[centers], r,
                                                 return_sorted=True)
    counts, covs = _covariances(cloud.coords, neighbor_lists)
    # a mean that is off by rounding leaves covariance entries of about
    # (D eps_mach max|x|)^2 even for a ball of identical points; no
    # eigenvalue at or below that level counts
    rounding = cloud.dim * np.finfo(float).eps
    floor = (rounding * np.abs(cloud.coords).max()) ** 2
    vals, est_dim, proj = _tangents(covs, d=d, eta=eta, floor=floor)
    top = vals[:, -1:]
    if eta is not None:
        degenerate = top[:, 0] <= floor
    else:
        # a rank-d projection of a covariance with fewer than d eigenvalues
        # above rounding (say a 2-point ball with d = 2) is arbitrary
        above = vals > np.maximum(rounding * top, floor)
        degenerate = above.sum(axis=1) < d
    degenerate |= counts < 2
    proj[degenerate] = 0.0
    est_dim[degenerate] = 0
    return LocalModels(centers=cloud.coords[centers], neighbor_count=counts,
                       covariance=covs, projection=proj, est_dim=est_dim,
                       degenerate=degenerate)
