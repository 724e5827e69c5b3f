"""Pairwise affinities between local models, and automatic scale selection.

Matrix discrepancies default to the spectral norm; a Frobenius mode is
available everywhere through ``norm="frobenius"``.  Indicator affinities
have zero diagonal; Gaussian-type affinities have unit diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from . import linalg
from .errors import DimensionMismatch, InvalidInput, NoPairsInRange, TooFewCenters
from .local_pca import LocalModel
from .neighborhoods import NeighborhoodIndex, PointCloud

Array = np.ndarray


@dataclass
class ScaleParams:
    """Scales of the neighborhood graph construction.

    r: local PCA radius (length); eps: spatial scale (length);
    eta: covariance/projection scale (dimensionless, relative);
    tau: generation-side noise bound, carried for reporting.
    """

    r: float
    eps: float
    eta: float
    tau: float = 0.0

    def __post_init__(self):
        if self.r <= 0 or self.eps <= 0 or self.eta <= 0:
            raise InvalidInput("r, eps, eta must be positive")
        if self.tau < 0:
            raise InvalidInput("tau must be nonnegative")


def pairwise_diff_norms(stack: Array, pairs: Array, norm: str) -> Array:
    diffs = stack[pairs[:, 0]] - stack[pairs[:, 1]]
    if norm == "spectral":
        return linalg.spectral_norms(diffs)
    if norm == "frobenius":
        return np.sqrt((diffs * diffs).sum(axis=(-2, -1)))
    raise InvalidInput(f"unknown norm mode {norm!r}")


def _indicator_from_pairs(n: int, pairs: Array, keep: Array) -> Array:
    w = np.zeros((n, n))
    if pairs.size:
        i = pairs[keep, 0]
        j = pairs[keep, 1]
        w[i, j] = 1.0
        w[j, i] = 1.0
    return w


def indicator_pairs(
    models: list[LocalModel],
    index: NeighborhoodIndex,
    eps: float,
    threshold: float,
    attr: str,
    norm: str,
) -> tuple[Array, Array]:
    """Sparse form of the indicator affinities: candidate pairs within eps
    and the mask of pairs whose matrix gap stays within ``threshold``.

    Degenerate models never connect.  This is the exact edge set of the
    dense indicator matrices, without materializing n x n storage.
    """
    pairs = index.pairs_within(eps)
    if pairs.size == 0:
        return pairs.reshape(0, 2), np.zeros(0, dtype=bool)
    stack = np.stack([getattr(m, attr) for m in models])
    keep = pairwise_diff_norms(stack, pairs, norm) <= threshold
    alive = ~np.asarray([m.degenerate for m in models])
    keep &= alive[pairs[:, 0]] & alive[pairs[:, 1]]
    return pairs, keep


def cov_indicator_affinity(
    models: list[LocalModel],
    cloud: PointCloud,
    eps: float,
    eta: float,
    r: float,
    norm: str = "spectral",
    index: NeighborhoodIndex | None = None,
) -> Array:
    """Binary affinity: 1 iff dist <= eps and ||C_i - C_j|| <= eta * r^2.

    Zero diagonal.  Degenerate models are left unconnected.
    """
    n = len(models)
    if n != cloud.n:
        raise InvalidInput("one model per data point is required")
    index = index or NeighborhoodIndex(cloud)
    pairs, keep = indicator_pairs(models, index, eps, eta * r * r, "covariance", norm)
    return _indicator_from_pairs(n, pairs, keep)


def proj_indicator_affinity(
    models: list[LocalModel],
    cloud: PointCloud,
    eps: float,
    eta: float,
    norm: str = "spectral",
    index: NeighborhoodIndex | None = None,
) -> Array:
    """Binary affinity: 1 iff dist <= eps and ||Q_i - Q_j|| <= eta.

    Models with differing estimated dimension sit at spectral distance 1,
    so they disconnect whenever eta < 1.
    """
    n = len(models)
    if n != cloud.n:
        raise InvalidInput("one model per data point is required")
    index = index or NeighborhoodIndex(cloud)
    pairs, keep = indicator_pairs(models, index, eps, eta, "projection", norm)
    return _indicator_from_pairs(n, pairs, keep)


def _pairwise_sq_dists(y: Array) -> Array:
    diff = y[:, None, :] - y[None, :, :]
    return (diff * diff).sum(axis=2)


def _pairwise_proj_dists(projs: Array, norm: str = "spectral") -> Array:
    n = projs.shape[0]
    out = np.zeros((n, n))
    if n > 1:
        i, j = np.triu_indices(n, k=1)
        vals = pairwise_diff_norms(projs, np.column_stack([i, j]), norm)
        out[i, j] = vals
        out[j, i] = vals
    return out


def gaussian_product_affinity(models: list[LocalModel], eps: float, eta: float) -> Array:
    """W_ij = exp(-||y_i-y_j||^2/eps^2) * exp(-||Q_i-Q_j||^2/eta^2).

    Dense, symmetric, entries in (0, 1], unit diagonal.
    """
    if eps <= 0 or eta <= 0:
        raise InvalidInput("eps and eta must be positive")
    w = distance_gaussian_affinity(np.stack([m.center for m in models]), eps)
    qd = _pairwise_proj_dists(np.stack([m.projection for m in models]))
    w *= np.exp(-(qd * qd) / eta**2)  # the diagonal factor is exp(0) = 1
    return w


def distance_gaussian_affinity(points: Array, eps: float) -> Array:
    """Distance-only Gaussian affinity (tangent factor dropped)."""
    if eps <= 0:
        raise InvalidInput("eps must be positive")
    d2 = _pairwise_sq_dists(np.asarray(points, float))
    w = np.exp(-d2 / eps**2)
    np.fill_diagonal(w, 1.0)
    return w


def _knn_adjacency(y: Array, ell: int) -> tuple[Array, Array]:
    """Symmetric ell-NN indicator and ell-th neighbor distances (self excluded)."""
    n = y.shape[0]
    if ell < 1:
        raise InvalidInput("ell must be >= 1")
    if ell >= n:
        raise InvalidInput("ell must be smaller than the number of points")
    tree = cKDTree(y)
    dist, nn = tree.query(y, k=ell + 1)
    adj = np.zeros((n, n), dtype=bool)
    rows = np.repeat(np.arange(n), ell)
    adj[rows, nn[:, 1:].ravel()] = True
    adj |= adj.T
    np.fill_diagonal(adj, False)
    return adj, dist[:, ell]


def wang_affinity(models: list[LocalModel], ell: int, alpha: float) -> Array:
    """Mutual ell-NN indicator times the product of principal-angle cosines
    raised to alpha.  Requires equal estimated dimensions; unit diagonal.
    """
    if alpha <= 0:
        raise InvalidInput("alpha must be positive")
    dims = {m.est_dim for m in models}
    if len(dims) != 1 or models[0].est_dim < 1:
        raise DimensionMismatch(f"estimated dimensions differ: {sorted(dims)}")
    d = models[0].est_dim
    y = np.stack([m.center for m in models])
    adj, _ = _knn_adjacency(y, ell)
    bases = np.stack([linalg.eigh(m.projection).eigenvectors[:, :d] for m in models])
    n = len(models)
    w = np.zeros((n, n))
    i, j = np.nonzero(np.triu(adj, k=1))
    if i.size:
        # prod_s cos(theta_s) equals |det(U_i^T U_j)| for the top-d bases
        grams = np.einsum("pka,pkb->pab", bases[i], bases[j])
        prods = np.abs(np.linalg.det(grams))
        w[i, j] = prods**alpha
        w[j, i] = w[i, j]
    np.fill_diagonal(w, 1.0)
    return w


def gong_affinity(models: list[LocalModel], ell: int, eta: float) -> Array:
    """Self-tuned Gaussian times a principal-angle penalty.

    eps_i is the distance from point i to its ell-th nearest neighbor.
    For coincident points the angle factor is 1 when the projections
    agree and 0 otherwise (limit convention).
    """
    if eta <= 0:
        raise InvalidInput("eta must be positive")
    y = np.stack([m.center for m in models])
    _, eps_i = _knn_adjacency(y, ell)
    if (eps_i == 0).any():
        raise InvalidInput("gong affinity requires distinct points up to the ell-th neighbor")
    q = np.stack([m.projection for m in models])
    d2 = _pairwise_sq_dists(y)
    s = d2 / np.outer(eps_i, eps_i)
    qd = np.clip(_pairwise_proj_dists(q), 0.0, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        angle_term = np.where(s > 0, np.exp(-np.arcsin(qd) ** 2 / (eta**2 * s)), 0.0)
    coincident = (s == 0)
    angle_term[coincident] = (qd[coincident] <= 1e-12).astype(float)
    w = np.exp(-s) * angle_term
    np.fill_diagonal(w, 1.0)
    return w


def auto_epsilon(centers: Array) -> float:
    """Spatial scale: the largest nearest-neighbor distance among centers."""
    centers = np.asarray(centers, dtype=float)
    if centers.ndim != 2 or centers.shape[0] < 2:
        raise TooFewCenters("need at least two centers to select eps")
    d = np.sqrt(_pairwise_sq_dists(centers))
    np.fill_diagonal(d, np.inf)
    return float(d.min(axis=1).max())


def lower_median(values: Array) -> float:
    """Lower-middle order statistic, so the result is an observed value."""
    values = np.sort(np.asarray(values, dtype=float))
    if values.size == 0:
        raise InvalidInput("median of empty set")
    return float(values[(values.size - 1) // 2])


def auto_eta(models: list[LocalModel], eps: float) -> float:
    """Projection scale: median of ||Q_i - Q_j|| over center pairs closer
    than eps (strict inequality; spectral norm)."""
    y = np.stack([m.center for m in models])
    q = np.stack([m.projection for m in models])
    n = y.shape[0]
    i, j = np.triu_indices(n, k=1)
    # compare distances, not squared distances: eps is itself a pairwise
    # distance (eq. for the spatial scale), and the strict < must see the
    # boundary pair exactly
    dist = np.sqrt(((y[i] - y[j]) ** 2).sum(axis=1))
    close = dist < eps
    if not close.any():
        raise NoPairsInRange("no center pair strictly within eps")
    vals = pairwise_diff_norms(q, np.column_stack([i[close], j[close]]), "spectral")
    return lower_median(vals)
