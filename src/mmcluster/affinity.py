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
from .local_pca import LocalModels
from .neighborhoods import NeighborhoodIndex, PointCloud, build_index

Array = np.ndarray


@dataclass
class ScaleParams:
    """Scales of the neighborhood graph construction.

    r: local PCA radius (length); eps: spatial scale (length);
    eta: covariance/projection scale (dimensionless, relative).
    """

    r: float
    eps: float
    eta: float

    def __post_init__(self):
        if self.r <= 0 or self.eps <= 0 or self.eta <= 0:
            raise InvalidInput("r, eps, eta must be positive")


def pairwise_diff_norms(stack: Array, pairs: Array, norm: str) -> Array:
    diffs = stack[pairs[:, 0]] - stack[pairs[:, 1]]
    if norm == "spectral":
        return linalg.spectral_norms(diffs)
    if norm == "frobenius":
        return np.sqrt((diffs * diffs).sum(axis=(-2, -1)))
    raise InvalidInput(f"unknown norm mode {norm!r}")


def indicator_pairs(
    stack: Array,
    degenerate: Array,
    index: NeighborhoodIndex,
    eps: float,
    threshold: float,
    norm: str,
) -> tuple[Array, Array]:
    """Sparse form of the indicator affinities: candidate pairs within eps
    and the mask of pairs whose gap in ``stack`` (n, D, D) stays within
    ``threshold``.

    Models flagged in ``degenerate`` never connect.  This is the exact
    edge set of the dense indicator matrices, without materializing
    n x n storage.
    """
    pairs = index.pairs_within(eps)
    if pairs.size == 0:
        return pairs.reshape(0, 2), np.zeros(0, dtype=bool)
    keep = pairwise_diff_norms(stack, pairs, norm) <= threshold
    keep &= ~(degenerate[pairs[:, 0]] | degenerate[pairs[:, 1]])
    return pairs, keep


def _dense_indicator(models: LocalModels, stack: Array, eps: float,
                     threshold: float, norm: str) -> Array:
    n = len(models)
    index = build_index(PointCloud(models.centers))
    pairs, keep = indicator_pairs(stack, models.degenerate, index, eps, threshold, norm)
    w = np.zeros((n, n))
    i, j = pairs[keep].T
    w[i, j] = w[j, i] = 1.0
    return w


def cov_indicator_affinity(models: LocalModels, eps: float, eta: float, r: float,
                           norm: str = "spectral") -> Array:
    """Binary affinity: 1 iff dist <= eps and ||C_i - C_j|| <= eta * r^2.

    Zero diagonal.  Degenerate models are left unconnected.
    """
    return _dense_indicator(models, models.covariance, eps, eta * r * r, norm)


def proj_indicator_affinity(models: LocalModels, eps: float, eta: float,
                            norm: str = "spectral") -> Array:
    """Binary affinity: 1 iff dist <= eps and ||Q_i - Q_j|| <= eta.

    Models with differing estimated dimension sit at spectral distance 1,
    so they disconnect whenever eta < 1.
    """
    return _dense_indicator(models, models.projection, eps, eta, norm)


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


def gaussian_product_affinity(models: LocalModels, eps: float, eta: float) -> Array:
    """W_ij = exp(-||y_i-y_j||^2/eps^2) * exp(-||Q_i-Q_j||^2/eta^2).

    Dense, symmetric, entries in (0, 1], unit diagonal.
    """
    if eps <= 0 or eta <= 0:
        raise InvalidInput("eps and eta must be positive")
    w = distance_gaussian_affinity(models.centers, eps)
    qd = _pairwise_proj_dists(models.projection)
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


def wang_affinity(models: LocalModels, ell: int, alpha: float) -> Array:
    """Mutual ell-NN indicator times the product of principal-angle cosines
    raised to alpha.  Requires equal estimated dimensions; unit diagonal.
    """
    if alpha <= 0:
        raise InvalidInput("alpha must be positive")
    dims = np.unique(models.est_dim)
    if dims.size != 1 or dims[0] < 1:
        raise DimensionMismatch(f"estimated dimensions differ: {dims.tolist()}")
    d = int(dims[0])
    adj, _ = _knn_adjacency(models.centers, ell)
    # any orthonormal basis of each range will do: |det(U_i^T U_j)| does
    # not depend on the choice
    bases = np.linalg.eigh(models.projection)[1][:, :, -d:]
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


def gong_affinity(models: LocalModels, ell: int, eta: float) -> Array:
    """Self-tuned Gaussian times a principal-angle penalty.

    eps_i is the distance from point i to its ell-th nearest neighbor.
    For coincident points the angle factor is 1 when the projections
    agree and 0 otherwise (limit convention).
    """
    if eta <= 0:
        raise InvalidInput("eta must be positive")
    _, eps_i = _knn_adjacency(models.centers, ell)
    if (eps_i == 0).any():
        raise InvalidInput("gong affinity requires distinct points up to the ell-th neighbor")
    s = _pairwise_sq_dists(models.centers) / np.outer(eps_i, eps_i)
    qd = np.clip(_pairwise_proj_dists(models.projection), 0.0, 1.0)
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


def auto_eta(models: LocalModels, eps: float) -> float:
    """Projection scale: median of ||Q_i - Q_j|| over center pairs closer
    than eps (strict inequality; spectral norm)."""
    y = models.centers
    n = len(models)
    i, j = np.triu_indices(n, k=1)
    # compare distances, not squared distances: eps is itself a pairwise
    # distance (eq. for the spatial scale), and the strict < must see the
    # boundary pair exactly
    dist = np.sqrt(((y[i] - y[j]) ** 2).sum(axis=1))
    close = dist < eps
    if not close.any():
        raise NoPairsInRange("no center pair strictly within eps")
    vals = pairwise_diff_norms(models.projection, np.column_stack([i[close], j[close]]),
                               "spectral")
    return lower_median(vals)
