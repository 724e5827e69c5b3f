"""Pairwise affinities between local models, and automatic scale selection.

The center-graph affinities compare matrices in the spectral norm;
``pairwise_diff_norms`` and ``indicator_pairs``, alg2's and alg3's edge
test, also take ``norm="frobenius"``.  Every scale must be finite and
positive.  Each affinity kind has one pair builder, listed in
``PAIR_BUILDERS`` under the kind's name: it returns the graph as its
strict-upper pairs (p, 2), i < j, and their weights (p,), keeping exactly
the pairs of weight at least exp(-_CUTOFF^2) ~ 6.9e-17, with _CUTOFF =
6.1: no diagonal (NJW's A_ii = 0) and nothing below that floor, so one
rule holds for every kind.  alg4 and the baseline carry that pair list to
the eigensolve.  Each public ``*_affinity`` function returns the same
graph as a symmetric ``scipy.sparse`` COO matrix, each pair stored with
its mirror.

* the indicator kinds (``cov``, ``proj``) keep their connected pairs
  within eps;
* the Gaussian kinds (``distance``, ``gauss``, ``gong``) weigh only the
  pairs within _CUTOFF spatial scales; every pair beyond weighs less than
  the floor anyway;
* ``wang`` weighs the symmetric ell-NN pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from . import linalg
from .errors import DimensionMismatch, InvalidInput, NoPairsInRange, TooFewCenters
from .local_pca import LocalModels
from .neighborhoods import (WIDEN, build_index, nearest_other, pair_blocks, pairs_within,
                            sq_dists)

Array = np.ndarray
NORMS = ("spectral", "frobenius")  # the matrix norms of alg2's and alg3's edge test

# Gaussian-type affinities weight only pairs within _CUTOFF scales, and
# no affinity stores a weight below exp(-_CUTOFF^2)
_CUTOFF = 6.1
_FLOOR = math.exp(-_CUTOFF**2)


def check_scales(**scales: float | None) -> None:
    """Raise InvalidInput unless every given (not None) scale is finite
    and positive; NaN fails it, where a test for <= 0 would let it pass."""
    for name, value in scales.items():
        if value is not None and not 0 < value < math.inf:
            raise InvalidInput(f"{name} must be finite and positive")


def check_norm(norm: str) -> None:
    """Raise InvalidInput unless ``norm`` is one of ``NORMS``."""
    if norm not in NORMS:
        raise InvalidInput(f"unknown norm mode {norm!r}")


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
        check_scales(r=self.r, eps=self.eps, eta=self.eta)


def _sum_as_numpy(terms: list[Array]) -> Array:
    """The sum of ``terms`` in the order in which NumPy sums a contiguous
    row of len(terms) <= 128 numbers: in turn below 8, else in 8
    interleaved partial sums joined as a tree, then the rest in turn."""
    if len(terms) < 8:
        return sum(terms[1:], terms[0])
    tail = len(terms) - len(terms) % 8
    p = [sum(terms[k + 8:tail:8], terms[k]) for k in range(8)]
    return sum(terms[tail:], ((p[0] + p[1]) + (p[2] + p[3])) + ((p[4] + p[5]) + (p[6] + p[7])))


def pairwise_diff_norms(stack: Array, pairs: Array, norm: str) -> Array:
    """Norms of stack[i] - stack[j] over the (m, 2) ``pairs`` (i, j) of a
    stack (n, D, D) of symmetric matrices, a ``pair_blocks`` block at a
    time.  The Frobenius norm gathers each entry a <= b from a contiguous
    column with a 1-D ``np.take`` and adds the D^2 squares as NumPy adds
    a row of them: up to D = 11, bit for bit the gap of the gathered rows."""
    check_norm(norm)
    dim = stack.shape[1]
    flat = stack.reshape(stack.shape[0], -1)
    cols = {(a, b): np.ascontiguousarray(stack[:, a, b])
            for a in range(dim) for b in range(a, dim)}
    out = np.empty(len(pairs))
    for rows in pair_blocks(len(pairs)):
        i, j = np.ascontiguousarray(pairs[rows].T)
        if norm == "spectral":
            diffs = np.take(flat, i, axis=0)
            diffs -= np.take(flat, j, axis=0)
            out[rows] = linalg.spectral_norms(diffs.reshape((-1, dim, dim)))
        else:
            sq = {ab: np.square(np.take(col, i) - np.take(col, j)) for ab, col in cols.items()}
            terms = [sq[min(a, b), max(a, b)] for a in range(dim) for b in range(dim)]
            np.sqrt(_sum_as_numpy(terms), out=out[rows])
    return out


def _projection_gaps(models: LocalModels, pairs: Array) -> Array:
    """||Q_i - Q_j||_2 over ``pairs`` for orthogonal projections of ranks
    r = ``est_dim``: exactly 1 where the ranks differ; at equal rank with
    min(r, D - r) <= 1 one principal angle at most is nonzero, so it is
    ||Q_i - Q_j||_F / sqrt(2) (Stewart & Sun 1990); the rest are solved."""
    q, rank = models.projection, models.est_dim
    gaps = pairwise_diff_norms(q, pairs, "frobenius")
    gaps /= math.sqrt(2.0)
    unequal = rank[pairs[:, 0]] != rank[pairs[:, 1]]
    gaps[unequal] = 1.0
    wide = np.minimum(rank, q.shape[1] - rank) >= 2
    if wide.any():
        exact = wide[pairs[:, 0]] & ~unequal
        gaps[exact] = pairwise_diff_norms(q, pairs[exact], "spectral")
    return gaps


def indicator_pairs(stack: Array, dead: Array, coords: Array, eps: float,
                    threshold: float, norm: str) -> tuple[Array, Array]:
    """Edges of the indicator affinities: the pairs (i < j) of nodes not
    flagged in ``dead`` whose points in ``coords`` lie within eps, and
    the mask of those whose gap in ``stack`` (n, D, D) stays within
    ``threshold``.  Dead nodes never connect, so the pairs come from a
    KD-tree over the live points only: no pair touches a dead node, and
    none costs a query or a gap.  The tree's pair array is the one
    returned: a ``pair_blocks`` block at a time is mapped in place from
    live positions to nodes (``live`` ascends, so i < j holds), then
    gapped, so no other temporary grows with the number of pairs.  The
    caller owns the pairs and may overwrite them.
    """
    live = np.flatnonzero(~dead)
    pairs = pairs_within(np.take(coords, live, axis=0), eps)
    keep = np.empty(len(pairs), dtype=bool)
    for rows in pair_blocks(len(pairs)):
        block = pairs[rows]
        if live.size < dead.size:  # with no dead node, positions are nodes
            np.take(live, block, out=block)
        keep[rows] = pairwise_diff_norms(stack, block, norm) <= threshold
    return pairs, keep


def kept_front(pairs: Array, keep: Array) -> Array:
    """The rows of ``pairs`` flagged in ``keep``, in order, moved to its
    front a block at a time; returns that prefix, a view.  A block's kept
    rows never reach past the block, so no unread row is overwritten."""
    end = 0
    for rows in pair_blocks(len(pairs)):
        kept = np.compress(keep[rows], pairs[rows], axis=0)
        pairs[end:end + len(kept)] = kept
        end += len(kept)
    return pairs[:end]


def _floored(pairs: Array, vals: Array) -> tuple[Array, Array]:
    """The ``pairs`` and ``vals`` whose value is at least _FLOOR."""
    kept = vals >= _FLOOR
    return np.compress(kept, pairs, axis=0), np.compress(kept, vals)


def _symmetric(n: int, pairs: Array, vals: Array) -> sparse.coo_array:
    """n x n COO matrix with ``vals`` at the (i < j) ``pairs`` and their
    mirrors."""
    i, j = pairs.T
    return sparse.coo_array((np.concatenate([vals, vals]),
                             (np.concatenate([i, j]), np.concatenate([j, i]))),
                            shape=(n, n))


def _indicator_pairs(models: LocalModels, stack: Array, eps: float,
                     threshold: float) -> tuple[Array, Array]:
    """The connected pairs of ``indicator_pairs`` over the centers, each
    of weight 1."""
    pairs, keep = indicator_pairs(stack, models.degenerate, models.centers, eps, threshold,
                                  "spectral")
    return _floored(pairs, keep.astype(float))


def cov_indicator_pairs(models: LocalModels, eps: float, eta: float,
                        r: float) -> tuple[Array, Array]:
    """The pairs and weights of ``cov_indicator_affinity``."""
    check_scales(eps=eps, eta=eta, r=r)
    return _indicator_pairs(models, models.covariance, eps, eta * r * r)


def cov_indicator_affinity(models: LocalModels, eps: float, eta: float,
                           r: float) -> sparse.coo_array:
    """Binary affinity: 1 iff dist <= eps and ||C_i - C_j|| <= eta * r^2.

    Sparse: only the connected pairs are stored.  Degenerate models are
    left unconnected.
    """
    return _symmetric(len(models), *cov_indicator_pairs(models, eps, eta, r))


def proj_indicator_pairs(models: LocalModels, eps: float, eta: float) -> tuple[Array, Array]:
    """The pairs and weights of ``proj_indicator_affinity``."""
    check_scales(eps=eps, eta=eta)
    return _indicator_pairs(models, models.projection, eps, eta)


def proj_indicator_affinity(models: LocalModels, eps: float,
                            eta: float) -> sparse.coo_array:
    """Binary affinity: 1 iff dist <= eps and ||Q_i - Q_j|| <= eta.

    Sparse: only the connected pairs are stored.  Models with differing
    estimated dimension sit at spectral distance 1, so they disconnect
    whenever eta < 1.
    """
    return _symmetric(len(models), *proj_indicator_pairs(models, eps, eta))


def _distance_factor(y: Array, eps: float) -> tuple[Array, Array]:
    """Center pairs (i < j) within _CUTOFF * eps and their factors
    exp(-||y_i - y_j||^2 / eps^2); every pair left out is below
    exp(-_CUTOFF^2)."""
    pairs = pairs_within(y, _CUTOFF * eps)
    return pairs, np.exp(-sq_dists(y, pairs[:, 0], y, pairs[:, 1]) / eps**2)


def gaussian_product_pairs(models: LocalModels, eps: float,
                           eta: float) -> tuple[Array, Array]:
    """The pairs and weights of ``gaussian_product_affinity``."""
    check_scales(eps=eps, eta=eta)
    pairs, w = _distance_factor(models.centers, eps)
    with np.errstate(over="ignore"):
        tangent = np.exp(-np.square(_projection_gaps(models, pairs) / eta))
    return _floored(pairs, w * tangent)


def gaussian_product_affinity(models: LocalModels, eps: float,
                              eta: float) -> sparse.coo_array:
    """W_ij = exp(-||y_i-y_j||^2/eps^2) * exp(-||Q_i-Q_j||^2/eta^2).

    Sparse, symmetric: only pairs within _CUTOFF * eps are weighted (the
    rest are below exp(-_CUTOFF^2) ~ 7e-17), and only entries at or above
    that floor are stored.  Gaps from ``_projection_gaps``; the exponent
    (gap/eta)^2 keeps the eta -> 0 limit (1 at gap 0, else 0), no 0/0.
    """
    return _symmetric(len(models), *gaussian_product_pairs(models, eps, eta))


def distance_gaussian_pairs(points: Array, eps: float) -> tuple[Array, Array]:
    """The pairs and weights of ``distance_gaussian_affinity``."""
    check_scales(eps=eps)
    return _floored(*_distance_factor(np.asarray(points, float), eps))


def distance_gaussian_affinity(points: Array, eps: float) -> sparse.coo_array:
    """Distance-only Gaussian affinity (tangent factor dropped).

    Sparse and symmetric, cut off at _CUTOFF * eps like the product
    affinity.
    """
    return _symmetric(len(points), *distance_gaussian_pairs(points, eps))


def _knn_adjacency(y: Array, ell: int) -> tuple[Array, Array]:
    """Pairs (i < j, ascending) where one is among the other's ell nearest
    neighbors (self excluded), and the ell-th neighbor distances."""
    n = y.shape[0]
    if ell < 1:
        raise InvalidInput("ell must be >= 1")
    if ell >= n:
        raise InvalidInput("ell must be smaller than the number of points")
    dist, nn = build_index(y).query(y, k=ell + 1)
    rows = np.repeat(np.arange(n), ell)
    cols = nn[:, 1:].ravel()
    off = rows != cols
    codes = np.unique(np.minimum(rows, cols)[off] * n + np.maximum(rows, cols)[off])
    return np.column_stack([codes // n, codes % n]), dist[:, ell]


def wang_pairs(models: LocalModels, ell: int, alpha: float) -> tuple[Array, Array]:
    """The pairs and weights of ``wang_affinity``."""
    check_scales(alpha=alpha)
    dims = np.unique(models.est_dim)
    if dims.size != 1 or dims[0] < 1:
        raise DimensionMismatch(f"estimated dimensions differ: {dims.tolist()}")
    d = int(dims[0])
    pairs, _ = _knn_adjacency(models.centers, ell)
    # any orthonormal basis of each range will do: |det(U_i^T U_j)| does
    # not depend on the choice
    bases = np.linalg.eigh(models.projection)[1][:, :, -d:]
    # prod_s cos(theta_s) equals |det(U_i^T U_j)| for the top-d bases
    grams = np.einsum("pka,pkb->pab", bases[pairs[:, 0]], bases[pairs[:, 1]])
    return _floored(pairs, np.abs(np.linalg.det(grams)) ** alpha)


def wang_affinity(models: LocalModels, ell: int, alpha: float) -> sparse.coo_array:
    """Mutual ell-NN indicator times the product of principal-angle cosines
    raised to alpha.  Requires equal estimated dimensions.

    Sparse, symmetric: only the ell-NN pairs are weighted.
    """
    return _symmetric(len(models), *wang_pairs(models, ell, alpha))


def gong_pairs(models: LocalModels, ell: int, eta: float) -> tuple[Array, Array]:
    """The pairs and weights of ``gong_affinity``."""
    check_scales(eta=eta)
    y = models.centers
    _, eps_i = _knn_adjacency(y, ell)
    if (eps_i == 0).any():
        raise InvalidInput("gong affinity requires distinct points up to the ell-th neighbor")
    # s <= _CUTOFF^2 implies d <= _CUTOFF * max eps_i
    pairs = pairs_within(y, _CUTOFF * eps_i.max() * WIDEN)
    i, j = pairs.T
    s = sq_dists(y, i, y, j) / (eps_i[i] * eps_i[j])
    near = s <= _CUTOFF**2
    pairs, s = pairs[near], s[near]
    qd = np.clip(_projection_gaps(models, pairs), 0.0, 1.0)
    # eta^2 never stands alone; coincident pairs (s = 0) are set below
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        angle_term = np.exp(-np.square(np.arcsin(qd) / eta) / s)
    coincident = (s == 0)
    angle_term[coincident] = (qd[coincident] <= 1e-12).astype(float)
    return _floored(pairs, np.exp(-s) * angle_term)


def gong_affinity(models: LocalModels, ell: int, eta: float) -> sparse.coo_array:
    """Self-tuned Gaussian times a principal-angle penalty.

    eps_i is the distance from point i to its ell-th nearest neighbor.
    For coincident points the angle factor is 1 when the projections
    agree and 0 otherwise (limit convention).  Sparse, symmetric: only
    pairs with s = d^2 / (eps_i eps_j) <= _CUTOFF^2 are weighted, the rest
    are below exp(-_CUTOFF^2) ~ 7e-17 and left out.  Gaps and the eta -> 0
    limit as in ``gaussian_product_affinity``.
    """
    return _symmetric(len(models), *gong_pairs(models, ell, eta))


# the pair builder of each affinity kind, by the kind's name
PAIR_BUILDERS = {"gauss": gaussian_product_pairs, "cov": cov_indicator_pairs,
                 "proj": proj_indicator_pairs, "wang": wang_pairs, "gong": gong_pairs,
                 "distance": distance_gaussian_pairs}


def check_kind(kind: str) -> None:
    """Raise InvalidInput unless ``kind`` names a pair builder."""
    if kind not in PAIR_BUILDERS:
        raise InvalidInput(f"unknown affinity kind {kind!r}")


def auto_epsilon(centers: Array) -> float:
    """Spatial scale: the largest nearest-neighbor distance among centers,
    the exact distance from each center to its ``nearest_other``."""
    centers = np.asarray(centers, dtype=float)
    if centers.ndim != 2 or centers.shape[0] < 2:
        raise TooFewCenters("need at least two centers to select eps")
    nearest = nearest_other(centers)
    return float(np.sqrt(sq_dists(centers, np.arange(len(centers)), centers, nearest).max()))


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
    pairs = pairs_within(y, eps * WIDEN)
    # compare distances, not squared distances: eps is itself a pairwise
    # distance (eq. for the spatial scale), and the strict < must see the
    # boundary pair exactly
    close = np.sqrt(sq_dists(y, pairs[:, 0], y, pairs[:, 1])) < eps
    if not close.any():
        raise NoPairsInRange("no center pair strictly within eps")
    vals = pairwise_diff_norms(models.projection, np.compress(close, pairs, axis=0),
                               "spectral")
    return lower_median(vals)
