"""Local sample covariances and tangent-projection estimation.

Covariances are normalized by the neighborhood size m (empirical-measure
convention), not m - 1; the closed-form oracles for uniform samples on
balls and segments rely on this.

One batched kernel serves every caller, over the neighborhoods that the
caller chooses, ball lists or the pairs within r: ``_covariances`` sums
offsets within each ball, and ``_tangents`` runs one eigendecomposition
over the stack.  The single-matrix functions are views on it over a
stack of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import EmptyNeighborhood, InvalidInput, ZeroCovariance
from .neighborhoods import PointCloud, balls, build_index, pair_blocks

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


def _covariances(coords: Array, counts: Array, member: Array,
                 owner: Array | None = None) -> Array:
    """1/m covariances (n, D, D) of n neighborhoods of ``counts`` points:
    the balls of ``member``, one after another, or, with ``owner``, those
    of the n points, each holding itself, and owner[t] and member[t] each
    other.  cov = S2 / m - mu mu^T, mu = S1 / m, over the offsets from a
    point of each ball (Chan, Golub & LeVeque 1983), so precision does not
    depend on the distance from the origin, and identical points give 0.
    A ``pair_blocks`` block at a time, ``np.add.reduceat`` sums each
    ball's run, or ``np.bincount`` both ends of the pairs, where offsets
    flip sign at member[t].  Raises InvalidInput when a sum overflows."""
    dim, n = coords.shape[1], len(counts)
    upper = [(a, b) for a in range(dim) for b in range(a, dim)]
    starts = np.cumsum(counts) - counts
    # np.take for gathers, np.compress for masks, here and in affinity and cluster:
    # with NumPy 2.4, 0.50 against 5.6 ms on a 415k-row gather, 2.3 against 13.3 on a 900k mask
    mirrored = owner is not None
    if not mirrored:
        owner = np.repeat(np.arange(n), counts)
    ref = coords if mirrored else np.take(coords, np.take(member, starts), axis=0)
    sums = np.zeros((dim + len(upper), n))  # S1, then S2's entries a <= b
    with np.errstate(over="ignore", invalid="ignore"):  # rejected below
        for rows in pair_blocks(len(owner)):
            own, mem = np.ascontiguousarray(owner[rows]), np.ascontiguousarray(member[rows])
            off = np.take(coords, mem, axis=0)
            off -= np.take(ref, own, axis=0)
            terms = [off[:, a] for a in range(dim)] + [off[:, a] * off[:, b] for a, b in upper]
            if mirrored:
                for k, t in enumerate(terms):
                    sums[k] += np.bincount(own, t, n)
                    sums[k] += (-1.0 if k < dim else 1.0) * np.bincount(mem, t, n)
            else:  # a sorted bincount takes 10 times as long
                run = slice(own[0], own[-1] + 1)
                heads = np.maximum(starts[run] - rows.start, 0)
                for k, t in enumerate(terms):
                    sums[k, run] += np.add.reduceat(t, heads)
        mean = sums[:dim] / counts
        covs = np.empty((n, dim, dim))
        for k, (a, b) in enumerate(upper, dim):
            covs[:, a, b] = covs[:, b, a] = sums[k] / counts - mean[a] * mean[b]
    if not np.isfinite(covs).all():
        raise InvalidInput("coords too large: a neighborhood covariance overflows")
    return covs


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


def local_covariance(cloud: PointCloud, x: Array, r: float) -> Array:
    """Sample covariance of the closed r-ball neighborhood of ``x``, over
    a tree of its own: an oracle, which no pipeline calls."""
    x = np.asarray(x, float)
    if x.shape != (cloud.dim,):
        raise InvalidInput(f"x must be one point of dimension {cloud.dim}")
    if not np.isfinite(x).all():
        raise InvalidInput("x must be finite")
    counts, members = balls(build_index(cloud.coords), x[None], r)
    if members.size == 0:
        raise EmptyNeighborhood(f"no points within r={r} of {x}")
    return _covariances(cloud.coords, counts, members)[0]


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
    y: Array,
    neighborhoods,
    d: int | None = None,
    eta: float | None = None,
) -> LocalModels:
    """Local PCA of one neighborhood of ``cloud`` per row of ``y``, in row order.

    ``y`` (n, D) holds the neighborhood centers, which become
    ``LocalModels.centers``.  ``neighborhoods`` is either the flat
    ``(counts, members)`` of ``neighborhoods.balls`` (``counts`` (n,) and
    ``counts.sum()`` indices into the cloud) or, with ``y`` the cloud's
    points, the (m, 2) pairs (i < j) of ``pairs_within(cloud.coords, r)``,
    when the closed r-ball of each point holds it and the other end of
    each of its pairs.  Exactly one of ``d`` (fixed tangent dimension) and
    ``eta`` (threshold scale for dimension estimation) must be given.
    """
    if (d is None) == (eta is None):
        raise InvalidInput("pass exactly one of d (fixed) or eta (thresholded)")
    if d is not None and not 1 <= d <= cloud.dim:
        raise InvalidInput(f"d={d} out of range for ambient dimension {cloud.dim}")
    if eta is not None and not 0.0 < eta < 1.0:
        raise InvalidInput("eta must lie in (0, 1)")
    # the checks are reductions: no temporary the size of members or pairs
    if isinstance(neighborhoods, tuple):
        counts, members = map(np.asarray, neighborhoods)
        if not len(counts) == len(y) >= 1 or np.min(counts) < 1:
            raise InvalidInput("need one nonempty neighborhood per center, and a center")
        if (np.sum(counts) != len(members) or np.min(members) < 0
                or np.max(members) >= cloud.n):
            raise InvalidInput("members must be counts.sum() indices into the cloud")
        covs = _covariances(cloud.coords, counts, members)
    else:
        pairs = np.asarray(neighborhoods)
        if (pairs.shape[1:] != (2,) or not np.array_equal(y, cloud.coords)
                or pairs.size and (np.min(pairs) < 0 or np.max(pairs) >= cloud.n)):
            raise InvalidInput("pairs must be (m, 2) indices into the cloud, y = cloud.coords")
        counts = np.bincount(pairs.ravel(), minlength=cloud.n) + 1
        covs = _covariances(cloud.coords, counts, pairs[:, 1], pairs[:, 0])
    # no eigenvalue at or below the rounding of the coordinates,
    # (D eps_mach max|x|)^2, counts
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
    proj[degenerate] = 0.0
    est_dim[degenerate] = 0
    return LocalModels(centers=y, neighbor_count=counts,
                       covariance=covs, projection=proj, est_dim=est_dim,
                       degenerate=degenerate)
