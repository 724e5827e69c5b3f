"""Clustering pipelines.

Five entry points:

* ``njw_partition``        spectral graph partitioning of an affinity matrix
  (degree normalization, top-K eigenvector embedding, row renormalization,
  k-means++);
* ``algorithm2_cov_components``  binary graph from covariance comparison,
  an intersection-removal step, connected components, reassignment;
* ``algorithm3_proj_components`` binary graph from thresholded-dimension
  projection comparison, connected components;
* ``algorithm4_local_pca_spectral``  center subsampling, local PCA with a
  fixed tangent dimension, a soft product affinity, spectral partitioning
  of the centers, nearest-center label transfer;
* ``njw_baseline``  the same center-graph pipeline with the distance-only
  affinity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import linalg, sparse
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

from . import affinity as aff
from .errors import (
    AllPointsRemoved,
    InvalidInput,
    IsolatedNode,
    TooFewCenters,
    TooFewRows,
)
from .local_pca import batch_local_models
from .neighborhoods import (
    PointCloud,
    assign_to_closest_survivor,
    build_index,
    connected_components,
    nearest_site,
    renumber_first_occurrence,
    subsample_centers,
)

Array = np.ndarray

# Lloyd iterations per seeding, the centroid motion that ends them, and
# the number of k-means++ seedings of which the lowest inertia is kept.
_KMEANS_MAX_ITER = 100
_KMEANS_TOL = 1e-8
_KMEANS_RESTARTS = 10

# From this many nodes on, njw_partition asks LAPACK's subset driver
# (dsyevr) for the top K+1 eigenpairs only, which at n0 = 1400 takes half
# the time of the full solve, and alg4 solves a center graph with fewer
# components than clusters by a sparse Lanczos solve instead, with no
# n0 x n0 array at all.  Smaller graphs keep NumPy's eigh: the first call
# into SciPy's LAPACK maps about 1 MB of a second OpenBLAS, which is +40%
# peak memory on a 2-3 MB run of small trials, while the full solve of a
# 60-node graph takes under 1 ms.
_SUBSET_MIN = 256

# eigenpairs the sparse solve asks for beyond the K - c + 1 it uses.
# ARPACK keeps the Ritz vectors it is asked for across restarts; on a
# graph of curves, whose top eigenvalues lie within 1e-4 of each other,
# asking for 2 took 19k products with the operator at n0 = 392, asking
# for 8 took 1.5k, and on the spheres 1080 against 474.
_LANCZOS_EXTRA = 6


@dataclass
class Labeling:
    """Cluster assignment per point: 1-based ids in [1..K_found].

    ``removed`` holds the indices deleted by the intersection-removal step
    before their reassignment, when the pipeline has such a step.  ``info``
    holds the pipeline's diagnostics: the scales ``eps`` and ``eta`` it
    used (None where it used none), ``cluster_sizes``, and for the
    center-graph pipelines ``n_centers``, ``center_indices``, the stored
    pairs ``n_edges`` of the center affinity graph, the count
    ``n_isolated`` of centers with no stored pair, the component count
    ``n_components`` of the other centers, and the spectral step's
    ``eigenvalues``, ``eigengap`` and ``kmeans_inertia`` (None where no
    eigensolver ran: one center, or as many components as clusters).
    """

    assignments: Array
    K_found: int
    removed: Array | None = None
    info: dict = field(default_factory=dict)

    def __post_init__(self):
        self.assignments = np.asarray(self.assignments, dtype=int)
        present = np.unique(self.assignments)
        if present.size and (present.min() < 1 or present.max() > self.K_found):
            raise InvalidInput("labels must lie in [1..K_found]")
        if present.size != self.K_found:
            raise InvalidInput("every cluster id in [1..K_found] must be nonempty")


@dataclass
class KMeansResult:
    centroids: Array
    assignments: Array  # 0-based cluster index per row
    inertia: float


def _kmeans_once(rows: Array, k: int, rng: np.random.Generator) -> KMeansResult:
    m = rows.shape[0]
    first = int(rng.integers(m))
    cents = [rows[first].copy()]
    chosen = {first}
    d2 = ((rows - cents[0]) ** 2).sum(axis=1)
    for _ in range(1, k):
        total = d2.sum()
        if total > 0:
            idx = int(rng.choice(m, p=d2 / total))
        else:
            # all remaining points coincide with chosen centroids
            free = [i for i in range(m) if i not in chosen]
            idx = free[int(rng.integers(len(free)))]
        chosen.add(idx)
        cents.append(rows[idx].copy())
        d2 = np.minimum(d2, ((rows - rows[idx]) ** 2).sum(axis=1))
    cents = np.stack(cents)

    for _ in range(_KMEANS_MAX_ITER):
        dists = ((rows[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
        assign = dists.argmin(axis=1)
        counts = np.bincount(assign, minlength=k)
        if (counts == 0).any():
            dist_own = dists[np.arange(m), assign]
            for empty in np.flatnonzero(counts == 0):
                far = int(dist_own.argmax())
                assign[far] = empty
                cents[empty] = rows[far]
                dist_own[far] = -1.0
        new_cents = np.stack([rows[assign == kk].mean(axis=0) for kk in range(k)])
        motion = np.sqrt(((new_cents - cents) ** 2).sum(axis=1)).max()
        cents = new_cents
        if motion < _KMEANS_TOL:
            break

    dists = ((rows[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
    assign = dists.argmin(axis=1)
    inertia = float(dists[np.arange(m), assign].sum())
    return KMeansResult(centroids=cents, assignments=assign, inertia=inertia)


def kmeans_pp(rows: Array, k: int, rng: np.random.Generator) -> KMeansResult:
    """K-means with k-means++ seeding and empty-cluster repair.

    Runs ``_KMEANS_RESTARTS`` independent seedings and keeps the lowest
    inertia.  Deterministic for a given generator state.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2:
        raise InvalidInput("rows must be a 2-d array")
    if k < 1:
        raise InvalidInput("k must be >= 1")
    if rows.shape[0] < k:
        raise TooFewRows(f"{rows.shape[0]} rows cannot form {k} clusters")
    best: KMeansResult | None = None
    for _ in range(_KMEANS_RESTARTS):
        res = _kmeans_once(rows, k, rng)
        if best is None or res.inertia < best.inertia:
            best = res
    return best


def _dense(w) -> Array:
    """Dense copy of a ``scipy.sparse`` matrix; repeated entries add up."""
    w = w.tocoo()
    flat = np.ravel_multi_index((w.row, w.col), w.shape)
    return np.bincount(flat, weights=w.data, minlength=w.shape[0] * w.shape[1]).reshape(w.shape)


def _spectral_labeling(rows: Array, eigenvalues: list, k: int,
                       rng: np.random.Generator) -> Labeling:
    """The NJW tail: normalize the rows of the top-k embedding in place,
    run k-means++ on them and number the clusters by first occurrence.
    ``eigenvalues`` are the top min(k+1, n) ones, in descending order."""
    norms = np.sqrt((rows * rows).sum(axis=1))
    ok = norms > 0
    rows[ok] /= norms[ok, None]
    res = kmeans_pp(rows, k, rng)
    labels, k_found = renumber_first_occurrence(res.assignments)
    gap = eigenvalues[k - 1] - eigenvalues[k] if k < len(eigenvalues) else None
    info = {"eigenvalues": eigenvalues, "eigengap": gap, "kmeans_inertia": res.inertia}
    return Labeling(assignments=labels, K_found=k_found, info=info)


def njw_partition(w, k: int, rng: np.random.Generator) -> Labeling:
    """Spectral graph partitioning of a symmetric nonnegative affinity,
    dense or ``scipy.sparse``.  The input is copied once into a dense
    array, whose rows and then columns are scaled in place by d^-1/2 (no
    degree product, which could underflow), and which is handed to
    ``eigh``: NumPy's full solve below ``_SUBSET_MIN`` nodes, LAPACK's
    subset driver for the top K+1 eigenpairs from there on.

    The eigenvectors keep the signs LAPACK gives them: k-means sees a
    column only through squared differences and means, and negating the
    column leaves every distance, draw and assignment exactly as it was.

    ``info`` holds the top min(K+1, n) ``eigenvalues`` of the normalized
    affinity in descending order, the ``eigengap`` lambda_K - lambda_K+1
    (None when K = n) and the ``kmeans_inertia`` of the embedding.
    """
    w = _dense(w) if sparse.issparse(w) else np.array(w, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise InvalidInput("affinity must be square")
    if not np.all(np.isfinite(w)) or (w < 0).any():
        raise InvalidInput("affinity must be finite and nonnegative")
    # each n x n temporary is freed before the next one is made
    gap = w - w.T
    if (np.abs(gap, out=gap) > 1e-12).any():
        raise InvalidInput("affinity must be symmetric")
    del gap
    n = w.shape[0]
    if not 1 <= k <= n:
        raise InvalidInput(f"k={k} out of range for {n} nodes")
    degrees = w.sum(axis=1)
    if (degrees <= 0).any():
        raise IsolatedNode("affinity has a zero-degree node")
    scale = 1.0 / np.sqrt(degrees)
    w *= scale[:, None]
    w *= scale
    if n < _SUBSET_MIN:
        vals, vecs = np.linalg.eigh(w)
    else:
        # w is symmetric, so w.T is the same matrix in Fortran order and
        # LAPACK overwrites it without a copy
        vals, vecs = linalg.eigh(w.T, subset_by_index=[max(n - k - 1, 0), n - 1],
                                 overwrite_a=True, check_finite=False)
    return _spectral_labeling(vecs[:, :-k-1:-1], vals[:-k-2:-1].tolist(), k, rng)


def _deflated_partition(row: Array, col: Array, data: Array, ids: Array, k: int,
                        rng: np.random.Generator) -> Labeling | None:
    """NJW on a graph of m nodes given by its stored entries (no
    zero-degree node) and its c < k components ``ids`` (1-based), with no
    m x m array; k < m.

    The top eigenvalue 1 of M = D^-1/2 W D^-1/2 has the c unit vectors
    u_C ~ D^1/2 1_C as eigenvectors.  ``eigsh`` finds the next k - c + 1
    eigenpairs (and _LANCZOS_EXTRA more, which it keeps across restarts)
    as the top ones of x -> Mx + x - 2 U U^T x: the shift by
    the identity sends the u_C to 0, below every other eigenvalue of
    M + I, even on a graph whose other eigenvalues are negative.  The
    embedding is [U, the top k - c vectors].  The start vector is fixed
    and generic, and does not come from ``rng``, so k-means sees the same
    generator state as on the dense path.  Returns None when ARPACK does
    not converge.
    """
    m, c = ids.size, int(ids.max())
    degrees = np.bincount(row, weights=data, minlength=m)
    scale = 1.0 / np.sqrt(degrees)
    mat = sparse.csr_array((data * scale[row] * scale[col], (row, col)), shape=(m, m))
    u = np.zeros((m, c))
    u[np.arange(m), ids - 1] = np.sqrt(degrees)
    u /= np.sqrt(np.bincount(ids - 1, weights=degrees, minlength=c))
    op = LinearOperator((m, m), dtype=float,
                        matvec=lambda x: mat @ x + x - 2.0 * (u @ (u.T @ x)))
    try:
        vals, vecs = eigsh(op, k=min(k - c + 1 + _LANCZOS_EXTRA, m - 1), which="LA",
                           v0=np.cos(np.arange(m)))
    except ArpackNoConvergence:
        return None
    order = np.argsort(vals)[:-(k - c) - 2:-1]
    rows = np.hstack([u, vecs[:, order[:k - c]]])
    return _spectral_labeling(rows, [1.0] * c + (vals[order] - 1.0).tolist(), k, rng)


def _partition_centers(w: sparse.coo_array, y: Array, k: int,
                       rng: np.random.Generator) -> tuple[Array, dict]:
    """1-based labels of the n0 centers at ``y`` from their affinity
    ``w``, and the graph and spectral diagnostics.

    The centers with at least one stored entry are linked; there must be
    at least k of them.  Their graph has c connected components:
    * c = k: the components are the clusters, which is what NJW returns
      in exact arithmetic; no eigensolver and no k-means run;
    * c < k < m on m >= ``_SUBSET_MIN`` linked centers: the deflated
      sparse solve of ``_deflated_partition``;
    * otherwise, or when ARPACK does not converge: ``njw_partition``.
    An isolated center takes the label of its nearest linked center.
    """
    n0 = w.shape[0]
    row, col, data = w.row, w.col, w.data
    linked = np.bincount(row, minlength=n0) > 0
    m = int(np.count_nonzero(linked))
    if m < k:
        raise TooFewCenters(f"{m} linked centers cannot form {k} clusters")
    if m < n0:
        position = np.cumsum(linked) - 1
        row, col = position[row], position[col]
    ids = connected_components(m, np.column_stack([row, col]))
    c = int(ids.max())
    info = {"n_edges": row.size // 2, "n_components": c, "n_isolated": n0 - m,
            **dict.fromkeys(("eigenvalues", "eigengap", "kmeans_inertia"))}
    if c == k:
        labels = ids
    else:
        part = (_deflated_partition(row, col, data, ids, k, rng)
                if c < k < m and m >= _SUBSET_MIN else None)
        if part is None:
            part = njw_partition(sparse.coo_array((data, (row, col)), shape=(m, m)), k, rng)
        labels = part.assignments
        info.update(part.info)
    if m == n0:
        return labels, info
    out = np.empty(n0, dtype=int)
    out[linked] = labels
    out[~linked] = labels[nearest_site(y[~linked], y[linked])]
    return out, info


def algorithm2_cov_components(cloud: PointCloud, params: aff.ScaleParams,
                              norm: str = "spectral") -> Labeling:
    """Connected-component extraction by comparing local covariances.

    Steps: local covariances over r-balls; binary affinity (distance
    within eps, covariance gap within eta * r^2); removal of any point
    having an r-neighbor with covariance gap above eta * r^2; connected
    components of the surviving subgraph; removed points join their
    nearest survivor's component.
    """
    index = build_index(cloud)
    n = cloud.n
    pairs_r = index.pairs_within(params.r)
    models = batch_local_models(cloud, index, None, params.r, d=1, r_pairs=pairs_r)
    pairs, keep = aff.indicator_pairs(models.covariance, models.degenerate, index,
                                      params.eps, params.eta * params.r**2, norm)
    edges = pairs[keep]

    removed_mask = np.zeros(n, dtype=bool)
    gaps = aff.pairwise_diff_norms(models.covariance, pairs_r, norm)
    bad = pairs_r[gaps > params.eta * params.r**2]
    removed_mask[bad.ravel()] = True

    survivors = np.flatnonzero(~removed_mask)
    removed = np.flatnonzero(removed_mask)
    if survivors.size == 0:
        raise AllPointsRemoved("the removal step deleted every point")

    # removed points keep no edges; the survivors' components are then
    # renumbered by smallest survivor
    ids = connected_components(
        n, edges[~(removed_mask[edges[:, 0]] | removed_mask[edges[:, 1]])])
    ids_sub, k_found = renumber_first_occurrence(ids[survivors])
    assignments = np.zeros(n, dtype=int)
    assignments[survivors] = ids_sub
    if removed.size:
        assignments[removed] = assign_to_closest_survivor(cloud, removed, survivors, ids_sub)
    return Labeling(assignments=assignments, K_found=k_found, removed=removed,
                    info=_scales_info(params, assignments, k_found))


def algorithm3_proj_components(cloud: PointCloud, params: aff.ScaleParams,
                               norm: str = "spectral") -> Labeling:
    """Connected-component extraction by comparing local projections with
    thresholded dimension estimation.  May return more than two groups."""
    if not params.eta < 1.0:
        raise InvalidInput("projection comparison requires eta < 1")
    index = build_index(cloud)
    models = batch_local_models(cloud, index, None, params.r, eta=params.eta)
    pairs, keep = aff.indicator_pairs(models.projection, models.degenerate, index,
                                      params.eps, params.eta, norm)
    ids = connected_components(cloud.n, pairs[keep])
    k_found = int(ids.max())
    return Labeling(assignments=ids, K_found=k_found, info=_scales_info(params, ids, k_found))


def _cluster_sizes(labels: Array, k_found: int) -> list[int]:
    return np.bincount(labels, minlength=k_found + 1)[1:].tolist()


def _scales_info(params: aff.ScaleParams, labels: Array, k_found: int) -> dict:
    return {"eps": params.eps, "eta": params.eta,
            "cluster_sizes": _cluster_sizes(labels, k_found)}


def algorithm4_local_pca_spectral(
    cloud: PointCloud,
    r: float,
    k: int,
    d: int | None,
    rng: np.random.Generator,
    eps: float | None = None,
    eta: float | None = None,
    affinity_kind: str = "gauss",
    ell: int = 10,
    alpha: float = 2.0,
    return_info: bool = False,
):
    """Spectral clustering based on local PCA.

    Centers are a random greedy r-packing of the data; each center gets a
    rank-d tangent projection from PCA of its r-ball; centers are
    clustered by spectral partitioning of a product affinity (spatial
    Gaussian times projection-discrepancy Gaussian by default); data
    points inherit the label of their nearest center.  eps and eta are
    selected automatically from the centers when not supplied.  The
    ``distance`` kind drops the tangent factor, so it runs neither local
    PCA nor the eta selection and ignores ``d``.

    ``return_info=True`` returns ``(labeling, labeling.info)``.
    """
    index = build_index(cloud)
    center_idx = subsample_centers(index, r, rng)
    n0 = center_idx.size
    if n0 < k:
        raise TooFewCenters(f"{n0} centers cannot form {k} clusters")
    models = (None if affinity_kind == "distance"
              else batch_local_models(cloud, index, center_idx, r, d=d))
    y = cloud.coords[center_idx]

    eps_used = eta_used = None
    graph = {"n_edges": 0, "n_components": 1, "n_isolated": 0,
             **dict.fromkeys(("eigenvalues", "eigengap", "kmeans_inertia"))}
    if n0 == 1:
        center_labels = np.ones(1, dtype=int)
    else:
        eps_used = float(eps) if eps is not None else aff.auto_epsilon(y)
        if models is not None:
            # the median can be exactly 0 on noiseless flat data; flooring it
            # reproduces the eta -> 0 limit (connect identical tangents only)
            eta_used = (float(eta) if eta is not None
                        else max(aff.auto_eta(models, eps_used), 1e-12))

        if affinity_kind == "distance":
            w = aff.distance_gaussian_affinity(y, eps_used)
        elif affinity_kind == "gauss":
            w = aff.gaussian_product_affinity(models, eps_used, eta_used)
        elif affinity_kind == "cov":
            w = aff.cov_indicator_affinity(models, eps_used, eta_used, r)
        elif affinity_kind == "proj":
            w = aff.proj_indicator_affinity(models, eps_used, eta_used)
        elif affinity_kind == "wang":
            w = aff.wang_affinity(models, ell=min(ell, n0 - 1), alpha=alpha)
        elif affinity_kind == "gong":
            w = aff.gong_affinity(models, ell=min(ell, n0 - 1), eta=eta_used)
        else:
            raise InvalidInput(f"unknown affinity kind {affinity_kind!r}")
        center_labels, graph = _partition_centers(w, y, k, rng)

    labels, k_found = renumber_first_occurrence(center_labels[nearest_site(cloud.coords, y)])
    info = {"eps": eps_used, "eta": eta_used, "n_centers": int(n0),
            "center_indices": center_idx, **graph,
            "cluster_sizes": _cluster_sizes(labels, k_found)}
    labeling = Labeling(assignments=labels, K_found=k_found, info=info)
    return (labeling, labeling.info) if return_info else labeling


def njw_baseline(
    cloud: PointCloud,
    r: float,
    k: int,
    rng: np.random.Generator,
    eps: float | None = None,
    return_info: bool = False,
):
    """Distance-only spectral clustering on the subsampled centers.

    This is the comparison method: the product affinity of the local PCA
    pipeline with the tangent factor dropped.  It cannot resolve
    intersections.
    """
    return algorithm4_local_pca_spectral(cloud, r, k, None, rng, eps=eps,
                                         affinity_kind="distance", return_info=return_info)
