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

from . import affinity as aff
from . import linalg
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


@dataclass
class Labeling:
    """Cluster assignment per point: 1-based ids in [1..K_found].

    ``removed`` holds the indices deleted by the intersection-removal step
    before their reassignment, when the pipeline has such a step.  ``info``
    holds the pipeline's diagnostics: the scales ``eps`` and ``eta`` it
    used (None where it used none), ``cluster_sizes``, and for the
    center-graph pipelines ``n_centers`` and ``center_indices``.
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


def _kmeans_once(rows: Array, k: int, rng: np.random.Generator,
                 max_iter: int, tol: float) -> KMeansResult:
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

    for _ in range(max_iter):
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
        if motion < tol:
            break

    dists = ((rows[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
    assign = dists.argmin(axis=1)
    inertia = float(dists[np.arange(m), assign].sum())
    return KMeansResult(centroids=cents, assignments=assign, inertia=inertia)


def kmeans_pp(rows: Array, k: int, rng: np.random.Generator,
              max_iter: int = 100, tol: float = 1e-8, restarts: int = 10) -> KMeansResult:
    """K-means with k-means++ seeding and empty-cluster repair.

    Runs ``restarts`` independent seedings and keeps the lowest inertia.
    Deterministic for a given generator state.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2:
        raise InvalidInput("rows must be a 2-d array")
    if k < 1:
        raise InvalidInput("k must be >= 1")
    if rows.shape[0] < k:
        raise TooFewRows(f"{rows.shape[0]} rows cannot form {k} clusters")
    best: KMeansResult | None = None
    for _ in range(max(1, restarts)):
        res = _kmeans_once(rows, k, rng, max_iter, tol)
        if best is None or res.inertia < best.inertia:
            best = res
    return best


def njw_partition(w: Array, k: int, rng: np.random.Generator) -> Labeling:
    """Spectral graph partitioning of a symmetric nonnegative affinity."""
    w = np.asarray(w, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise InvalidInput("affinity must be square")
    if not np.all(np.isfinite(w)) or (w < 0).any():
        raise InvalidInput("affinity must be finite and nonnegative")
    if not np.allclose(w, w.T, atol=1e-12, rtol=0):
        raise InvalidInput("affinity must be symmetric")
    n = w.shape[0]
    if not 1 <= k <= n:
        raise InvalidInput(f"k={k} out of range for {n} nodes")
    degrees = w.sum(axis=1)
    if (degrees <= 0).any():
        raise IsolatedNode("affinity has a zero-degree node")
    z = w / np.sqrt(np.outer(degrees, degrees))
    e = linalg.eigh(z)
    rows = e.eigenvectors[:, :k].copy()
    norms = np.sqrt((rows * rows).sum(axis=1))
    ok = norms > 0
    rows[ok] /= norms[ok, None]
    res = kmeans_pp(rows, k, rng)
    labels, k_found = renumber_first_occurrence(res.assignments)
    return Labeling(assignments=labels, K_found=k_found)


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
    models = batch_local_models(cloud, index, np.arange(n), params.r, d=1)
    pairs, keep = aff.indicator_pairs(models.covariance, models.degenerate, index,
                                      params.eps, params.eta * params.r**2, norm)
    edges = pairs[keep]

    removed_mask = np.zeros(n, dtype=bool)
    pairs_r = index.pairs_within(params.r)
    if pairs_r.size:
        gaps = aff.pairwise_diff_norms(models.covariance, pairs_r, norm)
        bad = pairs_r[gaps > params.eta * params.r**2]
        removed_mask[bad.ravel()] = True

    survivors = np.flatnonzero(~removed_mask)
    removed = np.flatnonzero(removed_mask)
    if survivors.size == 0:
        raise AllPointsRemoved("the removal step deleted every point")

    # components of the affinity graph restricted to the survivors
    local = np.full(n, -1, dtype=int)
    local[survivors] = np.arange(survivors.size)
    if edges.size:
        alive = ~removed_mask[edges].any(axis=1)
        sub_edges = local[edges[alive]]
    else:
        sub_edges = np.empty((0, 2), dtype=int)
    ids_sub = connected_components(survivors.size, sub_edges)
    k_found = int(ids_sub.max())
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
    models = batch_local_models(cloud, index, np.arange(cloud.n), params.r, eta=params.eta)
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
        center_labels = njw_partition(w, k, rng).assignments

    labels, k_found = renumber_first_occurrence(center_labels[nearest_site(cloud.coords, y)])
    info = {"eps": eps_used, "eta": eta_used, "n_centers": int(n0),
            "center_indices": center_idx, "cluster_sizes": _cluster_sizes(labels, k_found)}
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
