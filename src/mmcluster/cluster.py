"""Clustering pipelines.

Five entry points:

* ``njw_partition``        spectral graph partitioning of an affinity matrix
  (degree normalization, top-K eigenvector embedding, row renormalization,
  k-means++);
* ``algorithm2_cov_components``  removal of an intersection band, then a
  binary graph from covariance comparison, connected components, and
  reassignment of the band;
* ``algorithm3_proj_components`` the same components body with an empty
  band, on thresholded-dimension projections; both check the norm first;
* ``algorithm4_local_pca_spectral``  center subsampling, local PCA with a
  fixed tangent dimension, a soft product affinity, spectral partitioning
  of the centers, nearest-center label transfer;
* ``njw_baseline``  the same center-graph pipeline with the distance-only
  affinity.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from scipy import sparse
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
    balls,
    build_index,
    connected_components,
    nearest_site,
    pairs_within,
    renumber_first_occurrence,
    subsample_centers,
)

Array = np.ndarray

# Lloyd iterations per seeding, the centroid motion that ends them, and
# the number of k-means++ seedings of which the lowest inertia is kept.
_KMEANS_MAX_ITER = 100
_KMEANS_TOL = 1e-8
_KMEANS_RESTARTS = 10

# From this many nodes on, a graph with fewer components than clusters is
# solved by a sparse Lanczos solve, with no n x n array; smaller graphs
# keep NumPy's full eigh, which takes under 1 ms at 60 nodes.
_SPARSE_MIN = 256

# eigenpairs the sparse solve asks for beyond the K - c + 1 it uses.
# ARPACK keeps the Ritz vectors it is asked for across restarts; on a
# graph of curves, whose top eigenvalues lie within 1e-4 of each other,
# asking for 2 took 19k products with the operator at n0 = 392, asking
# for 8 took 1.5k, and on the spheres 1080 against 474.
_LANCZOS_EXTRA = 6

# ARPACK's bound on the Ritz residuals.  On the first 6 spheres operations
# at seed 41 it took 2947 operator products against 3439 at 1e-8 (and 5276
# at 0), with the same labels, and moved no top eigenvalue by more than
# 1.4e-14 from those at 1e-8; on the 2 x 2000 segments at r = 0.012, by
# at most 5.1e-13.
_EIGSH_TOL = 1e-6


@dataclass
class Labeling:
    """Cluster assignment per point: 1-based ids in [1..K_found].

    ``removed`` holds the indices deleted by the intersection-removal step
    before their reassignment, when the pipeline has such a step.  ``info``
    holds the pipeline's diagnostics: the scales ``eps`` and ``eta`` it
    used (None where it used none), ``cluster_sizes``, the edge count
    ``n_edges`` of its graph (alg2 and alg3: kept edges, none touching the
    removed band; the center-graph pipelines: stored pairs of the center
    affinity), and for the center-graph pipelines ``n_centers``,
    ``center_indices``, the count ``n_isolated`` of centers with no
    stored pair, the component count ``n_components`` of the other
    centers, and the spectral step's ``eigenvalues``, ``eigengap`` and
    ``kmeans_inertia`` (None where no eigensolver ran: one center, or as
    many components as clusters).
    ``njw_partition`` fills the last four of these.
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


def _kmeans_pp_seeds(rows: Array, k: int, rng: np.random.Generator) -> Array:
    """k initial centroids (k, D) by k-means++ seeding."""
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
    return np.stack(cents)


def _sq_dists(rows: Array, cents: Array) -> Array:
    """Squared distances (R, m, k) of the m ``rows`` to each of R sets of
    k centroids ``cents`` (R, k, D).  The D squared coordinate differences
    are added a column at a time, in the order in which NumPy sums a row of
    them, so each equals the sum over the last axis of the (m, k, D) array
    of a single restart, bit for bit, with no such array."""
    return aff._sum_as_numpy([np.square(rows[None, :, None, a] - cents[:, None, :, a])
                              for a in range(rows.shape[1])])


def _centroids(cols: Array, groups: Array, counts: Array) -> Array:
    """Means (R, k, D) of the rows in each cluster of each restart, where
    ``cols`` (D, _KMEANS_RESTARTS m) holds the columns of the m rows,
    repeated once per restart, ``groups`` (R, m) holds s k + j for row i in
    cluster j of restart s, and ``counts`` (R, k) the cluster sizes.  They
    equal what ``rows[assign == j].mean(axis=0)`` gives: ``np.bincount``
    sums in row order, as NumPy sums the rows of a matrix, while NumPy sums
    a single column pairwise, so D = 1 takes that sum group by group, over
    its own restart's m rows.  Both orders were checked against the
    reference on NumPy 2.4.6 only."""
    k = counts.shape[1]
    if len(cols) == 1:
        col = cols[0, :groups.shape[1]]
        sums = [[col[g == s * k + j].sum()] for s, g in enumerate(groups) for j in range(k)]
    else:
        sums = [np.bincount(groups.ravel(), weights=col, minlength=counts.size)
                for col in cols[:, :groups.size]]
        sums = np.transpose(sums)
    return np.reshape(sums, counts.shape + (len(cols),)) / counts[..., None]


def kmeans_pp(rows: Array, k: int, rng: np.random.Generator) -> KMeansResult:
    """K-means with k-means++ seeding and empty-cluster repair.

    Draws ``_KMEANS_RESTARTS`` seedings, one restart after another, and
    then runs Lloyd's iterations on all restarts at once; Lloyd draws
    nothing, so the generator ends where restarts run one by one leave it.
    A restart leaves the batch once its centroids move less than
    ``_KMEANS_TOL``, or after ``_KMEANS_MAX_ITER`` iterations.  A cluster
    left empty takes the row farthest from its own centroid among the rows
    whose cluster keeps another (empty clusters in ascending order), in
    the restarts that have one, so every centroid is a mean of rows.  Keeps
    the lowest inertia, the first restart on ties.  Every step computes
    what each restart would alone, bit for bit.  Deterministic for a given
    generator state; the temporaries hold R m k D floats for m rows in D
    coordinates and R restarts.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2:
        raise InvalidInput("rows must be a 2-d array")
    if not np.isfinite(rows).all():
        raise InvalidInput("rows contain non-finite values")
    if k < 1:
        raise InvalidInput("k must be >= 1")
    m = rows.shape[0]
    if m < k:
        raise TooFewRows(f"{m} rows cannot form {k} clusters")
    cents = np.stack([_kmeans_pp_seeds(rows, k, rng) for _ in range(_KMEANS_RESTARTS)])
    cols = np.tile(rows.T, _KMEANS_RESTARTS)
    live = np.arange(_KMEANS_RESTARTS)
    for _ in range(_KMEANS_MAX_ITER):
        old = cents[live]
        dists = _sq_dists(rows, old)
        assign = dists.argmin(axis=2)
        groups = assign + np.arange(0, live.size * k, k)[:, None]
        counts = np.bincount(groups.ravel(), minlength=live.size * k).reshape(-1, k)
        for s in np.flatnonzero((counts == 0).any(axis=1)):
            dist_own = dists[s, np.arange(m), assign[s]]
            for empty in np.flatnonzero(counts[s] == 0):
                # only a row whose cluster keeps another may move, so the
                # repair empties no cluster; m >= k leaves one to take from
                cluster = groups[s] - s * k
                far = int(np.where(counts[s, cluster] > 1, dist_own, -np.inf).argmax())
                counts[s, cluster[far]] -= 1
                counts[s, empty] = 1
                groups[s, far] = s * k + empty
                old[s, empty] = rows[far]
        new = _centroids(cols, groups, counts)
        motion = np.sqrt(((new - old) ** 2).sum(axis=2)).max(axis=1)
        cents[live] = new
        live = live[~(motion < _KMEANS_TOL)]
        if not live.size:
            break

    dists = _sq_dists(rows, cents)
    assign = dists.argmin(axis=2)
    inertia = dists.min(axis=2).sum(axis=1)
    best = 0
    for s in range(1, _KMEANS_RESTARTS):
        if inertia[s] < inertia[best]:
            best = s
    return KMeansResult(centroids=cents[best], assignments=assign[best],
                        inertia=float(inertia[best]))


def _argsort_distinct(key: Array) -> tuple[Array, Array]:
    """``key`` (int64, distinct, nonnegative) sorted in place, and its
    argsort.  Each key carries its own index in its low bits, so one plain
    sort, which NumPy runs in SIMD, orders both: at about half the time of
    ``np.argsort``, as long as the keys leave those bits free."""
    bits = len(key).bit_length()
    if int(key.max(initial=0)) >> (62 - bits):
        order = np.argsort(key)
        key[:] = key[order]
        return key, order
    key <<= bits
    key |= np.arange(len(key))
    key.sort()
    order = key & ((1 << bits) - 1)
    key >>= bits
    return key, order


def _sorted_csr(m: int, own: tuple[Array, Array, Array],
                mirrored: tuple[Array, Array, Array]) -> sparse.csr_array:
    """The m x m CSR matrix of the entries (rows, cols, vals) of ``own``,
    with j >= i, and of ``mirrored``, with j < i, at distinct positions.
    Row r holds its mirrored entries, then its own, each half in column
    order: the int32 arrays that ``sparse.csr_array`` makes of the COO of
    both, with no COO conversion and no index sort.  Each half is ordered
    by one sort of its row-major positions and written to its slots of the
    rows in order, so the temporaries beside the CSR are those positions,
    their order and one gather, a half's length each."""
    counts = [np.bincount(rows, minlength=m) for rows, _, _ in (mirrored, own)]
    indptr = np.zeros(m + 1, dtype=np.int32)
    np.cumsum(counts[0] + counts[1], out=indptr[1:])
    own_slot = np.repeat(np.tile([False, True], m), np.column_stack(counts).ravel())
    indices = np.empty(indptr[-1], dtype=np.int32)
    data = np.empty(indptr[-1])
    for (rows, cols, vals), slots in ((mirrored, ~own_slot), (own, own_slot)):
        positions = rows * m
        positions += cols
        positions, order = _argsort_distinct(positions)
        indices[slots] = np.remainder(positions, m, out=positions)
        del positions
        data[slots] = vals[order]
    return sparse.csr_array((data, indices, indptr), shape=(m, m))


def _njw(m: int, pairs: Array, vals: Array, k: int, rng: np.random.Generator) -> Labeling:
    """NJW spectral clustering, into k <= m clusters, of the graph on m
    nodes with the positive weights ``vals`` at the (p, 2) ``pairs``
    (i <= j), each position once; a pair off the diagonal stands for its
    mirror (j, i) too.  No node may have zero degree.

    Each node's degree adds its weights over the pairs in order, then over
    the mirrors, as one pass over the pairs followed by their mirrors
    does.  The entries are scaled by d^-1/2, one side at a time (a product
    d_i d_j could underflow), into M: the pair's entry as v s_i s_j, its
    mirror as v s_j s_i.  The graph's c components give the top eigenvalue
    1 of M the unit eigenvectors U = [u_C ~ D^1/2 1_C].
    * c = k: the components are the clusters (exact NJW); no eigh, no k-means.
    * c < k < m on m >= ``_SPARSE_MIN`` nodes: ``eigsh`` takes the next
      k - c + 1 eigenpairs (and _LANCZOS_EXTRA more) as the top ones of
      x -> Mx + x - 2 U U^T x, which sends the u_C to 0, below every
      other eigenvalue of M + I.  M is assembled as a sorted CSR by
      ``_sorted_csr``.  The embedding is [U, the top k - c vectors].  The
      start vector is fixed, not drawn from ``rng``, so k-means sees the
      same generator state on both paths.  ARPACK stops at residuals of
      ``_EIGSH_TOL``: eigenvalues exact to about its square.
    * otherwise, or when ARPACK does not converge: NumPy's full ``eigh``
      of a dense M; the embedding is its top k eigenvectors.
    Then k-means++ runs on the normalized rows of the embedding.  The
    eigenvectors keep their solver's signs: k-means sees a column only
    through squared differences and means, which a sign flip leaves exact.

    ``info``: ``n_components`` c, the top min(k+1, m) ``eigenvalues`` in
    descending order, the ``eigengap`` lambda_k - lambda_k+1 (None when
    k = m) and the ``kmeans_inertia``; the last three are None when c = k.
    """
    ids = connected_components(m, pairs)
    c = int(ids.max())
    info = {"n_components": c, **dict.fromkeys(("eigenvalues", "eigengap", "kmeans_inertia"))}
    if c == k:
        return Labeling(assignments=ids, K_found=c, info=info)
    i, j = pairs.T
    off = np.flatnonzero(i != j) if (i == j).any() else slice(None)  # the mirrored pairs
    oi, oj, ov = i[off], j[off], vals[off]
    degrees = np.bincount(i, weights=vals, minlength=m)
    np.add.at(degrees, oj, ov)
    scale = 1.0 / np.sqrt(degrees)
    upper = vals * scale[i] * scale[j]
    mirror = ov * scale[oj] * scale[oi]
    rows = None
    if c < k < m and m >= _SPARSE_MIN:
        mat = _sorted_csr(m, (i, j, upper), (oj, oi, mirror))
        u = np.zeros((m, c))
        u[np.arange(m), ids - 1] = np.sqrt(degrees)
        u /= np.sqrt(np.bincount(ids - 1, weights=degrees, minlength=c))
        op = LinearOperator((m, m), dtype=float,
                            matvec=lambda x: mat @ x + x - 2.0 * (u @ (u.T @ x)))
        try:
            vals, vecs = eigsh(op, k=min(k - c + 1 + _LANCZOS_EXTRA, m - 1), which="LA",
                               v0=np.cos(np.arange(m)), tol=_EIGSH_TOL)
        except ArpackNoConvergence:
            pass
        else:
            order = np.argsort(vals)[:-(k - c) - 2:-1]
            rows = np.hstack([u, vecs[:, order[:k - c]]])
            eigenvalues = [1.0] * c + (vals[order] - 1.0).tolist()
    if rows is None:
        # filled by NumPy, not scipy.sparse: the first sparse conversion
        # maps about 0.5 MB of native code, +20% peak on a run of small graphs
        dense = np.zeros((m, m))
        dense[i, j] = upper
        dense[oj, oi] = mirror
        vals, vecs = np.linalg.eigh(dense)
        rows, eigenvalues = vecs[:, :-k-1:-1], vals[:-k-2:-1].tolist()
    norms = np.sqrt((rows * rows).sum(axis=1))
    ok = norms > 0
    rows[ok] /= norms[ok, None]
    res = kmeans_pp(rows, k, rng)
    labels, k_found = renumber_first_occurrence(res.assignments)
    info.update(eigenvalues=eigenvalues, kmeans_inertia=res.inertia,
                eigengap=eigenvalues[k - 1] - eigenvalues[k] if k < len(eigenvalues) else None)
    return Labeling(assignments=labels, K_found=k_found, info=info)


def njw_partition(w, k: int, rng: np.random.Generator) -> Labeling:
    """Spectral graph partitioning (Ng, Jordan & Weiss) of a symmetric
    nonnegative affinity, dense or ``scipy.sparse``, whose diagonal holds
    self-loops.  A dense affinity is checked as one dense copy; a sparse
    one over its stored entries, repeated entries added up, with no dense
    copy.  The caller's matrix is left as it was.  Once it passes the
    symmetry check, only its upper triangle, diagonal included, is read:
    ``_njw``, which documents the solver rule and ``info``, partitions its
    nonzero entries in row-major order as pairs that stand for their
    mirrors.
    """
    try:
        if sparse.issparse(w):  # its stored entries, repeated ones added up
            w = sparse.csr_array(w, dtype=float, copy=True)
            w.sum_duplicates()
            w.eliminate_zeros()
            entries = w.data
        else:
            w = entries = np.asarray(w, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidInput(f"affinity must be numeric: {exc}") from exc
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise InvalidInput("affinity must be square")
    if not np.all(np.isfinite(entries)) or (entries < 0).any():
        raise InvalidInput("affinity must be finite and nonnegative")
    n = w.shape[0]
    if not 1 <= k <= n:
        raise InvalidInput(f"k={k} out of range for {n} nodes")
    gap = w - w.T  # a dense one is the one n x n temporary, made absolute in place
    if np.abs(gap, out=None if sparse.issparse(gap) else gap).max() > 1e-12:
        raise InvalidInput("affinity must be symmetric")
    del gap
    if (w.sum(axis=1) <= 0).any():
        raise IsolatedNode("affinity has a zero-degree node")
    upper = sparse.triu(w, format="coo")  # row-major nonzero entries with j >= i
    return _njw(n, np.stack([upper.row, upper.col], axis=1, dtype=np.intp), upper.data, k, rng)


def _partition_centers(pairs: Array, vals: Array, y: Array, k: int,
                       rng: np.random.Generator) -> tuple[Array, dict]:
    """1-based labels of the n0 centers at ``y`` from their affinity, given
    as its upper-triangle ``pairs`` (i <= j; alg4's have i < j) and their
    weights ``vals``, and the graph and spectral diagnostics.

    The centers in at least one pair are linked; there must be at least k
    of them, and ``_njw`` partitions their graph.  An isolated center
    takes the label of its nearest linked center.
    """
    n0 = len(y)
    linked = np.zeros(n0, dtype=bool)
    linked[pairs] = True
    m = int(np.count_nonzero(linked))
    if m < k:
        raise TooFewCenters(f"{m} linked centers cannot form {k} clusters")
    if m < n0:
        pairs = (np.cumsum(linked) - 1)[pairs]
    part = _njw(m, pairs, vals, k, rng)
    info = {"n_edges": len(pairs), "n_isolated": n0 - m, **part.info}
    if m == n0:
        return part.assignments, info
    out = np.empty(n0, dtype=int)
    out[linked] = part.assignments
    out[~linked] = part.assignments[nearest_site(y[~linked], y[linked])]
    return out, info


def _components(cloud: PointCloud, params: aff.ScaleParams, stack: Array, dead: Array,
                band: Array, threshold: float, norm: str) -> Labeling:
    """alg2's and alg3's components: each pair within eps of points neither
    ``dead`` nor in the removal ``band`` (a mask, empty in alg3) is an edge
    if its gap in ``stack`` stays within ``threshold``.  Components are
    numbered by smallest node; a non-empty band's points join their nearest
    survivor's, after the survivors' are renumbered."""
    if band.all():
        raise AllPointsRemoved("the removal step deleted every point")
    pairs, keep = aff.indicator_pairs(stack, dead | band, cloud.coords, params.eps,
                                      threshold, norm)
    info = {"eps": params.eps, "eta": params.eta, "n_edges": int(np.count_nonzero(keep))}
    ids = connected_components(cloud.n, aff.kept_front(pairs, keep))
    k_found = int(ids.max())
    if band.any():
        survivors, removed = np.flatnonzero(~band), np.flatnonzero(band)
        ids[survivors], k_found = renumber_first_occurrence(ids[survivors])
        ids[removed] = assign_to_closest_survivor(cloud, removed, survivors, ids[survivors])
    return Labeling(ids, k_found, info=info | {"cluster_sizes": _cluster_sizes(ids, k_found)})


def algorithm2_cov_components(cloud: PointCloud, params: aff.ScaleParams,
                              norm: str = "spectral") -> Labeling:
    """Connected-component extraction by comparing local covariances:
    local covariances over r-balls; removal of the band of points with an
    r-neighbor at covariance gap above eta * r^2; ``_components`` at that
    threshold, so no pair touching the band is queried or gapped.
    ``removed`` holds the band, possibly empty."""
    aff.check_norm(norm)
    pairs_r = pairs_within(cloud.coords, params.r)
    models = batch_local_models(cloud, cloud.coords, pairs_r, d=1)
    threshold = params.eta * params.r**2
    band = np.zeros(cloud.n, dtype=bool)
    gaps = aff.pairwise_diff_norms(models.covariance, pairs_r, norm)
    band[np.compress(gaps > threshold, pairs_r, axis=0).ravel()] = True
    del pairs_r, gaps
    return replace(_components(cloud, params, models.covariance, models.degenerate, band,
                               threshold, norm), removed=np.flatnonzero(band))


def algorithm3_proj_components(cloud: PointCloud, params: aff.ScaleParams,
                               norm: str = "spectral") -> Labeling:
    """Connected-component extraction by comparing local projections with
    thresholded dimension estimation: ``_components`` at threshold eta,
    with no removal band.  May return more than two groups."""
    if not params.eta < 1.0:
        raise InvalidInput("projection comparison requires eta < 1")
    aff.check_norm(norm)
    models = batch_local_models(cloud, cloud.coords, pairs_within(cloud.coords, params.r),
                                eta=params.eta)
    return _components(cloud, params, models.projection, models.degenerate,
                       np.zeros(cloud.n, dtype=bool), params.eta, norm)


def _cluster_sizes(labels: Array, k_found: int) -> list[int]:
    return np.bincount(labels, minlength=k_found + 1)[1:].tolist()


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
    selected automatically from the centers when not supplied; every
    given scale must be finite and positive.  The ``distance`` kind drops
    the tangent factor, so it runs neither local PCA nor the eta
    selection and ignores ``d``.  The ``wang`` kind uses neither scale,
    so it runs neither selection and reports both as None.  The ``gong``
    kind reads eps only to select eta, so with a given eta it runs no eps
    selection and reports eps as None.  k, kind, d and ell are checked first.

    ``return_info=True`` returns ``(labeling, labeling.info)``.
    """
    aff.check_kind(affinity_kind)
    if k < 1:
        raise InvalidInput("k must be >= 1")
    if affinity_kind != "distance" and not (d is not None and 1 <= d <= cloud.dim):
        raise InvalidInput(f"d={d} out of range for ambient dimension {cloud.dim}")
    if affinity_kind in ("wang", "gong") and ell < 1:
        raise InvalidInput("ell must be >= 1")
    aff.check_scales(eps=eps, eta=eta, alpha=alpha)
    tree = build_index(cloud.coords)
    center_idx = subsample_centers(tree, r, rng)
    n0 = center_idx.size
    if n0 < k:
        raise TooFewCenters(f"{n0} centers cannot form {k} clusters")
    y = cloud.coords[center_idx]
    models = (None if affinity_kind == "distance"
              else batch_local_models(cloud, y, balls(tree, y, r), d=d))

    eps_used = eta_used = None
    graph = {"n_edges": 0, "n_components": 1, "n_isolated": 0,
             **dict.fromkeys(("eigenvalues", "eigengap", "kmeans_inertia"))}
    if n0 == 1:
        center_labels = np.ones(1, dtype=int)
    else:
        # gong reads eps only through the eta selection
        if affinity_kind != "wang" and (affinity_kind != "gong" or eta is None):
            eps_used = float(eps) if eps is not None else aff.auto_epsilon(y)
        if affinity_kind not in ("wang", "distance"):
            # the median can be exactly 0 on noiseless flat data; flooring it
            # reproduces the eta -> 0 limit (connect identical tangents only)
            eta_used = (float(eta) if eta is not None
                        else max(aff.auto_eta(models, eps_used), 1e-12))

        ell_used = min(ell, n0 - 1)
        args = {"distance": (y, eps_used), "gauss": (models, eps_used, eta_used),
                "cov": (models, eps_used, eta_used, r), "proj": (models, eps_used, eta_used),
                "wang": (models, ell_used, alpha), "gong": (models, ell_used, eta_used)}
        pairs, vals = aff.PAIR_BUILDERS[affinity_kind](*args[affinity_kind])
        center_labels, graph = _partition_centers(pairs, vals, y, k, rng)

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
