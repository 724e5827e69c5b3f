import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from scipy import sparse
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import ArpackNoConvergence

from conftest import ball_models
from mmcluster import affinity as aff
from mmcluster import cluster, neighborhoods
from mmcluster.affinity import (
    ScaleParams,
    auto_epsilon,
    auto_eta,
    distance_gaussian_affinity,
    gaussian_product_affinity,
    pairwise_diff_norms,
    proj_indicator_affinity,
)
from mmcluster.cluster import (
    algorithm2_cov_components,
    algorithm3_proj_components,
    algorithm4_local_pca_spectral,
    kmeans_pp,
    njw_baseline,
    njw_partition,
)
from mmcluster.datasets import DatasetSpec, generate
from mmcluster.errors import (
    AllPointsRemoved,
    InvalidInput,
    IsolatedNode,
    TooFewCenters,
    TooFewRows,
)
from mmcluster.evaluation import misclustering_rate
from mmcluster.neighborhoods import (
    PointCloud,
    assign_to_closest_survivor,
    balls,
    build_index,
    pairs_within,
    renumber_first_occurrence,
    subsample_centers,
)
from mmcluster.seeding import derive_seed
from test_acceptance import _random_block_affinity


def crossing_cloud(seed=0, n=2000, tau=0.0, angle=math.pi / 2):
    return generate(DatasetSpec("two_segments", n_per_cluster=n // 2,
                                tau=tau, angle=angle, seed=seed))


def single_segment_cloud(n=800):
    t = np.linspace(-1.0, 1.0, n)
    return PointCloud(np.column_stack([t, np.zeros(n)]),
                      labels=np.ones(n, dtype=int))


def normalized(w):
    """D^-1/2 W D^-1/2 of a dense or sparse affinity, as a dense array."""
    w = w.toarray() if sparse.issparse(w) else np.asarray(w, dtype=float)
    d = w.sum(axis=1)
    return w / np.sqrt(np.outer(d, d))


def center_affinity(cloud, r, seed, kind="gauss", eta=None):
    """The sparse center affinity that alg4 builds on ``cloud`` (d = 1,
    automatic eps, and automatic eta unless given) with the generator of
    seed ``seed``."""
    rng = np.random.default_rng(seed)
    centers = subsample_centers(build_index(cloud.coords), r, rng)
    y = cloud.coords[centers]
    eps = auto_epsilon(y)
    if kind == "distance":
        return distance_gaussian_affinity(y, eps)
    models = ball_models(cloud, centers, r, d=1)
    eta = max(auto_eta(models, eps), 1e-12) if eta is None else eta
    if kind == "proj":
        return proj_indicator_affinity(models, eps, eta)
    return gaussian_product_affinity(models, eps, eta)


def alg4_center_graph():
    """The sparse center affinity of alg4 on a 600-point crossing: two
    components, no isolated center."""
    return center_affinity(crossing_cloud(seed=4, n=600, tau=0.01), 0.1, 5)


def baseline_center_graph():
    """The sparse center affinity of the baseline on the same crossing:
    one component of 32 centers."""
    return center_affinity(crossing_cloud(seed=4, n=600, tau=0.01), 0.1, 5, kind="distance")


def criterion6_affinities():
    """(w, k, seed) of the 200 random block affinities of acceptance criterion 6."""
    rng = np.random.default_rng(2718)
    cases = []
    for case in range(200):
        k = 2 if case % 4 else 3
        n = int(rng.integers(6, 13)) if k == 2 else int(rng.integers(6, 9))
        cases.append((_random_block_affinity(rng, n, k), k, derive_seed(555, case)))
    return cases


def reference_kmeans_pp(rows, k, rng, reached):
    """k-means++ as it ran restart by restart: each seeding followed by its
    own Lloyd loop, the lowest inertia kept (ties: first restart).  Adds
    to ``reached`` the names of the rare branches it takes."""
    m = rows.shape[0]
    best = None
    for _ in range(cluster._KMEANS_RESTARTS):
        first = int(rng.integers(m))
        cents = [rows[first].copy()]
        chosen = {first}
        d2 = ((rows - cents[0]) ** 2).sum(axis=1)
        for _ in range(1, k):
            total = d2.sum()
            if total > 0:
                idx = int(rng.choice(m, p=d2 / total))
            else:
                reached.add("coincident seeding")
                free = [i for i in range(m) if i not in chosen]
                idx = free[int(rng.integers(len(free)))]
            chosen.add(idx)
            cents.append(rows[idx].copy())
            d2 = np.minimum(d2, ((rows - rows[idx]) ** 2).sum(axis=1))
        cents = np.stack(cents)
        for _ in range(cluster._KMEANS_MAX_ITER):
            dists = ((rows[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
            assign = dists.argmin(axis=1)
            counts = np.bincount(assign, minlength=k)
            if (counts == 0).any():
                reached.add("empty-cluster repair")
                dist_own = dists[np.arange(m), assign]
                for empty in np.flatnonzero(counts == 0):
                    # only a row whose cluster keeps another row moves
                    if counts[assign[dist_own.argmax()]] == 1:
                        reached.add("repair skips a lone row")
                    far = int(np.where(counts[assign] > 1, dist_own, -np.inf).argmax())
                    counts[assign[far]] -= 1
                    counts[empty] = 1
                    assign[far] = empty
                    cents[empty] = rows[far]
                    dist_own[far] = -1.0
            new_cents = np.stack([rows[assign == kk].mean(axis=0) for kk in range(k)])
            motion = np.sqrt(((new_cents - cents) ** 2).sum(axis=1)).max()
            cents = new_cents
            if motion < cluster._KMEANS_TOL:
                break
        dists = ((rows[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
        assign = dists.argmin(axis=1)
        inertia = float(dists[np.arange(m), assign].sum())
        if best is None or inertia < best[2]:
            best = (cents, assign, inertia)
    return best


def assert_kmeans_matches_reference(rows, k, seed, reached):
    """Equal centroids, assignments, inertia and generator state, bit for
    bit; the reference adds the rare branches it takes to ``reached``."""
    rng_ref, rng = np.random.default_rng(seed), np.random.default_rng(seed)
    cents, assign, inertia = reference_kmeans_pp(rows, k, rng_ref, reached)
    res = kmeans_pp(rows, k, rng)
    np.testing.assert_array_equal(res.centroids, cents)
    np.testing.assert_array_equal(res.assignments, assign)
    assert res.inertia == inertia
    assert rng.bit_generator.state == rng_ref.bit_generator.state


class TestKMeans:
    def test_k_equals_m(self):
        rows = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        res = kmeans_pp(rows, 3, np.random.default_rng(0))
        assert res.inertia == pytest.approx(0.0)
        assert len(set(res.assignments.tolist())) == 3

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_two_separated_blobs(self, seed):
        rows = np.array([[0.0, 0.0], [0.1, 0.0], [10.0, 10.0], [10.1, 10.0]])
        res = kmeans_pp(rows, 2, np.random.default_rng(seed))
        assert res.assignments[0] == res.assignments[1]
        assert res.assignments[2] == res.assignments[3]
        assert res.assignments[0] != res.assignments[2]

    def test_non_finite_rows_rejected(self):
        # unchecked, a NaN row gives NaN centroids and no error
        rows = np.array([[0.0, 0.0], [1.0, math.nan], [2.0, 0.0]])
        with pytest.raises(InvalidInput):
            kmeans_pp(rows, 2, np.random.default_rng(0))

    def test_too_few_rows(self):
        with pytest.raises(TooFewRows):
            kmeans_pp(np.zeros((2, 2)), 3, np.random.default_rng(0))

    def test_beats_naive_lloyd_restarts(self):
        # k-means++ with restarts should match or beat plain random-restart
        # Lloyd on most seeds
        rng = np.random.default_rng(42)
        rows = np.vstack([rng.normal(size=(40, 2)),
                          rng.normal(size=(40, 2)) + [6, 0],
                          rng.normal(size=(20, 2)) + [3, 6]])

        def naive_lloyd(rows, k, rng, iters=60):
            best = np.inf
            for _ in range(50):
                cents = rows[rng.choice(len(rows), size=k, replace=False)]
                for _ in range(iters):
                    d = ((rows[:, None] - cents[None]) ** 2).sum(axis=2)
                    a = d.argmin(axis=1)
                    new = np.stack([rows[a == kk].mean(axis=0) if (a == kk).any()
                                    else cents[kk] for kk in range(k)])
                    if np.allclose(new, cents):
                        break
                    cents = new
                d = ((rows[:, None] - cents[None]) ** 2).sum(axis=2)
                best = min(best, d.min(axis=1).sum())
            return best

        wins = 0
        trials = 20
        for seed in range(trials):
            ours = kmeans_pp(rows, 3, np.random.default_rng(seed)).inertia
            naive = naive_lloyd(rows, 3, np.random.default_rng(seed + 1000))
            if ours <= naive + 1e-9:
                wins += 1
        assert wins >= int(0.95 * trials)

    def test_empty_cluster_repair(self):
        rows = np.array([[0.0, 0.0]] * 3 + [[10.0, 0.0], [10.1, 0.0]])
        res = kmeans_pp(rows, 3, np.random.default_rng(5))
        assert len(set(res.assignments.tolist())) == 3
        assert np.isfinite(res.inertia)

    @pytest.mark.parametrize("seed", range(8))
    def test_repair_empties_no_other_cluster(self, seed):
        # three distinct rows for four clusters: a repair that moved the
        # lone row of a cluster left a mean of no rows, NumPy warned and
        # the centroids turned NaN.  Each of the k Lloyd clusters is
        # nonempty, so the centroids are the four rows; the final argmin
        # puts both copies of (1, 0) in the first of their equal centroids
        rows = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        res = kmeans_pp(rows, 4, np.random.default_rng(seed))
        assert np.isfinite(res.centroids).all() and res.inertia == 0.0
        assert sorted(map(tuple, res.centroids.tolist())) == sorted(map(tuple, rows.tolist()))
        reached = set()
        assert_kmeans_matches_reference(rows, 4, seed, reached)
        assert "repair skips a lone row" in reached

    def test_final_assignment_is_argmin(self):
        rng = np.random.default_rng(6)
        rows = rng.normal(size=(80, 3))
        res = kmeans_pp(rows, 4, np.random.default_rng(7))
        d = ((rows[:, None, :] - res.centroids[None, :, :]) ** 2).sum(axis=2)
        np.testing.assert_array_equal(res.assignments, d.argmin(axis=1))
        assert res.inertia == pytest.approx(d.min(axis=1).sum())

    def test_column_signs_ignored(self):
        # squared differences and means negate exactly with a column, so
        # the seeding draws and every assignment are the same
        rng = np.random.default_rng(12)
        for case in range(50):
            k = int(rng.integers(2, 5))
            rows = rng.normal(size=(int(rng.integers(k, 60)), k))
            signs = rng.choice([-1.0, 1.0], size=k)
            a = kmeans_pp(rows, k, np.random.default_rng(case))
            b = kmeans_pp(rows * signs, k, np.random.default_rng(case))
            np.testing.assert_array_equal(a.assignments, b.assignments)

    def test_batched_restarts_match_reference(self):
        # m from k to about 1,500, k from 1 to 5, D from 1 to 4; blobs and
        # plain normal rows.  D = 1 sums its centroids pairwise, the rest
        # in row order
        rng = np.random.default_rng(23)
        for case in range(60):
            dim, k = 1 + case % 4, 1 + case % 5
            m = [k, k + int(rng.integers(1, 8)), int(rng.integers(20, 200))][case % 3]
            rows = rng.normal(size=(m, dim))
            if case % 2:
                rows += 4.0 * rng.normal(size=(k, dim))[rng.integers(0, k, m)]
            assert_kmeans_matches_reference(rows, k, case, set())
        # D = 9 sums each squared distance pairwise, as NumPy does from 8 on
        for case, (m, k, dim) in enumerate([(1500, 2, 2), (1400, 3, 4), (1200, 5, 3), (900, 4, 1),
                                            (80, 3, 9)]):
            rows = rng.normal(size=(m, dim)) + 3.0 * rng.normal(size=(k, dim))[rng.integers(0, k, m)]
            assert_kmeans_matches_reference(rows, k, 100 + case, set())

    def test_batched_restarts_match_reference_on_repeated_rows(self):
        # fewer distinct rows than clusters: the seeding draws among rows
        # that all coincide with chosen centroids, and Lloyd repairs the
        # clusters left empty.  Each distinct row appears at least twice, and
        # no repair here empties another cluster (NumPy would warn of a mean
        # of no rows)
        rng = np.random.default_rng(29)
        reached = set()
        for case in range(40):
            dim, k = 1 + case % 4, 2 + case % 4
            distinct = rng.normal(size=(int(rng.integers(1, k + 2)), dim))
            rows = np.repeat(distinct, rng.integers(2, 6, size=len(distinct)), axis=0)
            rows = rows[rng.permutation(len(rows))]
            if len(rows) >= k:
                assert_kmeans_matches_reference(rows, k, case, reached)
        assert reached == {"coincident seeding", "empty-cluster repair"}

    @pytest.mark.parametrize("dim", range(1, 10))
    def test_sq_dists_add_columns_as_numpy_sums_the_last_axis(self, dim):
        # both regimes of NumPy's summation: in turn below 8, and pairwise
        rng = np.random.default_rng(dim)
        rows = rng.normal(size=(300, dim)) * rng.uniform(1e-4, 1e4, size=dim)
        cents = rng.normal(size=(4, 3, dim)) * 100.0
        want = np.square(rows[None, :, None, :] - cents[:, None, :, :]).sum(axis=3)
        np.testing.assert_array_equal(cluster._sq_dists(rows, cents), want.transpose(0, 2, 1))

    @pytest.mark.parametrize("k", range(1, 6))
    def test_nearest_centroids_match_argmin_and_min(self, k):
        # distances drawn from a few values, so many rows tie between
        # centroids, and argmin's first index must win
        rng = np.random.default_rng(k)
        dists = rng.integers(0, 3, size=(4, k, 500)) * 0.25
        dists[:, :, :50] = 1.5
        nearest, best = cluster._nearest_centroids(dists)
        assert nearest.dtype == np.intp
        np.testing.assert_array_equal(nearest, dists.argmin(axis=1))
        np.testing.assert_array_equal(best, dists.min(axis=1))


class TestNJW:
    @pytest.mark.parametrize("seed", [0, 7, 123])
    def test_block_diagonal_recovery(self, seed):
        w = np.zeros((7, 7))
        w[:3, :3] = 1.0
        w[3:, 3:] = 1.0
        lab = njw_partition(w, 2, np.random.default_rng(seed))
        assert lab.K_found == 2
        assert len(set(lab.assignments[:3].tolist())) == 1
        assert len(set(lab.assignments[3:].tolist())) == 1
        assert lab.assignments[0] != lab.assignments[3]

    def test_all_ones_single_cluster(self):
        lab = njw_partition(np.ones((5, 5)), 1, np.random.default_rng(0))
        assert lab.K_found == 1
        assert set(lab.assignments.tolist()) == {1}

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_disconnected_components_recovered(self, seed):
        rng = np.random.default_rng(9)
        sizes = [4, 5, 6]
        w = np.zeros((15, 15))
        start = 0
        truth = np.zeros(15, dtype=int)
        for k, s in enumerate(sizes):
            block = rng.uniform(0.5, 1.0, size=(s, s))
            block = 0.5 * (block + block.T)
            w[start:start + s, start:start + s] = block
            truth[start:start + s] = k + 1
            start += s
        lab = njw_partition(w, 3, np.random.default_rng(seed))
        assert lab.K_found == 3
        assert misclustering_rate(lab, truth, 3) == 0.0

    def test_zero_degree_rejected(self):
        w = np.zeros((3, 3))
        w[0, 1] = w[1, 0] = 1.0
        with pytest.raises(IsolatedNode):
            njw_partition(w, 2, np.random.default_rng(0))

    def test_asymmetric_rejected(self):
        w = np.ones((3, 3))
        w[0, 1] = 2.0
        with pytest.raises(InvalidInput):
            njw_partition(w, 2, np.random.default_rng(0))

    def test_sparse_input_matches_dense(self):
        for w, k, seed in criterion6_affinities():
            a = njw_partition(w, k, np.random.default_rng(seed))
            b = njw_partition(sparse.coo_array(w), k, np.random.default_rng(seed))
            np.testing.assert_array_equal(a.assignments, b.assignments)
            assert repr(a.info) == repr(b.info)

    def test_sparse_input_checked_without_a_dense_copy(self):
        # 20 rings of 300 nodes: a dense copy would take 288 MB; 20
        # components for k = 20 need no eigensolver either
        n, size = 6000, 300
        i = np.arange(n)
        j = i - i % size + (i + 1) % size
        w = sparse.coo_array((np.ones(3 * n), (np.r_[i, j, i], np.r_[j, i, i])), shape=(n, n))
        tracemalloc.start()
        try:
            lab = njw_partition(w, n // size, np.random.default_rng(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(lab.assignments, i // size + 1)
        assert peak < 5e6

    def test_sparse_repeated_entries_add_up(self):
        # CSR that stores each entry as two halves, left as it was
        n = 9
        w = _random_block_affinity(np.random.default_rng(5), n, 2)
        split = sparse.csr_array((np.repeat(w / 2, 2, axis=1).ravel(),
                                  np.tile(np.repeat(np.arange(n), 2), n),
                                  np.arange(0, 2 * n * n + 1, 2 * n)), shape=(n, n))
        assert split.nnz == 2 * n * n
        data_before = split.data.copy()
        want = njw_partition(w, 2, np.random.default_rng(1))
        got = njw_partition(split, 2, np.random.default_rng(1))
        np.testing.assert_array_equal(got.assignments, want.assignments)
        np.testing.assert_array_equal(split.data, data_before)

    @pytest.mark.parametrize("defect", ["asymmetric", "negative", "nan", "inf"])
    def test_sparse_invalid_rejected(self, defect):
        rows, cols = [0, 1, 0, 1, 2, 2], [0, 1, 1, 0, 2, 1]
        vals = np.array([1.0, 1.0, 0.5, 0.5, 1.0, 0.2])
        if defect == "negative":
            vals[2:4] = -0.5
        else:
            vals[2] = {"asymmetric": 0.4, "nan": np.nan, "inf": np.inf}[defect]
        with pytest.raises(InvalidInput):
            njw_partition(sparse.coo_array((vals, (rows, cols)), shape=(3, 3)), 2,
                          np.random.default_rng(0))

    def test_sparse_zero_degree_rejected(self):
        w = sparse.coo_array(([1.0, 1.0], ([0, 1], [1, 0])), shape=(3, 3))
        with pytest.raises(IsolatedNode):
            njw_partition(w, 2, np.random.default_rng(0))

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(10)
        w = rng.uniform(0.1, 1.0, size=(12, 12))
        w = 0.5 * (w + w.T)
        a = njw_partition(w, 3, np.random.default_rng(4))
        b = njw_partition(w, 3, np.random.default_rng(4))
        np.testing.assert_array_equal(a.assignments, b.assignments)

    def test_labels_ignore_eigenvector_signs(self, monkeypatch):
        # the criterion-6 affinities and one connected center graph of the
        # baseline, each with eigenvector columns negated at random
        cases = criterion6_affinities()
        cases.append((baseline_center_graph(), 2, 17))
        want = [njw_partition(w, k, np.random.default_rng(seed)).assignments
                for w, k, seed in cases]
        flips = np.random.default_rng(0)
        eigh = np.linalg.eigh
        flipped = []

        def eigh_random_signs(a):
            vals, vecs = eigh(a)
            signs = flips.choice([-1.0, 1.0], size=vecs.shape[1])
            flipped.append((signs < 0).sum())
            return vals, vecs * signs

        monkeypatch.setattr(np.linalg, "eigh", eigh_random_signs)
        for (w, k, seed), labels in zip(cases, want):
            got = njw_partition(w, k, np.random.default_rng(seed))
            np.testing.assert_array_equal(got.assignments, labels)
        assert len(flipped) == len(cases) and sum(flipped) > 0

    def test_branches_give_identical_labels(self, monkeypatch):
        # the dense and the sparse solve on the criterion-6 affinities, on
        # dense block affinities of 400 nodes and on an alg4 center graph
        rng = np.random.default_rng(31)
        cases = criterion6_affinities()
        cases += [(_random_block_affinity(rng, 400, k), k, 40 + k) for k in (2, 3)]
        cases.append((alg4_center_graph(), 2, 17))
        calls = spies(monkeypatch)
        got = {}
        for branch, size in (("dense", math.inf), ("sparse", cluster._SPARSE_MIN)):
            monkeypatch.setattr(cluster, "_SPARSE_MIN", size)
            got[branch] = [njw_partition(w, k, np.random.default_rng(seed))
                           for w, k, seed in cases]
        assert len(calls["eigsh"]) == 2
        for dense, sparse_ in zip(got["dense"], got["sparse"]):
            np.testing.assert_array_equal(dense.assignments, sparse_.assignments)
            assert dense.info["kmeans_inertia"] == pytest.approx(
                sparse_.info["kmeans_inertia"], rel=1e-6, abs=1e-12)

    # "full": NumPy's full eigh on every graph; "subset": the sparse solve of
    # the top eigenpairs on every graph with fewer components than clusters
    @pytest.mark.parametrize("branch", ["full", "subset"])
    def test_eigenvalues_match_eigvalsh(self, branch, monkeypatch):
        monkeypatch.setattr(cluster, "_SPARSE_MIN", math.inf if branch == "full" else 1)
        calls = spies(monkeypatch)
        rng = np.random.default_rng(8)
        cases = [(w, k) for w, k, _ in criterion6_affinities()[:40]]
        cases += [(_random_block_affinity(rng, 300, 3), 3),
                  (alg4_center_graph(), 2),
                  (np.ones((2, 2)), 2)]
        for w, k in cases:
            info = njw_partition(w, k, np.random.default_rng(0)).info
            if info["n_components"] == k:
                assert info["eigenvalues"] is info["eigengap"] is info["kmeans_inertia"] is None
                continue
            want = np.linalg.eigvalsh(normalized(w))[::-1][:k + 1]
            np.testing.assert_allclose(info["eigenvalues"], want, rtol=0, atol=1e-12)
            if k < len(want):
                assert info["eigengap"] == info["eigenvalues"][k - 1] - info["eigenvalues"][k]
            else:
                assert info["eigengap"] is None
            assert info["kmeans_inertia"] >= 0
        assert bool(calls["eigsh"]) == (branch == "subset")

    def test_tiny_weights_do_not_underflow(self):
        # the degree product 1e-200 * 1e-200 underflows to 0; scaling by
        # d^-1/2 rows and then columns does not
        w = np.array([[0.0, 1e-200, 0.0], [1e-200, 0.0, 1.0], [0.0, 1.0, 0.0]])
        for w in (w, sparse.coo_array(w)):
            lab = njw_partition(w, 2, np.random.default_rng(0))
            np.testing.assert_array_equal(lab.assignments, [1, 2, 2])
            np.testing.assert_allclose(lab.info["eigenvalues"], [1.0, 0.0, -1.0],
                                       rtol=0, atol=1e-12)

    def test_inputs_unchanged(self):
        w = _random_block_affinity(np.random.default_rng(3), 9, 2)
        dense_before = w.copy()
        coo = sparse.coo_array(w)
        data_before = coo.data.copy()
        njw_partition(w, 2, np.random.default_rng(0))
        njw_partition(coo, 2, np.random.default_rng(0))
        np.testing.assert_array_equal(w, dense_before)
        np.testing.assert_array_equal(coo.data, data_before)

    def test_symmetry_tolerance_is_absolute_1e12(self):
        w = np.eye(3)
        w[0, 1] = w[1, 0] = 0.5
        w[0, 2] = 1e-12
        assert njw_partition(w, 2, np.random.default_rng(0)).K_found == 2
        w[0, 2] = 2e-12
        with pytest.raises(InvalidInput):
            njw_partition(w, 2, np.random.default_rng(0))

    def test_empty_rejected(self):
        with pytest.raises(InvalidInput):
            njw_partition(np.zeros((0, 0)), 1, np.random.default_rng(0))

    @pytest.mark.parametrize("cell", ["a", {}])
    def test_non_numeric_rejected(self, cell):
        with pytest.raises(InvalidInput):
            njw_partition([[1, cell], [1, 1]], 1, np.random.default_rng(0))


def zero_diagonal(w):
    """The sparse form of a dense affinity, diagonal dropped, as the
    affinity functions store it."""
    w = np.array(w, dtype=float)
    np.fill_diagonal(w, 0.0)
    return sparse.coo_array(w)


def spies(monkeypatch):
    """Count the calls the NJW core makes to NumPy's eigh and to eigsh,
    forwarding each."""
    calls = {"eigh": [], "eigsh": []}
    for module, name in ((np.linalg, "eigh"), (cluster, "eigsh")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, _real=real, _log=calls[name], **kw:
                            _log.append(a[0].shape) or _real(*a, **kw))
    return calls


def dense_njw(w, k, seed):
    """NJW written out on the dense normalized affinity: the top k
    eigenvectors, unit rows, k-means++, labels by first occurrence."""
    rows = np.linalg.eigh(normalized(w))[1][:, ::-1][:, :k]
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    assignments = kmeans_pp(rows, k, np.random.default_rng(seed)).assignments
    return renumber_first_occurrence(assignments)[0]


def assert_same_spectrum(info, want):
    """Equal component counts, and the eigenvalues and the k-means inertia
    of two solves that may sum the stored entries in another order."""
    assert info["n_components"] == want["n_components"]
    np.testing.assert_allclose(info["eigenvalues"], want["eigenvalues"], rtol=0, atol=1e-12)
    assert info["kmeans_inertia"] == pytest.approx(want["kmeans_inertia"], rel=1e-6, abs=1e-12)


def upper_pairs(w):
    """The upper-triangle pairs (i <= j) of a symmetric sparse affinity
    and their weights, in row-major order: the graph as alg4 carries it,
    where no pair lies on the diagonal."""
    upper = sparse.triu(w, format="coo")
    return np.stack([upper.row, upper.col], axis=1, dtype=np.intp), upper.data


def partition(w, k, seed, y=None):
    """alg4's spectral step on the sparse affinity ``w`` of n centers at
    ``y`` (all at the origin by default)."""
    y = np.zeros((w.shape[0], 1)) if y is None else y
    return cluster._partition_centers(*upper_pairs(w), y, k, np.random.default_rng(seed))


def scaled_coo_csr(m, pairs, vals, scale):
    """``sparse.csr_array`` of the COO of the pairs' entries v s_i s_j
    and, off the diagonal, their mirrors' v s_j s_i, each product taken
    left to right."""
    i, j = pairs.T
    off = i != j
    rows, cols = np.concatenate([i, j[off]]), np.concatenate([j, i[off]])
    entries = np.concatenate([vals * scale[i] * scale[j],
                              vals[off] * scale[j[off]] * scale[i[off]]])
    return sparse.csr_array((entries, (rows, cols)), shape=(m, m))


class TestSortedCSR:
    """The CSR matrix of the sparse solve, assembled from the pair list."""

    @staticmethod
    def assert_same_arrays(got, want):
        assert got.indices.dtype == np.int32 and got.indptr.dtype == np.int32
        np.testing.assert_array_equal(got.indptr, want.indptr)
        np.testing.assert_array_equal(got.indices, want.indices)
        assert got.data.tobytes() == want.data.tobytes()

    @staticmethod
    def assert_mirrors_round_apart(pairs, vals, scale):
        # v s_i s_j and v s_j s_i differ in the last bit for some pairs, so
        # the comparison tells the two products apart
        i, j = pairs.T
        assert (vals * scale[i] * scale[j] != vals * scale[j] * scale[i]).any()

    def test_spheres_graph_with_an_isolated_center(self):
        # alg4's product affinity on spheres, the pairs of center 5 dropped,
        # scaled by its degrees as _njw scales it
        cloud = generate(DatasetSpec("two_spheres", n_per_cluster=1000, tau=0.0, seed=1))
        centers = subsample_centers(build_index(cloud.coords), 0.2, np.random.default_rng(0))
        models = ball_models(cloud, centers, 0.2, d=2)
        pairs, vals = aff.gaussian_product_pairs(models, auto_epsilon(models.centers), 0.5)
        kept = (pairs != 5).all(axis=1)
        pairs, vals = pairs[kept], vals[kept]
        m = len(centers)
        degrees = np.bincount(pairs.ravel(), np.repeat(vals, 2), minlength=m)
        scale = 1.0 / np.sqrt(np.where(degrees > 0, degrees, 1.0))
        self.assert_mirrors_round_apart(pairs, vals, scale)
        got = cluster._sorted_csr(m, pairs, vals, scale)
        assert got.indptr[5] == got.indptr[6]
        self.assert_same_arrays(got, scaled_coo_csr(m, pairs, vals, scale))

    def test_pairs_with_diagonal_entries(self):
        # njw_partition's upper triangle holds the diagonal, which has no mirror
        rng = np.random.default_rng(3)
        m = 40
        pairs = np.argwhere(np.triu(rng.random((m, m)) < 0.3))
        pairs = pairs[rng.permutation(len(pairs))]
        vals = rng.random(len(pairs))
        scale = rng.uniform(0.1, 10.0, size=m)
        assert not (pairs[:, 0] != pairs[:, 1]).all()
        self.assert_mirrors_round_apart(pairs, vals, scale)
        self.assert_same_arrays(cluster._sorted_csr(m, pairs, vals, scale),
                                scaled_coo_csr(m, pairs, vals, scale))

    @pytest.mark.parametrize("top", [10**6, 2**55])
    def test_argsort_of_distinct_keys(self, top):
        # keys that leave room for their indices take the packed sort; the
        # others fall back to np.argsort
        key = np.random.default_rng(4).choice(top, size=5000, replace=False)
        got, order = cluster._argsort_distinct(key.copy())
        np.testing.assert_array_equal(order, np.argsort(key))
        np.testing.assert_array_equal(got, np.sort(key))


class TestCenterPartition:
    """alg4's spectral step: components, the deflated sparse solve, the
    dense path and isolated centers."""

    @staticmethod
    def cases(rng):
        """(w, k, c) on at least 256 nodes with c < k components."""
        segments = generate(DatasetSpec("two_segments", n_per_cluster=2000, tau=0.01, seed=1))
        return [(zero_diagonal(_random_block_affinity(rng, 400, 2)), 2, 1),
                (zero_diagonal(_random_block_affinity(rng, 400, 3)), 3, 1),
                (zero_diagonal(scipy.linalg.block_diag(_random_block_affinity(rng, 200, 2),
                                                       _random_block_affinity(rng, 150, 1))),
                 3, 2),
                (center_affinity(segments, 0.012, 3), 2, 1)]

    def test_sparse_and_dense_solves_give_identical_labels(self, monkeypatch):
        cases = self.cases(np.random.default_rng(12))
        calls = spies(monkeypatch)
        got = {}
        for branch, size in (("sparse", cluster._SPARSE_MIN), ("dense", math.inf)):
            monkeypatch.setattr(cluster, "_SPARSE_MIN", size)
            got[branch] = [partition(w, k, 40 + k) for w, k, _ in cases]
        assert len(calls["eigsh"]) == len(calls["eigh"]) == len(cases)
        for (w, k, c), (sparse_labels, sparse_info), (dense_labels, dense_info) in zip(
                cases, got["sparse"], got["dense"]):
            assert w.shape[0] >= 256 and sparse_info["n_components"] == c
            np.testing.assert_array_equal(sparse_labels, dense_labels)
            assert_same_spectrum(sparse_info, dense_info)
            assert sparse_info["eigenvalues"][:c] == [1.0] * c
            assert len(sparse_info["eigenvalues"]) == k + 1

    def test_components_are_the_clusters(self, monkeypatch):
        rng = np.random.default_rng(13)
        blocks = [_random_block_affinity(rng, n, 1) for n in (5, 300, 9)]
        cases = [(alg4_center_graph(), 2), (zero_diagonal(scipy.linalg.block_diag(*blocks)), 3)]
        want = [dense_njw(w, k, 0) for w, k in cases]
        calls = spies(monkeypatch)
        for (w, k), labels in zip(cases, want):
            got, info = partition(w, k, 0)
            np.testing.assert_array_equal(got, labels)
            assert info["n_components"] == k
            assert info["eigenvalues"] is info["eigengap"] is info["kmeans_inertia"] is None
        assert calls == {"eigh": [], "eigsh": []}

    def test_more_components_than_clusters_reach_njw_partition(self, monkeypatch):
        rng = np.random.default_rng(14)
        w = zero_diagonal(scipy.linalg.block_diag(
            *[_random_block_affinity(rng, n, 1) for n in (100, 120, 140)]))
        want = njw_partition(w, 2, np.random.default_rng(3))
        calls = spies(monkeypatch)
        got, info = partition(w, 2, 3)
        assert calls == {"eigh": [(360, 360)], "eigsh": []}
        np.testing.assert_array_equal(got, want.assignments)
        assert info["n_components"] == 3 and info["eigenvalues"] == want.info["eigenvalues"]

    @pytest.mark.parametrize("k, extra", [(2, 6), (3, 6), (2, 10**6)])
    def test_complete_graph_eigenvalues(self, k, extra, monkeypatch):
        # every eigenvalue but the top one is -1/299, below the deflated 0
        # of the unshifted operator; ARPACK is asked for at most 299 pairs
        w = np.ones((300, 300))
        monkeypatch.setattr(cluster, "_LANCZOS_EXTRA", extra)
        calls = spies(monkeypatch)
        _, info = partition(zero_diagonal(w), k, 0)
        assert len(calls["eigsh"]) == 1
        np.fill_diagonal(w, 0.0)
        want = np.linalg.eigvalsh(normalized(w))[::-1][:k + 1]
        np.testing.assert_allclose(info["eigenvalues"], want, rtol=0, atol=1e-12)

    def test_arpack_failure_falls_back_to_njw_partition(self, monkeypatch):
        # the fallback is njw_partition's dense path
        cases = self.cases(np.random.default_rng(15))
        with monkeypatch.context() as m:
            m.setattr(cluster, "_SPARSE_MIN", math.inf)
            want = [njw_partition(w, k, np.random.default_rng(7)) for w, k, _ in cases]

        def no_convergence(*args, **kwargs):
            raise ArpackNoConvergence("no convergence", np.empty(0), np.empty((0, 0)))

        monkeypatch.setattr(cluster, "eigsh", no_convergence)
        calls = spies(monkeypatch)
        for (w, k, _), lab in zip(cases, want):
            got, info = partition(w, k, 7)
            np.testing.assert_array_equal(got, lab.assignments)
            assert_same_spectrum(info, lab.info)
        assert len(calls["eigsh"]) == len(calls["eigh"]) == len(cases)

    def test_njw_partition_matches_center_partition(self):
        # the public entry point and alg4's spectral step share one core
        cases = [(w, k, 40 + k) for w, k, _ in self.cases(np.random.default_rng(16))]
        cases += criterion6_affinities()
        for w, k, seed in cases:
            lab = njw_partition(w, k, np.random.default_rng(seed))
            labels, info = partition(sparse.coo_array(w), k, seed)
            np.testing.assert_array_equal(labels, lab.assignments)
            assert_same_spectrum(info, lab.info)

    def test_isolated_centers_join_nearest_linked_center(self):
        # centers 0-2 and 4-6 are two linked triangles on a line; 3 and 7
        # have no stored pair, 3 lies nearer to 4 and 7 nearer to 2
        edges = [(0, 1), (1, 2), (0, 2), (4, 5), (5, 6), (4, 6)]
        i, j = np.array(edges).T
        w = sparse.coo_array((np.ones(12), (np.r_[i, j], np.r_[j, i])), shape=(8, 8))
        y = np.array([[0.0], [1.0], [2.0], [3.6], [4.0], [5.0], [6.0], [2.5]])
        labels, info = partition(w, 2, 0, y)
        np.testing.assert_array_equal(labels, [1, 1, 1, 2, 2, 2, 2, 1])
        assert (info["n_isolated"], info["n_components"], info["n_edges"]) == (2, 2, 6)

    def test_too_few_linked_centers(self):
        w = sparse.coo_array(([1.0, 1.0], ([0, 1], [1, 0])), shape=(4, 4))
        assert partition(w, 2, 0)[1]["n_isolated"] == 2
        with pytest.raises(TooFewCenters):
            partition(w, 3, 0)


THEOREM1_PARAMS = ScaleParams(r=0.05, eps=0.25, eta=0.12)
# tau > 0 and a tight eta: alg2 removes a band of about 200 of the 1000
# points and finds 4 components, alg3 finds 3
NOISY_PARAMS = ScaleParams(r=0.12, eps=0.2, eta=0.2)


def point_models(cloud, r, **mode):
    """``batch_local_models`` over the closed r-balls of every point, from
    the ball queries: alg2 and alg3 read the same balls from their r-pairs."""
    return ball_models(cloud, np.arange(cloud.n), r, **mode)


def brute_force_edges(coords, stack, dead, eps, threshold, norm):
    """Every pair i < j of points within eps, neither of them ``dead``,
    whose gap in ``stack`` is within ``threshold``; no tree."""
    i, j = np.triu_indices(len(coords), k=1)
    diff = coords[i] - coords[j]
    near = (diff * diff).sum(axis=1) <= eps * eps
    pairs = np.column_stack([i[near], j[near]])
    pairs = pairs[~dead[pairs].any(axis=1)]
    return pairs[pairwise_diff_norms(stack, pairs, norm) <= threshold]


def filter_after_edge_test_alg2(cloud, params, norm):
    """alg2 in its former order: the edge test on every non-degenerate
    pair, then the edges that touch the removed band are dropped, and
    SciPy finds the survivors' components.  Returns the labels, the
    removed points, the cluster count and the edges left."""
    models = point_models(cloud, params.r, d=1)
    threshold = params.eta * params.r**2
    edges = brute_force_edges(cloud.coords, models.covariance, models.degenerate,
                              params.eps, threshold, norm)
    pairs_r = pairs_within(cloud.coords, params.r)
    band = np.zeros(cloud.n, dtype=bool)
    band[pairs_r[pairwise_diff_norms(models.covariance, pairs_r, norm) > threshold]] = True
    edges = edges[~band[edges].any(axis=1)]
    graph = sparse.coo_array((np.ones(len(edges)), (edges[:, 0], edges[:, 1])),
                             shape=(cloud.n, cloud.n))
    ids = connected_components(graph, directed=False)[1]
    survivors, removed = np.flatnonzero(~band), np.flatnonzero(band)
    labels = np.zeros(cloud.n, dtype=int)
    labels[survivors], k = renumber_first_occurrence(ids[survivors])
    labels[removed] = assign_to_closest_survivor(cloud, removed, survivors, labels[survivors])
    return labels, removed, k, len(edges)


def masked_pairs_alg3(cloud, params, norm):
    """alg3 in its former formulation: every pair within eps from the tree
    over all points, with the pairs that touch a degenerate model masked
    out after the edge test, and SciPy's components.  Returns the labels,
    the cluster count, the edges kept and the number of masked pairs."""
    models = point_models(cloud, params.r, eta=params.eta)
    pairs = pairs_within(cloud.coords, params.eps)
    dead = models.degenerate[pairs].any(axis=1)
    keep = (pairwise_diff_norms(models.projection, pairs, norm) <= params.eta) & ~dead
    edges = pairs[keep]
    graph = sparse.coo_array((np.ones(len(edges)), (edges[:, 0], edges[:, 1])),
                             shape=(cloud.n, cloud.n))
    labels, k = renumber_first_occurrence(connected_components(graph, directed=False)[1])
    return labels, k, len(edges), int(dead.sum())


def with_degenerate_points(cloud, seed):
    """``cloud`` plus lone points and duplicated pairs that lie beyond r
    (NOISY_PARAMS) of every other point but within eps of the cloud: their
    balls hold one point or two identical ones, so their models are
    degenerate, and their pairs within eps touch a dead node."""
    rng = np.random.default_rng(seed)
    tree = build_index(cloud.coords)
    extra = []
    for x in cloud.coords[rng.permutation(cloud.n)[:200]]:
        step = rng.normal(size=2)
        p = x + 0.16 * step / np.linalg.norm(step)
        gap = tree.query(p)[0]
        if 0.13 < gap < 0.19 and all(math.dist(p, q) > 0.13 for q in extra):
            extra.append(p)
    extra = np.array(extra[:12])
    return PointCloud(np.vstack([cloud.coords, extra, extra[::2]]))


class TestAlgorithm2:
    def test_single_segment_one_component(self):
        cloud = single_segment_cloud()
        params = ScaleParams(r=0.1, eps=0.2, eta=1.0)
        lab = algorithm2_cov_components(cloud, params)
        assert lab.K_found == 1
        assert lab.removed.size == 0

    def test_parallel_segments_split_when_eps_below_gap(self):
        n = 500
        t = np.linspace(-1, 1, n)
        delta = 0.3
        coords = np.vstack([np.column_stack([t, np.zeros(n)]),
                            np.column_stack([t, np.full(n, delta)])])
        cloud = PointCloud(coords)
        params = ScaleParams(r=0.1, eps=0.2, eta=1.0)  # eps < delta
        lab = algorithm2_cov_components(cloud, params)
        assert lab.K_found == 2

    def test_right_angle_crossing(self):
        cloud = crossing_cloud(seed=3, n=4000)
        lab = algorithm2_cov_components(cloud, THEOREM1_PARAMS)
        assert lab.K_found == 2
        far = np.linalg.norm(cloud.coords, axis=1) > 3 * THEOREM1_PARAMS.r
        for cid in (1, 2):
            sel = far & (lab.assignments == cid)
            assert len(np.unique(cloud.labels[sel])) == 1

    def test_removal_rule_matches_brute_force(self):
        cloud = crossing_cloud(seed=5, n=400)
        params = ScaleParams(r=0.1, eps=0.3, eta=0.12)
        lab = algorithm2_cov_components(cloud, params)
        tree = build_index(cloud.coords)
        covs = ball_models(cloud, np.arange(cloud.n), params.r, d=1).covariance
        removed = set(lab.removed.tolist())
        for i in range(cloud.n):
            nbrs = balls(tree, cloud.coords[i][None], params.r)[1]
            nbrs = nbrs[nbrs != i]
            if nbrs.size == 0:
                assert i not in removed
                continue
            pairs = np.column_stack([np.full(nbrs.size, i), nbrs])
            gaps = pairwise_diff_norms(covs, pairs, "spectral")
            assert (i in removed) == bool((gaps > params.eta * params.r**2).any())

    def test_all_points_removed_before_any_eps_pair(self, monkeypatch):
        # a uniform cloud has no tangent: at eta = 1e-6 every point has an
        # r-neighbor whose covariance gap exceeds eta r^2, so the band is
        # the whole cloud and no eps-pair is queried
        cloud = PointCloud(np.random.default_rng(0).uniform(size=(400, 2)))
        calls = []
        original = aff.indicator_pairs
        monkeypatch.setattr(aff, "indicator_pairs",
                            lambda *a, **kw: calls.append(a) or original(*a, **kw))
        with pytest.raises(AllPointsRemoved):
            algorithm2_cov_components(cloud, ScaleParams(r=0.2, eps=0.3, eta=1e-6))
        assert calls == []

    @pytest.mark.parametrize("norm", ["spectral", "frobenius"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_filter_after_edge_test(self, seed, norm):
        cloud = crossing_cloud(seed=seed, n=1000, tau=0.01)
        lab = algorithm2_cov_components(cloud, NOISY_PARAMS, norm=norm)
        labels, removed, k, n_edges = filter_after_edge_test_alg2(cloud, NOISY_PARAMS, norm)
        assert removed.size > 0 and k >= 2
        np.testing.assert_array_equal(lab.removed, removed)
        np.testing.assert_array_equal(lab.assignments, labels)
        assert (lab.K_found, lab.info["n_edges"]) == (k, n_edges)


class TestAlgorithm3:
    def test_single_segment_one_component(self):
        cloud = single_segment_cloud()
        params = ScaleParams(r=0.1, eps=0.2, eta=0.5)
        lab = algorithm3_proj_components(cloud, params)
        assert lab.K_found == 1

    def test_right_angle_crossing_at_least_two_groups(self):
        cloud = crossing_cloud(seed=4, n=4000)
        lab = algorithm3_proj_components(cloud, THEOREM1_PARAMS)
        assert lab.K_found >= 2
        far = np.linalg.norm(cloud.coords, axis=1) > 3 * THEOREM1_PARAMS.r
        for cid in range(1, lab.K_found + 1):
            sel = far & (lab.assignments == cid)
            if sel.any():
                assert len(np.unique(cloud.labels[sel])) == 1

    def test_crossing_points_isolated_by_dim_inflation(self):
        # near the intersection est_dim inflates to 2, which disconnects
        # those points from every 1-dimensional neighborhood
        cloud = crossing_cloud(seed=6, n=4000)
        params = THEOREM1_PARAMS
        lab = algorithm3_proj_components(cloud, params)
        near = np.linalg.norm(cloud.coords, axis=1) < 0.3 * params.r
        if near.any():
            far = np.linalg.norm(cloud.coords, axis=1) > 3 * params.r
            far_ids = set(np.unique(lab.assignments[far]).tolist())
            near_ids = set(np.unique(lab.assignments[near]).tolist())
            assert not (far_ids & near_ids)

    def test_n_edges_matches_brute_force(self):
        cloud = crossing_cloud(seed=0, n=1000, tau=0.01)
        lab = algorithm3_proj_components(cloud, NOISY_PARAMS)
        models = point_models(cloud, NOISY_PARAMS.r, eta=NOISY_PARAMS.eta)
        edges = brute_force_edges(cloud.coords, models.projection, models.degenerate,
                                  NOISY_PARAMS.eps, NOISY_PARAMS.eta, "spectral")
        assert lab.info["n_edges"] == len(edges) > 0
        assert lab.K_found >= 2

    @pytest.mark.parametrize("norm", ["spectral", "frobenius"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_masked_full_pair_list(self, seed, norm):
        cloud = with_degenerate_points(crossing_cloud(seed=seed, n=1000, tau=0.01), seed)
        lab = algorithm3_proj_components(cloud, NOISY_PARAMS, norm=norm)
        labels, k, n_edges, n_masked = masked_pairs_alg3(cloud, NOISY_PARAMS, norm)
        assert n_masked > 0 and k >= 2
        np.testing.assert_array_equal(lab.assignments, labels)
        assert (lab.K_found, lab.info["n_edges"]) == (k, n_edges)

    def test_eta_must_be_below_one(self):
        cloud = single_segment_cloud(100)
        with pytest.raises(InvalidInput):
            algorithm3_proj_components(cloud, ScaleParams(r=0.1, eps=0.2, eta=1.5))


@pytest.mark.parametrize("run", [algorithm2_cov_components, algorithm3_proj_components])
def test_unknown_norm_rejected_before_any_work(run, monkeypatch):
    # four points 5 apart share no pair within eps, so no gap would ever
    # read the norm; the check comes before the first pair query
    cloud = PointCloud(np.column_stack([5.0 * np.arange(4), np.zeros(4)]))
    calls = []
    monkeypatch.setattr(cluster, "pairs_within", lambda *a: calls.append(a) or pairs_within(*a))
    with pytest.raises(InvalidInput, match="unknown norm mode 'bogus'"):
        run(cloud, ScaleParams(r=0.1, eps=0.2, eta=0.5), norm="bogus")
    assert calls == []


def full_copy_components(cloud, params, norm, alg):
    """alg2 (``alg=2``) or alg3 as they ran with full copies of the
    eps-pairs: the tree's pairs mapped through ``live`` by ``np.take`` into
    a second array, the kept edges gathered by ``np.compress`` into a
    third, and SciPy's components.  Returns the labels, the removed points
    (alg2), the cluster count, the edges kept and the pairs gapped."""
    n = cloud.n
    pairs_r = pairs_within(cloud.coords, params.r)
    mode = {"d": 1} if alg == 2 else {"eta": params.eta}
    models = point_models(cloud, params.r, **mode)
    band = np.zeros(n, dtype=bool)
    if alg == 2:
        stack, threshold = models.covariance, params.eta * params.r**2
        band[pairs_r[pairwise_diff_norms(stack, pairs_r, norm) > threshold].ravel()] = True
    else:
        stack, threshold = models.projection, params.eta
    live = np.flatnonzero(~(models.degenerate | band))
    pairs = np.take(live, pairs_within(cloud.coords[live], params.eps))
    edges = np.compress(pairwise_diff_norms(stack, pairs, norm) <= threshold, pairs, axis=0)
    graph = sparse.coo_array((np.ones(len(edges)), (edges[:, 0], edges[:, 1])), shape=(n, n))
    ids = connected_components(graph, directed=False)[1]
    survivors, removed = np.flatnonzero(~band), np.flatnonzero(band)
    labels = np.zeros(n, dtype=int)
    labels[survivors], k = renumber_first_occurrence(ids[survivors])
    if removed.size:
        labels[removed] = assign_to_closest_survivor(cloud, removed, survivors, labels[survivors])
    return labels, removed, k, len(edges), len(pairs)


class TestComponentsInPlace:
    """alg2 and alg3 map, compact and walk their one eps-pair array in
    place, a block at a time."""

    @pytest.mark.parametrize("block", [None, 97])
    @pytest.mark.parametrize("norm", ["spectral", "frobenius"])
    @pytest.mark.parametrize("alg", [2, 3])
    def test_matches_full_copy_path(self, alg, norm, block, monkeypatch):
        # tau > 0: alg2 removes a band and alg3 keeps part of the pairs;
        # several blocks of eps-pairs, or with 97-pair blocks thousands
        cloud = crossing_cloud(seed=2, n=2000, tau=0.01)
        labels, removed, k, n_edges, n_pairs = full_copy_components(cloud, NOISY_PARAMS,
                                                                    norm, alg)
        assert n_pairs > 2 * neighborhoods._PAIR_BLOCK and 0 < n_edges < n_pairs
        if block:
            monkeypatch.setattr(neighborhoods, "_PAIR_BLOCK", block)
        run = algorithm2_cov_components if alg == 2 else algorithm3_proj_components
        lab = run(cloud, NOISY_PARAMS, norm=norm)
        np.testing.assert_array_equal(lab.assignments, labels)
        assert (lab.K_found, lab.info["n_edges"]) == (k, n_edges)
        if alg == 2:
            assert removed.size > 0
            np.testing.assert_array_equal(lab.removed, removed)
        else:
            assert lab.removed is None

    @pytest.mark.parametrize("alg", [2, 3])
    def test_traced_peak_of_one_call(self, alg):
        # 2 x 2000 points, r = 0.05, eps = 0.2: about 880k eps-pairs of
        # 14 MB, which cKDTree allocates outside the traced allocator.  A
        # mapped and a kept copy of them read 38-43 MB here; what is left,
        # about 13.6 MB, is local PCA's temporaries and the balls they read
        cloud = crossing_cloud(seed=0, n=4000)
        params = ScaleParams(r=0.05, eps=0.2, eta=0.22)
        run = algorithm2_cov_components if alg == 2 else algorithm3_proj_components
        run(crossing_cloud(seed=1, n=200), params)
        tracemalloc.start()
        try:
            run(cloud, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20e6


class TestAlgorithm4:
    def test_pair_block_size_changes_nothing(self, monkeypatch):
        # alg4 (gauss) and the baseline on 2 x 1000 spheres: at least 256
        # centers in one component, so both reach eigsh; every pass over
        # the center pairs in blocks of 97, a short last one among them.
        # Local PCA sums each ball's run a block at a time, so a ball split
        # by a block edge rounds otherwise: it keeps its default block
        cloud = generate(DatasetSpec("two_spheres", n_per_cluster=1000, tau=0.0, seed=0))
        runs = (lambda rng: algorithm4_local_pca_spectral(cloud, 0.2, 2, 2, rng),
                lambda rng: njw_baseline(cloud, 0.2, 2, rng))
        default, fit = neighborhoods._PAIR_BLOCK, cluster.batch_local_models

        def fit_at_default_block(*args, **kwargs):
            with monkeypatch.context() as patch:
                patch.setattr(neighborhoods, "_PAIR_BLOCK", default)
                return fit(*args, **kwargs)

        monkeypatch.setattr(cluster, "batch_local_models", fit_at_default_block)

        def outputs():
            return [(lab.assignments.tolist(), repr(dict(lab.info, center_indices=None)),
                     lab.info["center_indices"].tolist())
                    for lab in (run(np.random.default_rng(0)) for run in runs)]

        solves = []
        real = cluster.eigsh
        monkeypatch.setattr(cluster, "eigsh", lambda *a, **kw: solves.append(1) or real(*a, **kw))
        want = outputs()
        assert len(solves) == 2 and want[0][2] and len(want[0][2]) >= 256
        monkeypatch.setattr(neighborhoods, "_PAIR_BLOCK", 97)
        assert outputs() == want

    def test_circle_single_cluster(self):
        t = np.linspace(0, 2 * math.pi, 500, endpoint=False)
        cloud = PointCloud(np.column_stack([np.cos(t), np.sin(t)]),
                           labels=np.ones(500, dtype=int))
        lab = algorithm4_local_pca_spectral(cloud, 0.2, 1, 1, np.random.default_rng(0))
        assert lab.K_found == 1
        assert misclustering_rate(lab, cloud.labels, 1) == 0.0

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_right_angle_rectangles(self, seed):
        cloud = crossing_cloud(seed=seed, n=2000, tau=0.01)
        lab = algorithm4_local_pca_spectral(cloud, 0.05, 2, 1,
                                            np.random.default_rng(seed + 100))
        rate = misclustering_rate(lab, cloud.labels, 2)
        assert rate < 0.10

    def test_rigid_motion_same_labels(self):
        # every ingredient is motion-invariant, so labels agree up to a
        # label permutation; ulp-level noise can flip only the genuinely
        # ambiguous centers right at the intersection
        r = 0.06
        cloud = crossing_cloud(seed=8, n=1200, tau=0.01)
        lab1 = algorithm4_local_pca_spectral(cloud, r, 2, 1,
                                             np.random.default_rng(17))
        theta = 0.7
        u = np.array([[math.cos(theta), -math.sin(theta)],
                      [math.sin(theta), math.cos(theta)]])
        moved = PointCloud(cloud.coords @ u.T + np.array([2.0, -5.0]),
                           labels=cloud.labels)
        lab2 = algorithm4_local_pca_spectral(moved, r, 2, 1,
                                             np.random.default_rng(17))
        a, b = lab1.assignments, lab2.assignments
        if (a != b).sum() > (a != (3 - b)).sum():
            b = 3 - b
        far = np.linalg.norm(cloud.coords, axis=1) > 2 * r
        np.testing.assert_array_equal(a[far], b[far])
        assert (a != b).mean() < 0.10

    def test_too_few_centers(self):
        cloud = PointCloud(np.array([[0.0, 0.0], [0.1, 0.0]]))
        with pytest.raises(TooFewCenters):
            algorithm4_local_pca_spectral(cloud, 5.0, 2, 1, np.random.default_rng(0))

    @pytest.mark.parametrize("run", [
        lambda cloud, rng: algorithm4_local_pca_spectral(cloud, 5.0, 0, 1, rng),
        lambda cloud, rng: algorithm4_local_pca_spectral(cloud, 5.0, 1, 1, rng,
                                                         affinity_kind="bogus"),
        lambda cloud, rng: njw_baseline(cloud, 5.0, 0, rng),
    ], ids=["k0", "bogus_kind", "baseline_k0"])
    def test_malformed_k_or_kind_rejected_before_packing(self, run, monkeypatch):
        # r = 5 packs one center, which would take every point
        monkeypatch.setattr(cluster, "subsample_centers",
                            lambda *a: pytest.fail("packed centers for a malformed call"))
        cloud = PointCloud(np.random.default_rng(0).uniform(size=(40, 2)))
        with pytest.raises(InvalidInput):
            run(cloud, np.random.default_rng(0))

    @pytest.mark.parametrize("kind, d, ell", [
        ("gauss", 3, 10), ("cov", 0, 10), ("proj", None, 10), ("gong", -1, 10),
        ("wang", 1, 0), ("gong", 1, 0),
    ])
    def test_malformed_d_or_ell_rejected_before_packing(self, kind, d, ell, monkeypatch):
        # d against the ambient dimension 2 (every kind but distance reads
        # it), ell for the kinds that read it; nothing is packed or fitted
        monkeypatch.setattr(cluster, "subsample_centers",
                            lambda *a: pytest.fail("packed centers for a malformed call"))
        monkeypatch.setattr(cluster, "batch_local_models",
                            lambda *a, **kw: pytest.fail("fitted local models"))
        cloud = PointCloud(np.random.default_rng(0).uniform(size=(200, 2)))
        with pytest.raises(InvalidInput):
            algorithm4_local_pca_spectral(cloud, 0.2, 2, d, np.random.default_rng(0),
                                          affinity_kind=kind, ell=ell)

    def test_info_contains_scales(self):
        cloud = crossing_cloud(seed=9, n=1000, tau=0.01)
        lab, info = algorithm4_local_pca_spectral(
            cloud, 0.06, 2, 1, np.random.default_rng(0), return_info=True)
        assert info["eps"] > 0 and info["eta"] > 0
        assert info["n_centers"] >= 2
        assert sum(info["cluster_sizes"]) == cloud.n

    @pytest.mark.parametrize("kind", ["gauss", "distance", "proj"])
    def test_info_counts_affinity_graph(self, kind):
        cloud = crossing_cloud(seed=9, n=1000, tau=0.01)
        lab = algorithm4_local_pca_spectral(cloud, 0.06, 2, 1, np.random.default_rng(0),
                                            eta=0.5, affinity_kind=kind)
        w = center_affinity(cloud, 0.06, 0, kind, eta=0.5).toarray()
        stored = w > 0
        linked = stored.any(axis=1)
        sub = w[np.ix_(linked, linked)]
        assert lab.info["n_edges"] == stored.sum() // 2 > 0
        assert lab.info["n_isolated"] == (~linked).sum()
        assert lab.info["n_components"] == connected_components(sub > 0, directed=False)[0]
        want = np.linalg.eigvalsh(normalized(sub))[:-4:-1]
        np.testing.assert_allclose(lab.info["eigenvalues"], want, rtol=0, atol=1e-12)

    def test_info_keys_do_not_depend_on_path(self):
        cloud = crossing_cloud(seed=9, n=1000, tau=0.01)
        one = PointCloud(np.array([[0.0, 0.0], [0.1, 0.0]]))
        base = njw_baseline(cloud, 0.06, 2, np.random.default_rng(0))
        components = algorithm4_local_pca_spectral(crossing_cloud(seed=4, n=600, tau=0.01),
                                                   0.1, 2, 1, np.random.default_rng(5))
        single = algorithm4_local_pca_spectral(one, 5.0, 1, 1, np.random.default_rng(0))
        assert base.info["eps"] > 0 and base.info["eta"] is None
        assert single.info["n_centers"] == 1 and single.info["cluster_sizes"] == [2]
        assert single.info["n_edges"] == 0 and single.info["n_components"] == 1
        assert single.info["n_isolated"] == 0
        assert len(base.info["eigenvalues"]) == 3 and base.info["kmeans_inertia"] >= 0
        assert components.info["n_components"] == 2
        for lab in (single, components):
            assert lab.info["eigenvalues"] is lab.info["eigengap"] is None
            assert lab.info["kmeans_inertia"] is None
        assert set(base.info) == set(components.info) == set(single.info) == {
            "eps", "eta", "n_centers", "center_indices", "n_edges", "n_components",
            "n_isolated", "eigenvalues", "eigengap", "kmeans_inertia", "cluster_sizes"}

    def test_wang_runs_no_scale_selection(self):
        # evenly spaced centers leave no pair strictly within the selected
        # eps, so an eta selection would fail; wang uses neither scale
        cloud = PointCloud(np.column_stack([np.arange(20.0), np.zeros(20)]))
        lab = algorithm4_local_pca_spectral(cloud, 1.5, 2, 1, np.random.default_rng(0),
                                            affinity_kind="wang", ell=3)
        assert lab.K_found == 2 and lab.assignments.shape == (20,)
        assert lab.info["eps"] is None and lab.info["eta"] is None

    def test_gong_selects_eps_only_for_eta(self, monkeypatch):
        # gong reads eps only through the eta selection: with eta given it
        # selects no eps and reports none, as wang does
        cloud = generate(DatasetSpec("two_segments", n_per_cluster=200, tau=0.01, seed=1))
        calls = []
        real = aff.auto_epsilon
        monkeypatch.setattr(aff, "auto_epsilon", lambda y: calls.append(len(y)) or real(y))
        given = algorithm4_local_pca_spectral(cloud, 0.1, 2, 1, np.random.default_rng(0),
                                              affinity_kind="gong", eta=0.5)
        assert calls == [] and given.info["eps"] is None and given.info["eta"] == 0.5
        selected = algorithm4_local_pca_spectral(cloud, 0.1, 2, 1, np.random.default_rng(0),
                                                 affinity_kind="gong")
        assert calls == [selected.info["n_centers"]]
        assert selected.info["eps"] == real(cloud.coords[selected.info["center_indices"]])
        assert selected.info["eta"] > 0

    @pytest.mark.parametrize("kind", ["gauss", "gong"])
    def test_tiny_eta_keeps_the_limit(self, kind, monkeypatch):
        # below about 1.5e-154 eta^2 underflows to 0; the tangent factor
        # must still be 1 where the gap is 0 and 0 elsewhere, with no 0/0
        # and no warning, so eta = 1e-170 stores the graph of eta = 1e-100
        cloud = generate(DatasetSpec("two_segments", n_per_cluster=200, tau=0.0, seed=1))
        graphs = []
        real = cluster._partition_centers
        monkeypatch.setattr(cluster, "_partition_centers",
                            lambda *args: graphs.append(args[:2]) or real(*args))
        for eta in (1e-100, 1e-170):
            algorithm4_local_pca_spectral(cloud, 0.1, 2, 1, np.random.default_rng(1),
                                          affinity_kind=kind, eta=eta)
        (small_pairs, small), (tiny_pairs, tiny) = graphs
        assert small.size > 0
        np.testing.assert_array_equal(tiny_pairs, small_pairs)
        np.testing.assert_array_equal(tiny, small)

    def test_baseline_cannot_resolve_crossing(self):
        # distance-only affinity merges the intersecting segments
        rates = []
        for seed in range(5):
            cloud = crossing_cloud(seed=seed, n=2000, tau=0.01)
            lab = njw_baseline(cloud, 0.05, 2, np.random.default_rng(seed))
            rates.append(misclustering_rate(lab, cloud.labels, 2))
        assert np.median(rates) > 0.2


def _alg4(cloud, **kw):
    return algorithm4_local_pca_spectral(cloud, 0.1, 2, 1, np.random.default_rng(0), **kw)


BAD_SCALE_CALLS = {
    "alg4_eps_nan": lambda c, m: _alg4(c, eps=math.nan),
    "alg4_eps_negative": lambda c, m: _alg4(c, eps=-1.0),
    "alg4_eta_nan": lambda c, m: _alg4(c, eta=math.nan),
    "alg4_gong_eta_nan": lambda c, m: _alg4(c, affinity_kind="gong", eta=math.nan),
    "alg4_wang_alpha_nan": lambda c, m: _alg4(c, affinity_kind="wang", alpha=math.nan),
    "baseline_eps_nan": lambda c, m: njw_baseline(c, 0.1, 2, np.random.default_rng(0),
                                                  eps=math.nan),
    "gauss_eps_nan": lambda c, m: aff.gaussian_product_affinity(m, math.nan, 0.5),
    "gauss_eta_nan": lambda c, m: aff.gaussian_product_affinity(m, 0.2, math.nan),
    "distance_eps_nan": lambda c, m: aff.distance_gaussian_affinity(m.centers, math.nan),
    "cov_eps_nan": lambda c, m: aff.cov_indicator_affinity(m, math.nan, 0.5, 0.1),
    "cov_r_inf": lambda c, m: aff.cov_indicator_affinity(m, 0.2, 0.5, math.inf),
    "proj_eta_nan": lambda c, m: aff.proj_indicator_affinity(m, 0.2, math.nan),
    "gong_eta_nan": lambda c, m: aff.gong_affinity(m, 3, math.nan),
    "wang_alpha_nan": lambda c, m: aff.wang_affinity(m, 3, math.nan),
}


@pytest.mark.parametrize("call", sorted(BAD_SCALE_CALLS))
def test_bad_scale_is_invalid_input(call):
    # a NaN scale passes a test of the form "<= 0"; past it, the pipelines
    # fail as if the input had no solution and the affinities are empty
    cloud = crossing_cloud(seed=1, n=400, tau=0.01)
    models = ball_models(cloud, np.arange(0, cloud.n, 10), 0.1, d=1)
    with pytest.raises(InvalidInput):
        BAD_SCALE_CALLS[call](cloud, models)
