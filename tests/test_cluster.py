import math

import numpy as np
import pytest

from mmcluster.affinity import ScaleParams, pairwise_diff_norms
from mmcluster.cluster import (
    algorithm2_cov_components,
    algorithm3_proj_components,
    algorithm4_local_pca_spectral,
    kmeans_pp,
    njw_baseline,
    njw_partition,
)
from mmcluster.datasets import DatasetSpec, generate
from mmcluster.errors import InvalidInput, IsolatedNode, TooFewCenters, TooFewRows
from mmcluster.evaluation import misclustering_rate
from mmcluster.local_pca import batch_local_models
from mmcluster.neighborhoods import PointCloud, build_index


def crossing_cloud(seed=0, n=2000, tau=0.0, angle=math.pi / 2):
    return generate(DatasetSpec("two_segments", n_per_cluster=n // 2,
                                tau=tau, angle=angle, seed=seed))


def single_segment_cloud(n=800):
    t = np.linspace(-1.0, 1.0, n)
    return PointCloud(np.column_stack([t, np.zeros(n)]),
                      labels=np.ones(n, dtype=int))


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

    def test_final_assignment_is_argmin(self):
        rng = np.random.default_rng(6)
        rows = rng.normal(size=(80, 3))
        res = kmeans_pp(rows, 4, np.random.default_rng(7))
        d = ((rows[:, None, :] - res.centroids[None, :, :]) ** 2).sum(axis=2)
        np.testing.assert_array_equal(res.assignments, d.argmin(axis=1))
        assert res.inertia == pytest.approx(d.min(axis=1).sum())


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

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(10)
        w = rng.uniform(0.1, 1.0, size=(12, 12))
        w = 0.5 * (w + w.T)
        a = njw_partition(w, 3, np.random.default_rng(4))
        b = njw_partition(w, 3, np.random.default_rng(4))
        np.testing.assert_array_equal(a.assignments, b.assignments)


THEOREM1_PARAMS = ScaleParams(r=0.05, eps=0.25, eta=0.12)


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
        index = build_index(cloud)
        covs = batch_local_models(cloud, index, np.arange(cloud.n), params.r, d=1).covariance
        removed = set(lab.removed.tolist())
        for i in range(cloud.n):
            nbrs = index.query(cloud.coords[i], params.r)
            nbrs = nbrs[nbrs != i]
            if nbrs.size == 0:
                assert i not in removed
                continue
            pairs = np.column_stack([np.full(nbrs.size, i), nbrs])
            gaps = pairwise_diff_norms(covs, pairs, "spectral")
            assert (i in removed) == bool((gaps > params.eta * params.r**2).any())


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

    def test_eta_must_be_below_one(self):
        cloud = single_segment_cloud(100)
        with pytest.raises(InvalidInput):
            algorithm3_proj_components(cloud, ScaleParams(r=0.1, eps=0.2, eta=1.5))


class TestAlgorithm4:
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

    def test_info_contains_scales(self):
        cloud = crossing_cloud(seed=9, n=1000, tau=0.01)
        lab, info = algorithm4_local_pca_spectral(
            cloud, 0.06, 2, 1, np.random.default_rng(0), return_info=True)
        assert info["eps"] > 0 and info["eta"] > 0
        assert info["n_centers"] >= 2
        assert sum(info["cluster_sizes"]) == cloud.n

    def test_info_keys_do_not_depend_on_path(self):
        cloud = crossing_cloud(seed=9, n=1000, tau=0.01)
        one = PointCloud(np.array([[0.0, 0.0], [0.1, 0.0]]))
        base = njw_baseline(cloud, 0.06, 2, np.random.default_rng(0))
        single = algorithm4_local_pca_spectral(one, 5.0, 1, 1, np.random.default_rng(0))
        assert base.info["eps"] > 0 and base.info["eta"] is None
        assert single.info["n_centers"] == 1 and single.info["cluster_sizes"] == [2]
        assert set(base.info) == set(single.info) == {
            "eps", "eta", "n_centers", "center_indices", "cluster_sizes"}

    def test_baseline_cannot_resolve_crossing(self):
        # distance-only affinity merges the intersecting segments
        rates = []
        for seed in range(5):
            cloud = crossing_cloud(seed=seed, n=2000, tau=0.01)
            lab = njw_baseline(cloud, 0.05, 2, np.random.default_rng(seed))
            rates.append(misclustering_rate(lab, cloud.labels, 2))
        assert np.median(rates) > 0.2
