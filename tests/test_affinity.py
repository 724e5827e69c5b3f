import math

import numpy as np
import pytest

from conftest import random_orthonormal
from mmcluster import affinity as aff
from mmcluster import linalg
from mmcluster.errors import DimensionMismatch, NoPairsInRange, TooFewCenters
from mmcluster.local_pca import LocalModels, batch_local_models
from mmcluster.neighborhoods import PointCloud, build_index


def model_record(centers, covs=None, projs=None, degenerate=()):
    """A LocalModels record: missing matrices are zero, est_dim is the
    rounded trace of each projection, ``degenerate`` lists flagged rows."""
    centers = np.asarray(centers, dtype=float)
    n, dim = centers.shape
    covs = np.zeros((n, dim, dim)) if covs is None else np.asarray(covs, float)
    projs = np.zeros((n, dim, dim)) if projs is None else np.asarray(projs, float)
    flags = np.zeros(n, dtype=bool)
    flags[list(degenerate)] = True
    est = np.rint(np.trace(projs, axis1=1, axis2=2)).astype(int)
    return LocalModels(centers=centers, neighbor_count=np.full(n, 10), covariance=covs,
                       projection=projs, est_dim=est, degenerate=flags)


def line_proj(theta):
    v = np.array([math.cos(theta), math.sin(theta)])
    return np.outer(v, v)


class TestCovIndicator:
    def test_zero_diagonal_and_same_tangent(self):
        r = 0.3
        c = (r**2 / 3) * np.diag([1.0, 0.0])
        models = model_record([[0.0, 0.0], [0.1, 0.0]], covs=[c, c])
        w = aff.cov_indicator_affinity(models, eps=0.5, eta=0.1, r=r)
        assert w[0, 0] == 0.0 and w[1, 1] == 0.0
        assert w[0, 1] == 1.0 and w[1, 0] == 1.0

    def test_perpendicular_crossing_disconnects_frobenius(self):
        # ||C_1 - C_2||_F = sqrt(2) r^2 / 3 for perpendicular unit tangents
        r = 0.3
        c1 = (r**2 / 3) * np.diag([1.0, 0.0])
        c2 = (r**2 / 3) * np.diag([0.0, 1.0])
        models = model_record([[0.0, 0.0], [0.1, 0.1]], covs=[c1, c2])
        eta = 0.4  # below sqrt(2)/3 of nothing: threshold eta*r^2 < gap
        w = aff.cov_indicator_affinity(models, eps=1.0, eta=eta, r=r, norm="frobenius")
        assert w[0, 1] == 0.0
        gap = linalg.frobenius_norm(c1 - c2)
        assert gap == pytest.approx(math.sqrt(2) * r**2 / 3)
        assert gap > eta * r**2

    def test_degenerate_disconnected(self):
        models = model_record([[0.0, 0.0], [0.1, 0.0]], degenerate=[0])
        w = aff.cov_indicator_affinity(models, eps=1.0, eta=10.0, r=1.0)
        assert w.sum() == 0.0


class TestProjIndicator:
    def test_identical_projections_connect(self):
        p = line_proj(0.0)
        models = model_record([[0.0, 0.0], [0.2, 0.0]], projs=[p, p])
        w = aff.proj_indicator_affinity(models, eps=0.5, eta=0.3)
        assert w[0, 1] == 1.0

    def test_dim_mismatch_disconnects(self):
        models = model_record([[0.0, 0.0], [0.2, 0.0]], projs=[line_proj(0.0), np.eye(2)])
        w = aff.proj_indicator_affinity(models, eps=0.5, eta=0.5)
        assert w[0, 1] == 0.0

    def test_perpendicular_tangents_disconnect(self):
        models = model_record([[0.0, 0.0], [0.2, 0.0]],
                              projs=[line_proj(0.0), line_proj(math.pi / 2)])
        w = aff.proj_indicator_affinity(models, eps=0.5, eta=0.9)
        assert w[0, 1] == 0.0


class TestGaussianProduct:
    def test_coincident_is_one(self):
        p = line_proj(0.3)
        models = model_record([[1.0, 1.0], [1.0, 1.0]], projs=[p, p])
        w = aff.gaussian_product_affinity(models, eps=0.5, eta=0.5)
        np.testing.assert_allclose(w, np.ones((2, 2)))

    def test_distance_factor(self):
        p = line_proj(0.0)
        models = model_record([[0.0, 0.0], [0.7, 0.0]], projs=[p, p])
        w = aff.gaussian_product_affinity(models, eps=0.7, eta=0.5)
        assert w[0, 1] == pytest.approx(math.exp(-1.0))

    def test_both_factors(self):
        eta = 0.4
        models = model_record([[0.0, 0.0], [0.5, 0.0]],
                              projs=[line_proj(0.0), line_proj(math.pi / 2)])
        w = aff.gaussian_product_affinity(models, eps=0.5, eta=eta)
        assert w[0, 1] == pytest.approx(math.exp(-1.0) * math.exp(-1.0 / eta**2))

    def test_bounded_unit_diagonal(self):
        rng = np.random.default_rng(0)
        centers, projs = zip(*[(rng.normal(size=2), line_proj(rng.uniform(0, math.pi)))
                               for _ in range(20)])
        models = model_record(centers, projs=projs)
        w = aff.gaussian_product_affinity(models, eps=1.0, eta=0.5)
        assert np.allclose(w, w.T)
        assert (w > 0).all() and (w <= 1.0).all()
        np.testing.assert_allclose(np.diag(w), 1.0)


class TestWang:
    def test_identical_tangents(self):
        p = line_proj(0.2)
        models = model_record([[0.0, 0.0], [1.0, 0.0]], projs=[p, p])
        w = aff.wang_affinity(models, ell=1, alpha=2.0)
        assert w[0, 1] == pytest.approx(1.0)

    def test_orthogonal_tangents(self):
        models = model_record([[0.0, 0.0], [1.0, 0.0]],
                              projs=[line_proj(0.0), line_proj(math.pi / 2)])
        w = aff.wang_affinity(models, ell=1, alpha=2.0)
        assert w[0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_two_planes_hand_value(self):
        # planes sharing one direction with the second at pi/6: cosine
        # product cos(pi/6) * cos(0), squared by alpha=2 gives 3/4
        theta = math.pi / 6
        u1 = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        u2 = np.array([[1.0, 0.0],
                       [0.0, math.cos(theta)],
                       [0.0, math.sin(theta)]])
        models = model_record([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]],
                              projs=[u1 @ u1.T, u2 @ u2.T])
        w = aff.wang_affinity(models, ell=1, alpha=2.0)
        assert w[0, 1] == pytest.approx(math.cos(theta) ** 2, abs=1e-12)

    def test_dimension_mismatch(self):
        models = model_record([[0.0, 0.0], [1.0, 0.0]], projs=[line_proj(0.0), np.eye(2)])
        with pytest.raises(DimensionMismatch):
            aff.wang_affinity(models, ell=1, alpha=2.0)

    def test_non_neighbors_zero(self):
        p = line_proj(0.0)
        models = model_record([[0.0, 0.0], [0.1, 0.0], [5.0, 0.0]], projs=[p, p, p])
        w = aff.wang_affinity(models, ell=1, alpha=1.0)
        assert w[0, 2] == 0.0 and w[0, 1] == 1.0

    def test_wang_batched_bases_match_per_model(self):
        # oracle: top-d bases from one sign-fixed eigh per model
        rng = np.random.default_rng(8)
        ell, alpha, n = 4, 2.0, 80
        for ambient, d in ((2, 1), (3, 1), (3, 2)):
            cloud = PointCloud(rng.uniform(size=(n, ambient)))
            models = batch_local_models(cloud, build_index(cloud), np.arange(n), 0.6, d=d)
            assert not models.degenerate.any()
            w = aff.wang_affinity(models, ell=ell, alpha=alpha)
            adj, _ = aff._knn_adjacency(models.centers, ell)
            bases = [linalg.eigh(p).eigenvectors[:, :d] for p in models.projection]
            want = np.eye(n)
            for i, j in zip(*np.nonzero(adj)):
                want[i, j] = abs(np.linalg.det(bases[i].T @ bases[j])) ** alpha
            np.testing.assert_allclose(w, want, rtol=0, atol=1e-12)


class TestGong:
    def test_reduces_to_self_tuned_gaussian(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(8, 2))
        p = line_proj(0.7)
        models = model_record(pts, projs=[p] * len(pts))
        ell = 2
        w = aff.gong_affinity(models, ell=ell, eta=0.5)
        d = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
        eps_i = np.sort(d, axis=1)[:, ell]
        want = np.exp(-(d**2) / np.outer(eps_i, eps_i))
        np.fill_diagonal(want, 1.0)
        np.testing.assert_allclose(w, want, atol=1e-12)

    def test_hand_value(self):
        eta = math.pi / 4
        models = model_record([[0.0, 0.0], [1.0, 0.0]],
                              projs=[line_proj(0.0), line_proj(math.pi / 4)])
        w = aff.gong_affinity(models, ell=1, eta=eta)
        # distance^2 equals eps_i*eps_j, projection gap sin(pi/4)
        assert w[0, 1] == pytest.approx(math.exp(-1.0) * math.exp(-1.0), abs=1e-12)

    def test_knn_radii_match_brute_force(self):
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(100, 3))
        ell = 5
        _, eps_i = aff._knn_adjacency(pts, ell)
        d = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
        want = np.sort(d, axis=1)[:, ell]
        np.testing.assert_allclose(eps_i, want, atol=1e-12)


class TestAutoScales:
    def test_eps_two_centers(self):
        assert aff.auto_epsilon(np.array([[0.0], [1.0]])) == 1.0

    def test_eps_three_centers(self):
        assert aff.auto_epsilon(np.array([[0.0], [1.0], [3.0]])) == 2.0

    def test_eps_too_few(self):
        with pytest.raises(TooFewCenters):
            aff.auto_epsilon(np.array([[0.0]]))

    def test_eps_matches_brute_force_exactly(self):
        rng = np.random.default_rng(3)
        y = rng.normal(size=(200, 3))
        got = aff.auto_epsilon(y)
        best = -np.inf
        for i in range(200):
            nearest = np.inf
            for j in range(200):
                if i == j:
                    continue
                d = np.sqrt(((y[i] - y[j]) ** 2).sum())
                nearest = min(nearest, d)
            best = max(best, nearest)
        assert got == best

    def test_eta_identical_projections(self):
        p = line_proj(0.1)
        models = model_record([[0.0, 0.0], [0.1, 0.0], [0.2, 0.0]], projs=[p, p, p])
        assert aff.auto_eta(models, eps=1.0) == 0.0

    def test_eta_middle_statistic(self):
        models = model_record([[0.0, 0.0], [0.1, 0.0], [0.2, 0.0]],
                              projs=[line_proj(0.0), line_proj(0.0), line_proj(math.pi / 2)])
        # pair gaps {0, 1, 1}: lower-middle statistic is 1
        assert aff.auto_eta(models, eps=1.0) == pytest.approx(1.0)

    def test_eta_no_pairs(self):
        p = line_proj(0.0)
        models = model_record([[0.0, 0.0], [5.0, 0.0]], projs=[p, p])
        with pytest.raises(NoPairsInRange):
            aff.auto_eta(models, eps=1.0)

    def test_eta_matches_brute_force_exactly(self):
        rng = np.random.default_rng(4)
        pts = rng.normal(size=(40, 2))
        q = np.stack([line_proj(rng.uniform(0, math.pi)) for _ in pts])
        models = model_record(pts, projs=q)
        eps = 1.5
        got = aff.auto_eta(models, eps)
        vals = []
        for i in range(40):
            for j in range(i + 1, 40):
                if np.sqrt(((pts[i] - pts[j]) ** 2).sum()) < eps:
                    vals.append(linalg.spectral_norm(q[i] - q[j]))
        vals.sort()
        assert got == vals[(len(vals) - 1) // 2]


class TestInvariances:
    def _segment_models(self, coords, r):
        cloud = PointCloud(coords)
        index = build_index(cloud)
        return batch_local_models(cloud, index, np.arange(cloud.n), r, d=1)

    def test_rigid_motion_leaves_affinities_unchanged(self):
        rng = np.random.default_rng(5)
        t = rng.uniform(-1, 1, size=120)
        coords = np.column_stack([t, 0.2 * t**2])
        r, eps, eta = 0.3, 0.6, 0.4
        models = self._segment_models(coords, r)
        w_gauss = aff.gaussian_product_affinity(models, eps, eta)
        w_cov = aff.cov_indicator_affinity(models, eps, eta, r)

        u = random_orthonormal(rng, 2, 2)
        if np.linalg.det(u) < 0:
            u[:, 1] = -u[:, 1]
        moved = coords @ u.T + np.array([3.0, -7.0])
        models2 = self._segment_models(moved, r)
        w_gauss2 = aff.gaussian_product_affinity(models2, eps, eta)
        w_cov2 = aff.cov_indicator_affinity(models2, eps, eta, r)

        np.testing.assert_allclose(w_gauss, w_gauss2, atol=1e-9)
        np.testing.assert_array_equal(w_cov, w_cov2)

    def test_scaling_leaves_indicators_unchanged(self):
        rng = np.random.default_rng(6)
        t = rng.uniform(-1, 1, size=100)
        coords = np.column_stack([t, 0.3 * t**2])
        r, eps, eta, s = 0.3, 0.6, 0.4, 2.5
        models = self._segment_models(coords, r)
        w = aff.cov_indicator_affinity(models, eps, eta, r)
        models2 = self._segment_models(coords * s, r * s)
        w2 = aff.cov_indicator_affinity(models2, eps * s, eta, r * s)
        np.testing.assert_array_equal(w, w2)

    def test_affinities_symmetric_finite(self):
        rng = np.random.default_rng(7)
        coords = rng.normal(size=(60, 2))
        models = self._segment_models(coords, 2.0)
        for w in (
            aff.gaussian_product_affinity(models, 0.5, 0.5),
            aff.cov_indicator_affinity(models, 0.5, 0.5, 0.8),
            aff.proj_indicator_affinity(models, 0.5, 0.5),
            aff.wang_affinity(models, ell=3, alpha=2.0),
            aff.gong_affinity(models, ell=3, eta=0.5),
        ):
            assert np.isfinite(w).all()
            np.testing.assert_allclose(w, w.T, atol=1e-15)
