import math

import numpy as np
import pytest

from conftest import random_orthonormal, random_symmetric
from mmcluster import linalg
from mmcluster.errors import EmptyNeighborhood, InvalidInput, ZeroCovariance
from mmcluster.local_pca import (
    batch_local_models,
    empirical_covariance,
    estimate_dim_thresholded,
    estimate_projection,
    local_covariance,
)
from mmcluster.neighborhoods import PointCloud, build_index


def segment_cloud(n, direction, lo=-1.0, hi=1.0, offset=None):
    """n points evenly spaced on a segment along `direction`."""
    direction = np.asarray(direction, float)
    direction = direction / np.linalg.norm(direction)
    t = np.linspace(lo, hi, n)
    pts = t[:, None] * direction[None, :]
    if offset is not None:
        pts = pts + np.asarray(offset, float)
    return PointCloud(pts)


class TestLocalCovariance:
    def test_single_neighbor_zero(self):
        cloud = PointCloud(np.array([[0.0, 0.0], [5.0, 5.0]]))
        c = local_covariance(cloud, build_index(cloud), np.array([0.0, 0.0]), 0.1)
        np.testing.assert_array_equal(c, np.zeros((2, 2)))

    def test_two_point_line(self):
        cloud = PointCloud(np.array([[0.0], [1.0]]))
        c = local_covariance(cloud, build_index(cloud), np.array([0.5]), 1.0)
        assert c[0, 0] == pytest.approx(0.25)

    def test_empty_neighborhood(self):
        cloud = PointCloud(np.array([[0.0, 0.0]]))
        with pytest.raises(EmptyNeighborhood):
            local_covariance(cloud, build_index(cloud), np.array([10.0, 10.0]), 0.5)

    def test_segment_interior_closed_form(self):
        # uniform sampling on a segment: covariance (r^2/3) vv^T within 2%
        rng = np.random.default_rng(0)
        v = np.array([math.cos(0.3), math.sin(0.3)])
        t = rng.uniform(-1, 1, size=100_000)
        cloud = PointCloud(t[:, None] * v[None, :])
        r = 0.3
        c = local_covariance(cloud, build_index(cloud), np.zeros(2), r)
        target = (r**2 / 3.0) * np.outer(v, v)
        assert linalg.spectral_norm(c - target) <= 0.02 * (r**2 / 3.0)

    def test_segment_endpoint_closed_form(self):
        # at the segment end the ball is one-sided: covariance (r^2/12) vv^T
        n = 100_000
        cloud = segment_cloud(n, [1.0, 0.0])
        r = 0.3
        c = local_covariance(cloud, build_index(cloud), np.array([1.0, 0.0]), r)
        target = (r**2 / 12.0) * np.diag([1.0, 0.0])
        assert linalg.spectral_norm(c - target) <= 0.02 * (r**2 / 12.0)

    def test_uniform_ball_lemma_quick(self):
        # covariance of the uniform distribution on a d-ball is r^2/(d+2) P_T
        rng = np.random.default_rng(1)
        d, ambient, r = 2, 4, 0.8
        basis = random_orthonormal(rng, ambient, d)
        u = rng.normal(size=(100_000, d))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        radii = r * rng.uniform(0, 1, size=100_000) ** (1 / d)
        pts = (u * radii[:, None]) @ basis.T
        c = empirical_covariance(pts)
        target = (r**2 / (d + 2)) * (basis @ basis.T)
        assert linalg.spectral_norm(c - target) <= 0.02 * r**2 / (d + 2)

    def test_translation_equivariance(self):
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(300, 3))
        shift = np.array([10.0, -4.0, 2.5])
        c0 = empirical_covariance(pts)
        c1 = empirical_covariance(pts + shift)
        assert linalg.spectral_norm(c0 - c1) <= 1e-12

    def test_rotation_equivariance(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(300, 3))
        u = random_orthonormal(rng, 3, 3)
        c0 = empirical_covariance(pts)
        c1 = empirical_covariance(pts @ u.T)
        assert linalg.spectral_norm(c1 - u @ c0 @ u.T) <= 1e-9


class TestEstimateProjection:
    def test_segment_covariance(self):
        c = (0.09 / 3.0) * np.diag([1.0, 0.0])
        np.testing.assert_allclose(estimate_projection(c, 1), np.diag([1.0, 0.0]), atol=1e-12)

    def test_identity_full(self):
        np.testing.assert_allclose(estimate_projection(np.eye(3), 3), np.eye(3), atol=1e-12)

    def test_full_rank_is_identity(self):
        c = random_symmetric(np.random.default_rng(1), 4)
        np.testing.assert_allclose(estimate_projection(c, 4), np.eye(4), atol=1e-10)

    @pytest.mark.parametrize("c, d", [
        (random_symmetric(np.random.default_rng(5), 6), 3),
        (np.diag([2.0, 1.0, 1.0]), 2),  # a tie at the cut still gives a rank-d projection
    ], ids=["random", "degenerate_spectrum"])
    def test_trace_and_idempotency(self, c, d):
        p = estimate_projection(c, d)
        assert np.trace(p) == pytest.approx(d, abs=1e-10)
        assert linalg.spectral_norm(p @ p - p) <= 1e-10

    def test_out_of_range(self):
        for d in (0, 4):
            with pytest.raises(InvalidInput):
                estimate_projection(np.eye(3), d)

    def test_tilted_segment(self):
        theta = math.pi / 4
        v = np.array([math.cos(theta), math.sin(theta)])
        c = (0.04 / 3.0) * np.outer(v, v)
        want = np.array([[0.5, 0.5], [0.5, 0.5]])
        np.testing.assert_allclose(estimate_projection(c, 1), want, atol=1e-12)


class TestEstimateDimThresholded:
    def test_arithmetic_example(self):
        est, proj = estimate_dim_thresholded(np.diag([1.0, 0.5, 0.01]), 0.09)
        assert est == 2
        np.testing.assert_allclose(proj, np.diag([1.0, 1.0, 0.0]), atol=1e-12)

    def test_isotropic(self):
        est, proj = estimate_dim_thresholded(np.diag([1.0, 1.0, 1.0]), 0.5)
        assert est == 3
        np.testing.assert_allclose(proj, np.eye(3), atol=1e-12)

    def test_strict_inequality_at_threshold(self):
        # eigenvalue exactly at sqrt(eta)*||C|| is not counted
        est, _ = estimate_dim_thresholded(np.diag([1.0, 0.5]), 0.25)
        assert est == 1

    def test_zero_matrix(self):
        with pytest.raises(ZeroCovariance):
            estimate_dim_thresholded(np.zeros((2, 2)), 0.1)

    def test_dim_inflation_at_crossing(self):
        # dense noiseless right-angle crossing: the covariance at the
        # intersection has two comparable eigenvalues, inflating est_dim
        n = 50_000
        t = np.linspace(-1, 1, n)
        seg1 = np.column_stack([t, np.zeros(n)])
        seg2 = np.column_stack([np.zeros(n), t])
        cloud = PointCloud(np.vstack([seg1, seg2]))
        c = local_covariance(cloud, build_index(cloud), np.zeros(2), 0.2)
        est, _ = estimate_dim_thresholded(c, 0.04)
        assert est == 2
        # while a point far from the crossing stays 1-dimensional
        c_far = local_covariance(cloud, build_index(cloud), np.array([0.6, 0.0]), 0.2)
        est_far, _ = estimate_dim_thresholded(c_far, 0.04)
        assert est_far == 1


class TestBatchLocalModels:
    def test_requires_exactly_one_mode(self):
        cloud = segment_cloud(50, [1.0, 0.0])
        index = build_index(cloud)
        with pytest.raises(InvalidInput):
            batch_local_models(cloud, index, np.arange(5), 0.2)
        with pytest.raises(InvalidInput):
            batch_local_models(cloud, index, np.arange(5), 0.2, d=1, eta=0.1)

    def test_negative_radius(self):
        cloud = segment_cloud(50, [1.0, 0.0])
        with pytest.raises(InvalidInput):
            batch_local_models(cloud, build_index(cloud), np.arange(5), -0.2, d=1)

    def test_degenerate_single_point(self):
        cloud = PointCloud(np.array([[0.0, 0.0], [10.0, 10.0]]))
        models = batch_local_models(cloud, build_index(cloud), np.array([0]), 0.5, d=1)
        assert len(models) == 1
        assert models.degenerate[0]
        assert models.neighbor_count[0] == 1
        np.testing.assert_array_equal(models.covariance[0], np.zeros((2, 2)))

    @pytest.mark.parametrize("ball", [
        [[0.0, 0.0, 0.0], [0.3, 0.1, -0.2]],
        [[0.1, 0.7, 0.3]] * 3,
    ], ids=["two_points", "duplicates"])
    def test_degenerate_rank_below_d(self, ball):
        # the covariance has rank 1 (or only rounding noise), so a rank-2
        # projection of it would be left to rounding
        coords = np.vstack([ball, [[5.0, 5.0, 5.0]]])
        theta = 1e-12
        rot = np.array([[math.cos(theta), -math.sin(theta), 0.0],
                        [math.sin(theta), math.cos(theta), 0.0],
                        [0.0, 0.0, 1.0]])
        projections = []
        for pts in (coords, coords @ rot.T):
            cloud = PointCloud(pts)
            m = batch_local_models(cloud, build_index(cloud), np.array([0]), 1.0, d=2)
            assert m.degenerate[0] and m.est_dim[0] == 0 and m.neighbor_count[0] == len(ball)
            projections.append(m.projection[0])
        np.testing.assert_array_equal(projections[0], projections[1])
        np.testing.assert_array_equal(projections[0], np.zeros((3, 3)))

    @pytest.mark.parametrize("mode", [{"d": 1}, {"eta": 0.1}], ids=["d1", "eta"])
    def test_duplicate_ball_is_degenerate(self, mode):
        # the mean of three copies of this point is not exact, so the
        # covariance holds rounding noise of about 1e-32
        coords = np.array([[0.1, 0.7, 0.3]] * 3 + [[5.0, 5.0, 5.0]])
        cloud = PointCloud(coords)
        m = batch_local_models(cloud, build_index(cloud), np.array([0]), 1.0, **mode)
        assert m.neighbor_count[0] == 3
        assert m.degenerate[0] and m.est_dim[0] == 0
        np.testing.assert_array_equal(m.projection[0], np.zeros((3, 3)))

    def test_batch_equals_per_center(self):
        rng = np.random.default_rng(4)
        cloud = PointCloud(rng.normal(size=(200, 2)))
        index = build_index(cloud)
        centers = np.array([3, 77, 140])
        models = batch_local_models(cloud, index, centers, 0.5, d=1)
        np.testing.assert_array_equal(models.centers, cloud.coords[centers])
        for k, c in enumerate(centers):
            cov = local_covariance(cloud, index, cloud.coords[c], 0.5)
            np.testing.assert_array_equal(models.covariance[k], cov)
            np.testing.assert_array_equal(models.projection[k], estimate_projection(cov, 1))

    @pytest.mark.parametrize("shift", [0.0, 1e3])
    def test_batch_matches_two_pass_reference(self, shift):
        # a one-pass second moment would lose about 1e-10 at a shift of 1e3
        rng = np.random.default_rng(5)
        cloud = PointCloud(rng.normal(size=(400, 3)) + shift)
        index = build_index(cloud)
        centers = np.arange(0, 400, 7)
        r, eta = 0.6, 0.1
        models = batch_local_models(cloud, index, centers, r, eta=eta)
        assert models.degenerate.sum() < len(models) // 2
        for k, c in enumerate(centers):
            nbrs = index.query(cloud.coords[c], r)
            assert models.neighbor_count[k] == nbrs.size
            want = empirical_covariance(cloud.coords[nbrs])
            if nbrs.size < 2:
                assert models.degenerate[k] and models.est_dim[k] == 0
                np.testing.assert_array_equal(models.covariance[k], want)
                continue
            assert np.abs(models.covariance[k] - want).max() <= 1e-12 * np.abs(want).max()
            w = np.linalg.eigvalsh(want)
            assert models.est_dim[k] == int((w > np.sqrt(eta) * w[-1]).sum())

    def test_model_invariants(self):
        rng = np.random.default_rng(6)
        cloud = PointCloud(rng.uniform(-1, 1, size=(500, 2)))
        index = build_index(cloud)
        r = 0.3
        models = batch_local_models(cloud, index, np.arange(0, 500, 11), r, eta=0.2)
        for k in np.flatnonzero(~models.degenerate):
            cov, proj = models.covariance[k], models.projection[k]
            assert linalg.spectral_norm(cov) <= r**2 + 1e-12
            assert np.trace(proj) == pytest.approx(models.est_dim[k], abs=1e-9)
            assert linalg.spectral_norm(proj @ proj - proj) <= 1e-10
