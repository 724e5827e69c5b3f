import math

import numpy as np
import pytest

from conftest import ball_models, random_orthonormal, random_symmetric
from mmcluster import linalg
from mmcluster.errors import EmptyNeighborhood, InvalidInput, ZeroCovariance
from mmcluster.local_pca import (
    batch_local_models,
    empirical_covariance,
    estimate_dim_thresholded,
    estimate_projection,
    local_covariance,
)
from mmcluster.neighborhoods import PointCloud, balls, build_index, pairs_within


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
    def test_non_finite_x_rejected(self):
        cloud = PointCloud(np.array([[0.0, 0.0], [0.1, 0.0]]))
        for x in ([math.nan, 0.0], [0.0, math.inf]):
            with pytest.raises(InvalidInput):
                local_covariance(cloud, np.array(x), 0.5)

    def test_x_of_another_dimension_rejected(self):
        # unchecked, SciPy's tree raises ValueError on x's length
        cloud = PointCloud(np.random.default_rng(2).uniform(size=(50, 2)))
        for x in (np.zeros(3), np.zeros(1), np.zeros((1, 2))):
            with pytest.raises(InvalidInput):
                local_covariance(cloud, x, 0.5)

    def test_single_neighbor_zero(self):
        cloud = PointCloud(np.array([[0.0, 0.0], [5.0, 5.0]]))
        c = local_covariance(cloud, np.array([0.0, 0.0]), 0.1)
        np.testing.assert_array_equal(c, np.zeros((2, 2)))

    def test_two_point_line(self):
        cloud = PointCloud(np.array([[0.0], [1.0]]))
        c = local_covariance(cloud, np.array([0.5]), 1.0)
        assert c[0, 0] == pytest.approx(0.25)

    def test_empty_neighborhood(self):
        cloud = PointCloud(np.array([[0.0, 0.0]]))
        with pytest.raises(EmptyNeighborhood):
            local_covariance(cloud, np.array([10.0, 10.0]), 0.5)

    def test_segment_interior_closed_form(self):
        # uniform sampling on a segment: covariance (r^2/3) vv^T within 2%
        rng = np.random.default_rng(0)
        v = np.array([math.cos(0.3), math.sin(0.3)])
        t = rng.uniform(-1, 1, size=100_000)
        cloud = PointCloud(t[:, None] * v[None, :])
        r = 0.3
        c = local_covariance(cloud, np.zeros(2), r)
        target = (r**2 / 3.0) * np.outer(v, v)
        assert linalg.spectral_norm(c - target) <= 0.02 * (r**2 / 3.0)

    def test_segment_endpoint_closed_form(self):
        # at the segment end the ball is one-sided: covariance (r^2/12) vv^T
        n = 100_000
        cloud = segment_cloud(n, [1.0, 0.0])
        r = 0.3
        c = local_covariance(cloud, np.array([1.0, 0.0]), r)
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
        c = local_covariance(cloud, np.zeros(2), 0.2)
        est, _ = estimate_dim_thresholded(c, 0.04)
        assert est == 2
        # while a point far from the crossing stays 1-dimensional
        c_far = local_covariance(cloud, np.array([0.6, 0.0]), 0.2)
        est_far, _ = estimate_dim_thresholded(c_far, 0.04)
        assert est_far == 1


class TestBatchLocalModels:
    def test_requires_exactly_one_mode(self):
        cloud = segment_cloud(50, [1.0, 0.0])
        with pytest.raises(InvalidInput):
            ball_models(cloud, np.arange(5), 0.2)
        with pytest.raises(InvalidInput):
            ball_models(cloud, np.arange(5), 0.2, d=1, eta=0.1)

    def test_one_nonempty_neighborhood_per_center(self):
        # reduceat would turn an empty segment into a wrong covariance
        cloud = segment_cloud(50, [1.0, 0.0])
        y = cloud.coords[:3]
        counts, members = balls(build_index(cloud.coords), y, 0.2)
        for bad in ((y[:2], counts, members),
                    (y, np.array([counts[0], 0, counts[1] + counts[2]]), members),
                    (y[:0], counts[:0], members[:0])):
            with pytest.raises(InvalidInput):
                batch_local_models(cloud, bad[0], bad[1:], d=1)

    def test_members_must_be_counts_sum_indices_into_the_cloud(self):
        # unchecked, members past counts.sum() are ignored (the first case
        # gives a zero covariance), and -1 reads the last point: the ball
        # {0, -1} gives 6.25, the covariance of points 0 and 3
        cloud = PointCloud(np.array([[0.0], [1.0], [2.0], [5.0]]))
        y = cloud.coords[:1]
        for counts, members in (([1], [0, 1, 2]), ([2], [0, -1]), ([2], [0, 4]),
                                ([3], [0, 1])):
            with pytest.raises(InvalidInput):
                batch_local_models(cloud, y, (np.array(counts), np.array(members)), d=1)
        ok = batch_local_models(cloud, y, (np.array([2]), np.array([0, 3])), d=1)
        assert ok.covariance[0, 0, 0] == 6.25

    def test_degenerate_single_point(self):
        cloud = PointCloud(np.array([[0.0, 0.0], [10.0, 10.0]]))
        models = ball_models(cloud, np.array([0]), 0.5, d=1)
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
            m = ball_models(cloud, np.array([0]), 1.0, d=2)
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
        m = ball_models(cloud, np.array([0]), 1.0, **mode)
        assert m.neighbor_count[0] == 3
        assert m.degenerate[0] and m.est_dim[0] == 0
        np.testing.assert_array_equal(m.projection[0], np.zeros((3, 3)))

    def test_batch_equals_per_center(self):
        rng = np.random.default_rng(4)
        cloud = PointCloud(rng.normal(size=(200, 2)))
        centers = np.array([3, 77, 140])
        models = ball_models(cloud, centers, 0.5, d=1)
        np.testing.assert_array_equal(models.centers, cloud.coords[centers])
        for k, c in enumerate(centers):
            cov = local_covariance(cloud, cloud.coords[c], 0.5)
            np.testing.assert_array_equal(models.covariance[k], cov)
            np.testing.assert_array_equal(models.projection[k], estimate_projection(cov, 1))

    @pytest.mark.parametrize("mode", [{"d": 1}, {"d": 2}, {"eta": 0.1}],
                             ids=["d1", "d2", "eta"])
    @pytest.mark.parametrize("kind", ["random", "lattice", "duplicates"])
    def test_every_point_from_pairs_equals_ball_queries(self, mode, kind):
        rng = np.random.default_rng(8)
        if kind == "random":
            coords, r = rng.normal(size=(300, 3)), 0.5
        elif kind == "lattice":
            grid = np.stack(np.meshgrid(*[np.arange(6.0)] * 3), axis=-1).reshape(-1, 3)
            coords, r = rng.permutation(grid), 1.0
        else:
            coords, r = np.repeat(rng.uniform(size=(40, 3)), 2, axis=0), 0.3
        cloud = PointCloud(coords)
        want = ball_models(cloud, np.arange(cloud.n), r, **mode)
        got = batch_local_models(cloud, cloud.coords, pairs_within(cloud.coords, r), **mode)
        for field in ("centers", "neighbor_count", "est_dim", "degenerate"):
            np.testing.assert_array_equal(getattr(got, field), getattr(want, field))
        # the two producers sum offsets from other points of a ball, in
        # other orders, so the covariances agree to rounding only, and each
        # projection to that over the gap at its cut (Davis & Kahan 1970);
        # where the gap is 0, as on the lattice, no projection is determined
        change = np.abs(got.covariance - want.covariance).max()
        assert change <= 1e-12 * np.abs(want.covariance).max()
        vals = np.pad(np.linalg.eigvalsh(want.covariance), ((0, 0), (1, 0)))
        rank = np.maximum(want.est_dim, 1)
        rows = np.arange(cloud.n)
        gap = vals[rows, -rank] - vals[rows, -rank - 1]
        ok = ~want.degenerate & (gap > 0)
        assert ok.any()
        moved = np.abs(got.projection - want.projection).max(axis=(1, 2))
        assert (moved[ok] <= 4 * change / gap[ok] + 1e-13).all()
        if kind == "duplicates":
            assert want.degenerate.any()

    @pytest.mark.parametrize("shift", [0.0, 1e3])
    def test_batch_matches_two_pass_reference(self, shift):
        # a one-pass second moment would lose about 1e-10 at a shift of 1e3
        rng = np.random.default_rng(5)
        cloud = PointCloud(rng.normal(size=(400, 3)) + shift)
        tree = build_index(cloud.coords)
        centers = np.arange(0, 400, 7)
        r, eta = 0.6, 0.1
        models = ball_models(cloud, centers, r, eta=eta)
        assert models.degenerate.sum() < len(models) // 2
        for k, c in enumerate(centers):
            nbrs = balls(tree, cloud.coords[c][None], r)[1]
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
        r = 0.3
        models = ball_models(cloud, np.arange(0, 500, 11), r, eta=0.2)
        for k in np.flatnonzero(~models.degenerate):
            cov, proj = models.covariance[k], models.projection[k]
            assert linalg.spectral_norm(cov) <= r**2 + 1e-12
            assert np.trace(proj) == pytest.approx(models.est_dim[k], abs=1e-9)
            assert linalg.spectral_norm(proj @ proj - proj) <= 1e-10


def kernel_cloud(kind, dim, rng):
    """(coords, y, r) of the covariance-kernel cases: y holds ball centers,
    some of them off the cloud's points."""
    if kind == "shifted":
        coords = rng.uniform(-1.0, 1.0, size=(300, dim)) + 1e6
        return coords, np.vstack([coords[::9], coords[1::9] + 0.05]), 0.6
    if kind == "identical":
        # groups of identical points, far apart
        sites = 10.0 * np.arange(6.0)[:, None] * np.ones(dim)
        coords = np.repeat(sites, 4, axis=0)
        return coords, np.vstack([sites, sites + 0.1]), 0.5
    if kind == "two_points":
        # balls of two distinct points each, far apart
        sites = 10.0 * np.arange(6.0)[:, None] * np.ones(dim)
        coords = np.vstack([sites, sites + rng.uniform(-0.1, 0.1, size=sites.shape)])
        return coords, np.vstack([sites, sites + 0.01]), 0.5
    raise ValueError(kind)


class TestCovarianceKernel:
    """Covariances summed over offsets from a point of each ball, against
    the two-pass covariance of each ball's points."""

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["shifted", "identical", "two_points"])
    def test_matches_empirical_covariance_of_each_ball(self, kind, dim):
        coords, y, r = kernel_cloud(kind, dim, np.random.default_rng(dim))
        cloud = PointCloud(coords)
        counts, members = balls(build_index(coords), y, r)
        d = 2 if kind == "two_points" and dim >= 2 else 1
        models = batch_local_models(cloud, y, (counts, members), d=d)
        np.testing.assert_array_equal(models.neighbor_count, counts)
        starts = np.cumsum(counts) - counts
        for k, (start, count) in enumerate(zip(starts, counts)):
            want = empirical_covariance(coords[members[start:start + count]])
            got = models.covariance[k]
            np.testing.assert_array_equal(got, got.T)
            if kind == "identical":
                # offsets from a point of the ball are all exactly 0
                np.testing.assert_array_equal(got, np.zeros((dim, dim)))
            else:
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        if kind == "identical" or kind == "two_points" and dim >= 2:
            # no covariance has d eigenvalues above rounding
            assert models.degenerate.all() and not models.est_dim.any()
            np.testing.assert_array_equal(models.projection, 0.0)
        else:
            assert not models.degenerate.any()

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_pair_sums_match_ball_sums_far_from_the_origin(self, dim):
        coords = np.random.default_rng(dim).uniform(-1.0, 1.0, size=(300, dim)) + 1e6
        cloud = PointCloud(coords)
        got = batch_local_models(cloud, coords, pairs_within(coords, 0.6), d=1).covariance
        want = ball_models(cloud, np.arange(cloud.n), 0.6, d=1).covariance
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_overflowing_sums_rejected(self, dim):
        # inside PointCloud's squared-distance limit, but the sums of 60
        # squared offsets of up to 6e153 overflow
        signs = np.random.default_rng(dim).choice([-1.0, 1.0], size=(60, dim))
        cloud = PointCloud(3e153 * signs)
        for neighborhoods in (pairs_within(cloud.coords, 1e155),
                              balls(build_index(cloud.coords), cloud.coords, 1e155)):
            with pytest.raises(InvalidInput):
                batch_local_models(cloud, cloud.coords, neighborhoods, d=1)
        with pytest.raises(InvalidInput):
            local_covariance(cloud, cloud.coords[0], 1e155)

    def test_malformed_pairs_rejected(self):
        cloud = segment_cloud(20, [1.0, 0.0])
        pairs = pairs_within(cloud.coords, 0.3)
        for y, bad in ((cloud.coords, pairs[:, :1]), (cloud.coords, pairs.ravel()),
                       (cloud.coords, np.vstack([pairs, [[0, 20]]])),
                       (cloud.coords, np.vstack([pairs, [[-1, 3]]])),
                       (cloud.coords[:5], pairs), (cloud.coords + 1.0, pairs)):
            with pytest.raises(InvalidInput):
                batch_local_models(cloud, y, bad, d=1)
