import math

import numpy as np
import pytest
from scipy import sparse

from conftest import ball_models, random_orthonormal, random_projection
from mmcluster import affinity as aff
from mmcluster import linalg, neighborhoods
from mmcluster.errors import DimensionMismatch, NoPairsInRange, TooFewCenters
from mmcluster.local_pca import LocalModels
from mmcluster.neighborhoods import PointCloud, balls, build_index, pairs_within


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


def dense(w):
    """Dense form of a sparse affinity; the sparse form stores no zeros."""
    assert sparse.issparse(w)
    assert (w.data > 0).all()
    return w.toarray()


def off_diagonal(n):
    return ~np.eye(n, dtype=bool)


def line_proj(theta):
    v = np.array([math.cos(theta), math.sin(theta)])
    return np.outer(v, v)


def reference_auto_epsilon(centers):
    """auto_epsilon as it ran with one ball per center: the tree's second
    distance widened by 1e-9 bounds each center's candidates, whose exact
    distances, the center's own excluded, give its nearest neighbor."""
    tree = build_index(centers)
    counts, members = balls(tree, centers, tree.query(centers, k=2)[0][:, 1] * (1 + 1e-9))
    owner = np.repeat(np.arange(centers.shape[0]), counts)
    diff = np.take(centers, owner, axis=0) - np.take(centers, members, axis=0)
    d = np.sqrt((diff ** 2).sum(axis=1))
    d[owner == members] = np.inf
    return float(np.minimum.reduceat(d, np.cumsum(counts) - counts).max())


class TestCovIndicator:
    def test_zero_diagonal_and_same_tangent(self):
        r = 0.3
        c = (r**2 / 3) * np.diag([1.0, 0.0])
        models = model_record([[0.0, 0.0], [0.1, 0.0]], covs=[c, c])
        w = dense(aff.cov_indicator_affinity(models, eps=0.5, eta=0.1, r=r))
        assert w[0, 0] == 0.0 and w[1, 1] == 0.0
        assert w[0, 1] == 1.0 and w[1, 0] == 1.0

    def test_perpendicular_crossing_disconnects_frobenius(self):
        # ||C_1 - C_2||_F = sqrt(2) r^2 / 3 for perpendicular unit tangents
        r = 0.3
        c1 = (r**2 / 3) * np.diag([1.0, 0.0])
        c2 = (r**2 / 3) * np.diag([0.0, 1.0])
        models = model_record([[0.0, 0.0], [0.1, 0.1]], covs=[c1, c2])
        eta = 0.4  # below sqrt(2)/3 of nothing: threshold eta*r^2 < gap
        # alg2's and alg3's edge test, the one that takes the Frobenius norm
        pairs, keep = aff.indicator_pairs(models.covariance, models.degenerate, models.centers,
                                          1.0, eta * r * r, "frobenius")
        assert pairs.tolist() == [[0, 1]] and keep.tolist() == [False]
        gap = linalg.frobenius_norm(c1 - c2)
        assert gap == pytest.approx(math.sqrt(2) * r**2 / 3)
        assert gap > eta * r**2

    def test_degenerate_disconnected(self):
        models = model_record([[0.0, 0.0], [0.1, 0.0]], degenerate=[0])
        w = dense(aff.cov_indicator_affinity(models, eps=1.0, eta=10.0, r=1.0))
        assert w.sum() == 0.0


class TestProjIndicator:
    def test_identical_projections_connect(self):
        p = line_proj(0.0)
        models = model_record([[0.0, 0.0], [0.2, 0.0]], projs=[p, p])
        w = dense(aff.proj_indicator_affinity(models, eps=0.5, eta=0.3))
        assert w[0, 1] == 1.0

    def test_dim_mismatch_disconnects(self):
        models = model_record([[0.0, 0.0], [0.2, 0.0]], projs=[line_proj(0.0), np.eye(2)])
        w = dense(aff.proj_indicator_affinity(models, eps=0.5, eta=0.5))
        assert w[0, 1] == 0.0

    def test_perpendicular_tangents_disconnect(self):
        models = model_record([[0.0, 0.0], [0.2, 0.0]],
                              projs=[line_proj(0.0), line_proj(math.pi / 2)])
        w = dense(aff.proj_indicator_affinity(models, eps=0.5, eta=0.9))
        assert w[0, 1] == 0.0


class TestGaussianProduct:
    def test_coincident_is_one(self):
        p = line_proj(0.3)
        models = model_record([[1.0, 1.0], [1.0, 1.0]], projs=[p, p])
        w = dense(aff.gaussian_product_affinity(models, eps=0.5, eta=0.5))
        np.testing.assert_array_equal(w, [[0.0, 1.0], [1.0, 0.0]])

    def test_distance_factor(self):
        p = line_proj(0.0)
        models = model_record([[0.0, 0.0], [0.7, 0.0]], projs=[p, p])
        w = dense(aff.gaussian_product_affinity(models, eps=0.7, eta=0.5))
        assert w[0, 1] == pytest.approx(math.exp(-1.0))

    def test_both_factors(self):
        eta = 0.4
        models = model_record([[0.0, 0.0], [0.5, 0.0]],
                              projs=[line_proj(0.0), line_proj(math.pi / 2)])
        w = dense(aff.gaussian_product_affinity(models, eps=0.5, eta=eta))
        assert w[0, 1] == pytest.approx(math.exp(-1.0) * math.exp(-1.0 / eta**2))

    def test_bounded_zero_diagonal(self):
        rng = np.random.default_rng(0)
        centers, projs = zip(*[(rng.normal(size=2), line_proj(rng.uniform(0, math.pi)))
                               for _ in range(20)])
        models = model_record(centers, projs=projs)
        w = dense(aff.gaussian_product_affinity(models, eps=1.0, eta=0.5))
        assert np.allclose(w, w.T)
        assert (w[off_diagonal(20)] > 0).all() and (w <= 1.0).all()
        np.testing.assert_array_equal(np.diag(w), 0.0)


class TestWang:
    def test_identical_tangents(self):
        p = line_proj(0.2)
        models = model_record([[0.0, 0.0], [1.0, 0.0]], projs=[p, p])
        w = dense(aff.wang_affinity(models, ell=1, alpha=2.0))
        assert w[0, 1] == pytest.approx(1.0)

    def test_orthogonal_tangents(self):
        models = model_record([[0.0, 0.0], [1.0, 0.0]],
                              projs=[line_proj(0.0), line_proj(math.pi / 2)])
        w = dense(aff.wang_affinity(models, ell=1, alpha=2.0))
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
        w = dense(aff.wang_affinity(models, ell=1, alpha=2.0))
        assert w[0, 1] == pytest.approx(math.cos(theta) ** 2, abs=1e-12)

    def test_dimension_mismatch(self):
        models = model_record([[0.0, 0.0], [1.0, 0.0]], projs=[line_proj(0.0), np.eye(2)])
        with pytest.raises(DimensionMismatch):
            aff.wang_affinity(models, ell=1, alpha=2.0)

    def test_non_neighbors_zero(self):
        p = line_proj(0.0)
        models = model_record([[0.0, 0.0], [0.1, 0.0], [5.0, 0.0]], projs=[p, p, p])
        w = dense(aff.wang_affinity(models, ell=1, alpha=1.0))
        assert w[0, 2] == 0.0 and w[0, 1] == 1.0

    def test_wang_batched_bases_match_per_model(self):
        # oracle: top-d bases from one eigh per model; |det| ignores their signs
        rng = np.random.default_rng(8)
        ell, alpha, n = 4, 2.0, 80
        for ambient, d in ((2, 1), (3, 1), (3, 2)):
            cloud = PointCloud(rng.uniform(size=(n, ambient)))
            models = ball_models(cloud, np.arange(n), 0.6, d=d)
            assert not models.degenerate.any()
            w = dense(aff.wang_affinity(models, ell=ell, alpha=alpha))
            pairs, _ = aff._knn_adjacency(models.centers, ell)
            bases = [np.linalg.eigh(p)[1][:, -d:] for p in models.projection]
            want = np.zeros((n, n))
            for i, j in pairs:
                want[i, j] = want[j, i] = abs(np.linalg.det(bases[i].T @ bases[j])) ** alpha
            np.testing.assert_allclose(w, want, rtol=0, atol=1e-12)


class TestGong:
    def test_reduces_to_self_tuned_gaussian(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(8, 2))
        p = line_proj(0.7)
        models = model_record(pts, projs=[p] * len(pts))
        ell = 2
        w = dense(aff.gong_affinity(models, ell=ell, eta=0.5))
        d = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
        eps_i = np.sort(d, axis=1)[:, ell]
        want = np.exp(-(d**2) / np.outer(eps_i, eps_i))
        np.fill_diagonal(want, 0.0)
        np.testing.assert_allclose(w, want, atol=1e-12)

    def test_hand_value(self):
        eta = math.pi / 4
        models = model_record([[0.0, 0.0], [1.0, 0.0]],
                              projs=[line_proj(0.0), line_proj(math.pi / 4)])
        w = dense(aff.gong_affinity(models, ell=1, eta=eta))
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


class TestPairGaps:
    """The pair-gap kernel and the indicator edges against the plain
    formulas over stack[i] - stack[j]."""

    @staticmethod
    def reference_norms(stack, pairs, norm):
        diffs = stack[pairs[:, 0]] - stack[pairs[:, 1]]
        if norm == "spectral":
            return linalg.spectral_norms(diffs)
        return np.sqrt((diffs * diffs).sum(axis=(-2, -1)))

    @pytest.mark.parametrize("norm", ["spectral", "frobenius"])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_gaps_bit_equal_to_reference(self, norm, dim):
        rng = np.random.default_rng(dim)
        n = 300
        stack = np.stack([random_projection(rng, dim, 1) for _ in range(n)])
        stack[::7] *= rng.uniform(1e-3, 1e3, size=(len(stack[::7]), 1, 1))
        # more pairs than one block of the kernel, in no particular order
        i, j = np.triu_indices(n, k=1)
        pairs = np.column_stack([i, j])[rng.permutation(i.size)]
        assert len(pairs) > neighborhoods._PAIR_BLOCK
        np.testing.assert_array_equal(aff.pairwise_diff_norms(stack, pairs, norm),
                                      self.reference_norms(stack, pairs, norm))
        assert aff.pairwise_diff_norms(stack, pairs[:0], norm).shape == (0,)

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_frobenius_gaps_from_packed_columns(self, dim):
        # covariance-like stacks over six decades, more pairs than a block
        rng = np.random.default_rng(10 + dim)
        a = rng.normal(size=(400, dim, dim)) * rng.uniform(1e-3, 1e3, size=(400, 1, 1))
        stack = a @ a.transpose(0, 2, 1)
        pairs = rng.integers(0, len(stack), size=(neighborhoods._PAIR_BLOCK + 999, 2))
        got = aff.pairwise_diff_norms(stack, pairs, "frobenius")
        diffs = stack[pairs[:, 0]] - stack[pairs[:, 1]]
        want = np.linalg.norm(diffs, axis=(1, 2))
        np.testing.assert_allclose(got, want, rtol=8 * np.finfo(float).eps, atol=0)
        # the gap of both ends' rows gathered whole, squared and summed
        # along the row, which the kernel replaced, bit for bit
        rows = np.square(diffs.reshape(len(pairs), -1))
        np.testing.assert_array_equal(got, np.sqrt(rows.sum(axis=1)))

    def test_sum_in_numpy_order(self):
        # a row of n <= 128 numbers summed by NumPy, against the arrays
        # summed in the written order: both regimes of its pairwise summation
        rng = np.random.default_rng(0)
        for n in range(1, 129):
            rows = rng.normal(size=(500, n)) * rng.uniform(1e-8, 1e8, size=(500, n))
            got = aff._sum_as_numpy([np.ascontiguousarray(col) for col in rows.T])
            np.testing.assert_array_equal(got, rows.sum(axis=1))

    @staticmethod
    def pair_set(pairs):
        """The pairs as a set of sorted rows; no pair may repeat."""
        rows = set(map(tuple, np.sort(pairs, axis=1).tolist()))
        assert len(rows) == len(pairs)
        return rows

    @pytest.mark.parametrize("flagged", [0, 1, 30])
    @pytest.mark.parametrize("norm", ["spectral", "frobenius"])
    def test_indicator_pairs_match_reference(self, flagged, norm):
        # the pairs within eps of the tree over every center, the dead
        # ones dropped: the same set, whatever their order
        rng = np.random.default_rng(flagged)
        models = TestSparseShape.random_models(rng, 200, 3, degenerate=False)
        models.degenerate[rng.permutation(200)[:flagged]] = True
        eps, threshold = 0.3, 0.8
        pairs, keep = aff.indicator_pairs(models.projection, models.degenerate,
                                          models.centers, eps, threshold, norm)
        want_pairs = pairs_within(models.centers, eps)
        want_pairs = want_pairs[~models.degenerate[want_pairs].any(axis=1)]
        assert (pairs[:, 0] < pairs[:, 1]).all()
        assert not models.degenerate[pairs].any()
        assert self.pair_set(pairs) == self.pair_set(want_pairs)
        want_keep = self.reference_norms(models.projection, pairs, norm) <= threshold
        np.testing.assert_array_equal(keep, want_keep)
        assert 0 < keep.sum() < keep.size

    @pytest.mark.parametrize("eps", [0.1, 0.1 * math.sqrt(2)])
    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_indicator_pairs_on_a_lattice(self, dim, eps):
        # grid step 0.1: the nearest (and for 0.1 sqrt(2) the diagonal)
        # neighbours lie at eps up to rounding, so the tree over the live
        # points must decide every pair at the boundary as the full tree does
        side = {1: 60, 2: 12, 3: 6, 4: 4}[dim]
        grid = np.stack(np.meshgrid(*[np.arange(side) * 0.1] * dim, indexing="ij"), -1)
        coords = grid.reshape(-1, dim)
        full = pairs_within(coords, eps)
        stack = np.zeros((len(coords), dim, dim))
        for seed in range(5):
            dead = np.random.default_rng(seed).uniform(size=len(coords)) < 0.1 * seed
            pairs, keep = aff.indicator_pairs(stack, dead, coords, eps, 0.5, "spectral")
            assert self.pair_set(pairs) == self.pair_set(full[~dead[full].any(axis=1)])
            assert keep.all()

    @pytest.mark.parametrize("flagged", [0, 1, 30])
    def test_indicator_pairs_gap_live_pairs_block_by_block(self, flagged, monkeypatch):
        # a small block, so that 200 models span many blocks and a short last one
        monkeypatch.setattr(neighborhoods, "_PAIR_BLOCK", 97)
        rng = np.random.default_rng(flagged)
        models = TestSparseShape.random_models(rng, 200, 3, degenerate=False)
        dead = np.zeros(200, dtype=bool)
        dead[rng.permutation(200)[:flagged]] = True
        gapped = []
        real = aff.pairwise_diff_norms

        def spy(stack, pairs, norm):
            assert len(pairs) <= neighborhoods._PAIR_BLOCK
            assert not dead[pairs].any()
            gapped.append(pairs.copy())
            return real(stack, pairs, norm)

        monkeypatch.setattr(aff, "pairwise_diff_norms", spy)
        pairs, keep = aff.indicator_pairs(models.projection, dead, models.centers, 0.3, 0.8,
                                          "spectral")
        live = ~dead[pairs].any(axis=1)
        assert len(pairs) > 10 * neighborhoods._PAIR_BLOCK
        np.testing.assert_array_equal(np.concatenate(gapped), pairs[live])
        want = np.zeros(len(pairs), dtype=bool)
        want[live] = real(models.projection, pairs[live], "spectral") <= 0.8
        np.testing.assert_array_equal(keep, want)


class TestProjectionGaps:
    """``_projection_gaps`` against the exact spectral norms of the
    differences, over every pair of ranks 0..D."""

    # the largest error over 20 draws per D was 11 units in the last place
    # of 1, on pairs of unequal rank: their gap is exactly 1, and the
    # exact solve reads the stored projections' rounding
    MAX_ULPS = 12

    @pytest.mark.parametrize("ambient", [2, 3, 4, 5])
    def test_gaps_match_spectral_norms(self, ambient, monkeypatch):
        rng = np.random.default_rng(ambient)
        ranks = np.repeat(np.arange(ambient + 1), 8)
        projs = np.stack([random_projection(rng, ambient, r) for r in ranks])
        models = model_record(rng.uniform(size=(ranks.size, ambient)), projs=projs)
        assert (models.est_dim == ranks).all()
        i, j = np.triu_indices(ranks.size, k=1)
        pairs = np.column_stack([i, j])
        solved = []
        real = aff.pairwise_diff_norms

        def spy(stack, p, norm):
            if norm == "spectral":
                solved.append(p)
            return real(stack, p, norm)

        monkeypatch.setattr(aff, "pairwise_diff_norms", spy)
        got = aff._projection_gaps(models, pairs)
        want = linalg.spectral_norms(projs[i] - projs[j])
        assert np.abs(got - want).max() <= self.MAX_ULPS * np.spacing(1.0)
        # only the equal-rank pairs with min(r, D - r) >= 2 reach the exact
        # solve: none for D <= 3, the rank-2 pairs for D = 4
        r = ranks[i]
        exact = (r == ranks[j]) & (np.minimum(r, ambient - r) >= 2)
        np.testing.assert_array_equal(np.concatenate(solved or [pairs[:0]]), pairs[exact])
        assert exact.any() == (ambient >= 4)
        if ambient == 4:
            assert (r[exact] == 2).all()


class TestSparseShape:
    """Each sparse affinity against a dense oracle of the same formulas
    over all n x n pairs, with zero diagonal: every stored entry equals
    the oracle's (within a stated relative tolerance for the kinds whose
    gaps the oracle solves another way) and is at least exp(-6.1^2), and
    every entry left out is below exp(-6.1^2) in the oracle."""

    CUTOFF_WEIGHT = math.exp(-6.1**2)

    @staticmethod
    def oracle_sq_dists(y):
        diff = y[:, None, :] - y[None, :, :]
        return (diff * diff).sum(axis=2)

    @staticmethod
    def oracle_proj_dists(projs):
        n = projs.shape[0]
        out = np.zeros((n, n))
        i, j = np.triu_indices(n, k=1)
        vals = aff.pairwise_diff_norms(projs, np.column_stack([i, j]), "spectral")
        out[i, j] = vals
        out[j, i] = vals
        return out

    def oracle_distance(self, y, eps):
        w = np.exp(-self.oracle_sq_dists(y) / eps**2)
        np.fill_diagonal(w, 0.0)
        return w

    def oracle_gauss(self, models, eps, eta):
        w = self.oracle_distance(models.centers, eps)
        qd = self.oracle_proj_dists(models.projection)
        w *= np.exp(-(qd * qd) / eta**2)
        return w

    def oracle_indicator(self, models, stack, eps, threshold):
        n = len(models)
        w = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                near = np.sqrt(((models.centers[i] - models.centers[j]) ** 2).sum()) <= eps
                gap = linalg.spectral_norm(stack[i] - stack[j])
                flagged = models.degenerate[i] or models.degenerate[j]
                if i != j and near and gap <= threshold and not flagged:
                    w[i, j] = 1.0
        return w

    def oracle_knn(self, y, ell):
        n = y.shape[0]
        d = np.sqrt(self.oracle_sq_dists(y))
        order = np.argsort(d, axis=1, kind="stable")
        adj = np.zeros((n, n), dtype=bool)
        adj[np.repeat(np.arange(n), ell), order[:, 1:ell + 1].ravel()] = True
        adj |= adj.T
        np.fill_diagonal(adj, False)
        return adj, np.sort(d, axis=1)[:, ell]

    def oracle_wang(self, models, ell, alpha, d):
        adj, _ = self.oracle_knn(models.centers, ell)
        bases = np.linalg.eigh(models.projection)[1][:, :, -d:]
        w = np.zeros((len(models), len(models)))
        i, j = np.nonzero(np.triu(adj, k=1))
        grams = np.einsum("pka,pkb->pab", bases[i], bases[j])
        w[i, j] = w[j, i] = np.abs(np.linalg.det(grams)) ** alpha
        return w

    def oracle_gong(self, models, ell, eta):
        _, eps_i = self.oracle_knn(models.centers, ell)
        s = self.oracle_sq_dists(models.centers) / np.outer(eps_i, eps_i)
        qd = np.clip(self.oracle_proj_dists(models.projection), 0.0, 1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            angle_term = np.where(s > 0, np.exp(-np.arcsin(qd) ** 2 / (eta**2 * s)), 0.0)
        coincident = (s == 0)
        angle_term[coincident] = (qd[coincident] <= 1e-12).astype(float)
        w = np.exp(-s) * angle_term
        np.fill_diagonal(w, 0.0)
        return w

    @staticmethod
    def random_models(rng, n, ambient, degenerate=True, rank=None):
        """Centers in the unit cube with random projections; with
        ``degenerate``, a few flagged models with zero projection and a
        few exact repeats of another model's projection."""
        y = rng.uniform(size=(n, ambient))
        projs = np.stack([random_projection(rng, ambient, rank or int(rng.integers(1, ambient)))
                          for _ in range(n)])
        projs[n // 2:n // 2 + 4] = projs[0]
        flagged = list(range(n - 3, n)) if degenerate else []
        projs[flagged] = 0.0
        return model_record(y, projs=projs, degenerate=flagged)

    # The kinds take their gaps from the ranks (1 across unequal ranks,
    # the Frobenius norm over sqrt(2) at equal rank), the oracle from the
    # exact solve.  The largest relative differences of the stored entries
    # measured: gauss 4.8e-14 over seeds 0-39 of the test below and 1.3e-13
    # on the spheres benchmark's graphs; gong 1.5e-6 over seeds 0-39, where
    # arcsin, of slope 1/sqrt(1 - qd^2), magnifies the last-place error of
    # the oracle's gaps near 1.
    GAUSS_RTOL = 2e-13
    GONG_RTOL = 2e-6

    def check(self, w, want, exact, rtol=1e-14):
        got = dense(w)
        assert w.shape == want.shape
        stored = got != 0
        np.testing.assert_array_equal(got, got.T)
        if exact:
            np.testing.assert_array_equal(got[stored], want[stored])
        else:
            np.testing.assert_allclose(got[stored], want[stored], rtol=rtol, atol=0)
        assert (got[stored] >= self.CUTOFF_WEIGHT).all()
        assert (want[~stored] < self.CUTOFF_WEIGHT).all()
        return stored

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_gaussian_kinds_match_dense_oracle(self, seed):
        rng = np.random.default_rng(seed)
        for ambient in (2, 3):
            models = self.random_models(rng, 70, ambient)
            for eps in (0.02, 0.05, 0.3):
                stored = self.check(aff.distance_gaussian_affinity(models.centers, eps),
                                    self.oracle_distance(models.centers, eps), exact=True)
                if eps < 0.1:
                    # the cutoff drops some pairs
                    assert not stored[off_diagonal(len(stored))].all()
                # eta at its 1e-12 floor underflows every unequal tangent pair
                for eta in (0.3, 1e-12):
                    self.check(aff.gaussian_product_affinity(models, eps, eta),
                               self.oracle_gauss(models, eps, eta), exact=False,
                               rtol=self.GAUSS_RTOL)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_indicator_kinds_match_dense_oracle(self, seed):
        rng = np.random.default_rng(seed)
        for ambient in (2, 3):
            models = self.random_models(rng, 50, ambient)
            models.covariance = 0.01 * models.projection
            for eps, eta in ((0.2, 0.5), (0.4, 0.9), (1.0, 1e-12)):
                r = 0.1
                self.check(aff.cov_indicator_affinity(models, eps, eta, r),
                           self.oracle_indicator(models, models.covariance, eps, eta * r * r),
                           exact=True)
                self.check(aff.proj_indicator_affinity(models, eps, eta),
                           self.oracle_indicator(models, models.projection, eps, eta),
                           exact=True)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_wang_matches_dense_oracle(self, seed):
        rng = np.random.default_rng(seed)
        for ambient, d in ((2, 1), (3, 1), (3, 2)):
            models = self.random_models(rng, 60, ambient, degenerate=False, rank=d)
            for ell, alpha in ((1, 2.0), (5, 1.0)):
                self.check(aff.wang_affinity(models, ell, alpha),
                           self.oracle_wang(models, ell, alpha, d), exact=False)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_gong_matches_dense_oracle(self, seed):
        rng = np.random.default_rng(seed)
        for ambient in (2, 3):
            models = self.random_models(rng, 60, ambient)
            # coincident centers: one pair with equal projections, one without
            models.centers[1] = models.centers[0]
            models.projection[1] = models.projection[0]
            models.est_dim[1] = models.est_dim[0]
            models.centers[3] = models.centers[2]
            for ell, eta in ((2, 0.5), (4, 1e-12), (10, 2.0)):
                want = self.oracle_gong(models, ell, eta)
                stored = self.check(aff.gong_affinity(models, ell, eta), want, exact=False,
                                    rtol=self.GONG_RTOL)
                assert stored[0, 1] and not stored[2, 3]
                if ell == 2:
                    # the cutoff drops some pairs
                    assert not stored[off_diagonal(len(stored))].all()

    def test_no_diagonal_and_nothing_below_floor(self):
        # every kind stores off-diagonal entries of at least exp(-6.1^2)
        # only; the product affinity also has positive weights below that
        # floor between pairs within the cutoff, which it leaves out
        rng = np.random.default_rng(11)
        models = self.random_models(rng, 80, 3)
        models.covariance = 0.01 * models.projection
        eps, eta = 0.3, 0.1
        for w in (aff.distance_gaussian_affinity(models.centers, eps),
                  aff.gaussian_product_affinity(models, eps, eta),
                  aff.cov_indicator_affinity(models, eps, 0.9, 0.1),
                  aff.proj_indicator_affinity(models, eps, 0.9),
                  aff.wang_affinity(self.random_models(rng, 80, 3, degenerate=False, rank=1),
                                    ell=5, alpha=8.0),
                  aff.gong_affinity(models, ell=4, eta=eta)):
            assert w.row.size > 0
            assert not (w.row == w.col).any()
            assert w.data.min() >= self.CUTOFF_WEIGHT
        want = self.oracle_gauss(models, eps, eta)
        near = self.oracle_sq_dists(models.centers) <= (6.1 * eps) ** 2
        assert ((want > 0) & (want < self.CUTOFF_WEIGHT) & near).any()

    def test_knn_pairs_match_dense_oracle(self):
        rng = np.random.default_rng(5)
        y = rng.normal(size=(80, 3))
        for ell in (1, 3, 6):
            pairs, radii = aff._knn_adjacency(y, ell)
            adj, want_radii = self.oracle_knn(y, ell)
            np.testing.assert_array_equal(pairs, np.column_stack(np.nonzero(np.triu(adj, k=1))))
            np.testing.assert_allclose(radii, want_radii, rtol=1e-14, atol=0)


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

    def test_eps_matches_ball_reference(self):
        # random centers at scales 1e-6 to 1e5; scaled integer lattices, in
        # which most centers have near-ties; duplicated centers, whose
        # nearest other center is at distance 0 and may come first
        rng = np.random.default_rng(31)
        for case in range(90):
            dim, m = int(rng.integers(1, 5)), int(rng.integers(2, 300))
            if case % 3 == 0:
                y = rng.normal(size=(m, dim)) * 10.0 ** rng.integers(-6, 6)
            elif case % 3 == 1:
                scale = (0.1, 0.3, 1.0, 7.0)[case % 4]
                y = np.vstack([scale * rng.integers(0, 6, size=(m, dim)),
                               rng.uniform(0, 6 * scale, size=(case % 4, dim))])
            else:
                base = rng.normal(size=(max(1, m // 3), dim))
                y = base[rng.integers(0, len(base), m)]
                if case % 2:
                    y = np.vstack([y, rng.normal(size=(3, dim))])
            assert aff.auto_epsilon(y) == reference_auto_epsilon(y)

    def test_eps_exact_when_the_tree_misranks_a_near_tie(self, monkeypatch):
        # a tree that rounds otherwise may rank center 0's two neighbors,
        # 5 and 5 + 1e-11 away, the wrong way round; the ball query around
        # the near-tie still finds the nearer one, and eps is 5
        y = np.array([[0.0], [5.0], [-5.00000000001], [-5.10000000001]])

        class SwappingTree:
            def __init__(self, points):
                self.tree = build_index(points)

            def query(self, x, k):
                dist, near = self.tree.query(x, k=k)
                return dist[:, [0, 2, 1]], near[:, [0, 2, 1]]

            def query_ball_point(self, *args, **kwargs):
                return self.tree.query_ball_point(*args, **kwargs)

        monkeypatch.setattr(neighborhoods, "build_index", SwappingTree)
        assert aff.auto_epsilon(y) == 5.0

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

    def test_eps_eta_exact_on_lattice(self):
        # a scaled integer lattice puts many pairs at exactly the nearest
        # distance and at exactly eps; a few off-lattice centers break the
        # symmetry
        rng = np.random.default_rng(12)
        for scale in (0.1, 0.3, 1.0):
            y = np.vstack([scale * rng.integers(0, 6, size=(30, 2)),
                           rng.uniform(0, 6 * scale, size=(3, 2))])
            q = np.stack([line_proj(rng.uniform(0, math.pi)) for _ in y])
            n = len(y)
            dist = [[np.sqrt(((y[i] - y[j]) ** 2).sum()) for j in range(n)] for i in range(n)]
            eps = max(min(dist[i][j] for j in range(n) if j != i) for i in range(n))
            assert aff.auto_epsilon(y) == eps
            for eps_try in (eps, scale, 2 * scale):
                vals = sorted(linalg.spectral_norm(q[i] - q[j])
                              for i in range(n) for j in range(i + 1, n)
                              if dist[i][j] < eps_try)
                assert aff.auto_eta(model_record(y, projs=q), eps_try) == \
                    vals[(len(vals) - 1) // 2]


class TestInvariances:
    def _segment_models(self, coords, r):
        return ball_models(PointCloud(coords), np.arange(len(coords)), r, d=1)

    def test_rigid_motion_leaves_affinities_unchanged(self):
        rng = np.random.default_rng(5)
        t = rng.uniform(-1, 1, size=120)
        coords = np.column_stack([t, 0.2 * t**2])
        r, eps, eta = 0.3, 0.6, 0.4
        models = self._segment_models(coords, r)
        w_gauss = dense(aff.gaussian_product_affinity(models, eps, eta))
        w_cov = dense(aff.cov_indicator_affinity(models, eps, eta, r))

        u = random_orthonormal(rng, 2, 2)
        if np.linalg.det(u) < 0:
            u[:, 1] = -u[:, 1]
        moved = coords @ u.T + np.array([3.0, -7.0])
        models2 = self._segment_models(moved, r)
        w_gauss2 = dense(aff.gaussian_product_affinity(models2, eps, eta))
        w_cov2 = dense(aff.cov_indicator_affinity(models2, eps, eta, r))

        np.testing.assert_allclose(w_gauss, w_gauss2, atol=1e-9)
        np.testing.assert_array_equal(w_cov, w_cov2)

    def test_scaling_leaves_indicators_unchanged(self):
        rng = np.random.default_rng(6)
        t = rng.uniform(-1, 1, size=100)
        coords = np.column_stack([t, 0.3 * t**2])
        r, eps, eta, s = 0.3, 0.6, 0.4, 2.5
        models = self._segment_models(coords, r)
        w = dense(aff.cov_indicator_affinity(models, eps, eta, r))
        models2 = self._segment_models(coords * s, r * s)
        w2 = dense(aff.cov_indicator_affinity(models2, eps * s, eta, r * s))
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
            w = dense(w)
            assert np.isfinite(w).all()
            np.testing.assert_allclose(w, w.T, atol=1e-15)

    def test_pair_builders_keep_strict_upper_pairs_above_the_floor(self):
        # the graph alg4 carries to the eigensolve, one builder per kind
        rng = np.random.default_rng(7)
        coords = rng.normal(size=(60, 2))
        models = self._segment_models(coords, 2.0)
        args = {"gauss": (models, 0.5, 0.5), "cov": (models, 0.5, 0.5, 0.8),
                "proj": (models, 0.5, 0.5), "wang": (models, 3, 2.0), "gong": (models, 3, 0.5),
                "distance": (models.centers, 0.5)}
        assert args.keys() == aff.PAIR_BUILDERS.keys()
        for kind, build in aff.PAIR_BUILDERS.items():
            pairs, vals = build(*args[kind])
            assert pairs.shape == (len(vals), 2) and len(vals) > 0
            assert (pairs[:, 0] < pairs[:, 1]).all()
            assert len(np.unique(pairs, axis=0)) == len(pairs)
            assert (vals >= aff._FLOOR).all()
