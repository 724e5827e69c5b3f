import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import random_projection, random_symmetric
from mmcluster import linalg
from mmcluster.errors import InvalidInput, SingularCovariance


def line_projection(theta):
    v = np.array([math.cos(theta), math.sin(theta)])
    return np.outer(v, v)


class TestEigh:
    def test_diagonal(self):
        e = linalg.eigh(np.diag([3.0, 1.0, 2.0]))
        np.testing.assert_allclose(e.eigenvalues, [3.0, 2.0, 1.0])
        # axis-aligned eigenvectors, positive sign
        np.testing.assert_allclose(np.abs(e.eigenvectors), np.eye(3)[:, [0, 2, 1]], atol=1e-12)
        assert (e.eigenvectors.max(axis=0) > 0.99).all()

    def test_zero_matrix(self):
        e = linalg.eigh(np.zeros((4, 4)))
        np.testing.assert_allclose(e.eigenvalues, np.zeros(4))

    def test_reconstruction_residual(self):
        rng = np.random.default_rng(0)
        m = random_symmetric(rng, 5)
        e = linalg.eigh(m)
        recon = e.eigenvectors @ np.diag(e.eigenvalues) @ e.eigenvectors.T
        assert linalg.spectral_norm(recon - m) <= 1e-9 * (1 + linalg.spectral_norm(m))

    def test_bulk_invariants(self):
        # ordering, reconstruction, orthonormality over many random matrices
        rng = np.random.default_rng(42)
        for _ in range(10_000):
            dim = int(rng.integers(1, 13))
            m = random_symmetric(rng, dim, scale=float(rng.uniform(0.1, 10)))
            e = linalg.eigh(m)
            assert (np.diff(e.eigenvalues) <= 1e-12).all()
            v = e.eigenvectors
            assert linalg.spectral_norm(v.T @ v - np.eye(dim)) <= 1e-10
            recon = v @ np.diag(e.eigenvalues) @ v.T
            assert linalg.spectral_norm(recon - m) <= 1e-9 * (1 + linalg.spectral_norm(m))

    def test_sign_convention_deterministic(self):
        rng = np.random.default_rng(3)
        m = random_symmetric(rng, 6)
        e1 = linalg.eigh(m)
        e2 = linalg.eigh(m.copy())
        np.testing.assert_array_equal(e1.eigenvectors, e2.eigenvectors)
        for k in range(6):
            col = e1.eigenvectors[:, k]
            first = col[np.argmax(np.abs(col) > 1e-9)]
            assert first > 0

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidInput):
            linalg.eigh(np.array([[1.0, np.nan], [np.nan, 1.0]]))


class TestNorms:
    def test_spectral_examples(self):
        assert linalg.spectral_norm(np.diag([-2.0, 1.0])) == pytest.approx(2.0)
        assert linalg.spectral_norm(np.eye(3)) == pytest.approx(1.0)

    def test_spectral_projection_difference(self):
        p1 = line_projection(0.0)
        p2 = line_projection(math.pi / 6)
        assert linalg.spectral_norm(p1 - p2) == pytest.approx(0.5, abs=1e-12)

    def test_frobenius_examples(self):
        assert linalg.frobenius_norm(np.eye(3)) == pytest.approx(math.sqrt(3))
        assert linalg.frobenius_norm(np.zeros((2, 2))) == 0.0

    @pytest.mark.parametrize("theta", [math.pi / 2, math.pi / 3, 0.3])
    def test_frobenius_projection_difference(self, theta):
        d = line_projection(0.0) - line_projection(theta)
        assert linalg.frobenius_norm(d) == pytest.approx(math.sqrt(2) * math.sin(theta))

    def test_batched_2x2_matches_eigvalsh(self):
        rng = np.random.default_rng(9)
        stack = np.stack([random_symmetric(rng, 2, 3.0) for _ in range(500)])
        fast = linalg.spectral_norms(stack)
        slow = np.abs(np.linalg.eigvalsh(stack)).max(axis=-1)
        np.testing.assert_allclose(fast, slow, atol=1e-12)

    @given(st.integers(0, 10_000))
    def test_spectral_below_frobenius(self, seed):
        m = random_symmetric(np.random.default_rng(seed), 4)
        assert linalg.spectral_norm(m) <= linalg.frobenius_norm(m) + 1e-12


class TestPrincipalAngles:
    def test_equal_projections(self):
        p = random_projection(np.random.default_rng(2), 4, 2)
        np.testing.assert_allclose(linalg.principal_angles(p, p), [0.0, 0.0], atol=1e-7)

    def test_orthogonal_lines(self):
        p = np.diag([1.0, 0.0])
        q = np.diag([0.0, 1.0])
        np.testing.assert_allclose(linalg.principal_angles(p, q), [math.pi / 2])

    def test_matches_spectral_norm_of_difference(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            p = random_projection(rng, 5, 2)
            q = random_projection(rng, 5, 2)
            theta_max = linalg.principal_angles(p, q)[0]
            assert abs(math.sin(theta_max) - linalg.spectral_norm(p - q)) <= 1e-9

    def test_rejects_non_projection(self):
        with pytest.raises(InvalidInput):
            linalg.principal_angles(np.diag([2.0, 0.0]), np.eye(2))


class TestPDiffLemma:
    def test_equal_dimension(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            d = int(rng.integers(1, 4))
            ambient = int(rng.integers(d + 1, 8))
            p = random_projection(rng, ambient, d)
            q = random_projection(rng, ambient, d)
            theta_max = linalg.principal_angles(p, q)[0]
            assert abs(linalg.spectral_norm(p - q) - math.sin(theta_max)) <= 1e-9

    def test_unequal_dimension_gives_one(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            ambient = int(rng.integers(3, 8))
            d1 = int(rng.integers(1, ambient))
            d2 = int(rng.integers(1, ambient))
            if d1 == d2:
                d2 = d1 % (ambient - 1) + 1
            p = random_projection(rng, ambient, d1)
            q = random_projection(rng, ambient, d2)
            assert abs(linalg.spectral_norm(p - q) - 1.0) <= 1e-9


class TestHellinger:
    def test_identical_identity(self):
        assert linalg.hellinger_distance(np.eye(3), np.eye(3)) == 0.0

    def test_scaled_identity_pair(self):
        got = linalg.hellinger_distance(np.eye(2), 4.0 * np.eye(2))
        assert got == pytest.approx(math.sqrt(1.0 / 5.0), abs=1e-12)

    def test_identical_scaled(self):
        c = 2.5 * np.eye(3)
        assert linalg.hellinger_distance(c, c) == pytest.approx(0.0, abs=1e-7)

    def test_symmetry_and_zero_iff_equal(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            a = random_symmetric(rng, 3)
            ci = a @ a.T + 0.5 * np.eye(3)
            b = random_symmetric(rng, 3)
            cj = b @ b.T + 0.5 * np.eye(3)
            dij = linalg.hellinger_distance(ci, cj)
            dji = linalg.hellinger_distance(cj, ci)
            assert dij == pytest.approx(dji, abs=1e-12)
            assert 0.0 <= dij <= 1.0
            assert linalg.hellinger_distance(ci, ci) <= 1e-7
            if linalg.spectral_norm(ci - cj) > 1e-6:
                assert dij > 0.0

    def test_singular_raises(self):
        with pytest.raises(SingularCovariance):
            linalg.hellinger_distance(np.diag([1.0, 0.0]), np.eye(2))

    def test_regularization_rescues_singular(self):
        d = linalg.hellinger_distance(np.diag([1.0, 0.0]), np.eye(2), reg=1e-8)
        assert 0.0 < d < 1.0


class TestMahalanobisAvg:
    def test_zero_for_same_point(self):
        x = np.array([1.0, 2.0])
        assert linalg.mahalanobis_avg(np.eye(2), np.eye(2), x, x) == 0.0

    def test_identity_unit_distance(self):
        xi = np.array([1.0, 0.0])
        xj = np.array([0.0, 0.0])
        assert linalg.mahalanobis_avg(np.eye(2), np.eye(2), xi, xj) == pytest.approx(2.0)

    def test_hand_example(self):
        ci = np.diag([4.0, 1.0])
        cj = np.eye(2)
        xi = np.array([2.0, 0.0])
        xj = np.array([0.0, 0.0])
        assert linalg.mahalanobis_avg(ci, cj, xi, xj) == pytest.approx(3.0)

    def test_singular_raises(self):
        with pytest.raises(SingularCovariance):
            linalg.mahalanobis_avg(np.diag([1.0, 0.0]), np.eye(2),
                                   np.zeros(2), np.ones(2))


@given(st.integers(0, 10_000), st.integers(2, 6))
def test_symmetrize_is_projection_onto_symmetric_part(seed, dim):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(dim, dim))
    s = linalg.symmetrize(m)
    np.testing.assert_allclose(s, s.T)
    np.testing.assert_allclose(linalg.symmetrize(s), s)
