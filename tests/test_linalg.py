import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import random_projection, random_symmetric
from mmcluster import linalg
from mmcluster.errors import InvalidInput


def line_projection(theta):
    v = np.array([math.cos(theta), math.sin(theta)])
    return np.outer(v, v)


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


@given(st.integers(0, 10_000), st.integers(2, 6))
def test_symmetrize_is_projection_onto_symmetric_part(seed, dim):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(dim, dim))
    s = linalg.symmetrize(m)
    np.testing.assert_allclose(s, s.T)
    np.testing.assert_allclose(linalg.symmetrize(s), s)
