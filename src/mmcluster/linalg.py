"""Dense symmetric linear algebra primitives: norms of symmetric matrices
and principal angles between the ranges of orthogonal projections."""

from __future__ import annotations

import numpy as np

from .errors import InvalidInput

Array = np.ndarray


def symmetrize(m: Array) -> Array:
    """Return the symmetric part (m + m.T)/2 as float64."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidInput(f"expected a square matrix, got shape {m.shape}")
    return 0.5 * (m + m.T)


def _check_finite(m: Array) -> Array:
    m = symmetrize(m)
    if not np.all(np.isfinite(m)):
        raise InvalidInput("matrix has non-finite entries")
    return m


def spectral_norms(ms: Array) -> Array:
    """Spectral norms of a stack (..., D, D) of symmetric matrices.

    The 2x2 case uses the closed-form eigenvalues; larger sizes go through
    batched ``eigvalsh``.  Both routes are cross-checked in the tests.
    """
    ms = np.asarray(ms, dtype=float)
    d = ms.shape[-1]
    if d == 2:
        a = ms[..., 0, 0]
        b = ms[..., 0, 1]
        c = ms[..., 1, 1]
        mid = 0.5 * (a + c)
        rad = np.hypot(0.5 * (a - c), b)
        return np.abs(mid) + rad
    return np.abs(np.linalg.eigvalsh(ms)).max(axis=-1)


def spectral_norm(m: Array) -> float:
    """Largest absolute eigenvalue of a symmetric matrix."""
    m = _check_finite(m)
    return float(spectral_norms(m[None])[0])


def frobenius_norm(m: Array) -> float:
    m = _check_finite(m)
    return float(np.sqrt((m * m).sum()))


def is_projection(m: Array, tol: float = 1e-8) -> bool:
    m = symmetrize(m)
    return bool(spectral_norm(m @ m - m) <= tol)


def projection_rank(m: Array) -> int:
    return int(round(float(np.trace(np.asarray(m, float)))))


def _orthonormal_range(p: Array) -> Array:
    """Orthonormal basis (columns) of the range of a projection matrix."""
    return np.linalg.eigh(p)[1][:, p.shape[0] - projection_rank(p):]


def principal_angles(p: Array, q: Array) -> Array:
    """Principal angles between the ranges of two orthogonal projections.

    Returns min(rank p, rank q) angles in [0, pi/2], sorted descending
    (theta_1 >= theta_2 >= ...), computed from the singular values of the
    cross-basis product with clamping before arccos.
    """
    for m in (p, q):
        if not is_projection(m):
            raise InvalidInput("principal_angles expects orthogonal projection matrices")
    u = _orthonormal_range(symmetrize(p))
    v = _orthonormal_range(symmetrize(q))
    if u.shape[1] < 1 or v.shape[1] < 1:
        raise InvalidInput("projections must have rank >= 1")
    s = np.linalg.svd(u.T @ v, compute_uv=False)
    s = np.clip(s, -1.0, 1.0)
    return np.arccos(np.sort(s))
