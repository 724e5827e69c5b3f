"""Seedable synthetic generators for the benchmark geometries.

Each dataset is a union of K surfaces of common intrinsic dimension d.
Points are sampled uniformly by arclength/area from each surface, then
jittered by additive noise drawn uniformly from the ball of radius tau.
Ground-truth labels record the source surface (1-based).

Every curved surface (the arcs of two_curves_angle and three_curves, the
figure eights, the Mobius strips, the monkey saddle and the paraboloids)
is one ``_patch_surface``: a parametrization over a box plus its
speed/area element.  One rejection sampler draws its uniform points, one
grid-then-L-BFGS-B search gives its distances (the paraboloids search
their meridian profile instead), and one ``nquad`` over the box gives its
measure.  The flat shapes (segments, spheres, the square plane patch)
sample directly and have closed-form distances.  ``geometry(spec)``
returns the surfaces with the ambient and intrinsic dimension.

Parametrizations (the figures in the literature show shapes only, so the
exact formulas below are this package's own):

* two_segments(theta):  S1 = [-1,1] x {0};  S2 = {s (cos t, sin t) : |s| <= 1}.
* two_curves_angle(theta):  c(t) = (t, 0.35 t^2), t in [-1,1], and the same
  curve rotated by theta about the origin.  Both bend the same way, so the
  origin is their only crossing for theta in (atan(0.7)/2 .. pi/2].
* three_curves:  y = 4(x-1/2)^2,  y = 1 - 4(x-1/2)^2,  y = 1.2x - 0.2x^2
  on x in [0,1]; the arcs cross pairwise inside the unit square.
* self_intersecting_curves:  the figure-eight c(t) = (sin t, sin t cos t),
  t in [0, 2pi), and its copy rotated by pi/2; each self-intersects at the
  origin and the two curves cross each other.
* two_spheres:  unit spheres centered at the origin and (1.5, 0, 0); they
  meet in a circle.
* mobius_strips:  the standard Mobius embedding
  ((1 + w cos(t/2)) cos t, (1 + w cos(t/2)) sin t, w sin(t/2)),
  t in [0,2pi), w in [-0.3,0.3], and its copy rotated by pi/2 about the
  x-axis.
* monkey_saddle:  z = x^3 - 3xy^2 over [-1,1]^2, plus the plane patch
  z = 0 over the same square.
* paraboloids:  z = +(x^2+y^2)/2 and z = -(x^2+y^2)/2 over the unit disk;
  they touch tangentially at the origin (the hardest instance).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy import integrate, optimize

from .errors import InvalidInput, UnknownDataset
from .neighborhoods import PointCloud

Array = np.ndarray

DATASET_NAMES = (
    "two_segments",
    "three_curves",
    "self_intersecting_curves",
    "two_spheres",
    "mobius_strips",
    "monkey_saddle",
    "paraboloids",
    "two_curves_angle",
)

_ANGLE_DATASETS = {"two_segments", "two_curves_angle"}

CURVE_BEND = 0.35  # quadratic coefficient of the two_curves_angle arcs


@dataclass(frozen=True)
class DatasetSpec:
    name: str
    n_per_cluster: int
    tau: float = 0.0
    angle: float | None = None
    seed: int = 0
    proportional: bool = False

    def __post_init__(self):
        if self.name not in DATASET_NAMES:
            raise UnknownDataset(f"unknown dataset {self.name!r}")
        if self.n_per_cluster < 1:
            raise InvalidInput("n_per_cluster must be >= 1")
        if not 0 <= self.tau < math.inf:
            raise InvalidInput("tau must be finite and >= 0")
        if self.angle is not None:
            if self.name not in _ANGLE_DATASETS:
                raise InvalidInput(f"{self.name} takes no angle parameter")
            if not 0.0 < self.angle <= math.pi / 2:
                raise InvalidInput("angle must lie in (0, pi/2]")

    @property
    def effective_angle(self) -> float:
        return self.angle if self.angle is not None else math.pi / 2


@dataclass
class Surface:
    """One cluster surface: uniform sampler, exact/numeric distance, measure."""

    sample: Callable[[int, np.random.Generator], Array]
    distance: Callable[[Array], float]
    measure: Callable[[], float]


@dataclass
class Geometry:
    """The K surfaces of one dataset; ``geometry(spec)`` builds it."""

    ambient_dim: int
    intrinsic_dim: int
    surfaces: list[Surface] = field(default_factory=list)

    @property
    def n_clusters(self) -> int:
        return len(self.surfaces)


# ---------------------------------------------------------------------------
# parametrized surfaces

# grid points per box axis for the coarse search in _param_distance
_DISTANCE_GRID = {1: 2001, 2: 81}


def _rejection_sample(n, rng, box, jac, jac_max):
    """``n`` parameter draws over ``box``, uniform against the element ``jac``.

    Each round draws every box coordinate in order, then z ~ U[0, 1], and
    keeps the draws with ``z * jac_max <= jac(*u)``.  Returns one row per
    box coordinate.
    """
    out = np.empty((len(box), n))
    filled = 0
    while filled < n:
        m = max(2 * (n - filled), 64)
        u = np.array([rng.uniform(lo, hi, size=m) for lo, hi in box])
        z = rng.uniform(0.0, 1.0, size=m)
        acc = u[:, z * jac_max <= jac(*u)]
        take = min(acc.shape[1], n - filled)
        out[:, filled:filled + take] = acc[:, :take]
        filled += take
    return out


def _param_distance(p, point, box, grid):
    """min over u in ``box`` of ||p - point(*u)||: grid search, then L-BFGS-B."""
    p = np.asarray(p, float)
    axes = np.meshgrid(*(np.linspace(lo, hi, grid) for lo, hi in box), indexing="ij")
    u = np.array([a.ravel() for a in axes])
    d2 = ((point(*u) - p) ** 2).sum(axis=1)
    k = int(d2.argmin())

    def f(z):
        return float(((point(*z[:, None])[0] - p) ** 2).sum())

    res = optimize.minimize(f, x0=u[:, k], method="L-BFGS-B", bounds=box,
                            options={"ftol": 1e-16, "gtol": 1e-12})
    return math.sqrt(min(float(res.fun), float(d2[k])))


def _patch_surface(point, jac, box, jac_max, distance=None):
    """The surface ``point(*u)`` for u in ``box``, with area element ``jac``.

    ``jac_max`` bounds ``jac`` over the box.  Without ``distance``, the
    distance is a numeric search over the box.
    """
    def sample(n, rng):
        return point(*_rejection_sample(n, rng, box, jac, jac_max))

    def measure():
        # nquad integrates its first argument innermost
        val, _ = integrate.nquad(
            lambda *u: float(jac(*(np.array([x]) for x in reversed(u)))[0]), box[::-1])
        return float(val)

    if distance is None:
        grid = _DISTANCE_GRID[len(box)]

        def distance(p):
            return _param_distance(p, point, box, grid)

    return Surface(sample=sample, distance=distance, measure=measure)


def _rotated(point, rot):
    """``point`` followed by the rotation matrix ``rot``; unchanged when None,
    since even an identity product can turn a -0.0 coordinate into +0.0."""
    if rot is None:
        return point
    return lambda *u: point(*u) @ rot.T


def _rotation2(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


_ROTATE_X = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])  # pi/2 about x


def _quadratic_arc(a2, a1, a0, x_lo, x_hi, rot=None):
    """y = a2 x^2 + a1 x + a0 over [x_lo, x_hi], then the rotation ``rot``."""
    def xy(t):
        return np.column_stack([t, a2 * t * t + a1 * t + a0])

    def speed(t):
        return np.sqrt(1.0 + (2 * a2 * t + a1) ** 2)

    smax = float(max(speed(np.array([x_lo]))[0], speed(np.array([x_hi]))[0]))
    return _patch_surface(_rotated(xy, rot), speed, [(x_lo, x_hi)], smax)


def _figure_eight(rot=None):
    def xy(t):
        return np.column_stack([np.sin(t), np.sin(t) * np.cos(t)])

    def speed(t):
        return np.sqrt(np.cos(t) ** 2 + np.cos(2 * t) ** 2)

    return _patch_surface(_rotated(xy, rot), speed, [(0.0, 2 * math.pi)], math.sqrt(2.0))


def _mobius_point(t, w):
    c1, s1 = np.cos(t), np.sin(t)
    c2, s2 = np.cos(t / 2), np.sin(t / 2)
    rho = 1.0 + w * c2
    return np.column_stack([rho * c1, rho * s1, w * s2])


def _mobius_jacobian(t, w):
    c1, s1 = np.cos(t), np.sin(t)
    c2, s2 = np.cos(t / 2), np.sin(t / 2)
    rho = 1.0 + w * c2
    dt = np.stack([-rho * s1 - 0.5 * w * s2 * c1,
                   rho * c1 - 0.5 * w * s2 * s1,
                   0.5 * w * c2], axis=-1)
    dw = np.stack([c2 * c1, c2 * s1, s2], axis=-1)
    cross = np.cross(dt, dw)
    return np.linalg.norm(cross, axis=-1)


_MOBIUS_BOX = [(0.0, 2 * math.pi), (-0.3, 0.3)]


@lru_cache(maxsize=1)
def _mobius_jac_max():
    t = np.linspace(*_MOBIUS_BOX[0], 721)
    w = np.linspace(*_MOBIUS_BOX[1], 61)
    tt, ww = np.meshgrid(t, w, indexing="ij")
    return float(_mobius_jacobian(tt.ravel(), ww.ravel()).max()) * 1.001


def _mobius_strip(rot=None):
    return _patch_surface(_rotated(_mobius_point, rot), _mobius_jacobian,
                          _MOBIUS_BOX, _mobius_jac_max())


def _monkey_saddle():
    def point(x, y):
        return np.column_stack([x, y, x**3 - 3 * x * y * y])

    def jac(x, y):
        fx = 3 * x * x - 3 * y * y
        fy = -6 * x * y
        return np.sqrt(1.0 + fx * fx + fy * fy)

    return _patch_surface(point, jac, [(-1.0, 1.0), (-1.0, 1.0)], math.sqrt(37.0))


def _paraboloid(sign):
    """z = sign (x^2 + y^2)/2 over the unit disk, as a patch in (s = rho^2, phi)."""
    def point(s, phi):
        rho = np.sqrt(s)
        xy = np.column_stack([rho * np.cos(phi), rho * np.sin(phi)])
        return np.column_stack([xy, sign * 0.5 * (xy**2).sum(axis=1)])

    def jac(s, phi):
        rho = np.sqrt(s)
        return 0.5 * np.sqrt(1.0 + rho * rho)

    def profile(r):
        return np.column_stack([r, sign * 0.5 * r * r])

    def distance(p):
        # the nearest surface point lies in the meridian plane of p
        q = np.array([math.hypot(p[0], p[1]), p[2]])
        return _param_distance(q, profile, [(0.0, 1.0)], _DISTANCE_GRID[1])

    return _patch_surface(point, jac, [(0.0, 1.0), (0.0, 2 * math.pi)],
                          0.5 * math.sqrt(2.0), distance=distance)


# ---------------------------------------------------------------------------
# flat surfaces, sampled directly

def _segment_distance(p, a, b):
    p = np.asarray(p, float)
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    ab = b - a
    t = float(np.clip(np.dot(p - a, ab) / np.dot(ab, ab), 0.0, 1.0))
    return float(np.linalg.norm(p - (a + t * ab)))


def _segment_surface(a, b):
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    length = float(np.linalg.norm(b - a))

    def sample(n, rng):
        t = rng.uniform(0.0, 1.0, size=n)
        return a[None, :] + t[:, None] * (b - a)[None, :]

    return Surface(sample=sample,
                   distance=lambda p: _segment_distance(p, a, b),
                   measure=lambda: length)


def _sphere_surface(center, radius=1.0):
    center = np.asarray(center, float)

    def sample(n, rng):
        u = rng.normal(size=(n, 3))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        return center[None, :] + radius * u

    def distance(p):
        return abs(float(np.linalg.norm(np.asarray(p, float) - center)) - radius)

    return Surface(sample=sample, distance=distance,
                   measure=lambda: 4.0 * math.pi * radius**2)


def _square_plane_surface():
    def sample(n, rng):
        xy = rng.uniform(-1.0, 1.0, size=(n, 2))
        return np.column_stack([xy, np.zeros(n)])

    def distance(p):
        p = np.asarray(p, float)
        cx = float(np.clip(p[0], -1.0, 1.0))
        cy = float(np.clip(p[1], -1.0, 1.0))
        return float(math.sqrt((p[0] - cx) ** 2 + (p[1] - cy) ** 2 + p[2] ** 2))

    return Surface(sample=sample, distance=distance, measure=lambda: 4.0)


def geometry(spec: DatasetSpec) -> Geometry:
    """The surfaces of ``spec``'s dataset, with its ambient and intrinsic dimension."""
    name = spec.name
    if name == "two_segments":
        theta = spec.effective_angle
        u = np.array([math.cos(theta), math.sin(theta)])
        return Geometry(2, 1, [
            _segment_surface([-1.0, 0.0], [1.0, 0.0]),
            _segment_surface(-u, u),
        ])
    if name == "two_curves_angle":
        return Geometry(2, 1, [
            _quadratic_arc(CURVE_BEND, 0.0, 0.0, -1.0, 1.0),
            _quadratic_arc(CURVE_BEND, 0.0, 0.0, -1.0, 1.0, _rotation2(spec.effective_angle)),
        ])
    if name == "three_curves":
        return Geometry(2, 1, [
            _quadratic_arc(4.0, -4.0, 1.0, 0.0, 1.0),        # y = 4(x-1/2)^2
            _quadratic_arc(-4.0, 4.0, 0.0, 0.0, 1.0),        # y = 1-4(x-1/2)^2
            _quadratic_arc(-0.2, 1.2, 0.0, 0.0, 1.0),        # y = 1.2x-0.2x^2
        ])
    if name == "self_intersecting_curves":
        return Geometry(2, 1, [_figure_eight(), _figure_eight(_rotation2(math.pi / 2))])
    if name == "two_spheres":
        return Geometry(3, 2, [
            _sphere_surface([0.0, 0.0, 0.0]),
            _sphere_surface([1.5, 0.0, 0.0]),
        ])
    if name == "mobius_strips":
        return Geometry(3, 2, [_mobius_strip(), _mobius_strip(_ROTATE_X)])
    if name == "monkey_saddle":
        return Geometry(3, 2, [_monkey_saddle(), _square_plane_surface()])
    if name == "paraboloids":
        return Geometry(3, 2, [_paraboloid(+1.0), _paraboloid(-1.0)])
    raise UnknownDataset(f"unknown dataset {name!r}")


def _ball_noise(n, dim, tau, rng):
    u = rng.normal(size=(n, dim))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    radii = tau * rng.uniform(0.0, 1.0, size=n) ** (1.0 / dim)
    return u * radii[:, None]


def generate(spec: DatasetSpec) -> PointCloud:
    """Sample the dataset described by ``spec``; deterministic per seed.

    Default: n_per_cluster points on each surface.  With
    spec.proportional, the total K*n_per_cluster points are split
    proportionally to surface measure (multinomial draw).
    """
    geom = geometry(spec)
    rng = np.random.default_rng(spec.seed)
    k = geom.n_clusters
    if spec.proportional:
        weights = np.array([s.measure() for s in geom.surfaces])
        counts = rng.multinomial(spec.n_per_cluster * k, weights / weights.sum())
        counts = np.maximum(counts, 1)
    else:
        counts = np.full(k, spec.n_per_cluster)
    parts = [geom.surfaces[i].sample(int(counts[i]), rng) for i in range(k)]
    coords = np.vstack(parts)
    labels = np.repeat(np.arange(1, k + 1), counts)
    if spec.tau > 0:
        coords = coords + _ball_noise(coords.shape[0], geom.ambient_dim, spec.tau, rng)
    return PointCloud(coords=coords, labels=labels, seed=spec.seed,
                      intrinsic_dim=geom.intrinsic_dim, n_clusters=k)


def global_radius(cloud: PointCloud) -> float:
    """Largest distance from the cloud centroid to any point."""
    center = cloud.coords.mean(axis=0)
    return float(np.linalg.norm(cloud.coords - center, axis=1).max())


def distance_to_surface(point: Array, surface_id: int, spec: DatasetSpec) -> float:
    """Distance from ``point`` to surface ``surface_id`` (1-based) of ``spec``."""
    geom = geometry(spec)
    if not 1 <= surface_id <= geom.n_clusters:
        raise InvalidInput(f"surface_id {surface_id} out of range")
    return float(geom.surfaces[surface_id - 1].distance(np.asarray(point, float)))
