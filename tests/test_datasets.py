import math

import numpy as np
import pytest
from scipy import integrate
from scipy.spatial import cKDTree
from scipy.stats import kstest

from mmcluster.datasets import (
    DATASET_NAMES,
    DatasetSpec,
    distance_to_surface,
    generate,
    geometry,
    global_radius,
)
from mmcluster.errors import InvalidInput, UnknownDataset
from mmcluster.neighborhoods import PointCloud

# closed-form distance functions: membership is checkable to machine precision
EXACT = {"two_segments", "two_spheres"}


class TestSpecValidation:
    def test_unknown_name(self):
        with pytest.raises(UnknownDataset):
            DatasetSpec("klein_bottles", 10)

    def test_angle_range(self):
        with pytest.raises(InvalidInput):
            DatasetSpec("two_segments", 10, angle=2.0)

    def test_angle_only_where_meaningful(self):
        with pytest.raises(InvalidInput):
            DatasetSpec("two_spheres", 10, angle=1.0)

    def test_negative_tau(self):
        with pytest.raises(InvalidInput):
            DatasetSpec("two_segments", 10, tau=-0.1)


class TestGenerate:
    def test_two_segments_points_on_surfaces(self):
        spec = DatasetSpec("two_segments", 4, tau=0.0, angle=math.pi / 2, seed=1)
        cloud = generate(spec)
        assert cloud.n == 8
        for i in range(cloud.n):
            d = distance_to_surface(cloud.coords[i], int(cloud.labels[i]), spec)
            assert d <= 1e-12

    @pytest.mark.parametrize("name", DATASET_NAMES)
    def test_noiseless_points_lie_on_surface(self, name):
        spec = DatasetSpec(name, 40, tau=0.0, seed=2)
        cloud = generate(spec)
        tol = 1e-12 if name in EXACT else 1e-6  # numeric distance otherwise
        for i in range(0, cloud.n, 7):
            d = distance_to_surface(cloud.coords[i], int(cloud.labels[i]), spec)
            assert d <= tol

    def test_two_spheres_noise_bound_and_counts(self):
        spec = DatasetSpec("two_spheres", 300, tau=0.02, seed=3)
        cloud = generate(spec)
        counts = np.bincount(cloud.labels)[1:]
        np.testing.assert_array_equal(counts, [300, 300])
        for i in range(cloud.n):
            d = distance_to_surface(cloud.coords[i], int(cloud.labels[i]), spec)
            assert d <= 0.02 + 1e-12

    @pytest.mark.parametrize("name", DATASET_NAMES)
    def test_seed_determinism(self, name):
        spec = DatasetSpec(name, 50, tau=0.01, seed=7)
        a = generate(spec)
        b = generate(spec)
        np.testing.assert_array_equal(a.coords, b.coords)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_different_seeds_differ(self):
        a = generate(DatasetSpec("two_segments", 50, seed=1))
        b = generate(DatasetSpec("two_segments", 50, seed=2))
        assert not np.array_equal(a.coords, b.coords)

    def test_metadata_recorded(self):
        for name in DATASET_NAMES:
            spec = DatasetSpec(name, 5, seed=0)
            cloud = generate(spec)
            assert cloud.seed == 0
            geom = geometry(spec)
            assert cloud.intrinsic_dim == geom.intrinsic_dim
            assert cloud.n_clusters == geom.n_clusters
            assert cloud.dim == geom.ambient_dim

    def test_arclength_uniformity_two_segments(self):
        spec = DatasetSpec("two_segments", 10_000, tau=0.0, angle=math.pi / 2, seed=4)
        cloud = generate(spec)
        seg1 = cloud.coords[cloud.labels == 1]
        positions = (seg1[:, 0] + 1.0) / 2.0  # arclength fraction along S1
        stat = kstest(positions, "uniform").statistic
        assert stat < 0.05

    # the next two go through the rejection sampler; 1.63/sqrt(n) is the
    # 1% critical value of the KS statistic
    def test_arclength_uniformity_curve(self):
        n = 10_000
        cloud = generate(DatasetSpec("two_curves_angle", n, seed=4))
        t = cloud.coords[cloud.labels == 1, 0]  # c(t) = (t, 0.35 t^2)

        def arclength(t):
            return integrate.quad(lambda s: math.sqrt(1.0 + 0.49 * s * s), -1.0, t)[0]

        total = arclength(1.0)
        cdf = np.vectorize(lambda t: arclength(t) / total)
        assert kstest(t, cdf).statistic < 1.63 / math.sqrt(n)

    def test_area_uniformity_paraboloid(self):
        n = 10_000
        cloud = generate(DatasetSpec("paraboloids", n, seed=4))
        rho = np.hypot(*cloud.coords[cloud.labels == 1, :2].T)

        def cdf(rho):  # area of the part over the disk of radius rho, normalized
            return ((1.0 + rho**2) ** 1.5 - 1.0) / (2.0**1.5 - 1.0)

        assert kstest(rho, cdf).statistic < 1.63 / math.sqrt(n)

    @pytest.mark.parametrize("name", DATASET_NAMES)
    def test_intersection_nonempty(self, name):
        n = 5000 if geometry(DatasetSpec(name, 1)).ambient_dim == 2 else 2000
        spec = DatasetSpec(name, n, tau=0.0, seed=5)
        cloud = generate(spec)
        d = geometry(spec).intrinsic_dim
        a = cloud.coords[cloud.labels == 1]
        b = cloud.coords[cloud.labels == 2]
        gap = cKDTree(a).query(b, k=1)[0].min()
        # crude per-cluster sampling spacing
        extent = np.ptp(a, axis=0).max()
        spacing = extent * (1.0 / n) ** (1.0 / d)
        assert gap <= 3 * spacing

    def test_proportional_mode(self):
        spec = DatasetSpec("monkey_saddle", 400, seed=6, proportional=True)
        cloud = generate(spec)
        counts = np.bincount(cloud.labels)[1:]
        assert counts.sum() == 800
        # the saddle has more area than the flat square, so it gets more points
        assert counts[0] > counts[1]


class TestGlobalRadius:
    def test_unit_circle(self):
        t = np.linspace(0, 2 * math.pi, 1000, endpoint=False)
        cloud = PointCloud(np.column_stack([np.cos(t), np.sin(t)]))
        assert global_radius(cloud) == pytest.approx(1.0, abs=1e-5)

    def test_single_point(self):
        assert global_radius(PointCloud(np.array([[3.0, 4.0]]))) == 0.0

    def test_two_segments_instance(self):
        cloud = generate(DatasetSpec("two_segments", 2000, angle=math.pi / 2, seed=8))
        assert global_radius(cloud) == pytest.approx(1.0, abs=0.05)


class TestDistanceToSurface:
    def test_point_on_surface(self):
        spec = DatasetSpec("two_segments", 4, seed=0)
        assert distance_to_surface(np.array([0.25, 0.0]), 1, spec) == 0.0

    def test_sphere_pole(self):
        spec = DatasetSpec("two_spheres", 4, seed=0)
        assert distance_to_surface(np.array([0.0, 0.0, 2.0]), 1, spec) == pytest.approx(1.0)

    def test_out_of_range_surface(self):
        spec = DatasetSpec("two_segments", 4, seed=0)
        with pytest.raises(InvalidInput):
            distance_to_surface(np.zeros(2), 3, spec)

    @pytest.mark.parametrize("name", ["two_curves_angle", "three_curves", "paraboloids"])
    def test_matches_dense_sampling_oracle(self, name):
        n = 20_000 if name != "paraboloids" else 120_000
        spec = DatasetSpec(name, n, tau=0.0, seed=9)
        cloud = generate(spec)
        rng = np.random.default_rng(10)
        surface_points = cloud.coords[cloud.labels == 1]
        tree = cKDTree(surface_points)
        checked = 0
        while checked < 10:
            p = rng.uniform(-1, 1, size=cloud.dim)
            if name == "paraboloids" and math.hypot(p[0], p[1]) > 0.85:
                continue  # rim-footed queries defeat a random-sample oracle
            got = distance_to_surface(p, 1, spec)
            if got < 0.1:
                continue  # sampling holes dominate for near-surface points
            oracle = float(tree.query(p)[0])
            assert got <= oracle + 1e-12  # the true distance is a lower bound
            assert abs(got - oracle) <= 1e-3
            checked += 1

    def test_plane_patch_clamps(self):
        spec = DatasetSpec("monkey_saddle", 4, seed=0)
        # directly above the square: distance is the height
        assert distance_to_surface(np.array([0.3, -0.2, 0.7]), 2, spec) == pytest.approx(0.7)
        # beyond the corner: distance to the corner point
        got = distance_to_surface(np.array([2.0, 2.0, 0.0]), 2, spec)
        assert got == pytest.approx(math.sqrt(2.0))
