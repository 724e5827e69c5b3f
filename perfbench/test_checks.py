"""Tests of the benchmark's own checks and tracer.

Each check must accept a correct output and reject a deliberately
corrupted one.  Run from the repository root:

    python3 -m pytest -q perfbench
"""

import math
from pathlib import Path

import numpy as np
import pytest

import checks

SRC = Path(__file__).resolve().parent.parent / "src"


def crossing_segments(m=200):
    t = np.linspace(-1, 1, m)
    coords = np.vstack([np.column_stack([t, 0 * t]), np.column_stack([0 * t, t])])
    truth = np.repeat([1, 2], m)
    return coords, truth


def test_misclustering_ignores_id_names_and_counts_swaps():
    truth = np.repeat([1, 2], 50)
    assert checks.misclustering(3 - truth, truth) == 0.0
    corrupted = truth.copy()
    corrupted[:10] = 2
    assert checks.misclustering(corrupted, truth) == pytest.approx(0.1)


def test_misclustering_penalizes_over_segmentation():
    truth = np.repeat([1, 2], 50)
    split = truth.copy()
    split[:20] = 3  # a third group inside cluster 1
    assert checks.misclustering(split, truth) == pytest.approx(0.2)


def test_groups():
    assert checks.check_groups([1, 2, 2, 1], exact=2) is None
    assert checks.check_groups([1, 2, 3], at_least=2) is None
    assert checks.check_groups([1, 1, 3, 3], exact=2) is not None  # id 2 unused
    assert checks.check_groups([1, 1, 1], exact=2) is not None
    assert checks.check_groups([1, 1, 1], at_least=2) is not None


def test_band_purity():
    coords, truth = crossing_segments()
    assert checks.check_band_purity(coords, truth, truth, band=0.15) is None
    near = np.flatnonzero(np.linalg.norm(coords, axis=1) <= 0.15)
    inside = truth.copy()
    inside[near] = 1  # mixing inside the band is allowed
    assert checks.check_band_purity(coords, inside, truth, band=0.15) is None
    far = np.flatnonzero((np.linalg.norm(coords, axis=1) > 0.5) & (truth == 1))
    corrupted = truth.copy()
    corrupted[far[0]] = 2
    assert checks.check_band_purity(coords, corrupted, truth, band=0.15) is not None


def brute_nearest_labels(coords, center_idx, center_labels):
    d2 = ((coords[:, None, :] - coords[center_idx][None, :, :]) ** 2).sum(axis=2)
    return center_labels[d2.argmin(axis=1)]


def test_nearest_center():
    rng = np.random.default_rng(0)
    coords = rng.uniform(size=(300, 2))
    center_idx = rng.choice(300, size=12, replace=False)
    labels = np.zeros(300, dtype=int)
    labels[center_idx] = rng.integers(1, 3, size=12)
    labels = brute_nearest_labels(coords, center_idx, labels[center_idx])
    assert checks.check_nearest_center(coords, labels, center_idx) is None
    # relabel a non-center point whose nearest center has the other label
    victim = next(i for i in range(300) if i not in center_idx)
    corrupted = labels.copy()
    corrupted[victim] = 3 - labels[victim]
    assert checks.check_nearest_center(coords, corrupted, center_idx) is not None


def test_nearest_center_accepts_rounding_ties_only():
    coords = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 0.0], [1.0 + 1e-12, 0.0], [1.1, 0.0]])
    center_idx = np.array([0, 1])
    labels = np.array([1, 2, 1, 2, 2])
    # points 2 and 3 are equidistant up to rounding: either label passes
    assert checks.check_nearest_center(coords, labels, center_idx) is None
    assert checks.check_nearest_center(coords, labels[[0, 1, 3, 2, 4]], center_idx) is None
    # point 4 is nearer center 1 by a clear margin
    corrupted = labels.copy()
    corrupted[4] = 1
    assert checks.check_nearest_center(coords, corrupted, center_idx) is not None


def test_epsilon_rule():
    rng = np.random.default_rng(1)
    y = rng.normal(size=(40, 3))
    d = np.sqrt(((y[:, None] - y[None]) ** 2).sum(axis=2))
    np.fill_diagonal(d, np.inf)
    want = d.min(axis=1).max()
    assert checks.epsilon_rule(y) == pytest.approx(want, rel=1e-14)
    assert checks.check_epsilon(want, y) is None
    assert checks.check_epsilon(want * (1 + 1e-9), y) is not None
    # the smallest nearest-neighbour distance is a plausible wrong rule
    assert checks.check_epsilon(d.min(), y) is not None


def test_rate():
    assert checks.check_rate("alg", 0.01, 0.05) is None
    assert checks.check_rate("alg", 0.06, 0.05) is not None
    assert checks.check_rate("alg", math.nan, 0.05) is not None


@pytest.fixture
def mmcluster_on_path(monkeypatch):
    monkeypatch.syspath_prepend(str(SRC))
    import mmcluster.cluster
    return mmcluster


def test_tracer_records_spans_and_restores(mmcluster_on_path):
    from mmcluster import cluster, datasets, linalg
    from tracer import Tracer

    original = linalg.eigh
    cloud = datasets.generate(datasets.DatasetSpec(
        "two_segments", n_per_cluster=150, tau=0.0, angle=math.pi / 2, seed=3))
    tracer = Tracer()
    tracer.install()
    try:
        assert linalg.eigh is not original
        cluster.algorithm4_local_pca_spectral(cloud, 0.1, 2, 1, np.random.default_rng(0))
    finally:
        tracer.uninstall()
    assert linalg.eigh is original
    metrics = tracer.metrics(1, Tracer())
    n0 = metrics["neighborhoods.centers"][0]
    assert n0 > 2
    assert metrics["local_pca.models"][0] == n0
    assert metrics["linalg.eigh.in_local_pca.calls"][0] == n0
    assert metrics["linalg.eigh.in_njw_partition.calls"][0] == 1
    assert metrics["affinity.pairs"][0] >= n0 * (n0 - 1) / 2
    assert all(v >= 0 for v, unit in metrics.values() if unit == "s")
    missing = tracer.missing()
    assert "cluster.algorithm4_local_pca_spectral" not in missing
    assert "cluster.algorithm2_cov_components" in missing


def test_tracer_peaks_nest(mmcluster_on_path):
    import tracemalloc

    from mmcluster import cluster, datasets
    from tracer import Tracer

    cloud = datasets.generate(datasets.DatasetSpec(
        "two_segments", n_per_cluster=400, tau=0.0, angle=math.pi / 2, seed=4))
    tracer = Tracer()
    tracemalloc.start()
    tracer.install()
    try:
        cluster.njw_baseline(cloud, 0.05, 2, np.random.default_rng(0))
    finally:
        tracer.uninstall()
        tracemalloc.stop()
    peaks = tracer.stats
    whole = peaks["cluster.njw_baseline"].peak_bytes
    # the label transfer holds an n x n0 x D float temporary
    assert whole >= cloud.n * tracer.counts["neighborhoods.centers"] * cloud.dim * 8
    for child in ("cluster.njw_partition", "affinity.distance_gaussian_affinity"):
        assert 0 < peaks[child].peak_bytes <= whole
