import itertools
import math
import tracemalloc

import numpy as np
import pytest

from mmcluster.datasets import DatasetSpec
from mmcluster.errors import InvalidInput
from mmcluster.evaluation import (
    MethodConfig,
    angle_sweep,
    lower_median,
    misclustering_rate,
    run_trials,
)


def exhaustive_rate(pred, truth, k):
    """Oracle: pad the contingency table square, try every permutation."""
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    k_found = int(pred.max())
    size = max(k, k_found)
    table = np.zeros((size, size), dtype=int)
    for t, p in zip(truth, pred):
        table[t - 1, p - 1] += 1
    best = max(sum(table[perm[c], c] for c in range(size))
               for perm in itertools.permutations(range(size)))
    return 1.0 - best / len(truth)


class TestMisclusteringRate:
    def test_exact_match(self):
        truth = np.array([1, 1, 2, 2, 2])
        assert misclustering_rate(truth.copy(), truth, 2) == 0.0

    def test_label_swap_is_free(self):
        truth = np.array([1, 1, 2, 2, 2])
        pred = np.array([2, 2, 1, 1, 1])
        assert misclustering_rate(pred, truth, 2) == 0.0

    def test_single_flip(self):
        truth = np.array([1, 1, 1, 1, 2, 2, 2, 2, 2, 2])
        pred = truth.copy()
        pred[0] = 2
        assert misclustering_rate(pred, truth, 2) == pytest.approx(0.1)

    def test_length_mismatch(self):
        with pytest.raises(InvalidInput):
            misclustering_rate(np.array([1, 2]), np.array([1, 2, 1]), 2)

    def test_predicted_labels_must_be_1_based(self):
        # unchecked, a label below 1 indexes the table from its end: 0 reads
        # as the last cluster (rate 1/3), [-1, 1, 2] scores 0, and
        # [-1, -1, 1] raises IndexError
        for pred in ([0, 0, 1], [-1, 1, 2], [-1, -1, 1]):
            with pytest.raises(InvalidInput):
                misclustering_rate(np.array(pred), np.array([1, 1, 2]), 2)

    def test_table_bounded_by_distinct_labels(self):
        # sized by the largest label, the table of these three points held
        # 2 x 10**6 counts, and the call's traced peak was 48 MB
        tracemalloc.start()
        try:
            rate = misclustering_rate([1, 2, 10**6], [1, 2, 2], 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rate == pytest.approx(1 / 3)
        assert peak < 100_000

    def test_non_integer_labels_rejected(self):
        # unchecked, [1.9, 2.2, 2.7] was truncated to [1, 2, 2] and scored 0
        for pred in ([1.9, 2.2, 2.7], [1.0, math.nan, 2.0], [1.0, math.inf, 2.0],
                     [1.0, 2.0, 1e300], ["1", "2", "2"]):
            with pytest.raises(InvalidInput):
                misclustering_rate(pred, [1, 2, 2], 2)
        with pytest.raises(InvalidInput):
            misclustering_rate([1, 2, 2], [1.5, 2.0, 2.0], 2)
        assert misclustering_rate([1.0, 2.0, 2.0], np.array([1.0, 2.0, 2.0]), 2) == 0.0

    def test_empty_input(self):
        with pytest.raises(InvalidInput):
            misclustering_rate(np.array([], dtype=int), np.array([], dtype=int), 2)

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            k = int(rng.integers(2, 4))
            k_found = int(rng.integers(1, 5))
            n = int(rng.integers(5, 40))
            truth = rng.integers(1, k + 1, size=n)
            pred = rng.integers(1, k_found + 1, size=n)
            # make sure every id up to the max actually appears
            truth[:k] = np.arange(1, k + 1)
            pred[-k_found:] = np.arange(1, k_found + 1)
            got = misclustering_rate(pred, truth, k)
            assert got == pytest.approx(exhaustive_rate(pred, truth, k))

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(1)
        truth = rng.integers(1, 4, size=60)
        truth[:3] = [1, 2, 3]
        pred = rng.integers(1, 4, size=60)
        pred[:3] = [1, 2, 3]
        base = misclustering_rate(pred, truth, 3)
        for _ in range(10):
            perm_p = rng.permutation(3) + 1
            perm_t = rng.permutation(3) + 1
            assert misclustering_rate(perm_p[pred - 1], perm_t[truth - 1], 3) \
                == pytest.approx(base)

    def test_symmetry_on_square_tables(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            truth = rng.integers(1, 4, size=30)
            pred = rng.integers(1, 4, size=30)
            truth[:3] = [1, 2, 3]
            pred[:3] = [1, 2, 3]
            assert misclustering_rate(pred, truth, 3) == \
                pytest.approx(misclustering_rate(truth, pred, 3))

    def test_oversegmentation_penalized(self):
        truth = np.array([1, 1, 1, 1])
        pred = np.array([1, 1, 2, 3])  # split one true cluster into three
        assert misclustering_rate(pred, truth, 1) == pytest.approx(0.5)


class TestLowerMedian:
    def test_odd(self):
        assert lower_median([3.0, 1.0, 2.0]) == 2.0

    def test_even_takes_lower_middle(self):
        assert lower_median([4.0, 1.0, 3.0, 2.0]) == 2.0


QUICK_SPEC = DatasetSpec("two_segments", n_per_cluster=150, tau=0.01,
                         angle=math.pi / 2, seed=0)
QUICK_CFG = MethodConfig(method="alg4", r=0.1, k=2, d=1)


class TestRunTrials:
    def test_single_trial_median(self):
        stats = run_trials(QUICK_SPEC, QUICK_CFG, 1, base_seed=5)
        assert stats.median == stats.rates[0]
        assert len(stats.rates) == 1

    def test_counts_match_recount(self):
        stats = run_trials(QUICK_SPEC, QUICK_CFG, 12, base_seed=3)
        for thr, cnt in stats.count_below.items():
            assert cnt == sum(r < thr for r in stats.rates)
        assert stats.count_below[0.05] <= stats.count_below[0.10] <= stats.count_below[0.15]

    def test_reproducible_and_thread_invariant(self):
        a = run_trials(QUICK_SPEC, QUICK_CFG, 8, base_seed=11, threads=1)
        b = run_trials(QUICK_SPEC, QUICK_CFG, 8, base_seed=11, threads=4)
        assert a.rates == b.rates
        assert a.k_found == b.k_found
        assert a.r_over_R == b.r_over_R

    def test_exact_method_gives_zero_median_and_full_counts(self, monkeypatch):
        import mmcluster.evaluation as ev
        from mmcluster.cluster import Labeling

        def oracle_method(cloud, cfg, seed):
            return Labeling(assignments=cloud.labels.copy(),
                            K_found=int(cloud.labels.max()))

        monkeypatch.setattr(ev, "run_method", oracle_method)
        stats = ev.run_trials(QUICK_SPEC, QUICK_CFG, 5, base_seed=0)
        assert stats.rates == [0.0] * 5
        assert stats.median == 0.0
        assert stats.count_below == {0.05: 5, 0.10: 5, 0.15: 5}

    def test_failures_recorded_not_raised(self):
        # more clusters than centers: every trial fails with TooFewCenters
        cfg = MethodConfig(method="alg4", r=5.0, k=10, d=1)
        stats = run_trials(QUICK_SPEC, cfg, 3, base_seed=0)
        assert stats.rates == [1.0, 1.0, 1.0]
        assert all(e is not None and "TooFewCenters" in e for e in stats.errors)

    def test_r_over_R(self):
        stats = run_trials(QUICK_SPEC, QUICK_CFG, 2, base_seed=1)
        assert 0 < stats.r_over_R < 1
        assert stats.r_used == QUICK_CFG.r


class TestAngleSweep:
    def test_single_angle_equals_run_trials(self):
        spec = DatasetSpec("two_curves_angle", n_per_cluster=120, tau=0.0,
                           angle=math.pi / 2, seed=0)
        cfg = MethodConfig(method="alg4", r=0.1, k=2, d=1)
        sweep = angle_sweep([math.pi / 4], spec, cfg, 3, base_seed=9)
        direct = run_trials(
            DatasetSpec("two_curves_angle", n_per_cluster=120, tau=0.0,
                        angle=math.pi / 4, seed=0), cfg, 3, base_seed=9)
        assert sweep[math.pi / 4].rates == direct.rates

    def test_empty_angle_list(self):
        assert angle_sweep([], QUICK_SPEC, QUICK_CFG, 3, base_seed=0) == {}

    def test_desk_scale_trend(self):
        # the sharp crossing is easier than the shallow one
        spec = DatasetSpec("two_curves_angle", n_per_cluster=800, tau=0.0,
                           angle=math.pi / 2, seed=0)
        cfg = MethodConfig(method="alg4", r=0.03, k=2, d=1)
        sweep = angle_sweep([math.pi / 2, math.pi / 8], spec, cfg, 8, base_seed=5)
        assert sweep[math.pi / 2].median < sweep[math.pi / 8].median


class TestMethodConfigValidation:
    def test_alg3_requires_eta_below_one(self):
        with pytest.raises(InvalidInput):
            MethodConfig(method="alg3", r=0.1, eps=0.2, eta=1.2)

    def test_alg2_requires_scales(self):
        with pytest.raises(InvalidInput):
            MethodConfig(method="alg2", r=0.1)

    def test_alg4_requires_k_and_d(self):
        with pytest.raises(InvalidInput):
            MethodConfig(method="alg4", r=0.1, k=2)

    @pytest.mark.parametrize("field", ["k", "d", "ell"])
    @pytest.mark.parametrize("method", ["alg4", "njw_baseline"])
    def test_counts_below_one_rejected(self, method, field):
        with pytest.raises(InvalidInput, match=f"{field} must be >= 1"):
            MethodConfig(**{"method": method, "r": 0.1, "k": 2, "d": 1, field: 0})

    @pytest.mark.parametrize("method", ["alg2", "alg3"])
    def test_unknown_norm(self, method):
        with pytest.raises(InvalidInput, match="unknown norm mode 'bogus'"):
            MethodConfig(method=method, r=0.1, eps=0.2, eta=0.5, norm="bogus")

    def test_unknown_method(self):
        with pytest.raises(InvalidInput):
            MethodConfig(method="dbscan", r=0.1)

    def test_unknown_affinity_kind(self):
        # checked on construction, so run_trials cannot record a typo as
        # a sweep of failed trials
        with pytest.raises(InvalidInput, match="unknown affinity kind 'bogus'"):
            MethodConfig(method="alg4", r=0.1, k=2, d=1, affinity="bogus")
