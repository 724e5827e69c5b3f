"""The benchmark's workloads and the one adapter that calls the pipelines.

A workload generates its clouds in ``setup`` and runs one operation per
``op`` call, which also checks that operation's output with the
independent checks of ``checks.py``; ``finish`` checks properties of the
whole run.  Package functions are looked up on their module at call time,
so the traced run sees its wrappers.  Inputs come only from the benchmark
seed: the same seed gives the same clouds and the same algorithm seeds.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, replace

import numpy as np

import checks
import mmcluster.cluster
from mmcluster import evaluation
from mmcluster.affinity import ScaleParams
from mmcluster.datasets import DatasetSpec, generate
from mmcluster.evaluation import MethodConfig
from mmcluster.seeding import derive_seed


def call_pipeline(name: str, cloud, **kwargs):
    """Run ``mmcluster.cluster.<name>`` and return (labels, diagnostics).

    This is the only place that knows how each pipeline hands back its
    diagnostics.
    """
    fn = getattr(mmcluster.cluster, name)
    if name in ("algorithm4_local_pca_spectral", "njw_baseline"):
        labeling, info = fn(cloud, return_info=True, **kwargs)
    else:
        labeling, info = fn(cloud, **kwargs), {}
    return labeling.assignments, info


def child_seed(seed: int, *path: int) -> int:
    """A 63-bit seed for input ``path`` of benchmark seed ``seed``."""
    state = np.random.SeedSequence([seed, *path]).generate_state(1, np.uint64)[0]
    return int(state >> np.uint64(1))


@dataclass
class OpResult:
    points: int                          # points clustered, over every pipeline call
    outputs: list = field(default_factory=list)   # label arrays or trial rates, hashed
    problem: str | None = None           # first failed check, if any
    rates: list = field(default_factory=list)     # misclustering, reported only


def digest(arrays) -> str:
    h = hashlib.sha256()
    for out in arrays:
        h.update(np.ascontiguousarray(out).tobytes())
    return h.hexdigest()


def first_problem(*reasons):
    return next((r for r in reasons if r), None)


class Workload:
    name = ""
    pool = 2          # clouds generated in setup; operation i uses cloud i % pool

    def __init__(self, seed: int):
        self.seed = seed
        self.clouds = []

    def setup(self) -> None:
        self.clouds = [generate(self.spec(child_seed(self.seed, 0, j)))
                       for j in range(self.pool)]

    def spec(self, data_seed: int) -> DatasetSpec:
        raise NotImplementedError

    def op(self, i: int) -> OpResult:
        raise NotImplementedError

    def rng(self, i: int) -> np.random.Generator:
        return np.random.default_rng(child_seed(self.seed, 1, i))

    def finish(self, results: list[OpResult]) -> str | None:
        return None

    def info(self, results: list[OpResult]) -> dict:
        return {}


class ComponentsSegments(Workload):
    """alg2 (Frobenius) and alg3 (spectral) on two segments crossing at a
    right angle: one local model per point, sparse indicator pairs and
    connected components; the dense center graph is never built."""

    name = "components_segments4k"
    pool = 8
    params = ScaleParams(r=0.05, eps=0.20, eta=0.22)
    alg2_bound = 0.05

    def spec(self, data_seed):
        return DatasetSpec("two_segments", n_per_cluster=2000, tau=0.0,
                           angle=math.pi / 2, seed=data_seed)

    def op(self, i):
        cloud = self.clouds[i % self.pool]
        lab2, _ = call_pipeline("algorithm2_cov_components", cloud,
                                params=self.params, norm="frobenius")
        lab3, _ = call_pipeline("algorithm3_proj_components", cloud,
                                params=self.params, norm="spectral")
        band = 3 * self.params.r
        problem = first_problem(
            checks.check_groups(lab2, exact=2),
            checks.check_groups(lab3, at_least=2),
            checks.check_band_purity(cloud.coords, lab2, cloud.labels, band),
            checks.check_band_purity(cloud.coords, lab3, cloud.labels, band),
            checks.check_rate("alg2", checks.misclustering(lab2, cloud.labels),
                              self.alg2_bound),
        )
        return OpResult(2 * cloud.n, [lab2, lab3], problem)


class CenterGraph(Workload):
    """alg4 at scale, optionally followed by the distance-only baseline on
    the same cloud.  alg4's output must have exactly 2 groups, carry the
    label of each point's nearest returned center, and use the epsilon
    rule.  Its misclustering is reported, not checked: on some seeds the
    spectral step splits off a disconnected piece of the center graph
    (README, known defect), and a check that fails on some seeds makes the
    share of failed operations differ between runs.  The baseline's
    misclustering is checked against ``baseline_bound``."""

    r = 0.0
    d = 1
    baseline_bound: float | None = None   # None: no baseline in the operation

    def op(self, i):
        cloud = self.clouds[i % self.pool]
        labels, info = call_pipeline("algorithm4_local_pca_spectral", cloud,
                                     r=self.r, k=2, d=self.d, rng=self.rng(i))
        centers = info["center_indices"]
        problems = [
            checks.check_groups(labels, exact=2),
            checks.check_nearest_center(cloud.coords, labels, centers),
            checks.check_epsilon(info["eps"], cloud.coords[centers]),
        ]
        res = OpResult(cloud.n, [labels], rates=[checks.misclustering(labels, cloud.labels)])
        if self.baseline_bound is not None:
            base, _ = call_pipeline("njw_baseline", cloud, r=self.r, k=2, rng=self.rng(i))
            base_rate = checks.misclustering(base, cloud.labels)
            problems += [checks.check_groups(base, exact=2),
                         checks.check_rate("baseline", base_rate, self.baseline_bound)]
            res.points += cloud.n
            res.outputs.append(base)
            res.rates.append(base_rate)
        res.problem = first_problem(*problems)
        return res

    def info(self, results):
        rates = np.array([res.rates for res in results])
        if rates.size == 0:
            return {}
        out = {"alg4_median_rate": float(np.median(rates[:, 0])),
               "alg4_max_rate": float(rates[:, 0].max()),
               "alg4_share_below_5pct": float((rates[:, 0] <= 0.05).mean())}
        if rates.shape[1] == 2:
            out["baseline_median_rate"] = float(np.median(rates[:, 1]))
            out["alg4_share_below_baseline"] = float((rates[:, 0] < rates[:, 1]).mean())
        return out


class CenterGraphSpheres(CenterGraph):
    """alg4 then the baseline on two intersecting spheres: about 1400
    centers, so the n0 x n0 affinities, the n0 x n0 eigensolves and the
    label transfer of 16k points dominate."""

    name = "center_graph_spheres16k"
    r = 0.1
    d = 2
    baseline_bound = 0.15

    def spec(self, data_seed):
        return DatasetSpec("two_spheres", n_per_cluster=8000, tau=0.0, seed=data_seed)


class TransferCurves(CenterGraph):
    """alg4 on 100k points of two crossing curves: n is far above n0
    (about 640 centers), so nearest-center label transfer and its
    n x n0 x D temporary dominate time and memory."""

    name = "transfer_curves100k"
    r = 0.005

    def spec(self, data_seed):
        return DatasetSpec("two_curves_angle", n_per_cluster=50000, tau=0.0,
                           angle=math.pi / 2, seed=data_seed)


class TrialsFig1(Workload):
    """One seeded trial of the Fig. 1 crossing experiment per operation,
    for alg4 and for the baseline.  Small clouds (about 60 centers), so
    per-call overhead, generation, k-means restarts and scoring dominate.
    Generation is part of the timed harness."""

    name = "trials_fig1"
    pool = 0
    trial_spec = DatasetSpec("two_segments", n_per_cluster=1000, tau=0.01,
                        angle=math.pi / 2, seed=0)
    alg4 = MethodConfig(method="alg4", r=0.05, k=2, d=1)
    baseline = MethodConfig(method="njw_baseline", r=0.05, k=2)
    good_rate, good_share = 0.05, 0.80

    def op(self, i):
        base = child_seed(self.seed, 2, i)
        ours = evaluation.run_trials(self.trial_spec, self.alg4, 1, base_seed=base)
        theirs = evaluation.run_trials(self.trial_spec, self.baseline, 1, base_seed=base)
        rates = np.array([ours.rates[0], theirs.rates[0]])
        errors = [e for e in ours.errors + theirs.errors if e]
        problem = first_problem(
            f"trial recorded an error: {errors[0]}" if errors else None,
            None if ((rates >= 0) & (rates <= 1)).all() else f"rates {rates} outside [0, 1]",
        )
        return OpResult(2 * 2 * self.trial_spec.n_per_cluster, [rates], problem)

    def spot_check(self) -> str | None:
        """Redo trial 0 of operation 0 through the adapter and score it here:
        the rate run_trials reported must match, and alg4's output must
        satisfy the nearest-center and epsilon rules."""
        base = child_seed(self.seed, 2, 0)
        reported = evaluation.run_trials(self.trial_spec, self.alg4, 1, base_seed=base).rates[0]
        trial_seed = derive_seed(base, 0)
        cloud = generate(replace(self.trial_spec, seed=derive_seed(trial_seed, 0)))
        labels, info = call_pipeline(
            "algorithm4_local_pca_spectral", cloud, r=self.alg4.r, k=2, d=1,
            rng=np.random.default_rng(derive_seed(trial_seed, 1)))
        rate = checks.misclustering(labels, cloud.labels)
        centers = cloud.coords[info["center_indices"]]
        return first_problem(
            None if abs(rate - reported) <= 1e-12
            else f"run_trials reported {reported}, recomputed {rate}",
            checks.check_nearest_center(cloud.coords, labels, info["center_indices"]),
            checks.check_epsilon(info["eps"], centers),
        )

    @staticmethod
    def rates(results) -> np.ndarray:
        """(alg4, baseline) rate per operation, one row each."""
        return np.array([res.outputs[0] for res in results]).reshape(-1, 2)

    def finish(self, results):
        rates = self.rates(results)
        if rates.size == 0:
            return None
        share = float((rates[:, 0] < self.good_rate).mean())
        med4, medb = np.median(rates[:, 0]), np.median(rates[:, 1])
        return first_problem(
            None if share >= self.good_share
            else f"only {share:.2%} of alg4 trials below {self.good_rate}",
            None if medb > med4 else f"baseline median {medb} not above alg4 median {med4}",
        )

    def info(self, results):
        rates = self.rates(results)
        if rates.size == 0:
            return {}
        return {"alg4_share_below_5pct": float((rates[:, 0] < self.good_rate).mean()),
                "alg4_median_rate": float(np.median(rates[:, 0])),
                "baseline_median_rate": float(np.median(rates[:, 1]))}


WORKLOADS = {w.name: w for w in (ComponentsSegments, CenterGraphSpheres,
                                 TransferCurves, TrialsFig1)}
