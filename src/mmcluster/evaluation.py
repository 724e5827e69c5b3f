"""Misclustering rate and the repeated-trial experiment harness."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.optimize import linear_sum_assignment

from . import cluster as clu
from .affinity import ScaleParams, check_kind, check_norm, check_scales, lower_median
from .cluster import Labeling
from .datasets import DatasetSpec, generate, global_radius
from .errors import InvalidInput, MMClusterError
from .neighborhoods import PointCloud
from .seeding import derive_seed

Array = np.ndarray

RATE_THRESHOLDS = (0.05, 0.10, 0.15)


def _integer_labels(labels, name: str) -> Array:
    """``labels`` as an int array; InvalidInput unless each one is an
    integer (NaN, inf and values past the int range cast to others)."""
    labels = np.asarray(labels)
    if labels.dtype.kind not in "iuf":
        raise InvalidInput(f"{name} labels must be integers")
    with np.errstate(invalid="ignore"):
        as_int = labels.astype(int)
    if not (as_int == labels).all():
        raise InvalidInput(f"{name} labels must be integers")
    return as_int


def misclustering_rate(pred, truth: Array, k: int) -> float:
    """Fraction of points misassigned under the best injective matching of
    predicted cluster ids to true labels (optimal assignment on the
    contingency table).  Predicted clusters left unmatched count all of
    their members as errors, which penalizes over-segmentation.  The table
    has one column per distinct predicted id, so its size is bounded by
    k n, whatever the ids' values.
    """
    pred_labels = _integer_labels(pred.assignments if isinstance(pred, Labeling) else pred,
                                  "predicted")
    truth = _integer_labels(truth, "true")
    if pred_labels.shape != truth.shape:
        raise InvalidInput("prediction and truth have different lengths")
    if truth.size == 0:
        raise InvalidInput("no labels to score")
    if truth.min() < 1 or truth.max() > k:
        raise InvalidInput(f"truth labels must lie in [1..{k}]")
    if pred_labels.min() < 1:
        raise InvalidInput("predicted labels must be 1-based")
    ids, pred_ids = np.unique(pred_labels, return_inverse=True)
    table = np.bincount((truth.ravel() - 1) * ids.size + pred_ids.ravel(),
                        minlength=k * ids.size).reshape(k, ids.size)
    rows, cols = linear_sum_assignment(-table)
    correct = int(table[rows, cols].sum())
    return 1.0 - correct / truth.size


@dataclass
class MethodConfig:
    """Which pipeline to run and with what parameters."""

    method: str                      # alg2 | alg3 | alg4 | njw_baseline
    r: float
    k: int | None = None
    d: int | None = None
    eps: float | None = None
    eta: float | None = None
    affinity: str = "gauss"
    norm: str = "spectral"
    ell: int = 10
    alpha: float = 2.0

    def __post_init__(self):
        if self.method not in ("alg2", "alg3", "alg4", "njw_baseline"):
            raise InvalidInput(f"unknown method {self.method!r}")
        check_scales(r=self.r, eps=self.eps, eta=self.eta, alpha=self.alpha)
        check_norm(self.norm)
        check_kind(self.affinity)
        for name, value in (("k", self.k), ("d", self.d), ("ell", self.ell)):
            if value is not None and value < 1:
                raise InvalidInput(f"{name} must be >= 1")
        if self.method in ("alg2", "alg3") and (self.eps is None or self.eta is None):
            raise InvalidInput(f"{self.method} requires explicit eps and eta")
        if self.method == "alg3" and not (0 < self.eta < 1):
            raise InvalidInput("alg3 requires 0 < eta < 1")
        if self.method == "alg4" and (self.k is None or self.d is None):
            raise InvalidInput("alg4 requires K and d")
        if self.method == "njw_baseline" and self.k is None:
            raise InvalidInput("njw_baseline requires K")
        if self.method in ("alg4", "njw_baseline") and self.norm != "spectral":
            raise InvalidInput(f"{self.method} compares in the spectral norm only")


def run_method(cloud: PointCloud, cfg: MethodConfig, seed: int) -> Labeling:
    """Run the configured pipeline on a point cloud with a fresh generator."""
    rng = np.random.default_rng(seed)
    if cfg.method in ("alg2", "alg3"):
        run = {"alg2": clu.algorithm2_cov_components, "alg3": clu.algorithm3_proj_components}
        return run[cfg.method](cloud, ScaleParams(r=cfg.r, eps=cfg.eps, eta=cfg.eta),
                               norm=cfg.norm)
    if cfg.method == "alg4":
        return clu.algorithm4_local_pca_spectral(
            cloud, cfg.r, cfg.k, cfg.d, rng, eps=cfg.eps, eta=cfg.eta,
            affinity_kind=cfg.affinity, ell=cfg.ell, alpha=cfg.alpha)
    return clu.njw_baseline(cloud, cfg.r, cfg.k, rng, eps=cfg.eps)


@dataclass
class TrialStats:
    """Per-configuration statistics over repeated seeded trials."""

    rates: list[float]
    median: float
    count_below: dict[float, int]
    r_used: float
    r_over_R: float
    k_found: list[int] = field(default_factory=list)
    errors: list[str | None] = field(default_factory=list)


def _single_trial(spec: DatasetSpec, cfg: MethodConfig, base_seed: int, t: int):
    trial_seed = derive_seed(base_seed, t)
    data_seed = derive_seed(trial_seed, 0)
    algo_seed = derive_seed(trial_seed, 1)
    cloud = generate(replace(spec, seed=data_seed))
    radius = global_radius(cloud)
    k_true = int(cloud.n_clusters)
    try:
        labeling = run_method(cloud, cfg, algo_seed)
        rate = misclustering_rate(labeling, cloud.labels, k_true)
        return rate, int(labeling.K_found), None, radius
    except MMClusterError as exc:
        return 1.0, 0, f"{type(exc).__name__}: {exc}", radius


def run_trials(spec: DatasetSpec, cfg: MethodConfig, n_trials: int,
               base_seed: int, threads: int = 1) -> TrialStats:
    """Repeat generation + clustering ``n_trials`` times with derived seeds.

    Trial t draws its dataset seed and algorithm seed from
    derive_seed(derive_seed(base_seed, t), 0|1), so results do not depend
    on execution order or thread count.  A failing trial is recorded as
    rate 1.0 with an error note instead of aborting the sweep.
    """
    if n_trials < 1:
        raise InvalidInput("n_trials must be >= 1")

    def work(t):
        return _single_trial(spec, cfg, base_seed, t)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            outcomes = list(pool.map(work, range(n_trials)))
    else:
        outcomes = [work(t) for t in range(n_trials)]

    rates, k_found, notes, radii = map(list, zip(*outcomes))
    counts = {thr: int(sum(r < thr for r in rates)) for thr in RATE_THRESHOLDS}
    mean_radius = float(np.mean(radii))
    return TrialStats(
        rates=rates,
        median=lower_median(rates),
        count_below=counts,
        r_used=cfg.r,
        r_over_R=cfg.r / mean_radius if mean_radius > 0 else float("inf"),
        k_found=k_found,
        errors=notes,
    )


def angle_sweep(angles, spec: DatasetSpec, cfg: MethodConfig, n_trials: int,
                base_seed: int, threads: int = 1) -> dict[float, TrialStats]:
    """run_trials for each intersection angle; same base seed per angle."""
    out: dict[float, TrialStats] = {}
    for a in angles:
        out[float(a)] = run_trials(replace(spec, angle=float(a)), cfg,
                                   n_trials, base_seed, threads=threads)
    return out
