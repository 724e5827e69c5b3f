"""Acceptance suite: one test per release criterion, each printing a
single PASS/FAIL line.  Run with `pytest tests/test_acceptance.py -s`.
"""

import itertools
import math
import time

import numpy as np
import scipy.linalg

from conftest import random_orthonormal, random_projection
from mmcluster import cli, linalg
from mmcluster.affinity import ScaleParams, auto_epsilon, auto_eta
from mmcluster.cluster import (
    algorithm2_cov_components,
    algorithm3_proj_components,
    njw_partition,
)
from mmcluster.datasets import DatasetSpec, generate
from mmcluster.evaluation import MethodConfig, angle_sweep, run_trials
from mmcluster.local_pca import LocalModels, estimate_projection, local_covariance
from mmcluster.neighborhoods import PointCloud
from mmcluster.seeding import derive_seed


def check(criterion, ok, detail):
    print(f"\n[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_fig1_reproduction():
    # two rectangular strips crossing at a right angle: the local PCA
    # pipeline resolves the crossing in the large majority of trials
    spec = DatasetSpec("two_segments", n_per_cluster=1000, tau=0.01,
                       angle=math.pi / 2, seed=0)
    cfg = MethodConfig(method="alg4", r=0.05, k=2, d=1)
    start = time.perf_counter()
    stats = run_trials(spec, cfg, 100, base_seed=2024)
    elapsed = time.perf_counter() - start
    good = stats.count_below[0.05]
    check(1, good >= 80 and elapsed < 60.0,
          f"{good}/100 trials < 5% misclustering, sweep {elapsed:.1f}s")


def test_criterion_2_angle_trend():
    spec = DatasetSpec("two_curves_angle", n_per_cluster=1500, tau=0.0,
                       angle=math.pi / 2, seed=0)
    cfg = MethodConfig(method="alg4", r=0.02, k=2, d=1)
    start = time.perf_counter()
    sweep = angle_sweep([math.pi / 2, math.pi / 4, math.pi / 8],
                        spec, cfg, 50, base_seed=7)
    elapsed = time.perf_counter() - start
    m2 = sweep[math.pi / 2].median
    m4 = sweep[math.pi / 4].median
    m8 = sweep[math.pi / 8].median
    ok = (m2 <= 0.10 and m4 <= 0.10 and m8 >= 0.15 and m8 >= 2 * m2
          and elapsed <= 300.0)
    check(2, ok, f"medians pi/2={m2:.3f} pi/4={m4:.3f} pi/8={m8:.3f}, {elapsed:.0f}s")


# Scales for the noiseless right-angle instance, ordered tau=0 < r < eps < eta
# as in the guarantee; the covariance comparison runs in Frobenius mode, where
# the pure cross-cluster gap is sqrt(2) r^2/3 and the mixed-vs-pure gap at the
# crossing is sqrt(2) r^2/6, so eta = 0.22 removes the crossing band while
# keeping same-cluster edges.
THEOREM1 = ScaleParams(r=0.05, eps=0.20, eta=0.22)


def _exclusion_band_pure(cloud, labeling, band):
    far = np.linalg.norm(cloud.coords, axis=1) > band
    for cid in range(1, labeling.K_found + 1):
        sel = far & (labeling.assignments == cid)
        if sel.any() and len(np.unique(cloud.labels[sel])) > 1:
            return False
    return True


def test_criterion_3_theorem1_property():
    trials = 100
    ok2 = ok3 = 0
    for t in range(trials):
        seed = derive_seed(7777, t)
        cloud = generate(DatasetSpec("two_segments", n_per_cluster=2000,
                                     tau=0.0, angle=math.pi / 2, seed=seed))
        lab2 = algorithm2_cov_components(cloud, THEOREM1, norm="frobenius")
        if lab2.K_found == 2 and _exclusion_band_pure(cloud, lab2, 3 * THEOREM1.r):
            ok2 += 1
        lab3 = algorithm3_proj_components(cloud, THEOREM1, norm="spectral")
        if lab3.K_found >= 2 and _exclusion_band_pure(cloud, lab3, 3 * THEOREM1.r):
            ok3 += 1
    check(3, ok2 >= 95 and ok3 >= 95,
          f"alg2 {ok2}/100 exact-2-groups+pure, alg3 {ok3}/100 >=2-groups+pure")


def _dense_two_segments(theta, total=100_000):
    m = total // 2
    t = -1.0 + (np.arange(m) + 0.5) * (2.0 / m)
    s1 = np.column_stack([t, np.zeros(m)])
    s2 = t[:, None] * np.array([math.cos(theta), math.sin(theta)])[None, :]
    return PointCloud(np.vstack([s1, s2]))


def test_criterion_4_worked_example_closed_forms():
    r = 0.25
    errs = []
    for theta in (math.pi / 2, math.pi / 4):
        cloud = _dense_two_segments(theta)
        x0 = np.array([1.0, 0.0])
        x1 = np.array([0.5, 0.0])
        x2 = 0.5 * np.array([math.cos(theta), math.sin(theta)])
        c0 = local_covariance(cloud, x0, r)
        c1 = local_covariance(cloud, x1, r)
        c2 = local_covariance(cloud, x2, r)

        got_boundary = linalg.frobenius_norm(c0 - c1)
        want_boundary = r**2 / 4
        errs.append(abs(got_boundary - want_boundary) / want_boundary)

        got_cross = linalg.frobenius_norm(c1 - c2)
        want_cross = math.sqrt(2) * r**2 / 3 * math.sin(theta)
        errs.append(abs(got_cross - want_cross) / want_cross)

        q1 = estimate_projection(c1, 1)
        q2 = estimate_projection(c2, 1)
        got_q = linalg.frobenius_norm(q1 - q2)
        want_q = math.sqrt(2) * math.sin(theta)
        q_err = abs(got_q - want_q) / want_q
        assert q_err <= 0.01, f"projection gap off by {q_err:.4f}"
    ok = max(errs) <= 0.02
    check(4, ok, f"max covariance relative error {max(errs):.4f}, projections within 1%")


def test_criterion_5_lemma_oracles():
    # (a) covariance of the uniform distribution on a d-ball in a random
    # d-plane equals r^2/(d+2) times the plane projection
    rng = np.random.default_rng(123)
    worst = 0.0
    for d, ambient in ((1, 2), (2, 3), (2, 5)):
        r = 0.9
        basis = random_orthonormal(rng, ambient, d)
        u = rng.normal(size=(100_000, d))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        radii = r * rng.uniform(0, 1, size=100_000) ** (1.0 / d)
        pts = (u * radii[:, None]) @ basis.T
        pts -= pts.mean(axis=0)
        cov = pts.T @ pts / pts.shape[0]
        target = (r**2 / (d + 2)) * (basis @ basis.T)
        rel = linalg.spectral_norm(cov - target) / (r**2 / (d + 2))
        worst = max(worst, rel)
    ok_a = worst <= 0.02

    # (b) ||P - Q|| equals sin(theta_max) for equal dimensions, 1 otherwise
    rng = np.random.default_rng(321)
    worst_eq = worst_ne = 0.0
    for _ in range(1000):
        ambient = int(rng.integers(3, 8))
        d1 = int(rng.integers(1, ambient))
        p = random_projection(rng, ambient, d1)
        q_eq = random_projection(rng, ambient, d1)
        theta_max = linalg.principal_angles(p, q_eq)[0]
        worst_eq = max(worst_eq,
                       abs(linalg.spectral_norm(p - q_eq) - math.sin(theta_max)))
        d2 = d1 % (ambient - 1) + 1 if ambient > 2 else 1
        if d2 != d1:
            q_ne = random_projection(rng, ambient, d2)
            worst_ne = max(worst_ne, abs(linalg.spectral_norm(p - q_ne) - 1.0))
    ok_b = worst_eq <= 1e-9 and worst_ne <= 1e-9
    check(5, ok_a and ok_b,
          f"ball-cov rel err {worst:.4f}; P-diff errs eq={worst_eq:.2e} ne={worst_ne:.2e}")


def _brute_force_njw(w, k):
    """Independent spectral partitioning: explicit normalization loops,
    scipy eigendecomposition, exhaustive k-means over all assignments."""
    n = w.shape[0]
    deg = [float(sum(w[i])) for i in range(n)]
    z = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            z[i, j] = w[i, j] / math.sqrt(deg[i] * deg[j])
    vals, vecs = scipy.linalg.eigh(z)
    rows = vecs[:, ::-1][:, :k].copy()
    for i in range(n):
        norm = math.sqrt(float((rows[i] ** 2).sum()))
        if norm > 0:
            rows[i] /= norm
    best_inertia, best = np.inf, None
    for assign in itertools.product(range(k), repeat=n):
        a = np.asarray(assign)
        inertia = 0.0
        for kk in range(k):
            members = rows[a == kk]
            if len(members):
                c = members.mean(axis=0)
                inertia += float(((members - c) ** 2).sum())
        if inertia < best_inertia - 1e-12:
            best_inertia, best = inertia, a
    return best


def _same_partition(a, b):
    a = np.asarray(a)
    b = np.asarray(b)
    return bool((((a[:, None] == a[None, :]) == (b[:, None] == b[None, :]))).all())


def _random_block_affinity(rng, n, k):
    sizes = rng.multinomial(n - k, np.full(k, 1.0 / k)) + 1
    w = rng.uniform(0.02, 0.15, size=(n, n))
    start = 0
    for s in sizes:
        w[start:start + s, start:start + s] += rng.uniform(0.6, 1.0, size=(s, s))
        start += s
    w = 0.5 * (w + w.T)
    np.fill_diagonal(w, 1.0)
    return w


def test_criterion_6_njw_oracle_equivalence():
    rng = np.random.default_rng(2718)
    mismatches = 0
    for case in range(200):
        k = 2 if case % 4 else 3
        n = int(rng.integers(6, 13)) if k == 2 else int(rng.integers(6, 9))
        w = _random_block_affinity(rng, n, k)
        ours = njw_partition(w, k, np.random.default_rng(derive_seed(555, case)))
        oracle = _brute_force_njw(w, k)
        if not _same_partition(ours.assignments, oracle):
            mismatches += 1
    check(6, mismatches == 0, f"{200 - mismatches}/200 label agreements")


def test_criterion_7_auto_parameter_rules():
    rng = np.random.default_rng(99)
    eps_ok = eta_ok = 0
    for _ in range(100):
        n0 = int(rng.integers(5, 40))
        ambient = int(rng.integers(2, 4))
        y = rng.normal(size=(n0, ambient))
        projs = np.stack([random_projection(rng, ambient, int(rng.integers(1, ambient)))
                          for _ in range(n0)])
        models = LocalModels(centers=y, neighbor_count=np.ones(n0, dtype=int),
                             covariance=np.zeros((n0, ambient, ambient)), projection=projs,
                             est_dim=np.rint(np.trace(projs, axis1=1, axis2=2)).astype(int),
                             degenerate=np.zeros(n0, dtype=bool))
        got_eps = auto_epsilon(y)
        # brute-force double loop
        best = -math.inf
        for i in range(n0):
            nearest = math.inf
            for j in range(n0):
                if i != j:
                    nearest = min(nearest, float(np.sqrt(((y[i] - y[j]) ** 2).sum())))
            best = max(best, nearest)
        eps_ok += (got_eps == best)

        got_eta = auto_eta(models, got_eps)
        vals = []
        for i in range(n0):
            for j in range(i + 1, n0):
                if float(np.sqrt(((y[i] - y[j]) ** 2).sum())) < got_eps:
                    vals.append(linalg.spectral_norm(projs[i] - projs[j]))
        vals.sort()
        eta_ok += (got_eta == vals[(len(vals) - 1) // 2])
    check(7, eps_ok == 100 and eta_ok == 100,
          f"eps exact {eps_ok}/100, eta exact {eta_ok}/100")


def test_criterion_8_threaded_determinism(tmp_path):
    a = tmp_path / "t1.json"
    b = tmp_path / "t8.json"
    base = ["experiment", "--dataset", "two_segments", "--n", "400",
            "--tau", "0.01", "--method", "alg4", "--r", "0.08",
            "--k", "2", "--d", "1", "--trials", "6", "--seed", "31415"]
    rc1 = cli.main(base + ["--threads", "1", "--out", str(a)])
    rc8 = cli.main(base + ["--threads", "8", "--out", str(b)])
    identical = a.read_bytes() == b.read_bytes()
    check(8, rc1 == 0 and rc8 == 0 and identical,
          f"byte-identical reports: {identical}")
