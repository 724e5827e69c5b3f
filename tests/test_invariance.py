"""Output is a function of the input and the seed alone.

Each case is a script that prints its outputs.  It runs in two
subprocesses, with the BLAS and OpenMP thread counts at 1 and at 2, and
both must print the same bytes.  Setting these variables for a child
process changes nothing outside it.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import mmcluster

SRC = Path(mmcluster.__file__).resolve().parents[1]

# alg2 and alg3 in both norms on 2 x 500 noisy segments crossing at a right
# angle, where alg2 removes a band and reassigns it: the band size, then
# the labels, the removed points and repr(info)
COMPONENTS = """
import math
from mmcluster.affinity import ScaleParams
from mmcluster.cluster import algorithm2_cov_components, algorithm3_proj_components
from mmcluster.datasets import DatasetSpec, generate

cloud = generate(DatasetSpec("two_segments", n_per_cluster=500, tau=0.01,
                             angle=math.pi / 2, seed=0))
params = ScaleParams(r=0.12, eps=0.2, eta=0.2)
for run in (algorithm2_cov_components, algorithm3_proj_components):
    for norm in ("spectral", "frobenius"):
        lab = run(cloud, params, norm=norm)
        removed = [] if lab.removed is None else lab.removed.tolist()
        print(run.__name__, norm, len(removed), lab.assignments.tolist(), lab.removed is None,
              removed, repr(lab.info))
"""


# alg4 (gauss) and the baseline on 2 x 1000 spheres at r = 0.2: about 300
# centers in one component, so both reach the sparse eigensolve; the
# eigsh calls so far, then the labels and repr(info)
CENTER_GRAPH = """
import numpy as np
from mmcluster import cluster
from mmcluster.datasets import DatasetSpec, generate

calls = []
solve = cluster.eigsh
cluster.eigsh = lambda *args, **kwargs: calls.append(1) or solve(*args, **kwargs)
cloud = generate(DatasetSpec("two_spheres", n_per_cluster=1000, tau=0.0, seed=0))
runs = {"alg4": lambda rng: cluster.algorithm4_local_pca_spectral(cloud, 0.2, 2, 2, rng),
        "njw_baseline": lambda rng: cluster.njw_baseline(cloud, 0.2, 2, rng)}
for name, run in runs.items():
    lab = run(np.random.default_rng(0))
    info = dict(lab.info, center_indices=lab.info["center_indices"].tolist())
    print(name, len(calls), lab.assignments.tolist(), repr(info))
"""


def run_with_threads(script: str, threads: int) -> bytes:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads),
               PYTHONPATH=path)
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr.decode()
    return done.stdout


def removed_a_band(lines):
    # alg2 removed a band in both norms, so its reassignment ran
    band = {tuple(line.split()[:2]): int(line.split()[2]) for line in lines}
    return (band[("algorithm2_cov_components", "spectral")] > 0
            and band[("algorithm2_cov_components", "frobenius")] > 0)


def solved_sparse(lines):
    # each pipeline called eigsh once
    return [line.split()[:2] for line in lines] == [["alg4", "1"], ["njw_baseline", "2"]]


@pytest.mark.parametrize("script, reached", [(COMPONENTS, removed_a_band),
                                             (CENTER_GRAPH, solved_sparse)],
                         ids=["components", "center_graph"])
def test_independent_of_blas_threads(script, reached):
    one = run_with_threads(script, 1)
    assert one == run_with_threads(script, 2)
    assert reached(one.decode().splitlines())
