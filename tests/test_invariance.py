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


def run_with_threads(script: str, threads: int) -> bytes:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads),
               PYTHONPATH=path)
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr.decode()
    return done.stdout


@pytest.mark.parametrize("script", [COMPONENTS], ids=["components"])
def test_independent_of_blas_threads(script):
    one = run_with_threads(script, 1)
    assert one == run_with_threads(script, 2)
    band = {tuple(line.split()[:2]): int(line.split()[2]) for line in one.decode().splitlines()}
    # alg2 removed a band in both norms, so its reassignment ran
    assert band[("algorithm2_cov_components", "spectral")] > 0
    assert band[("algorithm2_cov_components", "frobenius")] > 0
