"""Reproduce alg4's degenerate spectral step on intersecting spheres.

Usage (from the repository root):

    python3 perfbench/repro_degenerate_spectrum.py --r 0.08 --pairs 6

For each (cloud, algorithm seed) pair, alg4 runs on two_spheres with
2 x 8000 points (2 x 10000 with ``--n-per-cluster 10000``), tau = 0,
d = 2, K = 2 and automatic eps and eta.  Cloud j uses the seed that cloud
j of the benchmark's seed ``--seed`` would get.  The script prints the
misclustering, the number of connected components of the center graph
(entries above 1e-16) and the top three eigenvalues of the normalized
affinity.  A failing pair shows at least K + 1 components and top
eigenvalues equal to 1, so the K = 2 embedding is not determined by the
graph.  Exit status 1 when any pair misclusters more than 5%.
"""

import argparse
import sys
from pathlib import Path

import numpy as np
from scipy.sparse.csgraph import connected_components

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import mmcluster.cluster  # noqa: E402
from mmcluster.datasets import DatasetSpec, generate  # noqa: E402
from workloads import call_pipeline, child_seed  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--r", type=float, default=0.08)
    ap.add_argument("--pairs", type=int, default=6)
    ap.add_argument("--n-per-cluster", type=int, default=8000)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)

    captured = {}
    partition = mmcluster.cluster.njw_partition

    def spy(w, k, rng):
        captured["w"] = w
        return partition(w, k, rng)

    mmcluster.cluster.njw_partition = spy
    bad = 0
    for j in range(args.pairs):
        cloud = generate(DatasetSpec("two_spheres", n_per_cluster=args.n_per_cluster,
                                     tau=0.0, seed=child_seed(args.seed, 0, j)))
        rng = np.random.default_rng(child_seed(args.seed, 1, j))
        labels, info = call_pipeline("algorithm4_local_pca_spectral", cloud,
                                     r=args.r, k=2, d=2, rng=rng)
        w = captured["w"]
        n_comp = connected_components(w > 1e-16, directed=False)[0]
        deg = w.sum(axis=1)
        top = np.linalg.eigvalsh(w / np.sqrt(np.outer(deg, deg)))[::-1][:3]
        rate = checks.misclustering(labels, cloud.labels)
        bad += rate > 0.05
        print(f"pair {j}: n0={info['n_centers']} misclustering={rate:.4f} "
              f"components={n_comp} top eigenvalues={np.array2string(top, precision=12)}")
    print(f"{bad} of {args.pairs} pairs above 5% misclustering")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
