"""A fixed reference kernel that measures how fast the machine is right now.

On a shared machine the speed of the same code drifts by 20-40% over
seconds to minutes, with CPU time tracking wall time, so a wall time says
as much about the neighbours as about the program.  The benchmark times
this kernel in short blocks between operations and divides each
operation's time by the kernel's time around it: the drift cancels, a
change to ``mmcluster`` does not, since the kernel uses nothing from it.

The kernel is a small, fixed spectral clustering of two crossing segments
written with numpy and scipy alone: KD-tree neighbours, batched local
covariances and 3x3 ``eigh``, a dense Gaussian product affinity and its
eigenvectors, a Python-level k-means, and a stream over an array larger
than the cache.  It does the same kinds of work as the pipelines, so a
neighbour that slows one slows the other alike; a kernel of only a stream,
a small ``eigh`` and a loop tracked the drift of the small trials about
half as strongly.  One call takes about 20 ms on a 2.1 GHz Xeon.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.spatial import cKDTree

MIN_CALLS = 4
SHARE = 0.15         # of the time between blocks, spent in a block


class Reference:
    def __init__(self):
        rng = np.random.default_rng(0)
        t = rng.random(400)
        self.points = (np.concatenate([np.c_[t, 0.5 * t, 0 * t], np.c_[t, 1 - t, 0 * t]])
                       + 0.01 * rng.standard_normal((800, 3)))
        self.stream = rng.random(2_000_000)
        self.stream_out = np.empty_like(self.stream)

    def kernel(self) -> list[int]:
        x = self.points
        _, nbr = cKDTree(x).query(x, k=12)
        local = x[nbr] - x[nbr].mean(axis=1, keepdims=True)
        _, vecs = np.linalg.eigh(np.einsum("nki,nkj->nij", local, local))
        centers, axes = x[::4], vecs[::4, :, -1]
        d2 = ((centers[:, None, :] - centers[None, :, :]) ** 2).sum(-1)
        w = np.exp(-d2 / 0.02) * np.exp(-(1 - (axes @ axes.T) ** 2) / 0.1)
        dinv = 1 / np.sqrt(w.sum(1))
        y = np.linalg.eigh(dinv[:, None] * w * dinv[None, :])[1][:, -2:]
        means = y[[0, -1]]
        for _ in range(8):
            labels = [int(((p - means) ** 2).sum(1).argmin()) for p in y]
            means = np.array([y[[lab == j for lab in labels]].mean(0) for j in range(2)])
        np.multiply(self.stream, 1.5, out=self.stream_out)
        return labels

    def block(self, calls: int = MIN_CALLS) -> float:
        """Seconds per kernel call, averaged over one block of ``calls``."""
        start = time.perf_counter()
        for _ in range(calls):
            self.kernel()
        return (time.perf_counter() - start) / calls

    def calls_per_block(self, gap_s: float) -> int:
        """Calls that make a block about SHARE of ``gap_s`` seconds.

        The machine's speed switches within seconds, so a block before and
        after a 6 s operation must cover more of that time than one before
        and after a half-second segment of small operations.
        """
        return max(MIN_CALLS, round(SHARE * gap_s / self.block()))
