"""Radius neighborhoods, center subsampling, and graph components.

Every neighborhood is a closed ball: index.query(x, r) returns exactly
the indices j with ||x - x_j|| <= r.  The KD-tree is an exact
accelerator, never an approximation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components as _cc
from scipy.spatial import cKDTree

from .errors import InvalidInput, NoSurvivors

Array = np.ndarray

# Bytes of one (rows, sites, D) float64 difference block in nearest_site.
_BLOCK_BYTES = 32 * 2**20


@dataclass
class PointCloud:
    """n points in D-dimensional ambient space, with optional ground truth.

    labels, when present, are 1-based cluster ids in [1..K].
    """

    coords: Array
    labels: Array | None = None
    seed: int | None = None
    intrinsic_dim: int | None = None
    n_clusters: int | None = None

    def __post_init__(self):
        self.coords = np.asarray(self.coords, dtype=float)
        if self.coords.ndim != 2 or self.coords.shape[0] < 1:
            raise InvalidInput(f"coords must be (n, D) with n >= 1, got {self.coords.shape}")
        if not np.all(np.isfinite(self.coords)):
            raise InvalidInput("coords contain non-finite values")
        # a squared distance is at most 4 D max|x|^2
        if np.abs(self.coords).max() > np.sqrt(np.finfo(float).max / (4 * self.dim)):
            raise InvalidInput("coords too large: squared distances would overflow")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=int)
            if self.labels.shape != (self.coords.shape[0],):
                raise InvalidInput("labels length must match point count")
            if self.labels.min() < 1:
                raise InvalidInput("labels must be 1-based")
            if self.n_clusters is not None and self.labels.max() > self.n_clusters:
                raise InvalidInput("labels exceed the declared cluster count")

    @property
    def n(self) -> int:
        return self.coords.shape[0]

    @property
    def dim(self) -> int:
        return self.coords.shape[1]


class NeighborhoodIndex:
    """Exact closed-ball radius queries over a point cloud."""

    def __init__(self, cloud: PointCloud):
        self.cloud = cloud
        self.tree = cKDTree(cloud.coords)

    def query(self, x: Array, r: float) -> Array:
        idx = self.tree.query_ball_point(np.asarray(x, float), r, return_sorted=True)
        return np.asarray(idx, dtype=int)

    def pairs_within(self, r: float) -> Array:
        """All index pairs (i < j) at distance <= r, as an (m, 2) array."""
        out = self.tree.query_pairs(r, output_type="ndarray")
        if out.size == 0:
            return out.reshape(0, 2)
        return out


def build_index(cloud: PointCloud) -> NeighborhoodIndex:
    return NeighborhoodIndex(cloud)


def subsample_centers(index: NeighborhoodIndex, r: float, rng: np.random.Generator) -> Array:
    """Greedy r-packing: draw a point, discard its r-ball, repeat.

    The draw at each step is uniform over points not covered by any
    previously chosen center.  Returns center indices in selection order;
    deterministic for a given generator state.
    """
    if r <= 0:
        raise InvalidInput("radius must be positive")
    n = index.cloud.n
    remaining = np.ones(n, dtype=bool)
    centers = []
    while remaining.any():
        candidates = np.flatnonzero(remaining)
        pick = int(candidates[rng.integers(len(candidates))])
        centers.append(pick)
        covered = index.query(index.cloud.coords[pick], r)
        remaining[covered] = False
        remaining[pick] = False
    return np.asarray(centers, dtype=int)


def connected_components(n_nodes: int, edges: Array) -> Array:
    """1-based component id per node of the undirected graph on
    [0..n_nodes) with the (m, 2) pairs ``edges``, numbered by smallest
    contained node.  Self-loops and repeated pairs change nothing."""
    edges = np.asarray(edges, dtype=int).reshape(-1, 2)
    if edges.size:
        if edges.min() < 0 or edges.max() >= n_nodes:
            raise InvalidInput("edge endpoint out of range")
        data = np.ones(len(edges), dtype=np.int8)
        adj = sparse.coo_matrix((data, (edges[:, 0], edges[:, 1])), shape=(n_nodes, n_nodes))
        _, raw = _cc(adj, directed=False)
    else:
        raw = np.arange(n_nodes)
    return renumber_first_occurrence(raw)[0]


def renumber_first_occurrence(raw: Array) -> tuple[Array, int]:
    """Map raw ids to 1-based ids in order of first appearance, and their count."""
    _, first, inverse = np.unique(raw, return_index=True, return_inverse=True)
    rank = np.empty(first.size, dtype=int)
    rank[np.argsort(first)] = np.arange(1, first.size + 1)
    return rank[inverse], first.size


def nearest_site(points: Array, sites: Array) -> Array:
    """Position in ``sites`` of each point's nearest site (ties: first site).

    The squared distances are the per-element sums of a full
    points x sites x D broadcast, taken over row blocks so that each
    temporary stays near _BLOCK_BYTES.
    """
    rows = max(1, _BLOCK_BYTES // (8 * max(1, sites.size)))
    nearest = np.empty(points.shape[0], dtype=np.intp)
    for start in range(0, points.shape[0], rows):
        diff = points[start:start + rows, None, :] - sites[None, :, :]
        nearest[start:start + rows] = (diff * diff).sum(axis=2).argmin(axis=1)
    return nearest


def assign_to_closest_survivor(
    cloud: PointCloud, removed: Array, survivors: Array, survivor_labels: Array
) -> Array:
    """Label each removed point by its nearest survivor (ties: lowest index)."""
    survivors = np.asarray(survivors, dtype=int)
    removed = np.asarray(removed, dtype=int)
    if survivors.size == 0:
        raise NoSurvivors("cannot reassign: no surviving points")
    order = np.argsort(survivors, kind="stable")
    nearest = nearest_site(cloud.coords[removed], cloud.coords[survivors[order]])
    return np.asarray(survivor_labels)[order][nearest]
