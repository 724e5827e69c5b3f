"""Radius neighborhoods, nearest sites, center subsampling, and graph components.

Each geometric rule of the package is written here once.  Every KD-tree
is a plain ``cKDTree`` from ``build_index``, an exact accelerator, never
an approximation.  Every neighborhood is a closed ball: ``balls(tree, x,
r)`` returns exactly the indices j with ||x - x_j|| <= r, and
``pairs_within(points, r)`` exactly the pairs at distance <= r.  Every
exact distance is the root of a ``sq_dists``.  A tree distance is off by
far less than the relative widening ``WIDEN``, so ``nearest_site`` and
``nearest_other`` (whose largest distance is ``auto_epsilon``'s eps) keep
the tree's nearest neighbor where the next lies beyond it widened twice;
elsewhere ``sq_dists`` to the candidates within it widened once decide,
ties to the lowest index.  A pass over pairs goes ``pair_blocks`` at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np
from scipy.spatial import cKDTree

from .errors import InvalidInput, NoSurvivors

Array = np.ndarray

WIDEN = 1 + 1e-9
# pairs per block of a pass over a pair list: its buffers stay in cache,
# and no temporary grows with the number of pairs
_PAIR_BLOCK = 1 << 15


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
        if self.coords.ndim != 2 or min(self.coords.shape) < 1:
            raise InvalidInput(f"coords must be (n, D) with n, D >= 1, got {self.coords.shape}")
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


def pair_blocks(m: int):
    """Slices of at most _PAIR_BLOCK rows, in order, that cover m rows."""
    return (slice(start, start + _PAIR_BLOCK) for start in range(0, m, _PAIR_BLOCK))


def sq_dists(a: Array, i: Array, b: Array, j: Array) -> Array:
    """Exact squared distances ||a[i] - b[j]||^2, row by row."""
    diff = np.take(a, i, axis=0) - np.take(b, j, axis=0)
    return (diff * diff).sum(axis=1)


def build_index(points: Array) -> cKDTree:
    """KD-tree over the rows of ``points``: the one place the package
    builds a tree."""
    return cKDTree(points)


def pairs_within(points: Array, r: float) -> Array:
    """All index pairs (i < j) of rows of ``points`` at distance <= r, as
    an (m, 2) array."""
    return build_index(points).query_pairs(r, output_type="ndarray").reshape(-1, 2)


def subsample_centers(tree: cKDTree, r: float, rng: np.random.Generator) -> Array:
    """Greedy r-packing of the ``tree.n`` points ``tree.data``: draw a
    point, discard its closed r-ball, repeat.

    The draw at each step is uniform over points not covered by any
    previously chosen center.  Returns center indices in selection order;
    deterministic for a given generator state.
    """
    if not 0 < r < np.inf:
        raise InvalidInput("radius must be finite and positive")
    remaining = np.ones(tree.n, dtype=bool)
    centers = []
    while remaining.any():
        candidates = np.flatnonzero(remaining)
        pick = int(candidates[rng.integers(len(candidates))])
        centers.append(pick)
        remaining[tree.query_ball_point(tree.data[pick], r)] = False
        remaining[pick] = False
    return np.asarray(centers, dtype=int)


def connected_components(n_nodes: int, edges: Array) -> Array:
    """1-based component id per node of the undirected graph on
    [0..n_nodes) with the (m, 2) pairs ``edges``, in either orientation,
    numbered by smallest contained node.  Self-loops and repeated pairs
    change nothing, and ``edges`` is only read.

    Each round hooks every root onto the smallest root it shares a pair
    with, then points every node at its root (Shiloach & Vishkin 1982).
    Every node starts as its own root, so the first round hooks on the
    given pairs; each later round sees only the pairs that still join two
    trees, as pairs of their roots.  Hooks only go to smaller nodes, so
    the trees stay acyclic and each root is the smallest node of its tree.
    Both passes over the pairs go a block at a time: min-hooks commute,
    so hooking block by block ends where one pass over all pairs does, and
    no temporary but the pairs kept for the next round grows with them.
    """
    edges = np.asarray(edges, dtype=int).reshape(-1, 2)
    if edges.size and (edges.min() < 0 or edges.max() >= n_nodes):
        raise InvalidInput("edge endpoint out of range")
    root = np.arange(n_nodes)
    while len(edges):
        for rows in pair_blocks(len(edges)):
            i, j = edges[rows].T
            np.minimum.at(root, np.maximum(i, j), np.minimum(i, j))
        up = root[root]
        while not np.array_equal(up, root):
            root, up = up, up[up]
        crossing = []
        for rows in pair_blocks(len(edges)):
            ends = np.take(root, edges[rows])
            crossing.append(np.compress(ends[:, 0] != ends[:, 1], ends, axis=0))
        edges = np.concatenate(crossing)
    return np.unique(root, return_inverse=True)[1] + 1


def renumber_first_occurrence(raw: Array) -> tuple[Array, int]:
    """Map raw ids to 1-based ids in order of first appearance, and their count."""
    _, first, inverse = np.unique(raw, return_index=True, return_inverse=True)
    rank = np.empty(first.size, dtype=int)
    rank[np.argsort(first)] = np.arange(1, first.size + 1)
    return rank[inverse], first.size


def balls(tree: cKDTree, x: Array, r) -> tuple[Array, Array]:
    """Closed r-balls of the rows of ``x`` (``r`` scalar or per row), flat:
    the member count of each ball and all members, ball after ball, each
    ball in ascending index order."""
    lists = tree.query_ball_point(x, r, return_sorted=True)
    counts = np.fromiter(map(len, lists), dtype=np.intp, count=len(lists))
    members = np.fromiter(chain.from_iterable(lists), dtype=np.intp,
                          count=int(counts.sum()))
    return counts, members


def _nearest(points: Array, sites: Array, skip: int) -> Array:
    """Position in ``sites`` of each point's nearest site by the rule of
    the module docstring; with ``skip`` = 1, ``sites`` is ``points``, and
    each point, first in its tree query, is not its own candidate."""
    tree = build_index(sites)
    dist, near = tree.query(points, k=2 + skip)
    if skip:
        # the point itself second means a duplicate first, at distance 0
        itself = near[:, 1] == np.arange(len(points))
        near[itself, 1] = near[itself, 0]
    nearest = near[:, skip]
    near_tie = np.flatnonzero(dist[:, skip + 1] <= dist[:, skip] * WIDEN**2)
    if near_tie.size:
        counts, members = balls(tree, np.take(points, near_tie, axis=0),
                                dist[near_tie, skip] * WIDEN)
        owner = np.repeat(near_tie, counts)
        d2 = sq_dists(points, owner, sites, members)
        if skip:
            d2[owner == members] = np.inf
        starts = np.cumsum(counts) - counts
        at_min = d2 == np.repeat(np.minimum.reduceat(d2, starts), counts)
        first = np.minimum.reduceat(np.where(at_min, np.arange(d2.size), d2.size), starts)
        nearest[near_tie] = members[first]
    return nearest


def nearest_site(points: Array, sites: Array) -> Array:
    """Position in ``sites`` of each point's nearest site (ties: first site)."""
    return _nearest(points, sites, 0)


def nearest_other(points: Array) -> Array:
    """Index of each point's nearest other row of ``points``, of which there
    are at least two (ties: lowest index)."""
    return _nearest(points, points, 1)


def assign_to_closest_survivor(
    cloud: PointCloud, removed: Array, survivors: Array, survivor_labels: Array
) -> Array:
    """Label each removed point by its nearest survivor (ties: lowest index).

    ``removed`` and ``survivors`` index into ``cloud``, and
    ``survivor_labels`` holds one label per survivor."""
    survivors = np.asarray(survivors, dtype=int)
    removed = np.asarray(removed, dtype=int)
    survivor_labels = np.asarray(survivor_labels)
    if survivors.size == 0:
        raise NoSurvivors("cannot reassign: no surviving points")
    if survivor_labels.shape != survivors.shape:
        raise InvalidInput("need one label per survivor")
    for idx in (removed, survivors):
        if idx.size and (idx.min() < 0 or idx.max() >= cloud.n):
            raise InvalidInput("point index outside the cloud")
    order = np.argsort(survivors, kind="stable")
    nearest = nearest_site(cloud.coords[removed], cloud.coords[survivors[order]])
    return survivor_labels[order][nearest]
