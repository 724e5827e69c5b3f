import importlib
import math
import pkgutil
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import sparse, spatial
from scipy.sparse import csgraph

import mmcluster
from mmcluster import neighborhoods
from mmcluster.errors import InvalidInput, NoSurvivors
from mmcluster.local_pca import batch_local_models
from mmcluster.neighborhoods import (
    PointCloud,
    assign_to_closest_survivor,
    balls,
    build_index,
    connected_components,
    nearest_other,
    nearest_site,
    pairs_within,
    renumber_first_occurrence,
    subsample_centers,
)


def brute_force_ball(coords, x, r):
    d = np.linalg.norm(coords - x, axis=1)
    return set(np.flatnonzero(d <= r))


def ball(coords, x, r):
    """Members of the closed r-ball of ``x`` from ``balls``, as a set."""
    counts, members = balls(build_index(coords), np.asarray(x, float)[None], r)
    assert counts.tolist() == [members.size]
    return set(members.tolist())


class TestRadiusQuery:
    def test_single_point(self):
        assert ball(np.array([[1.0, 2.0]]), [1.0, 2.0], 0.5) == {0}

    def test_boundary_inclusive(self):
        assert ball(np.array([[0.0], [1.0], [2.0]]), [1.0], 1.0) == {0, 1, 2}

    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        coords = rng.uniform(-1, 1, size=(500, 3))
        for _ in range(100):
            x = rng.uniform(-1, 1, size=3)
            r = float(rng.uniform(0.05, 0.8))
            assert ball(coords, x, r) == brute_force_ball(coords, x, r)


def test_only_neighborhoods_binds_ckdtree():
    # build_index is the one constructor of a tree, so a wrapper of it
    # (perfbench's span) sees every tree the package builds
    modules = [info.name for info in pkgutil.iter_modules(mmcluster.__path__)
               if info.name != "__main__"]
    binders = [name for name in modules
               if any(value is spatial.cKDTree or value is spatial
                      for value in vars(importlib.import_module(f"mmcluster.{name}")).values())]
    assert binders == ["neighborhoods"]


def test_only_neighborhoods_sets_widening_and_blocks():
    # the relative widening of tree distances and the pair block size are
    # each one rule; a second copy elsewhere could drift from it
    found = {path.stem for path in Path(mmcluster.__file__).parent.glob("*.py")
             for line in path.read_text().splitlines()
             if "1e-9" in line or re.match(r"\s*\w*_BLOCK\s*=[^=]", line)}
    assert found == {"neighborhoods"}


def shuffled_lattice(rng, side, dim, spacing):
    grid = np.stack(np.meshgrid(*[np.arange(side)] * dim), axis=-1).reshape(-1, dim)
    return rng.permutation(grid) * spacing


BALL_CLOUDS = {
    "random_1d": lambda rng: (rng.uniform(size=(300, 1)), 0.01),
    "random_2d": lambda rng: (rng.uniform(size=(400, 2)), 0.08),
    "random_3d": lambda rng: (rng.normal(size=(400, 3)), 0.4),
    # r equal to the spacing puts many pairs at exactly r
    "lattice_2d": lambda rng: (shuffled_lattice(rng, 15, 2, 1.0), 1.0),
    "lattice_3d": lambda rng: (shuffled_lattice(rng, 7, 3, 1.0), 1.0),
    "lattice_3d_diagonal": lambda rng: (shuffled_lattice(rng, 7, 3, 1.0), math.sqrt(2.0)),
    "lattice_2d_tenths": lambda rng: (shuffled_lattice(rng, 15, 2, 0.1), 0.1),
    "duplicates": lambda rng: (np.repeat(rng.uniform(size=(60, 2)), 3, axis=0), 0.1),
    "singletons": lambda rng: (np.arange(50.0)[:, None] * np.array([[1.0, 2.0]]), 0.5),
    "one_point": lambda rng: (np.array([[0.3, -1.2]]), 1.0),
}


@pytest.mark.parametrize("name", sorted(BALL_CLOUDS))
def test_pair_balls_equal_ball_queries(name):
    # the balls that alg2 and alg3 read from their r-pairs: the counts are
    # those of the ball queries, and the covariances, summed in another
    # order, agree to rounding
    coords, r = BALL_CLOUDS[name](np.random.default_rng(3))
    cloud = PointCloud(coords)
    got = batch_local_models(cloud, coords, pairs_within(coords, r), d=1)
    counts, members = balls(build_index(coords), coords, r)
    want = batch_local_models(cloud, coords, (counts, members), d=1)
    np.testing.assert_array_equal(got.neighbor_count, counts)
    assert np.abs(got.covariance - want.covariance).max() <= 1e-12 * max(
        np.abs(want.covariance).max(), np.finfo(float).tiny)


class TestSubsampleCenters:
    def test_two_close_points_one_center(self):
        cloud = PointCloud(np.array([[0.0], [0.5]]))
        centers = subsample_centers(build_index(cloud.coords), 1.0, np.random.default_rng(0))
        assert len(centers) == 1

    def test_two_far_points_two_centers(self):
        cloud = PointCloud(np.array([[0.0], [2.0]]))
        centers = subsample_centers(build_index(cloud.coords), 1.0, np.random.default_rng(0))
        assert len(centers) == 2

    def test_packing_and_cover(self):
        rng = np.random.default_rng(1)
        coords = rng.uniform(0, 1, size=(1000, 2))
        cloud = PointCloud(coords)
        r = 0.1
        centers = subsample_centers(build_index(cloud.coords), r, rng)
        y = coords[centers]
        d = np.linalg.norm(y[:, None] - y[None, :], axis=2)
        np.fill_diagonal(d, np.inf)
        assert d.min() > r  # packing
        to_centers = np.linalg.norm(coords[:, None] - y[None, :], axis=2).min(axis=1)
        assert to_centers.max() <= r  # cover

    def test_rejects_bad_radius(self):
        # NaN fails every comparison: a test of the form r <= 0 lets it
        # through, and then every point becomes a center
        cloud = PointCloud(np.arange(400.0)[:, None])
        for r in (-0.2, 0.0, math.nan, math.inf):
            with pytest.raises(InvalidInput):
                subsample_centers(build_index(cloud.coords), r, np.random.default_rng(0))

    def test_deterministic_given_seed(self):
        coords = np.random.default_rng(5).uniform(0, 1, size=(200, 2))
        cloud = PointCloud(coords)
        a = subsample_centers(build_index(cloud.coords), 0.2, np.random.default_rng(7))
        b = subsample_centers(build_index(cloud.coords), 0.2, np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)


def bfs_components(n, edges):
    adj = [[] for _ in range(n)]
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    ids = [0] * n
    next_id = 0
    for start in range(n):
        if ids[start]:
            continue
        next_id += 1
        queue = [start]
        ids[start] = next_id
        while queue:
            u = queue.pop()
            for v in adj[u]:
                if not ids[v]:
                    ids[v] = next_id
                    queue.append(v)
    return np.array(ids)


class TestConnectedComponents:
    def test_edgeless(self):
        ids = connected_components(4, np.empty((0, 2), dtype=int))
        np.testing.assert_array_equal(ids, [1, 2, 3, 4])

    def test_path_plus_isolated(self):
        ids = connected_components(4, np.array([[0, 1], [1, 2]]))
        np.testing.assert_array_equal(ids, [1, 1, 1, 2])

    def test_random_graph_matches_bfs(self):
        rng = np.random.default_rng(3)
        n = 200
        mask = rng.random((n, n)) < 0.01
        i, j = np.nonzero(np.triu(mask, k=1))
        edges = np.column_stack([i, j])
        got = connected_components(n, edges)
        want = bfs_components(n, edges)
        np.testing.assert_array_equal(got, want)

    def test_graph_shapes_match_bfs(self):
        # long paths and combs need many hooking rounds when their labels
        # are shuffled; a star hooks all leaves onto one root
        rng = np.random.default_rng(4)
        n = 2000
        line = np.column_stack([np.arange(n - 1), np.arange(1, n)])
        side = 40
        grid = np.arange(side * side).reshape(side, side)
        grid_edges = np.vstack([np.column_stack([grid[:, :-1].ravel(), grid[:, 1:].ravel()]),
                                np.column_stack([grid[:-1].ravel(), grid[1:].ravel()])])
        half = np.arange(n // 2)
        shapes = [
            (n, line),
            (n, np.vstack([line[: n // 2 - 1], line[n // 2:]])),
            (side * side, grid_edges),
            (n, np.column_stack([np.full(n - 1, n - 1), np.arange(n - 1)])),
            (n, np.vstack([line[n // 2:], np.column_stack([half + n // 2, half])])),
            (n, rng.integers(0, n, size=(n // 2, 2))),
        ]
        for size, edges in shapes:
            for _ in range(3):
                perm = rng.permutation(size)
                mapped = np.vstack([perm[edges], perm[edges[:5]]])  # repeated pairs too
                np.testing.assert_array_equal(connected_components(size, mapped),
                                              bfs_components(size, mapped))

    def test_pairs_over_many_blocks_match_bfs(self):
        # both passes over the pairs go a block at a time; a shuffled path
        # of 100k nodes spans four blocks and needs many rounds, and a
        # random graph of 50k nodes repeats pairs in both orientations
        rng = np.random.default_rng(11)
        n = 100_000
        perm = rng.permutation(n)
        path = np.column_stack([perm[:-1], perm[1:]])[rng.permutation(n - 1)]
        n_rand = 50_000
        pairs = rng.integers(0, n_rand, size=(60_000, 2))
        again = pairs[rng.integers(0, len(pairs), size=20_000)]
        repeated = np.vstack([pairs, again, again[::2, ::-1], pairs[:10_000, ::-1]])
        repeated = repeated[rng.permutation(len(repeated))]
        for size, edges in ((n, path), (n_rand, repeated)):
            assert len(edges) > 2 * neighborhoods._PAIR_BLOCK
            before = edges.copy()
            np.testing.assert_array_equal(connected_components(size, edges),
                                          bfs_components(size, edges))
            np.testing.assert_array_equal(edges, before)

    def test_block_size_changes_nothing(self, monkeypatch):
        # blocks of 97 pairs, a short last one among them, in every round
        rng = np.random.default_rng(12)
        n = 3000
        edges = rng.integers(0, n, size=(2500, 2))
        want = connected_components(n, edges)
        monkeypatch.setattr(neighborhoods, "_PAIR_BLOCK", 97)
        np.testing.assert_array_equal(connected_components(n, edges), want)
        np.testing.assert_array_equal(want, bfs_components(n, edges))

    @given(st.integers(0, 1000))
    def test_relabeling_invariance(self, seed):
        rng = np.random.default_rng(seed)
        n = 30
        mask = rng.random((n, n)) < 0.05
        i, j = np.nonzero(np.triu(mask, k=1))
        edges = np.column_stack([i, j])
        base = connected_components(n, edges)
        perm = rng.permutation(n)
        mapped_edges = perm[edges] if edges.size else edges
        mapped = connected_components(n, mapped_edges)
        # same partition up to id permutation
        for a in range(n):
            for b in range(a + 1, n):
                assert (base[a] == base[b]) == (mapped[perm[a]] == mapped[perm[b]])

    @given(st.data())
    def test_matches_csgraph(self, data):
        # few random pairs leave many components and isolated nodes; the
        # pairs come with self-loops, repeats and both orientations; each
        # chain lists its links from its largest node down, so its first
        # hooks make one path as deep as the chain for the pointer jumping
        n = data.draw(st.integers(1, 300), label="n")
        node = st.integers(0, n - 1)
        pairs = data.draw(st.lists(st.tuples(node, node), max_size=n // 2), label="pairs")
        loops = data.draw(st.lists(node, max_size=5), label="loops")
        chains = data.draw(st.lists(st.tuples(node, node), max_size=3), label="chains")
        edges = [*pairs, *pairs[:5], *[(b, a) for a, b in pairs[::2]], *zip(loops, loops)]
        for a, b in chains:
            edges += [(k + 1, k) for k in range(max(a, b) - 1, min(a, b) - 1, -1)]
        edges = np.array(edges, dtype=int).reshape(-1, 2)
        graph = sparse.coo_array((np.ones(len(edges)), (edges[:, 0], edges[:, 1])),
                                 shape=(n, n))
        want = csgraph.connected_components(graph, directed=False)[1]
        np.testing.assert_array_equal(connected_components(n, edges),
                                      renumber_first_occurrence(want)[0])

    def test_first_occurrence_numbering_random_labels(self):
        def loop_oracle(raw):
            seen = {}
            return [seen.setdefault(int(v), len(seen) + 1) for v in raw], len(seen)

        rng = np.random.default_rng(8)
        for size, span in ((0, 1), (1, 5), (500, 7), (500, 1000)):
            raw = rng.integers(-span, span, size=size)
            ids, k = renumber_first_occurrence(raw)
            want, k_want = loop_oracle(raw)
            np.testing.assert_array_equal(ids, np.asarray(want, dtype=int))
            assert k == k_want

    def test_self_loops_dropped(self):
        with_loops = connected_components(3, np.array([[0, 0], [1, 2], [2, 2]]))
        np.testing.assert_array_equal(with_loops, connected_components(3, np.array([[1, 2]])))
        np.testing.assert_array_equal(with_loops, [1, 2, 2])

    @pytest.mark.parametrize("bad", [[[0, 3]], [[-1, 0]]])
    def test_endpoint_out_of_range(self, bad):
        with pytest.raises(InvalidInput):
            connected_components(3, np.array(bad))


class TestAssignToClosestSurvivor:
    def test_tie_breaks_to_lowest_index(self):
        coords = np.zeros((10, 1))
        coords[5] = 1.0
        coords[9] = -1.0
        coords[0] = 0.0  # removed point, equidistant from 5 and 9
        cloud = PointCloud(coords)
        labels = assign_to_closest_survivor(cloud, np.array([0]),
                                            np.array([9, 5]), np.array([2, 1]))
        assert labels.tolist() == [1]

    def test_nearest_label(self):
        coords = np.array([[0.0], [1.0], [10.0]])
        cloud = PointCloud(coords)
        labels = assign_to_closest_survivor(cloud, np.array([0]),
                                            np.array([1, 2]), np.array([2, 7]))
        assert labels.tolist() == [2]

    def test_matches_brute_force(self):
        rng = np.random.default_rng(4)
        coords = rng.normal(size=(120, 3))
        cloud = PointCloud(coords)
        removed = np.arange(50)
        survivors = np.arange(50, 120)
        surv_labels = rng.integers(1, 4, size=70)
        got = assign_to_closest_survivor(cloud, removed, survivors, surv_labels)
        for t, i in enumerate(removed):
            d = np.linalg.norm(coords[survivors] - coords[i], axis=1)
            assert got[t] == surv_labels[d.argmin()]

    def test_bad_indices_and_labels_rejected(self):
        # unchecked, an index past the cloud or a short label array raises
        # IndexError, and -1 silently reads the last point
        cloud = PointCloud(np.arange(4.0)[:, None])
        for removed, survivors, labels in (([4], [1, 2], [1, 2]),
                                           ([0], [1, 5], [1, 2]),
                                           ([-1], [1, 2], [1, 2]),
                                           ([0], [1, 2], [1])):
            with pytest.raises(InvalidInput):
                assign_to_closest_survivor(cloud, np.array(removed), np.array(survivors),
                                           np.array(labels))

    def test_empty_survivors(self):
        cloud = PointCloud(np.zeros((2, 1)))
        with pytest.raises(NoSurvivors):
            assign_to_closest_survivor(cloud, np.array([0]), np.array([], dtype=int),
                                       np.array([], dtype=int))


class TestNearestSite:
    @staticmethod
    def lattice_cases(rng):
        """Shuffled integer lattices: many points have 3 or more
        equidistant sites, listed in no particular order."""
        for dim in (1, 2, 3):
            sites = rng.permutation(rng.integers(-3, 4, size=(25, dim)).astype(float))
            yield rng.integers(-8, 9, size=(300, dim)) / 2.0, sites

    def test_matches_full_broadcast(self):
        rng = np.random.default_rng(6)
        points = rng.normal(size=(101, 3))
        sites = rng.normal(size=(9, 3))
        cases = [(points, np.vstack([rng.normal(size=(7, 3)), points[:2]])),  # exact hits
                 (points, sites[:1]),  # one site: the tree's second distance is inf
                 (points, sites[[0, 3, 1, 3, 0, 2]]),  # duplicated sites tie exactly
                 (np.vstack([sites, sites[::-2], points]), sites)]  # points on sites
        cases.extend(self.lattice_cases(rng))
        for points, sites in cases:
            diff = points[:, None, :] - sites[None, :, :]
            want = (diff * diff).sum(axis=2).argmin(axis=1)
            np.testing.assert_array_equal(nearest_site(points, sites), want)

    def test_exact_path_gets_only_near_ties(self, monkeypatch):
        # the exact recomputation sees only the rows the 2-NN query cannot
        # decide: none of a random cloud, every tied row of a lattice
        seen = []
        real = neighborhoods.balls
        monkeypatch.setattr(neighborhoods, "balls",
                            lambda tree, x, r: seen.append(x.copy()) or real(tree, x, r))
        rng = np.random.default_rng(8)
        nearest_site(rng.normal(size=(500, 3)), rng.normal(size=(40, 3)))
        assert seen == []
        for points, sites in self.lattice_cases(rng):
            seen.clear()
            d2 = np.sort(((points[:, None, :] - sites[None, :, :]) ** 2).sum(axis=2), axis=1)
            tied = d2[:, 0] == d2[:, 1]
            assert tied.any()
            nearest_site(points, sites)
            assert len(seen) == 1
            np.testing.assert_array_equal(seen[0], points[tied])

    def test_nearest_other_matches_full_broadcast(self):
        # random clouds, which the tree decides; lattices, whose near-ties
        # the exact path decides, ties to the lowest index; duplicates,
        # whose nearest other point lies at distance 0 and may come first
        rng = np.random.default_rng(9)
        clouds = [rng.normal(size=(200, 3)), np.array([[0.0], [1.0]]),
                  rng.permutation(np.repeat(rng.normal(size=(40, 2)), 2, axis=0)),
                  np.repeat(rng.normal(size=(30, 2)), 3, axis=0)]
        clouds.extend(points for points, _ in self.lattice_cases(rng))
        for points in clouds:
            diff = points[:, None, :] - points[None, :, :]
            d2 = (diff * diff).sum(axis=2)
            np.fill_diagonal(d2, np.inf)
            np.testing.assert_array_equal(nearest_other(points), d2.argmin(axis=1))

    def test_tie_goes_to_first_site(self):
        sites = np.array([[1.0], [-1.0], [1.0]])
        assert nearest_site(np.array([[0.0], [2.0]]), sites).tolist() == [0, 0]
