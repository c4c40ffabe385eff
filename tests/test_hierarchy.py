import collections
import itertools

import numpy as np
import pytest
from scipy import stats
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components, dijkstra

from hkge import cli, data, hierarchy
from hkge.hierarchy import (
    HIERARCHY_COLUMNS,
    RelationGraph,
    UnknownRelation,
    _midpoint,
    _tree_distances,
    analyze_relation,
    bfs_distances,
    build_graph,
    khs,
    relation_subgraph,
    xi_estimate,
    xi_triangle,
)


def floyd_warshall(n, undirected_edges):
    """All-pairs shortest paths the slow, obvious way."""
    D = np.full((n, n), np.inf)
    np.fill_diagonal(D, 0.0)
    for i, j in undirected_edges:
        D[i, j] = D[j, i] = 1.0
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if D[i, k] + D[k, j] < D[i, j]:
                    D[i, j] = D[i, k] + D[k, j]
    return D


def tree_xi(D, a, b, c):
    """xi on a tree from its distance matrix; the midpoint is unique."""
    d_bc = D[b, c]
    if not np.isfinite(d_bc) or int(d_bc) % 2 == 1:
        return None
    half = d_bc / 2.0
    (m,) = [m for m in range(len(D))
            if D[b, m] == half and D[c, m] == half and D[b, m] + D[m, c] == d_bc]
    if m == a:
        return None
    d_am = D[a, m]
    return float((d_am ** 2 + d_bc ** 2 / 4.0
                  - (D[a, b] ** 2 + D[a, c] ** 2) / 2.0) / (2.0 * d_am))


def random_tree_edges(n, seed):
    rng = np.random.default_rng(seed)
    return [(int(rng.integers(0, i)), i) for i in range(1, n)]


def random_edge_list(rng, n_ids):
    """Edges over two disjoint id blocks, with duplicates, self-loops,
    reciprocal pairs and one node whose only edge is a self-loop."""
    half = n_ids // 2
    m = int(rng.integers(1, 2 * n_ids))
    blocks = rng.integers(0, 2, m) * half
    edges = rng.integers(0, half, (m, 2)) + blocks[:, None]
    extra = [edges[rng.integers(0, m, 3)],             # duplicates
             edges[rng.integers(0, m, 2)][:, ::-1],    # reciprocal pairs
             np.repeat(rng.integers(0, n_ids, 2), 2).reshape(2, 2),  # self-loops
             [[10 * n_ids, 10 * n_ids]]]               # isolated node
    return np.concatenate([edges, *extra]).tolist()


def reference_distances(g, edge_list):
    """All-pairs Dijkstra on a matrix built straight from the raw edges."""
    ij = np.searchsorted(g.node_ids, np.asarray(edge_list))
    n = g.n_nodes
    adj = coo_matrix((np.ones(len(ij)), (ij[:, 0], ij[:, 1])), shape=(n, n))
    return dijkstra(adj.tocsr(), directed=False, unweighted=True)


def walk_all(csgraph, src):
    """Every node's distance from `src` and midpoint to it, walked up the
    BFS tree from `src`; inf and -1 for a node it does not reach."""
    pred = bfs_distances(csgraph, src)
    walks = [_midpoint(pred, v) if v == src or pred[v] >= 0 else (np.inf, -1)
             for v in range(csgraph.shape[0])]
    return np.array([d for d, _ in walks]), np.array([m for _, m in walks])


def read_all(csgraph, src):
    """Every node's distance from `src`, walked up the BFS tree from `src`."""
    return walk_all(csgraph, src)[0]


def first_discoverers(g, source):
    """Each node's parent in a deque BFS from `source` over neighbour lists
    built from `directed_edges` and visited in sorted order, the first node
    to reach it kept: -1 for the source and for nodes it never reaches."""
    neighbours = [set() for _ in range(g.n_nodes)]
    for i, j in g.directed_edges.tolist():
        if i != j:
            neighbours[i].add(j)
            neighbours[j].add(i)
    parent, seen, queue = [-1] * g.n_nodes, {source}, collections.deque([source])
    while queue:
        u = queue.popleft()
        for v in sorted(neighbours[u]):
            if v not in seen:
                seen.add(v)
                parent[v] = u
                queue.append(v)
    return parent


def star_graph(k):
    return build_graph("star", [(0, leaf) for leaf in range(1, k + 1)])


def random_forest_edges(rng, n):
    """A random recursive forest over shuffled ids: several trees, edges
    pointing either way, and some edges also given in reverse."""
    ids = rng.permutation(n) * 3 + 1
    edges = []
    for i in range(1, n):
        if rng.random() < 0.08:
            continue  # i starts a new tree
        p, c = ids[int(rng.integers(0, i))], ids[i]
        edges.append((int(p), int(c)) if rng.random() < 0.7 else (int(c), int(p)))
    edges += [(t, h) for h, t in edges[::5]]
    return edges


def count_bfs_calls(monkeypatch):
    """Counts scipy `breadth_first_order` calls made by the hierarchy module."""
    calls = []
    real = hierarchy.breadth_first_order

    def counted(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(hierarchy, "breadth_first_order", counted)
    return calls


def record_draws(monkeypatch):
    """The triples xi_estimate draws, in order, each of them rejected."""
    drawn = []

    def reject_all(graph, triples):
        drawn.extend(map(tuple, triples.tolist()))
        return np.full(len(triples), np.nan)

    monkeypatch.setattr(hierarchy, "_xi_round", reject_all)
    return drawn


def reference_triangle_draws(g, rng, size):
    """One round of xi_estimate's draws written out on their own: the
    components with 4 or more nodes as index lists in label order, then
    `size` components picked by a linear scan over n(n - 1)(n - 2) weights,
    then per row i0 < n, i1 < n - 1 and i2 < n - 2, drawn as arrays in that
    order; i1 is the i1-th of the positions other than i0, and i2 the i2-th
    of those other than both."""
    _, labels = connected_components(g.csgraph, directed=False)
    members = [np.flatnonzero(labels == k).tolist() for k in range(labels.max() + 1)]
    members = [nodes for nodes in members if len(nodes) >= 4]
    weights = [len(nodes) * (len(nodes) - 1) * (len(nodes) - 2) for nodes in members]
    picked = []
    for r in rng.integers(sum(weights), size=size).tolist():
        for nodes, w in zip(members, weights):
            if r < w:
                break
            r -= w
        picked.append(nodes)
    n = np.array([len(nodes) for nodes in picked])
    i0, i1, i2 = rng.integers(n), rng.integers(n - 1), rng.integers(n - 2)
    draws = []
    for nodes, p0, j1, j2 in zip(picked, i0.tolist(), i1.tolist(), i2.tolist()):
        p1 = [p for p in range(len(nodes)) if p != p0][j1]
        p2 = [p for p in range(len(nodes)) if p not in (p0, p1)][j2]
        draws.append((nodes[p0], nodes[p1], nodes[p2]))
    return draws


def reference_xi_estimate(g, n_samples, seed):
    """xi_estimate written out over an all-pairs Dijkstra matrix: the same
    rounds of draws and rejection rules, one triangle at a time, with m
    d(b, c)/2 parents up from c in `first_discoverers` from b."""
    D = dijkstra(g.csgraph, directed=False, unweighted=True)
    rng = np.random.default_rng(seed)
    max_attempts = max(20 * n_samples, 1000)
    values, rejected, attempts, parents = [], 0, 0, {}
    while len(values) < n_samples and attempts < max_attempts:
        size = min(n_samples - len(values), max_attempts - attempts)
        attempts += size
        for a, b, c in reference_triangle_draws(g, rng, size):
            d_bc = D[b, c]
            m = c
            if np.isfinite(d_bc) and d_bc % 2 == 0:
                if b not in parents:
                    parents[b] = first_discoverers(g, b)
                for _ in range(int(d_bc) // 2):
                    m = parents[b][m]
            if not np.isfinite(d_bc) or d_bc % 2 or m == a or not np.isfinite(D[a, [b, c, m]]).all():
                rejected += 1
                continue
            values.append((D[a, m] ** 2 + d_bc ** 2 / 4.0 - (D[a, b] ** 2 + D[a, c] ** 2) / 2.0)
                          / (2.0 * D[a, m]))
    arr = np.asarray(values)
    return arr.mean(), arr.std(ddof=1) / np.sqrt(len(arr)), len(arr), rejected


class TestBuildGraph:
    def test_compacts_and_dedupes(self):
        g = build_graph("r", [(10, 20), (20, 30), (10, 20)])
        assert g.n_nodes == 3
        assert g.n_edges == 2
        np.testing.assert_array_equal(g.node_ids, [10, 20, 30])
        np.testing.assert_array_equal(g.directed_edges, [[0, 1], [1, 2]])

    def test_adjacency_is_undirected_and_sorted(self):
        g = build_graph("r", [(0, 2), (3, 0), (0, 1)])
        cs = g.csgraph
        np.testing.assert_array_equal(cs.indices[cs.indptr[0]:cs.indptr[1]], [1, 2, 3])
        assert (cs != cs.T).nnz == 0

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no edges"):
            build_graph("r", [])

    @pytest.mark.parametrize("seed", [None, 0, 1, 2])
    def test_numbering_is_np_uniques(self, seed):
        # gapped ids, a self-loop, a repeated edge, id 0 and a far largest id
        edges = ([(7, 3), (3, 3), (40, 7), (7, 3), (0, 40), (1000, 0)] if seed is None
                 else random_edge_list(np.random.default_rng(seed), 50))
        g = build_graph("r", edges)
        ids, inverse = np.unique(np.asarray(edges), return_inverse=True)
        compact = inverse.reshape(-1, 2)
        np.testing.assert_array_equal(g.node_ids, ids)
        np.testing.assert_array_equal(g.directed_edges, np.unique(compact, axis=0))
        loops = compact[:, 0] == compact[:, 1]
        pairs = np.unique(np.concatenate([compact[~loops], compact[~loops][:, ::-1]]), axis=0)
        np.testing.assert_array_equal(np.stack(g.csgraph.nonzero(), axis=1), pairs)


class TestKhs:
    def test_pure_hierarchy(self):
        g = build_graph("r", random_tree_edges(40, seed=0))
        assert khs(g) == 1.0

    def test_fully_symmetric(self):
        g = build_graph("r", [(0, 1), (1, 0), (1, 2), (2, 1)])
        assert khs(g) == 0.0

    def test_mixed(self):
        # one of three directed edges has a reciprocal partner... the
        # two paired edges both count as reciprocated
        g = build_graph("r", [(0, 1), (1, 0), (0, 2)])
        assert khs(g) == pytest.approx(1.0 / 3.0)

    def test_relabel_invariant(self):
        edges = [(0, 1), (1, 2), (2, 3), (3, 1)]
        relabeled = [(e[0] * 7 + 3, e[1] * 7 + 3) for e in edges]
        assert khs(build_graph("r", edges)) == khs(build_graph("r", relabeled))

    def test_matches_set_definition(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            edge_list = random_edge_list(rng, int(rng.integers(2, 40)))
            edges = {(h, t) for h, t in edge_list}
            one_way = sum(1 for (h, t) in edges if (t, h) not in edges)
            assert khs(build_graph("r", edge_list)) == one_way / len(edges)


class TestBfs:
    def test_matches_floyd_warshall(self):
        rng = np.random.default_rng(1)
        for trial in range(5):
            n = int(rng.integers(5, 60))
            m = int(rng.integers(n - 1, 2 * n))
            edges = {tuple(sorted(map(int, rng.integers(0, n, 2)))) for _ in range(m)}
            edges = [e for e in edges if e[0] != e[1]]
            if not edges:
                continue
            g = build_graph("r", edges)
            D = floyd_warshall(g.n_nodes, g.directed_edges)
            cs = g.csgraph
            for src in range(g.n_nodes):
                np.testing.assert_array_equal(read_all(cs, src), D[src])

    def test_matches_dijkstra(self):
        # and every midpoint lies half-way along a shortest path
        rng = np.random.default_rng(3)
        for _ in range(40):
            edge_list = random_edge_list(rng, int(rng.integers(2, 50)))
            g = build_graph("r", edge_list)
            D = reference_distances(g, edge_list)
            for src in range(g.n_nodes):
                dist, mid = walk_all(g.csgraph, src)
                np.testing.assert_array_equal(dist, D[src])
                reached = np.flatnonzero(np.isfinite(dist))
                half = D[src, reached] // 2
                np.testing.assert_array_equal(D[reached, mid[reached]], half)
                np.testing.assert_array_equal(D[src, mid[reached]], D[src, reached] - half)

    def test_deep_graph_matches_dijkstra(self):
        # a path with side branches: hundreds of levels, long walks
        n = 562
        edge_list = [(i, i + 1) for i in range(n - 1)] + [(i, n + i) for i in range(0, n, 7)]
        g = build_graph("r", edge_list)
        D = reference_distances(g, edge_list)
        for src in (0, 1, n // 2, n - 1, n + 7):
            np.testing.assert_array_equal(read_all(g.csgraph, src), D[src])

    @pytest.mark.parametrize("seed", [None, 0, 1, 2, 3])
    def test_predecessors_are_first_discoverers(self, seed):
        # cyclic xi follows SciPy's predecessors, so they must stay each
        # node's first discoverer over the sorted adjacency; a 9x9 grid has
        # many shortest paths between most pairs
        if seed is None:
            side = 9
            edge_list = [(r * side + c, r * side + c + 1)
                         for r in range(side) for c in range(side - 1)]
            edge_list += [(r * side + c, (r + 1) * side + c)
                          for r in range(side - 1) for c in range(side)]
        else:
            edge_list = random_edge_list(np.random.default_rng(seed), 60)
        g = build_graph("r", edge_list)
        for src in range(g.n_nodes):
            pred = np.array(bfs_distances(g.csgraph, src))
            np.testing.assert_array_equal(np.maximum(pred, -1), first_discoverers(g, src))


class TestForestReader:
    """On a forest, distances come from the depth and 2^k-ancestor tables:
    every pair in one tree must read as the walk up a per-source BFS tree
    and SciPy's unweighted Dijkstra, and a pair across trees meets only at
    the virtual root."""

    def assert_reads_match(self, g, sources):
        assert g.forest_pred is not None
        n = g.n_nodes
        depth, tables = g.ancestors
        # ceil(log2(max depth + 1)) tables for a tree root at depth 0: it is 1
        # below the virtual root
        assert len(tables) == int(np.ceil(np.log2(depth.max())))
        assert all(up.shape == (n + 1,) and up[n] == n for up in tables)
        assert depth[n] == 0
        D = dijkstra(g.csgraph, directed=False, unweighted=True, indices=sources)
        u, v = np.repeat(sources, n), np.tile(np.arange(n), len(sources))
        got, lca = _tree_distances(g, u, v)
        apart = np.isinf(D.ravel())
        np.testing.assert_array_equal(lca == n, apart)
        np.testing.assert_array_equal(got[~apart], D.ravel()[~apart])
        bfs = np.concatenate([read_all(g.csgraph, src) for src in sources])
        np.testing.assert_array_equal(np.where(apart, np.inf, got), bfs)

    def test_random_forests(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            g = build_graph("r", random_forest_edges(rng, int(rng.integers(3, 90))))
            self.assert_reads_match(g, list(range(g.n_nodes)))

    def test_several_trees_are_apart(self):
        rng = np.random.default_rng(6)
        g = build_graph("r", random_forest_edges(rng, 200))
        _, labels = connected_components(g.csgraph)
        assert labels.max() >= 5
        self.assert_reads_match(g, [0, 17, g.n_nodes - 1])

    @pytest.mark.parametrize("edges", [
        [(i, i + 1) for i in range(1999)],                                     # path
        [(i, i + 1) for i in range(999)] + [(i, 1000 + i) for i in range(999)],  # caterpillar
        [(0, leaf) for leaf in range(1, 2000)],                                # star
    ], ids=["path", "caterpillar", "star"])
    def test_deep_and_wide_trees(self, edges):
        g = build_graph("r", edges)
        self.assert_reads_match(g, [0, 1, 2, 500, 998, 999, 1000, 1500, g.n_nodes - 1])

    def test_one_extra_edge_takes_the_bfs_path(self, monkeypatch):
        rng = np.random.default_rng(9)
        edges = random_forest_edges(rng, 300)
        forest = build_graph("r", edges)
        d = dijkstra(forest.csgraph, directed=False, unweighted=True, indices=0)
        ends = forest.node_ids[[0, np.flatnonzero(d == 3)[0]]]  # closes a 4-cycle
        g = build_graph("r", edges + [tuple(map(int, ends))])
        assert g.forest_pred is None
        calls = count_bfs_calls(monkeypatch)
        result = xi_estimate(g, n_samples=200, seed=0)
        assert len(calls) > result.accepted
        assert (result.mean, result.stderr, result.accepted, result.rejected) == \
            pytest.approx(reference_xi_estimate(g, 200, 0), rel=1e-12)

    @staticmethod
    def bent_path():
        """A 15-node path whose largest id, the root of its tree, sits in the
        middle, so a b-c path can turn at a top between b and c."""
        ids = list(range(9)) + [100] + list(range(9, 14))
        return build_graph("r", list(zip(ids, ids[1:])))

    def test_every_triangle_scores_as_xi_triangle(self):
        g = self.bent_path()
        triples = np.array(list(itertools.permutations(range(g.n_nodes), 3)))
        got = hierarchy._xi_round(g, triples)
        want = [xi_triangle(g, *abc) for abc in triples.tolist()]
        np.testing.assert_array_equal(got, [np.nan if x is None else x for x in want])
        # the midpoint is reached from c for some valid triangles, from b for others
        depth = g.ancestors[0]
        d_bc, top = _tree_distances(g, triples[:, 1], triples[:, 2])
        valid = ~np.isnan(got)
        from_c = d_bc // 2 <= depth[triples[:, 2]] - depth[top]
        assert from_c[valid].any() and not from_c[valid].all()

    @pytest.mark.parametrize("edges, n_samples", [
        (None, 300),                                                             # bent path
        ([(i, i + 1) for i in range(1999)], 300),                                # path
        ([(i, i + 1) for i in range(999)] + [(i, 1000 + i) for i in range(999)], 300),  # caterpillar
        ([(0, leaf) for leaf in range(1, 2000)], 100),                           # star
        (random_forest_edges(np.random.default_rng(8), 300), 200),               # several trees
    ], ids=["bent-path", "path", "caterpillar", "star", "forest"])
    def test_xi_estimate_makes_one_bfs_per_graph(self, edges, n_samples, monkeypatch):
        g = self.bent_path() if edges is None else build_graph("r", edges)
        calls = count_bfs_calls(monkeypatch)
        result = xi_estimate(g, n_samples=n_samples, seed=0)
        assert len(calls) == 1 and calls[0] == g.n_nodes  # from the virtual root
        assert (result.mean, result.stderr, result.accepted, result.rejected) == \
            reference_xi_estimate(g, n_samples, 0)

def stars(rng, n_stars, n_pairs):
    """Stars of 2-4 leaves (3-5 nodes) and disjoint pairs, over shuffled ids."""
    edges, ids = [], iter(rng.permutation(10 * (n_stars + n_pairs)).tolist())
    for _ in range(n_stars):
        hub = next(ids)
        edges += [(hub, next(ids)) for _ in range(int(rng.integers(2, 5)))]
    edges += [(next(ids), next(ids)) for _ in range(n_pairs)]
    return edges


class TestComponents:
    """A triangle is drawn inside one component, uniform over all of them."""

    def two_rings(self):
        # two rings of 60 with chords: cyclic, so every read runs a BFS
        rng = np.random.default_rng(10)
        edges = []
        for base in (0, 100):
            edges += [(base + i, base + (i + 1) % 60) for i in range(60)]
            edges += [(base + int(i), base + int(j)) for i, j in rng.integers(0, 60, (15, 2))]
        g = build_graph("r", edges)
        assert g.forest_pred is None
        assert g.component_labels.max() == 1
        return g

    def test_draw_frequencies_match_enumeration(self, monkeypatch):
        # components of 3, 4, 5, 2 and 1 nodes: the 24 + 60 ordered
        # triples of distinct nodes inside one component of 4 or more
        # nodes, each drawn with chance 1/84, and no other triple
        g = build_graph("r", [(0, 1), (1, 2), (3, 4), (4, 5), (5, 6),
                              (7, 8), (7, 9), (7, 10), (7, 11), (12, 13), (14, 14)])
        _, labels = connected_components(g.csgraph, directed=False)
        exact = [(a, b, c) for a in range(g.n_nodes) for b in range(g.n_nodes)
                 for c in range(g.n_nodes)
                 if len({a, b, c}) == 3 and labels[a] == labels[b] == labels[c] != labels[0]]
        assert len(exact) == 84
        # every draw is rejected, so xi_estimate spends its 20 x 1,260 attempts
        drawn = record_draws(monkeypatch)
        with pytest.raises(ValueError, match="no valid xi sample in 25200 attempts"):
            xi_estimate(g, n_samples=1260, seed=0)
        counts = collections.Counter(drawn)
        assert sorted(counts) == exact
        chi2 = sum((k - 300) ** 2 / 300 for k in counts.values())
        assert chi2 < stats.chi2.ppf(0.999, 83)
        rng = np.random.default_rng(0)
        assert drawn == [abc for _ in range(20) for abc in reference_triangle_draws(g, rng, 1260)]

    def test_one_four_node_component_draws_all_24_triples(self, monkeypatch):
        # n - 2 = 2: the smallest component a triangle is drawn in, alone
        g = build_graph("r", [(0, 1), (1, 2), (2, 3)])
        drawn = record_draws(monkeypatch)
        with pytest.raises(ValueError, match="no valid xi sample in 4800 attempts"):
            xi_estimate(g, n_samples=240, seed=0)
        counts = collections.Counter(drawn)
        assert sorted(counts) == list(itertools.permutations(range(4), 3))
        assert sum((k - 200) ** 2 / 200 for k in counts.values()) < stats.chi2.ppf(0.999, 23)
        rng = np.random.default_rng(0)
        assert drawn == [abc for _ in range(20) for abc in reference_triangle_draws(g, rng, 240)]

    def test_one_bfs_per_source_read_and_same_estimate(self, monkeypatch):
        g = self.two_rings()
        calls = count_bfs_calls(monkeypatch)
        result = xi_estimate(g, n_samples=150, seed=0)
        # every attempt reads from b, and an accepted one from a too
        assert len(calls) == 2 * result.accepted + result.rejected
        assert (result.mean, result.stderr, result.accepted, result.rejected) == \
            pytest.approx(reference_xi_estimate(g, 150, 0), rel=1e-12)

    def test_fragmented_cyclic_graph_matches_reference(self):
        # rings of 4-12 nodes, some with a chord, beside stars and pairs
        rng = np.random.default_rng(12)
        edges = stars(rng, 30, 20)
        for base in range(1000, 3000, 100):
            size = int(rng.integers(4, 13))
            edges += [(base + i, base + (i + 1) % size) for i in range(size)]
            edges += [(base, base + size // 2)] if rng.random() < 0.5 else []
        g = build_graph("r", edges)
        assert g.forest_pred is None
        result = xi_estimate(g, n_samples=300, seed=3)
        assert result.accepted == 300
        assert (result.mean, result.stderr, result.accepted, result.rejected) == \
            pytest.approx(reference_xi_estimate(g, 300, 3), rel=1e-12)

    def test_many_small_components_yield_samples(self):
        # a uniform draw over all nodes lands inside one component with
        # chance below 1e-5 here, so nearly every attempt of the budget
        # would be spent on triangles across components
        g = build_graph("r", stars(np.random.default_rng(13), 400, 300))
        n, sizes = g.n_nodes, np.bincount(connected_components(g.csgraph)[1])
        assert (sizes * (sizes - 1) * (sizes - 2)).sum() / (n * (n - 1) * (n - 2)) < 1e-5
        result = xi_estimate(g, n_samples=500, seed=0)
        # leaves meet at their hub: a star of 3 or more leaves gives -1
        assert (result.mean, result.stderr, result.accepted) == (-1.0, 0.0, 500)


class TestXiTriangle:
    def test_star_is_minus_one(self):
        # leaves meet at the hub: d_am=1, d_bc=2, d_ab=d_ac=2 for any
        # three distinct leaves
        g = star_graph(6)
        for a, b, c in ((1, 2, 3), (4, 5, 6), (2, 6, 1)):
            assert xi_triangle(g, a, b, c) == -1.0

    def test_path_is_flat(self):
        g = build_graph("r", [(i, i + 1) for i in range(5)])
        assert xi_triangle(g, 1, 0, 4) == 0.0
        assert xi_triangle(g, 0, 1, 3) == 0.0

    def test_cycle_is_positive(self):
        # a 4-cycle bulges: m(0, 2) = 1 and node 3 sits at distance 2
        g = build_graph("r", [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert xi_triangle(g, 3, 0, 2) == 1.0

    def test_odd_distance_rejected(self):
        g = build_graph("r", [(i, i + 1) for i in range(4)])
        assert xi_triangle(g, 3, 0, 1) is None

    def test_midpoint_equal_to_a_rejected(self):
        g = build_graph("r", [(0, 1), (1, 2)])
        assert xi_triangle(g, 1, 0, 2) is None

    def test_nodes_in_different_components_refused_before_any_bfs(self, monkeypatch):
        g = build_graph("two-rings", [(0, 1), (1, 2), (2, 3), (3, 0),
                                      (4, 5), (5, 6), (6, 7), (7, 4)])
        calls = count_bfs_calls(monkeypatch)
        for abc in ((0, 1, 5), (4, 1, 2), (0, 5, 6)):
            with pytest.raises(ValueError, match="relation 'two-rings': nodes .* do not lie "
                                                 "in one component"):
                xi_triangle(g, *abc)
        assert calls == []
        assert xi_triangle(g, 7, 4, 6) == 1.0

    def test_matches_tree_oracle(self):
        for seed in range(4):
            edges = random_tree_edges(25, seed=seed)
            g = build_graph("r", edges)
            D = floyd_warshall(25, edges)
            rng = np.random.default_rng(seed + 100)
            checked = 0
            while checked < 40:
                a, b, c = (int(x) for x in rng.choice(25, size=3, replace=False))
                expected = tree_xi(D, a, b, c)
                got = xi_triangle(g, a, b, c)
                assert got == expected
                if expected is not None:
                    assert expected <= 0.0  # trees are never positively curved
                    checked += 1


class TestXiEstimate:
    def test_star_statistics(self):
        result = xi_estimate(star_graph(8), n_samples=200, seed=0)
        assert result.mean == -1.0
        assert result.stderr == 0.0
        assert result.accepted == 200

    def test_deterministic(self):
        g = build_graph("r", random_tree_edges(30, seed=2))
        a = xi_estimate(g, n_samples=100, seed=5)
        b = xi_estimate(g, n_samples=100, seed=5)
        assert a == b

    def test_too_small_graph(self):
        with pytest.raises(ValueError, match="3 nodes"):
            xi_estimate(build_graph("r", [(0, 1)]))

    def test_all_samples_rejected(self):
        # a 3-node path has no valid triangle at all
        g = build_graph("r", [(0, 1), (1, 2)])
        with pytest.raises(ValueError, match="no valid xi sample"):
            xi_estimate(g, n_samples=5)

    @staticmethod
    def count_rng_calls(monkeypatch):
        """Every method call on the Generators that xi_estimate makes, by name."""
        calls, default_rng = [], np.random.default_rng

        class CountingRng:
            def __init__(self, seed):
                self.rng = default_rng(seed)

            def __getattr__(self, name):
                method = getattr(self.rng, name)

                def counted(*args, **kwargs):
                    calls.append(name)
                    return method(*args, **kwargs)
                return counted

        monkeypatch.setattr(np.random, "default_rng", CountingRng)
        return calls

    def test_no_three_node_component_fails_before_any_draw(self, monkeypatch):
        calls = self.count_rng_calls(monkeypatch)
        with pytest.raises(ValueError, match="no valid xi sample"):
            xi_estimate(build_graph("r", [(0, 1), (2, 3), (4, 5)]), n_samples=10_000)
        assert calls == []
        # a 3-node path has no valid triangle, so it gets no draw either
        with pytest.raises(ValueError, match="no valid xi sample"):
            xi_estimate(build_graph("r", [(0, 1), (1, 2)]), n_samples=5)
        assert calls == []
        # the counter sees draws where a 4-node component exists: 200 rounds of 5
        with pytest.raises(ValueError, match="no valid xi sample in 1000 attempts"):
            xi_estimate(build_graph("r", list(itertools.combinations(range(4), 2))), n_samples=5)
        assert calls == ["integers"] * 800

    @pytest.mark.parametrize("edges, n_samples", [
        ([(0, leaf) for leaf in range(1, 2000)], 10_000),     # 2 rounds: 10,000 and 15
        (random_tree_edges(300, seed=4), 5_000),              # 14 rounds, from 5,000 down
        (stars(np.random.default_rng(13), 400, 300), 3_000),  # 30 rounds, 700 components
    ], ids=["star", "tree", "stars"])
    def test_a_round_makes_four_generator_calls(self, edges, n_samples, monkeypatch):
        # whatever a round's size, so no loop over its draws can come back
        rounds = []
        real = hierarchy._xi_round

        def counted(graph, triples):
            rounds.append(len(triples))
            return real(graph, triples)

        monkeypatch.setattr(hierarchy, "_xi_round", counted)
        calls = self.count_rng_calls(monkeypatch)
        result = xi_estimate(build_graph("r", edges), n_samples=n_samples, seed=0)
        assert sum(rounds) == result.accepted + result.rejected
        assert rounds[0] == n_samples
        assert calls == ["integers"] * (4 * len(rounds))

    @pytest.mark.parametrize("n_samples", [0, -3])
    def test_fewer_than_one_sample_refused_before_any_draw(self, n_samples, monkeypatch):
        calls = self.count_rng_calls(monkeypatch)
        store = data.build_vocab({"train": [("a", "r", "b"), ("b", "r", "c"), ("c", "r", "d")],
                                  "valid": [], "test": []})
        message = f"n_samples must be at least 1, got {n_samples}$"
        for refused in (lambda: xi_estimate(star_graph(5), n_samples=n_samples),
                        lambda: analyze_relation(store, "r", n_samples=n_samples)):
            with pytest.raises(ValueError, match=message) as excinfo:
                refused()
            assert not isinstance(excinfo.value, hierarchy.NoXiSample)
        assert calls == []

    def test_triple_count_past_int64_refused(self, monkeypatch):
        # labels stand in for one connected component of that many nodes;
        # 2,097,153 nodes is the largest whose n(n - 1)(n - 2) fits in int64
        g = build_graph("r", [(0, 1), (1, 2), (2, 3)])
        g.component_labels = np.zeros(2_097_153, dtype=np.intp)
        assert g.components[2][-1] == 2_097_153 * 2_097_152 * 2_097_151
        calls = self.count_rng_calls(monkeypatch)
        g = build_graph("r", [(0, 1), (1, 2), (2, 3)])
        g.component_labels = np.zeros(2_100_000, dtype=np.intp)
        with pytest.raises(ValueError, match="relation 'r': its 9260986770004200000 ordered "
                                             "triples inside one component do not fit in int64"):
            xi_estimate(g)
        assert calls == []

    def test_rejections_are_counted(self):
        g = build_graph("r", random_tree_edges(30, seed=3))
        result = xi_estimate(g, n_samples=50, seed=1)
        assert result.accepted == 50
        assert result.rejected >= 0


class TestXiExactness:
    def store(self):
        """63-node binary tree, a 16-leaf ring and two reciprocal edges."""
        tree = [(f"e{(k - 1) // 2}", "r", f"e{k}") for k in range(1, 63)]
        ring = [(f"e{k}", "r", f"e{k + 1}") for k in range(31, 46)] + [("e46", "r", "e31")]
        back = [("e1", "r", "e0"), ("e9", "r", "e4")]
        return data.build_vocab({"train": tree + ring + back, "valid": [], "test": []})

    @pytest.mark.parametrize("seed, expected", [
        (0, (-1.1577554563492063, 0.09055141175666848, 200, 177)),
        (3, (-0.9516736111111112, 0.0953742711060059, 200, 186)),
    ])
    def test_pinned_output(self, seed, expected):
        # expected values equal reference_xi_estimate's, from SciPy's
        # unweighted Dijkstra distances; any drift in the sample stream,
        # the rejection rules or the midpoint rule changes them
        assert relation_subgraph(self.store(), "r").forest_pred is None  # the BFS path
        row = analyze_relation(self.store(), "r", n_samples=200, seed=seed)
        assert (row["nodes"], row["edges"], row["khs"]) == (63, 80, 0.95)
        got = (row["xi_mean"], row["xi_stderr"],
               row["samples_accepted"], row["samples_rejected"])
        assert got == expected


class TestAnalyzeRelationPinned:
    def store(self):
        """A seeded 120-node random recursive tree, 12 random cross-links
        (cycles) and 5 tree edges also given in reverse."""
        rng = np.random.default_rng(0)
        n = 120
        tree = [(f"e{int(rng.integers(0, i))}", "r", f"e{i}") for i in range(1, n)]
        cross = [(f"e{int(a)}", "r", f"e{int(b)}") for a, b in rng.integers(0, n, (12, 2))]
        back = [(t, r, h) for h, r, t in tree[::25]]
        return data.build_vocab({"train": tree + cross + back, "valid": [], "test": []})

    @pytest.mark.parametrize("seed, expected", [
        (0, (-1.0323492063492063, 0.07778603232042765, 300, 284)),
        (1, (-1.121857804232804, 0.07746163468073278, 300, 315)),
    ])
    def test_pinned_output(self, seed, expected):
        # expected values equal reference_xi_estimate's, from the Dijkstra
        # distances, the same rounds of draws and the first-discoverer midpoint
        assert relation_subgraph(self.store(), "r").forest_pred is None  # the BFS path
        row = analyze_relation(self.store(), "r", n_samples=300, seed=seed)
        assert (row["nodes"], row["edges"], row["khs"]) == (120, 136, 0.9264705882352942)
        got = (row["xi_mean"], row["xi_stderr"],
               row["samples_accepted"], row["samples_rejected"])
        assert got == expected


class TestForestPinned:
    def store(self):
        """TestAnalyzeRelationPinned's tree and reversed edges without its
        cross-links, beside a seeded 40-node second tree: a forest."""
        rng = np.random.default_rng(0)
        n = 120
        tree = [(f"e{int(rng.integers(0, i))}", "r", f"e{i}") for i in range(1, n)]
        back = [(t, r, h) for h, r, t in tree[::25]]
        rng = np.random.default_rng(1)
        second = [(f"f{int(rng.integers(0, i))}", "r", f"f{i}") for i in range(1, 40)]
        return data.build_vocab({"train": tree + back + second, "valid": [], "test": []})

    @pytest.mark.parametrize("seed, expected", [
        (0, (-1.5487911255411255, 0.07358164198941818, 300, 281)),
        (1, (-1.7180670995670995, 0.07772765019122409, 300, 304)),
    ])
    def test_pinned_output(self, seed, expected, monkeypatch):
        # expected values equal reference_xi_estimate's, from the Dijkstra
        # distances and the same draw inside one component
        calls = count_bfs_calls(monkeypatch)
        row = analyze_relation(self.store(), "r", n_samples=300, seed=seed)
        assert len(calls) == 1
        assert (row["nodes"], row["edges"], row["khs"]) == (160, 163, 0.9386503067484663)
        got = (row["xi_mean"], row["xi_stderr"],
               row["samples_accepted"], row["samples_rejected"])
        assert got == expected


class TestRelationSubgraph:
    def store(self):
        splits = {"train": [("a", "up", "b"), ("b", "up", "c"), ("a", "down", "c"),
                            ("c", "only_valid", "a")][:3],
                  "valid": [("c", "only_valid", "a")],
                  "test": []}
        return data.build_vocab(splits)

    def test_extracts_single_relation(self):
        g = relation_subgraph(self.store(), "up")
        assert g.n_edges == 2
        assert g.n_nodes == 3

    def test_unknown_relation(self):
        with pytest.raises(KeyError, match="unknown relation"):
            relation_subgraph(self.store(), "sideways")

    def test_reciprocal_names_rejected(self):
        store = data.augment_reciprocal(self.store())
        with pytest.raises(UnknownRelation, match="'up\\^-1' is a reciprocal relation"):
            relation_subgraph(store, "up^-1")
        assert relation_subgraph(store, "up").n_edges == 2

    def test_base_relation_named_like_a_companion(self):
        # `b^-1` with no `b` is a base relation, before and after augmentation
        base = data.build_vocab({"train": [("x", "b^-1", "y"), ("y", "b^-1", "z")]})
        for store in (base, data.augment_reciprocal(base)):
            assert relation_subgraph(store, "b^-1").n_edges == 2
        with pytest.raises(UnknownRelation, match="reciprocal"):
            relation_subgraph(store, "b^-1^-1")

    def test_relation_without_train_edges(self):
        with pytest.raises(ValueError, match="no edges"):
            relation_subgraph(self.store(), "only_valid")


class TestAnalyzeRelation:
    def test_tree_relation_row(self, tmp_path):
        data.make_tree_dataset(tmp_path / "tree")
        store = data.load_dataset(tmp_path / "tree")
        row = analyze_relation(store, "parent_of", n_samples=300, seed=0)
        assert row["relation"] == "parent_of"
        assert row["khs"] == 1.0
        assert row["xi_mean"] < 0.0
        # the train-split subgraph is a forest: most triangles are
        # rejected, but plenty still land within the attempt budget
        assert 0 < row["samples_accepted"] <= 300
        assert row["samples_rejected"] > 0

    def test_csv_layout(self, tmp_path, monkeypatch):
        # the hierarchy.csv that `hkge analyze` writes for these rows
        rows = {
            "r": {"relation": "r", "nodes": 5, "edges": 4, "khs": 1.0,
                  "xi_mean": -0.5, "xi_stderr": 0.01,
                  "samples_accepted": 10, "samples_rejected": 3},
            "broken": {"relation": "broken", "error": "unknown-relation"},
        }
        monkeypatch.setattr(hierarchy, "analyze_relation", lambda store, name, **kw: rows[name])
        data.make_tree_dataset(tmp_path / "tree", depth=3)
        assert cli.main(["analyze", "--dataset-dir", str(tmp_path / "tree"),
                         "--out-dir", str(tmp_path / "out"),
                         "--relations", "r", "--relations", "broken"]) == 1
        path = tmp_path / "out" / "hierarchy.csv"
        lines = path.read_text().strip().split("\n")
        assert lines[0] == ",".join(HIERARCHY_COLUMNS)
        assert lines[1] == "r,5,4,1.000000,-0.500000,0.010000,10,3"
        assert lines[2] == "broken,,,error:unknown-relation,,,,"
