"""Graph-shape diagnostics per relation: Krackhardt score and xi.

Both metrics ask how tree-like a relation's subgraph is.  The
Krackhardt hierarchy score is the fraction of directed edges without a
reciprocal edge (1.0 for a pure hierarchy).  xi estimates sectional
curvature of the shortest-path metric from sampled triangles: pick
(a, b, c), find the midpoint m of a shortest b-c path, and compare
d(a, m) against what a flat metric would predict; trees come out
negative.

A relation graph is held as its directed edge array plus one symmetric
CSR adjacency matrix, both built with NumPy.  Triangles are drawn, then
scored, in rounds; a round's draws are four array calls to the random
generator, whatever its size.  On every graph m is the node d(b, c)/2
steps from c up b's BFS tree, in which each node's parent is its first
discoverer in `breadth_first_order` over the sorted adjacency.  On a
forest (|E| = |V| - components, which most hierarchies are) that is
the middle of the one b-c path, so one BFS per graph, from a virtual
root joined to every tree, gives each node's parent; pointer doubling
turns the parents into depths and 2^k-th ancestor tables, from which a
whole round's lowest common ancestors, distances and midpoints are read
as arrays.  On a graph with a cycle each triangle makes one
`breadth_first_order` call from b and, unless rejected, one from a, and
reads each distance by walking up a predecessor array.  Distances are
exact small integers either way, equal to an unweighted Dijkstra's.

A triangle is drawn inside one connected component of 4 or more nodes,
picked with weight n_k(n_k - 1)(n_k - 2): every ordered triple of
distinct nodes in one such component is equally likely, so a relation
made of many small components yields samples as readily as a connected
one.  No triangle in a component of 3 nodes is valid (a path's one
even-distance pair has the third node as midpoint; a triangle has
none), so such components get no weight.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order, connected_components

from .data import sorted_unique

DEFAULT_XI_SAMPLES = 10_000


class RelationError(Exception):
    """A relation has no hierarchy row; `label` names why in hierarchy.csv."""
    label = None


class UnknownRelation(RelationError, KeyError):
    label = "unknown-relation"


class NoEdges(RelationError, ValueError):
    label = "no-edges"


class NoXiSample(RelationError, ValueError):
    label = "no-valid-samples"


@dataclass
class RelationGraph:
    relation: str
    node_ids: np.ndarray        # sorted original entity ids
    directed_edges: np.ndarray  # (E, 2) compact (i, j) pairs, sorted and unique
    csgraph: csr_matrix         # symmetric adjacency without self-loops, sorted indices

    @property
    def n_nodes(self):
        return len(self.node_ids)

    @property
    def n_edges(self):
        return len(self.directed_edges)

    @cached_property
    def component_labels(self):
        """Connected-component label of every node, worked out on first use
        (as is `forest_pred`), so `csgraph` must not change after it."""
        return connected_components(self.csgraph, directed=False)[1]

    @cached_property
    def components(self):
        """The nodes ordered by component label (by index within each),
        each component's start in that order followed by the end, and the
        cumulative n_k(n_k - 1)(n_k - 2) over components of 4 or more nodes:
        how many ordered triples of distinct nodes lie in one of those among
        components 0..k.  Raises ValueError if their total overflows int64."""
        labels = self.component_labels
        sizes = np.bincount(labels)
        # the total first, in Python integers, which cannot wrap
        distinct, counts = np.unique(sizes[sizes >= 4], return_counts=True)
        total = sum(n * (n - 1) * (n - 2) * k for n, k in zip(distinct.tolist(), counts.tolist()))
        if total > np.iinfo(np.int64).max:
            raise ValueError(f"relation {self.relation!r}: its {total} ordered triples "
                             "inside one component do not fit in int64")
        triples = np.cumsum(np.where(sizes >= 4, sizes * (sizes - 1) * (sizes - 2), 0))
        return np.argsort(labels, kind="stable"), np.append(0, np.cumsum(sizes)), triples

    @cached_property
    def forest_pred(self):
        """BFS predecessors of the graph rooted at a virtual node n, or None
        if the graph has a cycle.

        The virtual root is joined to one node of each tree, so one
        `breadth_first_order` call roots every tree at once, and it is its
        own predecessor.
        """
        n, cs, labels = self.n_nodes, self.csgraph, self.component_labels
        n_trees = int(labels.max()) + 1
        if cs.nnz // 2 != n - n_trees:
            return None
        tops = np.empty(n_trees, dtype=np.int32)
        tops[labels] = np.arange(n, dtype=np.int32)  # any node of each tree will do
        indptr = np.append(cs.indptr, cs.nnz + n_trees)
        indices = np.concatenate([cs.indices, tops])
        rooted = csr_matrix((np.ones(len(indices)), indices, indptr), shape=(n + 1, n + 1))
        _, pred = breadth_first_order(rooted, n, directed=True, return_predecessors=True)
        pred[n] = n
        return pred

    @cached_property
    def ancestors(self):
        """Each node's depth below the virtual root of `forest_pred`, and its
        2^k-th ancestors for every k with 2^k below the largest depth: a depth
        array and a list of tables, n + 1 entries each, in which the virtual
        root is its own ancestor.  Built by pointer doubling, up[k + 1] =
        up[k][up[k]], with the hops summed alongside; for a forest only."""
        root = self.n_nodes
        up = self.forest_pred.astype(np.intp)
        depth = np.ones(root + 1, dtype=np.intp)
        depth[root] = 0
        tables = []
        while (up != root).any():
            tables.append(up)
            depth += depth[up]
            up = up[up]
        return depth, tables


def _decode_unique(keys, n):
    """Sorted unique (i, j) pairs from i*n + j keys."""
    return np.stack(np.divmod(sorted_unique(keys), n), axis=1)


def build_graph(relation, edge_list):
    """RelationGraph from directed (head_id, tail_id) pairs of non-negative
    entity ids."""
    edges = np.asarray(edge_list, dtype=np.int64).reshape(-1, 2)
    if not len(edges):
        raise NoEdges(f"relation {relation!r} has no edges")
    # the ids and inverse of np.unique(edges), by marking in place of sorting
    seen = np.zeros(int(edges.max()) + 1, dtype=bool)
    seen[edges] = True
    node_ids = np.flatnonzero(seen)
    compact = (np.cumsum(seen) - 1)[edges]
    n = len(node_ids)
    directed = _decode_unique(compact[:, 0] * n + compact[:, 1], n)
    i, j = compact[compact[:, 0] != compact[:, 1]].T
    rows, cols = _decode_unique(np.concatenate([i * n + j, j * n + i]), n).T
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    adjacency = csr_matrix((np.ones(len(cols)), cols, indptr), shape=(n, n))
    return RelationGraph(
        relation=relation, node_ids=node_ids,
        directed_edges=directed, csgraph=adjacency,
    )


def relation_subgraph(store, relation_name):
    """Subgraph of the train split restricted to one base relation."""
    if relation_name not in store.relations:
        raise UnknownRelation(f"unknown relation: {relation_name}")
    rel_id = store.relations.index(relation_name)
    if rel_id >= store.n_base_relations:
        raise UnknownRelation(f"{relation_name!r} is a reciprocal relation, not a base one")
    train = np.asarray(store.train)
    mask = train[:, 1] == rel_id
    return build_graph(relation_name, train[mask][:, [0, 2]])


def khs(graph):
    """Fraction of directed edges lacking a reciprocal edge."""
    if not graph.n_edges:
        raise ValueError("hierarchy score undefined on a graph with no edges")
    # `csgraph` has 2 entries per node pair joined either way and no self-loop:
    # one more than the pair's directed edges if it is joined one way only
    i, j = graph.directed_edges.T
    one_way = graph.csgraph.nnz - int(np.count_nonzero(i != j))
    return one_way / graph.n_edges


def bfs_distances(csgraph, source):
    """The BFS predecessors of every node from `source`, as a memoryview:
    walking v's up to the source takes d(source, v) steps.  The source
    and every node it does not reach have a negative predecessor.

    `csgraph` must be symmetric, as `RelationGraph.csgraph` is by
    construction: the search runs with `directed=True`, which on a
    symmetric matrix gives the undirected distances without SciPy
    symmetrising it again on every call.
    """
    _, pred = breadth_first_order(
        csgraph, source, directed=True, return_predecessors=True)
    return memoryview(pred)


def _path_up(pred, v):
    """v and its predecessors in `pred`, up to the BFS source."""
    path = [v]
    while (v := pred[v]) >= 0:
        path.append(v)
    return path


def _midpoint(pred_b, c):
    """d(b, c) and the node d(b, c) // 2 steps from c up b's BFS tree."""
    path = _path_up(pred_b, c)
    d_bc = len(path) - 1
    return d_bc, path[d_bc // 2]


def xi_triangle(graph, a, b, c):
    """xi for one sampled triangle, or None if the sample is rejected.

    m is the node d(b, c)/2 steps from c up b's BFS tree.  Rejections:
    b-c at odd distance; m coincides with `a`.  Raises ValueError,
    before any BFS, unless the three nodes lie in one component.
    """
    labels = graph.component_labels
    if not labels[a] == labels[b] == labels[c]:
        raise ValueError(f"relation {graph.relation!r}: nodes {a}, {b} and {c} "
                         "do not lie in one component")
    d_bc, m = _midpoint(bfs_distances(graph.csgraph, b), c)
    if d_bc % 2 == 1:
        return None
    if m == a:
        return None  # d(a, m) = 0 would divide by zero below
    pred_a = bfs_distances(graph.csgraph, a)
    d_ab, d_ac, d_am = (len(_path_up(pred_a, v)) - 1 for v in (b, c, m))
    return float(
        (d_am ** 2 + d_bc ** 2 / 4.0 - (d_ab ** 2 + d_ac ** 2) / 2.0) / (2.0 * d_am)
    )


def _lift(tables, v, steps):
    """The `steps`-th ancestors of nodes v (arrays of equal length)."""
    for k, up in enumerate(tables):
        v = np.where(steps >> k & 1, up[v], v)
    return v


def _tree_distances(graph, u, v):
    """d(u, v) for node arrays u and v on a forest, pair by pair, and each
    pair's lowest common ancestor, by binary lifting over `ancestors`.
    Each pair must lie in one tree."""
    depth, tables = graph.ancestors
    du, dv = depth[u], depth[v]
    deeper = du > dv
    u, v = _lift(tables, np.where(deeper, u, v), np.abs(du - dv)), np.where(deeper, v, u)
    for up in reversed(tables):
        pu, pv = up[u], up[v]
        apart = pu != pv
        u, v = np.where(apart, pu, u), np.where(apart, pv, v)
    lca = np.where(u == v, u, tables[0][u])
    return du + dv - 2 * depth[lca], lca


def _xi_round(graph, triples):
    """xi of each (a, b, c) row of `triples`, nan where it is rejected.

    On a graph with a cycle each row is one `xi_triangle` call.  On a
    forest the rows are scored together from the depth and ancestor
    tables, to the same values and rejections: a tree has one b-c path,
    so its midpoint is the node that `xi_triangle`'s walk reaches.
    """
    if graph.forest_pred is None:
        return np.array([np.nan if (xi := xi_triangle(graph, *abc)) is None else xi
                         for abc in triples.tolist()], dtype=float)
    depth, tables = graph.ancestors
    a, b, c = triples.T
    d_bc, top = _tree_distances(graph, b, c)
    half = d_bc // 2
    # half-way up from c when the midpoint is on c's side of the top, else up from b
    m = _lift(tables, np.where(half <= depth[c] - depth[top], c, b), half)
    xi = np.full(len(triples), np.nan)
    keep = (d_bc % 2 == 0) & (m != a)
    a, d_bc = a[keep], d_bc[keep].astype(float)
    d_ab, d_ac, d_am = _tree_distances(
        graph, np.tile(a, 3), np.concatenate([b[keep], c[keep], m[keep]])
    )[0].astype(float).reshape(3, -1)
    xi[keep] = (d_am ** 2 + d_bc ** 2 / 4.0 - (d_ab ** 2 + d_ac ** 2) / 2.0) / (2.0 * d_am)
    return xi


@dataclass
class XiResult:
    mean: float
    stderr: float
    accepted: int
    rejected: int


def xi_estimate(graph, n_samples=DEFAULT_XI_SAMPLES, seed=0):
    """Sampled mean and standard error of xi over valid triangles.

    Each draw is an ordered triple of distinct nodes of one component of
    4 or more nodes, uniform over all such triples.  The draws are made
    and scored in rounds of as many as there are samples still wanted
    (or attempts left), so a round never accepts more than needed: the
    samples and their order are those of scoring one draw at a time and
    stopping at the last sample wanted.  A round of `size` draws is four
    `Generator.integers` calls: `size` components, each picked by a
    `searchsorted` on a uniform integer below the number of triples, then
    for each row i0 below n, i1 below n - 1 and i2 below n - 2, with n the
    row's component size; i1 is shifted past i0, and i2 past the smaller
    and then the larger of the two.

    Raises ValueError if `n_samples` is below 1, and `NoXiSample` before
    any draw if no component has 4 nodes, and after the last attempt if
    every one was rejected.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")
    order, bounds, cum = graph.components
    if not cum[-1]:
        raise NoXiSample(f"no valid xi sample on relation {graph.relation!r}: "
                         "no connected component has more than 3 nodes")
    max_attempts = max(20 * n_samples, 1000)
    rng = np.random.default_rng(seed)
    values = []
    accepted = attempts = 0
    while accepted < n_samples and attempts < max_attempts:
        size = min(n_samples - accepted, max_attempts - attempts)
        ks = np.searchsorted(cum, rng.integers(cum[-1], size=size), side="right")
        n = bounds[ks + 1] - bounds[ks]
        i0, i1, i2 = rng.integers(n), rng.integers(n - 1), rng.integers(n - 2)
        i1 += i1 >= i0
        i2 += i2 >= np.minimum(i0, i1)
        i2 += i2 >= np.maximum(i0, i1)
        xi = _xi_round(graph, order[bounds[ks, None] + np.stack([i0, i1, i2], axis=1)])
        values.append(xi[~np.isnan(xi)])
        accepted += len(values[-1])
        attempts += size
    if not accepted:
        raise NoXiSample(
            f"no valid xi sample in {attempts} attempts on relation {graph.relation!r}"
        )
    arr = np.concatenate(values)
    stderr = float(arr.std(ddof=1) / np.sqrt(accepted)) if accepted > 1 else 0.0
    return XiResult(mean=float(arr.mean()), stderr=stderr,
                    accepted=accepted, rejected=attempts - accepted)


HIERARCHY_COLUMNS = ("relation", "nodes", "edges", "khs", "xi_mean", "xi_stderr",
                     "samples_accepted", "samples_rejected")


def analyze_relation(store, relation_name, n_samples=DEFAULT_XI_SAMPLES, seed=0):
    """The hierarchy.csv row of one relation, or, where a `RelationError`
    says it has none, its name and the error's `label` as `error`."""
    try:
        graph = relation_subgraph(store, relation_name)
        score = khs(graph)
        xi = xi_estimate(graph, n_samples=n_samples, seed=seed)
    except RelationError as exc:
        return {"relation": relation_name, "error": exc.label}
    return {
        "relation": relation_name, "nodes": graph.n_nodes, "edges": graph.n_edges,
        "khs": score, "xi_mean": xi.mean, "xi_stderr": xi.stderr,
        "samples_accepted": xi.accepted, "samples_rejected": xi.rejected,
    }
