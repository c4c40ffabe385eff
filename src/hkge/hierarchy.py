"""Graph-shape diagnostics per relation: Krackhardt score and xi.

Both metrics ask how tree-like a relation's subgraph is.  The
Krackhardt hierarchy score is the fraction of directed edges without a
reciprocal edge (1.0 for a pure hierarchy).  xi estimates sectional
curvature of the shortest-path metric from sampled triangles: pick
(a, b, c), find the midpoint m of a shortest b-c path, and compare
d(a, m) against what a flat metric would predict; trees come out
negative.

A relation graph is held as its directed edge array plus one symmetric
CSR adjacency matrix, both built with NumPy.  A triangle reads only a
few distances, through a reader whose `[v]` walks v's BFS predecessors
up to the nearest node whose distance it knows.  On a graph with a
cycle, `bfs_distances` makes one `breadth_first_order` call per source.
On a forest (|E| = |V| - components, which most hierarchies are) one
call per graph suffices: from a virtual root joined to every tree, the
predecessors are each node's parent, and a source's reader starts out
knowing the distances to the source's ancestors.  Distances are exact
small integers in float64 either way, so xi results are the same as
from an unweighted Dijkstra.  A triangle is drawn inside one connected
component of 4 or more nodes, picked with weight n_k(n_k - 1)(n_k - 2):
every ordered triple of distinct nodes in one such component is equally
likely, so a relation made of many small components yields samples as
readily as a connected one.  No triangle in a component of 3 nodes is
valid (a path's one even-distance pair has the third node as midpoint; a
triangle has none), so such components get no weight.
"""

from dataclasses import dataclass
from functools import cached_property
from itertools import count

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order, connected_components

from .data import sorted_unique, write_csv

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
        components 0..k."""
        labels = self.component_labels
        sizes = np.bincount(labels)
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
        return memoryview(pred)


def _decode_unique(keys, n):
    """Sorted unique (i, j) pairs from i*n + j keys."""
    return np.stack(np.divmod(sorted_unique(keys), n), axis=1)


def build_graph(relation, edge_list):
    """RelationGraph from directed (head_id, tail_id) pairs."""
    edges = np.asarray(edge_list, dtype=np.int64).reshape(-1, 2)
    if not len(edges):
        raise NoEdges(f"relation {relation!r} has no edges")
    node_ids, compact = np.unique(edges, return_inverse=True)
    compact = compact.reshape(-1, 2)
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


class _Levels(dict):
    """d(source, v) as `[v]`, read off a BFS predecessor array.

    Starts from the nodes whose distance is known (the source, or on a
    forest the source's ancestors too); every node read is added, so
    reading it again is a plain dict lookup.  Reading a new node walks
    its predecessors up to the nearest known node and stores the
    distance of every node it passes: each node is walked over at most
    once per source.
    """

    __slots__ = ("_pred",)

    def __init__(self, known, pred):
        super().__init__(known)
        self._pred = pred

    def __missing__(self, v):
        pred = self._pred
        v = int(v)
        if pred[v] < 0:  # the source is known, so v was not reached
            self[v] = np.inf
            return np.inf
        path = []
        while v not in self:
            path.append(v)
            v = pred[v]
        self.update(zip(reversed(path), count(self[v] + 1.0)))
        return self[path[0]]


def bfs_distances(csgraph, source):
    """Unweighted shortest-path distances from `source`, as a reader:
    `[v]` is d(source, v) as a float, inf if v is unreachable.

    `csgraph` must be symmetric, as `RelationGraph.csgraph` is by
    construction: the search runs with `directed=True`, which on a
    symmetric matrix gives the undirected distances without SciPy
    symmetrising it again on every call.
    """
    _, pred = breadth_first_order(
        csgraph, source, directed=True, return_predecessors=True)
    return _Levels({int(source): 0.0}, memoryview(pred))


def _distances(graph, source):
    """Reader of d(source, v) on `graph`.

    On a forest it walks the one rooted predecessor array: the source's
    ancestors are known up front (the j-th at distance j, the virtual
    root at inf), and any other node's walk stops at its lowest ancestor
    shared with the source, or at the virtual root if there is none.
    On a graph with a cycle it runs a BFS from the source.
    """
    pred = graph.forest_pred
    if pred is None:
        return bfs_distances(graph.csgraph, source)
    root = len(pred) - 1
    chain, v = [], int(source)
    while v != root:
        chain.append(v)
        v = pred[v]
    reader = _Levels({root: np.inf}, pred)
    reader.update(zip(chain, count(0.0)))
    return reader


def _midpoint(graph, dist_b, b, c):
    """Walk half of a shortest c->b path along min-index BFS parents."""
    indptr, indices = graph.csgraph.indptr, graph.csgraph.indices
    steps = int(dist_b[c]) // 2
    cur = c
    for _ in range(steps):
        target = dist_b[cur] - 1
        for nbr in indices[indptr[cur]:indptr[cur + 1]]:  # sorted: first hit is smallest
            if dist_b[nbr] == target:
                cur = int(nbr)
                break
    return cur


def xi_triangle(graph, a, b, c):
    """xi for one sampled triangle, or None if the sample is rejected.

    The three nodes must lie in one component, so that every distance
    read is finite.  Rejections: b-c at odd distance; midpoint coincides
    with `a`.
    """
    dist_b = _distances(graph, b)
    d_bc = dist_b[c]
    if int(d_bc) % 2 == 1:
        return None
    m = _midpoint(graph, dist_b, b, c)
    if m == a:
        return None  # d(a, m) = 0 would divide by zero below
    dist_a = _distances(graph, a)
    d_ab, d_ac, d_am = dist_a[b], dist_a[c], dist_a[m]
    return float(
        (d_am ** 2 + d_bc ** 2 / 4.0 - (d_ab ** 2 + d_ac ** 2) / 2.0) / (2.0 * d_am)
    )


@dataclass
class XiResult:
    mean: float
    stderr: float
    accepted: int
    rejected: int


def xi_estimate(graph, n_samples=DEFAULT_XI_SAMPLES, seed=0):
    """Sampled mean and standard error of xi over valid triangles.

    Each draw is an ordered triple of distinct nodes of one component of
    4 or more nodes, uniform over all such triples.  The component is
    drawn by one `searchsorted` on a uniform integer below the number of
    triples, and only when two or more components have 4 nodes; a
    connected graph thus gives the stream of `rng.choice(n, 3)`.  Raises
    `NoXiSample` before any draw if no component has 4 nodes, and after
    the last attempt if every one was rejected.
    """
    order, bounds, cum = graph.components
    if not cum[-1]:
        raise NoXiSample(f"no valid xi sample on relation {graph.relation!r}: "
                         "no connected component has more than 3 nodes")
    k = int(np.searchsorted(cum, 0, side="right"))  # the first component with weight
    several = cum[k] < cum[-1]
    max_attempts = max(20 * n_samples, 1000)
    rng = np.random.default_rng(seed)
    values = []
    rejected = 0
    attempts = 0
    while len(values) < n_samples and attempts < max_attempts:
        attempts += 1
        if several:
            k = int(np.searchsorted(cum, rng.integers(cum[-1]), side="right"))
        start = bounds[k]
        a, b, c = order[start + rng.choice(bounds[k + 1] - start, size=3, replace=False)].tolist()
        xi = xi_triangle(graph, a, b, c)
        if xi is None:
            rejected += 1
        else:
            values.append(xi)
    if not values:
        raise NoXiSample(
            f"no valid xi sample in {attempts} attempts on relation {graph.relation!r}"
        )
    arr = np.asarray(values)
    stderr = float(arr.std(ddof=1) / np.sqrt(len(arr))) if len(arr) > 1 else 0.0
    return XiResult(mean=float(arr.mean()), stderr=stderr,
                    accepted=len(arr), rejected=rejected)


HIERARCHY_HEADER = "relation,nodes,edges,khs,xi_mean,xi_stderr,samples_accepted,samples_rejected"


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


def write_hierarchy_csv(path, rows):
    """One row per relation; a relation that failed gets `error:<label>` as its khs."""
    header = HIERARCHY_HEADER.split(",")
    write_csv(path, header, [
        {**dict.fromkeys(header), "relation": row["relation"], "khs": f"error:{row['error']}"}
        if row.get("error") else row for row in rows])
