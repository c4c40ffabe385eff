"""Graph-shape diagnostics per relation: Krackhardt score and xi.

Both metrics ask how tree-like a relation's subgraph is.  The
Krackhardt hierarchy score is the fraction of directed edges without a
reciprocal edge (1.0 for a pure hierarchy).  xi estimates sectional
curvature of the shortest-path metric from sampled triangles: pick
(a, b, c), find the midpoint m of a shortest b-c path, and compare
d(a, m) against what a flat metric would predict; trees come out
negative.

A relation graph is held as its directed edge array plus one symmetric
CSR adjacency matrix, both built with NumPy.  Distances are BFS levels
read off `breadth_first_order`, exact small integers in float64, so xi
results are the same as from an unweighted Dijkstra.
"""

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order

DEFAULT_XI_SAMPLES = 10_000


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


def _decode_unique(keys, n):
    """Sorted unique (i, j) pairs from i*n + j keys."""
    return np.stack(np.divmod(np.unique(keys), n), axis=1)


def build_graph(relation, edge_list):
    """RelationGraph from directed (head_id, tail_id) pairs."""
    edges = np.asarray(edge_list, dtype=np.int64).reshape(-1, 2)
    if not len(edges):
        raise ValueError(f"relation {relation!r} has no edges")
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
    if relation_name not in store.rel_index:
        raise KeyError(f"unknown relation: {relation_name}")
    rel_id = store.rel_index[relation_name]
    if rel_id >= store.n_base_relations:
        raise KeyError(f"{relation_name!r} is a reciprocal relation, not a base one")
    train = np.asarray(store.train)
    mask = train[:, 1] == rel_id
    return build_graph(relation_name, train[mask][:, [0, 2]])


def khs(graph):
    """Fraction of directed edges lacking a reciprocal edge."""
    if not graph.n_edges:
        raise ValueError("hierarchy score undefined on a graph with no edges")
    n = graph.n_nodes
    i, j = graph.directed_edges.T
    one_way = int(np.count_nonzero(~np.isin(j * n + i, i * n + j)))
    return one_way / graph.n_edges


def _levels(parent_pos):
    """BFS level of each position in a BFS order, from its parent's position.

    `parent_pos[k]` is the position of the parent of the node at position
    k + 1 (position 0 is the source).  Pointer jumping: `hops[k]` is the
    level gap between position k and its ancestor `up[k]`, and each round
    doubles the jump, so after ceil(log2(depth)) rounds every position
    points at the source.  The last position is deepest, so it gets there
    last.
    """
    up = np.concatenate([[0], parent_pos])
    hops = np.ones(len(up), dtype=np.intp)
    hops[0] = 0
    while up[-1]:
        hops += hops[up]
        up = up[up]
    return hops.astype(np.float64)


def bfs_distances(csgraph, source):
    """Unweighted shortest-path distances from `source` (inf if unreachable).

    `csgraph` must be symmetric, as `RelationGraph.csgraph` is by
    construction: the search runs with `directed=True`, which on a
    symmetric matrix gives the undirected distances without SciPy
    symmetrising it again on every call.
    """
    order, pred = breadth_first_order(
        csgraph, source, directed=True, return_predecessors=True)
    pos = np.empty(csgraph.shape[0], dtype=np.intp)
    pos[order] = np.arange(len(order))
    dist = np.full(csgraph.shape[0], np.inf)
    dist[order] = _levels(pos[pred[order[1:]]])
    return dist


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

    Rejections: b-c disconnected or at odd distance; any pair involving
    `a` disconnected; midpoint coincides with `a`.
    """
    dist_b = bfs_distances(graph.csgraph, b)
    d_bc = dist_b[c]
    if not np.isfinite(d_bc) or int(d_bc) % 2 == 1:
        return None
    m = _midpoint(graph, dist_b, b, c)
    if m == a:
        return None  # d(a, m) = 0 would divide by zero below
    dist_a = bfs_distances(graph.csgraph, a)
    d_ab, d_ac, d_am = dist_a[b], dist_a[c], dist_a[m]
    if not (np.isfinite(d_ab) and np.isfinite(d_ac) and np.isfinite(d_am)):
        return None
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
    """Sampled mean and standard error of xi over valid triangles."""
    if graph.n_nodes < 3:
        raise ValueError("xi needs at least 3 nodes")
    max_attempts = max(20 * n_samples, 1000)
    rng = np.random.default_rng(seed)
    values = []
    rejected = 0
    attempts = 0
    n = graph.n_nodes
    while len(values) < n_samples and attempts < max_attempts:
        attempts += 1
        a, b, c = (int(x) for x in rng.choice(n, size=3, replace=False))
        xi = xi_triangle(graph, a, b, c)
        if xi is None:
            rejected += 1
        else:
            values.append(xi)
    if not values:
        raise ValueError(
            f"no valid xi sample in {attempts} attempts on relation {graph.relation!r}"
        )
    arr = np.asarray(values)
    stderr = float(arr.std(ddof=1) / np.sqrt(len(arr))) if len(arr) > 1 else 0.0
    return XiResult(mean=float(arr.mean()), stderr=stderr,
                    accepted=len(arr), rejected=rejected)


HIERARCHY_HEADER = "relation,nodes,edges,khs,xi_mean,xi_stderr,samples_accepted,samples_rejected"


def analyze_relation(store, relation_name, n_samples=DEFAULT_XI_SAMPLES, seed=0):
    graph = relation_subgraph(store, relation_name)
    score = khs(graph)
    if graph.n_nodes >= 3:
        xi = xi_estimate(graph, n_samples=n_samples, seed=seed)
    else:
        xi = XiResult(mean=float("nan"), stderr=float("nan"), accepted=0, rejected=0)
    return {
        "relation": relation_name, "nodes": graph.n_nodes, "edges": graph.n_edges,
        "khs": score, "xi_mean": xi.mean, "xi_stderr": xi.stderr,
        "samples_accepted": xi.accepted, "samples_rejected": xi.rejected,
    }


def write_hierarchy_csv(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(HIERARCHY_HEADER + "\n")
        for row in rows:
            if row.get("error"):
                fh.write(f"{row['relation']},,,error:{row['error']},,,,\n")
                continue
            fh.write(
                f"{row['relation']},{row['nodes']},{row['edges']},"
                f"{row['khs']:.6f},{row['xi_mean']:.6f},{row['xi_stderr']:.6f},"
                f"{row['samples_accepted']},{row['samples_rejected']}\n"
            )
