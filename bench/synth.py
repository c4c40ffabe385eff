"""Seeded synthetic datasets for the benchmark workloads.

The real WN18RR files are not in the repository, so the train/eval
workloads use a knowledge graph with the same shape: 40,943 entities,
11 relations and 86,835/3,034/3,134 train/valid/test triples.  One
relation is a deep random recursive tree over every entity (the
`_hypernym` stand-in); the other ten carry random cross-links with
skewed sizes.  The analyze workload uses a connected balanced binary
tree plus one cyclic cross-link relation, with every edge in train, so
the train subgraph of the tree relation is connected and xi sampling
accepts samples.

Every generator writes ordinary `train.txt`/`valid.txt`/`test.txt`
files that the benchmark ingests through `hkge.data.load_dataset`.
Directory names must not normalise to a published benchmark name, or
the loader would check them against the published statistics.
"""

import os
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class KGShape:
    entities: int
    relations: int
    train: int
    valid: int
    test: int


WN18RR_SHAPE = KGShape(entities=40943, relations=11, train=86835, valid=3034, test=3134)

# Share of the cross-link triples each non-tree relation receives.
_CROSS_SHARES = np.array([0.34, 0.2, 0.12, 0.09, 0.07, 0.05, 0.04, 0.035, 0.03, 0.025])


def _write_splits(out_dir, splits, entity_names, relation_names):
    os.makedirs(out_dir, exist_ok=True)
    for split_name, rows in splits.items():
        lines = [f"{entity_names[h]}\t{relation_names[r]}\t{entity_names[t]}\n"
                 for h, r, t in rows.tolist()]
        with open(os.path.join(out_dir, f"{split_name}.txt"), "w", encoding="utf-8") as fh:
            fh.writelines(lines)


def _cross_links(rng, n_entities, n_relations, count):
    """`count` distinct random (h, r, t) triples with r in [1, n_relations)."""
    shares = _CROSS_SHARES[: n_relations - 1]
    per_rel = np.floor(shares / shares.sum() * count).astype(np.int64)
    per_rel[0] += count - per_rel.sum()
    rows = []
    for rel, k in enumerate(per_rel, start=1):
        # oversample, drop self-loops and duplicates, keep draw order
        h = rng.integers(0, n_entities, size=2 * k + 16)
        t = rng.integers(0, n_entities, size=2 * k + 16)
        keep = h != t
        h, t = h[keep], t[keep]
        _, first = np.unique(h * n_entities + t, return_index=True)
        first = np.sort(first)[:k]
        if len(first) < k:
            raise ValueError(f"relation {rel}: could not draw {k} distinct links")
        rows.append(np.stack([h[first], np.full(k, rel), t[first]], axis=1))
    return np.concatenate(rows)


def make_wn18rr_shaped(out_dir, seed, shape=WN18RR_SHAPE):
    """Write a KG with `shape`; returns the shape written."""
    rng = np.random.default_rng(seed)
    n = shape.entities
    total = shape.train + shape.valid + shape.test
    if total < n - 1 or shape.relations < 2:
        raise ValueError("shape too small for a spanning tree plus cross-links")
    # random recursive tree: child i hangs under a uniform earlier node
    child = np.arange(1, n)
    parent = np.floor(rng.random(n - 1) * child).astype(np.int64)
    tree = np.stack([child, np.zeros(n - 1, dtype=np.int64), parent], axis=1)
    triples = np.concatenate([tree, _cross_links(rng, n, shape.relations, total - (n - 1))])
    triples = triples[rng.permutation(total)]
    splits = {
        "valid": triples[: shape.valid],
        "test": triples[shape.valid: shape.valid + shape.test],
        "train": triples[shape.valid + shape.test:],
    }
    entity_names = [f"{x:08d}" for x in rng.permutation(n)]
    relation_names = ["_hypernym"] + [f"_link{r:02d}" for r in range(1, shape.relations)]
    _write_splits(out_dir, splits, entity_names, relation_names)
    return shape


def make_tree_with_cycles(out_dir, seed, depth=15):
    """Balanced binary tree `parent_of` plus a cyclic `linked_to` relation.

    `linked_to` is a ring through a random quarter of the nodes plus one
    random chord per two ring nodes; one in eight ring edges also
    appears reversed, so its Krackhardt score is below 1.  Every edge is
    in train.  Returns the expected Krackhardt score of each relation.
    """
    rng = np.random.default_rng(seed)
    n = 2 ** depth - 1
    child = np.arange(1, n)
    tree = np.stack([(child - 1) // 2, np.zeros(n - 1, dtype=np.int64), child], axis=1)
    ring = rng.permutation(n)[: n // 4]
    k = len(ring)
    heads = np.concatenate([ring, rng.choice(ring, size=k // 2)])
    tails = np.concatenate([np.roll(ring, -1), rng.choice(ring, size=k // 2)])
    keep = heads != tails
    heads, tails = heads[keep], tails[keep]
    back = rng.random(k) < 0.125
    heads = np.concatenate([heads, np.roll(ring, -1)[back]])
    tails = np.concatenate([tails, ring[back]])
    pairs = np.unique(np.stack([heads, tails], axis=1), axis=0)
    links = np.stack([pairs[:, 0], np.ones(len(pairs), dtype=np.int64), pairs[:, 1]], axis=1)
    triples = np.concatenate([tree, links])
    triples = triples[rng.permutation(len(triples))]
    entity_names = [f"v{x:06d}" for x in rng.permutation(n)]
    empty = np.empty((0, 3), dtype=np.int64)
    _write_splits(out_dir, {"train": triples, "valid": empty, "test": empty},
                  entity_names, ["parent_of", "linked_to"])
    edge_set = {(int(h), int(t)) for h, t in pairs}
    one_way = sum(1 for h, t in edge_set if (t, h) not in edge_set)
    return {"parent_of": 1.0, "linked_to": one_way / len(edge_set)}
