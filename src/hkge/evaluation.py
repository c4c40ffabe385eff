"""Filtered ranking, MRR / Hits@K, and per-relation reports.

Splits arrive reciprocally augmented, so every query is a tail query
and both prediction directions are covered.  Ties are broken at random
under a per-query seed derived from (master seed, h, r, t): results are
identical no matter what order queries are evaluated in.
"""

import csv
from dataclasses import dataclass

import numpy as np

TIE_MODES = ("random", "optimistic", "pessimistic")
DEFAULT_KS = (1, 3, 10)

_EMPTY = np.empty(0, dtype=np.int64)


@dataclass
class MetricReport:
    mrr: float
    hits: dict
    n_queries: int

    def row(self):
        return {"n": self.n_queries, "mrr": self.mrr,
                **{f"h{k}": v for k, v in self.hits.items()}}


def rank_filtered(scores, t_true, known_tails, tie_mode="random", rng=None):
    """Filtered rank of t_true: 1 + #better + tie adjustment.

    Candidates are all entities except known-true tails other than
    t_true itself.  Under `random`, the true tail takes a uniformly
    random position among its ties (needs `rng`); `optimistic` and
    `pessimistic` pin it first or last.
    """
    if tie_mode not in TIE_MODES:
        raise ValueError(f"unknown tie_mode {tie_mode!r}")
    t_true = int(t_true)
    s_true = scores[t_true]
    allowed = np.ones(scores.shape[0], dtype=bool)
    if known_tails is not None and len(known_tails):
        allowed[np.asarray(known_tails)] = False
    allowed[t_true] = True
    pool = scores[allowed]
    better = int(np.count_nonzero(pool > s_true))
    ties = int(np.count_nonzero(pool == s_true)) - 1  # t_true matches itself
    if tie_mode == "optimistic" or ties == 0:
        return 1 + better
    if tie_mode == "pessimistic":
        return 1 + better + ties
    if rng is None:
        raise ValueError("random tie-breaking needs an rng")
    return 1 + better + int(rng.integers(0, ties + 1))


def _query_rng(seed, h, r, t):
    return np.random.default_rng(
        np.random.SeedSequence([int(seed), int(h), int(r), int(t)])
    )


def compute_ranks(model, triples, filters, tie_mode="random", seed=0):
    """Filtered rank of every (h, r, t) query, in input order.

    ||t||^2 of every entity and each distinct query's head are computed
    once, in a scoring table local to this call; each query is then one
    ``score_against_all`` call against it.
    """
    from .training import NumericError

    triples = np.asarray(triples)
    ranks = np.empty(len(triples), dtype=np.int64)
    table = model.scoring_table(triples[:, 0], triples[:, 1])
    for i, (h, r, t) in enumerate(triples):
        scores = model.score_against_all(int(h), int(r), table=table)
        if not np.all(np.isfinite(scores)):
            raise NumericError(
                f"non-finite score while ranking query (h={int(h)}, r={int(r)})"
            )
        known = filters.get((int(h), int(r)), _EMPTY) if filters else _EMPTY
        rng = _query_rng(seed, h, r, t) if tie_mode == "random" else None
        ranks[i] = rank_filtered(scores, t, known, tie_mode=tie_mode, rng=rng)
    return ranks


def aggregate(ranks, ks=DEFAULT_KS):
    """MRR and Hits@K from integer ranks, order-independent exactly."""
    ranks = np.sort(np.asarray(ranks))
    if not len(ranks):
        raise ValueError("empty split: no queries to aggregate")
    mrr = float(np.mean(1.0 / ranks))
    hits = {k: float(np.count_nonzero(ranks <= k) / len(ranks)) for k in ks}
    return MetricReport(mrr=mrr, hits=hits, n_queries=len(ranks))


def evaluate_split(model, triples, filters, ks=DEFAULT_KS, tie_mode="random", seed=0):
    if triples is None or not len(triples):
        raise ValueError("empty split: nothing to evaluate")
    return aggregate(compute_ranks(model, triples, filters, tie_mode, seed), ks)


def per_relation_report(ranks, triples, relation_names, n_base_relations, ks=DEFAULT_KS):
    """Metrics of precomputed `ranks` (one per row of `triples`) grouped
    by base relation; reciprocal queries fold back onto their original
    relation.  Returns rows sorted by name."""
    triples = np.asarray(triples)
    if not len(triples):
        raise ValueError("empty split: nothing to evaluate")
    ranks = np.asarray(ranks)
    base = np.where(triples[:, 1] < n_base_relations,
                    triples[:, 1], triples[:, 1] - n_base_relations)
    rows = []
    for rel_id in np.unique(base):
        report = aggregate(ranks[base == rel_id], ks)
        rows.append({"relation": relation_names[rel_id], **report.row()})
    rows.sort(key=lambda row: row["relation"])
    return rows


def write_global_csv(path, report, split):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["split", "n", "mrr", "h1", "h3", "h10"])
        writer.writerow([
            split, report.n_queries, f"{report.mrr:.6f}",
            *(f"{report.hits[k]:.6f}" for k in DEFAULT_KS),
        ])


def write_per_relation_csv(path, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["relation", "n", "mrr", "h1", "h3", "h10"])
        for row in rows:
            writer.writerow([
                row["relation"], row["n"], f"{row['mrr']:.6f}",
                f"{row['h1']:.6f}", f"{row['h3']:.6f}", f"{row['h10']:.6f}",
            ])
