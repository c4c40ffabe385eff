"""Filtered ranking, MRR / Hits@K, and per-relation reports.

Splits arrive reciprocally augmented, so every query is a tail query
and both prediction directions are covered.  Ties are broken at random
under a per-query seed derived from (master seed, h, r, t): results are
identical no matter what order queries are evaluated in.
"""

import contextvars
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .data import sorted_unique
from .model import NumericError

KS = (1, 3, 10)  # the Hits@K cutoffs: every metrics table has h1, h3, h10
METRIC_COLUMNS = ("mrr", *(f"h{k}" for k in KS))  # as MetricReport.row() names them

_EMPTY = np.empty(0, dtype=np.int64)


@dataclass
class MetricReport:
    mrr: float
    hits: dict
    n_queries: int

    def row(self):
        return {"n": self.n_queries, "mrr": self.mrr,
                **{f"h{k}": v for k, v in self.hits.items()}}


def rank_filtered(scores, t_true, known_tails, tie_seed):
    """Filtered rank of t_true: 1 + #better + its place among its ties.

    Candidates are all entities except known-true tails other than
    t_true itself.  The candidates that score above and level with
    t_true are counted over all entities, less the same counts over
    the distinct known tails other than t_true, so no candidate mask
    or copy of ``scores`` is built.  t_true takes a uniformly random
    place among its ties, drawn from a generator seeded with
    ``SeedSequence(tie_seed)``, which is built only when there are ties.
    """
    t_true = int(t_true)
    s_true = scores[t_true]
    better = int(np.count_nonzero(scores > s_true))
    ties = int(np.count_nonzero(scores == s_true)) - 1  # t_true matches itself
    known = np.asarray(known_tails, dtype=np.int64)
    known = sorted_unique(known[known != t_true])
    if len(known):
        filtered = scores[known]
        better -= int(np.count_nonzero(filtered > s_true))
        ties -= int(np.count_nonzero(filtered == s_true))
    if not ties:
        return 1 + better
    rng = np.random.default_rng(np.random.SeedSequence(tie_seed))
    return 1 + better + int(rng.integers(0, ties + 1))


def _cpu_count():
    """CPUs in the process's affinity mask; 1 where the platform has no
    affinity call (macOS, Windows), so ranking stays on the caller."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def compute_ranks(model, triples, filters, seed=0):
    """Filtered rank of every (h, r, t) query, in input order.

    `filters` maps (h, r) to the tails to filter out (a
    `data.FilterIndex`, or any mapping with `get`); None filters none.

    ||t||^2 of every entity, its square root and each distinct query's
    head are computed once, in a scoring table local to this call.  Each
    query is then one ``score_against_all`` call against it, a score-only
    pass over 1-D arrays that keeps nothing for a backward, and one
    ``rank_filtered`` call, which counts instead of masking.  The queries
    are ranked in contiguous blocks, one per CPU in the process's
    affinity mask: the calling thread ranks the first, a thread pool the
    rest.  A query's scores and tie-break draw do not depend on the
    thread that ranks it, so the ranks do not depend on the CPU count,
    and an error names the first failing query in input order, as a
    serial pass would; pool threads run in a copy of the caller's context,
    so NumPy's ``errstate`` too is the caller's.  Once an error or
    interrupt leaves the call, the blocks after it stop at their next query.
    """
    triples = np.asarray(triples)
    seed = int(seed)
    ranks = np.empty(len(triples), dtype=np.int64)
    table = model.scoring_table(triples[:, 0], triples[:, 1])

    stop = threading.Event()  # set once a block's error is on its way out

    def rank_block(lo, hi):
        for i in range(lo, hi):
            if stop.is_set():
                return
            h, r, t = (int(v) for v in triples[i])
            scores = model.score_against_all(h, r, table=table)
            if not np.all(np.isfinite(scores)):
                raise NumericError(f"non-finite score while ranking query (h={h}, r={r})")
            known = filters.get((h, r), _EMPTY) if filters else _EMPTY
            ranks[i] = rank_filtered(scores, t, known, (seed, h, r, t))

    n = len(triples)
    k = max(1, min(_cpu_count(), n))
    blocks = [(n * j // k, n * (j + 1) // k) for j in range(k)]
    with ThreadPoolExecutor(max(1, k - 1)) as pool:  # k = 1 starts no thread
        rest = [pool.submit(contextvars.copy_context().run, rank_block, *b) for b in blocks[1:]]
        try:
            rank_block(*blocks[0])
            for future in rest:  # in block order: the earliest failing query raises
                future.result()
        except BaseException:
            # later blocks cannot hold an earlier failure: end them now
            # rather than let the pool's shutdown wait for their queries
            stop.set()
            raise
    return ranks


def aggregate(ranks):
    """MRR and Hits@K from integer ranks, order-independent exactly."""
    ranks = np.sort(np.asarray(ranks))
    if not len(ranks):
        raise ValueError("empty split: no queries to aggregate")
    mrr = float(np.mean(1.0 / ranks))
    hits = {k: float(np.count_nonzero(ranks <= k) / len(ranks)) for k in KS}
    return MetricReport(mrr=mrr, hits=hits, n_queries=len(ranks))


def evaluate_split(model, triples, filters, seed=0):
    if triples is None or not len(triples):
        raise ValueError("empty split: nothing to evaluate")
    return aggregate(compute_ranks(model, triples, filters, seed=seed))


def per_relation_report(ranks, triples, relation_names, n_base_relations):
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
        report = aggregate(ranks[base == rel_id])
        rows.append({"relation": relation_names[rel_id], **report.row()})
    rows.sort(key=lambda row: row["relation"])
    return rows
