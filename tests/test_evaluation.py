import os
import sys
import threading
import time
import warnings

import numpy as np
import pytest

from hkge import checkpoint, cli, data, evaluation, geometry
from hkge.evaluation import (
    MetricReport,
    aggregate,
    compute_ranks,
    evaluate_split,
    per_relation_report,
    rank_filtered,
)
from hkge.checkpoint import round_trip_f32
from hkge.model import CURVATURE_MODES, GEOMETRIES, KGEModel, ModelConfig
from hkge.training import NumericError


def scored_model(scores, n_relations=1):
    """Model whose score(h, r, t) is scores[t] for every (h, r).

    Zero embeddings make every distance term vanish, so the score
    reduces to b_h + b_t = scores[t].
    """
    scores = np.asarray(scores, dtype=np.float64)
    m = KGEModel.init(ModelConfig(dim=2, curvature_mode="fixed_one"),
                      len(scores), n_relations, seed=0)
    for key, val in m.params.items():
        m.params[key] = np.ones_like(val) if key == "rel_scale" else np.zeros_like(val)
    m.params["ent_bias"][:] = scores
    return m


def tie_draw(tie_seed, ties):
    """The draw in [0, ties] that a query with `ties` ties adds to its rank."""
    return int(np.random.default_rng(np.random.SeedSequence(tie_seed)).integers(0, ties + 1))


def brute_rank(scores, t, known, tie_seed=(0,)):
    """Rank computed the slow, obvious way."""
    keep = set(range(len(scores))) - {int(k) for k in known} | {int(t)}
    better = sum(1 for j in keep if scores[j] > scores[t])
    ties = sum(1 for j in keep if j != t and scores[j] == scores[t])
    return 1 + better + (tie_draw(tie_seed, ties) if ties else 0)


def mask_rank(scores, t, known, tie_seed):
    """Filtered rank through a candidate mask, as the benchmark's oracle
    ranks: the plain form of ``rank_filtered``'s counts."""
    allowed = np.ones(len(scores), dtype=bool)
    allowed[np.asarray(known, dtype=np.int64)] = False
    allowed[t] = True
    pool = scores[allowed]
    ties = int(np.sum(pool == scores[t])) - 1
    return 1 + int(np.sum(pool > scores[t])) + (tie_draw(tie_seed, ties) if ties else 0)


class TestRankFiltered:
    def test_unique_scores(self):
        scores = np.asarray([3.0, 2.0, 1.0])
        assert rank_filtered(scores, 0, [], (0,)) == 1
        assert rank_filtered(scores, 1, [], (0,)) == 2
        assert rank_filtered(scores, 2, [], (0,)) == 3

    def test_filtering_removes_better_candidates(self):
        scores = np.asarray([3.0, 2.0, 1.0])
        # entity 0 is a known-true tail: it no longer outranks entity 1
        assert rank_filtered(scores, 1, [0], (0,)) == 1

    def test_true_tail_immune_to_own_filter(self):
        scores = np.asarray([3.0, 2.0, 1.0])
        # t appears in its own filter list and must stay in the pool
        assert rank_filtered(scores, 1, [0, 1], (0,)) == 1

    def test_ties_take_the_seeded_draw(self):
        # all five tie: the rank is 1 + one draw in [0, 4] from SeedSequence(tie_seed)
        scores = np.zeros(5)
        for tie_seed in ((3,), (3, 1), (4,)):
            r = rank_filtered(scores, 2, [], tie_seed)
            assert 1 <= r <= 5
            assert r == 1 + tie_draw(tie_seed, 4)
        assert len({rank_filtered(scores, 2, [], (s,)) for s in range(50)}) == 5

    def test_random_tie_mean_is_centered(self):
        # all-tied pool of 41: rank is uniform on 1..41, mean 21
        scores = np.zeros(41)
        draws = np.asarray([rank_filtered(scores, 0, [], (0, i)) for i in range(10_000)])
        # 3 sigma of the sample mean: 3 * (40/sqrt(12)) / 100 ~ 0.35
        assert abs(draws.mean() - 21.0) < 0.35
        assert draws.min() == 1 and draws.max() == 41

    def test_matches_brute_force(self):
        rng = np.random.default_rng(7)
        for i in range(300):
            n = int(rng.integers(2, 21))
            # coarse scores so ties actually happen
            scores = rng.integers(0, 4, size=n).astype(np.float64)
            t = int(rng.integers(0, n))
            known = rng.choice(n, size=int(rng.integers(0, n)), replace=False)
            assert rank_filtered(scores, t, known, (1, i)) == brute_rank(scores, t, known, (1, i))

    def test_filtering_never_worsens_rank(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            n = int(rng.integers(3, 15))
            scores = rng.normal(size=n)
            t = int(rng.integers(0, n))
            known = rng.choice(n, size=int(rng.integers(1, n)), replace=False)
            assert rank_filtered(scores, t, known, (0,)) <= rank_filtered(scores, t, [], (0,))


class TestCountRank:
    """``rank_filtered`` counts over all entities and subtracts the known
    tails; the rank is the one a candidate mask gives."""

    @staticmethod
    def known_lists(rng, n, t):
        others = rng.choice(n, size=int(rng.integers(1, n)), replace=False)
        yield np.empty(0, dtype=np.int64)                       # empty
        yield np.sort(others)                                   # a FilterIndex run
        yield np.concatenate([others, others[:3], others[:1]])  # duplicates
        yield np.concatenate([[t], others, [t]])                # holds t_true, twice
        yield np.full(4, t)                                     # only t_true

    def test_equals_the_mask_rank(self):
        rng = np.random.default_rng(31)
        n_ties = 0
        for i in range(400):
            n = int(rng.integers(2, 60))
            # few distinct integer values: most queries have ties, many among the known
            scores = rng.integers(-3, 3, size=n).astype(np.float64)
            t = int(rng.integers(0, n))
            n_ties += int(np.sum(scores == scores[t])) > 1
            for j, known in enumerate(self.known_lists(rng, n, t)):
                tie_seed = (5, i, j)
                assert rank_filtered(scores, t, known, tie_seed) == \
                    mask_rank(scores, t, known, tie_seed), (i, j)
        assert n_ties > 300

    def test_compute_ranks_equals_the_mask_rank(self):
        # through compute_ranks: a dict filter with duplicates and t_true in
        # its lists, queries with no entry, and no filter at all
        rng = np.random.default_rng(32)
        m = scored_model(rng.integers(0, 4, 50).astype(float), n_relations=3)
        triples = np.stack([rng.integers(0, 50, 40), rng.integers(0, 3, 40),
                            rng.integers(0, 50, 40)], axis=1)
        filters = {(int(h), int(r)): np.concatenate([rng.integers(0, 50, 6), [t, t]])
                   for h, r, t in triples[::2]}
        for index in (filters, None):
            ranks = compute_ranks(m, triples, index, seed=9)
            for i, (h, r, t) in enumerate(triples.tolist()):
                known = (index or {}).get((h, r), [])
                scores = m.score_against_all(h, r)
                assert ranks[i] == mask_rank(scores, t, known, (9, h, r, t)), (i, index is None)


class TestAggregate:
    def test_known_ranks(self):
        # 1/1, 1/2, 1/4 -> mean 7/12
        report = aggregate(np.asarray([1, 2, 4]))
        np.testing.assert_allclose(report.mrr, 0.5833333333333334, rtol=1e-15)
        assert report.hits == {1: 1 / 3, 3: 2 / 3, 10: 1.0}
        assert report.n_queries == 3

    def test_perfect_and_worst(self):
        assert aggregate(np.ones(5, dtype=int)).mrr == 1.0
        far = aggregate(np.full(4, 1000))
        assert far.mrr == 0.001
        assert far.hits[10] == 0.0

    def test_hits_monotone(self):
        rng = np.random.default_rng(9)
        ranks = rng.integers(1, 30, size=100)
        report = aggregate(ranks)
        assert report.hits[1] <= report.hits[3] <= report.hits[10]

    def test_order_invariant_exactly(self):
        rng = np.random.default_rng(10)
        ranks = rng.integers(1, 50, size=101)
        a = aggregate(ranks)
        b = aggregate(ranks[::-1])
        assert a.mrr == b.mrr and a.hits == b.hits

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            aggregate(np.asarray([], dtype=int))


class TestComputeRanks:
    def test_filter_index_ranks_equal_dict_ranks(self):
        # queries repeat within and across splits; integer scores tie often,
        # so the random tie-break is drawn for many queries
        rng = np.random.default_rng(12)
        triples = rng.integers(0, [30, 4, 30], size=(600, 3))
        store = data.augment_reciprocal(data.TripleStore(
            entities=[f"e{i}" for i in range(30)], relations=[f"r{i}" for i in range(4)],
            train=triples[:400], valid=np.concatenate([triples[400:500], triples[:60]]),
            test=np.concatenate([triples[500:], triples[350:450]]), n_base_relations=4))
        m = scored_model(rng.integers(0, 5, 30).astype(float), n_relations=8)
        index = data.build_filter_index(store)
        queries = np.concatenate([store.valid, store.test])
        ranks = compute_ranks(m, queries, index, seed=3)
        np.testing.assert_array_equal(ranks, compute_ranks(m, queries, dict(index.items()), seed=3))
        assert (ranks < compute_ranks(m, queries, None, seed=3)).any()

    def test_matches_per_query_calls(self):
        rng = np.random.default_rng(11)
        m = scored_model(rng.normal(size=12), n_relations=2)
        triples = np.asarray([[0, 0, 3], [5, 1, 0], [2, 0, 2]])
        filters = {(0, 0): np.asarray([1, 3]), (5, 1): np.asarray([0, 2, 4])}
        ranks = compute_ranks(m, triples, filters)
        for i, (h, r, t) in enumerate(triples):
            scores = m.score_against_all(int(h), int(r))
            known = filters.get((int(h), int(r)), [])
            assert ranks[i] == brute_rank(scores, t, known)

    @pytest.mark.parametrize("geometry", GEOMETRIES)
    @pytest.mark.parametrize("mode", CURVATURE_MODES)
    def test_block_ranks_equal_one_query_at_a_time(self, mode, geometry):
        # one scoring table for the block, with repeated (h, r), against a
        # table per query; the block's table is not kept on the model
        cfg = ModelConfig(dim=4, curvature_mode=mode, geometry=geometry)
        m = KGEModel.init(cfg, 13, 3, seed=7, init_scale=0.3)
        rng = np.random.default_rng(8)
        m.params["rel_theta"] = rng.uniform(-2.0, 2.0, m.params["rel_theta"].shape)
        m.params["ent_bias"] = rng.normal(0.0, 0.2, 13)
        triples = np.asarray([[0, 0, 3], [5, 1, 0], [0, 0, 7], [2, 2, 2], [5, 1, 0], [12, 0, 1]])
        filters = {(0, 0): np.asarray([3, 7]), (5, 1): np.asarray([0, 4])}
        before = set(vars(m))
        ranks = compute_ranks(m, triples, filters, seed=4)
        assert set(vars(m)) == before
        alone = [compute_ranks(m, triples[i:i + 1], filters, seed=4)[0]
                 for i in range(len(triples))]
        np.testing.assert_array_equal(ranks, alone)

    def test_random_ties_depend_only_on_query_and_seed(self):
        # same (h, r, t) gets the same tie draw wherever it sits
        m = scored_model(np.zeros(9))
        triples = np.asarray([[0, 0, 1], [2, 0, 3], [4, 0, 5]])
        ranks = compute_ranks(m, triples, None, seed=5)
        shuffled = compute_ranks(m, triples[::-1], None, seed=5)
        np.testing.assert_array_equal(ranks, shuffled[::-1])
        different = compute_ranks(m, triples, None, seed=6)
        assert not np.array_equal(ranks, different)

    def test_tie_draw_comes_from_the_query_seed(self):
        # every score ties: the rank is 1 + one draw in [0, ties] from a
        # generator seeded with (seed, h, r, t)
        m = scored_model(np.zeros(9))
        triples = np.asarray([[0, 0, 1], [2, 0, 3], [4, 0, 5]])
        want = [1 + np.random.default_rng(np.random.SeedSequence([5, h, r, t])).integers(0, 9)
                for h, r, t in triples.tolist()]
        np.testing.assert_array_equal(compute_ranks(m, triples, None, seed=5), want)

    def test_no_generator_without_ties(self, monkeypatch):
        # the counts show whether a query has ties before any draw; most
        # queries have none, and build no generator
        m = scored_model(np.arange(9.0))
        built = []
        seed_sequence = np.random.SeedSequence
        monkeypatch.setattr(np.random, "SeedSequence",
                            lambda *a, **k: built.append(a) or seed_sequence(*a, **k))
        ranks = compute_ranks(m, np.asarray([[0, 0, 1], [2, 0, 8]]), None, seed=5)
        np.testing.assert_array_equal(ranks, [8, 1])
        assert built == []

    def test_non_finite_scores_raise(self):
        m = scored_model(np.zeros(4))
        m.params["ent_bias"][2] = np.nan
        with pytest.raises(NumericError, match="non-finite"):
            compute_ranks(m, np.asarray([[0, 0, 1]]), None)


def use_cpus(monkeypatch, n):
    """Make the process's affinity mask hold n CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def boundary_model():
    """Attention model whose points crowd the ball's boundary, so that
    ranking clamps; 24 queries over 40 entities and 2 relations.

    It ranks in float64, as every ranking does after ``checkpoint.load``."""
    m = round_trip_f32(KGEModel.init(
        ModelConfig(dim=4, curvature_mode="attention"), 40, 2, seed=3, init_scale=3.0))
    rng = np.random.default_rng(0)
    triples = np.stack([rng.integers(0, 40, 24), rng.integers(0, 2, 24),
                        rng.integers(0, 40, 24)], axis=1)
    filters = {(int(h), int(r)): np.asarray([int(t)]) for h, r, t in triples[::3]}
    return m, triples, filters


class TestThreadedRanking:
    @pytest.mark.parametrize("n_queries", (1, 2, 24))
    def test_ranks_do_not_depend_on_the_cpu_count(self, monkeypatch, n_queries):
        m, triples, filters = boundary_model()
        triples = triples[:n_queries]
        threads = set()
        score = m.score_against_all

        def recorded(h, r, table=None):
            threads.add(threading.get_ident())
            return score(h, r, table=table)

        m.score_against_all = recorded
        use_cpus(monkeypatch, 1)
        serial = compute_ranks(m, triples, filters, seed=2)
        assert threads == {threading.get_ident()}
        for n_cpus in (2, 3, n_queries + 1):
            threads.clear()
            use_cpus(monkeypatch, n_cpus)
            ranks = compute_ranks(m, triples, filters, seed=2)
            assert ranks.tobytes() == serial.tobytes(), n_cpus
            # the caller ranks block 0 and pool threads the rest; a pool
            # thread may rank more than one block of these tiny queries
            k = min(n_cpus, n_queries)
            assert (len(threads) == 1) if k == 1 else (1 < len(threads) <= k), n_cpus

    @pytest.mark.parametrize("n_cpus", (1, 2, 3))
    def test_error_names_the_earliest_failing_query(self, monkeypatch, n_cpus):
        # relation 1 fails at query 2 and relation 2 at query 5; at 2 and 3
        # CPUs they sit in different blocks, and the later block's thread
        # may reach its failure first
        m = KGEModel.init(ModelConfig(dim=4, curvature_mode="fixed_one"), 9, 3, seed=0)
        m.params["rel_trans"][1:] = np.nan
        triples = np.asarray([[0, 0, 1], [1, 0, 2], [2, 1, 3],
                              [3, 0, 4], [4, 0, 5], [5, 2, 6]])
        use_cpus(monkeypatch, n_cpus)
        with pytest.raises(NumericError, match=r"query \(h=2, r=1\)"):
            compute_ranks(m, triples, None)

    @pytest.mark.parametrize("n_cpus", (1, 2, 3))
    def test_every_block_ranks_under_the_callers_error_state(self, monkeypatch, n_cpus):
        # an overflow in any block is silenced by the caller's np.errstate,
        # as it is in a serial pass; pool threads start with NumPy's default
        m, triples, filters = boundary_model()
        score = m.score_against_all

        def overflowing(h, r, table=None):
            np.multiply(np.array([1e308]), 10.0)
            return score(h, r, table=table)

        m.score_against_all = overflowing
        use_cpus(monkeypatch, n_cpus)
        with warnings.catch_warnings(record=True) as caught, np.errstate(over="ignore"):
            warnings.simplefilter("always")
            compute_ranks(m, triples, filters)
        assert [str(w.message) for w in caught] == []

    def test_no_affinity_call_ranks_on_the_caller(self, monkeypatch):
        # platforms without os.sched_getaffinity (macOS, Windows) rank serially
        m, triples, filters = boundary_model()
        use_cpus(monkeypatch, 2)
        threaded = compute_ranks(m, triples, filters, seed=2)
        monkeypatch.delattr(os, "sched_getaffinity")
        threads = set()
        score = m.score_against_all

        def recorded(h, r, table=None):
            threads.add(threading.get_ident())
            return score(h, r, table=table)

        m.score_against_all = recorded
        ranks = compute_ranks(m, triples, filters, seed=2)
        assert ranks.tobytes() == threaded.tobytes()
        assert threads == {threading.get_ident()}

    @pytest.mark.parametrize("failure", (NumericError, KeyboardInterrupt))
    def test_failure_in_the_first_block_stops_the_others(self, monkeypatch, failure):
        # the caller's block fails once the pool thread has begun block 1;
        # that thread then scores slowly, so without the stop it would
        # rank all 12 of its queries before the error came through
        m, triples, filters = boundary_model()
        caller = threading.get_ident()
        started, failed = threading.Event(), threading.Event()
        worker_calls = []
        score = m.score_against_all

        def gated(h, r, table=None):
            if threading.get_ident() == caller:
                assert started.wait(5)
                failed.set()
                raise failure("planted")
            started.set()
            assert failed.wait(5)
            worker_calls.append(h)
            time.sleep(0.01)
            return score(h, r, table=table)

        m.score_against_all = gated
        use_cpus(monkeypatch, 2)
        with pytest.raises(failure, match="planted"):
            compute_ranks(m, triples, filters)
        assert 1 <= len(worker_calls) < len(triples) // 2, worker_calls

    def test_clamp_counts_do_not_depend_on_the_cpu_count(self, monkeypatch):
        # a lost update on the shared counter shows as a smaller total; a
        # short switch interval makes one likely without the lock
        m, triples, filters = boundary_model()
        totals = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for n_cpus in (1, 2, 8):
                use_cpus(monkeypatch, n_cpus)
                geometry.reset_clamp_events()
                for _ in range(5):
                    compute_ranks(m, triples, filters)
                totals[n_cpus] = geometry.clamp_events()
        finally:
            sys.setswitchinterval(interval)
        assert totals[1] > 0
        assert totals[2] == totals[1] and totals[8] == totals[1], totals


class TestEvaluateSplit:
    def test_known_report(self):
        # scores 3,2,1,0: true tails 0, 1, 3 rank 1, 2, 4 unfiltered
        m = scored_model([3.0, 2.0, 1.0, 0.0])
        triples = np.asarray([[0, 0, 0], [1, 0, 1], [2, 0, 3]])
        report = evaluate_split(m, triples, None)
        np.testing.assert_allclose(report.mrr, 0.5833333333333334, rtol=1e-15)

    def test_permutation_invariant_exactly(self):
        rng = np.random.default_rng(12)
        m = scored_model(rng.integers(0, 3, size=10).astype(float), n_relations=2)
        triples = np.asarray([[h, r, t] for h in range(4)
                              for r in range(2) for t in range(4)])
        perm = rng.permutation(len(triples))
        a = evaluate_split(m, triples, None, seed=3)
        b = evaluate_split(m, triples[perm], None, seed=3)
        assert a.mrr == b.mrr and a.hits == b.hits

    @pytest.mark.parametrize("report", (
        lambda m, triples: evaluate_split(m, triples, None),
        lambda m, triples: per_relation_report([], triples, ["r"], 1),
    ), ids=("evaluate_split", "per_relation_report"))
    def test_empty_split_rejected(self, report):
        m = scored_model([0.0, 1.0])
        with pytest.raises(ValueError, match="empty split"):
            report(m, np.empty((0, 3), dtype=int))


class TestPerRelation:
    def test_reciprocal_folds_onto_base(self):
        m = scored_model(np.arange(6)[::-1].astype(float), n_relations=4)
        # relations: 2 base + 2 reciprocal; queries under r and r+2
        # aggregate into the same row
        triples = np.asarray([[0, 0, 0], [1, 2, 1], [2, 1, 0], [3, 3, 5]])
        ranks = compute_ranks(m, triples, None)
        rows = per_relation_report(ranks, triples, ["r_a", "r_b", "r_a^-1", "r_b^-1"],
                                   n_base_relations=2)
        assert [row["relation"] for row in rows] == ["r_a", "r_b"]
        assert rows[0]["n"] == 2 and rows[1]["n"] == 2

    def test_rows_sorted_by_name(self):
        m = scored_model(np.zeros(4), n_relations=3)
        triples = np.asarray([[0, 2, 1], [0, 1, 1], [0, 0, 1]])
        ranks = compute_ranks(m, triples, None)
        rows = per_relation_report(ranks, triples, ["zeta", "alpha", "mid"],
                                   n_base_relations=3)
        assert [row["relation"] for row in rows] == ["alpha", "mid", "zeta"]

    def test_single_relation_matches_global(self):
        rng = np.random.default_rng(13)
        m = scored_model(rng.normal(size=8))
        triples = np.asarray([[0, 0, 1], [2, 0, 5], [7, 0, 3]])
        rows = per_relation_report(compute_ranks(m, triples, None, seed=2), triples,
                                   ["only"], 1)
        report = evaluate_split(m, triples, None, seed=2)
        assert rows[0]["mrr"] == report.mrr
        assert rows[0]["n"] == report.n_queries


class TestCsvOutput:
    """The tables `hkge eval` writes, for a given report and per-relation rows."""

    @staticmethod
    def run_eval(tmp_path, *extra):
        data.make_tree_dataset(tmp_path / "tree", depth=3)
        store = data.augment_reciprocal(data.load_dataset(tmp_path / "tree"))
        model = KGEModel.init(ModelConfig(dim=2), store.n_entities, store.n_relations, seed=0)
        checkpoint.save(model, tmp_path / "model.bin")
        assert cli.main(["eval", "--dataset-dir", str(tmp_path / "tree"),
                         "--out-dir", str(tmp_path / "eval"),
                         "--checkpoint", str(tmp_path / "model.bin"), *extra]) == 0
        return tmp_path / "eval"

    def test_global_csv(self, tmp_path, monkeypatch):
        report = MetricReport(mrr=0.5, hits={1: 0.25, 3: 0.5, 10: 0.75}, n_queries=4)
        monkeypatch.setattr(evaluation, "aggregate", lambda ranks: report)
        path = self.run_eval(tmp_path, "--split", "test") / "metrics.csv"
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "split,n,mrr,h1,h3,h10"
        assert lines[1] == "test,4,0.500000,0.250000,0.500000,0.750000"

    def test_per_relation_csv(self, tmp_path, monkeypatch):
        rows = [{"relation": "r", "n": 2, "mrr": 1.0, "h1": 1.0, "h3": 1.0, "h10": 1.0}]
        monkeypatch.setattr(evaluation, "per_relation_report", lambda *args: rows)
        path = self.run_eval(tmp_path, "--per-relation") / "per_relation.csv"
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "relation,n,mrr,h1,h3,h10"
        assert lines[1].startswith("r,2,1.000000")
