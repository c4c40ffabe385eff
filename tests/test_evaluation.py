import numpy as np
import pytest

from hkge import data
from hkge.evaluation import (
    MetricReport,
    aggregate,
    compute_ranks,
    evaluate_split,
    per_relation_report,
    rank_filtered,
    write_global_csv,
    write_per_relation_csv,
)
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


def brute_rank(scores, t, known, mode):
    """Rank computed the slow, obvious way."""
    keep = set(range(len(scores))) - {int(k) for k in known} | {int(t)}
    better = sum(1 for j in keep if scores[j] > scores[t])
    ties = sum(1 for j in keep if j != t and scores[j] == scores[t])
    return 1 + better + (ties if mode == "pessimistic" else 0)


class TestRankFiltered:
    def test_unique_scores(self):
        scores = np.asarray([3.0, 2.0, 1.0])
        assert rank_filtered(scores, 0, [], tie_mode="optimistic") == 1
        assert rank_filtered(scores, 1, [], tie_mode="optimistic") == 2
        assert rank_filtered(scores, 2, [], tie_mode="optimistic") == 3

    def test_filtering_removes_better_candidates(self):
        scores = np.asarray([3.0, 2.0, 1.0])
        # entity 0 is a known-true tail: it no longer outranks entity 1
        assert rank_filtered(scores, 1, [0], tie_mode="optimistic") == 1

    def test_true_tail_immune_to_own_filter(self):
        scores = np.asarray([3.0, 2.0, 1.0])
        # t appears in its own filter list and must stay in the pool
        assert rank_filtered(scores, 1, [0, 1], tie_mode="optimistic") == 1

    def test_tie_modes_bracket(self):
        scores = np.zeros(5)
        assert rank_filtered(scores, 2, [], tie_mode="optimistic") == 1
        assert rank_filtered(scores, 2, [], tie_mode="pessimistic") == 5
        rng = np.random.default_rng(3)
        r = rank_filtered(scores, 2, [], tie_mode="random", rng=rng)
        assert 1 <= r <= 5

    def test_random_tie_mean_is_centered(self):
        # all-tied pool of 41: rank is uniform on 1..41, mean 21
        scores = np.zeros(41)
        rng = np.random.default_rng(0)
        draws = np.asarray([
            rank_filtered(scores, 0, [], tie_mode="random", rng=rng)
            for _ in range(10_000)
        ])
        # 3 sigma of the sample mean: 3 * (40/sqrt(12)) / 100 ~ 0.35
        assert abs(draws.mean() - 21.0) < 0.35
        assert draws.min() == 1 and draws.max() == 41

    def test_random_requires_rng(self):
        with pytest.raises(ValueError, match="rng"):
            rank_filtered(np.zeros(3), 0, [], tie_mode="random")

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="tie_mode"):
            rank_filtered(np.zeros(3), 0, [], tie_mode="typo")

    def test_matches_brute_force(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            n = int(rng.integers(2, 21))
            # coarse scores so ties actually happen
            scores = rng.integers(0, 4, size=n).astype(np.float64)
            t = int(rng.integers(0, n))
            known = rng.choice(n, size=int(rng.integers(0, n)), replace=False)
            for mode in ("optimistic", "pessimistic"):
                assert rank_filtered(scores, t, known, tie_mode=mode) == \
                    brute_rank(scores, t, known, mode)
            r = rank_filtered(scores, t, known, tie_mode="random",
                              rng=np.random.default_rng(1))
            assert brute_rank(scores, t, known, "optimistic") <= r \
                <= brute_rank(scores, t, known, "pessimistic")

    def test_filtering_never_worsens_rank(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            n = int(rng.integers(3, 15))
            scores = rng.normal(size=n)
            t = int(rng.integers(0, n))
            known = rng.choice(n, size=int(rng.integers(1, n)), replace=False)
            for mode in ("optimistic", "pessimistic"):
                filtered = rank_filtered(scores, t, known, tie_mode=mode)
                raw = rank_filtered(scores, t, [], tie_mode=mode)
                assert filtered <= raw


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
        report = aggregate(ranks, ks=(1, 3, 10, 20))
        assert report.hits[1] <= report.hits[3] <= report.hits[10] <= report.hits[20]

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
    def test_matches_per_query_calls(self):
        rng = np.random.default_rng(11)
        m = scored_model(rng.normal(size=12), n_relations=2)
        triples = np.asarray([[0, 0, 3], [5, 1, 0], [2, 0, 2]])
        filters = {(0, 0): np.asarray([1, 3]), (5, 1): np.asarray([0, 2, 4])}
        ranks = compute_ranks(m, triples, filters, tie_mode="optimistic")
        for i, (h, r, t) in enumerate(triples):
            scores = m.score_against_all(int(h), int(r))
            known = filters.get((int(h), int(r)), [])
            assert ranks[i] == brute_rank(scores, t, known, "optimistic")

    @pytest.mark.parametrize("geometry", GEOMETRIES)
    @pytest.mark.parametrize("mode", CURVATURE_MODES)
    def test_block_ranks_equal_one_query_at_a_time(self, mode, geometry):
        # one scoring table for the block, with repeated (h, r), against a
        # table per query; the block's table is not kept on the model
        cfg = ModelConfig(dim=4, curvature_mode=mode, geometry=geometry, init_scale=0.3)
        m = KGEModel.init(cfg, 13, 3, seed=7)
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

    def test_non_finite_scores_raise(self):
        m = scored_model(np.zeros(4))
        m.params["ent_bias"][2] = np.nan
        with pytest.raises(NumericError, match="non-finite"):
            compute_ranks(m, np.asarray([[0, 0, 1]]), None)


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

    def test_empty_split_rejected(self):
        m = scored_model([0.0, 1.0])
        with pytest.raises(ValueError, match="empty"):
            evaluate_split(m, np.empty((0, 3), dtype=int), None)


class TestPerRelation:
    def test_reciprocal_folds_onto_base(self):
        m = scored_model(np.arange(6)[::-1].astype(float), n_relations=4)
        # relations: 2 base + 2 reciprocal; queries under r and r+2
        # aggregate into the same row
        triples = np.asarray([[0, 0, 0], [1, 2, 1], [2, 1, 0], [3, 3, 5]])
        ranks = compute_ranks(m, triples, None, tie_mode="optimistic")
        rows = per_relation_report(ranks, triples, ["r_a", "r_b", "r_a^-1", "r_b^-1"],
                                   n_base_relations=2)
        assert [row["relation"] for row in rows] == ["r_a", "r_b"]
        assert rows[0]["n"] == 2 and rows[1]["n"] == 2

    def test_rows_sorted_by_name(self):
        m = scored_model(np.zeros(4), n_relations=3)
        triples = np.asarray([[0, 2, 1], [0, 1, 1], [0, 0, 1]])
        ranks = compute_ranks(m, triples, None, tie_mode="optimistic")
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
    def test_global_csv(self, tmp_path):
        report = MetricReport(mrr=0.5, hits={1: 0.25, 3: 0.5, 10: 0.75}, n_queries=4)
        path = tmp_path / "metrics.csv"
        write_global_csv(path, report, "test")
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "split,n,mrr,h1,h3,h10"
        assert lines[1] == "test,4,0.500000,0.250000,0.500000,0.750000"

    def test_per_relation_csv(self, tmp_path):
        rows = [{"relation": "r", "n": 2, "mrr": 1.0, "h1": 1.0, "h3": 1.0, "h10": 1.0}]
        path = tmp_path / "per_relation.csv"
        write_per_relation_csv(path, rows)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "relation,n,mrr,h1,h3,h10"
        assert lines[1].startswith("r,2,1.000000")
