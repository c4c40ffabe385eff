"""Acceptance criteria for the toolkit, one test per criterion.

Each test prints a single `[criterion N] PASS/FAIL/SKIP` line directly
to the terminal (bypassing capture) with the measured numbers next to
the stated tolerance.  Criteria that need benchmark datasets look for
them under `$HKGE_DATA` or `<repo>/data/` and skip with instructions
when absent.  Criterion 9 is a multi-hour run excluded from the default
suite by design; its test checks that the reproduction recipe is
documented.
"""

import os
import time

import numpy as np
import pytest

from hkge import data, geometry
from hkge.evaluation import compute_ranks, evaluate_split
from hkge.hierarchy import khs, relation_subgraph, xi_estimate
from hkge.model import KGEModel, ModelConfig
from hkge.training import (
    TrainConfig,
    loss,
    loss_and_grads,
    round_trip_f32,
    train,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture
def announce(capsys):
    def _announce(n, status, detail):
        with capsys.disabled():
            print(f"[criterion {n:>2}] {status} {detail}", flush=True)
    return _announce


def find_dataset(*names):
    roots = []
    if os.environ.get("HKGE_DATA"):
        roots.append(os.environ["HKGE_DATA"])
    roots.append(os.path.join(REPO_ROOT, "data"))
    for root in roots:
        for name in names:
            path = os.path.join(root, name)
            if os.path.isdir(path):
                return path
    return None


def skip_missing(announce, n, dataset):
    announce(n, "SKIP", f"no local copy of {dataset}: place the benchmark "
                        "directories (train.txt/valid.txt/test.txt) under "
                        "$HKGE_DATA or ./data, e.g. data/WN18RR")
    pytest.skip(f"{dataset} not available in this environment")


def rand_directions(rng, n, d):
    v = rng.standard_normal((n, d))
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def test_criterion_01_geometry_property_suite(announce):
    n, d = 10_000, 4
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    c = 10.0 ** rng.uniform(-3, 1, n)
    sc = np.sqrt(c)

    # exp/log round trip on the invertible domain
    v = rand_directions(rng, n, d) * (rng.uniform(1e-3, 1.0, n) * 5.0 / sc)[:, None]
    back = geometry.log0(geometry.exp0(v, c), c)
    nv = np.linalg.norm(v, axis=-1)
    worst = np.max(np.linalg.norm(back - v, axis=-1) / nv)

    # points strictly inside the ball for the remaining identities
    x = rand_directions(rng, n, d) * (rng.uniform(0.01, 0.99, n) / sc)[:, None]
    y = rand_directions(rng, n, d) * (rng.uniform(0.01, 0.99, n) / sc)[:, None]
    nx = np.linalg.norm(x, axis=-1)
    zero = np.zeros_like(x)
    worst = max(worst, np.max(
        np.linalg.norm(geometry.mobius_add(x, zero, c) - x, axis=-1) / nx))
    worst = max(worst, np.max(
        np.linalg.norm(geometry.mobius_add(zero, x, c) - x, axis=-1) / nx))
    worst = max(worst, np.max(
        np.linalg.norm(geometry.mobius_add(-x, x, c), axis=-1) / nx))

    dxy = geometry.hyp_distance(x, y, c)
    dyx = geometry.hyp_distance(y, x, c)
    worst = max(worst, np.max(np.abs(dxy - dyx) / dxy))

    theta = rng.uniform(-np.pi, np.pi, (n, d // 2))
    rot = geometry.block_rotate(x, theta)
    worst = max(worst, np.max(
        np.abs(np.linalg.norm(rot, axis=-1) - nx) / nx))

    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 10.0
    announce(1, "PASS" if ok else "FAIL",
             f"geometry property suite: worst rel err {worst:.2e} "
             f"(tol 1e-8), {elapsed:.2f}s (limit 10s)")
    assert worst <= 1e-8
    assert elapsed < 10.0


def test_criterion_02_distance_scaling_identity(announce):
    n, d = 10_000, 4
    rng = np.random.default_rng(102)
    t0 = time.perf_counter()
    c = 10.0 ** rng.uniform(-3, 1, n)
    sc = np.sqrt(c)
    nv = rng.uniform(0.01, 1.0, n)
    v = rand_directions(rng, n, d) * nv[:, None]
    s = rng.uniform(0.01, 1.0, n) * np.minimum(4.0, 5.0 / (sc * nv))
    zero = np.zeros_like(v)

    d_v = geometry.hyp_distance(geometry.exp0(v, c), zero, c)
    d_sv = geometry.hyp_distance(geometry.exp0(s[:, None] * v, c), zero, c)
    err_scale = np.max(np.abs(d_sv - s * d_v) / (s * d_v))
    err_norm = np.max(np.abs(d_v - 2.0 * nv) / (2.0 * nv))
    worst = max(err_scale, err_norm)

    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8
    announce(2, "PASS" if ok else "FAIL",
             f"origin-distance scaling: d(exp0(s*v),0)=s*d(exp0(v),0)=2s||v||, "
             f"worst rel err {worst:.2e} (tol 1e-8), {elapsed:.2f}s")
    assert worst <= 1e-8


def test_criterion_03_rotation_commutes_with_exp0(announce):
    rng = np.random.default_rng(103)
    t0 = time.perf_counter()
    worst = 0.0
    for d in (2, 4, 8, 32):
        n = 10_000
        c = 10.0 ** rng.uniform(-3, 1, n)
        v = rand_directions(rng, n, d) * rng.uniform(0.0, 2.0, n)[:, None]
        theta = rng.uniform(-np.pi, np.pi, (n, d // 2))
        lhs = geometry.exp0(geometry.block_rotate(v, theta), c)
        rhs = geometry.block_rotate(geometry.exp0(v, c), theta)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10
    announce(3, "PASS" if ok else "FAIL",
             f"rotation/exp0 commute over d in {{2,4,8,32}}: worst abs err "
             f"{worst:.2e} (tol 1e-10 componentwise), {elapsed:.2f}s")
    assert worst <= 1e-10


def test_criterion_04_gradients_match_central_differences(announce):
    t0 = time.perf_counter()
    h = 1e-5
    worst = 0.0
    worst_at = ""
    rng = np.random.default_rng(104)
    combo = 0
    for mode in ("fixed_one", "global", "per_relation", "attention"):
        for inter in (True, False):
            for intra in (True, False):
                combo += 1
                cfg = ModelConfig(dim=4, curvature_mode=mode,
                                  use_inter_level=inter, use_intra_level=intra)
                m = KGEModel.init(cfg, 5, 4, seed=11)
                mr = np.random.default_rng(200 + combo)
                # every group is drawn, in one order; the model keeps its own
                drawn = {
                    "ent_emb": mr.normal(0.0, 0.3, (5, 4)),
                    "ent_bias": mr.uniform(-0.2, 0.2, 5),
                    "rel_emb": mr.normal(0.0, 0.3, (4, 4)),
                    "rel_scale": mr.uniform(0.5, 1.6, (4, 2)),
                    "rel_theta": mr.uniform(-2.0, 2.0, (4, 2)),
                    "rel_trans": mr.normal(0.0, 0.3, (4, 4)),
                    "attn_a": mr.uniform(-1.0, 1.0, 4),
                    "attn_p": mr.uniform(-1.0, 1.0, 4),
                }
                if "curv_raw" in m.params:
                    drawn["curv_raw"] = mr.uniform(0.2, 1.2, m.params["curv_raw"].shape)
                m.params.update((k, v) for k, v in drawn.items() if k in m.params)
                pos = np.stack([rng.integers(0, 5, 4), rng.integers(0, 4, 4),
                                rng.integers(0, 5, 4)], axis=1)
                neg = rng.integers(0, 5, (4, 2))
                _, grads = loss_and_grads(m, pos, neg)
                dense = grads.to_dense(m)
                for name, param in m.params.items():
                    it = np.ndindex(param.shape) if param.ndim else [()]
                    for idx in it:
                        orig = param[idx]
                        param[idx] = orig + h
                        up = loss(m, pos, neg)
                        param[idx] = orig - h
                        down = loss(m, pos, neg)
                        param[idx] = orig
                        fd = (up - down) / (2.0 * h)
                        g = dense[name][idx] if dense[name].ndim else float(dense[name])
                        # 1e-6 floor: below it a central difference is
                        # rounding noise at this h, not signal
                        rel = abs(fd - g) / max(abs(fd), abs(g), 1e-6)
                        if rel > worst:
                            worst = rel
                            worst_at = f"{mode}/inter={inter}/intra={intra} {name}{idx}"
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-4 and elapsed < 60.0
    announce(4, "PASS" if ok else "FAIL",
             f"central differences over 4 modes x 4 flag combos: worst rel err "
             f"{worst:.2e} at {worst_at} (tol 1e-4), {elapsed:.1f}s (limit 60s)")
    assert worst < 1e-4, worst_at
    assert elapsed < 60.0


def oracle_rank(scores, t, known, mode):
    """Naive enumerate-sort-filter ranking."""
    known = set(int(k) for k in known) - {int(t)}
    candidates = [j for j in range(len(scores)) if j not in known]
    order = sorted(candidates, key=lambda j: (-scores[j], j))
    block = [i for i, j in enumerate(order) if scores[j] == scores[t]]
    return block[0] + 1 if mode == "optimistic" else block[-1] + 1


def test_criterion_05_ranking_matches_naive_oracle(announce):
    t0 = time.perf_counter()
    rng = np.random.default_rng(105)
    checked = 0
    for case in range(1000):
        n_ent = int(rng.integers(2, 21))
        n_rel = int(rng.integers(1, 4))
        scale = 0.5 if case % 2 == 0 else 0.0
        cfg = ModelConfig(dim=4, curvature_mode="attention", init_scale=scale)
        m = KGEModel.init(cfg, n_ent, n_rel, seed=case)
        if scale == 0.0:
            # integer biases force heavy score ties
            m.params["ent_bias"][:] = rng.integers(-2, 3, n_ent).astype(float)
        h = int(rng.integers(0, n_ent))
        r = int(rng.integers(0, n_rel))
        t = int(rng.integers(0, n_ent))
        known = rng.choice(n_ent, size=int(rng.integers(0, n_ent)), replace=False)
        filters = {(h, r): np.sort(known)}
        scores = m.score_against_all(h, r)
        triple = np.asarray([[h, r, t]])
        for mode in ("optimistic", "pessimistic"):
            got = compute_ranks(m, triple, filters, tie_mode=mode)[0]
            want = oracle_rank(scores, t, known, mode)
            assert got == want, (case, mode, got, want)
        rnd = compute_ranks(m, triple, filters, tie_mode="random", seed=case)[0]
        assert oracle_rank(scores, t, known, "optimistic") <= rnd \
            <= oracle_rank(scores, t, known, "pessimistic")
        checked += 1
    elapsed = time.perf_counter() - t0
    announce(5, "PASS",
             f"filtered ranks equal the enumerate-sort-filter oracle on "
             f"{checked} random models (|E| <= 20), exact, {elapsed:.1f}s")
    assert checked == 1000


# Published statistics: strict on |R| and train/test counts; the entity
# and valid counts are reported (the published table disagrees with the
# widely-distributed files there).
TABLE_COUNTS = {
    "wn18rr": {"entities": 40493, "relations": 11, "train": 86835,
               "valid": 3034, "test": 3134},
    "fb15k237": {"entities": 14541, "relations": 237, "train": 272115,
                 "valid": 17535, "test": 20466},
}


def test_criterion_06_benchmark_ingestion_counts(announce):
    wn = find_dataset("WN18RR", "wn18rr")
    fb = find_dataset("FB15K-237", "FB15k-237", "fb15k237")
    if wn is None or fb is None:
        skip_missing(announce, 6, "WN18RR and FB15K-237")
    t0 = time.perf_counter()
    notes = []
    for path, key in ((wn, "wn18rr"), (fb, "fb15k237")):
        store = data.load_dataset(path, verify_reference=False)
        stats = data.dataset_stats(store)
        ref = TABLE_COUNTS[key]
        for strict in ("relations", "train", "test"):
            assert stats[strict] == ref[strict], \
                f"{key}: {strict} {stats[strict]} != {ref[strict]}"
        for soft in ("entities", "valid"):
            if stats[soft] != ref[soft]:
                notes.append(f"{key} {soft}={stats[soft]} (published {ref[soft]})")
    elapsed = time.perf_counter() - t0
    extra = f"; deviations reported: {', '.join(notes)}" if notes else ""
    ok = elapsed < 30.0
    announce(6, "PASS" if ok else "FAIL",
             f"|R|/train/test counts match the published table exactly"
             f"{extra}, {elapsed:.1f}s (limit 30s)")
    assert elapsed < 30.0


def tree_store(tmp_path):
    data.make_tree_dataset(tmp_path / "tree")
    return data.augment_reciprocal(data.load_dataset(tmp_path / "tree"))


def test_criterion_07_tree_learning_check(announce, tmp_path):
    t0 = time.perf_counter()
    store = tree_store(tmp_path)
    filters = data.build_filter_index(store)
    cfg = ModelConfig(dim=8, curvature_mode="attention")
    model = KGEModel.init(cfg, store.n_entities, store.n_relations, seed=0)
    untrained = evaluate_split(round_trip_f32(model), store.valid, filters,
                               seed=0).mrr
    tcfg = TrainConfig(epochs=300, batch_size=99, neg_samples=16, lr=0.05,
                       eval_every=10, patience=30, seed=0)
    result = train(model, store, tcfg, filters)
    elapsed = time.perf_counter() - t0
    ok = (result.best_mrr >= 0.60
          and result.best_mrr >= 5.0 * untrained
          and elapsed < 120.0)
    announce(7, "PASS" if ok else "FAIL",
             f"tree KG at d=8: valid MRR {result.best_mrr:.3f} >= 0.60 by epoch "
             f"{result.best_epoch} (<= 300), {result.best_mrr / untrained:.1f}x "
             f"untrained ({untrained:.3f}, need 5x), {elapsed:.1f}s (limit 120s)")
    assert result.best_mrr >= 0.60
    assert result.best_mrr >= 5.0 * untrained
    assert elapsed < 120.0


def find_relation(store, bare_name):
    for name in store.relations[:store.n_base_relations]:
        if name.lstrip("_") == bare_name:
            return name
    raise KeyError(bare_name)


def test_criterion_08_wn18rr_hierarchy_metrics(announce):
    wn = find_dataset("WN18RR", "wn18rr")
    if wn is None:
        skip_missing(announce, 8, "WN18RR")
    t0 = time.perf_counter()
    store = data.load_dataset(wn, verify_reference=False)
    scores = {}
    for bare in ("member_meronym", "hypernym"):
        graph = relation_subgraph(store, find_relation(store, bare))
        scores[bare] = khs(graph)
        if bare == "hypernym":
            xi = xi_estimate(graph, n_samples=10_000, seed=0)
    elapsed = time.perf_counter() - t0
    khs_ok = all(round(v, 2) == 1.0 for v in scores.values())
    xi_ok = abs(xi.mean - (-2.46)) <= 0.3
    ok = khs_ok and xi_ok and elapsed < 300.0
    announce(8, "PASS" if ok else "FAIL",
             f"member_meronym khs={scores['member_meronym']:.4f}, "
             f"hypernym khs={scores['hypernym']:.4f} (need 1.00), "
             f"hypernym xi={xi.mean:.3f}+-{xi.stderr:.3f} over {xi.accepted} "
             f"samples (need -2.46 +- 0.3), {elapsed:.1f}s (limit 300s)")
    assert khs_ok, scores
    assert xi_ok, xi
    assert elapsed < 300.0


def test_criterion_09_full_reproduction_recipe_documented(announce):
    readme = os.path.join(REPO_ROOT, "README.md")
    text = open(readme, encoding="utf-8").read()
    needed = ["--dim 32", "--curvature-mode attention", "0.475", "0.556", "0.015"]
    missing = [tok for tok in needed if tok not in text]
    ok = not missing
    announce(9, "PASS" if ok else "FAIL",
             "full WN18RR reproduction (multi-hour CPU run) is excluded from "
             "the default suite by design; the README documents the exact "
             "recipe and the expected MRR 0.475 +- 0.015 / H@10 0.556 +- 0.015"
             + (f" [missing from README: {missing}]" if missing else ""))
    assert ok, f"README reproduction recipe incomplete: {missing}"


ABLATIONS = {
    "full": dict(curvature_mode="attention", use_inter_level=True,
                 use_intra_level=True),
    "no_inter_level": dict(curvature_mode="attention", use_inter_level=False,
                           use_intra_level=True),
    "no_intra_level": dict(curvature_mode="attention", use_inter_level=True,
                           use_intra_level=False),
    "fixed_curvature": dict(curvature_mode="fixed_one", use_inter_level=True,
                            use_intra_level=True),
}


def test_criterion_10_ablation_ordering_over_seeds(announce, tmp_path):
    t0 = time.perf_counter()
    store = tree_store(tmp_path)
    filters = data.build_filter_index(store)
    means = {}
    for name, kwargs in ABLATIONS.items():
        mrrs = []
        for seed in range(5):
            cfg = ModelConfig(dim=8, **kwargs)
            model = KGEModel.init(cfg, store.n_entities, store.n_relations,
                                  seed=seed)
            tcfg = TrainConfig(epochs=300, batch_size=99, neg_samples=16,
                               lr=0.05, eval_every=10, patience=30, seed=seed)
            mrrs.append(train(model, store, tcfg, filters).best_mrr)
        means[name] = float(np.mean(mrrs))
    elapsed = time.perf_counter() - t0
    losers = [n for n in ABLATIONS if n != "full" and means["full"] < means[n]]
    ok = not losers and elapsed < 900.0
    detail = ", ".join(f"{n}={v:.4f}" for n, v in means.items())
    announce(10, "PASS" if ok else "FAIL",
             f"5-seed mean valid MRR: {detail}; full >= every ablation"
             f"{' VIOLATED by ' + str(losers) if losers else ''}, "
             f"{elapsed:.1f}s (limit 900s)")
    assert not losers, means
    assert elapsed < 900.0
