import dataclasses
import hashlib
import math
import os
import re
import types
import warnings

import numpy as np
import pytest
from scipy import sparse

from hkge import cli, data, geometry, training
from hkge.checkpoint import round_trip_f32
from hkge.model import (
    CURVATURE_MODES,
    PARAM_ORDER,
    KGEModel,
    ModelConfig,
    SparseGrads,
    _segment_sum,
)
from hkge.training import (
    Adagrad,
    METRIC_LOG_COLUMNS,
    Adam,
    NumericError,
    TrainConfig,
    clip_grads,
    loss,
    loss_and_grads,
    sample_negatives,
    train,
)


def bias_only_model(biases, dtype=np.float32):
    """All-zero embeddings in ``dtype``: the score of any triple is b_h + b_t."""
    m = KGEModel.init(ModelConfig(dim=2, curvature_mode="fixed_one"),
                      len(biases), 1, seed=0)
    for key, val in m.params.items():
        m.params[key] = (np.ones_like if key == "rel_scale" else np.zeros_like)(val, dtype=dtype)
    m.params["ent_bias"][:] = biases
    return m


def random_model(cfg, n_entities, n_relations, seed, dtype=np.float64):
    """Every group is drawn, in one order, and only the model's are kept.

    The draws are float64 and held in ``dtype``: float64 unless given."""
    m = KGEModel.init(cfg, n_entities, n_relations, seed=seed)
    rng = np.random.default_rng(seed + 500)
    d = cfg.dim
    drawn = {
        "ent_emb": rng.normal(0.0, 0.3, (n_entities, d)),
        "ent_bias": rng.normal(0.0, 0.2, n_entities),
        "rel_emb": rng.normal(0.0, 0.3, (n_relations, d)),
        "rel_scale": rng.uniform(0.6, 1.5, (n_relations, d // 2)),
        "rel_theta": rng.uniform(-2.0, 2.0, (n_relations, d // 2)),
        "rel_trans": rng.normal(0.0, 0.3, (n_relations, d)),
        "attn_a": rng.normal(0.0, 1.0, d),
        "attn_p": rng.normal(0.0, 1.0, d),
    }
    if "curv_raw" in m.params:
        drawn["curv_raw"] = rng.uniform(0.2, 1.2, m.params["curv_raw"].shape)
    m.params.update((k, v.astype(dtype)) for k, v in drawn.items() if k in m.params)
    return m


def chain_store():
    """Tiny 4-entity chain, already reciprocal-augmented."""
    triples = [("a", "next", "b"), ("b", "next", "c"), ("c", "next", "d"),
               ("d", "loop", "a")]
    store = data.build_vocab({"train": triples,
                              "valid": [("a", "next", "b")],
                              "test": [("b", "next", "c")]})
    return data.augment_reciprocal(store)


class TestSampleNegatives:
    def test_single_entity_universe(self):
        rng = np.random.default_rng(0)
        np.testing.assert_array_equal(sample_negatives(rng, 1, 50), np.zeros(50))

    def test_deterministic_per_seed(self):
        a = sample_negatives(np.random.default_rng(4), 10, 100)
        b = sample_negatives(np.random.default_rng(4), 10, 100)
        np.testing.assert_array_equal(a, b)

    def test_range(self):
        draws = sample_negatives(np.random.default_rng(1), 7, 10_000)
        assert draws.min() >= 0 and draws.max() < 7

    def test_uniform_chi_square(self):
        # 1e6 draws over 10 entities: chi-square with 9 dof has mean 9
        # and sd sqrt(18); 9 + 3*sqrt(18) ~ 21.7
        draws = sample_negatives(np.random.default_rng(2), 10, 1_000_000)
        counts = np.bincount(draws, minlength=10)
        expected = 100_000.0
        chi2 = float(np.sum((counts - expected) ** 2 / expected))
        assert chi2 < 21.8


class TestLoss:
    def test_zero_model_gives_log2(self):
        # every score is 0, so every term is softplus(0) = ln 2
        m = bias_only_model([0.0, 0.0, 0.0], dtype=np.float64)
        pos = np.asarray([[0, 0, 1], [1, 0, 2]])
        np.testing.assert_allclose(loss(m, pos), 0.6931471805599453, rtol=1e-12)
        neg = np.asarray([[2, 0], [0, 1]])
        np.testing.assert_allclose(loss(m, pos, neg), 0.6931471805599453, rtol=1e-12)

    def test_bias_only_example(self):
        # s(0,r,1) = 2 and s(0,r,2) = -1: the mean of softplus(-2) and
        # softplus(-1) over the two terms
        m = bias_only_model([0.0, 2.0, -1.0], dtype=np.float64)
        pos = np.asarray([[0, 0, 1]])
        np.testing.assert_allclose(loss(m, pos), 0.1269280110429725, rtol=1e-12)
        np.testing.assert_allclose(loss(m, pos, np.asarray([[2]])),
                                   0.2200948492805977, rtol=1e-12)

    def test_asymptotics(self):
        # a strongly violated positive costs ~|s|, a strongly satisfied
        # one ~0 (and vice versa for negatives)
        m = bias_only_model([0.0, -30.0, 30.0], dtype=np.float64)
        pos = np.asarray([[0, 0, 1]])
        np.testing.assert_allclose(loss(m, pos), 30.0, rtol=1e-6)
        pos_good = np.asarray([[0, 0, 2]])
        assert loss(m, pos_good) < 1e-12

    def test_negative_column_order_irrelevant(self):
        cfg = ModelConfig(dim=4, curvature_mode="attention")
        m = random_model(cfg, 6, 2, seed=1)
        pos = np.asarray([[0, 0, 1], [2, 1, 3]])
        neg = np.asarray([[4, 5, 1], [0, 2, 5]])
        np.testing.assert_allclose(loss(m, pos, neg),
                                   loss(m, pos, neg[:, ::-1]), rtol=1e-14)

    def test_accidental_hits_are_kept(self):
        # a "negative" equal to the true tail contributes softplus(+s),
        # not zero: the sampler does not filter
        m = bias_only_model([0.0, 2.0, -1.0], dtype=np.float64)
        pos = np.asarray([[0, 0, 1]])
        hit = loss(m, pos, np.asarray([[1]]))
        # mean of softplus(-2) and softplus(+2)
        np.testing.assert_allclose(
            hit, (0.1269280110429725 + 2.1269280110429727) / 2.0, rtol=1e-12)

    def test_loss_and_grads_value_matches_loss(self):
        cfg = ModelConfig(dim=4, curvature_mode="per_relation")
        m = random_model(cfg, 5, 2, seed=2)
        pos = np.asarray([[0, 0, 1], [3, 1, 4]])
        neg = np.asarray([[2, 4], [1, 0]])
        value, _ = loss_and_grads(m, pos, neg)
        assert value == loss(m, pos, neg)


def assert_matches_central_differences(m, pos, neg):
    _, grads = loss_and_grads(m, pos, neg)
    dense = grads.to_dense(m)
    h = 1e-6
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
            got = dense[name][idx] if dense[name].ndim else float(dense[name])
            # combined bound: FD noise dominates once the gradient
            # itself is at the 1e-5 scale
            assert abs(fd - got) < 1e-4 * max(abs(fd), abs(got)) + 1e-8, \
                f"{name}{idx}: fd={fd} grad={got}"


def gather_oracle(model, h_ids, r_ids, t_ids, q, lhs, alpha, beta, sbar):
    """Dense gradients as ``KGEModel._gather`` summed them with ``np.unique``
    and one segment sum per relation group, in the model's dtype (the
    bincount sums, which are float64, rounded to it)."""
    B, M = t_ids.shape
    dt = model.dtype
    ent_rows, ent_inv = np.unique(np.concatenate([h_ids, t_ids.ravel()]), return_inverse=True)
    K = ent_rows.shape[0]
    cols = np.concatenate([np.arange(B), B + np.repeat(np.arange(B), M)])
    summer = sparse.csr_matrix((np.concatenate([np.ones(B, dtype=dt), alpha.ravel()]),
                                (ent_inv, cols)), shape=(K, 2 * B))
    dense = {name: np.zeros_like(p) for name, p in model.params.items()}
    dense["ent_emb"][ent_rows] = (
        summer @ np.concatenate([q["ent_emb"], lhs])
        + np.bincount(ent_inv[B:], weights=beta.ravel(), minlength=K).astype(dt)[:, None]
        * model.params["ent_emb"][ent_rows])
    dense["ent_bias"][ent_rows] = np.bincount(
        ent_inv, weights=np.concatenate([np.sum(sbar, axis=-1), sbar.ravel()]), minlength=K)
    rel_rows, rel_inv = np.unique(r_ids, return_inverse=True)
    for name, param in model.params.items():
        if name.startswith("attn_") or param.ndim == 0:
            dense[name][...] = q[name]
        elif not name.startswith("ent_"):
            dense[name][rel_rows] = _segment_sum(q[name], rel_inv, rel_rows.shape[0])
    return dense


class TestGradients:
    @pytest.mark.parametrize("mode", CURVATURE_MODES)
    def test_matches_central_differences(self, mode):
        cfg = ModelConfig(dim=4, curvature_mode=mode)
        m = random_model(cfg, 3, 2, seed=3, dtype=np.float64)
        pos = np.asarray([[0, 0, 1], [2, 1, 0]])
        neg = np.asarray([[1, 2], [0, 1]])
        assert_matches_central_differences(m, pos, neg)

    @pytest.mark.parametrize("mode", CURVATURE_MODES)
    def test_repeated_tails_match_central_differences(self, mode):
        # tail 1 recurs within queries and across all of them, and is a head too
        m = random_model(ModelConfig(dim=4, curvature_mode=mode), 4, 2, seed=8, dtype=np.float64)
        pos = np.asarray([[0, 0, 1], [2, 1, 1], [1, 0, 3], [2, 1, 1]])
        neg = np.asarray([[1, 1, 2], [1, 3, 1], [1, 0, 1], [3, 1, 0]])
        assert_matches_central_differences(m, pos, neg)

    @pytest.mark.parametrize("mode", CURVATURE_MODES)
    def test_tail_clamp_matches_central_differences(self, mode, monkeypatch):
        # tail 1 sits near the boundary opposite the head of query (0, 0),
        # where exp0 rounds past the clamp radius and is held there
        m = random_model(ModelConfig(dim=4, curvature_mode=mode), 3, 2, seed=3, dtype=np.float64)
        c = m.curvature(0, 0)
        lhs = geometry.mobius_add(m.transform_head(0, 0),
                                  geometry.exp0(m.params["rel_trans"][0], c), c)
        m.params["ent_emb"][1] = -lhs / np.linalg.norm(lhs) * 8.0 / np.sqrt(c)
        pos = np.asarray([[0, 0, 1], [2, 1, 0]])
        neg = np.asarray([[1, 2], [0, 1]])
        counts = []
        monkeypatch.setattr(geometry, "_count_clamps",
                            lambda mask: counts.append(int(np.count_nonzero(mask))))
        loss(m, pos, neg)
        assert counts[1] == 3  # the tail clamp fired, on every (h, r, 1) pair
        assert_matches_central_differences(m, pos, neg)

    def test_euclidean_matches_central_differences(self):
        cfg = ModelConfig(dim=4, geometry="euclidean")
        m = random_model(cfg, 3, 2, seed=4, dtype=np.float64)
        pos = np.asarray([[0, 0, 1], [2, 1, 0]])
        neg = np.asarray([[1, 2], [0, 1]])
        _, grads = loss_and_grads(m, pos, neg)
        dense = grads.to_dense(m)
        h = 1e-6
        for name, param in m.params.items():
            for idx in np.ndindex(param.shape):
                orig = param[idx]
                param[idx] = orig + h
                up = loss(m, pos, neg)
                param[idx] = orig - h
                down = loss(m, pos, neg)
                param[idx] = orig
                fd = (up - down) / (2.0 * h)
                err = abs(fd - dense[name][idx]) / max(abs(fd), abs(dense[name][idx]), 1e-8)
                assert err < 1e-4, f"{name}{idx}"

    def test_disabled_transform_gets_zero_gradient(self):
        # a disabled transform has no parameter group, so nothing to update
        cfg = ModelConfig(dim=4, curvature_mode="attention",
                          use_inter_level=False, use_intra_level=False)
        m = random_model(cfg, 4, 2, seed=5)
        _, grads = loss_and_grads(m, np.asarray([[0, 0, 1]]), np.asarray([[2, 3]]))
        assert "rel_scale" not in grads and "rel_scale" not in m.params
        assert "rel_theta" not in grads and "rel_theta" not in m.params

    @pytest.mark.parametrize("geometry_", ("hyperbolic", "euclidean"))
    @pytest.mark.parametrize("flag, own, other", (("use_inter_level", "rel_scale", "rel_theta"),
                                                  ("use_intra_level", "rel_theta", "rel_scale")))
    def test_each_flag_zeroes_only_its_own_gradient(self, flag, own, other, geometry_):
        # inter-level is the scaling (it changes ||x||), intra-level the rotation
        cfg = ModelConfig(dim=4, curvature_mode="attention", geometry=geometry_, **{flag: False})
        m = random_model(cfg, 4, 2, seed=5)
        _, grads = loss_and_grads(m, np.asarray([[0, 0, 1]]), np.asarray([[2, 3]]))
        assert own not in grads and own not in m.params
        assert np.all(grads[other][1] != 0.0)

    @pytest.mark.parametrize("group", ("ent_emb", "ent_bias", "rel_emb", "rel_scale", "rel_theta",
                                       "rel_trans", "attn_a", "attn_p", "curv_raw"))
    def test_non_finite_gradient_raises(self, group, monkeypatch):
        backward = KGEModel.backward

        def poisoned(model, cache, sbar):
            grads = backward(model, cache, sbar)
            grads[group][1][0] = np.inf
            return grads

        monkeypatch.setattr(KGEModel, "backward", poisoned)
        # each group under a mode that has it
        mode = "attention" if group in ("rel_emb", "attn_a", "attn_p") else "per_relation"
        m = random_model(ModelConfig(dim=4, curvature_mode=mode), 4, 2, seed=5)
        with pytest.raises(NumericError, match=f"parameter group {group}"):
            loss_and_grads(m, np.asarray([[0, 0, 1]]), np.asarray([[2, 3]]))

    def test_untouched_rows_not_reported(self):
        cfg = ModelConfig(dim=4, curvature_mode="fixed_one")
        m = random_model(cfg, 10, 5, seed=6)
        _, grads = loss_and_grads(m, np.asarray([[0, 2, 1]]), np.asarray([[3]]))
        for name, (rows, _) in grads.items():
            np.testing.assert_array_equal(rows, [0, 1, 3] if name.startswith("ent_") else [2])

    @pytest.mark.parametrize("dtype", (np.float32, np.float64))
    @pytest.mark.parametrize("mode", CURVATURE_MODES)
    def test_gather_matches_unique_and_per_table_sums(self, mode, dtype, monkeypatch):
        # entity 1 is a tail twice in query 0 and a head in query 2, and
        # entity 0 is both the head and a tail of query 0
        m = random_model(ModelConfig(dim=4, curvature_mode=mode), 6, 3, seed=12, dtype=dtype)
        pos = np.asarray([[0, 0, 1], [2, 1, 3], [1, 0, 4], [5, 2, 2]])
        neg = np.asarray([[1, 0, 3], [3, 3, 2], [4, 1, 1], [0, 5, 5]])
        seen = {}
        gather = KGEModel._gather

        def recording(model, h_ids, r_ids, t_ids, q, *rest):
            seen["oracle"] = gather_oracle(model, h_ids, r_ids, t_ids, dict(q), *rest)
            return gather(model, h_ids, r_ids, t_ids, q, *rest)

        monkeypatch.setattr(KGEModel, "_gather", recording)
        _, grads = loss_and_grads(m, pos, neg)
        ids = np.concatenate([pos[:, 0], pos[:, 2], neg.ravel()])
        np.testing.assert_array_equal(grads["ent_emb"][0], np.unique(ids))
        np.testing.assert_array_equal(grads["ent_bias"][0], np.unique(ids))
        dense = grads.to_dense(m)
        for name, want in seen["oracle"].items():
            assert np.array_equal(dense[name], want), name


class TestClip:
    def test_large_gradients_scaled_to_max_norm(self):
        cfg = ModelConfig(dim=4, curvature_mode="attention")
        m = random_model(cfg, 4, 2, seed=7)
        m.params["ent_emb"] *= 4.0  # inflate gradients a bit
        _, grads = loss_and_grads(m, np.asarray([[0, 0, 1]]), np.asarray([[2, 3]]))
        clip_grads(grads, 1e-3)
        total = sum(float(np.sum(np.asarray(g) ** 2)) for _, g in grads.values())
        np.testing.assert_allclose(np.sqrt(total), 1e-3, rtol=1e-12)

    def test_small_gradients_untouched(self):
        cfg = ModelConfig(dim=4, curvature_mode="fixed_one")
        m = random_model(cfg, 4, 2, seed=8)
        _, grads = loss_and_grads(m, np.asarray([[0, 0, 1]]), np.asarray([[2]]))
        before = grads["ent_emb"][1].copy()
        clip_grads(grads, 1e6)
        np.testing.assert_array_equal(grads["ent_emb"][1], before)


def adagrad_oracle(params, accum, grads, lr, eps=1e-10):
    """Adagrad as two fancy-index read-modify-writes per group."""
    for name, (rows, g) in grads.items():
        accum[name][rows] += g * g
        params[name][rows] -= lr * g / (np.sqrt(accum[name][rows]) + eps)


def adam_oracle(params, m, v, grads, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Lazy Adam with whole-expression updates of the touched rows."""
    bc1, bc2 = 1.0 - beta1 ** t, 1.0 - beta2 ** t
    for name, (rows, g) in grads.items():
        m[name][rows] = beta1 * m[name][rows] + (1 - beta1) * g
        v[name][rows] = beta2 * v[name][rows] + (1 - beta2) * g * g
        update = (m[name][rows] / bc1) / (np.sqrt(v[name][rows] / bc2) + eps)
        params[name][rows] -= lr * update


def row_block_grads(rng, n_rows, n_touched):
    """Gradients over more than two row blocks with a partial last one, plus
    a group updated whole and a 0-d global curv_raw."""
    rows = np.sort(rng.choice(n_rows, n_touched, replace=False))
    return SparseGrads(
        ent_emb=(rows, rng.normal(0.0, 1.0, (n_touched, 3))),
        ent_bias=(rows, rng.normal(0.0, 1.0, n_touched)),
        attn_a=(..., rng.normal(0.0, 1.0, 3)),
        curv_raw=(..., np.asarray(rng.normal())),
    )


class TestOptimizers:
    @pytest.mark.parametrize("kind", ("adagrad", "adam"))
    def test_row_blocks_bitwise_equal_to_per_group_formula(self, kind):
        n_rows, n_touched = 3 * training.BLOCK, 2 * training.BLOCK + 300
        rng = np.random.default_rng(21)
        params = {"ent_emb": rng.normal(0.0, 1.0, (n_rows, 3)),
                  "ent_bias": rng.normal(0.0, 1.0, n_rows),
                  "attn_a": rng.normal(0.0, 1.0, 3),
                  "curv_raw": np.asarray(0.5)}
        model = types.SimpleNamespace(params={k: v.copy() for k, v in params.items()})
        opt = Adagrad(model, lr=0.1) if kind == "adagrad" else Adam(model, lr=0.1)
        state = [{k: np.zeros_like(v) for k, v in params.items()}
                 for _ in range(1 if kind == "adagrad" else 2)]
        for t in range(1, 4):
            grads = row_block_grads(rng, n_rows, n_touched)
            want = SparseGrads({k: (r, g.copy()) for k, (r, g) in grads.items()})
            opt.step(model, grads)
            if kind == "adagrad":
                adagrad_oracle(params, state[0], want, lr=0.1)
                got_state = [opt.accum]
            else:
                adam_oracle(params, *state, want, t, lr=0.1)
                got_state = [opt.m, opt.v]
            for got_tables, want_tables in zip([model.params, *got_state], [params, *state]):
                for name in params:
                    assert np.array_equal(got_tables[name], want_tables[name]), (t, name)
            for name, (_, g) in grads.items():
                assert np.array_equal(g, want[name][1]), name  # the step leaves g alone

    def test_adagrad_dense_step(self):
        # p <- p - lr * g / (sqrt(g^2) + eps) on the first step
        m = random_model(ModelConfig(dim=4, curvature_mode="attention"), 4, 2, seed=13)
        opt = Adagrad(m, lr=0.1)
        _, grads = loss_and_grads(m, np.asarray([[0, 0, 1]]))
        rows, g = grads["attn_a"]
        assert rows is ... and np.all(g != 0.0)
        g = g.copy()
        a0 = m.params["attn_a"].copy()
        opt.step(m, grads)
        expected = a0 - 0.1 * g / (np.abs(g) + 1e-10)
        np.testing.assert_allclose(m.params["attn_a"], expected, rtol=1e-12)

    def test_adagrad_sparse_rows_skip_untouched(self):
        cfg = ModelConfig(dim=4, curvature_mode="fixed_one")
        m = random_model(cfg, 8, 3, seed=9)
        frozen_rows = m.params["ent_emb"][[4, 5, 6, 7]].copy()
        opt = Adagrad(m, lr=0.1)
        for _ in range(3):
            _, grads = loss_and_grads(m, np.asarray([[0, 0, 1]]), np.asarray([[2, 3]]))
            opt.step(m, grads)
        np.testing.assert_array_equal(m.params["ent_emb"][[4, 5, 6, 7]], frozen_rows)
        assert not np.array_equal(m.params["ent_emb"][0],
                                  random_model(cfg, 8, 3, seed=9).params["ent_emb"][0])

    def test_adam_first_step_is_signed_lr(self):
        # with m_hat = g and v_hat = g^2 the first update is lr * sign(g)
        cfg = ModelConfig(dim=4, curvature_mode="fixed_one")
        m = random_model(cfg, 4, 2, seed=10)
        opt = Adam(m, lr=0.01)
        _, grads = loss_and_grads(m, np.asarray([[0, 0, 1]]), np.asarray([[2]]))
        rows, g = (a.copy() for a in grads["ent_bias"])
        b0 = m.params["ent_bias"][rows].copy()
        opt.step(m, grads)
        expected = b0 - 0.01 * g / (np.abs(g) + 1e-8)
        np.testing.assert_allclose(m.params["ent_bias"][rows], expected, rtol=1e-9)

    def test_single_step_descends(self):
        # one small step on one positive lowers its loss
        cfg = ModelConfig(dim=4, curvature_mode="attention")
        m = random_model(cfg, 4, 2, seed=11)
        pos = np.asarray([[0, 0, 1]])
        before, grads = loss_and_grads(m, pos)
        opt = Adagrad(m, lr=1e-4)
        opt.step(m, grads)
        assert loss(m, pos) < before


DTYPE_CONFIGS = [ModelConfig(dim=4, curvature_mode=mode) for mode in CURVATURE_MODES] + [
    ModelConfig(dim=4, geometry="euclidean")]


class TestDtype:
    """Training arithmetic keeps the parameters' dtype, float32 or float64."""

    @pytest.mark.parametrize("dtype", (np.float32, np.float64))
    @pytest.mark.parametrize("cfg", DTYPE_CONFIGS,
                             ids=lambda c: f"{c.curvature_mode}-{c.geometry}")
    def test_scores_and_every_gradient_group(self, cfg, dtype, monkeypatch):
        m = random_model(cfg, 6, 3, seed=14, dtype=dtype)
        scores = []
        forward = KGEModel._forward

        def spy(model, *args, **kwargs):
            out = forward(model, *args, **kwargs)
            scores.append(out[0])
            return out

        monkeypatch.setattr(KGEModel, "_forward", spy)
        _, grads = loss_and_grads(m, np.asarray([[0, 0, 1], [4, 2, 5], [3, 1, 0]]),
                                  np.asarray([[2, 3], [1, 1], [5, 4]]))
        assert [s.dtype for s in scores] == [dtype]
        assert list(grads) == list(m.params)
        for name, (_, g) in grads.items():
            assert g.dtype == dtype, name

    @pytest.mark.parametrize("dtype", (np.float32, np.float64))
    @pytest.mark.parametrize("kind", ("adagrad", "adam"))
    def test_optimizer_state_and_step(self, kind, dtype):
        m = random_model(ModelConfig(dim=4, curvature_mode="global"), 6, 3, seed=15, dtype=dtype)
        opt = training.OPTIMIZERS[kind](m, lr=0.1)
        for _ in range(2):
            _, grads = loss_and_grads(m, np.asarray([[0, 0, 1], [4, 2, 5]]),
                                      np.asarray([[2, 3], [1, 0]]))
            opt.step(m, grads)
        states = [opt.accum] if kind == "adagrad" else [opt.m, opt.v]
        for table in (m.params, *states):
            assert {name: a.dtype for name, a in table.items()} == dict.fromkeys(m.params, dtype)


def toy_store():
    """240 random triples over 60 entities and 3 relations, no valid split."""
    rng = np.random.default_rng(5)
    h, r, t = rng.integers(0, 60, 240), rng.integers(0, 3, 240), rng.integers(0, 60, 240)
    triples = [(f"e{a}", f"r{b}", f"e{c}") for a, b, c in zip(h, r, t)]
    return data.augment_reciprocal(data.build_vocab({"train": triples}))


def param_sha256(model):
    h = hashlib.sha256()
    for name in PARAM_ORDER:
        if name in model.params:
            h.update(np.ascontiguousarray(model.params[name], dtype=np.float64).tobytes())
    return h.hexdigest()


# sha256 of the parameters after two toy epochs from the float32 init, trained
# in each dtype, as the per-group optimizer formulas (adagrad_oracle,
# adam_oracle) and an np.unique-based gather in that dtype gave them
TOY_TRAJECTORY_SHA256 = {
    ("adagrad", "float32"): "6ce539f1909d850f717962d85dd82d2921ab9227297e29c5b9682c589d6e269a",
    ("adam", "float32"): "63e3e6d6ded164ad65caa9d375daab314a35fac8f455e0886fe61abd9246b994",
    ("adagrad", "float64"): "56605d023c630cd53ff82e8fdb733d25ff64f653a1c9ae8ed486409f06719b80",
    ("adam", "float64"): "41fb7d5029994159c32567ee0ec89c78ece2374ac0712aa7e0e18961b5c75e92",
}


class TestToyTrajectory:
    @pytest.mark.parametrize("dtype", ("float32", "float64"))
    @pytest.mark.parametrize("optimizer", ("adagrad", "adam"))
    def test_two_epochs_reproduce_the_pinned_parameters(self, optimizer, dtype):
        # any change to the arithmetic of the training step changes the digest
        store = toy_store()
        m = KGEModel.init(ModelConfig(dim=8), store.n_entities,
                          store.n_relations, seed=0, init_scale=0.1)
        m.params = {k: v.astype(dtype) for k, v in m.params.items()}
        result = train(m, store, TrainConfig(epochs=2, batch_size=64, neg_samples=8,
                                             optimizer=optimizer, seed=0))
        assert [row["split"] for row in result.history] == ["train", "train"]
        assert result.model.dtype == dtype
        assert param_sha256(result.model) == TOY_TRAJECTORY_SHA256[optimizer, dtype]


class TestConfigValidation:
    def test_rejects_bad_values(self):
        for kwargs in ({"epochs": -1}, {"batch_size": 0}, {"neg_samples": 0},
                       {"lr": 0.0}, {"optimizer": "sgd"}, {"eval_every": 0},
                       {"patience": 0}, {"lr": math.nan}, {"lr": math.inf},
                       {"grad_clip": math.nan}, {"grad_clip": math.inf},
                       {"init_scale": math.nan}, {"init_scale": math.inf}):
            with pytest.raises(ValueError):
                TrainConfig(**kwargs).validate()

    @pytest.mark.parametrize("grad_clip", (0.0, -1.0))
    def test_rejects_non_positive_grad_clip(self, grad_clip):
        with pytest.raises(ValueError, match="grad_clip must be > 0"):
            TrainConfig(grad_clip=grad_clip).validate()

    def test_grad_clip_none_means_no_clipping(self):
        TrainConfig(grad_clip=None).validate()

    @pytest.mark.parametrize("key", ("lr", "init_scale"))
    def test_rejects_values_float32_cannot_hold(self, key):
        # the parameters are float32: a larger step or draw std overflows on use
        top = float(np.finfo(np.float32).max)
        TrainConfig(**{key: top}).validate()
        for value in (np.nextafter(top, math.inf), 1e39, 1e300):
            message = f"{key} must be at most float32's largest value 3.40282e+38, got {value}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                TrainConfig(**{key: value}).validate()

    def test_negative_init_scale_rejected(self):
        with pytest.raises(ValueError, match="init_scale must be >= 0"):
            TrainConfig(init_scale=-0.1).validate()


class TestRoundTripF32:
    def test_matches_float32_cast(self):
        cfg = ModelConfig(dim=4, curvature_mode="per_relation")
        m = random_model(cfg, 3, 2, seed=12)
        snap = round_trip_f32(m)
        for key, val in m.params.items():
            np.testing.assert_array_equal(
                snap.params[key], val.astype(np.float32).astype(np.float64))


class TestTrainLoop:
    def test_zero_epochs_returns_model_unchanged(self):
        store = chain_store()
        cfg = ModelConfig(dim=4, curvature_mode="attention")
        m = KGEModel.init(cfg, store.n_entities, store.n_relations, seed=0)
        before = {k: v.copy() for k, v in m.params.items()}
        result = train(m, store, TrainConfig(epochs=0, batch_size=8, neg_samples=2))
        assert result.model is m
        assert result.history == []
        assert result.best_mrr is None
        for key in before:
            np.testing.assert_array_equal(m.params[key], before[key])

    def test_empty_training_split_rejected(self):
        store = chain_store()
        store.train = store.train[:0]
        m = KGEModel.init(ModelConfig(dim=4), store.n_entities, store.n_relations, seed=0)
        with pytest.raises(ValueError, match="empty training split"):
            train(m, store, TrainConfig(epochs=1, batch_size=8, neg_samples=2))

    def test_history_rows_have_exactly_the_metric_log_columns(self):
        store = chain_store()
        cfg = ModelConfig(dim=4, curvature_mode="fixed_one")
        m = KGEModel.init(cfg, store.n_entities, store.n_relations, seed=5)
        result = train(m, store, TrainConfig(epochs=4, batch_size=8, neg_samples=2,
                                             eval_every=2, seed=5))
        assert [row["split"] for row in result.history] == ["train", "train", "valid"] * 2
        header = list(METRIC_LOG_COLUMNS)
        for row in result.history:
            assert list(row) == header
            unset = ("mrr", "h1", "h3", "h10") if row["split"] == "train" else ("loss",)
            assert [k for k in header if row[k] is None] == list(unset)

    def test_loss_decreases_on_chain(self):
        store = chain_store()
        cfg = ModelConfig(dim=4, curvature_mode="attention")
        m = KGEModel.init(cfg, store.n_entities, store.n_relations, seed=0)
        tcfg = TrainConfig(epochs=30, batch_size=8, neg_samples=4, lr=0.05,
                           eval_every=10, seed=0)
        result = train(m, store, tcfg)
        losses = [row["loss"] for row in result.history if row["split"] == "train"]
        assert losses[-1] < losses[0]
        assert not result.diverged

    def test_validation_on_one_or_two_cpus_gives_identical_runs(self, monkeypatch):
        # validation ranks on every CPU of the affinity mask; near-boundary
        # points make it count clamps
        rng = np.random.default_rng(5)

        def triples(n):
            h, r, t = rng.integers(0, 30, n), rng.integers(0, 2, n), rng.integers(0, 30, n)
            return [(f"e{a}", f"r{b}", f"e{c}") for a, b, c in zip(h, r, t)]

        store = data.augment_reciprocal(data.build_vocab({"train": triples(120),
                                                          "valid": triples(20)}))
        runs = []
        for n_cpus in (1, 2):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=n_cpus: set(range(n)))
            m = KGEModel.init(ModelConfig(dim=4), store.n_entities,
                              store.n_relations, seed=0, init_scale=3.0)
            runs.append(train(m, store, TrainConfig(epochs=4, batch_size=32, neg_samples=4,
                                                    eval_every=2, seed=0)))
        valid = [row for row in runs[0].history if row["split"] == "valid"]
        assert len(valid) == 2 and all(row["clamp_events"] > 0 for row in valid)
        assert runs[1].history == runs[0].history
        assert param_sha256(runs[1].model) == param_sha256(runs[0].model)

    @pytest.mark.parametrize("dtype", (np.float32, np.float64))
    def test_bitwise_deterministic(self, dtype):
        store = chain_store()
        cfg = ModelConfig(dim=4, curvature_mode="attention")
        runs = []
        for _ in range(2):
            m = KGEModel.init(cfg, store.n_entities, store.n_relations, seed=1)
            m.params = {k: v.astype(dtype) for k, v in m.params.items()}
            r = train(m, store, TrainConfig(epochs=5, batch_size=3, neg_samples=3,
                                            eval_every=5, seed=7))
            runs.append(r)
        for key in runs[0].model.params:
            np.testing.assert_array_equal(runs[0].model.params[key],
                                          runs[1].model.params[key])
        assert runs[0].history == runs[1].history

    def test_seed_changes_trajectory(self):
        store = chain_store()
        cfg = ModelConfig(dim=4, curvature_mode="attention")
        m1 = KGEModel.init(cfg, store.n_entities, store.n_relations, seed=1)
        m2 = KGEModel.init(cfg, store.n_entities, store.n_relations, seed=1)
        r1 = train(m1, store, TrainConfig(epochs=3, batch_size=3, neg_samples=3, seed=0))
        r2 = train(m2, store, TrainConfig(epochs=3, batch_size=3, neg_samples=3, seed=1))
        assert not np.array_equal(r1.model.params["ent_emb"], r2.model.params["ent_emb"])

    def test_best_model_reproduces_logged_metric(self):
        # the returned model is the f32 snapshot of the best round, so
        # re-evaluating it yields exactly the recorded best MRR
        from hkge.evaluation import evaluate_split
        store = chain_store()
        filters = data.build_filter_index(store)
        cfg = ModelConfig(dim=4, curvature_mode="attention")
        m = KGEModel.init(cfg, store.n_entities, store.n_relations, seed=2)
        tcfg = TrainConfig(epochs=12, batch_size=4, neg_samples=4, eval_every=3, seed=2)
        result = train(m, store, tcfg)
        valid_mrrs = [row["mrr"] for row in result.history if row["split"] == "valid"]
        assert result.best_mrr == max(valid_mrrs)
        report = evaluate_split(result.model, store.valid, filters, seed=tcfg.seed)
        assert report.mrr == result.best_mrr

    def test_early_stop_on_patience(self):
        # a step size too small to move the f32 snapshot keeps the MRR
        # flat, so patience kicks in after exactly patience+1 rounds
        store = chain_store()
        cfg = ModelConfig(dim=4, curvature_mode="fixed_one")
        m = KGEModel.init(cfg, store.n_entities, store.n_relations, seed=3)
        tcfg = TrainConfig(epochs=100, batch_size=8, neg_samples=2, lr=1e-13,
                           eval_every=1, patience=2, seed=3)
        result = train(m, store, tcfg)
        assert result.stopped_early
        evals = [row for row in result.history if row["split"] == "valid"]
        assert len(evals) == 3  # best + 2 non-improving

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_aborts_cleanly(self):
        store = chain_store()
        cfg = ModelConfig(dim=4, geometry="euclidean")
        m = KGEModel.init(cfg, store.n_entities, store.n_relations, seed=4)
        m.params["ent_emb"][:] = 1e200  # squared distances overflow
        m.params["ent_emb"][::2] *= -1.0
        result = train(m, store, TrainConfig(epochs=5, batch_size=8, neg_samples=2))
        assert result.diverged
        assert result.model is m

    def test_nan_parameter_diverges_hyperbolic(self):
        # the model's steps do not validate: a NaN reaches the score check
        # and ends the run as diverged, not as a ValueError
        store = chain_store()
        cfg = ModelConfig(dim=4, curvature_mode="fixed_one")
        m = KGEModel.init(cfg, store.n_entities, store.n_relations, seed=4)
        m.params["ent_emb"][1] = np.nan
        result = train(m, store, TrainConfig(epochs=2, batch_size=8, neg_samples=2))
        assert result.diverged
        assert result.model is m

    def test_nan_parameter_diverges_silently_in_attention_mode(self):
        # the NaN flows through softplus into the curvature without a
        # RuntimeWarning, and still ends the run at the score check
        store = chain_store()
        cfg = ModelConfig(dim=4, curvature_mode="attention")
        m = KGEModel.init(cfg, store.n_entities, store.n_relations, seed=4)
        m.params["ent_emb"][1] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = train(m, store, TrainConfig(epochs=2, batch_size=8, neg_samples=2))
        assert result.diverged

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_f32_overflow_at_eval_marks_divergence(self):
        # parameters can stay finite in f64 yet overflow the f32 snapshot;
        # the run is then unusable as a checkpoint and must say so
        store = chain_store()
        cfg = ModelConfig(dim=4, geometry="euclidean")
        m = KGEModel.init(cfg, store.n_entities, store.n_relations, seed=4)
        m.params = {k: v.astype(np.float64) for k, v in m.params.items()}
        m.params["ent_emb"][:] = 1e39  # > f32 max, cancels to loss ln(2) in f64
        result = train(m, store, TrainConfig(epochs=2, batch_size=8, neg_samples=2,
                                             eval_every=1))
        assert result.diverged
        assert [row["split"] for row in result.history] == ["train"]

    def test_divergence_returns_best_validated_snapshot(self, monkeypatch):
        # a non-finite loss in epoch 3 ends the run through the same exit
        # as a finished one: the best validated (epoch-2) snapshot comes back
        store = chain_store()
        cfg = ModelConfig(dim=4, curvature_mode="attention")
        tcfg = TrainConfig(epochs=5, batch_size=8, neg_samples=2, lr=0.05,
                           eval_every=1, seed=0)
        reference = train(KGEModel.init(cfg, store.n_entities, store.n_relations, seed=0,
                                        init_scale=0.1),
                          store, dataclasses.replace(tcfg, epochs=2))
        assert reference.best_epoch == 2
        batches_per_epoch = -(-len(store.train) // tcfg.batch_size)
        calls = []

        def failing(*args):
            calls.append(1)
            if len(calls) > 2 * batches_per_epoch:
                raise NumericError("non-finite score")
            return loss_and_grads(*args)

        monkeypatch.setattr(training, "loss_and_grads", failing)
        m = KGEModel.init(cfg, store.n_entities, store.n_relations, seed=0, init_scale=0.1)
        result = train(m, store, tcfg)
        assert result.diverged and result.last_epoch == 3
        assert result.best_epoch == 2 and result.model is not m
        assert [row["epoch"] for row in result.history] == [1, 1, 2, 2]
        for key, value in reference.model.params.items():
            np.testing.assert_array_equal(result.model.params[key], value)

    def test_degenerate_denominator_diverges_with_the_best_snapshot(self, monkeypatch):
        # an update in epoch 3 leaves the head of one training query and its
        # relation's translation saturated at opposite points of the boundary,
        # where exp0 rounds them onto the unit circle: D = 1 - 2 + 1 = 0 in the
        # epoch-4 forward.  The run ends as diverged, naming that query, and
        # returns the best validated (epoch-2) snapshot.
        store = chain_store()
        cfg = ModelConfig(dim=2, curvature_mode="fixed_one")
        tcfg = TrainConfig(epochs=6, batch_size=len(store.train), neg_samples=2,
                           eval_every=2, seed=0)
        reference = train(KGEModel.init(cfg, store.n_entities, store.n_relations, seed=0,
                                        init_scale=0.1),
                          store, dataclasses.replace(tcfg, epochs=2))
        h, r = (int(i) for i in store.train[0, :2])
        step, calls = training.Adagrad.step, []

        def saturating(self, model, grads):
            step(self, model, grads)
            calls.append(1)
            if len(calls) == 3:  # one batch per epoch
                P = model.params
                P["ent_emb"][h], P["rel_trans"][r] = [100.0, 0.0], [-100.0, 0.0]
                P["rel_scale"][r], P["rel_theta"][r] = 1.0, 0.0

        monkeypatch.setattr(training.Adagrad, "step", saturating)
        m = KGEModel.init(cfg, store.n_entities, store.n_relations, seed=0, init_scale=0.1)
        result = train(m, store, tcfg)
        assert result.diverged and result.last_epoch == 4
        assert result.error == f"degenerate mobius denominator for query (h={h}, r={r})"
        assert [(row["epoch"], row["split"]) for row in result.history] == [
            (1, "train"), (2, "train"), (2, "valid"), (3, "train")]
        assert result.best_epoch == 2 and result.model is not m
        for key, value in reference.model.params.items():
            np.testing.assert_array_equal(result.model.params[key], value)

    def test_metric_log_written(self):
        store = chain_store()
        cfg = ModelConfig(dim=4, curvature_mode="fixed_one")
        m = KGEModel.init(cfg, store.n_entities, store.n_relations, seed=5)
        rows = []
        result = train(m, store, TrainConfig(epochs=4, batch_size=8, neg_samples=2,
                                             eval_every=2, seed=5), on_row=rows.append)
        assert ",".join(METRIC_LOG_COLUMNS) == "epoch,split,loss,mrr,h1,h3,h10,clamp_events"
        # 4 train rows + evals at epochs 2 and 4, each handed over as it is made
        assert len(rows) == 4 + 2
        assert rows == result.history
        assert (rows[0]["epoch"], rows[0]["split"]) == (1, "train")

    @staticmethod
    def interrupt_after_two_epochs(monkeypatch, n_train, batch_size):
        steps_per_epoch = -(-n_train // batch_size)
        step, calls = training.Adagrad.step, []

        def interrupted(self, model, grads):
            calls.append(1)
            if len(calls) > 2 * steps_per_epoch:
                raise KeyboardInterrupt
            step(self, model, grads)

        monkeypatch.setattr(training.Adagrad, "step", interrupted)

    def test_metric_log_keeps_rows_of_an_interrupted_run(self, tmp_path, monkeypatch):
        store = chain_store()
        cfg = ModelConfig(dim=4, curvature_mode="fixed_one")
        tcfg = TrainConfig(epochs=4, batch_size=8, neg_samples=2, eval_every=2, seed=5)
        self.interrupt_after_two_epochs(monkeypatch, len(store.train), tcfg.batch_size)
        m = KGEModel.init(cfg, store.n_entities, store.n_relations, seed=5)
        rows = []
        with pytest.raises(KeyboardInterrupt):
            train(m, store, tcfg, on_row=rows.append)
        assert [(row["epoch"], row["split"]) for row in rows] == [
            (1, "train"), (2, "train"), (2, "valid")]

        # `hkge train` appends each row to metrics.csv as it is handed over
        data.make_tree_dataset(tmp_path / "tree", depth=3)
        n_train = len(data.augment_reciprocal(data.load_dataset(tmp_path / "tree")).train)
        monkeypatch.undo()
        self.interrupt_after_two_epochs(monkeypatch, n_train, tcfg.batch_size)
        run_dir = tmp_path / "run"
        with pytest.raises(KeyboardInterrupt):
            cli.main(["train", "--dataset-dir", str(tmp_path / "tree"),
                      "--out-dir", str(run_dir), "--dim", "4", "--epochs", "4",
                      "--batch-size", "8", "--neg-samples", "2", "--eval-every", "2"])
        lines = (run_dir / "metrics.csv").read_text().split("\n")
        assert lines[0] == ",".join(METRIC_LOG_COLUMNS) and lines[-1] == ""
        assert [line.split(",")[:2] for line in lines[1:-1]] == [
            ["1", "train"], ["2", "train"], ["2", "valid"]]
