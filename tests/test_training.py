import dataclasses
import warnings

import numpy as np
import pytest

from hkge import data, geometry, training
from hkge.model import CURVATURE_MODES, KGEModel, ModelConfig
from hkge.training import (
    Adagrad,
    Adam,
    NumericError,
    TrainConfig,
    clip_grads,
    loss,
    loss_and_grads,
    round_trip_f32,
    sample_negatives,
    train,
)


def bias_only_model(biases):
    """All-zero embeddings: the score of any triple is b_h + b_t."""
    m = KGEModel.init(ModelConfig(dim=2, curvature_mode="fixed_one"),
                      len(biases), 1, seed=0)
    for key, val in m.params.items():
        m.params[key] = np.ones_like(val) if key == "rel_scale" else np.zeros_like(val)
    m.params["ent_bias"][:] = biases
    return m


def random_model(cfg, n_entities, n_relations, seed):
    """Every group is drawn, in one order, and only the model's are kept."""
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
    m.params.update((k, v) for k, v in drawn.items() if k in m.params)
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
        m = bias_only_model([0.0, 0.0, 0.0])
        pos = np.asarray([[0, 0, 1], [1, 0, 2]])
        np.testing.assert_allclose(loss(m, pos), 0.6931471805599453, rtol=1e-12)
        neg = np.asarray([[2, 0], [0, 1]])
        np.testing.assert_allclose(loss(m, pos, neg), 0.6931471805599453, rtol=1e-12)

    def test_bias_only_example(self):
        # s(0,r,1) = 2 and s(0,r,2) = -1: the mean of softplus(-2) and
        # softplus(-1) over the two terms
        m = bias_only_model([0.0, 2.0, -1.0])
        pos = np.asarray([[0, 0, 1]])
        np.testing.assert_allclose(loss(m, pos), 0.1269280110429725, rtol=1e-12)
        np.testing.assert_allclose(loss(m, pos, np.asarray([[2]])),
                                   0.2200948492805977, rtol=1e-12)

    def test_asymptotics(self):
        # a strongly violated positive costs ~|s|, a strongly satisfied
        # one ~0 (and vice versa for negatives)
        m = bias_only_model([0.0, -30.0, 30.0])
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
        m = bias_only_model([0.0, 2.0, -1.0])
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


class TestGradients:
    @pytest.mark.parametrize("mode", CURVATURE_MODES)
    def test_matches_central_differences(self, mode):
        cfg = ModelConfig(dim=4, curvature_mode=mode)
        m = random_model(cfg, 3, 2, seed=3)
        pos = np.asarray([[0, 0, 1], [2, 1, 0]])
        neg = np.asarray([[1, 2], [0, 1]])
        assert_matches_central_differences(m, pos, neg)

    @pytest.mark.parametrize("mode", CURVATURE_MODES)
    def test_repeated_tails_match_central_differences(self, mode):
        # tail 1 recurs within queries and across all of them, and is a head too
        m = random_model(ModelConfig(dim=4, curvature_mode=mode), 4, 2, seed=8)
        pos = np.asarray([[0, 0, 1], [2, 1, 1], [1, 0, 3], [2, 1, 1]])
        neg = np.asarray([[1, 1, 2], [1, 3, 1], [1, 0, 1], [3, 1, 0]])
        assert_matches_central_differences(m, pos, neg)

    @pytest.mark.parametrize("mode", CURVATURE_MODES)
    def test_md_projection_matches_central_differences(self, mode, monkeypatch):
        # tail 1 sits near the boundary opposite the head of query (0, 0),
        # so (-lhs) (+) t leaves the clamp radius and is projected
        m = random_model(ModelConfig(dim=4, curvature_mode=mode), 3, 2, seed=3)
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
        assert counts[1] == 3  # the md projection site fired, on every (h, r, 1) pair
        assert_matches_central_differences(m, pos, neg)

    def test_euclidean_matches_central_differences(self):
        cfg = ModelConfig(dim=4, geometry="euclidean")
        m = random_model(cfg, 3, 2, seed=4)
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


class TestOptimizers:
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


class TestConfigValidation:
    def test_rejects_bad_values(self):
        for kwargs in ({"epochs": -1}, {"batch_size": 0}, {"neg_samples": 0},
                       {"lr": 0.0}, {"optimizer": "sgd"}, {"eval_every": 0},
                       {"patience": 0}):
            with pytest.raises(ValueError):
                TrainConfig(**kwargs).validate()


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

    def test_bitwise_deterministic(self):
        store = chain_store()
        cfg = ModelConfig(dim=4, curvature_mode="attention")
        runs = []
        for _ in range(2):
            m = KGEModel.init(cfg, store.n_entities, store.n_relations, seed=1)
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
        result = train(m, store, tcfg, filters)
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
        m.params["ent_emb"][:] = 1e39  # > f32 max, cancels to loss ln(2) in f64
        result = train(m, store, TrainConfig(epochs=2, batch_size=8, neg_samples=2,
                                             eval_every=1))
        assert result.diverged
        assert [row["split"] for row in result.history] == ["train"]

    def test_divergence_returns_best_validated_snapshot(self, monkeypatch):
        # a non-finite loss in epoch 3 ends the run through the same exit
        # as a finished one: the best validated (epoch-2) snapshot comes back
        store = chain_store()
        cfg = ModelConfig(dim=4, curvature_mode="attention", init_scale=0.1)
        tcfg = TrainConfig(epochs=5, batch_size=8, neg_samples=2, lr=0.05,
                           eval_every=1, seed=0)
        reference = train(KGEModel.init(cfg, store.n_entities, store.n_relations, seed=0),
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
        m = KGEModel.init(cfg, store.n_entities, store.n_relations, seed=0)
        result = train(m, store, tcfg)
        assert result.diverged and result.last_epoch == 3
        assert result.best_epoch == 2 and result.model is not m
        assert [row["epoch"] for row in result.history] == [1, 1, 2, 2]
        for key, value in reference.model.params.items():
            np.testing.assert_array_equal(result.model.params[key], value)

    def test_metric_log_written(self, tmp_path):
        from hkge.training import MetricLog
        store = chain_store()
        cfg = ModelConfig(dim=4, curvature_mode="fixed_one")
        m = KGEModel.init(cfg, store.n_entities, store.n_relations, seed=5)
        path = tmp_path / "metrics.csv"
        train(m, store, TrainConfig(epochs=4, batch_size=8, neg_samples=2,
                                    eval_every=2, seed=5), log=MetricLog(path))
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "epoch,split,loss,mrr,h1,h3,h10,clamp_events"
        # 4 train rows + evals at epochs 2 and 4
        assert len(lines) == 1 + 4 + 2
        assert lines[1].startswith("1,train,")
