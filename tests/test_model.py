import math

import numpy as np
import pytest

from hkge import evaluation, geometry
from hkge.model import (
    CURV_FLOOR,
    CURVATURE_MODES,
    GEOMETRIES,
    SOFTPLUS_UNIT,
    KGEModel,
    ModelConfig,
    param_shapes,
    sigmoid,
    softplus,
)


def blank_model(cfg, n_entities, n_relations, dtype=np.float32):
    """Model with zero embeddings/biases and identity transforms, in ``dtype``
    (float32 is what ``KGEModel.init`` makes)."""
    m = KGEModel.init(cfg, n_entities, n_relations, seed=0)
    for key, val in m.params.items():
        if key == "rel_scale":
            m.params[key] = np.ones_like(val, dtype=dtype)
        elif key != "curv_raw":
            m.params[key] = np.zeros_like(val, dtype=dtype)
        else:
            m.params[key] = val.astype(dtype)
    return m


def random_model(cfg, n_entities, n_relations, seed, dtype=np.float64):
    """Moderate random parameters that keep every point well inside the ball.

    They are drawn in float64 and held in ``dtype``: float64 unless given,
    because most checks here compare with plain float64 formulas."""
    m = KGEModel.init(cfg, n_entities, n_relations, seed=seed)
    rng = np.random.default_rng(seed + 1000)
    d = cfg.dim
    # every group is drawn, in one order, and only the model's are kept
    drawn = {
        "ent_emb": rng.normal(0.0, 0.3, (n_entities, d)),
        "ent_bias": rng.normal(0.0, 0.2, n_entities),
        "rel_emb": rng.normal(0.0, 0.3, (n_relations, d)),
        "rel_scale": rng.uniform(0.5, 1.5, (n_relations, d // 2)),
        "rel_theta": rng.uniform(-2.0, 2.0, (n_relations, d // 2)),
        "rel_trans": rng.normal(0.0, 0.3, (n_relations, d)),
        "attn_a": rng.normal(0.0, 1.0, d),
        "attn_p": rng.normal(0.0, 1.0, d),
    }
    if "curv_raw" in m.params:
        drawn["curv_raw"] = rng.uniform(0.2, 1.2, m.params["curv_raw"].shape)
    m.params.update((k, v.astype(dtype)) for k, v in drawn.items() if k in m.params)
    return m


# -- independent scoring pipeline (plain formulas, no model code) ------

def _sigmoid(x):
    return 1.0 / (1.0 + math.exp(-x))


def _exp0(v, c):
    n = float(np.linalg.norm(v))
    z = math.sqrt(c) * n
    if z == 0.0:
        return np.zeros_like(v)
    return (math.tanh(z) / z) * v


def _mobius(x, y, c):
    dot = float(x @ y)
    nx2 = float(x @ x)
    ny2 = float(y @ y)
    A = 1.0 + 2.0 * c * dot + c * ny2
    B = 1.0 - c * nx2
    D = 1.0 + 2.0 * c * dot + c * c * nx2 * ny2
    return (A * x + B * y) / D


def _dist(x, y, c):
    m = _mobius(-x, y, c)
    return 2.0 / math.sqrt(c) * math.atanh(math.sqrt(c) * float(np.linalg.norm(m)))


def pipeline_score(model, h, r, t):
    """score(h, r, t) rebuilt step by step from the published formulas."""
    P = model.params
    cfg = model.config
    he = P["ent_emb"][h]
    te = P["ent_emb"][t]
    bias = P["ent_bias"][h] + P["ent_bias"][t]

    u = he
    if cfg.use_inter_level:
        u = (u.reshape(-1, 2) * P["rel_scale"][r][:, None]).ravel()

    if cfg.geometry == "euclidean":
        x = u
        if cfg.use_intra_level:
            th = P["rel_theta"][r]
            xp = x.reshape(-1, 2)
            cs, sn = np.cos(th), np.sin(th)
            x = np.stack([xp[:, 0] * cs - xp[:, 1] * sn,
                          xp[:, 0] * sn + xp[:, 1] * cs], axis=-1).ravel()
        diff = x + P["rel_trans"][r] - te
        return -4.0 * float(diff @ diff) + bias

    mode = cfg.curvature_mode
    if mode == "fixed_one":
        c = 1.0
    elif mode == "global":
        c = float(softplus(P["curv_raw"]))
    elif mode == "per_relation":
        c = float(softplus(P["curv_raw"][r]))
    else:
        a, p = P["attn_a"], P["attn_p"]
        re = P["rel_emb"][r]
        alpha_h = _sigmoid(float(a @ he) - float(a @ re))
        v = alpha_h * he + (1.0 - alpha_h) * re
        c = math.log1p(math.exp(float(p @ v)))
    c = max(c, CURV_FLOOR)

    x = _exp0(u, c)
    if cfg.use_intra_level:
        th = P["rel_theta"][r]
        xp = x.reshape(-1, 2)
        cs, sn = np.cos(th), np.sin(th)
        x = np.stack([xp[:, 0] * cs - xp[:, 1] * sn,
                      xp[:, 0] * sn + xp[:, 1] * cs], axis=-1).ravel()
    lhs = _mobius(x, _exp0(P["rel_trans"][r], c), c)
    d = _dist(lhs, _exp0(te, c), c)
    return -d * d + bias


ALL_CONFIGS = [
    ModelConfig(dim=4, curvature_mode=mode, geometry=geo,
                use_inter_level=inter, use_intra_level=intra)
    for mode in ("fixed_one", "global", "per_relation", "attention")
    for geo in ("hyperbolic", "euclidean")
    for inter, intra in ((True, True), (False, True), (True, False), (False, False))
]


class TestConfig:
    def test_odd_dim_rejected(self):
        with pytest.raises(ValueError, match="even"):
            ModelConfig(dim=7).validate()

    def test_dim_too_small_rejected(self):
        with pytest.raises(ValueError):
            ModelConfig(dim=0).validate()

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError, match="curvature_mode"):
            ModelConfig(dim=4, curvature_mode="banana").validate()

    def test_bad_geometry_rejected(self):
        with pytest.raises(ValueError, match="geometry"):
            ModelConfig(dim=4, geometry="spherical").validate()

    def test_validate_chains(self):
        cfg = ModelConfig(dim=4)
        assert cfg.validate() is cfg


class TestInit:
    def test_deterministic(self):
        cfg = ModelConfig(dim=8, curvature_mode="attention")
        a = KGEModel.init(cfg, 5, 3, seed=7)
        b = KGEModel.init(cfg, 5, 3, seed=7)
        for key in a.params:
            np.testing.assert_array_equal(a.params[key], b.params[key])
        c = KGEModel.init(cfg, 5, 3, seed=8)
        assert not np.array_equal(a.params["ent_emb"], c.params["ent_emb"])

    def test_identity_transforms_and_zero_biases(self):
        m = KGEModel.init(ModelConfig(dim=6), 4, 2, seed=0)
        np.testing.assert_array_equal(m.params["rel_scale"], np.ones((2, 3)))
        np.testing.assert_array_equal(m.params["rel_theta"], np.zeros((2, 3)))
        np.testing.assert_array_equal(m.params["ent_bias"], np.zeros(4))

    def test_curv_raw_presence_per_mode(self):
        for mode, shape in (("fixed_one", None), ("attention", None),
                            ("global", ()), ("per_relation", (3,))):
            m = KGEModel.init(ModelConfig(dim=4, curvature_mode=mode), 2, 3)
            if shape is None:
                assert "curv_raw" not in m.params
            else:
                assert m.params["curv_raw"].shape == shape

    def test_trainable_curvature_starts_at_one(self):
        # softplus(log(e - 1)) = 1
        m = KGEModel.init(ModelConfig(dim=4, curvature_mode="global"), 2, 2)
        np.testing.assert_allclose(m.curvature(0, 0), 1.0, rtol=1e-12)
        m = KGEModel.init(ModelConfig(dim=4, curvature_mode="per_relation"), 2, 2)
        np.testing.assert_allclose(m.curvature(1, 1), 1.0, rtol=1e-12)

    def test_float32_tables_hold_the_float64_draws_rounded(self):
        # a seed draws the values it always drew; each group is rounded once
        m = KGEModel.init(ModelConfig(dim=4, curvature_mode="global"), 5, 3, seed=2)
        assert m.dtype == np.float32
        assert {v.dtype for v in m.params.values()} == {np.dtype(np.float32)}
        draw = np.random.default_rng(2).normal(0.0, 1.0, (5, 4)) * 1e-3
        np.testing.assert_array_equal(m.params["ent_emb"], draw.astype(np.float32))
        assert m.params["curv_raw"] == np.float32(SOFTPLUS_UNIT)

    def test_zero_init_scale_scores_exactly_zero(self):
        cfg = ModelConfig(dim=4, curvature_mode="attention", init_scale=0.0)
        m = KGEModel.init(cfg, 3, 2, seed=1)
        assert m.score(0, 0, 1) == 0.0

    def test_default_init_scores_near_zero(self):
        # gaussian * 1e-3 embeddings keep every point near the origin, so
        # squared distances (and scores) start at O(init_scale^2)
        m = KGEModel.init(ModelConfig(dim=4, curvature_mode="attention"), 10, 4, seed=3)
        for h, r, t in ((0, 0, 1), (5, 3, 9), (2, 1, 2)):
            assert abs(m.score(h, r, t)) < 1e-3

    def test_needs_positive_counts(self):
        with pytest.raises(ValueError):
            KGEModel.init(ModelConfig(dim=4), 0, 1)


def _config_id(c):
    return (f"{c.curvature_mode}-{c.geometry}"
            f"-i{int(c.use_inter_level)}a{int(c.use_intra_level)}")


class TestParamShapes:
    """A model holds, and backward reports, only the groups its configuration reads."""

    @pytest.mark.parametrize("cfg", ALL_CONFIGS, ids=_config_id)
    def test_model_holds_exactly_the_listed_groups(self, cfg):
        shapes = param_shapes(cfg, 6, 3)
        m = KGEModel.init(cfg, 6, 3, seed=0)
        assert list(m.params) == list(shapes)
        assert {k: v.shape for k, v in m.params.items()} == shapes

    @pytest.mark.parametrize("cfg", ALL_CONFIGS, ids=_config_id)
    def test_every_group_gets_a_nonzero_gradient(self, cfg):
        m = random_model(cfg, 6, 3, seed=17)
        rng = np.random.default_rng(18)
        h, r, t = rng.integers(0, 6, 8), rng.integers(0, 3, 8), rng.integers(0, 6, (8, 4))
        scores, cache = m._forward(h, r, t, need_cache=True)
        grads = m.backward(cache, rng.normal(size=scores.shape))
        assert list(grads) == list(m.params)
        for name, g in grads.to_dense(m).items():
            assert np.any(g != 0.0), name

    @pytest.mark.parametrize("cfg", ALL_CONFIGS, ids=_config_id)
    def test_a_seed_gives_each_group_the_same_values_everywhere(self, cfg):
        # the default configuration has every group but curv_raw
        full = {**KGEModel.init(ModelConfig(dim=4), 6, 3, seed=5).params,
                "curv_raw": np.float32(SOFTPLUS_UNIT)}
        for name, value in KGEModel.init(cfg, 6, 3, seed=5).params.items():
            np.testing.assert_array_equal(value, full[name], strict=False)

    def test_missing_group_raises(self):
        m = KGEModel.init(ModelConfig(dim=4), 3, 2)
        del m.params["attn_p"]
        with pytest.raises(KeyError, match="attn_p"):
            KGEModel(m.config, 3, 2, m.params)


class TestCurvature:
    def test_fixed_one(self):
        m = random_model(ModelConfig(dim=4, curvature_mode="fixed_one"), 3, 2, seed=0)
        assert m.curvature(0, 0) == 1.0

    def test_per_relation_softplus(self):
        m = blank_model(ModelConfig(dim=4, curvature_mode="per_relation"), 2, 3,
                        dtype=np.float64)
        m.params["curv_raw"][:] = [0.0, 2.0, -1.0]
        # softplus: log(2), log(1+e^2), log(1+e^-1)
        np.testing.assert_allclose(m.curvature(0, 0), 0.6931471805599453, rtol=1e-12)
        np.testing.assert_allclose(m.curvature(0, 1), 2.1269280110429727, rtol=1e-12)
        np.testing.assert_allclose(m.curvature(0, 2), 0.3132616875182228, rtol=1e-12)

    def test_attention_chain(self):
        # he = e_x, re = 0, a = e_x: the gate is sigmoid(1), and with
        # p = (2/sigmoid(1)) e_x the pre-activation is exactly 2, so
        # c = softplus(2).
        m = blank_model(ModelConfig(dim=2, curvature_mode="attention"), 1, 1, dtype=np.float64)
        m.params["ent_emb"][0] = [1.0, 0.0]
        m.params["attn_a"][:] = [1.0, 0.0]
        m.params["attn_p"][:] = [2.7357588823428847, 0.0]
        np.testing.assert_allclose(m.curvature(0, 0), 2.1269280110429727, rtol=1e-12)

    def test_attention_balanced_gate(self):
        # a = 0 gives alpha = 1/2, so v = (he + re) / 2
        m = blank_model(ModelConfig(dim=2, curvature_mode="attention"), 1, 1, dtype=np.float64)
        m.params["ent_emb"][0] = [2.0, 0.0]
        m.params["rel_emb"][0] = [0.0, 2.0]
        m.params["attn_p"][:] = [1.0, 1.0]
        np.testing.assert_allclose(m.curvature(0, 0), 2.1269280110429727, rtol=1e-12)

    def test_floor_keeps_curvature_positive(self):
        m = blank_model(ModelConfig(dim=4, curvature_mode="per_relation"), 2, 1,
                        dtype=np.float64)
        m.params["curv_raw"][:] = -60.0
        assert m.curvature(0, 0) == CURV_FLOOR
        assert np.isfinite(m.score(0, 0, 1))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("dtype", (np.float32, np.float64))
    def test_sigmoid_is_the_two_branch_form(self, dtype):
        # bit for bit: 1 / (1 + e^-x) where x >= 0, e^x / (1 + e^x) elsewhere;
        # a NaN stays NaN, though its sign bit may not
        x = np.concatenate([[0.0, -0.0, np.inf, -np.inf, np.nan, 100.0, -100.0],
                            np.random.default_rng(0).normal(0.0, 30.0, 2000)]).astype(dtype)
        pos = x >= 0
        expected = np.empty_like(x)
        expected[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        expected[~pos] = ex / (1.0 + ex)
        got = sigmoid(x)
        nan = np.isnan(expected)
        assert got.dtype == dtype
        assert np.array_equal(np.isnan(got), nan)
        assert got[~nan].tobytes() == expected[~nan].tobytes()

    def test_rejected_for_euclidean(self):
        m = blank_model(ModelConfig(dim=4, geometry="euclidean"), 1, 1)
        with pytest.raises(ValueError, match="hyperbolic"):
            m.curvature(0, 0)

    def test_positive_for_random_parameters(self):
        for mode in ("global", "per_relation", "attention"):
            m = random_model(ModelConfig(dim=8, curvature_mode=mode), 6, 4, seed=2)
            for r in range(4):
                assert m.curvature(0, r) > 0.0


class TestTransformHead:
    def test_scale_exp_rotate_chain(self):
        # he=(.3,-.2) scaled by 1.5 -> exp0 at c=1 -> rotation by 0.7
        cfg = ModelConfig(dim=2, curvature_mode="fixed_one")
        m = blank_model(cfg, 1, 1, dtype=np.float64)
        m.params["ent_emb"][0] = [0.3, -0.2]
        m.params["rel_scale"][0] = [1.5]
        m.params["rel_theta"][0] = [0.7]
        np.testing.assert_allclose(
            m.transform_head(0, 0),
            [0.4905254306504778, 0.05516843112281203], rtol=1e-12,
        )

    def test_rotation_preserves_level(self):
        # intra-level rotation moves points within a sphere around the
        # origin: the distance to the origin must not change.
        cfg = ModelConfig(dim=6, curvature_mode="fixed_one")
        m = random_model(cfg, 3, 2, seed=4)
        m.params["rel_theta"][0] = 0.0
        m.params["rel_theta"][1] = [0.9, -1.3, 2.2]
        m.params["rel_scale"][1] = m.params["rel_scale"][0]
        base = np.linalg.norm(m.transform_head(2, 0))
        rotated = np.linalg.norm(m.transform_head(2, 1))
        np.testing.assert_allclose(rotated, base, rtol=1e-12)

    def test_identity_transforms_give_plain_exp0(self):
        m = blank_model(ModelConfig(dim=4, curvature_mode="fixed_one"), 1, 1, dtype=np.float64)
        m.params["ent_emb"][0] = [0.2, -0.1, 0.4, 0.05]
        expected = _exp0(m.params["ent_emb"][0], 1.0)
        np.testing.assert_allclose(m.transform_head(0, 0), expected, rtol=1e-12)

    def test_rejected_for_euclidean(self):
        m = blank_model(ModelConfig(dim=4, geometry="euclidean"), 1, 1)
        with pytest.raises(ValueError):
            m.transform_head(0, 0)


class TestScore:
    @pytest.mark.parametrize("dtype, want, rtol", (
        (np.float64, -3.6863604126812994, 1e-12),
        # float32 parameters and arithmetic; a float32 ulp here is 6.5e-8
        # relative, and float32 tanh/arctanh may differ by one between builds
        (np.float32, -3.686361074447632, 1e-6),
    ), ids=("float64", "float32"))
    def test_frozen_example(self, dtype, want, rtol):
        # dim 2, c = 1: head (.3,-.2) scaled 1.5, rotated 0.7, translated
        # by exp0((.1,.25)), against tail exp0((-.2,.4)); biases .05/-.15.
        cfg = ModelConfig(dim=2, curvature_mode="fixed_one")
        m = blank_model(cfg, 2, 1, dtype=dtype)
        m.params["ent_emb"][0] = [0.3, -0.2]
        m.params["ent_emb"][1] = [-0.2, 0.4]
        m.params["rel_scale"][0] = [1.5]
        m.params["rel_theta"][0] = [0.7]
        m.params["rel_trans"][0] = [0.1, 0.25]
        m.params["ent_bias"][:] = [0.05, -0.15]
        np.testing.assert_allclose(m.score(0, 0, 1), want, rtol=rtol)

    @pytest.mark.parametrize("cfg", ALL_CONFIGS,
                             ids=lambda c: f"{c.curvature_mode}-{c.geometry}"
                                           f"-i{int(c.use_inter_level)}"
                                           f"a{int(c.use_intra_level)}")
    def test_matches_step_by_step_pipeline(self, cfg):
        m = random_model(cfg, 6, 4, seed=11)
        rng = np.random.default_rng(5)
        for _ in range(20):
            h, t = rng.integers(0, 6, size=2)
            r = rng.integers(0, 4)
            expected = pipeline_score(m, int(h), int(r), int(t))
            np.testing.assert_allclose(m.score(int(h), int(r), int(t)),
                                       expected, rtol=1e-10, atol=1e-12)

    def test_bias_additivity(self):
        cfg = ModelConfig(dim=4, curvature_mode="attention")
        m = random_model(cfg, 5, 3, seed=6)
        with_bias = m.score(1, 2, 3)
        b = m.params["ent_bias"].copy()
        m.params["ent_bias"][:] = 0.0
        np.testing.assert_allclose(with_bias - m.score(1, 2, 3),
                                   b[1] + b[3], rtol=1e-10, atol=1e-12)

    def test_disabled_transforms_match_identity_parameters(self):
        # turning a transform off must equal leaving it at its identity
        cfg_on = ModelConfig(dim=4, curvature_mode="attention")
        m_on = random_model(cfg_on, 5, 3, seed=7)
        m_on.params["rel_scale"][:] = 1.0
        m_on.params["rel_theta"][:] = 0.0
        cfg_off = ModelConfig(dim=4, curvature_mode="attention",
                              use_inter_level=False, use_intra_level=False)
        m_off = KGEModel(cfg_off, 5, 3, m_on.params)
        for h, r, t in ((0, 0, 1), (4, 2, 3), (2, 1, 2)):
            assert m_on.score(h, r, t) == m_off.score(h, r, t)

    def test_euclidean_formula(self):
        # -(2||x - y||)^2 + biases, with x = rotate(scale(h)) + trans
        cfg = ModelConfig(dim=4, geometry="euclidean")
        m = random_model(cfg, 4, 2, seed=8)
        for h, r, t in ((0, 0, 1), (3, 1, 2)):
            np.testing.assert_allclose(m.score(h, r, t),
                                       pipeline_score(m, h, r, t), rtol=1e-12)
        # tail embedding = lhs: in Gram form a - 2x + n rounds below 0 for
        # some of these queries, and the clamp keeps the distance term at 0
        m = random_model(cfg, 4, 2, seed=12)
        for h, r in np.ndindex(4, 2):
            t = (h + 1) % 4
            m.params["ent_emb"][t] = m._head(np.asarray([h]), np.asarray([r]))["lhs"][0]
            bias = m.params["ent_bias"][h] + m.params["ent_bias"][t]
            got = m.score(h, r, t)
            assert got <= bias and bias - got <= 1e-12, (h, r)

    def test_low_curvature_approaches_euclidean(self):
        # softplus(raw) = 1e-6: the ball flattens out and the gyrodistance
        # converges to twice the euclidean distance
        hyp = ModelConfig(dim=4, curvature_mode="per_relation")
        m = random_model(hyp, 5, 3, seed=9)
        m.params["curv_raw"][:] = np.log(np.expm1(1e-6))
        euc_params = {k: v for k, v in m.params.items() if k != "curv_raw"}
        me = KGEModel(ModelConfig(dim=4, geometry="euclidean"), 5, 3, euc_params)
        for h, r, t in ((0, 0, 1), (4, 2, 3), (1, 1, 1)):
            np.testing.assert_allclose(m.score(h, r, t), me.score(h, r, t),
                                       rtol=1e-3, atol=1e-6)

    def test_finite_for_extreme_inputs(self):
        # large embeddings and curvature push points to the boundary;
        # the clamp keeps every score finite
        cfg = ModelConfig(dim=4, curvature_mode="per_relation")
        m = random_model(cfg, 4, 2, seed=10)
        m.params["ent_emb"] *= 30.0
        m.params["rel_trans"] *= 30.0
        m.params["curv_raw"][:] = np.log(np.expm1(10.0))
        for h in range(4):
            s = m.score(h, 0, (h + 1) % 4)
            assert np.isfinite(s)

    def test_degenerate_denominator_names_the_query(self):
        # exp0 saturates both the head of entity 2 and the translation of
        # relation 1 onto the unit circle, at opposite points: D = 1 - 2 + 1
        m = blank_model(ModelConfig(dim=2, curvature_mode="fixed_one"), 3, 2)
        m.params["ent_emb"][2] = [100.0, 0.0]
        m.params["rel_trans"][1] = [-100.0, 0.0]
        with pytest.raises(ValueError, match=r"denominator for query \(h=2, r=1\)"):
            m._forward([0, 2], [0, 1], [[1], [0]])
        with pytest.raises(ValueError, match=r"denominator for query \(h=2, r=1\)"):
            m.score_against_all(2, 1)
        # ranking a block builds all its heads at once; the error still names the query
        with pytest.raises(ValueError, match=r"denominator for query \(h=2, r=1\)"):
            evaluation.compute_ranks(m, [[0, 0, 1], [2, 1, 0], [1, 1, 2]], None)

    @pytest.mark.parametrize("dtype", (np.float32, np.float64))
    def test_degenerate_denominator_raises_in_either_dtype(self, dtype):
        # the same saturation in the attention model: D rounds to one float32
        # epsilon and to half a float64 one, both within a few of zero
        m = KGEModel.init(ModelConfig(dim=2), 3, 2, seed=0)
        m.params = {k: v.astype(dtype) for k, v in m.params.items()}
        m.params["ent_emb"][0] = [100.0, 0.0]
        m.params["rel_trans"][0] = [-100.0, 0.0]
        with pytest.raises(geometry.DenominatorError, match=r"for query \(h=0, r=0\)"):
            m.score(0, 0, 1)

    def test_bad_ids_raise(self):
        m = blank_model(ModelConfig(dim=4), 3, 2)
        with pytest.raises(IndexError):
            m.score(3, 0, 0)
        with pytest.raises(IndexError):
            m.score(0, 2, 0)
        with pytest.raises(IndexError):
            m.score(0, 0, -4)
        with pytest.raises(IndexError):
            m.curvature(0, 5)

    @pytest.mark.parametrize("call,what", (
        (lambda m: m.score(3, 0, 0), "entity"),
        (lambda m: m.score(0, 0, -4), "entity"),
        (lambda m: m.score(0, 2, 0), "relation"),
        (lambda m: m.curvature(-1, 0), "entity"),
        (lambda m: m.curvature(0, 5), "relation"),
        (lambda m: m.transform_head(0, 2), "relation"),
        (lambda m: m.scoring_table([0, 3], [0, 0]), "entity"),
        (lambda m: m.scoring_table([0, 0], [1, 2]), "relation"),
    ))
    def test_bad_id_error_names_its_kind(self, call, what):
        m = blank_model(ModelConfig(dim=4), 3, 2)
        with pytest.raises(IndexError, match=f"^{what} id out of range$"):
            call(m)


class TestScoreAgainstAll:
    @pytest.mark.parametrize("mode", ("fixed_one", "attention"))
    def test_bitwise_equal_to_single_scores(self, mode):
        m = random_model(ModelConfig(dim=4, curvature_mode=mode), 7, 3, seed=12)
        for r in range(3):
            full = m.score_against_all(2, r)
            loop = np.array([m.score(2, r, t) for t in range(7)])
            np.testing.assert_array_equal(full, loop)

    @pytest.mark.parametrize("geometry", GEOMETRIES)
    @pytest.mark.parametrize("mode", CURVATURE_MODES)
    def test_table_rows_bitwise_equal_to_one_query(self, mode, geometry):
        # a row of the table, and each ||t||^2, does not depend on what else
        # the table holds
        m = random_model(ModelConfig(dim=4, curvature_mode=mode, geometry=geometry),
                         11, 3, seed=15)
        h, r = [2, 5, 2, 0, 10, 2], [1, 0, 1, 2, 2, 0]
        table = m.scoring_table(h, r)
        for hq, rq in zip(h, r):
            full = m.score_against_all(hq, rq, table=table)
            np.testing.assert_array_equal(full, m.score_against_all(hq, rq))
            np.testing.assert_array_equal(full, [m.score(hq, rq, t) for t in range(11)])

    def test_query_missing_from_table_raises(self):
        m = random_model(ModelConfig(dim=4), 5, 2, seed=16)
        table = m.scoring_table([1, 3], [0, 1])
        with pytest.raises(KeyError, match=r"query \(h=1, r=1\) is not in the scoring table"):
            m.score_against_all(1, 1, table=table)

    def test_euclidean_variant(self):
        cfg = ModelConfig(dim=4, geometry="euclidean")
        m = random_model(cfg, 5, 2, seed=14)
        full = m.score_against_all(1, 0)
        loop = np.array([m.score(1, 0, t) for t in range(5)])
        np.testing.assert_array_equal(full, loop)

    def test_single_entity_universe(self):
        m = blank_model(ModelConfig(dim=2), 1, 1)
        out = m.score_against_all(0, 0)
        assert out.shape == (1,)
        assert out[0] == 0.0

    @pytest.mark.parametrize("geometry", GEOMETRIES)
    def test_pass_leaves_its_inputs_alone(self, geometry):
        # the score-only pass works in its own buffers: a second call from
        # the same table gives the same array, and nothing it read changed
        m = random_model(ModelConfig(dim=4, geometry=geometry), 9, 3, seed=17)
        h, r = [4, 0, 4, 8], [2, 1, 0, 2]
        table = m.scoring_table(h, r)
        kept = {"n": table.n.copy(), "rn": table.rn.copy(),
                **{f"head.{k}": v.copy() for k, v in table.head.items()},
                **{k: m.params[k].copy() for k in ("ent_emb", "ent_bias")}}
        first = [m.score_against_all(hq, rq, table=table) for hq, rq in zip(h, r)]
        for hq, rq, want in zip(h, r, first):
            np.testing.assert_array_equal(m.score_against_all(hq, rq, table=table), want)
        np.testing.assert_array_equal(table.rn, np.sqrt(table.n))
        now = {"n": table.n, "rn": table.rn, **{f"head.{k}": v for k, v in table.head.items()},
               **{k: m.params[k] for k in ("ent_emb", "ent_bias")}}
        for name, before in kept.items():
            assert now[name].tobytes() == before.tobytes(), name


class TestOneKernel:
    """Training, score() and score_against_all() share one tail kernel."""

    @pytest.mark.parametrize("dtype", (np.float32, np.float64))
    @pytest.mark.parametrize("geometry", GEOMETRIES)
    @pytest.mark.parametrize("mode", CURVATURE_MODES)
    def test_training_forward_bitwise_equal_to_scoring(self, mode, geometry, dtype):
        m = random_model(ModelConfig(dim=8, curvature_mode=mode, geometry=geometry), 30, 5,
                         seed=21, dtype=dtype)
        rng = np.random.default_rng(22)
        h = rng.integers(0, 30, 12)
        r = rng.integers(0, 5, 12)
        t = rng.integers(0, 30, (12, 9))
        t[:, 4] = t[0, 4]  # one tail in every query
        scores, _ = m._forward(h, r, t, need_cache=True)
        assert scores.dtype == dtype
        for b in range(12):
            full = m.score_against_all(int(h[b]), int(r[b]))
            for j in range(9):
                assert scores[b, j] == m.score(int(h[b]), int(r[b]), int(t[b, j]))
                assert scores[b, j] == full[t[b, j]]

    @pytest.mark.parametrize("mode", CURVATURE_MODES)
    def test_near_coincident_tail_matches_reference(self, mode):
        # a tail placed on (or next to) the transformed head: ||md||^2 in
        # Gram form cancels almost entirely and must stay finite and exact
        offsets = (0.0, 1e-12, 1e-8, 1e-4)
        for seed in range(12):
            m = random_model(ModelConfig(dim=8, curvature_mode=mode), 4, 3, seed=seed)
            h, r, t = 0, seed % 3, 3
            c = m.curvature(h, r)
            lhs = geometry.mobius_add(m.transform_head(h, r),
                                      geometry.exp0(m.params["rel_trans"][r], c), c)
            direction = np.random.default_rng(seed).normal(size=8)
            bias = m.params["ent_bias"][h] + m.params["ent_bias"][t]
            for offset in offsets:
                m.params["ent_emb"][t] = geometry.log0(lhs + offset * direction, c)
                dist = geometry.hyp_distance(lhs, geometry.exp0(m.params["ent_emb"][t], c), c)
                got = m.score(h, r, t)
                assert np.isfinite(got)
                assert abs(got - (bias - dist * dist)) < 1e-12, (seed, offset)
            scores, cache = m._forward([h], [r], [[t]], need_cache=True)
            grads = m.backward(cache, np.ones_like(scores))
            assert all(np.all(np.isfinite(g)) for g in grads.to_dense(m).values())

    def test_clamp_sites_counted_separately(self, monkeypatch):
        # the lhs projection and the tails' exp0 clamp each report their own
        # count, in that order
        m = random_model(ModelConfig(dim=4, curvature_mode="global"), 6, 2, seed=30)
        m.params["curv_raw"] = np.asarray(np.log(np.expm1(0.6)))
        m.params["rel_trans"][1] *= 40.0              # relation 1: lhs leaves the ball
        m.params["ent_emb"][5] *= 40.0                # tail 5: exp0 rounds past the clamp radius
        h, r = np.asarray([0, 1, 2]), np.asarray([0, 1, 0])
        t = np.asarray([[5, 1, 5], [5, 2, 3], [4, 5, 1]])
        P = m.params
        c = m.curvature(0, 0)
        sc = math.sqrt(c)
        limit = (1.0 - geometry.BALL_EPS) / sc
        want = [0, 0]
        for b in range(3):
            x = (P["ent_emb"][h[b]].reshape(-1, 2) * P["rel_scale"][r[b]][:, None]).ravel()
            x = geometry.block_rotate(_exp0(x, c), P["rel_theta"][r[b]])
            want[0] += np.linalg.norm(_mobius(x, _exp0(P["rel_trans"][r[b]], c), c)) > limit
            for j in t[b]:
                want[1] += math.tanh(sc * np.linalg.norm(P["ent_emb"][j])) > 1.0 - geometry.BALL_EPS
        counts = []
        monkeypatch.setattr(geometry, "_count_clamps",
                            lambda mask: counts.append(int(np.count_nonzero(mask))))
        m._forward(h, r, t)
        assert counts == want == [1, 4]
        # the score-only pass over all entities counts each site as the
        # training forward does over the same tails
        every = np.arange(m.n_entities)[None]
        for b in range(3):
            counts.clear()
            m.score_against_all(int(h[b]), int(r[b]))
            alone = list(counts)
            counts.clear()
            m._forward(h[b:b + 1], r[b:b + 1], every)
            assert alone == counts, b
            assert alone[1] == 1, b


class TestCopy:
    def test_copy_is_deep(self):
        m = random_model(ModelConfig(dim=4, curvature_mode="attention"), 3, 2, seed=15)
        m2 = m.copy()
        m2.params["ent_emb"][0, 0] += 1.0
        assert m.params["ent_emb"][0, 0] != m2.params["ent_emb"][0, 0]
