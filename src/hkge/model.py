"""Model state and the scoring pipeline.

Parameters all live in tangent space (entity embeddings, relation
translations) or are plain reals (scales, angles, biases, curvature
pre-activations), so optimization stays Euclidean; the ball only ever
holds intermediate values.

Scoring has two stages.  ``_head`` maps each query (h, r) to its
transformed head ``lhs`` and, on the ball, its curvature c.  It only
composes the steps in ``geometry.py`` (block scale, exp0, block
rotation, Mobius addition and the projection), where each step has its
one implementation and its VJP; ``_head_backward`` calls those VJPs in
reverse order.  ``_tails`` scores tail embeddings against ``lhs``.  On
the ball the tail stage (tail exp0, the Mobius addition
(-lhs) (+)_c exp0(t), the projection and the gyrodistance) is written
in Gram form: a (query, tail) pair enters only through a = ||lhs||^2,
n = ||t||^2 and x = <lhs, t>, so apart from the tail embeddings no
(B, M, d) tensor is built, and the gradient of each tail is
alpha*lhs + beta*t, which ``_gather`` sums with one sparse product.
This is the production distance kernel.  ``geometry.hyp_distance``
computes the same distance step by step and is kept on purpose as the
independent reference that the tests and the benchmark check it against.

Training (``_forward``, gathered tails) and ``score_against_all``
(contiguous slices of the embedding table) share both stages, so a
number scored during evaluation is bitwise the number scored during
training.  That rests on one rule: every reduction over the embedding
axis is done row by row (``np.sum(u * v, axis=-1)`` on the head side,
``np.vecdot`` on the tails), so a row's result does not depend on how
many rows there are or where they live.  A BLAS matrix product such as
``lhs @ ent_emb.T`` blocks over rows, depends on the shape and would
break it.
``backward`` consumes the cache that ``_forward`` builds (each step's
inputs, from which its VJP recomputes what it needs) and
hand-accumulates reverse-mode gradients; there is no autograd anywhere.
"""

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from . import geometry
from .geometry import BALL_EPS, artanh_ratio, tanh_ratio, tanh_ratio_prime_over_z

CURVATURE_MODES = ("fixed_one", "global", "per_relation", "attention")
GEOMETRIES = ("hyperbolic", "euclidean")

# softplus(SOFTPLUS_UNIT) = 1; used to start trainable curvatures at 1
SOFTPLUS_UNIT = float(np.log(np.e - 1.0))
# curvatures are floored here (softplus can underflow to 0 in f64)
CURV_FLOOR = 1e-12

PARAM_ORDER = (
    "ent_emb",
    "ent_bias",
    "rel_emb",
    "rel_scale",
    "rel_theta",
    "rel_trans",
    "attn_a",
    "attn_p",
    "curv_raw",
)


def softplus(x):
    return np.logaddexp(0.0, x)


def sigmoid(x):
    x = np.asarray(x, dtype=np.float64)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out[0] if scalar else out


@dataclass
class ModelConfig:
    dim: int
    curvature_mode: str = "attention"
    geometry: str = "hyperbolic"
    use_inter_level: bool = True   # per-block scaling: moves a point across levels
    use_intra_level: bool = True   # block rotation: moves a point within its level
    init_scale: float = 1e-3

    def validate(self):
        if self.dim < 2 or self.dim % 2:
            raise ValueError(f"dim must be a positive even integer, got {self.dim}")
        if self.curvature_mode not in CURVATURE_MODES:
            raise ValueError(f"unknown curvature_mode {self.curvature_mode!r}")
        if self.geometry not in GEOMETRIES:
            raise ValueError(f"unknown geometry {self.geometry!r}")
        if self.init_scale < 0:
            raise ValueError("init_scale must be >= 0")
        return self


@dataclass
class SparseGrads:
    """Gradients restricted to the rows a batch actually touched."""

    ent_rows: np.ndarray  # (K,) unique entity ids
    ent_emb: np.ndarray   # (K, d)
    ent_bias: np.ndarray  # (K,)
    rel_rows: np.ndarray  # (L,) unique relation ids
    rel_emb: np.ndarray
    rel_scale: np.ndarray
    rel_theta: np.ndarray
    rel_trans: np.ndarray
    attn_a: np.ndarray    # (d,)
    attn_p: np.ndarray    # (d,)
    curv_raw: np.ndarray | None = None  # () global / (L,) per_relation rows

    def to_dense(self, model):
        """Full-shape gradient arrays (for finite-difference checks)."""
        dense = {name: np.zeros_like(arr) for name, arr in model.params.items()}
        dense["ent_emb"][self.ent_rows] = self.ent_emb
        dense["ent_bias"][self.ent_rows] = self.ent_bias
        for name in ("rel_emb", "rel_scale", "rel_theta", "rel_trans"):
            dense[name][self.rel_rows] = getattr(self, name)
        dense["attn_a"] = self.attn_a.copy()
        dense["attn_p"] = self.attn_p.copy()
        if self.curv_raw is not None:
            if model.config.curvature_mode == "global":
                dense["curv_raw"] = np.asarray(float(self.curv_raw))
            else:
                dense["curv_raw"][self.rel_rows] = self.curv_raw
        return dense


def _segment_sum(values, index, n_segments):
    """Sum `values` rows into `n_segments` buckets given by `index`."""
    if values.ndim == 1:
        return np.bincount(index, weights=values, minlength=n_segments)
    n = index.shape[0]
    summer = sparse.csr_matrix((np.ones(n), (index, np.arange(n))), shape=(n_segments, n))
    return summer @ values


class KGEModel:
    def __init__(self, config, n_entities, n_relations, params):
        self.config = config.validate()
        self.n_entities = int(n_entities)
        self.n_relations = int(n_relations)  # after reciprocal augmentation
        self.params = params

    # -- construction ------------------------------------------------

    @classmethod
    def init(cls, config, n_entities, n_relations, seed=0):
        """Fresh parameters: Gaussian embeddings, identity transforms."""
        config.validate()
        if n_entities < 1 or n_relations < 1:
            raise ValueError("need at least one entity and one relation")
        rng = np.random.default_rng(seed)
        d = config.dim
        s = config.init_scale
        params = {
            "ent_emb": rng.normal(0.0, 1.0, (n_entities, d)) * s,
            "ent_bias": np.zeros(n_entities),
            "rel_emb": rng.normal(0.0, 1.0, (n_relations, d)) * s,
            "rel_scale": np.ones((n_relations, d // 2)),
            "rel_theta": np.zeros((n_relations, d // 2)),
            "rel_trans": rng.normal(0.0, 1.0, (n_relations, d)) * s,
            "attn_a": rng.normal(0.0, 1.0, d) * s,
            "attn_p": rng.normal(0.0, 1.0, d) * s,
        }
        if config.curvature_mode == "global":
            params["curv_raw"] = np.asarray(SOFTPLUS_UNIT)
        elif config.curvature_mode == "per_relation":
            params["curv_raw"] = np.full(n_relations, SOFTPLUS_UNIT)
        return cls(config, n_entities, n_relations, params)

    def copy(self):
        params = {k: np.array(v, copy=True) for k, v in self.params.items()}
        return KGEModel(self.config, self.n_entities, self.n_relations, params)

    # -- id hygiene ---------------------------------------------------

    def _check_entities(self, ids):
        ids = np.asarray(ids)
        if ids.size and (ids.min() < 0 or ids.max() >= self.n_entities):
            raise IndexError("entity id out of range")
        return ids

    def _check_relations(self, ids):
        ids = np.asarray(ids)
        if ids.size and (ids.min() < 0 or ids.max() >= self.n_relations):
            raise IndexError("relation id out of range")
        return ids

    # -- curvature ----------------------------------------------------

    def _curvature_batch(self, he, re, r_ids):
        """Per-query curvature plus the pieces backward needs.

        Returns (c, aux) with c shaped (B,).
        """
        mode = self.config.curvature_mode
        B = he.shape[0]
        if mode == "fixed_one":
            return np.ones(B), {}
        if mode == "global":
            raw = float(self.params["curv_raw"])
            c0 = float(softplus(np.asarray(raw)))
            c = np.full(B, max(c0, CURV_FLOOR))
            dcdraw = float(sigmoid(np.asarray(raw))) if c0 >= CURV_FLOOR else 0.0
            return c, {"dcdraw": dcdraw}
        if mode == "per_relation":
            raw = self.params["curv_raw"][r_ids]
            c0 = softplus(raw)
            floored = c0 < CURV_FLOOR
            c = np.maximum(c0, CURV_FLOOR)
            dcdraw = np.where(floored, 0.0, sigmoid(raw))
            return c, {"dcdraw": dcdraw}
        # attention: a sigmoid gate over the two projections picks how
        # much of the head vs the relation embedding feeds the softplus.
        a = self.params["attn_a"]
        p = self.params["attn_p"]
        lh = np.sum(he * a, axis=-1)
        lr = np.sum(re * a, axis=-1)
        alpha_h = sigmoid(lh - lr)
        alpha_r = 1.0 - alpha_h
        v = alpha_h[:, None] * he + alpha_r[:, None] * re
        q = np.sum(p * v, axis=-1)
        c0 = softplus(q)
        floored = c0 < CURV_FLOOR
        c = np.maximum(c0, CURV_FLOOR)
        dcdq = np.where(floored, 0.0, sigmoid(q))
        return c, {"alpha_h": alpha_h, "alpha_r": alpha_r, "v": v, "dcdq": dcdq}

    def _curvature_backward(self, head, c_bar, q):
        """Route c_bar (B,) into the curvature parameters' entries of q."""
        mode, aux = self.config.curvature_mode, head["curv_aux"]
        if mode == "global":
            q["curv_raw"] = np.asarray(np.sum(c_bar) * aux["dcdraw"])
        elif mode == "per_relation":
            q["curv_raw"] = c_bar * aux["dcdraw"]
        elif mode == "attention":
            he, re = head["he"], head["re"]
            a, p = self.params["attn_a"], self.params["attn_p"]
            alpha_h, alpha_r, v = aux["alpha_h"], aux["alpha_r"], aux["v"]
            q_bar = c_bar * aux["dcdq"]                # (B,)
            q["attn_p"] = np.sum(q_bar[:, None] * v, axis=0)
            v_bar = q_bar[:, None] * p
            ah_bar = np.sum(v_bar * he, axis=-1)
            ar_bar = np.sum(v_bar * re, axis=-1)
            delta_bar = alpha_h * alpha_r * (ah_bar - ar_bar)
            q["attn_a"] = np.sum(delta_bar[:, None] * (he - re), axis=0)
            q["ent_emb"] = q["ent_emb"] + alpha_h[:, None] * v_bar + delta_bar[:, None] * a
            q["rel_emb"] = alpha_r[:, None] * v_bar - delta_bar[:, None] * a

    def curvature(self, h, r):
        """c_{h,r} for a single query, as a python float."""
        h = int(self._check_entities(np.asarray([h]))[0])
        r = int(self._check_relations(np.asarray([r]))[0])
        he = self.params["ent_emb"][[h]]
        re = self.params["rel_emb"][[r]]
        c, _ = self._curvature_batch(he, re, np.asarray([r]))
        return float(c[0])

    # -- scoring ------------------------------------------------------

    def transform_head(self, h, r):
        """Head after scale, exp0 and rotation: a point on the ball."""
        if self.config.geometry != "hyperbolic":
            raise ValueError("transform_head is defined for hyperbolic geometry")
        head = self._head(self._check_entities(np.asarray([h])),
                          self._check_relations(np.asarray([r])))
        return head["x2"][0]

    def score(self, h, r, t):
        scores = self._forward(
            np.asarray([h]), np.asarray([r]), np.asarray([[t]]), need_cache=False
        )
        return float(scores[0, 0])

    def score_against_all(self, h, r, chunk=16384):
        """score(h, r, j) for every entity j, bitwise equal to the loop.

        Tails are contiguous slices of the embedding table, not gathers.
        """
        head = self._head(self._check_entities(np.asarray([h])),
                          self._check_relations(np.asarray([r])))
        emb, bias = self.params["ent_emb"], self.params["ent_bias"]
        out = np.empty(self.n_entities)
        for start in range(0, self.n_entities, chunk):
            stop = min(start + chunk, self.n_entities)
            out[start:stop] = self._tails(head, emb[None, start:stop], bias[None, start:stop])[0]
        return out

    def _forward(self, h_ids, r_ids, t_ids, need_cache=False):
        """Scores for tails t_ids[b, m] against query (h_ids[b], r_ids[b]).

        Shapes: h_ids (B,), r_ids (B,), t_ids (B, M) -> (B, M).
        """
        h_ids = self._check_entities(np.asarray(h_ids))
        r_ids = self._check_relations(np.asarray(r_ids))
        t_ids = self._check_entities(np.asarray(t_ids))
        head = self._head(h_ids, r_ids)
        te = self.params["ent_emb"][t_ids]          # (B, M, d)
        out = self._tails(head, te, self.params["ent_bias"][t_ids], need_cache)
        if not need_cache:
            return out
        scores, tails = out
        return scores, {"head": head, "tails": tails, "te": te, "t_ids": t_ids}

    def _head(self, h_ids, r_ids):
        """Per-query head stage: scale, exp0, rotation and translation.

        Returns a dict whose ``lhs`` (B, d) is the transformed head: a
        point on the ball of curvature ``c`` (B,), or a plain vector in
        euclidean geometry.  The rest are the inputs of each step, which
        ``_head_backward`` hands to the steps' VJPs.
        """
        P, cfg = self.params, self.config
        he = P["ent_emb"][h_ids]
        re = P["rel_emb"][r_ids]
        w = P["rel_trans"][r_ids]
        k = P["rel_scale"][r_ids] if cfg.use_inter_level else None
        th = P["rel_theta"][r_ids] if cfg.use_intra_level else None
        hd = {"h_ids": h_ids, "r_ids": r_ids, "he": he, "re": re, "w": w, "k": k, "th": th,
              "bias": P["ent_bias"][h_ids],
              "query": lambda b: f"query (h={int(h_ids[b])}, r={int(r_ids[b])})"}
        u = he if k is None else geometry._block_scale(he, k)
        if cfg.geometry == "euclidean":
            x2 = u if th is None else geometry._block_rotate(u, th)
            hd.update(x1=u, lhs=x2 + w)
            return hd

        c, hd["curv_aux"] = self._curvature_batch(he, re, r_ids)
        cB = c[:, None]
        x1 = geometry._exp0(u, cB)
        x2 = x1 if th is None else geometry._block_rotate(x1, th)
        # relation translation mapped onto the ball at this query's c
        eps = geometry._exp0(w, cB)
        lhs_raw = geometry._mobius_add(x2, eps, cB, hd["query"])
        lhs = geometry._project(lhs_raw, cB)
        hd.update(c=c, sc=np.sqrt(c), u=u, x1=x1, x2=x2, eps=eps, lhs_raw=lhs_raw,
                  lhs=lhs, a=np.sum(lhs * lhs, axis=-1))
        return hd

    def _tails(self, head, te, t_bias, need_cache=False):
        """Scores of tail embeddings te[b, m] against head[b]: (B, M).

        On the ball this is the Gram form of tail exp0, md = (-lhs) (+)_c
        exp0(t), the projection of md and the gyrodistance: a pair enters
        only through a = ||lhs||^2, n = ||t||^2 and x = <lhs, t>.  This
        is the production kernel; ``geometry.hyp_distance`` is its
        independent reference.
        """
        lhs = head["lhs"]
        bias = head["bias"][:, None] + t_bias
        if self.config.geometry == "euclidean":
            diff = lhs[:, None, :] - te
            scores = -4.0 * np.sum(diff * diff, axis=-1) + bias  # -(2||x-y||)^2
            return (scores, {}) if need_cache else scores

        c, sc, a = head["c"][:, None], head["sc"][:, None], head["a"][:, None]
        # one dot product per row: a row's result does not depend on M (a BLAS
        # lhs @ te.T would), which keeps eval and training scores bitwise equal
        n = np.vecdot(te, te)
        x = np.vecdot(lhs[:, None, :], te)
        zt = sc * np.sqrt(n)
        ft = tanh_ratio(zt)

        # md = (-lhs) (+)_c tH with tH = ft*t: p = <-lhs, tH>, b = ||tH||^2
        p = -ft * x
        b = ft * ft * n
        A2 = 1.0 + 2.0 * c * p + c * b
        B2 = 1.0 - c * a
        D2 = 1.0 + 2.0 * c * p + c * c * a * b
        geometry._check_denominator(D2, head["query"])
        N2 = A2 * A2 * a + 2.0 * A2 * B2 * p + B2 * B2 * b
        # ||md||^2 = N2/D2^2 cancels to rounding noise when lhs ~ tH
        nm = np.sqrt(np.maximum(N2 / (D2 * D2), 0.0))

        # md projected inside the clamp radius, then the gyrodistance
        limit = (1.0 - BALL_EPS) / sc
        over = nm > limit
        geometry._count_clamps(over)
        nm = np.minimum(nm, limit)
        g = sc * nm
        gmask = g > 1.0 - BALL_EPS
        geometry._count_clamps(gmask)
        gcl = np.minimum(g, 1.0 - BALL_EPS)
        atg = np.arctanh(gcl)
        dist = 2.0 * atg / sc
        scores = -dist * dist + bias
        if not need_cache:
            return scores
        return scores, {"n": n, "x": x, "zt": zt, "ft": ft, "p": p, "b": b,
                        "A2": A2, "B2": B2, "D2": D2, "N2": N2, "nm": nm,
                        "live": ~(over | gmask), "gcl": gcl, "atg": atg, "dist": dist}

    # -- backward -----------------------------------------------------

    def backward(self, cache, sbar):
        """Accumulate d(sum(sbar * scores))/d(params) as SparseGrads."""
        head, te = cache["head"], cache["te"]
        ga, alpha, beta, c_bar = self._tails_backward(head, cache["tails"], sbar)
        lhs = head["lhs"]
        lhs_bar = ga[:, None] * lhs + np.einsum("bm,bmd->bd", alpha, te)
        q = self._head_backward(head, lhs_bar, c_bar)
        return self._gather(head["h_ids"], head["r_ids"], cache["t_ids"], q,
                            lhs, alpha, beta, sbar)

    def _tails_backward(self, head, tails, sbar):
        """VJP of ``_tails``: (ga, alpha, beta, c_bar).

        d/d lhs[b] = ga[b]*lhs[b] + sum_m alpha[b, m]*t[b, m], and
        d/d t[b, m] = alpha[b, m]*lhs[b] + beta[b, m]*t[b, m].
        """
        if self.config.geometry == "euclidean":
            return -8.0 * np.sum(sbar, axis=-1), 8.0 * sbar, -8.0 * sbar, None

        c, sc, a = head["c"][:, None], head["sc"][:, None], head["a"][:, None]
        T = tails
        live = T["live"]            # neither the md projection nor arctanh clamped
        one_m_g2 = 1.0 - T["gcl"] * T["gcl"]
        dist_bar = -2.0 * T["dist"] * sbar
        # c enters dist directly: d(dist)/dc = -atg/c^{3/2} + nm/(c(1-g^2)) (2nd term 0 if clamped)
        c_bar = dist_bar * (-T["atg"] / (c * sc) + np.where(live, T["nm"] / (c * one_m_g2), 0.0))
        # d(score)/d(||md||^2) = -4 artanh_ratio(g)/(1-g^2), free of 1/||md||
        m2_bar = np.where(live, -4.0 * artanh_ratio(T["gcl"]) * sbar / one_m_g2, 0.0)

        # ||md||^2 = N2/D2^2, N2 = A2^2 a + 2 A2 B2 p + B2^2 b
        p, b, A2, B2, D2 = T["p"], T["b"], T["A2"], T["B2"], T["D2"]
        N_bar = m2_bar / (D2 * D2)
        D_bar = -2.0 * N_bar * T["N2"] / D2
        A_bar = 2.0 * N_bar * (A2 * a + B2 * p)
        B_bar = 2.0 * N_bar * (A2 * p + B2 * b)
        a_bar = N_bar * A2 * A2 - c * B_bar + D_bar * c * c * b
        p_bar = 2.0 * N_bar * A2 * B2 + 2.0 * c * (A_bar + D_bar)
        b_bar = N_bar * B2 * B2 + c * A_bar + D_bar * c * c * a
        c_bar += A_bar * (2.0 * p + b) - B_bar * a + D_bar * (2.0 * p + 2.0 * c * a * b)

        # p = -ft*x, b = ft^2*n, ft = tanh_ratio(sqrt(c*n))
        ft, n = T["ft"], T["n"]
        rt = tanh_ratio_prime_over_z(T["zt"])
        ft_bar = -T["x"] * p_bar + 2.0 * ft * n * b_bar
        n_bar = ft * ft * b_bar + ft_bar * rt * c / 2.0
        c_bar += ft_bar * rt * n / 2.0
        return 2.0 * np.sum(a_bar, axis=-1), -ft * p_bar, 2.0 * n_bar, np.sum(c_bar, axis=-1)

    def _head_backward(self, head, lhs_bar, c_bar):
        """VJP of ``_head``: per-query gradients keyed by parameter name."""
        q = dict.fromkeys(("rel_emb", "rel_scale", "rel_theta", "attn_a", "attn_p", "curv_raw"))
        hyp = self.config.geometry == "hyperbolic"
        if hyp:
            cB = head["c"][:, None]
            lhs_raw_bar, cb = geometry._project_backward(lhs_bar, head["lhs_raw"], cB)
            c_bar = c_bar + cb
            x2_bar, eps_bar, cb = self._mobius_backward(lhs_raw_bar, head["x2"], head["eps"], cB)
            c_bar = c_bar + cb
            q["rel_trans"], cb = geometry._exp0_backward(eps_bar, head["w"], cB)
            c_bar = c_bar + cb
        else:
            x2_bar = q["rel_trans"] = lhs_bar
        x1_bar = x2_bar
        if head["th"] is not None:
            x1_bar, q["rel_theta"] = geometry._block_rotate_backward(
                x2_bar, head["x1"], head["th"])
        u_bar = x1_bar
        if hyp:
            u_bar, cb = geometry._exp0_backward(x1_bar, head["u"], cB)
            c_bar = c_bar + cb
        q["ent_emb"] = u_bar
        if head["k"] is not None:
            q["ent_emb"], q["rel_scale"] = geometry._block_scale_backward(
                u_bar, head["he"], head["k"])
        if hyp:
            self._curvature_backward(head, c_bar, q)
        return q

    # the head-side Mobius VJP, under the name the benchmark's tracer times
    _mobius_backward = staticmethod(geometry._mobius_add_backward)

    def _gather(self, h_ids, r_ids, t_ids, q, lhs, alpha, beta, sbar):
        """Scatter per-query gradients into unique-row sparse arrays.

        `q` maps parameter names to per-query gradients (None: zero).  Tail
        t_ids[b, m] gets alpha[b, m]*lhs[b] + beta[b, m]*t and sbar[b, m]
        on its bias, so no per-pair d-vector is ever built.
        """
        d = self.config.dim
        B, M = t_ids.shape
        ent_rows, ent_inv = np.unique(np.concatenate([h_ids, t_ids.ravel()]),
                                      return_inverse=True)
        K = ent_rows.shape[0]
        # one sparse product adds the head rows and every alpha*lhs term
        cols = np.concatenate([np.arange(B), B + np.repeat(np.arange(B), M)])
        weights = np.concatenate([np.ones(B), alpha.ravel()])
        summer = sparse.csr_matrix((weights, (ent_inv, cols)), shape=(K, 2 * B))
        ent_emb_g = (summer @ np.concatenate([q["ent_emb"], lhs])
                     + np.bincount(ent_inv[B:], weights=beta.ravel(), minlength=K)[:, None]
                     * self.params["ent_emb"][ent_rows])
        ent_bias_g = np.bincount(
            ent_inv, weights=np.concatenate([np.sum(sbar, axis=-1), sbar.ravel()]), minlength=K)

        rel_rows, rel_inv = np.unique(r_ids, return_inverse=True)
        L = rel_rows.shape[0]

        def rel(name, width):
            return np.zeros((L, width)) if q[name] is None else _segment_sum(q[name], rel_inv, L)

        curv_g = q["curv_raw"]
        if self.config.curvature_mode == "global":
            curv_g = np.asarray(0.0 if curv_g is None else curv_g)
        elif self.config.curvature_mode == "per_relation":
            curv_g = np.zeros(L) if curv_g is None else _segment_sum(curv_g, rel_inv, L)

        return SparseGrads(
            ent_rows=ent_rows, ent_emb=ent_emb_g, ent_bias=ent_bias_g,
            rel_rows=rel_rows, rel_emb=rel("rel_emb", d), rel_scale=rel("rel_scale", d // 2),
            rel_theta=rel("rel_theta", d // 2), rel_trans=rel("rel_trans", d),
            attn_a=np.zeros(d) if q["attn_a"] is None else q["attn_a"],
            attn_p=np.zeros(d) if q["attn_p"] is None else q["attn_p"],
            curv_raw=curv_g,
        )
