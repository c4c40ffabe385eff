"""Model state and the scoring pipeline.

Parameters all live in tangent space (entity embeddings, relation
translations) or are plain reals (scales, angles, biases, curvature
pre-activations), so optimization stays Euclidean; the ball only ever
holds intermediate values.

Scoring has two stages, each composed of the steps in ``geometry.py``,
which hold every step's one implementation and its VJP; ``backward``
calls the VJPs in reverse order (there is no autograd).  ``_head`` maps
each query (h, r) to its transformed head ``lhs``, a = ||lhs||^2 and,
on the ball, its curvature c.  ``_tails`` scores tails t: a pair enters
only through a, n = ||t||^2 and x = <lhs, t>, and the score is the two
biases minus the squared distance, 4*max(a - 2x + n, 0) in euclidean
geometry and, on the ball, the closed-form distance to exp0(t) of
``geometry._gram_sqdist``, which needs no Mobius sum and so has no
denominator to check.  So only the tail embeddings are (B, M, d), and
the gradient of each tail is alpha*lhs + beta*t, which ``_gather`` sums
with one sparse product.

Every stage keeps the dtype of the parameter arrays (``dtype``):
``init`` makes float32 tables, so training runs in float32, and
``checkpoint.load`` makes float64 ones, so evaluation scores the stored
float32 weights in float64 arithmetic.  Training (``_forward``,
gathered tails) and ``score_against_all`` (the whole embedding table,
in place) share both stages, so for a model of either dtype a number
scored by one is bitwise the number scored by the other.  That rests
on one rule: every reduction over the embedding axis is done row by
row (``np.sum(u * v, axis=-1)`` on the head side, ``np.vecdot`` on the
tails), so a row's result does not depend on how many rows there are
or where they live.  A BLAS matrix product such as ``lhs @ ent_emb.T``
blocks over rows, depends on the shape and would break it.

||t||^2 is an input of ``_tails``: ``_forward`` computes it for its
gathered tails, and ``scoring_table`` computes it and its square root
once for every entity, together with the heads of all distinct queries
of a ranking pass in one ``_head`` call.  ``score_against_all`` reads
one query's row of that table; by the rule above the row is bitwise
what a one-query head gives.  It is a score-only pass: the query's head
against 1-D arrays over all entities, with no cache for a backward, so
``_gram_sqdist`` writes each step into the buffer of an intermediate
that is no longer read, by the same operations in the same order.
"""

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from . import geometry

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


class NumericError(RuntimeError):
    """Raised when the pipeline produces a non-finite number."""


def softplus(x):
    # a NaN input gives NaN silently; the model's finite checks report it
    with np.errstate(invalid="ignore"):
        return np.logaddexp(0.0, x)


def sigmoid(x):
    """1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) below, so exp never overflows."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def _floored_softplus(x):
    """softplus(x) floored at CURV_FLOOR, and its derivative (0 where floored)."""
    c0 = softplus(x)
    return np.maximum(c0, CURV_FLOOR), np.where(c0 < CURV_FLOOR, 0.0, sigmoid(x))


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


def param_shapes(config, n_entities, n_relations):
    """Shape of each parameter group ``config`` reads, in ``PARAM_ORDER``.

    The scaling and the rotation have their groups only while their flag
    is on, and curvature groups exist on the ball only: the attention
    gate (``rel_emb``, ``attn_a``, ``attn_p``) in attention mode, and
    ``curv_raw`` as one value (global) or one per relation (per_relation).
    Raises ValueError where (config, n_entities, n_relations) is no model.
    """
    config.validate()
    if n_entities < 1 or n_relations < 1:
        raise ValueError("need at least one entity and one relation")
    d, R = config.dim, n_relations
    mode = config.curvature_mode if config.geometry == "hyperbolic" else None
    attention = mode == "attention"
    shapes = {
        "ent_emb": (n_entities, d),
        "ent_bias": (n_entities,),
        "rel_emb": (R, d) if attention else None,
        "rel_scale": (R, d // 2) if config.use_inter_level else None,
        "rel_theta": (R, d // 2) if config.use_intra_level else None,
        "rel_trans": (R, d),
        "attn_a": (d,) if attention else None,
        "attn_p": (d,) if attention else None,
        "curv_raw": {"global": (), "per_relation": (R,)}.get(mode),
    }
    return {name: shape for name, shape in shapes.items() if shape is not None}


class SparseGrads(dict):
    """Gradients restricted to the rows a batch actually touched.

    Maps each parameter group of the model to ``(rows, grad)``, where
    ``grad[i]`` belongs to row ``rows[i]`` and ``rows`` is ``...`` for a
    group updated whole (``attn_*``, a global ``curv_raw``).  Rows are
    sorted, unique entity or relation ids: the optimizers scatter each
    row block with one assignment, which would drop all but one update
    of a repeated row."""

    def to_dense(self, model):
        """Full-shape gradient arrays (for finite-difference checks)."""
        dense = {name: np.zeros_like(arr) for name, arr in model.params.items()}
        for name, (rows, grad) in self.items():
            dense[name][rows] = grad
        return dense


def _query_name(h, r):
    return f"query (h={int(h)}, r={int(r)})"


@dataclass
class ScoringTable:
    """What ranking many queries against every entity shares.

    ``n`` is ||t||^2 of every entity and ``rn`` its square root, and
    ``head`` holds the fields the tail stage reads (``lhs``, ``bias``,
    ``a`` = ||lhs||^2 and, on the ball, ``c``), one row per distinct
    query; ``rows`` maps (h, r) to its row.  Built by
    ``KGEModel.scoring_table`` from the current parameters, so it is
    stale once they change: keep it local.  Scoring reads it and never
    writes to it.
    """

    n: np.ndarray
    rn: np.ndarray
    head: dict
    rows: dict

    def query_head(self, h, r):
        """The head of query (h, r) with no batch axis, as ``KGEModel._tails``
        takes it to score 1-D tail arrays."""
        i = self.rows.get((h, r))
        if i is None:
            raise KeyError(f"{_query_name(h, r)} is not in the scoring table")
        return {k: v[i, ...] for k, v in self.head.items()}


def _segment_sum(values, index, n_segments):
    """Sum `values` rows into `n_segments` buckets given by `index`."""
    if values.ndim == 1:  # bincount sums in float64
        return np.bincount(index, weights=values,
                           minlength=n_segments).astype(values.dtype, copy=False)
    n = index.shape[0]
    summer = sparse.csr_matrix((np.ones(n, dtype=values.dtype), (index, np.arange(n))),
                               shape=(n_segments, n))
    return summer @ values


class KGEModel:
    def __init__(self, config, n_entities, n_relations, params):
        # params must hold every group in param_shapes, which also validates
        # the config; other groups are dropped
        self.config = config
        self.n_entities = int(n_entities)
        self.n_relations = int(n_relations)  # after reciprocal augmentation
        self.params = {name: params[name]
                       for name in param_shapes(config, n_entities, n_relations)}

    # -- construction ------------------------------------------------

    @classmethod
    def init(cls, config, n_entities, n_relations, seed=0):
        """Fresh float32 parameters: Gaussian embeddings, identity transforms.

        All groups are drawn in float64, in one order, and the unread ones
        dropped, so a seed gives a group the same values in every
        configuration; then each is rounded to float32, the dtype the
        model trains in."""
        shapes = param_shapes(config, n_entities, n_relations)
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
            "curv_raw": np.full(shapes.get("curv_raw", ()), SOFTPLUS_UNIT),
        }
        return cls(config, n_entities, n_relations,
                   {k: v.astype(np.float32) for k, v in params.items()})

    @property
    def dtype(self):
        """The parameters' dtype, which every kernel's arithmetic keeps."""
        return self.params["ent_emb"].dtype

    def copy(self):
        params = {k: np.array(v, copy=True) for k, v in self.params.items()}
        return KGEModel(self.config, self.n_entities, self.n_relations, params)

    # -- id hygiene ---------------------------------------------------

    @staticmethod
    def _check_ids(ids, n, what):
        ids = np.asarray(ids)
        if ids.size and (ids.min() < 0 or ids.max() >= n):
            raise IndexError(f"{what} id out of range")
        return ids

    # -- curvature ----------------------------------------------------

    def _curvature_batch(self, he, r_ids):
        """Per-query curvature plus the pieces backward needs.

        Returns (c, aux) with c shaped (B,).
        """
        mode = self.config.curvature_mode
        B = he.shape[0]
        if mode == "fixed_one":
            return np.ones(B, dtype=self.dtype), {}
        if mode in ("global", "per_relation"):
            raw = self.params["curv_raw"]
            c, dcdraw = _floored_softplus(np.full(B, raw) if raw.ndim == 0 else raw[r_ids])
            return c, {"dcdraw": dcdraw}
        # attention: a sigmoid gate over the two projections picks how
        # much of the head vs the relation embedding feeds the softplus.
        a = self.params["attn_a"]
        p = self.params["attn_p"]
        re = self.params["rel_emb"][r_ids]
        lh = np.sum(he * a, axis=-1)
        lr = np.sum(re * a, axis=-1)
        alpha_h = sigmoid(lh - lr)
        alpha_r = 1.0 - alpha_h
        v = alpha_h[:, None] * he + alpha_r[:, None] * re
        c, dcdq = _floored_softplus(np.sum(p * v, axis=-1))
        return c, {"re": re, "alpha_h": alpha_h, "alpha_r": alpha_r, "v": v, "dcdq": dcdq}

    def _curvature_backward(self, head, c_bar, q):
        """Route c_bar (B,) into the curvature parameters' entries of q."""
        mode, aux = self.config.curvature_mode, head["curv_aux"]
        if mode == "global":
            q["curv_raw"] = np.asarray(np.sum(c_bar) * aux["dcdraw"][0])  # same for all queries
        elif mode == "per_relation":
            q["curv_raw"] = c_bar * aux["dcdraw"]
        elif mode == "attention":
            he, re = head["he"], aux["re"]
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
        if self.config.geometry != "hyperbolic":
            raise ValueError("curvature is defined for hyperbolic geometry")
        h = self._check_ids([h], self.n_entities, "entity")
        r = self._check_ids([r], self.n_relations, "relation")
        c, _ = self._curvature_batch(self.params["ent_emb"][h], r)
        return float(c[0])

    # -- scoring ------------------------------------------------------

    def transform_head(self, h, r):
        """Head after scale, exp0 and rotation: a point on the ball."""
        if self.config.geometry != "hyperbolic":
            raise ValueError("transform_head is defined for hyperbolic geometry")
        head = self._head(self._check_ids([h], self.n_entities, "entity"),
                          self._check_ids([r], self.n_relations, "relation"))
        return head["x2"][0]

    def score(self, h, r, t):
        scores = self._forward(
            np.asarray([h]), np.asarray([r]), np.asarray([[t]]), need_cache=False
        )
        return float(scores[0, 0])

    def scoring_table(self, h_ids, r_ids):
        """A ``ScoringTable`` for the queries (h_ids[i], r_ids[i]): one
        ``_head`` call over the distinct ones, and ||t||^2 of every entity
        with its square root."""
        h_ids = self._check_ids(h_ids, self.n_entities, "entity")
        r_ids = self._check_ids(r_ids, self.n_relations, "relation")
        pairs = np.unique(np.stack([h_ids, r_ids], axis=1), axis=0)
        head = self._head(pairs[:, 0], pairs[:, 1])
        fields = ("lhs", "bias", "a", "c")  # c exists on the ball only
        emb = self.params["ent_emb"]
        n = np.vecdot(emb, emb)
        return ScoringTable(n=n, rn=np.sqrt(n), head={k: head[k] for k in fields if k in head},
                            rows={(h, r): i for i, (h, r) in enumerate(pairs.tolist())})

    def score_against_all(self, h, r, table=None):
        """score(h, r, j) for every entity j, bitwise equal to the loop.

        ``table`` (from ``scoring_table``) must hold (h, r); without one,
        a one-query table is built.  The tails are the whole embedding
        table, read in place rather than gathered, and every array of the
        pass is 1-D over the entities.  No backward follows, so the tail
        stage keeps no cache and reuses its own buffers.
        """
        if table is None:
            table = self.scoring_table([h], [r])
        return self._tails(table.query_head(h, r), self.params["ent_emb"], table.n,
                           self.params["ent_bias"], rn=table.rn)

    def _forward(self, h_ids, r_ids, t_ids, need_cache=False):
        """Scores for tails t_ids[b, m] against query (h_ids[b], r_ids[b]).

        Shapes: h_ids (B,), r_ids (B,), t_ids (B, M) -> (B, M).
        """
        h_ids = self._check_ids(h_ids, self.n_entities, "entity")
        r_ids = self._check_ids(r_ids, self.n_relations, "relation")
        t_ids = self._check_ids(t_ids, self.n_entities, "entity")
        head = self._head(h_ids, r_ids)
        te = np.take(self.params["ent_emb"], t_ids, axis=0)  # (B, M, d); faster than [t_ids]
        bias = np.take(self.params["ent_bias"], t_ids)
        out = self._tails(head, te, np.vecdot(te, te), bias, need_cache=need_cache)
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
        w = P["rel_trans"][r_ids]
        k = P["rel_scale"][r_ids] if cfg.use_inter_level else None
        th = P["rel_theta"][r_ids] if cfg.use_intra_level else None
        hd = {"h_ids": h_ids, "r_ids": r_ids, "he": he, "w": w, "k": k, "th": th,
              "bias": P["ent_bias"][h_ids],
              "query": lambda b: _query_name(h_ids[b], r_ids[b])}
        u = he if k is None else geometry._block_scale(he, k)
        if cfg.geometry == "euclidean":
            x2 = u if th is None else geometry._block_rotate(u, th)
            lhs = x2 + w
            hd.update(x1=u)
        else:
            c, hd["curv_aux"] = self._curvature_batch(he, r_ids)
            cB = c[:, None]
            x1 = geometry._exp0(u, cB)
            x2 = x1 if th is None else geometry._block_rotate(x1, th)
            # relation translation mapped onto the ball at this query's c
            eps = geometry._exp0(w, cB)
            lhs_raw = geometry._mobius_add(x2, eps, cB, hd["query"])
            lhs = geometry._project(lhs_raw, cB)
            hd.update(c=c, u=u, x1=x1, x2=x2, eps=eps, lhs_raw=lhs_raw)
        hd.update(lhs=lhs, a=np.sum(lhs * lhs, axis=-1))
        return hd

    def _tails(self, head, te, n, t_bias, rn=None, need_cache=False):
        """Scores of tail embeddings te[b, m] against head[b]: (B, M).

        A head without the batch axis (``ScoringTable.query_head``) scores
        te[m] as (M,).  ``n`` is ||te||^2 (``np.vecdot(te, te)``) and ``rn``
        its square root, which callers that score many queries against
        the same tails compute once.
        """
        a = head["a"][..., None]
        # one dot product per row: a row's result does not depend on M (a BLAS
        # lhs @ te.T would), which keeps eval and training scores bitwise equal
        x = np.vecdot(head["lhs"][..., None, :], te)
        if self.config.geometry == "euclidean":
            # (2||lhs - t||)^2; the clamp catches rounding when lhs ~ t
            sq, cache = 4.0 * np.maximum(a - 2.0 * x + n, 0.0), None
        else:
            sq, cache = geometry._gram_sqdist(a, n, x, head["c"][..., None], rn=rn,
                                              need_cache=need_cache)
        scores = head["bias"][..., None] + t_bias
        scores -= sq
        return (scores, cache) if need_cache else scores

    # -- backward -----------------------------------------------------

    def backward(self, cache, sbar):
        """Accumulate d(sum(sbar * scores))/d(params) as ``SparseGrads``."""
        head, te = cache["head"], cache["te"]
        ga, alpha, beta, c_bar = self._tails_backward(cache["tails"], sbar)
        lhs = head["lhs"]
        lhs_bar = ga[:, None] * lhs + np.einsum("bm,bmd->bd", alpha, te)
        q = self._head_backward(head, lhs_bar, c_bar)
        return self._gather(head["h_ids"], head["r_ids"], cache["t_ids"], q,
                            lhs, alpha, beta, sbar)

    def _tails_backward(self, tails, sbar):
        """VJP of ``_tails``: (ga, alpha, beta, c_bar).

        d/d lhs[b] = ga[b]*lhs[b] + sum_m alpha[b, m]*t[b, m], and
        d/d t[b, m] = alpha[b, m]*lhs[b] + beta[b, m]*t[b, m].
        """
        sq_bar = -sbar
        if self.config.geometry == "euclidean":
            # the VJP of 4(a - 2x + n); its clamp acts only at rounding level
            a_bar, n_bar, x_bar, c_bar = 4.0 * sq_bar, 4.0 * sq_bar, -8.0 * sq_bar, None
        else:
            a_bar, n_bar, x_bar, c_bar = geometry._gram_sqdist_backward(sq_bar, tails)
            c_bar = np.sum(c_bar, axis=-1)
        return 2.0 * np.sum(a_bar, axis=-1), x_bar, 2.0 * n_bar, c_bar

    def _head_backward(self, head, lhs_bar, c_bar):
        """VJP of ``_head``: per-query gradients keyed by parameter name."""
        q = {}
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
        """Scatter per-query gradients into ``SparseGrads``, one entry per group.

        `q` maps each group but ``ent_bias`` to its per-query gradient, or
        to the whole-group one for ``attn_*`` and a global ``curv_raw``.
        Tail t_ids[b, m] gets alpha[b, m]*lhs[b] + beta[b, m]*t and
        sbar[b, m] on its bias, so no per-pair d-vector is ever built.
        """
        B, M = t_ids.shape
        ids = np.concatenate([h_ids, t_ids.ravel()])
        # np.unique(ids, return_inverse=True) without its sort: mark, then number
        mark = np.zeros(self.n_entities, dtype=bool)
        mark[ids] = True
        ent_rows, ent_inv = np.flatnonzero(mark), (np.cumsum(mark) - 1)[ids]
        K = ent_rows.shape[0]
        # one sparse product adds the head rows and every alpha*lhs term
        cols = np.concatenate([np.arange(B), B + np.repeat(np.arange(B), M)])
        weights = np.concatenate([np.ones(B, dtype=self.dtype), alpha.ravel()])
        summer = sparse.csr_matrix((weights, (ent_inv, cols)), shape=(K, 2 * B))
        q["ent_emb"] = summer @ np.concatenate([q["ent_emb"], lhs])
        tail = self.params["ent_emb"].take(ent_rows, axis=0)
        # bincount sums in float64; its sums are rounded to the model's dtype
        tail *= np.bincount(ent_inv[B:], weights=beta.ravel(),
                            minlength=K).astype(self.dtype, copy=False)[:, None]
        q["ent_emb"] += tail
        q["ent_bias"] = np.bincount(
            ent_inv, weights=np.concatenate([np.sum(sbar, axis=-1), sbar.ravel()]),
            minlength=K).astype(self.dtype, copy=False)

        # the 2-D relation groups in one segment sum; its columns add independently
        rel_rows, rel_inv = np.unique(r_ids, return_inverse=True)
        rel = [name for name in self.params if name.startswith("rel_")]
        summed = _segment_sum(np.concatenate([q[name] for name in rel], axis=1),
                              rel_inv, rel_rows.shape[0])
        q.update(zip(rel, np.split(summed, np.cumsum([q[n].shape[1] for n in rel])[:-1],
                                   axis=1)))
        grads = SparseGrads()
        for name, param in self.params.items():
            if name.startswith("ent_"):
                grads[name] = (ent_rows, q[name])
            elif name.startswith("rel_"):
                grads[name] = (rel_rows, q[name])
            elif name.startswith("attn_") or param.ndim == 0:
                grads[name] = (..., q[name])
            else:
                grads[name] = (rel_rows, _segment_sum(q[name], rel_inv, rel_rows.shape[0]))
        return grads
