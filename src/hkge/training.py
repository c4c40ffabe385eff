"""Negative sampling, the ranking loss, optimizers, and the epoch loop.

Gradients come from ``KGEModel.backward`` (hand-accumulated reverse
mode); this module only adds the loss head on top and owns the
parameter-update bookkeeping.  The arithmetic keeps the parameters'
dtype (float32 for a model from ``KGEModel.init``): the loss terms,
every gradient and the optimizer state.  A run is bitwise
deterministic for a given seed.  Validation scores the float64 view of
the float32-rounded weights (``round_trip_f32``), exactly as evaluating
the saved checkpoint does.  Nothing here writes a file: ``train`` hands
each history row to its caller's ``on_row`` as the row is made.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import data, evaluation, geometry
from .checkpoint import round_trip_f32
from .model import INIT_SCALE, KGEModel, NumericError, sigmoid, softplus

METRIC_LOG_COLUMNS = ("epoch", "split", "loss", *evaluation.METRIC_COLUMNS, "clamp_events")


@dataclass
class TrainConfig:
    epochs: int = 500
    batch_size: int = 500
    neg_samples: int = 50
    lr: float = 0.05
    optimizer: str = "adagrad"
    seed: int = 0
    grad_clip: float | None = None
    eval_every: int = 10
    patience: int = 10  # non-improving validation rounds before stopping
    init_scale: float = INIT_SCALE  # read by the caller's KGEModel.init, not by train

    def validate(self):
        for key in ("lr", "grad_clip", "init_scale"):  # NaN slips past every range check below
            value = getattr(self, key)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{key} must be finite, got {value}")
        for key, low in (("epochs", 0), ("batch_size", 1), ("neg_samples", 1),
                         ("eval_every", 1), ("patience", 1), ("init_scale", 0)):
            if getattr(self, key) < low:
                raise ValueError(f"{key} must be >= {low}")
        if self.lr <= 0:
            raise ValueError("lr must be > 0")
        f32_max = float(np.finfo(np.float32).max)
        for key in ("lr", "init_scale"):  # both multiply float32 parameters or draws
            if getattr(self, key) > f32_max:
                raise ValueError(f"{key} must be at most float32's largest value {f32_max:.6g}, "
                                 f"got {getattr(self, key)}")
        if self.grad_clip is not None and self.grad_clip <= 0:
            raise ValueError("grad_clip must be > 0")
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        return self


def sample_negatives(rng, n_entities, n):
    """Uniform tail draws over [0, n_entities), replacement on; n is a count or a shape.

    Accidental hits on a true tail are kept deliberately: the loss
    samples uniformly with no filter clause, and filtering happens only
    at evaluation time.
    """
    return rng.integers(0, n_entities, size=n)


def _assemble_tails(positives, negatives, dtype):
    """The (B, 1 + n_neg) tail ids and their labels y, as ``dtype``."""
    t_true = positives[:, 2:3]
    if negatives is None:
        return t_true, -np.ones(t_true.shape, dtype=dtype)
    tails = np.concatenate([t_true, negatives], axis=1)
    y = np.ones(tails.shape, dtype=dtype)
    y[:, 0] = -1.0
    return tails, y


def _check_finite_scores(scores, positives, tails):
    bad = ~np.isfinite(scores)
    if np.any(bad):
        b, m = map(int, np.argwhere(bad)[0])
        h, r = int(positives[b, 0]), int(positives[b, 1])
        raise NumericError(
            f"non-finite score for triple (h={h}, r={r}, t={int(tails[b, m])})"
        )


def loss(model, positives, negatives=None):
    """Mean of log(1 + exp(y*s)) over all (1 + n_neg) * B terms.

    y = -1 for the true triple, +1 for each corrupted tail.
    """
    positives = np.asarray(positives)
    tails, y = _assemble_tails(positives, negatives, model.dtype)
    scores = model._forward(positives[:, 0], positives[:, 1], tails)
    _check_finite_scores(scores, positives, tails)
    return float(np.mean(softplus(y * scores)))


def loss_and_grads(model, positives, negatives=None):
    positives = np.asarray(positives)
    tails, y = _assemble_tails(positives, negatives, model.dtype)
    scores, cache = model._forward(
        positives[:, 0], positives[:, 1], tails, need_cache=True
    )
    _check_finite_scores(scores, positives, tails)
    value = float(np.mean(softplus(y * scores)))
    sbar = y * sigmoid(y * scores) / scores.size
    grads = model.backward(cache, sbar)
    for name, (_, g) in grads.items():
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient in parameter group {name}")
    return value, grads


def clip_grads(grads, max_norm):
    """Scale all gradient arrays jointly so the global L2 norm <= max_norm."""
    total = 0.0
    for _, g in grads.values():
        total += float(np.sum(np.asarray(g) ** 2))
    norm = np.sqrt(total)
    if norm > max_norm:
        factor = max_norm / norm
        for _, g in grads.values():
            np.multiply(g, factor, out=g)
    return grads


BLOCK = 1024  # rows an optimizer gathers, updates and scatters at a time


def _row_blocks(grads, params, *states):
    """Yield (g, param, *state) row blocks of each group, scattered back after.

    Each block is gathered once (a view for a whole group, whose rows are
    ``...``); the optimizer updates it in place, then it is written back
    once.  Rows are unique, so no update is lost in the scatter.
    """
    for name, (rows, g) in grads.items():
        tables = [params[name], *(state[name] for state in states)]
        blocks = ([(rows, g)] if rows is ... else
                  [(rows[s:s + BLOCK], g[s:s + BLOCK]) for s in range(0, len(rows), BLOCK)])
        for r, gb in blocks:
            # np.take gathers rows faster than t[r]; t[...] is a view
            block = [t[r] if r is ... else t.take(r, axis=0) for t in tables]
            yield gb, *block
            for t, b in zip(tables, block):
                t[r] = b


class Adagrad:
    """Classic Adagrad with sparse row updates on embedding tables."""

    eps = 1e-10

    def __init__(self, model, lr):
        self.lr = lr
        self.accum = {k: np.zeros_like(v) for k, v in model.params.items()}

    def step(self, model, grads):
        # param -= lr*g / (sqrt(acc + g*g) + eps), in that operation order
        for g, param, acc in _row_blocks(grads, model.params, self.accum):
            acc += g * g
            den = np.sqrt(acc)
            den += self.eps
            u = g * self.lr
            u /= den
            param -= u


class Adam:
    """Adam with lazy (touched-rows-only) moment updates.

    Bias correction uses the global step count, as in the usual lazy
    variants; rows untouched by a batch keep their stale moments.
    """

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, model, lr):
        self.lr = lr
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in model.params.items()}
        self.v = {k: np.zeros_like(v) for k, v in model.params.items()}

    def step(self, model, grads):
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for g, param, m, v in _row_blocks(grads, model.params, self.m, self.v):
            m[...] = self.beta1 * m + (1 - self.beta1) * g
            v[...] = self.beta2 * v + (1 - self.beta2) * g * g
            param -= self.lr * ((m / bc1) / (np.sqrt(v / bc2) + self.eps))


OPTIMIZERS = {"adagrad": Adagrad, "adam": Adam}


@dataclass
class TrainResult:
    model: KGEModel
    history: list = field(default_factory=list)
    best_epoch: int | None = None
    best_mrr: float | None = None
    diverged: bool = False
    error: str | None = None  # what ended a diverged run: it names the query or group
    stopped_early: bool = False
    last_epoch: int = 0  # the epoch the run ended in


def train(model, store, config, on_row=None):
    """Mini-batch training with periodic filtered validation.

    `store` is an augmented TripleStore; validation, which runs when it
    has a valid split, filters by every split's triples.  Returns the
    model with the best validation MRR (float32-rounded, i.e. exactly
    what a checkpoint holds), or the final parameters untouched if
    validation never ran.  A non-finite number or a degenerate Mobius
    denominator in training or validation ends the run as diverged, and
    it returns the same way, with the error's message in `error`.  Each
    history row, a dict of the METRIC_LOG_COLUMNS, is passed to `on_row`
    as soon as it is made.
    """
    config.validate()
    filters = data.build_filter_index(store) if len(store.valid) else None

    ss = np.random.SeedSequence(config.seed)
    shuffle_rng, neg_rng = (np.random.default_rng(s) for s in ss.spawn(2))

    triples = np.asarray(store.train)
    n_train = len(triples)
    if n_train == 0:
        raise ValueError("empty training split")

    optimizer = OPTIMIZERS[config.optimizer](model, config.lr)
    result = TrainResult(model=model)
    bad_rounds = 0

    def record(epoch, split, **cells):
        """Log one row: every METRIC_LOG_COLUMNS column, None where unset."""
        row = {**dict.fromkeys(METRIC_LOG_COLUMNS), "epoch": epoch, "split": split, **cells}
        result.history.append(row)
        if on_row is not None:
            on_row(row)

    try:
        for epoch in range(1, config.epochs + 1):
            result.last_epoch = epoch
            geometry.reset_clamp_events()
            perm = shuffle_rng.permutation(n_train)
            term_sum = 0.0
            for start in range(0, n_train, config.batch_size):
                batch = triples[perm[start:start + config.batch_size]]
                negatives = sample_negatives(
                    neg_rng, model.n_entities, (len(batch), config.neg_samples))
                value, grads = loss_and_grads(model, batch, negatives)
                if config.grad_clip is not None:
                    clip_grads(grads, config.grad_clip)
                optimizer.step(model, grads)
                term_sum += value * (len(batch) * (1 + config.neg_samples))
            record(epoch, "train", loss=term_sum / (n_train * (1 + config.neg_samples)),
                   clamp_events=geometry.clamp_events())

            if len(store.valid) and (epoch % config.eval_every == 0 or epoch == config.epochs):
                geometry.reset_clamp_events()
                snapshot = round_trip_f32(model)
                # a NumericError here means f32 overflow: the checkpoint would be unusable
                report = evaluation.evaluate_split(snapshot, store.valid, filters,
                                                   seed=config.seed)
                record(epoch, "valid", mrr=report.mrr,
                       **{f"h{k}": v for k, v in report.hits.items()},
                       clamp_events=geometry.clamp_events())
                if result.best_mrr is None or report.mrr > result.best_mrr:
                    result.best_mrr = report.mrr
                    result.best_epoch = epoch
                    result.model = snapshot
                    bad_rounds = 0
                else:
                    bad_rounds += 1
                    if bad_rounds >= config.patience:
                        result.stopped_early = True
                        break
    except (NumericError, geometry.DenominatorError) as exc:
        result.diverged = True
        result.error = str(exc)
    return result
