"""Negative sampling, the ranking loss, optimizers, and the epoch loop.

Gradients come from ``KGEModel.backward`` (hand-accumulated reverse
mode); this module only adds the loss head on top and owns the
parameter-update bookkeeping.  Everything is float64 and deterministic
for a given seed in single-threaded mode.
"""

from dataclasses import dataclass, field

import numpy as np

from . import geometry
from .model import KGEModel, sigmoid, softplus

METRIC_LOG_HEADER = "epoch,split,loss,mrr,h1,h3,h10,clamp_events"


class NumericError(RuntimeError):
    """Raised when the pipeline produces a non-finite number."""


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

    def validate(self):
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.neg_samples < 1:
            raise ValueError("neg_samples must be >= 1")
        if self.lr <= 0:
            raise ValueError("lr must be > 0")
        if self.optimizer not in ("adagrad", "adam"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.eval_every < 1:
            raise ValueError("eval_every must be >= 1")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        return self


def sample_negatives(rng, n_entities, n):
    """Uniform tail draws over [0, n_entities), replacement on; n is a count or a shape.

    Accidental hits on a true tail are kept deliberately: the loss
    samples uniformly with no filter clause, and filtering happens only
    at evaluation time.
    """
    return rng.integers(0, n_entities, size=n)


def _assemble_tails(positives, negatives):
    t_true = positives[:, 2:3]
    if negatives is None:
        return t_true, -np.ones_like(t_true, dtype=np.float64)
    tails = np.concatenate([t_true, negatives], axis=1)
    y = np.ones(tails.shape, dtype=np.float64)
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
    tails, y = _assemble_tails(positives, negatives)
    scores = model._forward(positives[:, 0], positives[:, 1], tails)
    _check_finite_scores(scores, positives, tails)
    return float(np.mean(softplus(y * scores)))


def loss_and_grads(model, positives, negatives=None):
    positives = np.asarray(positives)
    tails, y = _assemble_tails(positives, negatives)
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


class Adagrad:
    """Classic Adagrad with sparse row updates on embedding tables."""

    def __init__(self, model, lr, eps=1e-10):
        self.lr = lr
        self.eps = eps
        self.accum = {k: np.zeros_like(v) for k, v in model.params.items()}

    def step(self, model, grads):
        for name, (rows, g) in grads.items():
            param = model.params[name]
            acc = self.accum[name]
            acc[rows] += g * g
            param[rows] -= self.lr * g / (np.sqrt(acc[rows]) + self.eps)


class Adam:
    """Adam with lazy (touched-rows-only) moment updates.

    Bias correction uses the global step count, as in the usual lazy
    variants; rows untouched by a batch keep their stale moments.
    """

    def __init__(self, model, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in model.params.items()}
        self.v = {k: np.zeros_like(v) for k, v in model.params.items()}

    def step(self, model, grads):
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for name, (rows, g) in grads.items():
            param = model.params[name]
            m, v = self.m[name], self.v[name]
            m[rows] = self.beta1 * m[rows] + (1 - self.beta1) * g
            v[rows] = self.beta2 * v[rows] + (1 - self.beta2) * g * g
            update = (m[rows] / bc1) / (np.sqrt(v[rows] / bc2) + self.eps)
            param[rows] -= self.lr * update


def make_optimizer(model, config):
    if config.optimizer == "adagrad":
        return Adagrad(model, config.lr)
    return Adam(model, config.lr)


def round_trip_f32(model):
    """The model as a checkpoint would store it (float32 precision).

    Validation metrics are always computed on this view so the logged
    numbers describe exactly the model that gets saved.
    """
    params = {k: v.astype(np.float32).astype(np.float64) for k, v in model.params.items()}
    return KGEModel(model.config, model.n_entities, model.n_relations, params)


@dataclass
class TrainResult:
    model: KGEModel
    history: list = field(default_factory=list)
    best_epoch: int | None = None
    best_mrr: float | None = None
    diverged: bool = False
    stopped_early: bool = False
    last_epoch: int = 0  # the epoch the run ended in


def train(model, store, config, filters=None, log=None):
    """Mini-batch training with periodic filtered validation.

    `store` is an augmented TripleStore; `filters` a FilterIndex (built
    from the store when omitted).  Returns the model with the best
    validation MRR (float32-rounded, i.e. exactly what a checkpoint
    holds), or the final parameters untouched if validation never ran.
    A non-finite number in training or validation ends the run as
    diverged, and it returns the same way.
    """
    from . import data as data_mod
    from .evaluation import evaluate_split

    config.validate()
    if filters is None and len(store.valid):
        filters = data_mod.build_filter_index(store)

    ss = np.random.SeedSequence(config.seed)
    shuffle_rng, neg_rng = (np.random.default_rng(s) for s in ss.spawn(2))

    triples = np.asarray(store.train)
    n_train = len(triples)
    if n_train == 0:
        raise ValueError("empty training split")

    optimizer = make_optimizer(model, config)
    result = TrainResult(model=model)
    best_params = None
    bad_rounds = 0

    for epoch in range(1, config.epochs + 1):
        result.last_epoch = epoch
        geometry.reset_clamp_events()
        perm = shuffle_rng.permutation(n_train)
        term_sum = 0.0
        term_count = 0
        for start in range(0, n_train, config.batch_size):
            batch = triples[perm[start:start + config.batch_size]]
            negatives = sample_negatives(
                neg_rng, model.n_entities, (len(batch), config.neg_samples))
            try:
                value, grads = loss_and_grads(model, batch, negatives)
            except NumericError:
                result.diverged = True
                break
            if config.grad_clip is not None:
                clip_grads(grads, config.grad_clip)
            optimizer.step(model, grads)
            n_terms = batch.shape[0] * (1 + config.neg_samples)
            term_sum += value * n_terms
            term_count += n_terms
        if result.diverged:
            break
        train_clamps = geometry.clamp_events()
        result.history.append({
            "epoch": epoch, "split": "train",
            "loss": term_sum / term_count,
            "mrr": None, "h1": None, "h3": None, "h10": None,
            "clamp_events": train_clamps,
        })

        run_eval = (
            len(store.valid) > 0
            and (epoch % config.eval_every == 0 or epoch == config.epochs)
        )
        if run_eval:
            geometry.reset_clamp_events()
            snapshot = round_trip_f32(model)
            try:
                report = evaluate_split(snapshot, store.valid, filters, seed=config.seed)
            except NumericError:
                # finite in f64 but overflowing the f32 snapshot: the
                # checkpoint this run would produce is unusable
                result.diverged = True
                break
            result.history.append({
                "epoch": epoch, "split": "valid",
                "loss": None, "mrr": report.mrr,
                "h1": report.hits[1], "h3": report.hits[3], "h10": report.hits[10],
                "clamp_events": geometry.clamp_events(),
            })
            if result.best_mrr is None or report.mrr > result.best_mrr:
                result.best_mrr = report.mrr
                result.best_epoch = epoch
                best_params = snapshot.params
                bad_rounds = 0
            else:
                bad_rounds += 1
                if bad_rounds >= config.patience:
                    result.stopped_early = True
                    break

    if best_params is not None:
        result.model = KGEModel(
            model.config, model.n_entities, model.n_relations, best_params
        )
    else:
        result.model = model
    if log is not None:
        log.write_rows(result.history)
    return result


class MetricLog:
    """CSV metric log: epoch,split,loss,mrr,h1,h3,h10,clamp_events."""

    def __init__(self, path):
        self.path = path

    def write_rows(self, rows):
        def fmt(x):
            if x is None:
                return ""
            if isinstance(x, float):
                return f"{x:.6f}"
            return str(x)

        with open(self.path, "w", encoding="utf-8") as fh:
            fh.write(METRIC_LOG_HEADER + "\n")
            for row in rows:
                fh.write(",".join(fmt(row[k]) for k in (
                    "epoch", "split", "loss", "mrr", "h1", "h3", "h10", "clamp_events"
                )) + "\n")
