"""The three benchmark workloads: set-up, one closed-loop operation, checks.

Each workload is one caller in a closed loop: the next operation starts
when the previous one returns.  Every operation of a run repeats the
same call on the same inputs, so outputs must repeat exactly (the
determinism checks) and per-operation counts are exact.

All library calls go through module attributes (`data.load_dataset`,
`training.train`, ...) so that the traced run can wrap them from
outside without editing the library.
"""

import dataclasses
import hashlib
import math
import os

import numpy as np

from hkge import checkpoint, data, evaluation, geometry, hierarchy, training
from hkge.model import CURV_FLOOR, PARAM_ORDER, KGEModel, ModelConfig

import synth


@dataclasses.dataclass(frozen=True)
class Sizes:
    """Input sizes of every workload; FULL is what the benchmark runs."""

    kg: synth.KGShape = synth.WN18RR_SHAPE
    dim: int = 32
    batch_size: int = 500
    neg_samples: int = 50
    train_slice: int = 5000      # augmented triples per train() call
    eval_block: int = 32         # augmented test queries per evaluate_split()
    bitwise_queries: int = 8     # queries checked score-by-score against the oracle
    tree_depth: int = 15         # 2^15 - 1 = 32,767 nodes
    xi_samples: tuple = (("parent_of", 300), ("linked_to", 100))


FULL = Sizes()
SMOKE = Sizes(
    kg=synth.KGShape(entities=400, relations=4, train=1200, valid=60, test=60),
    dim=8, batch_size=50, neg_samples=8, train_slice=200, eval_block=6,
    bitwise_queries=2, tree_depth=7, xi_samples=(("parent_of", 10), ("linked_to", 5)),
)


def param_digest(model):
    h = hashlib.sha256()
    for name in PARAM_ORDER:
        if name in model.params:
            h.update(np.ascontiguousarray(model.params[name], dtype=np.float64).tobytes())
    return h.hexdigest()


def _load_augmented(path):
    store = data.load_dataset(path)
    astore = data.augment_reciprocal(store)
    return astore, data.build_filter_index(astore)


class Workload:
    name = ""
    work_unit = ""
    rate_name = ""  # what work_per_s is called on this workload
    key_spans = ()  # spans that should cover the traced wall time

    def __init__(self, sizes=FULL):
        self.sizes = sizes

    def setup(self, workdir, seed):
        raise NotImplementedError

    def op(self, state):
        """Run one operation; returns (work units done, its output)."""
        raise NotImplementedError

    def summarize(self, output):
        """The small part of an output that the checks need (taken untimed)."""
        return output

    def check(self, state, summaries):
        """Returns (checks attempted, list of failure messages)."""
        raise NotImplementedError

    def report(self, state, summaries, op_seconds):
        """The workload's own end-to-end figures, by their issue names."""
        return {}

    def clamp_events(self, summaries, counter):
        """Boundary-clamp events of the first operation.

        `counter` is `geometry.clamp_events()` read right after it; `train`
        resets that counter every epoch, so training workloads sum the
        per-epoch counts from the history instead.
        """
        return counter

    def xi_samples(self, summaries):
        """(accepted, attempted) xi samples of the first operation."""
        return 0, 0


def _train_summary(result):
    losses = [row["loss"] for row in result.history if row["split"] == "train"]
    return {
        "finite": not result.diverged and bool(losses) and all(map(math.isfinite, losses)),
        "loss_end": losses[-1] if losses else float("nan"),
        "digest": param_digest(result.model),
        "clamps": sum(row["clamp_events"] for row in result.history),
    }


class TrainWN18RRShape(Workload):
    name = "train-wn18rr-shape"
    work_unit = "augmented train triples"
    rate_name = "train_triples_per_s"
    key_spans = ("model.forward_train", "model.backward", "training.optimizer_step")

    def setup(self, workdir, seed):
        s = self.sizes
        path = os.path.join(workdir, "synthetic-wn-shape")
        synth.make_wn18rr_shaped(path, seed, s.kg)
        astore, _ = _load_augmented(path)
        model = KGEModel.init(ModelConfig(dim=s.dim), astore.n_entities,
                              astore.n_relations, seed=seed)
        rng = np.random.default_rng([seed, 1])
        rows = rng.permutation(len(astore.train))[: s.train_slice]
        empty = astore.valid[:0]
        sliced = dataclasses.replace(astore, train=astore.train[rows], valid=empty, test=empty)
        config = training.TrainConfig(
            epochs=1, batch_size=s.batch_size, neg_samples=s.neg_samples,
            optimizer="adagrad", seed=seed,
        )
        return {"model": model, "store": sliced, "config": config}

    def op(self, state):
        result = training.train(state["model"].copy(), state["store"], state["config"])
        return len(state["store"].train), result

    def summarize(self, output):
        return _train_summary(output)

    def check(self, state, summaries):
        failures = []
        for i, summary in enumerate(summaries):
            if not summary["finite"]:
                failures.append(f"call {i}: non-finite loss")
            elif summary["digest"] != summaries[0]["digest"]:
                failures.append(f"call {i}: parameter digest differs from call 0")
        return len(summaries), failures

    def report(self, state, summaries, op_seconds):
        return {
            "train_loss_end": (summaries[0]["loss_end"], "loss"),
            "param_digest": (summaries[0]["digest"], "sha256"),
        }

    def clamp_events(self, summaries, counter):
        return summaries[0]["clamps"]


def _spread_model(config, n_entities, n_relations, seed):
    """A model whose points spread over the ball, as a trained model's do."""
    model = KGEModel.init(config, n_entities, n_relations, seed=seed)
    rng = np.random.default_rng([seed, 2])
    d = config.dim
    p = model.params
    p["ent_emb"] = rng.normal(0.0, 0.12, (n_entities, d))
    p["ent_bias"] = rng.normal(0.0, 0.1, n_entities)
    p["rel_emb"] = rng.normal(0.0, 0.12, (n_relations, d))
    p["rel_scale"] = rng.lognormal(0.0, 0.3, (n_relations, d // 2))
    p["rel_theta"] = rng.uniform(-np.pi, np.pi, (n_relations, d // 2))
    p["rel_trans"] = rng.normal(0.0, 0.1, (n_relations, d))
    p["attn_a"] = rng.normal(0.0, 1.0, d)
    p["attn_p"] = rng.normal(0.0, 1.0, d)
    return model


def _sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def oracle_scores(model, h, r):
    """score(h, r, j) for every j, from the geometry.py reference kernels.

    Independent of `KGEModel._forward`; written for the configuration
    the eval workload uses (hyperbolic, attention curvature, both head
    transforms on).
    """
    p = model.params
    he, re = p["ent_emb"][h], p["rel_emb"][r]
    alpha = _sigmoid(np.dot(he - re, p["attn_a"]))
    q = np.dot(p["attn_p"], alpha * he + (1.0 - alpha) * re)
    c = max(float(np.logaddexp(0.0, q)), CURV_FLOOR)
    head = geometry.block_rotate(
        geometry.exp0(geometry.block_scale(he, p["rel_scale"][r]), c), p["rel_theta"][r])
    lhs = geometry.mobius_add(head, geometry.exp0(p["rel_trans"][r], c), c)
    dist = geometry.hyp_distance(lhs, geometry.exp0(p["ent_emb"], c), c)
    return -dist * dist + p["ent_bias"][h] + p["ent_bias"]


def oracle_rank(scores, h, r, t, known, seed):
    """Filtered rank with the seeded random tie-break, written out plainly."""
    allowed = np.ones(len(scores), dtype=bool)
    allowed[known] = False
    allowed[t] = True
    s_true = scores[t]
    rank = 1 + int(np.sum(scores[allowed] > s_true))
    ties = int(np.sum(scores[allowed] == s_true)) - 1
    if ties:
        rng = np.random.default_rng(np.random.SeedSequence([seed, h, r, t]))
        rank += int(rng.integers(0, ties + 1))
    return rank


class EvalWN18RRShape(Workload):
    name = "eval-wn18rr-shape"
    work_unit = "filtered queries"
    rate_name = "eval_queries_per_s"
    key_spans = ("model.score_against_all", "evaluation.rank_filtered")

    def setup(self, workdir, seed):
        s = self.sizes
        path = os.path.join(workdir, "synthetic-wn-shape")
        synth.make_wn18rr_shaped(path, seed, s.kg)
        astore, filters = _load_augmented(path)
        model = _spread_model(ModelConfig(dim=s.dim), astore.n_entities,
                              astore.n_relations, seed)
        ckpt = os.path.join(workdir, "checkpoint.bin")
        checkpoint.save(model, ckpt)
        model = checkpoint.load(ckpt)
        rng = np.random.default_rng([seed, 3])
        block = astore.test[rng.permutation(len(astore.test))[: s.eval_block]]
        return {"model": model, "block": block, "filters": filters, "seed": seed,
                "checkpoint_bytes": os.path.getsize(ckpt)}

    def op(self, state):
        report = evaluation.evaluate_split(
            state["model"], state["block"], state["filters"], seed=state["seed"])
        return len(state["block"]), report

    def check(self, state, summaries):
        model, block, filters, seed = (state[k] for k in ("model", "block", "filters", "seed"))
        failures = []
        ranks = evaluation.compute_ranks(model, block, filters, seed=seed)
        oracle = []
        for i, (h, r, t) in enumerate(block.tolist()):
            expected = oracle_scores(model, h, r)
            known = filters.get((h, r), np.empty(0, dtype=np.int64))
            oracle.append(oracle_rank(expected, h, r, t, known, seed))
            if i >= self.sizes.bitwise_queries:
                continue
            scores = model.score_against_all(h, r)
            worst = float(np.max(np.abs(scores - expected)))
            if worst > 1e-9:
                failures.append(f"query {i}: score differs from the oracle by {worst:.3g}")
            tails = [t] + np.random.default_rng([seed, 4, i]).integers(
                0, model.n_entities, 15).tolist()
            if any(model.score(h, r, j) != scores[j] for j in tails):
                failures.append(f"query {i}: score() and score_against_all() differ bitwise")
        bad = np.flatnonzero(ranks != np.asarray(oracle))
        failures += [f"query {i}: rank {ranks[i]} != oracle rank {oracle[i]}" for i in bad]
        want = evaluation.aggregate(oracle)
        for i, report in enumerate(summaries):
            if (report.mrr, report.hits) != (want.mrr, want.hits):
                failures.append(f"call {i}: metrics differ from the oracle's")
        n_checks = len(block) + min(len(block), self.sizes.bitwise_queries) * 2 + len(summaries)
        return n_checks, failures

    def report(self, state, summaries, op_seconds):
        return {
            "block_mrr": (summaries[0].mrr, "mrr"),
        }


class AnalyzeTree32k(Workload):
    name = "analyze-tree32k"
    work_unit = "accepted xi samples"
    rate_name = "xi_samples_per_s"
    key_spans = ("hierarchy.bfs", "hierarchy.midpoint")

    def setup(self, workdir, seed):
        path = os.path.join(workdir, "synthetic-tree")
        expected_khs = synth.make_tree_with_cycles(path, seed, self.sizes.tree_depth)
        return {"store": data.load_dataset(path), "seed": seed, "expected_khs": expected_khs}

    def op(self, state):
        rows = [hierarchy.analyze_relation(state["store"], rel, n_samples=n, seed=state["seed"])
                for rel, n in self.sizes.xi_samples]
        return sum(row["samples_accepted"] for row in rows), rows

    def check(self, state, summaries):
        failures = []
        for i, rows in enumerate(summaries):
            if rows != summaries[0]:
                failures.append(f"call {i}: result differs from call 0")
        for row in summaries[0]:
            rel = row["relation"]
            if row["khs"] != state["expected_khs"][rel]:
                failures.append(f"{rel}: khs {row['khs']} != {state['expected_khs'][rel]}")
        tree = summaries[0][0]
        if not tree["xi_mean"] < 0:
            failures.append(f"parent_of: xi {tree['xi_mean']} is not negative")
        return len(summaries) + len(summaries[0]) + 1, failures

    def xi_samples(self, summaries):
        rows = summaries[0]
        accepted = sum(row["samples_accepted"] for row in rows)
        return accepted, accepted + sum(row["samples_rejected"] for row in rows)

    def report(self, state, summaries, op_seconds):
        return {f"xi_mean.{row['relation']}": (row["xi_mean"], "xi") for row in summaries[0]}


WORKLOADS = {w.name: w for w in (TrainWN18RRShape, EvalWN18RRShape, AnalyzeTree32k)}
