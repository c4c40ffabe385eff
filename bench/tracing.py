"""Spans around the library's calls, installed from outside the library.

`Tracer.installed()` replaces the listed module functions and methods
with wrappers that record a span (name, start, end, parent) per call,
and restores the originals on exit.  Spans stay in memory until the run
writes them out.  Only `KGEModel._mobius_backward` and
`KGEModel._gather`, sub-steps of backward with no public entry point,
and `KGEModel._forward` and `hierarchy._midpoint`, which the ROADMAP
times on their own, are private names; no library file is edited.
"""

import contextlib
import functools
import time

from hkge import checkpoint, data, evaluation, hierarchy, training
from hkge.model import KGEModel

# (owner, attribute, span name)
TARGETS = (
    (data, "load_dataset", "data.load_dataset"),
    (data, "augment_reciprocal", "data.augment_reciprocal"),
    (data, "build_filter_index", "data.build_filter_index"),
    (KGEModel, "backward", "model.backward"),
    (KGEModel, "_mobius_backward", "model.mobius_backward"),
    (KGEModel, "_gather", "model.gather"),
    (KGEModel, "score_against_all", "model.score_against_all"),
    (training, "train", "training.train"),
    (training, "loss_and_grads", "training.loss_and_grads"),
    (training.Adagrad, "step", "training.optimizer_step"),
    (training.Adam, "step", "training.optimizer_step"),
    (evaluation, "evaluate_split", "evaluation.evaluate_split"),
    (evaluation, "compute_ranks", "evaluation.compute_ranks"),
    (evaluation, "rank_filtered", "evaluation.rank_filtered"),
    (checkpoint, "save", "checkpoint.save"),
    (checkpoint, "load", "checkpoint.load"),
    (hierarchy, "analyze_relation", "hierarchy.analyze_relation"),
    (hierarchy, "relation_subgraph", "hierarchy.relation_subgraph"),
    (hierarchy, "khs", "hierarchy.khs"),
    (hierarchy, "xi_estimate", "hierarchy.xi_estimate"),
    (hierarchy, "bfs_distances", "hierarchy.bfs"),
    (hierarchy, "_midpoint", "hierarchy.midpoint"),
)


class Tracer:
    def __init__(self):
        self.spans = []   # [name, start, end, parent index or -1]
        self._stack = []

    @contextlib.contextmanager
    def span(self, name):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def _wrap_forward(self, fn):
        # training calls build the backward cache; scoring calls do not
        @functools.wraps(fn)
        def traced(model, h_ids, r_ids, t_ids, need_cache=False):
            name = "model.forward_train" if need_cache else "model.forward_score"
            with self.span(name):
                return fn(model, h_ids, r_ids, t_ids, need_cache=need_cache)
        return traced

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, name in TARGETS:
                raw = vars(owner).get(attr, getattr(owner, attr))
                fn = self._wrap(name, getattr(owner, attr))
                saved.append((owner, attr, raw))
                setattr(owner, attr, staticmethod(fn) if isinstance(raw, staticmethod) else fn)
            saved.append((KGEModel, "_forward", KGEModel._forward))
            KGEModel._forward = self._wrap_forward(KGEModel._forward)
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)


def layer_table(spans, under=None):
    """name -> {"calls", "total_s", "self_s"}.

    Self time is a span's duration minus its children's.  With `under`,
    only spans whose outermost ancestor has that name are counted.
    """
    child_time = [0.0] * len(spans)
    root = []
    for name, start, end, parent in spans:
        root.append(root[parent] if parent >= 0 else len(root))
        if parent >= 0:
            child_time[parent] += end - start
    table = {}
    for (name, start, end, _), children, r in zip(spans, child_time, root):
        if under is not None and spans[r][0] != under:
            continue
        row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += end - start - children
    return table


def covered_seconds(spans, names):
    """Wall time covered by the union of the spans named in `names`."""
    intervals = sorted((s, e) for n, s, e, _ in spans if n in names)
    total, cur_start, cur_end = 0.0, None, None
    for s, e in intervals:
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total
