#!/usr/bin/env python3
"""Run one hkge benchmark workload and print its metrics.

    python3 bench/run.py --workload train-wn18rr-shape --seed 0 --seconds 10 --trace 0

Run from the repository root; the library is imported from `src/`.
Inputs are generated from `--seed` under `.bench_work/`.  The run sets
up the workload several times (the median is `setup_s`), runs one
untimed warm-up operation, then repeats the operation in a closed loop
for `--seconds`, then checks every output.

The last stdout line is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics of BENCHMARK.json with
`--trace 0`, the per-layer metrics with `--trace 1`.  Earlier lines
record the environment and the workload's own figures.  The exit code
is 0 only when every check passed.
"""

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
WORK_DIR = os.path.join(ROOT, ".bench_work")

# set-up is repeated at least MIN_SETUPS times and until SETUP_BUDGET_S
# of set-up time has passed (at most MAX_SETUPS); setup_s is the median
MIN_SETUPS = 3
MAX_SETUPS = 100
SETUP_BUDGET_S = 3.0


def cap_threads():
    """Cap BLAS/OpenMP threads at the CPUs this process may use."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            current = int(os.environ.get(var, nproc))
        except ValueError:
            current = nproc
        os.environ[var] = str(max(1, min(current, nproc)))
    return nproc


def import_library():
    """Import hkge from this checkout's src/, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import hkge

    where = os.path.dirname(os.path.abspath(hkge.__file__))
    if where != os.path.join(src, "hkge"):
        raise ImportError(f"hkge imported from {where}, not from {src}")
    return hkge


def git_sha():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def src_digest():
    import hashlib

    h = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "hkge")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def environment(nproc):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_cap": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": nproc,
        "machine": platform.machine(),
        "git_sha": git_sha(),
        "src_digest": src_digest(),
    }


def _ms(table, name, per=None):
    row = table.get(name)
    if row is None:
        return 0.0
    calls = row["calls"] if per is None else table.get(per, {"calls": 0})["calls"]
    return 1e3 * row["total_s"] / calls if calls else 0.0


def _s(table, name):
    return _ms(table, name) / 1e3


def per_layer_metrics(workload, tracer, state, summaries, traced_s, untraced_s, clamps):
    from tracing import covered_seconds, layer_table

    n_traced = len(traced_s)
    table = layer_table(tracer.spans)
    calls = {name: row["calls"] for name, row in table.items()}
    accepted, attempts = workload.xi_samples(summaries)
    op_spans = [s for s in tracer.spans if s[0] == "bench.op"]
    op_wall = sum(e - s for _, s, e, _ in op_spans)
    report = workload.report(state, summaries, untraced_s)
    forward_calls = calls.get("model.forward_train", 0) + calls.get("model.forward_score", 0)
    metrics = {
        "model.forward_train_ms": (_ms(table, "model.forward_train"), "ms"),
        "model.backward_ms": (_ms(table, "model.backward"), "ms"),
        "model.mobius_backward_ms": (_ms(table, "model.mobius_backward", per="model.backward"), "ms"),
        "model.gather_ms": (_ms(table, "model.gather", per="model.backward"), "ms"),
        "model.score_against_all_ms": (_ms(table, "model.score_against_all"), "ms"),
        "model.forward_calls": (forward_calls / n_traced, "count"),
        "training.loss_and_grads_ms": (_ms(table, "training.loss_and_grads"), "ms"),
        "training.optimizer_step_ms": (_ms(table, "training.optimizer_step"), "ms"),
        "training.train_loss_end": (report.get("train_loss_end", (0.0,))[0], "loss"),
        "evaluation.rank_filtered_ms": (_ms(table, "evaluation.rank_filtered"), "ms"),
        "evaluation.compute_ranks_ms_per_query": (
            _ms(table, "evaluation.compute_ranks", per="evaluation.rank_filtered"), "ms"),
        "hierarchy.bfs_ms": (_ms(table, "hierarchy.bfs"), "ms"),
        "hierarchy.bfs_calls_per_sample": (
            calls.get("hierarchy.bfs", 0) / (accepted * n_traced) if accepted else 0.0, "count"),
        "hierarchy.midpoint_ms": (_ms(table, "hierarchy.midpoint"), "ms"),
        "hierarchy.xi_accept_ratio": (accepted / attempts if attempts else 0.0, "ratio"),
        "hierarchy.relation_subgraph_ms": (_ms(table, "hierarchy.relation_subgraph"), "ms"),
        "hierarchy.khs_ms": (_ms(table, "hierarchy.khs"), "ms"),
        "data.load_dataset_s": (_s(table, "data.load_dataset"), "s"),
        "data.augment_reciprocal_s": (_s(table, "data.augment_reciprocal"), "s"),
        "data.build_filter_index_s": (_s(table, "data.build_filter_index"), "s"),
        "checkpoint.save_ms": (_ms(table, "checkpoint.save"), "ms"),
        "checkpoint.load_ms": (_ms(table, "checkpoint.load"), "ms"),
        "checkpoint.bytes": (state.get("checkpoint_bytes", 0), "bytes"),
        "geometry.clamp_events": (clamps, "count"),
        "trace.overhead_pct": (
            100.0 * (statistics.median(traced_s) / statistics.median(untraced_s) - 1.0), "%"),
        "trace.key_span_coverage": (
            covered_seconds(tracer.spans, workload.key_spans) / op_wall, "ratio"),
    }
    self_ms = {name: 1e3 * row["self_s"] / n_traced
               for name, row in sorted(layer_table(tracer.spans, under="bench.op").items())}
    return metrics, self_ms


def measure(workload, seed, seconds, trace):
    """Set up, run the closed loop, check.  Returns the result fields."""
    from hkge import geometry
    from tracing import Tracer

    tracer = Tracer() if trace else None
    os.makedirs(WORK_DIR, exist_ok=True)
    setup_s, state = [], None
    while (len(setup_s) < MIN_SETUPS
           or (sum(setup_s) < SETUP_BUDGET_S and len(setup_s) < MAX_SETUPS)):
        state = None  # free the previous set-up first
        rep_dir = tempfile.mkdtemp(dir=WORK_DIR)
        try:
            with tracer.installed() if trace else contextlib.nullcontext():
                with tracer.span("bench.setup") if trace else contextlib.nullcontext():
                    t0 = time.perf_counter()
                    state = workload.setup(rep_dir, seed)
                    setup_s.append(time.perf_counter() - t0)
        finally:
            shutil.rmtree(rep_dir, ignore_errors=True)

    summaries, op_s, traced_s = [], [], []
    failures = []
    units = 0
    geometry.reset_clamp_events()
    clamps = None

    def run_op(times, traced):
        nonlocal units, clamps
        with tracer.installed() if traced else contextlib.nullcontext():
            with tracer.span("bench.op") if traced else contextlib.nullcontext():
                t0 = time.perf_counter()
                units, out = workload.op(state)
                times.append(time.perf_counter() - t0)
        summaries.append(workload.summarize(out))
        if clamps is None:
            clamps = workload.clamp_events(summaries, geometry.clamp_events())

    # one untimed operation first, so that caches fill and lazy set-up
    # finishes; then traced and untraced operations alternate, so that
    # drift in the machine's speed does not show up as tracing overhead
    try:
        run_op([], traced=False)
        start = time.perf_counter()
        while not op_s or time.perf_counter() - start < seconds:
            run_op(op_s, traced=False)
            if trace:
                run_op(traced_s, traced=True)
    except Exception:
        traceback.print_exc()
        failures.append("operation raised")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    n_checks = 0
    if summaries and not failures:
        n_checks, failures = workload.check(state, summaries)
    attempted = max(n_checks, len(summaries), 1)

    figures, metrics = {}, {}
    if not failures:
        metrics = {
            "setup_s": (statistics.median(setup_s), "s"),
            "work_per_s": (units / statistics.median(op_s), "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        figures = {**metrics, workload.rate_name: metrics["work_per_s"],
                   **workload.report(state, summaries, op_s)}
    if trace and not failures:
        metrics, self_ms = per_layer_metrics(workload, tracer, state, summaries,
                                             traced_s, op_s, clamps)
        figures["self_ms_per_op"] = (self_ms, "ms")
        write_trace(workload.name, seed, tracer.spans)
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "ops": len(summaries),
        "op_s": op_s,
        "traced_op_s": traced_s,
        "setup_s": setup_s,
        "figures": figures,
        "metrics": metrics,
    }


def write_trace(name, seed, spans):
    out_dir = os.path.join(WORK_DIR, "traces")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"{name}-seed{seed}.json"), "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start", "end", "parent"], "spans": spans}, fh)


def _metric_json(metrics):
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    nproc = cap_threads()
    try:
        import_library()
    except ImportError as exc:
        print(f"error: cannot import the hkge library from this checkout: {exc}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]()
    print(json.dumps({"env": environment(nproc)}))
    result = measure(workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "work_unit": workload.work_unit, "ops": result["ops"], "op_s": result["op_s"],
        "traced_op_s": result["traced_op_s"], "setup_s": result["setup_s"],
        "failures": result["failures"], "figures": _metric_json(result["figures"]),
    }))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed")}
                     | {"metrics": _metric_json(result["metrics"])}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
