"""Toy-size smoke test of the benchmark harness.

Runs every workload end to end, untraced and traced, at toy sizes and
asserts only that the checks pass and the metric names match
BENCHMARK.json; no timing is asserted.  Run from the repository root:

    python -m pytest bench
"""

import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import run  # noqa: E402
import workloads  # noqa: E402


def _spec_names(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
    return {m["name"] for m in spec[kind]}


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_and_passes_checks(name, trace):
    workload = workloads.WORKLOADS[name](workloads.SMOKE)
    result = run.measure(workload, seed=3, seconds=0.05, trace=trace)
    assert result["correct"], result["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == _spec_names("per_layer" if trace else "end_to_end")
    assert all(v == v for v, _ in result["metrics"].values())  # no NaN


class _Drifting(workloads.TrainWN18RRShape):
    """Moves the starting point between calls, so outputs stop repeating."""

    def op(self, state):
        state["model"].params["ent_emb"][0] += 1e-3
        return super().op(state)


def test_nondeterministic_output_is_reported_as_failure():
    result = run.measure(_Drifting(workloads.SMOKE), seed=0, seconds=0.2, trace=False)
    assert not result["correct"]
    assert result["failed"] >= 1 and result["attempted"] > result["failed"]
    assert result["metrics"] == {}


def test_unknown_workload_exits_nonzero(capsys):
    assert run.main(["--workload", "no-such", "--seed", "0", "--seconds", "1"]) == 2
    assert capsys.readouterr().out.count("\n") == 0
