"""Every committed benchmark record (a root-level ``BENCH_*.json``) has
the layout that makes its claim checkable: what was run and on what,
and per workload and metric each side's median with [q1, q3], which
must agree with the runs recorded beside them."""

import json
import pathlib

import numpy as np
import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
KEYS = ("topic", "claim", "command", "run_seconds", "order", "parent_sha", "change_sha",
        "src_digest", "environment", "stats", "workloads")
SIDES = ("parent", "change")


def test_there_is_a_record():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_layout(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    assert not set(KEYS) - set(record), sorted(set(KEYS) - set(record))
    assert set(record["src_digest"]) == set(SIDES)
    assert record["workloads"]
    for workload, entry in record["workloads"].items():
        assert entry["metrics"], workload
        for metric, stats in entry["metrics"].items():
            where = f"{workload} {metric}"
            for side in SIDES:
                s = stats[side]
                assert s["q1"] <= s["median"] <= s["q3"], (where, side)
                runs = stats.get("runs", {}).get(side)
                if runs:
                    want = np.percentile(runs, [25, 50, 75])
                    np.testing.assert_allclose([s["q1"], s["median"], s["q3"]], want,
                                               rtol=1e-3, err_msg=f"{where} {side}")
