#!/usr/bin/env python3
"""Self-test of the benchmark itself; run from the repository root:

    python3 bench/selftest.py

1. Every workload runs at a tiny size, untraced and traced, and must print
   every end-to-end or per-layer metric with its name and unit, plus
   fail_frac, and end with a well-formed result line.
2. A deliberately wrong reference value (P at n = 3) must raise the failure
   count of exact-oracles, which shows that the output checks can fail.

Exits 0 when every assertion holds.
"""
from __future__ import annotations

import contextlib
import io
import json
from fractions import Fraction

import run

run.prepare()
import harness  # noqa: E402  (needs run.prepare() first)

TINY = {
    "mc-grid": {"grid": [(4, 4096), (6, 4096), (64, 4096)]},
    "sheet-gauss": {"grid": [(16, 8192), (64, 8192)]},
    "chainstat-rect": {"n": 256, "xy": [32, 128], "trials": 16},
    "exact-oracles": {"exact_n": [1, 2, 3, 4], "fkg_n": 4},
}


def _run(workload: str, trace: int) -> tuple[list[str], dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = harness.main(["--workload", workload, "--seed", "5", "--seconds", "0", "--trace", str(trace)])
    assert status == 0, (workload, trace, status)
    lines = out.getvalue().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"], result
    return lines, result


def test_every_metric_printed():
    for workload in harness.WORKLOADS:
        for trace, expected, prefix in ((0, harness.END_TO_END, "metric"), (1, harness.PER_LAYER, "layer ")):
            lines, result = _run(workload, trace)
            assert set(result["metrics"]) == set(expected), (workload, trace, result["metrics"].keys())
            for name, unit in expected.items():
                assert result["metrics"][name]["unit"] == unit, (workload, name)
                assert isinstance(result["metrics"][name]["value"], (int, float)), (workload, name)
                assert any(
                    line.startswith(prefix) and line.split()[1] == name and line.split()[3] == unit
                    for line in lines
                ), (workload, trace, name)
            assert any(line.startswith("metric fail_frac") for line in lines), (workload, trace)
            context = json.loads(next(line for line in lines if line.startswith("context "))[8:])
            assert context["seed"] == 5 and context["workload"] == workload, context
            print(f"ok  {workload} trace={trace}: {len(expected)} metrics printed with units")


def test_wrong_reference_raises_failures():
    _, baseline = _run("exact-oracles", 0)
    assert baseline["correct"] and baseline["failed"] == 0, baseline
    saved = harness.EXACT_P[3]
    harness.EXACT_P[3] = Fraction(1, 2)
    try:
        _, broken = _run("exact-oracles", 0)
    finally:
        harness.EXACT_P[3] = saved
    assert not broken["correct"] and broken["failed"] > baseline["failed"], (baseline, broken)
    print(f"ok  wrong reference: failed {baseline['failed']} -> {broken['failed']} "
          f"of {broken['attempted']} operations")


if __name__ == "__main__":
    harness.SIZES.update(TINY)
    harness.SETUP_REPS = 1
    harness.PROBE_KEYS = 50
    harness.PROBE_KEYS_LARGE = 4
    test_every_metric_printed()
    test_wrong_reference_raises_failures()
    print("selftest passed")
