"""Smoke test of the benchmark: every workload at its smallest size.

Each run checks the program's outputs itself; the test asserts that they
were correct, that the metrics printed are exactly those ``BENCHMARK.json``
declares, and that a traced run's counts repeat for the same seed.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(*args):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          capture_output=True, text=True, timeout=300,
                          cwd=HERE.parent)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def declared(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_end_to_end(workload):
    res = run_bench("--workload", workload, "--seed", "7", "--smoke", "--trace", "0")
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert {k: v["unit"] for k, v in res["metrics"].items()} == declared("end_to_end")
    assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_trace_counts_repeat(workload):
    first, second = (run_bench("--workload", workload, "--seed", "7", "--smoke",
                               "--trace", "1") for _ in range(2))
    for res in (first, second):
        assert res["correct"] and res["failed"] == 0
        assert {k: v["unit"] for k, v in res["metrics"].items()} == declared("per_layer")
    counts = [k for k, v in first["metrics"].items() if v["unit"] in ("count", "B")]
    assert counts
    assert all(first["metrics"][k] == second["metrics"][k] for k in counts)
