"""Toy-size smoke test of the benchmark: every workload, both modes.

Runs on a 64-bit group with short loops, short chains, one preset and one
plant size, and checks that every metric BENCHMARK.json declares is printed
with its unit and that no correctness check fails.

    python3 -m pytest bench/test_smoke.py -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# the throughput metric each workload prints under its own name
NAMED = {
    "loop_k712": "loop_steps_per_s",
    "rekey_chain": "rekey_rotations_per_s",
    "attack_mc": "attack_trials_per_s",
    "design_sweep": "design_cases_per_s",
}


def run(workload: str, trace: int) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--toy"],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def test_workloads_match_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(NAMED)


@pytest.mark.parametrize("workload", sorted(NAMED))
def test_end_to_end_metrics(workload):
    lines, result = run(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    text = "\n".join(lines)
    assert NAMED[workload] in text and "1/s" in text
    assert any(line.split()[:3] == ["error_rate", "0.0000", "ratio"] for line in lines)
    assert '"backend"' in text and '"blas_threads"' in text


@pytest.mark.parametrize("workload", sorted(NAMED))
def test_per_layer_metrics(workload):
    lines, result = run(workload, 1)
    assert result["correct"] and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    printed = {line.split()[0]: line.split()[-1] for line in lines if not line.startswith("#")}
    assert printed == expected
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    if workload in ("attack_mc", "design_sweep"):
        assert metrics["modgroup.powmod.calls"] == 0
    else:
        assert metrics["modgroup.powmod.calls"] > 0


def test_counts_repeat_at_fixed_seed():
    first = run("loop_k712", 1)[1]["metrics"]
    second = run("loop_k712", 1)[1]["metrics"]
    counts = [k for k, v in first.items() if v["unit"] == "count" and k != "trace.spans"]
    assert counts
    assert all(first[k]["value"] == second[k]["value"] for k in counts)
