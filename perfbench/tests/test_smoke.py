"""Short runs of every workload through the benchmark's own command.

Each run must check its evaluations, print every metric that
``BENCHMARK.json`` names with its unit, and end with the result line.
Run with ``python3 -m pytest perfbench/tests``; the module takes a few
minutes.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run(workload, trace, seed=3):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_unit(workload, trace):
    text, result = run(workload, trace)
    specs = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in specs}
    for m in specs:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert isinstance(entry["value"], float)
        assert any(line.startswith(f"{workload}.{m['name']} = ")
                   and line.split("  (")[0].endswith(f" {m['unit']}") for line in text)
    for name in ("failed_frac", "ref_err_max"):
        assert any(line.startswith(f"{workload}.{name} = ") for line in text)


def test_traced_counts_repeat_exactly():
    counts = [m["name"] for m in BENCH["per_layer"] if m["unit"] in ("count", "elems", "bytes")]
    _, first = run("slds_momentmatching", 1, seed=4)
    _, second = run("slds_momentmatching", 1, seed=4)
    assert {k: first["metrics"][k] for k in counts} == {k: second["metrics"][k] for k in counts}
    assert first["metrics"]["approx.moment_match.calls"]["value"] > 0


def test_refuses_to_run_without_sources():
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""
