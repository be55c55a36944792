"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest perfbench -q

One command per workload and mode must print every metric named in
BENCHMARK.json with its unit, pass its output check, and (traced) name
every layer in its self-time summary with spans covering at least 90% of
each pass; exact per-layer counts must repeat bit for bit across runs.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layers  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    BENCHMARK = json.load(_handle)
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def run(workload, trace, seed=3):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def check_result(result, declared):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in declared}
    assert set(result["metrics"]) == set(units)
    for name, entry in result["metrics"].items():
        assert entry["unit"] == units[name]
        assert isinstance(entry["value"], float)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    result, lines = run(workload, 0)
    check_result(result, BENCHMARK["end_to_end"])
    for name, entry in result["metrics"].items():
        assert entry["value"] > 0, name
    assert any(line.startswith("host ") for line in lines)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_layers_repeat_exactly(workload):
    first, lines = run(workload, 1)
    check_result(first, BENCHMARK["per_layer"])
    summary = " ".join(lines)
    for layer in layers.LAYERS:
        assert f"self {layer} " in summary
    coverages = [float(line.rsplit("coverage ", 1)[1]) for line in lines if "coverage " in line]
    assert len(coverages) == 2 and min(coverages) >= 0.9, coverages
    second, _ = run(workload, 1)
    for name, _, _, exact, _ in layers.METRICS:
        if exact:
            assert first["metrics"][name] == second["metrics"][name], name


def test_declared_metrics_match_the_code():
    import run as bench
    import workloads

    assert tuple(WORKLOADS) == workloads.WORKLOADS
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == [n for n, _ in bench.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == [
        (name, unit, better) for name, unit, better, _, _ in layers.METRICS
    ]
