#!/usr/bin/env python
"""Regenerate BENCH_experiment_engine.json.

Times 1000 E1 trials (Basic-LEAD single-cheater attack on a ring of 64)
three ways and records the speedups:

- ``seed_traced_serial``  — the pre-engine idiom: serial loop, full
  event trace recorded per trial and then thrown away;
- ``runner_serial``       — ExperimentRunner in-process, trials
  untraced (the zero-trace executor fast path);
- ``runner_parallel_4``   — the same trial set fanned out over 4
  worker processes.

All three run the identical per-trial seed derivation, so the outcome
histograms must match exactly — the JSON records that check too.

Usage::

    PYTHONPATH=src python benchmarks/measure_experiment_engine.py
"""

import json
import os
import platform
import time
from collections import Counter
from pathlib import Path

from repro import run_protocol, unidirectional_ring
from repro.attacks import basic_cheat_protocol
from repro.experiments import ExperimentRunner
from repro.util.rng import RngRegistry

N = 64
TRIALS = 1000
TARGET = 40
BASE_SEED = 0


def seed_traced_serial():
    ring = unidirectional_ring(N)
    counts = Counter()
    for t in range(TRIALS):
        result = run_protocol(
            ring,
            basic_cheat_protocol(ring, 2, TARGET),
            rng=RngRegistry(BASE_SEED).spawn(str(t)),
        )
        counts[result.outcome] += 1
    return counts


def runner_counts(workers: int):
    runner = ExperimentRunner(workers=workers)
    result = runner.run(
        "attack/basic-cheat",
        trials=TRIALS,
        base_seed=BASE_SEED,
        params={"n": N, "target": TARGET},
    )
    return result.distribution.counts


def timed(fn):
    start = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - start


def main() -> None:
    baseline_counts, baseline_s = timed(seed_traced_serial)
    serial_counts, serial_s = timed(lambda: runner_counts(1))
    parallel_counts, parallel_s = timed(lambda: runner_counts(4))

    assert dict(baseline_counts) == dict(serial_counts) == dict(parallel_counts)

    payload = {
        "benchmark": "E1-style Monte-Carlo loop: 1000 basic-cheat trials, n=64",
        "python": platform.python_version(),
        "machine": platform.machine(),
        # Worker fan-out only buys wall-clock on multi-core hosts; on a
        # single-core box the parallel row degenerates to the serial one.
        "cpus": os.cpu_count(),
        "trials": TRIALS,
        "outcome_counts": {
            str(k): v for k, v in sorted(baseline_counts.items(), key=lambda kv: str(kv[0]))
        },
        "seconds": {
            "seed_traced_serial": round(baseline_s, 3),
            "runner_serial_trace_off": round(serial_s, 3),
            "runner_parallel_4_trace_off": round(parallel_s, 3),
        },
        "speedup_vs_seed": {
            "runner_serial_trace_off": round(baseline_s / serial_s, 2),
            "runner_parallel_4_trace_off": round(baseline_s / parallel_s, 2),
        },
        "outcomes_identical_across_modes": True,
    }
    out = Path(__file__).resolve().parent.parent / "BENCH_experiment_engine.json"
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(json.dumps(payload, indent=2))


if __name__ == "__main__":
    main()
