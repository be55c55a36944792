#!/usr/bin/env python
"""Regenerate BENCH_batch_kernels.json.

Two claims, one file:

- **Batch kernels.** For each batch-capable scenario, the same trial set
  runs once through the scalar per-trial fold (``use_batch=False``) and
  once through the scenario's vectorized ``run_batch`` kernel
  (``use_batch=True``), both serial and in-process — so the speedup is
  per-core algorithmic gain, not worker fan-out. The folded rows must
  match key for key before any timing is recorded.
- **Executor loops.** The same seeds run traced and untraced on a ring
  (honest A-LEADuni, n=64: the per-inbox loop) and on a complete graph
  (honest async-complete, n=8: the global-FIFO loop); outcome, step
  count and outputs must agree pairwise. This is an identity check only;
  the ring loop's speed is measured end to end by ``perfbench``.

``--smoke`` runs the identity checks only — small trial counts, no
timing, no JSON — and exits nonzero on any divergence; CI runs it on
every push so a kernel drifting off the scalar path is caught before a
benchmark is ever regenerated.

Usage::

    PYTHONPATH=src python benchmarks/bench_batch_kernels.py [--smoke]
"""

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

from repro import run_protocol, unidirectional_ring
from repro.experiments import ExperimentRunner
from repro.protocols import alead_uni_protocol, async_complete_protocol
from repro.sim.topology import complete_graph
from repro.util.rng import RngRegistry

#: (scenario, params, timed trials). Trial counts are sized so each
#: scalar leg takes on the order of a second; the kernels' speedups are
#: insensitive to the exact count. Grid points are the sizes the
#: kernels' asymptotics pay off at: the baton kernel's incremental
#: pools beat the scalar O(n) rebuild-per-pass by ~n/log n, so it is
#: measured on a big ring, and coin-fle amortizes one election per
#: round against the scalar reduction machinery. The honest ring
#: kernels replace n^2 (A-LEADuni) and 2n^2 (PhaseAsyncLead) executor
#: deliveries with n stream heads, so they are measured at a ring size
#: the ring-grid benchmark runs.
KERNEL_CASES = [
    ("cointoss/fle-coin", {"n": 8}, 3000),
    ("cointoss/biased-coin", {"n": 8, "cheater": 2, "target": 4}, 3000),
    ("cointoss/coin-fle", {"n": 16}, 300),
    ("fullinfo/baton", {"n": 256, "k": 16}, 400),
    ("honest/alead-uni", {"n": 64}, 600),
    ("honest/phase-async", {"n": 64}, 300),
    ("fullinfo/sequential-coin", {"game": "majority", "n": 7, "k": 2, "target": 1}, 3000),
    ("blocks/fair-consensus", {"n": 6}, 3000),
    ("blocks/fair-renaming", {"n": 6}, 3000),
    ("placement/random-segments", {"n": 256}, 3000),
]

#: (label, topology, protocol factory): one in-degree-1 topology and one
#: with in-degree > 1, so both untraced loops are checked.
EXECUTOR_CASES = [
    ("honest/alead-uni n=64", unidirectional_ring(64), alead_uni_protocol),
    ("honest/async-complete n=8", complete_graph(8), async_complete_protocol),
]
EXECUTOR_TRIALS = 100
BASE_SEED = 0


def folded_run(scenario, params, trials, use_batch):
    runner = ExperimentRunner(workers=1, use_batch=use_batch)
    try:
        return runner.run(
            scenario,
            trials,
            base_seed=BASE_SEED,
            params=params,
            keep_outcomes=False,
        )
    finally:
        runner.close()


def comparable(result):
    return (result.to_row(), result.steps_total)


def timed(fn, repeats=3):
    """Best-of-``repeats`` wall time — the standard noise-resistant
    estimate for a deterministic workload (anything above the minimum
    is scheduler interference, not the code under test)."""
    best = float("inf")
    value = None
    for _ in range(repeats):
        start = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - start)
    return value, best


def executor_results(topology, make_protocol, trials, record_trace):
    rows = []
    for t in range(trials):
        result = run_protocol(
            topology,
            make_protocol(topology),
            rng=RngRegistry(BASE_SEED).spawn(str(t)),
            record_trace=record_trace,
        )
        rows.append((result.outcome, result.steps, result.outputs))
    return rows


def check_kernel_identity(trials_override=None):
    """Run every kernel case in both modes; die on the first divergence."""
    counts = {}
    for scenario, params, trials in KERNEL_CASES:
        trials = trials_override or trials
        batch = folded_run(scenario, params, trials, use_batch=True)
        scalar = folded_run(scenario, params, trials, use_batch=False)
        if comparable(batch) != comparable(scalar):
            raise SystemExit(
                f"FAIL: {scenario} {params} diverged between batch and "
                f"scalar folds at {trials} trials"
            )
        counts[scenario] = {
            str(k): v
            for k, v in sorted(
                batch.distribution.counts.items(), key=lambda kv: str(kv[0])
            )
        }
    return counts


def check_executor_identity(trials):
    for label, topology, make_protocol in EXECUTOR_CASES:
        untraced = executor_results(topology, make_protocol, trials, False)
        traced = executor_results(topology, make_protocol, trials, True)
        if untraced != traced:
            raise SystemExit(
                f"FAIL: untraced executor diverged from the traced loop on {label}"
            )


def smoke() -> None:
    check_kernel_identity(trials_override=64)
    check_executor_identity(trials=20)
    print("smoke OK: batch kernels match scalar, untraced executor matches traced")


def main() -> None:
    outcome_counts = check_kernel_identity()
    check_executor_identity(EXECUTOR_TRIALS)

    seconds = {}
    speedups = {}
    for scenario, params, trials in KERNEL_CASES:
        _, scalar_s = timed(lambda: folded_run(scenario, params, trials, False))
        _, batch_s = timed(lambda: folded_run(scenario, params, trials, True))
        seconds[scenario] = {
            "scalar_fold": round(scalar_s, 3),
            "batch_kernel": round(batch_s, 3),
        }
        speedups[scenario] = round(scalar_s / batch_s, 2)

    payload = {
        "benchmark": "batch-kernel fold vs scalar per-trial fold (serial, per-core)",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "trials": {scenario: trials for scenario, _, trials in KERNEL_CASES},
        "outcome_counts": outcome_counts,
        "seconds": seconds,
        "speedup_batch_vs_scalar": speedups,
        "outcomes_identical_across_modes": True,
    }
    out = Path(__file__).resolve().parent.parent / "BENCH_batch_kernels.json"
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out}")
    for scenario, speedup in speedups.items():
        print(f"  {scenario}: {speedup}x")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="identity checks only: no timing, no JSON, nonzero exit on divergence",
    )
    args = parser.parse_args()
    if args.smoke:
        smoke()
    else:
        main()
    sys.exit(0)
