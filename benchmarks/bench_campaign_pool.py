"""Campaign-engine bench: pool reuse, folded IPC, grid-level parallelism.

Not a paper claim — the systems regression gate for this repo's PR-3
refactor of the experiment stack. Two workloads, each measured before
and after:

- **E1 loop** (1000 basic-cheat trials, n=64): PR 2 created a
  ``multiprocessing.Pool`` inside every ``run()`` call and shipped every
  trial outcome over IPC, which made 4 workers *lose* to serial
  (12.4s vs 11.4s, measured on one core). The fix —
  a persistent warm :class:`~repro.experiments.pool.WorkerPool` plus
  worker-side folded aggregates — must bring 4 workers back to at least
  serial speed.
- **Shallow grid** (12 grid points × 120 trials): PR 2's sweep ran grid
  points sequentially, each paying its own pool spawn. The campaign
  orchestrator interleaves chunks from many points into one shared pool
  and must beat the sequential/cold-pool shape.
- **Streamed per-trial outcomes** (8000 cheap baton trials with an
  ``on_outcome`` consumer): PR 3 shipped one pickled ``TrialOutcome``
  list per dispatch whenever per-trial outcomes were requested (rebuilt
  here from :func:`~repro.experiments.runner.run_one_trial`, the trial
  definition). The streamed path caps dispatches at
  ``STREAM_CHUNK_TRIALS`` and returns the chunk's fold with columnar
  per-trial tuples appended; at 4 workers it must be no slower than the
  pickled-list shape while bounding every IPC message.
- **Deadline guard overhead** (the same 12-point shallow grid): the
  campaign's cooperative-cancellation machinery (per-point clocks, the
  per-arrival deadline sweep) runs on every chunk boundary even when no
  deadline ever fires. Armed with far-away ``point_timeout`` /
  ``max_wall_clock`` values, the guarded campaign must cost < 5% over
  the unguarded one — "safe to leave running unattended" may not tax
  the attended case.

Both comparisons assert bit-identical outcomes across every mode — the
engine's core contract — and ``measure()`` (run as a script) records the
wall-clock table in ``BENCH_campaign.json``::

    PYTHONPATH=src python benchmarks/bench_campaign_pool.py

The pytest entries below keep the *identity* half of the gate in the
regular benchmark suite at smoke-test sizes; wall-clock claims live only
in the JSON, regenerated on a quiet machine.
"""

import json
import os
import platform
import time
from collections import Counter

import pytest

from repro.experiments import (
    CampaignPoint,
    ExperimentRunner,
    WorkerPool,
    get_scenario,
    run_campaign,
    run_scenario,
)
from repro.experiments.runner import (
    TrialOutcome,
    _run_chunk_folded,
    chunk_payloads,
    run_one_trial,
)

SCENARIO = "attack/basic-cheat"
E1_PARAMS = {"n": 64, "target": 40}
E1_TRIALS = 1000
GRID_N = 32
GRID_TARGETS = list(range(1, 13))  # 12 shallow points
GRID_TRIALS = 120
BASE_SEED = 0
REPS = 6  # min-of-REPS per timed mode (alternated to spread machine noise)

# The streamed-outcome workload is deliberately IPC-heavy: baton trials
# are microseconds of work each, so the cost of shipping their outcomes
# back dominates and the encoding difference is what gets measured.
STREAM_SCENARIO = "fullinfo/baton"
STREAM_PARAMS = {"n": 16, "k": 3}
STREAM_TRIALS = 8000


def _grid_points():
    return [
        CampaignPoint(
            scenario=SCENARIO,
            params={"n": GRID_N, "cheater": 2, "target": target},
            trials=GRID_TRIALS,
            base_seed=BASE_SEED,
            max_steps=None,
            budget=None,
        )
        for target in GRID_TARGETS
    ]


# -- the timed modes ---------------------------------------------------


def e1_before_cold_pool():
    """PR-2 cost model: pool spawned for this experiment, per-trial IPC."""
    with ExperimentRunner(workers=4) as runner:
        return runner.run(
            SCENARIO, E1_TRIALS, base_seed=BASE_SEED, params=E1_PARAMS
        ).distribution.counts


def e1_serial(runner):
    return runner.run(
        SCENARIO, E1_TRIALS, base_seed=BASE_SEED, params=E1_PARAMS,
        keep_outcomes=False,
    ).distribution.counts


def e1_parallel_shared(runner):
    return runner.run(
        SCENARIO, E1_TRIALS, base_seed=BASE_SEED, params=E1_PARAMS,
        keep_outcomes=False,
    ).distribution.counts


def grid_before_sequential_cold_pools():
    """PR-2 sweep cost model: points in sequence, a fresh 4-worker pool
    and per-trial result lists for every point."""
    rows = []
    for point in _grid_points():
        with ExperimentRunner(workers=4) as runner:
            rows.append(
                runner.run(
                    SCENARIO,
                    point.trials,
                    base_seed=point.base_seed,
                    params=point.params,
                ).to_row()
            )
    return rows


def grid_campaign_shared_pool(pool):
    return [r.to_row() for r in run_campaign(_grid_points(), pool=pool)]


# Far-away deadlines: the guard machinery runs on every chunk arrival,
# but nothing ever times out — what's measured is pure bookkeeping.
GUARD_POINT_TIMEOUT = 3600.0
GUARD_WALL_CLOCK = 86400.0


def grid_campaign_guarded(pool):
    return [
        r.to_row()
        for r in run_campaign(
            _grid_points(),
            pool=pool,
            point_timeout=GUARD_POINT_TIMEOUT,
            max_wall_clock=GUARD_WALL_CLOCK,
        )
    ]


def _stream_payloads(pool, max_chunk=None):
    spec = get_scenario(STREAM_SCENARIO)
    params = spec.resolve_params(STREAM_PARAMS)
    return chunk_payloads(
        spec, params, BASE_SEED, range(STREAM_TRIALS), True, None,
        workers=pool.workers, max_chunk=max_chunk,
    )


def _trial_list_chunk(payload):
    """The PR-3 worker side: a chunk returned as one ``TrialOutcome``
    list, built from the trial definition itself."""
    scenario, params, base_seed, indices = payload[:4]
    spec = get_scenario(scenario)
    return [run_one_trial(spec, params, base_seed, i) for i in indices]


def _consume_trials(trials):
    """The shared consumer loop — identical in both transport modes, so
    the timed difference is the transport encoding, not the consumer."""
    counts = Counter()
    for trial in trials:
        counts[trial.outcome] += 1
    return counts


def outcomes_pickled_lists(pool):
    """PR-3 transport for ``on_outcome`` consumers: every dispatch
    returns its whole chunk as one pickled ``TrialOutcome`` list
    (default chunking: trials / (workers x 4) per dispatch)."""
    return _consume_trials(
        trial
        for chunk in pool.imap_unordered(_trial_list_chunk, _stream_payloads(pool))
        for trial in chunk
    )


def outcomes_streamed(pool):
    """The streamed transport: dispatches capped at
    ``STREAM_CHUNK_TRIALS``, the fold plus columnar per-trial tuples
    over IPC, trial objects rebuilt master-side — exactly what the
    runner ships when a consumer asks for every trial."""
    from repro.experiments.pool import STREAM_CHUNK_TRIALS

    return _consume_trials(
        trial
        for chunk in pool.imap_unordered(
            _run_chunk_folded,
            _stream_payloads(pool, max_chunk=STREAM_CHUNK_TRIALS),
        )
        for trial in map(TrialOutcome, *chunk[5:])
    )


# -- measurement harness ----------------------------------------------


def _timed(fn):
    start = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - start


def measure() -> dict:
    # One warm shared pool for every "after" mode — spawn cost is paid
    # once per campaign in production, so it stays out of the timed
    # regions that model steady-state throughput.
    pool = WorkerPool(4).warm_up()
    serial_runner = ExperimentRunner(workers=1)
    # Two large chunks: the bench trials are homogeneous, so coarse
    # chunks mean fewer dispatch round-trips through the pool's
    # oversubscription window with no load-balance downside.
    shared_runner = ExperimentRunner(pool=pool, chunk_size=E1_TRIALS // 2)

    # Warm both code paths (imports, allocator, branch caches).
    e1_serial(ExperimentRunner(workers=1))
    shared_runner.run(SCENARIO, 40, params=E1_PARAMS, keep_outcomes=False)

    # The serial-vs-shared-pool comparison runs first as REPS
    # back-to-back *pairs* (order alternating within the pair), scored
    # by the median of per-pair time ratios: host-load drift that is
    # slow relative to one pair cancels out of the ratio, where a
    # min-across-the-run would just crown whichever mode hit the
    # quietest moment. The one-shot "before" reference (cold pool,
    # per-trial IPC) follows.
    serial_s = parallel_s = float("inf")
    serial_counts = parallel_counts = None
    pair_ratios = []
    for pair in range(REPS):
        if pair % 2 == 0:
            serial_counts, s = _timed(lambda: e1_serial(serial_runner))
            parallel_counts, p = _timed(lambda: e1_parallel_shared(shared_runner))
        else:
            parallel_counts, p = _timed(lambda: e1_parallel_shared(shared_runner))
            serial_counts, s = _timed(lambda: e1_serial(serial_runner))
        serial_s = min(serial_s, s)
        parallel_s = min(parallel_s, p)
        pair_ratios.append(p / s)
    pair_ratios.sort()
    median_ratio = pair_ratios[len(pair_ratios) // 2]  # upper median
    before_counts, before_s = _timed(e1_before_cold_pool)
    assert dict(before_counts) == dict(serial_counts) == dict(parallel_counts)

    grid_before_rows, grid_before_s = _timed(grid_before_sequential_cold_pools)
    grid_after_rows = None
    grid_after_s = float("inf")
    for _ in range(REPS):
        grid_after_rows, s = _timed(lambda: grid_campaign_shared_pool(pool))
        grid_after_s = min(grid_after_s, s)
    canonical = lambda rows: sorted(json.dumps(r, sort_keys=True) for r in rows)
    assert canonical(grid_before_rows) == canonical(grid_after_rows)

    # Deadline-guard overhead on the same grid: alternated pairs scored
    # by the median of per-pair ratios, like the E1 comparison above.
    unguarded_s = guarded_s = float("inf")
    guarded_rows = None
    guard_ratios = []
    for pair in range(REPS):
        if pair % 2 == 0:
            _, u = _timed(lambda: grid_campaign_shared_pool(pool))
            guarded_rows, g = _timed(lambda: grid_campaign_guarded(pool))
        else:
            guarded_rows, g = _timed(lambda: grid_campaign_guarded(pool))
            _, u = _timed(lambda: grid_campaign_shared_pool(pool))
        unguarded_s = min(unguarded_s, u)
        guarded_s = min(guarded_s, g)
        guard_ratios.append(g / u)
    guard_ratios.sort()
    guard_median = guard_ratios[len(guard_ratios) // 2]
    assert canonical(guarded_rows) == canonical(grid_after_rows)

    # Streamed per-trial outcomes vs the pickled-list shape, alternated
    # pairs and median-of-ratios like the E1 comparison above.
    ground_truth = dict(
        run_scenario(
            STREAM_SCENARIO,
            STREAM_TRIALS,
            base_seed=BASE_SEED,
            params=STREAM_PARAMS,
            keep_outcomes=False,
        ).distribution.counts
    )
    pickled_s = streamed_s = float("inf")
    pickled_counts = streamed_counts = None
    stream_ratios = []
    for pair in range(REPS):
        if pair % 2 == 0:
            pickled_counts, b = _timed(lambda: outcomes_pickled_lists(pool))
            streamed_counts, a = _timed(lambda: outcomes_streamed(pool))
        else:
            streamed_counts, a = _timed(lambda: outcomes_streamed(pool))
            pickled_counts, b = _timed(lambda: outcomes_pickled_lists(pool))
        pickled_s = min(pickled_s, b)
        streamed_s = min(streamed_s, a)
        stream_ratios.append(a / b)
    stream_ratios.sort()
    stream_median = stream_ratios[len(stream_ratios) // 2]
    assert dict(pickled_counts) == dict(streamed_counts) == ground_truth
    pool.close()

    return {
        "benchmark": (
            "campaign engine: persistent pool + folded IPC (E1 loop) and "
            "grid-level parallelism (12-point shallow grid)"
        ),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "e1_loop": {
            "scenario": SCENARIO,
            "trials": E1_TRIALS,
            "outcome_counts": {
                str(k): v
                for k, v in sorted(
                    serial_counts.items(), key=lambda kv: str(kv[0])
                )
            },
            "seconds": {
                "before_parallel_4_cold_pool_per_experiment": round(before_s, 3),
                "runner_serial_fold": round(serial_s, 3),
                "runner_parallel_4_shared_pool": round(parallel_s, 3),
            },
            "parallel_over_serial_pair_ratios": [
                round(r, 4) for r in pair_ratios
            ],
            "parallel_4_at_least_serial": median_ratio <= 1.0,
            "speedup_parallel_vs_before": round(before_s / parallel_s, 2),
        },
        "shallow_grid": {
            "scenario": SCENARIO,
            "points": len(GRID_TARGETS),
            "trials_per_point": GRID_TRIALS,
            "seconds": {
                "before_sequential_cold_pools": round(grid_before_s, 3),
                "campaign_shared_pool": round(grid_after_s, 3),
            },
            "campaign_faster_than_sequential": grid_after_s < grid_before_s,
            "speedup_vs_sequential": round(grid_before_s / grid_after_s, 2),
        },
        "deadline_overhead": {
            "scenario": SCENARIO,
            "points": len(GRID_TARGETS),
            "trials_per_point": GRID_TRIALS,
            "point_timeout_s": GUARD_POINT_TIMEOUT,
            "max_wall_clock_s": GUARD_WALL_CLOCK,
            "seconds": {
                "unguarded": round(unguarded_s, 3),
                "guarded": round(guarded_s, 3),
            },
            "guarded_over_unguarded_pair_ratios": [
                round(r, 4) for r in guard_ratios
            ],
            "overhead_pct_median": round((guard_median - 1.0) * 100, 2),
            "guard_overhead_below_5pct": guard_median <= 1.05,
            "rows_identical_to_unguarded": True,
        },
        "streamed_outcomes": {
            "scenario": STREAM_SCENARIO,
            "params": STREAM_PARAMS,
            "trials": STREAM_TRIALS,
            "workers": 4,
            "seconds": {
                "pickled_trialoutcome_lists": round(pickled_s, 3),
                "streamed_packed_chunks": round(streamed_s, 3),
            },
            "streamed_over_pickled_pair_ratios": [
                round(r, 4) for r in stream_ratios
            ],
            "streamed_no_slower_than_pickled": stream_median <= 1.0,
            "speedup_streamed_vs_pickled": round(pickled_s / streamed_s, 2),
        },
        "outcomes_identical_across_modes": True,
    }


def main() -> None:
    payload = measure()
    out = os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", "BENCH_campaign.json"
    )
    with open(os.path.normpath(out), "w") as f:
        json.dump(payload, f, indent=2)
        f.write("\n")
    print(json.dumps(payload, indent=2))


# -- pytest identity gate (smoke sizes, no wall-clock claims) ----------

SMOKE_TRIALS = 40


@pytest.mark.smoke
def test_pool_reuse_preserves_outcomes(benchmark, experiment_report):
    """Two experiments through one shared pool == two cold serial runs."""
    serial = [
        run_scenario(
            SCENARIO, SMOKE_TRIALS, base_seed=seed, params={"n": 16, "target": 5}
        ).to_row()
        for seed in (0, 1)
    ]

    def shared():
        with WorkerPool(2) as pool:
            return [
                run_scenario(
                    SCENARIO,
                    SMOKE_TRIALS,
                    base_seed=seed,
                    params={"n": 16, "target": 5},
                    pool=pool,
                    keep_outcomes=False,
                ).to_row()
                for seed in (0, 1)
            ]

    assert benchmark(shared) == serial
    experiment_report(
        "campaign pool: reuse identity",
        [f"2 experiments x {SMOKE_TRIALS} trials: shared-pool rows == serial rows"],
    )


@pytest.mark.smoke
def test_campaign_interleaving_preserves_rows(benchmark, experiment_report):
    """Grid-level parallel campaign rows == sequential per-point rows."""
    points = [
        CampaignPoint(
            scenario=SCENARIO,
            params={"n": 16, "cheater": 2, "target": target},
            trials=SMOKE_TRIALS,
            base_seed=BASE_SEED,
            max_steps=None,
            budget=None,
        )
        for target in (1, 2, 3, 4)
    ]
    sequential = sorted(
        json.dumps(
            run_scenario(
                SCENARIO,
                SMOKE_TRIALS,
                base_seed=BASE_SEED,
                params=p.params,
            ).to_row(),
            sort_keys=True,
        )
        for p in points
    )

    def campaign():
        return sorted(
            json.dumps(r.to_row(), sort_keys=True)
            for r in run_campaign(points, workers=2)
        )

    assert benchmark(campaign) == sequential
    experiment_report(
        "campaign interleaving: row identity",
        [f"{len(points)} points x {SMOKE_TRIALS} trials: campaign rows == "
         "sequential rows"],
    )


@pytest.mark.smoke
def test_deadline_guard_preserves_rows(benchmark, experiment_report):
    """Armed-but-never-firing deadlines must not change a single byte:
    the guard is bookkeeping, never part of any trial's identity."""
    points = [
        CampaignPoint(
            scenario=SCENARIO,
            params={"n": 16, "cheater": 2, "target": target},
            trials=SMOKE_TRIALS,
            base_seed=BASE_SEED,
            max_steps=None,
            budget=None,
        )
        for target in (1, 2, 3, 4)
    ]
    unguarded = sorted(
        json.dumps(r.to_row(), sort_keys=True)
        for r in run_campaign(points, workers=2)
    )

    def guarded():
        return sorted(
            json.dumps(r.to_row(), sort_keys=True)
            for r in run_campaign(
                points,
                workers=2,
                point_timeout=GUARD_POINT_TIMEOUT,
                max_wall_clock=GUARD_WALL_CLOCK,
            )
        )

    assert benchmark(guarded) == unguarded
    experiment_report(
        "deadline guard: row identity",
        [f"{len(points)} points x {SMOKE_TRIALS} trials: guarded campaign "
         "rows == unguarded rows"],
    )


@pytest.mark.smoke
def test_packed_chunks_pickle_smaller_than_trialoutcome_lists(
    benchmark, experiment_report
):
    """The streamed transport's byte claim, pinned: a packed chunk must
    pickle to well under half the bytes of the same chunk as a
    ``TrialOutcome`` list (observed ~3.4x smaller on the reference
    chunk), and stay that way if the packing format changes."""
    import pickle

    spec = get_scenario(STREAM_SCENARIO)
    params = spec.resolve_params(STREAM_PARAMS)
    (payload,) = chunk_payloads(
        spec, params, BASE_SEED, range(500), True, None, chunk_size=500
    )

    def sizes():
        return (
            len(pickle.dumps(_trial_list_chunk(payload))),
            len(pickle.dumps(_run_chunk_folded(payload))),
        )

    list_bytes, packed_bytes = benchmark(sizes)
    assert packed_bytes * 2 < list_bytes
    experiment_report(
        "streamed outcomes: IPC bytes",
        [
            f"500-trial chunk: {list_bytes} B as TrialOutcome list, "
            f"{packed_bytes} B packed "
            f"({list_bytes / packed_bytes:.1f}x smaller)"
        ],
    )


@pytest.mark.smoke
def test_streamed_outcomes_identity(benchmark, experiment_report):
    """Streamed bounded-chunk outcomes == serial per-trial outcomes."""
    serial = run_scenario(
        STREAM_SCENARIO, SMOKE_TRIALS * 5, params=STREAM_PARAMS
    ).to_row()

    def streamed():
        seen = Counter()
        with WorkerPool(2) as pool:
            row = ExperimentRunner(pool=pool).run(
                STREAM_SCENARIO,
                SMOKE_TRIALS * 5,
                params=STREAM_PARAMS,
                keep_outcomes=False,
                on_outcome=lambda trial: seen.update((trial.outcome,)),
            ).to_row()
        assert {str(k): v for k, v in seen.items()} == row["outcomes"]
        return row

    assert benchmark(streamed) == serial
    experiment_report(
        "streamed outcomes: identity",
        [f"{SMOKE_TRIALS * 5} trials: streamed on_outcome row == serial row"],
    )


if __name__ == "__main__":
    main()
