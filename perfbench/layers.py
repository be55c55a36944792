"""Which calls of the program the traced run wraps, and how the spans
become per-layer metrics.

Layers are named after the program's modules. ``install_compute`` wraps
the per-trial layers (executor, strategy callbacks, batch kernels) and
is only ever active in the serial pass: worker processes forked while
it is installed would run wrapped code whose spans never come back.
``install_orchestration`` wraps the master-side layers (pool dispatch,
chunk sizing, point folds, stop rule, row stores, estimate service,
lease coordinator) and is active in both passes.
"""

import math

from common import median, percentile
from tracing import self_times, union_length

#: Per-layer metrics: (name, unit, better, exact, moves e2e metric @ workload).
#: ``exact`` counts must repeat bit for bit for a given seed; pool.chunks and
#: chunking.trials_per_chunk depend on the adaptive chunker's timings.
METRICS = (
    ("sim.steps_per_trial", "steps/trial", "lower", True, "trials_per_s @ ring-grid"),
    ("sim.us_per_step", "us", "lower", False, "trials_per_s @ ring-grid"),
    ("sim.self_share", "ratio", "lower", False, "trials_per_s @ ring-grid"),
    ("strategy.calls_per_trial", "calls/trial", "lower", True, "trials_per_s @ ring-grid"),
    ("strategy.us_per_call", "us", "lower", False, "trials_per_s @ ring-grid"),
    ("strategy.share", "ratio", "lower", False, "trials_per_s @ ring-grid"),
    ("kernel.us_per_trial", "us", "lower", False, "trials_per_s @ kernel-points"),
    ("kernel.batched_frac", "ratio", "higher", False, "trials_per_s @ kernel-points"),
    ("pool.chunks", "count", "lower", False,
     "trials_per_s @ kernel-points, ring-grid; serve_miss_p50_ms @ serve-mix"),
    ("pool.failed", "count", "lower", False,
     "trials_per_s @ kernel-points, ring-grid; serve_miss_p50_ms @ serve-mix"),
    ("pool.chunk_compute_ms_p50", "ms", "lower", False,
     "trials_per_s @ kernel-points, ring-grid; serve_miss_p50_ms @ serve-mix"),
    ("pool.chunk_wait_ms_p50", "ms", "lower", False,
     "trials_per_s @ kernel-points, ring-grid; serve_miss_p50_ms @ serve-mix"),
    ("pool.busy_frac", "ratio", "higher", False,
     "trials_per_s @ kernel-points, ring-grid; serve_miss_p50_ms @ serve-mix"),
    ("chunking.trials_per_chunk", "trials/chunk", "higher", False, "trials_per_s @ kernel-points"),
    ("campaign.fold_us", "us", "lower", False, "trials_per_s @ kernel-points"),
    ("campaign.master_busy_frac", "ratio", "lower", False, "trials_per_s @ kernel-points"),
    ("budget.trials_per_point", "trials/point", "lower", True,
     "trials_per_s @ kernel-points; serve_miss_p50_ms @ serve-mix"),
    ("budget.ceiling_points", "count", "lower", True,
     "trials_per_s @ kernel-points; serve_miss_p50_ms @ serve-mix"),
    ("store.append_ms_p50", "ms", "lower", False, "trials_per_s @ kernel-points; serve_p50_ms @ serve-mix"),
    ("store.append_ms_p99", "ms", "lower", False, "trials_per_s @ kernel-points; serve_p50_ms @ serve-mix"),
    ("store.lookup_ms_p50", "ms", "lower", False, "trials_per_s @ kernel-points; serve_p50_ms @ serve-mix"),
    ("store.rows", "count", "higher", True, "trials_per_s @ kernel-points; serve_p50_ms @ serve-mix"),
    ("serve.estimate_hit_ms_p50", "ms", "lower", False, "serve_p50_ms, serve_rps, serve_p99_ms @ serve-mix"),
    ("serve.estimate_miss_ms_p50", "ms", "lower", False, "serve_p50_ms, serve_rps, serve_p99_ms @ serve-mix"),
    ("serve.http_overhead_ms", "ms", "lower", False, "serve_p50_ms, serve_rps, serve_p99_ms @ serve-mix"),
    ("serve.hit_ratio", "ratio", "higher", True, "serve_p50_ms, serve_rps, serve_p99_ms @ serve-mix"),
    ("coordinator.leases", "count", "lower", False, "trials_per_s @ sharded-points"),
    ("coordinator.lease_us_p50", "us", "lower", False, "trials_per_s @ sharded-points"),
    ("coordinator.report_us_p50", "us", "lower", False, "trials_per_s @ sharded-points"),
    ("coordinator.grant_ratio", "ratio", "higher", False, "trials_per_s @ sharded-points"),
    ("coordinator.expired", "count", "lower", False, "trials_per_s @ sharded-points"),
)

#: Layers the self-time summary must name (the program's), besides the
#: benchmark's own ``bench``/``client`` spans and the CLI entry point.
LAYERS = ("sim", "strategy", "kernel", "runner", "pool", "chunking", "campaign",
          "budget", "store", "serve", "coordinator", "cli")

#: Master-side spans counted as orchestration work for
#: ``campaign.master_busy_frac``.
_MASTER_SPANS = {
    "campaign.fold", "campaign.converged", "campaign.finalize", "chunking.chunk_payloads",
    "pool.submit", "store.append_row", "store.append", "store.lookup",
    "coordinator.lease", "coordinator.report",
}


def install_compute(tracer):
    from repro.experiments import runner
    from repro.sim import execution

    def on_run(span, args, result):
        tracer.count("sim.trials")
        tracer.count("sim.steps", result.steps)

    tracer.wrap(execution.Executor, "run", "sim", name="sim.run", after=on_run)

    init = execution.Executor.__init__

    def executor_init(self, topology, protocol, *args, **kwargs):
        for strategy in protocol.values():
            tracer.wrap_callbacks(type(strategy), ("on_wakeup", "on_receive"), "strategy")
        init(self, topology, protocol, *args, **kwargs)

    tracer._patch(execution.Executor, "__init__", executor_init)

    def on_batch(span, args, result):
        tracer.count("kernel.trials", len(args[3]))
        tracer.sample("kernel.seconds", span.end - span.start)
        if result is not None:
            tracer.count("kernel.batched_chunks")

    tracer.wrap(runner, "_fold_batch", "kernel", name="kernel.run_batch", after=on_batch)

    def on_chunk(span, args, result):
        tracer.count("runner.chunks")

    tracer.wrap(runner, "_run_chunk_folded", "runner", name="runner.chunk", after=on_chunk)


def install_orchestration(tracer):
    from repro import cli, serve
    from repro.experiments import budget, campaign, coordinator, node, runner, store, sweep
    from repro.experiments.pool import WorkerPool

    submit = WorkerPool.submit

    def traced_submit(self, fn, payload, callback, error_callback):
        point_id, chunk = payload
        span = tracer.detached("pool.chunk", "pool", group=f"point:{point_id}")

        def done(result):
            tracer.close(span)
            turnaround = span.end - span.start
            compute = result[1][4] if len(result[1]) > 4 else 0.0
            tracer.sample("pool.compute", compute)
            tracer.sample("pool.wait", max(0.0, turnaround - compute))
            callback(result)

        def failed(exc):
            tracer.close(span)
            tracer.count("pool.failed")
            error_callback(exc)

        tracer.count("pool.chunks")
        submitting = tracer.begin("pool.submit", "pool")
        try:
            submit(self, fn, payload, done, failed)
        finally:
            tracer.end(submitting)

    tracer._patch(WorkerPool, "submit", traced_submit)

    def on_payloads(span, args, result):
        tracer.count("chunking.payloads", len(result))
        tracer.count("chunking.trials", sum(len(p[3]) for p in result))

    for module in (campaign, runner, node):
        tracer.wrap(module, "chunk_payloads", "chunking", name="chunking.chunk_payloads",
                    after=on_payloads)

    def point_group(args):
        return f"point:{args[0].point_id}"

    for attr in ("fold", "converged", "finalize"):
        tracer.wrap(campaign.PointState, attr, "campaign", name=f"campaign.{attr}",
                    group=point_group)
    tracer.wrap_generator(cli, "run_campaign", "campaign", "campaign.next")
    tracer.wrap_generator(serve, "run_campaign", "campaign", "campaign.next")
    for policy in budget.BudgetPolicy.__subclasses__():
        if "satisfied" in vars(policy):
            tracer.wrap(policy, "satisfied", "budget", name="budget.satisfied")

    def on_append(span, args, result):
        tracer.count("store.rows")
        tracer.sample("store.append", span.end - span.start)

    tracer.wrap(store.ResultStore, "append_row", "store", name="store.append_row", after=on_append)

    def on_line(span, args, result):
        if not args[0].path.endswith(".timings"):
            on_append(span, args, result)

    tracer.wrap(sweep.RowWriter, "append", "store", name="store.append", after=on_line)

    def on_lookup(span, args, result):
        tracer.sample("store.lookup", span.end - span.start)

    tracer.wrap(store.ResultStore, "lookup", "store", name="store.lookup", after=on_lookup)
    tracer.wrap(store.ResultStore, "__init__", "store", name="store.open")
    tracer.wrap(store.ResultStore, "close", "store", name="store.close")

    def on_estimate(span, args, result):
        tracer.sample(f"serve.{result['source']}", span.end - span.start)

    tracer.wrap(serve.EstimateService, "estimate", "serve", name="serve.estimate", after=on_estimate)

    def request_parent(args):
        header = args[0].headers.get("X-Perfbench-Span")
        return int(header) if header else None

    tracer.wrap(serve.EstimateHandler, "do_GET", "serve", name="serve.http",
                parent=request_parent)

    def on_lease(span, args, result):
        granted = len(result.get("leases") or ())
        tracer.count("coordinator.lease_calls")
        tracer.count("coordinator.leases", granted)
        tracer.count("coordinator.granting_calls", 1 if granted else 0)
        tracer.sample("coordinator.lease", span.end - span.start)

    def on_report(span, args, result):
        tracer.sample("coordinator.report", span.end - span.start)

    tracer.wrap(coordinator.CampaignCoordinator, "lease", "coordinator",
                name="coordinator.lease", after=on_lease)
    tracer.wrap(coordinator.CampaignCoordinator, "report", "coordinator",
                name="coordinator.report", after=on_report)
    tracer.wrap_generator(coordinator.CampaignCoordinator, "results", "coordinator",
                          "coordinator.next")
    tracer.wrap(coordinator.CampaignCoordinator, "await_nodes_done", "coordinator",
                name="coordinator.await_nodes_done")
    tracer.wrap(cli, "main", "cli", name="cli.main")


def _ratio(num, den):
    return num / den if den else 0.0


def _ms(values, pct=50.0):
    return percentile(values, pct) * 1e3 if values else 0.0


def compute_metrics(serial, parallel, rows, workers, client_hit_p50_ms=None, expired=0):
    """Per-layer metrics from the serial pass (compute layers) and the
    parallel pass (orchestration layers).

    ``serial``/``parallel`` are ``(tracer, wall_seconds)``; ``rows`` are
    the rows the workload produced (parsed); ``client_hit_p50_ms`` is the
    untraced client-side hit latency (serve-mix only).
    """
    s_tracer, s_wall = serial
    p_tracer, p_wall = parallel
    s_self = self_times(s_tracer.spans)
    counts = s_tracer.counts
    trials = counts["sim.trials"]
    steps = counts["sim.steps"]
    calls = strategy_time = 0
    for span in s_tracer.spans:
        if span.agg and "strategy" in span.agg:
            calls += span.agg["strategy"][0]
            strategy_time += span.agg["strategy"][1]
    kernel_trials = counts["kernel.trials"]
    m = {
        "sim.steps_per_trial": _ratio(steps, trials),
        "sim.us_per_step": _ratio(s_self.get("sim", 0.0) * 1e6, steps),
        "sim.self_share": _ratio(s_self.get("sim", 0.0), s_wall),
        "strategy.calls_per_trial": _ratio(calls, trials),
        "strategy.us_per_call": _ratio(strategy_time * 1e6, calls),
        "strategy.share": _ratio(strategy_time, s_wall),
        "kernel.us_per_trial": _ratio(sum(s_tracer.samples["kernel.seconds"]) * 1e6, kernel_trials),
        "kernel.batched_frac": _ratio(counts["kernel.batched_chunks"], counts["runner.chunks"]),
    }
    p = p_tracer
    compute = p.samples["pool.compute"]
    master = [
        (span.start, span.end) for span in p.spans
        if span.name in _MASTER_SPANS and span.end is not None
    ]
    m.update({
        "pool.chunks": p.counts["pool.chunks"],
        "pool.failed": p.counts["pool.failed"],
        "pool.chunk_compute_ms_p50": _ms(compute),
        "pool.chunk_wait_ms_p50": _ms(p.samples["pool.wait"]),
        "pool.busy_frac": _ratio(sum(compute), p_wall * workers),
        "chunking.trials_per_chunk": _ratio(p.counts["chunking.trials"], p.counts["chunking.payloads"]),
        "campaign.fold_us": median([
            (span.end - span.start) * 1e6 for span in p.spans
            if span.name == "campaign.fold" and span.end is not None
        ]),
        "campaign.master_busy_frac": _ratio(union_length(master), p_wall),
    })
    adaptive = [row for row in rows if "budget" in row]
    m.update({
        "budget.trials_per_point": _ratio(sum(row["trials"] for row in rows), len(rows)),
        "budget.ceiling_points": sum(
            1 for row in adaptive
            if row["trials"] >= row["budget"]["max_trials"]
            and wilson_width(row["successes"], row["trials"], row["budget"].get("z", 1.96))
            > row["budget"]["ci_width"]
        ),
        "store.append_ms_p50": _ms(p.samples["store.append"]),
        "store.append_ms_p99": _ms(p.samples["store.append"], 99.0),
        "store.lookup_ms_p50": _ms(p.samples["store.lookup"]),
        "store.rows": p.counts["store.rows"],
    })
    hits, misses = p.samples["serve.store"], p.samples["serve.computed"]
    hit_ms = _ms(hits)
    m.update({
        "serve.estimate_hit_ms_p50": hit_ms,
        "serve.estimate_miss_ms_p50": _ms(misses),
        "serve.http_overhead_ms": (client_hit_p50_ms - hit_ms) if client_hit_p50_ms else 0.0,
        "serve.hit_ratio": _ratio(len(hits), len(hits) + len(misses)),
        "coordinator.leases": p.counts["coordinator.leases"],
        "coordinator.lease_us_p50": _ms(p.samples["coordinator.lease"]) * 1e3,
        "coordinator.report_us_p50": _ms(p.samples["coordinator.report"]) * 1e3,
        "coordinator.grant_ratio": _ratio(p.counts["coordinator.granting_calls"],
                                          p.counts["coordinator.lease_calls"]),
        "coordinator.expired": expired,
    })
    return m


def wilson_width(successes, trials, z=1.96):
    """Width of the Wilson score interval (the stop rule's measure)."""
    if trials <= 0:
        return 1.0
    phat = successes / trials
    denom = 1 + z * z / trials
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    center = (phat + z * z / (2 * trials)) / denom
    return min(1.0, center + half) - max(0.0, center - half)
