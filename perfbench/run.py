"""The reproduction's benchmark: four seeded workloads driven through the
entry points users run, end-to-end metrics from untraced runs, and a
separate traced run for per-layer numbers.

    python3 perfbench/run.py --workload ring-grid --seed 1 --seconds 12 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs the same inputs untraced once and then traced in
process (a serial pass for the compute layers, a parallel pass for the
orchestration layers) and reports the per-layer metrics. Either way the
program's outputs are checked, and the last stdout line is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
Run it from the root of a checkout; see perfbench/README.md.
"""

import argparse
import contextlib
import io
import json
import os
import shutil
import signal
import sys
import threading
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from common import (  # noqa: E402
    ROOT, SRC, Ledger, host_record, median, nproc, peak_child_rss_mb, row_trials,
    timing,
)
import drive  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, self_times, union_length  # noqa: E402

#: End-to-end metrics: (name, unit).
END_TO_END = (
    ("setup_s", "s"),
    ("trials_per_s", "trials/s"),
    ("serve_p50_ms", "ms"),
    ("serve_p99_ms", "ms"),
    ("serve_miss_p50_ms", "ms"),
    ("serve_rps", "req/s"),
    ("ok_frac", "ratio"),
    ("peak_rss_mb", "MB"),
)

#: Resume no-ops (or server / coordinator launches) per run; set-up time
#: is their median.
SETUPS = 5


class Context:
    def __init__(self, args, workdir):
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.tiny = args.tiny
        self.workdir = workdir
        self.workers = nproc()
        self.traced = bool(args.trace)
        self.ledger = Ledger()
        self.notes = []

    def path(self, *parts):
        return os.path.join(self.workdir, *parts)

    def note(self, text):
        self.notes.append(text)


# ----------------------------------------------------------------------
# inputs and output checks
# ----------------------------------------------------------------------


def manifest_for(ctx):
    """The workload's campaign manifest (serve-mix: the store's points)."""
    if ctx.workload == "ring-grid":
        return workloads.ring_grid(ctx.seed, trials=2 if ctx.tiny else 12)
    if ctx.workload == "kernel-points":
        return workloads.kernel_points(ctx.seed, points=24 if ctx.tiny else 600)
    if ctx.workload == "sharded-points":
        return workloads.sharded_points(ctx.seed, points=12 if ctx.tiny else 120)
    raise ValueError(ctx.workload)


def _ident(scenario, params):
    return scenario + json.dumps(params, sort_keys=True)


def check_rows(ctx, manifest, lines):
    """Row integrity against the manifest: one row per point, no
    ``timed_out``, outcome counts summing to trials, fixed points at
    their trial count, adaptive points stopped by their rule."""
    ledger = ctx.ledger
    wanted = {}
    for entry in manifest["entries"]:
        wanted[_ident(entry["scenario"], entry["grid"])] = entry
    seen = set()
    for line in lines:
        try:
            row = json.loads(line)
        except ValueError:
            ledger.fail(f"unparsable row: {line[:80]}")
            continue
        entry = wanted.get(_ident(row["scenario"], row["params"]))
        if entry is None:
            # Rows carry resolved params (defaults filled in).
            for candidate in wanted.values():
                if candidate["scenario"] == row["scenario"] and all(
                    row["params"].get(k) == v for k, v in candidate["grid"].items()
                ):
                    entry = candidate
                    break
        key = _ident(row["scenario"], row["params"])
        if not ledger.check(entry is not None and key not in seen, f"unexpected row {key}"):
            continue
        seen.add(key)
        trials = row["trials"]
        ok = not row.get("timed_out") and sum(row["outcomes"].values()) == trials
        budget = entry.get("budget")
        if budget is None:
            ok = ok and trials == manifest["trials"]
        else:
            width = layers.wilson_width(row["successes"], trials)
            ok = ok and budget["min_trials"] <= trials <= budget["max_trials"] and (
                trials == budget["max_trials"] or width <= budget["ci_width"]
            )
        ledger.check(ok, f"bad row {key}: trials={trials}")
    ledger.check(len(seen) == len(wanted), f"{len(wanted) - len(seen)} point(s) without a row")


def same_rows(ctx, reference, lines, what):
    """Sorted rows must match the reference byte for byte; each
    differing row counts as one failed operation."""
    ref, got = sorted(reference), sorted(lines)
    if ref != got:
        differing = len(set(ref) ^ set(got)) or 1
        ctx.ledger.fail(f"{what}: {differing} row(s) differ", count=differing)
        return False
    return True


# ----------------------------------------------------------------------
# untraced measurement (--trace 0)
# ----------------------------------------------------------------------


def measure_campaign(ctx, manifest, suffix):
    """ring-grid / kernel-points: repeated ``repro campaign`` launches,
    each on a fresh output, for ``seconds``; then set-up from resume
    no-ops on the first output."""
    mpath = drive.write_json(ctx.path("manifest.json"), manifest)
    points = len(manifest["entries"])
    reps = []
    first_out = None
    reference = None
    started = time.perf_counter()
    while not reps or time.perf_counter() - started < ctx.seconds:
        rep_dir = drive.fresh_dir(ctx.workdir, f"rep{len(reps)}")
        out = os.path.join(rep_dir, "rows" + suffix)
        ctx.ledger.attempt(points)
        try:
            rows = drive.campaign(mpath, out, rep_dir, ctx.workers)
        except drive.CommandFailed as exc:
            ctx.ledger.fail(str(exc), count=points)
            break
        if reference is None:
            reference = rows.lines
            first_out = out
            check_rows(ctx, manifest, rows.lines)
        else:
            same_rows(ctx, reference, rows.lines, f"repetition {len(reps)}")
        reps.append(rows)
    setups = resume_setups(ctx, mpath, first_out) if first_out else []
    return campaign_metrics(ctx, reps, setups)


def resume_setups(ctx, mpath, out):
    setups = []
    for _ in range(SETUPS):
        ctx.ledger.attempt()
        try:
            setups.append(drive.resume_noop(mpath, out, os.path.dirname(out), ctx.workers))
        except drive.CommandFailed as exc:
            ctx.ledger.fail(str(exc))
    return setups


def campaign_metrics(ctx, reps, setups):
    """End-to-end metrics of a campaign workload. Each grid point is a
    request answered by its row: latency is launch-to-row as the
    benchmark reads stdout, and every point is computed (a miss)."""
    arrivals = [t for rows in reps for t in rows.arrivals]
    lat = timing(arrivals, 1e3)
    tps = [rows.trials / rows.wall for rows in reps if rows.lines]
    rps = [len(rows.lines) / rows.wall for rows in reps if rows.lines]
    ctx.note(f"repetitions: {len(reps)}; rows per repetition: "
             f"{len(reps[0].lines) if reps else 0}; latency samples: {lat['n']} "
             f"(tail = p{lat['pct']:g})")
    return {
        "setup_s": median(setups),
        "trials_per_s": median(tps),
        "serve_p50_ms": lat["p50"],
        "serve_p99_ms": lat["high"],
        "serve_miss_p50_ms": lat["p50"],
        "serve_rps": median(rps),
    }


def measure_sharded(ctx, manifest):
    """sharded-points: repeated coordinated campaigns with ``nproc``
    ``repro node --workers 1`` processes, then one local campaign of the
    same manifest whose rows the sharded rows must equal."""
    mpath = drive.write_json(ctx.path("manifest.json"), manifest)
    points = len(manifest["entries"])
    reps, setups = [], []
    reference = None
    started = time.perf_counter()
    while not reps or time.perf_counter() - started < ctx.seconds:
        rep_dir = drive.fresh_dir(ctx.workdir, f"rep{len(reps)}")
        ctx.ledger.attempt(points)
        try:
            rows, setup, expired, codes = drive.coordinate(
                mpath, os.path.join(rep_dir, "rows.db"), rep_dir, ctx.workers,
                lease_trials=LEASE_TRIALS,
            )
        except drive.CommandFailed as exc:
            ctx.ledger.fail(str(exc), count=points)
            break
        ctx.ledger.attempt(len(codes))
        for code in codes:
            ctx.ledger.check(code == 0, f"node exited {code}")
        if expired:
            ctx.ledger.fail(f"{expired} lease(s) expired", count=expired)
        if reference is None:
            reference = rows.lines
            check_rows(ctx, manifest, rows.lines)
        else:
            same_rows(ctx, reference, rows.lines, f"repetition {len(reps)}")
        reps.append(rows)
        setups.append(setup)
    if reference is not None:
        local_dir = drive.fresh_dir(ctx.workdir, "local")
        try:
            local = drive.campaign(mpath, os.path.join(local_dir, "rows.db"), local_dir, ctx.workers)
            same_rows(ctx, local.lines, reference, "sharded vs local campaign")
        except drive.CommandFailed as exc:
            ctx.ledger.fail(f"local reference: {exc}", count=points)
    return campaign_metrics(ctx, reps, setups)


#: Trials per lease handed to a node in sharded-points (small, so lease
#: round-trips and report folding dominate).
LEASE_TRIALS = 64


def serve_inputs(ctx):
    manifest, requests, server_seed = workloads.serve_mix(
        ctx.seed,
        stored=16 if ctx.tiny else 160,
        requests=120 if ctx.tiny else (SERVE_TRACED_REQUESTS if ctx.traced else 60000),
        miss_every=10 if ctx.tiny else 33,
    )
    return manifest, requests, server_seed


#: Requests in each pass of the traced serve-mix run (a fixed list, so
#: hit ratio and the stored rows repeat exactly).
SERVE_TRACED_REQUESTS = 1500


def populate_store(ctx, manifest):
    """Write the serve-mix store's fixed points with ``repro campaign``;
    returns ``(db_path, stored rows by identity)``."""
    mpath = drive.write_json(ctx.path("store-manifest.json"), manifest)
    base = drive.fresh_dir(ctx.workdir, "store")
    db = os.path.join(base, "store.db")
    rows = drive.campaign(mpath, db, base, ctx.workers)
    check_rows(ctx, manifest, rows.lines)
    stored = {}
    for line in rows.lines:
        row = json.loads(line)
        stored[_ident(row["scenario"], row["params"])] = row
    return db, stored


def copy_store(db, ctx, name):
    target_dir = drive.fresh_dir(ctx.workdir, name)
    target = os.path.join(target_dir, "store.db")
    shutil.copyfile(db, target)
    return target


def check_answers(ctx, requests, answers, stored, exported):
    """Every response must be a 200 matching its stored row: hits the
    pre-populated row, misses the row the miss computed and persisted."""
    computed = {}
    for line in exported:
        row = json.loads(line)
        if "budget" in row:
            computed[(_ident(row["scenario"], row["params"]), row["budget"]["ci_width"])] = row
    ledger = ctx.ledger
    summary = []
    for answer in answers:
        scenario, params, ci_width, cold = requests[answer.index]
        ledger.attempt()
        if not ledger.check(answer.status == 200, f"HTTP {answer.status} for {scenario} {params}"):
            summary.append(None)
            continue
        body = json.loads(answer.body)
        ident = _ident(body["scenario"], body["params"])
        row = computed.get((ident, ci_width)) if cold else stored.get(ident)
        ok = (
            row is not None
            and body["source"] == ("computed" if cold else "store")
            and body["trials"] == row["trials"]
            and body["successes"] == row["successes"]
            and body["satisfied"]
        )
        ledger.check(ok, f"response mismatch for {scenario} {params} @ {ci_width}")
        summary.append((body["source"], body["trials"], body["successes"]))
    return summary


def measure_serve(ctx):
    """serve-mix: ``repro serve`` over a pre-populated store, queried by
    ``nproc`` closed-loop clients for ``seconds``."""
    manifest, requests, server_seed = serve_inputs(ctx)
    db, stored = populate_store(ctx, manifest)
    setups = []
    server = None
    for attempt in range(SETUPS):
        ctx.ledger.attempt()
        try:
            server = drive.Server(db, ctx.workdir, ctx.workers, server_seed)
        except drive.CommandFailed as exc:
            ctx.ledger.fail(str(exc))
            server = None
            continue
        setups.append(server.setup)
        if attempt < SETUPS - 1:
            ctx.ledger.check(server.stop() == 0, "serve did not shut down cleanly")
    if server is None:
        return {"setup_s": median(setups)}
    try:
        answers, wall = drive.closed_loop(
            server.host, server.port, requests, ctx.workers, seconds=ctx.seconds
        )
    finally:
        code = server.stop()
    ctx.ledger.attempt()
    ctx.ledger.check(code == 0, f"serve exited {code}")
    exported = drive.export_rows(db, ctx.workdir)
    check_answers(ctx, requests, answers, stored, exported)
    return serve_metrics(ctx, requests, answers, wall, setups)


def serve_metrics(ctx, requests, answers, wall, setups):
    latencies = [a.latency for a in answers]
    misses = [a for a in answers if requests[a.index][3]]
    miss_trials = sum(json.loads(a.body)["trials"] for a in misses if a.status == 200)
    lat = timing(latencies, 1e3)
    miss = timing([a.latency for a in misses], 1e3)
    hits = [a.latency for a in answers if not requests[a.index][3]]
    ctx.note(f"requests: {lat['n']} (tail = p{lat['pct']:g}); misses: {miss['n']}; "
             f"hit p50 {timing(hits, 1e3)['p50']:.3f} ms; "
             f"max {max(latencies, default=0.0) * 1e3:.1f} ms")
    return {
        "setup_s": median(setups),
        "trials_per_s": miss_trials / wall if wall else 0.0,
        "serve_p50_ms": lat["p50"],
        "serve_p99_ms": lat["high"],
        "serve_miss_p50_ms": miss["p50"],
        "serve_rps": len(answers) / wall if wall else 0.0,
    }


def measure(ctx):
    if ctx.workload == "serve-mix":
        metrics = measure_serve(ctx)
    elif ctx.workload == "sharded-points":
        metrics = measure_sharded(ctx, manifest_for(ctx))
    else:
        suffix = ".jsonl" if ctx.workload == "ring-grid" else ".db"
        metrics = measure_campaign(ctx, manifest_for(ctx), suffix)
    ledger = ctx.ledger
    metrics["ok_frac"] = 1.0 - (ledger.failed / ledger.attempted if ledger.attempted else 1.0)
    metrics["peak_rss_mb"] = peak_child_rss_mb()
    return {name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
            for name, unit in END_TO_END}


# ----------------------------------------------------------------------
# traced run (--trace 1)
# ----------------------------------------------------------------------


class Pass:
    """One in-process pass. Traced passes install the layer wrappers
    (compute layers only when ``compute``) for their duration; every
    pass has a root span whose length is the pass's wall-clock."""

    def __init__(self, name, compute=False, traced=True):
        self.name = name
        self.compute = compute
        self.traced = traced
        self.tracer = Tracer()
        self.wall = 0.0

    def __enter__(self):
        if self.traced:
            if self.compute:
                layers.install_compute(self.tracer)
            layers.install_orchestration(self.tracer)
        self.root = self.tracer.begin(f"bench.{self.name}", "bench", group=self.name)
        return self

    def __exit__(self, *exc_info):
        self.tracer.end(self.root)
        self.tracer.restore()
        self.wall = self.root.end - self.root.start

    @contextlib.contextmanager
    def span(self, name, layer):
        """A span around a lifecycle step the benchmark performs on the
        program's behalf (starting or stopping an in-process server)."""
        span = self.tracer.begin(name, layer)
        try:
            yield
        finally:
            self.tracer.end(span)


def cli_campaign(args):
    """``repro.cli.main(["campaign", ...])`` in process; its row lines."""
    from repro import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(["campaign", *args])
        except SystemExit as exc:
            code = exc.code
    if code not in (0, None):
        raise drive.CommandFailed(f"campaign {args} exited {code}: {err.getvalue()[-300:]}")
    return [line for line in out.getvalue().splitlines() if line.startswith("{")]


def _overhead(what, untraced, traced):
    change = (traced - untraced) / untraced if untraced else 0.0
    return f"{what} untraced {untraced:.4g}, traced {traced:.4g} ({change:+.1%})"


def traced_campaign(ctx, manifest, suffix):
    """The CLI entry point in process, three times on the same manifest:
    untraced at ``nproc`` workers, traced serial, traced at ``nproc``."""
    import repro.cli  # noqa: F401 - imported before any pass is timed

    mpath = drive.write_json(ctx.path("manifest.json"), manifest)
    runs = {}
    for name, workers, traced in (
        ("untraced", ctx.workers, False), ("serial", 1, True), ("parallel", ctx.workers, True),
    ):
        out = os.path.join(drive.fresh_dir(ctx.workdir, name), "rows" + suffix)
        ctx.ledger.attempt(len(manifest["entries"]))
        with Pass(name, compute=workers == 1, traced=traced) as run:
            run.lines = cli_campaign([mpath, "--workers", str(workers), "--out", out])
        runs[name] = run
    untraced, parallel = runs["untraced"], runs["parallel"]
    check_rows(ctx, manifest, untraced.lines)
    for name in ("serial", "parallel"):
        same_rows(ctx, untraced.lines, runs[name].lines, f"traced {name} pass vs untraced")
    trials = row_trials(untraced.lines)
    overhead = _overhead("trials_per_s", trials / untraced.wall, trials / parallel.wall)
    return [runs["serial"], parallel], untraced.lines, overhead, {}


def coordinated_pass(ctx, mpath, name, traced):
    """The coordinator in process (as ``campaign --coordinate`` runs it)
    with ``nproc`` ``repro node --workers 1`` processes."""
    from repro.experiments import (
        CampaignCoordinator, StoreRowWriter, load_manifest, serve_coordinator,
    )

    node_dir = drive.fresh_dir(ctx.workdir, name)
    nodes = []
    with Pass(name, traced=traced) as run:
        coordinator = CampaignCoordinator(
            load_manifest(mpath), lease_trials=LEASE_TRIALS, lease_ttl=20.0
        )
        with contextlib.redirect_stderr(io.StringIO()):
            server, thread = serve_coordinator(coordinator, "127.0.0.1", 0)
        host, port = server.server_address[:2]
        try:
            for index in range(ctx.workers):
                nodes.append(drive.Launched(
                    ("node", "--join", f"{host}:{port}", "--workers", "1",
                     "--poll", "0.02", "--name", f"bench{index}"),
                    node_dir, stdout=False,
                ))
            run.lines = []
            with StoreRowWriter(os.path.join(node_dir, "rows.db")) as writer:
                for result in coordinator.results():
                    run.lines.append(json.dumps(result.to_row(), sort_keys=True))
                    writer.append(run.lines[-1])
            coordinator.await_nodes_done()
        finally:
            with run.span("coordinator.shutdown", "coordinator"):
                server.shutdown()
                server.server_close()
                thread.join(timeout=5)
    ctx.ledger.attempt(len(nodes))
    for node in nodes:
        code = node.stop()
        ctx.ledger.check(code == 0, f"node exited {code}")
    run.expired = expired_leases(coordinator)
    if run.expired:
        ctx.ledger.fail(f"{run.expired} lease(s) expired", count=run.expired)
    return run


def traced_sharded(ctx, manifest):
    """An untraced and a traced coordinated pass, and a traced serial
    local campaign between them (also the local-campaign identity
    check)."""
    import repro.cli  # noqa: F401 - imported before any pass is timed

    mpath = drive.write_json(ctx.path("manifest.json"), manifest)
    points = len(manifest["entries"])
    ctx.ledger.attempt(points)
    untraced = coordinated_pass(ctx, mpath, "untraced", traced=False)
    check_rows(ctx, manifest, untraced.lines)
    ctx.ledger.attempt(points)
    out = os.path.join(drive.fresh_dir(ctx.workdir, "serial"), "rows.db")
    with Pass("serial", compute=True) as serial:
        serial.lines = cli_campaign([mpath, "--workers", "1", "--out", out])
    same_rows(ctx, untraced.lines, serial.lines, "local serial campaign vs sharded")
    ctx.ledger.attempt(points)
    parallel = coordinated_pass(ctx, mpath, "parallel", traced=True)
    same_rows(ctx, untraced.lines, parallel.lines, "traced coordinated pass vs untraced")
    trials = row_trials(untraced.lines)
    overhead = _overhead("trials_per_s", trials / untraced.wall, trials / parallel.wall)
    return [serial, parallel], untraced.lines, overhead, {"expired": parallel.expired}


def expired_leases(coordinator):
    for line in coordinator.metrics.render().splitlines():
        if line.startswith("repro_leases_expired_total"):
            return int(float(line.split()[-1]))
    return 0


def serve_pass(ctx, db, requests, server_seed, name, workers, traced):
    """The estimate service in process (as ``repro serve`` builds it) on
    its own copy of the store, queried by closed-loop client threads."""
    from repro.experiments.store import ResultStore
    from repro.serve import EstimateService, make_server

    store = ResultStore(copy_store(db, ctx, name))
    with Pass(name, compute=workers == 1, traced=traced) as run:
        with run.span("serve.start", "serve"):
            service = EstimateService(store, workers=workers, base_seed=server_seed)
            server = make_server(service)
            thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
            thread.start()
        try:
            host, port = server.server_address[:2]
            run.answers, _ = drive.closed_loop(
                host, port, requests, ctx.workers,
                tracer=run.tracer if traced else None, parent=run.root,
            )
        finally:
            with run.span("serve.stop", "serve"):
                server.shutdown()
                server.server_close()
                thread.join(timeout=5)
                service.close()
    run.rows = [line.rstrip("\n") for line in store.export_lines()]
    store.close()
    return run


def traced_serve(ctx):
    """``repro serve`` untraced as a subprocess (the answers every pass
    must reproduce, and the client-side hit latency), then the service
    in process: untraced, traced serial, traced at ``nproc`` workers."""
    import repro.serve  # noqa: F401 - imported before any pass is timed

    manifest, requests, server_seed = serve_inputs(ctx)
    db, stored = populate_store(ctx, manifest)
    ref_db = copy_store(db, ctx, "reference")
    server = drive.Server(ref_db, ctx.workdir, ctx.workers, server_seed)
    try:
        answers_ref, _ = drive.closed_loop(server.host, server.port, requests, ctx.workers)
    finally:
        code = server.stop()
    ctx.ledger.attempt()
    ctx.ledger.check(code == 0, f"serve exited {code}")
    rows_ref = drive.export_rows(ref_db, ctx.workdir)
    expected = dict(zip(
        (a.index for a in answers_ref), check_answers(ctx, requests, answers_ref, stored, rows_ref)
    ))
    runs = {}
    for name, workers, traced in (
        ("untraced", ctx.workers, False), ("serial", 1, True), ("parallel", ctx.workers, True),
    ):
        run = runs[name] = serve_pass(ctx, db, requests, server_seed, name, workers, traced)
        summary = check_answers(ctx, requests, run.answers, stored, run.rows)
        same_rows(ctx, rows_ref, run.rows, f"store after {name} pass vs reference")
        for answer, item in zip(run.answers, summary):
            ctx.ledger.check(expected.get(answer.index) == item,
                             f"{name} answer {answer.index} differs from the reference")
    p50 = {
        name: median([a.latency for a in run.answers]) * 1e3 for name, run in runs.items()
    }
    hits = [a.latency for a in answers_ref if not requests[a.index][3]]
    computed = [line for line in rows_ref if '"budget"' in line]
    overhead = _overhead("serve_p50_ms", p50["untraced"], p50["parallel"])
    return [runs["serial"], runs["parallel"]], computed, overhead, {
        "client_hit_p50_ms": median(hits) * 1e3 if hits else None,
    }


def trace(ctx):
    if ctx.workload == "serve-mix":
        passes, rows, overhead, extra = traced_serve(ctx)
    elif ctx.workload == "sharded-points":
        passes, rows, overhead, extra = traced_sharded(ctx, manifest_for(ctx))
    else:
        suffix = ".jsonl" if ctx.workload == "ring-grid" else ".db"
        passes, rows, overhead, extra = traced_campaign(ctx, manifest_for(ctx), suffix)
    serial, parallel = passes
    s_rows = serial.tracer.counts["store.rows"]
    p_rows = parallel.tracer.counts["store.rows"]
    ctx.ledger.check(s_rows == p_rows, f"store.rows differs between passes: {s_rows} vs {p_rows}")
    metrics = layers.compute_metrics(
        (serial.tracer, serial.wall), (parallel.tracer, parallel.wall),
        [json.loads(line) for line in rows], ctx.workers,
        client_hit_p50_ms=extra.get("client_hit_p50_ms"), expired=extra.get("expired", 0),
    )
    report_trace(ctx, passes, overhead)
    units = {name: unit for name, unit, *_ in layers.METRICS}
    return {name: {"value": float(metrics[name]), "unit": units[name]} for name in units}


def report_trace(ctx, passes, overhead):
    """Print the per-layer self-time summary and span coverage, and write
    the spans out as a Chrome trace."""
    print(f"tracing overhead: {overhead}")
    for run in passes:
        spans = [s for s in run.tracer.spans if s.end is not None]
        covered = union_length([
            (s.start, s.end) for s in spans
            if s is not run.root and s.parent in (None, run.root.id)
        ])
        selfs = self_times(spans)
        print(f"{run.name} pass: wall {run.wall:.3f} s, {len(spans)} spans, "
              f"coverage {covered / run.wall if run.wall else 0:.3f}")
        concurrent = {s.layer for s in spans if s.name == "pool.chunk"}
        for layer in sorted(set(layers.LAYERS) | set(selfs), key=lambda l: -selfs.get(l, 0.0)):
            seconds = selfs.get(layer, 0.0)
            share = seconds / run.wall if run.wall else 0.0
            mark = "  (summed over concurrent chunks in flight)" if layer in concurrent else ""
            print(f"  self {layer:<12} {seconds:9.4f} s  {share:6.1%}{mark}")
    trace_dir = os.path.join(ROOT, ".perfbench", "traces")
    os.makedirs(trace_dir, exist_ok=True)
    for run in passes:
        run.tracer.dump(os.path.join(trace_dir, f"{ctx.workload}-s{ctx.seed}-{run.name}.json"))


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs for the self-test (not for measurement)")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    # A launcher that ignores SIGINT (a background job of a
    # non-interactive shell) would pass that on to every child, and the
    # servers this benchmark stops with Ctrl-C semantics would then only
    # die to SIGKILL. A handled signal is reset to default on exec.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program source at {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    host = host_record()
    print("host " + json.dumps(host, sort_keys=True))
    base = os.path.join(ROOT, ".perfbench")
    os.makedirs(base, exist_ok=True)
    workdir = os.path.join(base, f"run-{os.getpid()}-{time.time_ns()}")
    os.makedirs(workdir)
    ctx = Context(args, workdir)
    try:
        metrics = trace(ctx) if args.trace else measure(ctx)
    except Exception as exc:  # noqa: BLE001 - reported, not swallowed
        # Reported as a failed run with every metric at zero, so the
        # failure is visible rather than a missing result.
        traceback.print_exc()
        ctx.ledger.attempt()
        ctx.ledger.fail(f"{type(exc).__name__}: {exc}")
        names = layers.METRICS if args.trace else END_TO_END
        metrics = {m[0]: {"value": 0.0, "unit": m[1]} for m in names}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    ledger = ctx.ledger
    for note in ctx.notes:
        print(note)
    for message in ledger.messages:
        print(f"FAILED: {message}")
    print(f"failed_frac {ledger.failed / max(1, ledger.attempted):.6f} "
          f"({ledger.failed} of {ledger.attempted})")
    for name, entry in metrics.items():
        print(f"{name} {entry['value']:.6g} {entry['unit']}")
    attempted = max(1, ledger.attempted)
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
