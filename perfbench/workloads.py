"""Seeded inputs for the four benchmark workloads.

Every generator takes the workload seed and returns plain JSON-ready
data (campaign manifests, request lists). The seed varies base seeds,
targets and parameter draws; the *cost-determining* shape of each
workload (ring sizes, point counts, budgets) is fixed, so runs on
different seeds measure the same amount of work.

All generated parameters are valid for their scenario: a failure during
a run is the program's fault, never the generator's.
"""

import random

#: Ring scenarios of the A-LEADuni family exercised by ``ring-grid``.
#: ``attack/equal-spacing`` needs n = k^2 with k = isqrt(n) (every
#: honest segment k-1 long), so it gets its own ring sizes.
RING_SIZES = (32, 40, 48, 56, 64, 80, 96, 112, 128)
SQUARE_SIZES = (36, 49, 64, 81, 100, 121)
RING_SCENARIOS = (
    "honest/alead-uni",
    "attack/basic-cheat",
    "attack/equal-spacing",
    "attack/cubic",
    "attack/partial-sum",
    "honest/phase-async",
)


def ring_grid(seed, trials=12):
    """A fixed-trials grid of executor-backed ring points (51 points),
    in scenario-major order: the seed draws targets and the base seed."""
    rng = random.Random(f"ring-grid:{seed}")
    entries = []
    for scenario in RING_SCENARIOS:
        sizes = SQUARE_SIZES if scenario == "attack/equal-spacing" else RING_SIZES
        for n in sizes:
            grid = {"n": n}
            if scenario.startswith("attack/"):
                grid["target"] = rng.randint(1, n)
            entries.append({"scenario": scenario, "grid": grid})
    return {"trials": trials, "base_seed": rng.randrange(2**31), "entries": entries}


def _kernel_params(rng):
    """One (scenario, params) draw from the run_batch families, plus a
    few cheap executor/sync scenarios."""
    roll = rng.random()
    if roll < 0.16:
        n = rng.randint(4, 16)
        return "cointoss/biased-coin", {
            "n": n, "cheater": rng.randint(1, n), "target": rng.randint(1, n),
        }
    if roll < 0.28:
        return "cointoss/fle-coin", {"n": rng.randint(4, 32)}
    if roll < 0.36:
        return "cointoss/coin-fle", {"n": rng.choice((4, 8, 16, 32))}
    if roll < 0.46:
        return "blocks/fair-consensus", {"n": rng.randint(3, 10)}
    if roll < 0.56:
        return "blocks/fair-renaming", {"n": rng.randint(3, 10)}
    if roll < 0.72:
        n = rng.randint(16, 128)
        return "fullinfo/baton", {"n": n, "k": rng.randint(1, n // 4)}
    if roll < 0.80:
        n = rng.choice((3, 5, 7, 9))
        return "fullinfo/sequential-coin", {
            "game": rng.choice(("majority", "parity")),
            "n": n, "k": rng.randint(1, n - 1), "target": rng.randint(0, 1),
        }
    if roll < 0.94:
        return "placement/random-segments", {"n": rng.randint(64, 512)}
    if roll < 0.97:
        return rng.choice(("sync/broadcast", "sync/ring")), {"n": rng.randint(4, 8)}
    return "fuzz/random-deviation", {"n": rng.randint(9, 16), "k": rng.randint(2, 3)}


def _miss_params(rng):
    """A cold-miss draw: large-domain batch-kernel families at small
    sizes, so misses stay cold over a long request list and each costs
    a few milliseconds."""
    roll = rng.random()
    if roll < 0.5:
        n = rng.randint(8, 64)
        return "cointoss/biased-coin", {
            "n": n, "cheater": rng.randint(1, n), "target": rng.randint(1, n),
        }
    if roll < 0.75:
        n = rng.randint(16, 64)
        return "fullinfo/baton", {"n": n, "k": rng.randint(1, n // 4)}
    return "placement/random-segments", {"n": rng.randint(64, 256)}


def _adaptive_points(rng, count, max_trials):
    seen = set()
    entries = []
    while len(entries) < count:
        scenario, params = _kernel_params(rng)
        ident = (scenario, tuple(sorted(params.items())))
        if ident in seen:
            continue
        seen.add(ident)
        entries.append({
            "scenario": scenario,
            "grid": params,
            "budget": {
                "ci_width": rng.choice((0.08, 0.1, 0.12, 0.15, 0.2)),
                "min_trials": 32,
                "max_trials": max_trials,
            },
        })
    return entries


def kernel_points(seed, points=600):
    """Hundreds of small adaptive wilson-width points."""
    rng = random.Random(f"kernel-points:{seed}")
    entries = _adaptive_points(rng, points, max_trials=2048)
    return {"base_seed": rng.randrange(2**31), "entries": entries}


def sharded_points(seed, points=120):
    """A smaller manifest shaped like ``kernel-points``, for leases."""
    rng = random.Random(f"sharded-points:{seed}")
    entries = _adaptive_points(rng, points, max_trials=2048)
    return {"base_seed": rng.randrange(2**31), "entries": entries}


def serve_mix(seed, stored=160, requests=4000, miss_every=33):
    """A pre-populated store plus a seeded request list.

    Returns ``(manifest, requests, server_seed)``. The manifest's fixed
    points are what the benchmark writes to the store before ``serve``
    starts; each request is ``(scenario, params, ci_width, cold)``.
    Hits ask for a width the stored row already satisfies; about one in
    ``miss_every`` requests is a cold miss on a point no row covers,
    each cold point used once so it stays cold.
    """
    rng = random.Random(f"serve-mix:{seed}")
    entries = []
    seen = set()
    while len(entries) < stored:
        scenario, params = _kernel_params(rng)
        ident = (scenario, tuple(sorted(params.items())))
        if ident in seen:
            continue
        seen.add(ident)
        entries.append({"scenario": scenario, "grid": params})
    manifest = {"trials": 512, "base_seed": rng.randrange(2**31), "entries": entries}
    reqs = []
    while len(reqs) < requests:
        if rng.randrange(miss_every) == 0:
            scenario, params = _miss_params(rng)
            ident = (scenario, tuple(sorted(params.items())))
            if ident in seen:
                continue
            seen.add(ident)
            reqs.append((scenario, params, rng.choice((0.1, 0.12, 0.15)), True))
        else:
            entry = rng.choice(entries)
            # 512 trials put every stored Wilson width under 0.087.
            reqs.append((entry["scenario"], entry["grid"], rng.choice((0.1, 0.15, 0.2)), False))
    return manifest, reqs, rng.randrange(2**31)


#: The workload names, in the order BENCHMARK.json lists them.
WORKLOADS = ("ring-grid", "kernel-points", "serve-mix", "sharded-points")
