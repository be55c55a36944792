"""Shared helpers: percentiles, the host record, subprocess environment,
peak RSS, and the failure ledger every workload reports through."""

import json
import os
import platform
import resource
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: Percentiles tried from the top down; a timing reports the highest one
#: with at least ten samples beyond it.
PERCENTILES = (99.0, 95.0, 90.0, 75.0, 50.0)


def row_trials(lines):
    """Total trials over JSON row lines."""
    return sum(json.loads(line)["trials"] for line in lines)


def nproc():
    return os.cpu_count() or 1


def median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, pct):
    """Nearest-rank percentile of ``values`` (which must be non-empty)."""
    ordered = sorted(values)
    rank = max(1, min(len(ordered), round(pct / 100.0 * len(ordered) + 0.5)))
    return ordered[rank - 1]


def tail(values):
    """``(pct, value)``: the highest percentile in :data:`PERCENTILES`
    with at least ten samples beyond it (p50 if there are too few)."""
    for pct in PERCENTILES:
        if len(values) * (1.0 - pct / 100.0) >= 10:
            return pct, percentile(values, pct)
    return 50.0, median(values)


def timing(values, scale=1.0):
    """A timing summary: median, tail percentile and sample count."""
    pct, high = tail(values) if values else (50.0, 0.0)
    return {"p50": median(values) * scale, "pct": pct, "high": high * scale, "n": len(values)}


def child_env(workdir):
    """Environment for entry-point subprocesses: the checkout's ``src``
    on the path, temp files kept inside the run directory, and
    unbuffered stdout so rows reach the benchmark as they are emitted."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONUNBUFFERED"] = "1"
    env["TMPDIR"] = workdir
    return env


def repro_cmd(*args):
    return [sys.executable, "-m", "repro", *args]


def peak_child_rss_mb():
    """Peak RSS of the largest reaped descendant (``ru_maxrss`` of
    RUSAGE_CHILDREN covers the whole waited-for subtree on Linux)."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def host_record():
    """nproc, Python, numpy and the git commit (``unknown`` outside a
    git checkout)."""
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    try:
        # The ceiling keeps git from reporting an enclosing repository's
        # commit when the checkout itself is not a git repository.
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)),
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": commit,
    }


class Ledger:
    """Attempted and failed operations, with the first few failure
    messages kept for the report."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def attempt(self, count=1):
        self.attempted += count

    def fail(self, message, count=1):
        self.failed += count
        if len(self.messages) < 20:
            self.messages.append(message)

    def check(self, ok, message):
        """A false ``ok`` fails one operation (already attempted)."""
        if not ok:
            self.fail(message)
        return ok
