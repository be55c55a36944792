"""Drive the program through the entry points users run: ``repro
campaign``, ``repro serve`` over HTTP, and ``campaign --coordinate``
with ``repro node`` processes. Everything here is untraced; the
benchmark only launches commands, reads their output and times it."""

import json
import os
import re
import socket
import struct
import subprocess
import threading
import time
import urllib.parse

from common import child_env, repro_cmd, row_trials

#: How long any one entry-point command may run before the benchmark
#: gives up on it (the whole run must end within 180 s).
COMMAND_TIMEOUT = 120.0


class CommandFailed(Exception):
    """An entry point exited non-zero or never became ready."""


def _stop(proc, timeout=30.0):
    """Interrupt ``proc`` (Ctrl-C semantics), escalating to kill."""
    if proc.poll() is None:
        proc.send_signal(2)
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


_ADDRESS = re.compile(r"http://([\d.]+):(\d+)")


class Launched:
    """One entry-point process, its output read from launch on: stdout
    lines with their arrival time (seconds after launch) and stderr,
    scanned for the ``http://HOST:PORT`` a server announces."""

    def __init__(self, args, workdir, stdout=True):
        self.started = time.perf_counter()
        self.lines, self.arrivals, self.err = [], [], []
        self.address = None
        self._announced = threading.Event()
        self.proc = subprocess.Popen(
            repro_cmd(*args),
            stdout=subprocess.PIPE if stdout else subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, env=child_env(workdir), cwd=workdir,
        )
        self._threads = [threading.Thread(target=self._read_err, daemon=True)]
        if stdout:
            self._threads.append(threading.Thread(target=self._read_out, daemon=True))
        for thread in self._threads:
            thread.start()

    def _read_out(self):
        for line in self.proc.stdout:
            self.arrivals.append(time.perf_counter() - self.started)
            self.lines.append(line.rstrip("\n"))

    def _read_err(self):
        for line in self.proc.stderr:
            self.err.append(line)
            if self.address is None:
                match = _ADDRESS.search(line)
                if match:
                    self.address = (match.group(1), int(match.group(2)))
                    self._announced.set()
        self._announced.set()

    def wait_address(self, timeout=30.0):
        self._announced.wait(timeout)
        if self.address is None:
            raise CommandFailed(f"no listen address announced: {self.stderr_tail()}")
        return self.address

    def stderr_tail(self):
        return "".join(self.err[-5:]).strip()

    def finish(self, what, timeout=COMMAND_TIMEOUT):
        """Wait for exit; the process's rows, or :class:`CommandFailed`."""
        try:
            code = self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            raise CommandFailed(f"{what} timed out after {timeout:.0f} s") from None
        wall = time.perf_counter() - self.started
        for thread in self._threads:
            thread.join(timeout=10)
        if code != 0:
            raise CommandFailed(f"{what} exited {code}: {self.stderr_tail()}")
        return Rows(self.lines, self.arrivals, wall, "".join(self.err))

    def stop(self):
        _stop(self.proc)
        for thread in self._threads:
            thread.join(timeout=10)
        return self.proc.returncode


class Rows:
    """One campaign command's output: the row lines it printed, when
    each arrived (seconds after launch), and its wall-clock."""

    def __init__(self, lines, arrivals, wall, stderr):
        self.lines = lines
        self.arrivals = arrivals
        self.wall = wall
        self.stderr = stderr

    @property
    def trials(self):
        return row_trials(self.lines)


def campaign(manifest, out, workdir, workers, extra=()):
    """``repro campaign manifest --out out --workers N``."""
    launched = Launched(
        ("campaign", manifest, "--out", out, "--workers", str(workers), *extra), workdir
    )
    try:
        return launched.finish("campaign")
    finally:
        launched.stop()


def resume_noop(manifest, out, workdir, workers):
    """Wall seconds of the campaign command on an output that already
    holds every row: the command's start-up and resume bookkeeping."""
    rows = campaign(manifest, out, workdir, workers, extra=("--resume",))
    if rows.lines:
        raise CommandFailed(f"resume no-op emitted {len(rows.lines)} rows")
    return rows.wall


# ----------------------------------------------------------------------
# campaign --coordinate + repro node
# ----------------------------------------------------------------------


def coordinate(manifest, out, workdir, nodes, lease_trials, lease_ttl=20.0, poll=0.02):
    """Run a coordinated campaign with ``nodes`` ``repro node --workers 1``
    processes. Returns ``(rows, setup_seconds, expired_leases, node_codes)``
    where set-up runs from the coordinator's launch until every node has
    registered."""
    coord = Launched(
        ("campaign", manifest, "--out", out, "--coordinate",
         "--listen", "127.0.0.1:0", "--lease-trials", str(lease_trials),
         "--lease-ttl", str(lease_ttl)),
        workdir,
    )
    workers = []
    try:
        host, port = coord.wait_address()
        for index in range(nodes):
            workers.append(Launched(
                ("node", "--join", f"{host}:{port}", "--workers", "1",
                 "--poll", str(poll), "--name", f"bench{index}"),
                workdir, stdout=False,
            ))
        while True:
            status, body = http_get(host, port, "/status")
            if status == 200 and len(json.loads(body)["nodes"]) >= nodes:
                setup = time.perf_counter() - coord.started
                break
            if time.perf_counter() - coord.started > 30:
                raise CommandFailed("nodes never registered")
            time.sleep(0.01)
        expired = [0]
        watcher = threading.Thread(
            target=_watch_expiries, args=(host, port, coord.proc, expired), daemon=True
        )
        watcher.start()
        rows = coord.finish("campaign --coordinate")
        watcher.join(timeout=10)
        codes = []
        for node in workers:
            try:
                codes.append(node.proc.wait(timeout=30))
            except subprocess.TimeoutExpired:
                codes.append(None)
    finally:
        for node in workers:
            node.stop()
        coord.stop()
    return rows, setup, expired[0], codes


_EXPIRED = re.compile(r"^repro_leases_expired_total(?:\{[^}]*\})?\s+([0-9.e+]+)$", re.M)


def _watch_expiries(host, port, proc, expired):
    """Scrape the coordinator's expired-lease counter until it exits."""
    while proc.poll() is None:
        try:
            status, body = http_get(host, port, "/metrics")
        except OSError:
            return
        if status == 200:
            values = _EXPIRED.findall(body.decode("utf-8"))
            if values:
                expired[0] = max(expired[0], int(float(values[0])))
        time.sleep(0.25)


# ----------------------------------------------------------------------
# repro serve + closed-loop HTTP clients
# ----------------------------------------------------------------------


class Server:
    """``repro serve --db`` as a subprocess; ``setup`` is the time from
    launch until ``/healthz`` answers."""

    def __init__(self, db, workdir, workers, seed):
        self.launched = Launched(
            ("serve", "--db", db, "--port", "0", "--workers", str(workers),
             "--seed", str(seed)),
            workdir, stdout=False,
        )
        try:
            self.host, self.port = self.launched.wait_address()
            while True:
                try:
                    status, _ = http_get(self.host, self.port, "/healthz")
                    if status == 200:
                        break
                except OSError:
                    pass
                if time.perf_counter() - self.launched.started > 30:
                    raise CommandFailed("serve never became healthy")
                time.sleep(0.002)
            self.setup = time.perf_counter() - self.launched.started
        except BaseException:
            self.stop()
            raise

    def stop(self):
        """Interrupt the server; its exit code (0 on a clean shutdown)."""
        return self.launched.stop()


def estimate_path(scenario, params, ci_width):
    query = [("scenario", scenario), ("ci_width", repr(ci_width))]
    query += [(key, str(value)) for key, value in sorted(params.items())]
    return "/estimate?" + urllib.parse.urlencode(query)


class Answer:
    __slots__ = ("index", "latency", "status", "body")

    def __init__(self, index, latency, status, body):
        self.index = index
        self.latency = latency
        self.status = status
        self.body = body


def http_get(host, port, path, headers=None):
    """One HTTP/1.0 GET on a fresh connection (the server closes it after
    the response); a raw socket keeps the client's own cost small next
    to the server's. Returns ``(status, body)``.

    The socket closes with a zero linger (a reset instead of a FIN), so
    the server's side of the connection ends without a TIME_WAIT entry:
    tens of thousands of connections a run would otherwise fill the
    kernel's TIME_WAIT table and collide on reused client ports, which
    stalls connects for a second or more."""
    request = f"GET {path} HTTP/1.0\r\nHost: {host}\r\n{headers or ''}\r\n"
    chunks = []
    with socket.create_connection((host, port), timeout=60) as sock:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        sock.sendall(request.encode("ascii"))
        while True:
            data = sock.recv(65536)
            if not data:
                break
            chunks.append(data)
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    status = head.split(b" ", 2)[1:2]
    if not status or not status[0].isdigit():
        raise ValueError(f"malformed HTTP response {head[:40]!r}")
    return int(status[0]), body


def closed_loop(host, port, requests, clients, seconds=None, tracer=None, parent=None):
    """``clients`` threads each send their next request only after the
    previous answer arrived, drawing from one shared ordered list, until
    the list is used up or ``seconds`` have passed. Returns the answers
    (client-measured latency in seconds) and the loop's wall-clock.

    With a ``tracer`` (the in-process traced run) each request is a
    ``client.request`` span under ``parent``, and its id travels in a
    header so the server-side span can name it as its parent."""
    paths = [estimate_path(s, p, w) for s, p, w, _ in requests]
    answers = []
    cursor = [0]
    lock = threading.Lock()
    started = time.perf_counter()
    stop_at = None if seconds is None else started + seconds

    def client():
        while True:
            with lock:
                index = cursor[0]
                if index >= len(paths) or (stop_at and time.perf_counter() >= stop_at):
                    return
                cursor[0] += 1
            span = headers = None
            if tracer is not None:
                span = tracer.begin("client.request", "client", group=f"req:{index}",
                                    parent=parent.id)
                headers = f"X-Perfbench-Span: {span.id}\r\n"
            sent = time.perf_counter()
            try:
                status, body = http_get(host, port, paths[index], headers)
            except (OSError, ValueError) as exc:
                status, body = 0, str(exc).encode()
            answer = Answer(index, time.perf_counter() - sent, status, body)
            if span is not None:
                tracer.end(span)
            with lock:
                answers.append(answer)

    threads = [threading.Thread(target=client) for _ in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return answers, time.perf_counter() - started


def export_rows(db, workdir):
    """The store's rows via ``repro db export`` (one JSON line each)."""
    out = db + ".export.jsonl"
    proc = subprocess.run(
        repro_cmd("db", "export", db, "--out", out), capture_output=True, text=True,
        env=child_env(workdir), cwd=workdir, timeout=COMMAND_TIMEOUT,
    )
    if proc.returncode != 0:
        raise CommandFailed(f"db export exited {proc.returncode}: {proc.stderr.strip()}")
    with open(out) as handle:
        return [line.rstrip("\n") for line in handle if line.strip()]


def write_json(path, data):
    with open(path, "w") as handle:
        json.dump(data, handle)
    return path


def fresh_dir(parent, name):
    path = os.path.join(parent, name)
    os.makedirs(path, exist_ok=True)
    return path
