"""Shared pieces of the benchmark runner.

* seeded inputs (zipf picks, Poisson arrivals) — the program only ever
  sees what these generate, and the same seed generates the same
  inputs;
* the percentile rule: a percentile is reported only when at least
  ten samples lie beyond it;
* the open-loop load generator (two streams, one connection each) and
  its slip record;
* process CPU from ``/proc``;
* ``serve-remote`` subprocesses: spawn (plain, or traced through
  ``launcher.py``), stop, kill.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import math
import os
import random
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: The open-loop generator is valid only while it keeps its schedule:
#: a run whose p99 start slip exceeds this is refused, not reported.
SLIP_P99_BOUND_MS = 25.0
#: The traced run's spans must account for the client-measured time
#: of its calls to within this share (the rest is "trace.residual").
DECOMPOSITION_TOLERANCE = 0.15
#: A percentile needs this many samples beyond it to be reported.
TAIL_SAMPLES = 10
LISTEN_MARKER = "SL-Remote listening on "


# ----------------------------------------------------------------------
# Seeded inputs
# ----------------------------------------------------------------------
class ZipfPicker:
    """Zipf(s) picks over ``n`` ranks (rank 0 most popular)."""

    def __init__(self, rng: random.Random, n: int, s: float) -> None:
        weights = [1.0 / (rank + 1) ** s for rank in range(n)]
        total = sum(weights)
        cumulative, running = [], 0.0
        for weight in weights:
            running += weight / total
            cumulative.append(running)
        cumulative[-1] = 1.0
        self._cumulative = cumulative
        self._rng = rng

    def pick(self) -> int:
        return bisect.bisect_left(self._cumulative, self._rng.random())


def poisson_arrivals(rng: random.Random, rate: float,
                     seconds: float) -> List[float]:
    """Offsets (s) of a Poisson process at ``rate``/s over ``seconds``."""
    arrivals, t = [], 0.0
    while True:
        t += rng.expovariate(rate)
        if t >= seconds:
            return arrivals
        arrivals.append(t)


def stream_seed(seed: int, label: str) -> int:
    """Independent, reproducible sub-seed for one input stream."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


# ----------------------------------------------------------------------
# Percentiles
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of ``values`` (``p`` in 0..100)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_ok(samples: int, p: float) -> bool:
    """True when at least ``TAIL_SAMPLES`` samples lie beyond ``p``."""
    return samples - math.ceil(p / 100.0 * samples) >= TAIL_SAMPLES


def tail_percentile(samples: int) -> Optional[float]:
    """The highest of p99/p98/p95/p90 with enough samples beyond it."""
    for p in (99.0, 98.0, 95.0, 90.0):
        if tail_ok(samples, p):
            return p
    return None


def latency_lines(kinds: Dict[str, List[float]]) -> Dict[str, tuple]:
    """``{kind}_p50_ms`` and the highest supported tail per call kind,
    as ``name -> (value, unit, samples)``."""
    lines = {}
    for kind, values in kinds.items():
        if not values:
            continue
        lines[f"{kind}_p50_ms"] = (percentile(values, 50), "ms", len(values))
        p = tail_percentile(len(values))
        if p is not None:
            lines[f"{kind}_p{p:.0f}_ms"] = (percentile(values, p), "ms",
                                           len(values))
    return lines


def slip_check(slips_ms: Sequence[float]) -> tuple:
    """``(slip p99, problem or None)``: the load generator's validity gate."""
    slip = percentile(slips_ms, 99) if slips_ms else 0.0
    if slip <= SLIP_P99_BOUND_MS:
        return slip, None
    return slip, (f"generator slip p99 {slip:.1f} ms exceeds the "
                  f"{SLIP_P99_BOUND_MS} ms bound: the load generator, not "
                  f"the system, set the pace")


@dataclass(frozen=True)
class Scale:
    """How much of each kind of repetition a run makes."""

    setups: int = 3
    restarts: int = 3
    #: Gate the numbers: a traced run's spans must add up (off for
    #: smoke runs, which prove the plumbing, not the numbers).
    strict: bool = True


FULL = Scale()
SMOKE = Scale(setups=1, restarts=1, strict=False)


# ----------------------------------------------------------------------
# CPU
# ----------------------------------------------------------------------
_TICKS = os.sysconf("SC_CLK_TCK")


def cpu_seconds(pid: Optional[int] = None) -> float:
    """utime + stime of a process (self when ``pid`` is None)."""
    if pid is None:
        return time.process_time()
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    # fields[0] is state (stat field 3): utime/stime are fields 14/15.
    return (int(fields[11]) + int(fields[12])) / _TICKS


class CpuMeter:
    """CPU seconds of the runner and a set of server pids over a phase."""

    def __init__(self, pids: Sequence[int]) -> None:
        self.pids = list(pids)
        self._start = self._read()
        self._wall = time.perf_counter()

    def _read(self):
        return cpu_seconds(), sum(cpu_seconds(pid) for pid in self.pids)

    def stop(self) -> Dict[str, float]:
        runner, server = self._read()
        wall = time.perf_counter() - self._wall
        return {"wall_s": wall,
                "runner_cpu_s": runner - self._start[0],
                "server_cpu_s": server - self._start[1]}


def system_cpu_ms_per_op(open_cpu: Dict[str, float], open_ops: int,
                         closed: Dict) -> float:
    """CPU ms per completed operation over both load phases: the server
    processes plus the runner, whose share is the client library (and
    a load generator that mostly sleeps)."""
    spent = sum(phase["server_cpu_s"] + phase["runner_cpu_s"]
                for phase in (open_cpu, closed["cpu"]))
    return 1e3 * spent / max(1, open_ops + closed["completed"])


# ----------------------------------------------------------------------
# Open-loop generator
# ----------------------------------------------------------------------
@dataclass
class OpenLoopResult:
    latencies_ms: Dict[str, List[float]]
    service_ms: List[float]
    slips_ms: List[float]
    attempted: int
    failed: int
    errors: List[str]


def run_open_loop(streams: Sequence[Sequence[tuple]],
                  execute: Callable[[int, tuple], Dict[str, float]],
                  start_at: float) -> OpenLoopResult:
    """Run one thread per stream; each keeps its own schedule.

    ``streams[i]`` is a list of ``(offset_s, *op)`` tuples (offset
    from ``start_at``, a ``time.perf_counter`` instant).  ``execute(i,
    op)`` performs one operation on stream ``i``'s connection and
    returns ``{kind: start_to_end_ms}`` for each timed call in it (a
    renew+return pair is one kind; a lifecycle has several).  A call's
    latency is counted from when it was *due* (the operation's due
    time plus the time its earlier calls took), so a stall delays
    every later call's clock.  Slip is how late the generator started
    an operation it was free to start: ``start - max(due, previous
    end)`` — the generator's own lateness, not the system's backlog.
    Failures (exceptions or a falsy result) are counted, not timed.
    """
    latencies: Dict[str, List[float]] = {}
    service: List[float] = []
    slips: List[float] = []
    errors: List[str] = []
    counts = {"attempted": 0, "failed": 0}
    lock = threading.Lock()

    def worker(index: int, ops: Sequence[tuple]) -> None:
        free_at = start_at
        for op in ops:
            due = start_at + op[0]
            now = time.perf_counter()
            if now < due:
                time.sleep(due - now)
            begin = time.perf_counter()
            slip = (begin - max(due, free_at)) * 1e3
            try:
                timed = execute(index, op[1:])
                ok = bool(timed)
            except Exception as exc:  # noqa: BLE001 - counted as failed
                timed, ok = None, False
                with lock:
                    errors.append(f"{type(exc).__name__}: {exc}")
            end = time.perf_counter()
            free_at = end
            with lock:
                counts["attempted"] += 1
                slips.append(slip)
                if not ok:
                    counts["failed"] += 1
                    continue
                service.append((end - begin) * 1e3)
                # Each call is charged from its due instant: the
                # operation's lateness plus the calls before it.
                late = (begin - due) * 1e3
                for kind, elapsed in timed.items():
                    latencies.setdefault(kind, []).append(late + elapsed)
                    late += elapsed

    threads = [threading.Thread(target=worker, args=(i, ops), daemon=True)
               for i, ops in enumerate(streams)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return OpenLoopResult(latencies, service, slips, counts["attempted"],
                          counts["failed"], errors)


def run_closed_loop(workers: int, seconds: float,
                    execute: Callable[[int, int], bool]) -> Dict[str, float]:
    """``workers`` threads call ``execute(worker, i)`` back to back for
    ``seconds``.

    ``rate`` is the median over one-second slices of each slice's
    completion rate: a stall or a burst of load from outside the run
    moves a few slices, not the median.
    """
    finished: List[float] = []
    counts = {"failed": 0}
    errors: List[str] = []
    lock = threading.Lock()
    start = time.perf_counter()
    deadline = start + seconds

    def worker(index: int) -> None:
        i = 0
        while time.perf_counter() < deadline:
            try:
                ok = execute(index, i)
            except Exception as exc:  # noqa: BLE001 - counted as failed
                ok = False
                with lock:
                    errors.append(f"{type(exc).__name__}: {exc}")
            with lock:
                if ok:
                    finished.append(time.perf_counter() - start)
                else:
                    counts["failed"] += 1
            i += 1

    threads = [threading.Thread(target=worker, args=(i,), daemon=True)
               for i in range(workers)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    slices: List[List[float]] = [[] for _ in range(max(1, int(seconds)))]
    for t in sorted(finished):
        index = int(t)
        if index < len(slices):
            slices[index].append(t)
    # Each slice's rate from its own first and last completion, so the
    # rate is not rounded to whole completions per slice.
    rates = [(len(times) - 1) / (times[-1] - times[0])
             for times in slices if len(times) > 2]
    return {"completed": len(finished), "failed": counts["failed"],
            "rate": statistics.median(rates) if rates else 0.0,
            "errors": errors}


# ----------------------------------------------------------------------
# serve-remote subprocesses
# ----------------------------------------------------------------------
def free_ports(count: int) -> List[int]:
    """Distinct ephemeral ports, all held until every one is read."""
    sockets = []
    try:
        for _ in range(count):
            sock = socket.socket()
            sock.bind(("127.0.0.1", 0))
            sockets.append(sock)
        return [sock.getsockname()[1] for sock in sockets]
    finally:
        for sock in sockets:
            sock.close()


class Server:
    """One ``serve-remote`` process (optionally traced).

    Every process still running when the runner exits is killed (and
    reaped) by :func:`kill_leftovers`, whatever path the run took.
    """

    live: "set[Server]" = set()

    def __init__(self, args: Sequence[str],
                 trace_file: Optional[str] = None) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC
        if trace_file is None:
            command = [sys.executable, "-m", "repro.cli", *args]
        else:
            command = [sys.executable, os.path.join(HERE, "launcher.py"),
                       trace_file, *args]
        self.trace_file = trace_file
        self.lines: List[str] = []
        self.process = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env, cwd=ROOT,
        )
        self.pid = self.process.pid
        Server.live.add(self)
        self.address = None
        self._drainer: Optional[threading.Thread] = None

    def wait_listening(self, timeout: float = 60.0) -> "Server":
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            line = self.process.stdout.readline()
            if not line:
                break
            self.lines.append(line.rstrip("\n"))
            if line.startswith(LISTEN_MARKER):
                host, port = line[len(LISTEN_MARKER):].strip().rsplit(":", 1)
                self.address = (host, int(port))
                # Keep draining so a chatty server never blocks on a
                # full pipe.
                self._drainer = threading.Thread(target=self._drain,
                                                 daemon=True)
                self._drainer.start()
                return self
        self.kill()
        raise RuntimeError("serve-remote never listened: "
                           + " | ".join(self.lines[-5:]))

    def _drain(self) -> None:
        for line in self.process.stdout:
            self.lines.append(line.rstrip("\n"))

    def dump_trace(self, timeout: float = 10.0) -> Dict:
        """Ask a traced server for its span table (it keeps running)."""
        if os.path.exists(self.trace_file):
            os.remove(self.trace_file)
        self.process.send_signal(signal.SIGUSR1)
        deadline = time.monotonic() + timeout
        while not os.path.exists(self.trace_file):
            if time.monotonic() > deadline:
                raise RuntimeError("traced server wrote no span table")
            time.sleep(0.01)
        with open(self.trace_file) as handle:
            return json.load(handle)

    def stop(self, timeout: float = 5.0) -> None:
        """SIGTERM, then SIGKILL if it lingers.  Not the CLI's SIGINT
        path: a runner started in the background inherits SIGINT as
        ignored, and so would its servers.  Nothing is lost — every
        span table is read over SIGUSR1 before a server is stopped."""
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._close()

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
            self.process.wait()
        self._close()

    def _close(self) -> None:
        # The process has exited, so the drainer reaches EOF.
        if self._drainer is not None:
            self._drainer.join(timeout=5.0)
        self.process.stdout.close()
        Server.live.discard(self)


def kill_leftovers() -> None:
    """Kill and reap every server a failed run left behind."""
    for server in list(Server.live):
        server.kill()


def stop_all(servers: Sequence[Server]) -> None:
    for server in servers:
        if server.process.poll() is None:
            server.process.terminate()
    for server in servers:
        server.stop()
