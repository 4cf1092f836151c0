"""Workload ``renew-durable``: one durable license server under renewals.

One ``serve-remote --data-dir D --fsync always`` process: a grant is
not acknowledged until its WAL record is fsynced, the property the
crash/replay rules rely on.  ``CLIENTS`` SL-Locals enrol during
set-up.  Then:

1. open loop — renew + ``return_units`` pairs arrive as a Poisson
   process at ``RATE`` pairs/s (two streams, one connection each),
   each pair timed from when it was due;
2. closed loop — the same pairs back to back on the two connections
   (the server's capacity);
3. ``Scale.restarts`` times: a few clients take units and hold them, the
   ledger is probed, the server is SIGKILLed and restarted on the same
   data directory, and the time to the first granted renewal is taken;
   the recovered ledger must equal the probe with every outstanding
   unit moved to ``lost``.

``COMPACT_EVERY`` is set so a run spans several snapshot/compaction
cycles.  The path loads the codec, the socket loop, ``sl_remote`` +
Equation 1 and the WAL (append, seal, fsync, compaction, replay), and
bypasses the lease tree, the router and replication.
"""

from __future__ import annotations

import os
import random
import re
import shutil
import statistics
import time
from typing import Dict, List, Tuple

from common import (
    FULL,
    CpuMeter,
    Scale,
    Server,
    latency_lines,
    poisson_arrivals,
    run_closed_loop,
    run_open_loop,
    slip_check,
    stream_seed,
    system_cpu_ms_per_op,
)
from layers import socket_layers
from tracing import CLIENT_TARGETS, Tracer

LICENSES = 8
POOL = 10**12
CLIENTS = 64
HOLDERS = 16
#: Offered load of the open-loop phase, pairs/s: about a third of the
#: closed-loop capacity (150-250 pairs/s on a 2-vCPU host) measured
#: when the benchmark was defined; at half of it the tail was mostly
#: queueing behind compaction stalls.  Fixed; never re-derived.
RATE = 60.0
COMPACT_EVERY = 400
OPEN_SHARE, CLOSED_SHARE = 0.7, 0.25


def _license_ids() -> List[str]:
    return [f"lic-{index}" for index in range(LICENSES)]


def server_args(data_dir: str) -> List[str]:
    args = ["serve-remote", "--port", "0", "--accept-any-platform",
            "--data-dir", data_dir, "--fsync", "always",
            "--compact-every", str(COMPACT_EVERY)]
    for license_id in _license_ids():
        args += ["--license", f"{license_id}:{POOL}"]
    return args


class Client:
    """The runner's side: enrolled SLIDs and one endpoint per stream."""

    def __init__(self, address: Tuple[str, int], streams: int = 2) -> None:
        from repro.core.licensefile import mint_license_blob

        self.streams = streams
        self.endpoints = []
        self.connect(address)
        self.blobs = {lid: mint_license_blob(lid) for lid in _license_ids()}
        self.slids: List[int] = []

    def connect(self, address: Tuple[str, int]) -> None:
        from repro.net.endpoint import connect

        self.close()
        url = f"sl://{address[0]}:{address[1]}"
        self.endpoints = [connect(url) for _ in range(self.streams)]

    def enrol(self, count: int, seed: int) -> None:
        from repro.core.sl_local import SlLocal
        from repro.crypto.keys import KeyGenerator
        from repro.sgx import SgxMachine
        from repro.sim.rng import DeterministicRng

        for index in range(count):
            machine = SgxMachine(f"bench-{index}")
            local = SlLocal(machine, self.endpoints[index % 2],
                            KeyGenerator(DeterministicRng(seed + index)))
            local.init()
            self.slids.append(local.slid)

    def renew(self, stream: int, slid: int, license_id: str):
        from repro.core.protocol import RenewRequest
        from repro.sim.clock import Clock

        return self.endpoints[stream].call(
            "renew",
            RenewRequest(slid=slid, license_id=license_id,
                         license_blob=self.blobs[license_id],
                         network_reliability=1.0, health=1.0),
            clock=Clock(),
        )

    def pair(self, stream: int, slid: int, license_id: str) -> bool:
        """Renew, then hand every granted unit back."""
        from repro.core.protocol import Status
        from repro.sim.clock import Clock

        response = self.renew(stream, slid, license_id)
        if response.status is not Status.OK or response.granted_units <= 0:
            return False
        returned = self.endpoints[stream].call(
            "return_units", (slid, license_id, response.granted_units),
            clock=Clock(),
        )
        return returned is Status.OK

    def probe(self) -> Dict[str, Dict]:
        from repro.sim.clock import Clock

        return self.endpoints[0].call("ledger_probe", None, clock=Clock())

    def stats(self) -> Dict:
        from repro.sim.clock import Clock

        return self.endpoints[0].call("_server_stats", None, clock=Clock())

    def close(self) -> None:
        for endpoint in self.endpoints:
            endpoint.close()


def conservation_problems(probe: Dict[str, Dict]) -> List[str]:
    return [f"{lid}: outstanding {row['outstanding']} + lost {row['lost']} "
            f"+ available {row['available']} != total {row['total']}"
            for lid, row in sorted(probe.items())
            if row["outstanding"] + row["lost"] + row["available"]
            != row["total"]]


def open_loop_streams(seed: int, seconds: float) -> List[List[tuple]]:
    """Two Poisson streams at RATE/2 each: ``(offset, client, license)``."""
    streams = []
    for stream in range(2):
        rng = random.Random(stream_seed(seed, f"renew-durable:open:{stream}"))
        streams.append([
            (t, rng.randrange(CLIENTS), rng.randrange(LICENSES))
            for t in poisson_arrivals(rng, RATE / 2, seconds)
        ])
    return streams


def _setup(work: str, seed: int, setups: int, trace_file=None):
    """Spawn + enrol ``setups`` times; keep the last; median time."""
    timings, server, client = [], None, None
    for attempt in range(setups):
        if server is not None:
            client.close()
            server.stop()
        data_dir = os.path.join(work, f"data-{attempt}")
        start = time.perf_counter()
        server = Server(server_args(data_dir),
                        trace_file if attempt == setups - 1 else None)
        server.wait_listening()
        client = Client(server.address)
        client.enrol(CLIENTS, seed)
        timings.append(time.perf_counter() - start)
    return server, client, data_dir, statistics.median(timings)


def _phase(client: Client, server: Server, seed: int, seconds: float,
           tracer=None) -> Dict:
    ids = _license_ids()
    streams = open_loop_streams(seed, seconds * OPEN_SHARE)

    def execute(stream: int, op: tuple) -> Dict[str, float]:
        begin = time.perf_counter()
        ok = client.pair(stream, client.slids[op[0]], ids[op[1]])
        return {"renew": (time.perf_counter() - begin) * 1e3} if ok else {}

    stats_before = client.stats()
    traces = {}
    if tracer is not None:
        traces["server_before"] = server.dump_trace()
        tracer.install(CLIENT_TARGETS)
    meter = CpuMeter([server.pid])
    try:
        result = run_open_loop(streams, execute, time.perf_counter() + 0.05)
    finally:
        if tracer is not None:
            tracer.uninstall()
    cpu = meter.stop()
    if tracer is not None:
        traces["server_after"] = server.dump_trace()
        traces["client"] = tracer.snapshot()
    stats_after = client.stats()

    rng = random.Random(stream_seed(seed, "renew-durable:closed"))
    picks = [[(rng.randrange(CLIENTS), rng.randrange(LICENSES))
              for _ in range(20_000)] for _ in range(2)]
    closed_meter = CpuMeter([server.pid])
    closed = run_closed_loop(
        2, seconds * CLOSED_SHARE,
        lambda w, i: client.pair(w, client.slids[picks[w][i][0]],
                                 ids[picks[w][i][1]]))
    closed["cpu"] = closed_meter.stop()
    return {"open": result, "cpu": cpu, "closed": closed, "traces": traces,
            "stats": (stats_before, stats_after)}


def _hold(client: Client, seed: int, cycle: int) -> int:
    """A few clients take units and keep them; returns units held."""
    rng = random.Random(stream_seed(seed, f"renew-durable:hold:{cycle}"))
    held = 0
    for index in range(HOLDERS):
        response = client.renew(0, client.slids[index],
                                _license_ids()[rng.randrange(LICENSES)])
        held += response.granted_units
    return held


RECOVERY = re.compile(r"SL-Recovery \S+: records=(\d+) .* seconds=([0-9.]+)")


def _restarts(server: Server, client: Client, data_dir: str, seed: int,
              restarts: int, trace_file=None) -> Dict:
    """SIGKILL + restart ``restarts`` times; audit each recovery.

    ``recover_s`` runs from the SIGKILL to the first granted renewal
    from the restarted process: process start, WAL replay and the
    first request.  The renewal's units go straight back, so the
    recovered ledger can be held to the pre-kill probe exactly.
    """
    from repro.core.protocol import Status
    from repro.sim.clock import Clock

    times, replay, problems = [], [], []
    slid, license_id = client.slids[0], _license_ids()[0]
    for cycle in range(restarts):
        held = _hold(client, seed, cycle)
        before = client.probe()
        problems += conservation_problems(before)
        outstanding = sum(row["outstanding"] for row in before.values())
        if held <= 0 or outstanding < held:
            problems.append(f"restart {cycle}: held {held} units but the "
                            f"ledger shows {outstanding} outstanding")
        client.close()
        start = time.perf_counter()
        server.kill()
        server = Server(server_args(data_dir),
                        trace_file if cycle == restarts - 1 else None)
        server.wait_listening()
        client.connect(server.address)
        response = client.renew(0, slid, license_id)
        times.append(time.perf_counter() - start)
        if response.status is not Status.OK:
            problems.append(f"restart {cycle}: first renewal answered "
                            f"{response.status.value}")
            continue
        for line in server.lines:
            match = RECOVERY.match(line)
            if match and float(match.group(2)) > 0:
                replay.append(int(match.group(1)) / float(match.group(2)))
        client.endpoints[0].call(
            "return_units", (slid, license_id, response.granted_units),
            clock=Clock())
        after = client.probe()
        problems += conservation_problems(after)
        for lid, row in sorted(before.items()):
            got = after.get(lid)
            want = {"total": row["total"], "outstanding": 0,
                    "lost": row["lost"] + row["outstanding"],
                    "available": row["available"]}
            if got is None or any(got[key] != value
                                  for key, value in want.items()):
                problems.append(f"restart {cycle}: {lid} recovered as "
                                f"{got}, expected {want}")
    return {"server": server, "recover_s": times,
            "replay_records_per_s": replay, "problems": problems}


def _once(work: str, seed: int, seconds: float, traced: bool,
          scale: Scale) -> Dict:
    """Set-up, the three phases, and the restarts; servers stopped."""
    trace_file = os.path.join(work, "server-trace.json") if traced else None
    server, client, data_dir, setup_s = _setup(work, seed, scale.setups,
                                               trace_file)
    try:
        tracer = Tracer() if traced else None
        phase = _phase(client, server, seed, seconds, tracer)
        recovery = _restarts(server, client, data_dir, seed,
                             scale.restarts, trace_file)
        server = recovery.pop("server")
        if traced:
            phase["traces"]["restarted"] = server.dump_trace()
        final = client.probe()
        recovery["problems"] += conservation_problems(final)
    finally:
        client.close()
        server.stop()
    return {"setup_s": setup_s, **phase, **recovery}


def run(seed: int, seconds: float, trace: bool, work: str,
        scale: Scale = FULL) -> Dict:
    os.makedirs(work, exist_ok=True)
    try:
        out = {"plain": _once(os.path.join(work, "plain"), seed, seconds,
                              False, scale)}
        if trace:
            out["traced"] = _once(os.path.join(work, "traced"), seed,
                                  seconds, True, scale)
        return out
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _wire_delta(stats: Tuple[Dict, Dict]) -> Tuple[int, int, int]:
    before, after = (s.get("wire", {}) for s in stats)
    wire = sum(after.get(k, 0) - before.get(k, 0)
               for k in ("bytes_decoded", "bytes_encoded"))
    degraded = (after.get("renewal", {}).get("degraded_served", 0)
                - before.get("renewal", {}).get("degraded_served", 0))
    return wire, degraded, stats[1].get("connections_accepted", 0)


def report(result: Dict, scale: Scale = FULL) -> Dict:
    plain = result["plain"]
    opened, closed, cpu = plain["open"], plain["closed"], plain["cpu"]
    renew = opened.latencies_ms.get("renew", [])
    problems = list(plain["problems"])
    if "traced" in result:
        traced = result["traced"]
        problems += traced["problems"]
        traced_failed = traced["open"].failed + traced["closed"]["failed"]
        if traced_failed:
            problems.append(f"{traced_failed} traced pairs failed")
    failed = opened.failed + closed["failed"]
    attempted = opened.attempted + closed["completed"] + closed["failed"]
    problems += [f"{failed} of {attempted} renew+return pairs failed"] \
        if failed else []
    problems += opened.errors[:3] + closed["errors"][:3]
    slip, problem = slip_check(opened.slips_ms)
    problems += [problem] if problem else []
    if len(plain["recover_s"]) != scale.restarts:
        problems.append("a restart did not recover")
    ops = len(renew) or 1
    recover = statistics.median(plain["recover_s"]) \
        if plain["recover_s"] else 0.0
    e2e = {"setup_s": plain["setup_s"],
           "cpu_ms_per_op": system_cpu_ms_per_op(cpu, len(renew), closed)}
    named = {
        **latency_lines({"renew": renew}),
        "renew_capacity_rps": (closed["rate"], "pairs/s",
                               closed["completed"]),
        "recover_s": (recover, "s", len(plain["recover_s"])),
        "error_ratio": (failed / attempted if attempted else 0.0,
                        "fraction", attempted),
    }
    wire, degraded, connections = _wire_delta(plain["stats"])
    layers = {
        "server.cpu_util": cpu["server_cpu_s"] / cpu["wall_s"],
        "loadgen.cpu_util": cpu["runner_cpu_s"] / cpu["wall_s"],
        "loadgen.slip_p99_ms": slip,
        "codec.bytes_per_renew": wire / ops,
        "renewal.degraded": float(degraded),
        "io.connections": float(connections),
        "wal.replay_records_per_s": (
            statistics.median(plain["replay_records_per_s"])
            if plain["replay_records_per_s"] else 0.0),
    }
    if "traced" in result:
        layers.update(_traced_layers(result))
    return {"attempted": attempted,
            "failed": failed, "e2e": e2e, "named": named, "layers": layers,
            "problems": problems}


def _traced_layers(result: Dict) -> Dict[str, float]:
    from tracing import delta, merge

    traced = result["traced"]
    traces = traced["traces"]
    server = delta(traces["server_after"], traces["server_before"])
    renew = traced["open"].latencies_ms.get("renew", [])
    ops = len(renew)
    client_ns = sum(traced["open"].service_ms) * 1e6
    # Medians: a compaction stall landing in one run and not the other
    # would swamp the per-call cost of the wrappers in a mean.
    plain_service = statistics.median(result["plain"]["open"].service_ms)
    traced_service = statistics.median(traced["open"].service_ms)
    layers = socket_layers(traces["client"], server, ops, client_ns,
                           plain_service, traced_service)
    # Compactions over the whole traced run, including the replays.
    whole = merge(traces["server_after"], traces["restarted"])
    compact = whole["spans"].get("wal.compact")
    if compact:
        layers["wal.compact_ms"] = compact[1] / compact[0] / 1e6
        layers["wal.compactions"] = float(compact[0])
    return layers
