"""Workload ``fleet-churn``: identity writes and batched reads on a fleet.

A 2-process ``--shard-of i:2 --replicas 1`` fleet at the default
(majority) identity quorum, durable as in ``renew-durable``
(``--data-dir``, ``--fsync always``); the runner reaches it through
``sl+sharded://…?replicas=1``, one router endpoint per stream.
``ENROLLED`` SLIDs are enrolled during set-up and every lifecycle adds
one more, so the replication flusher's identity snapshots walk a real
table.  SL-Local lifecycles arrive as a Poisson process at ``RATE``/s:

``init`` (quorum-gated) → ``renew_batch`` prefetch of ``PREFETCH``
zipf licenses → ``RENEWS`` single renewals → either a graceful
``shutdown`` (root key escrowed) + re-``init`` that must return the
key bit-exact, or a crash re-``init`` that forfeits what the client
held.  A closed-loop phase then runs lifecycles back to back on the
two endpoints.

The path loads the router, replication (quorum wait, flush,
snapshot, follower apply), the identity/escrow handlers and the WAL's
group-commit batch path, which ``renew-durable`` leaves idle.
"""

from __future__ import annotations

import os
import random
import shutil
import statistics
import threading
import time
from dataclasses import replace
from typing import Dict, List

from common import (
    FULL,
    CpuMeter,
    Scale,
    Server,
    ZipfPicker,
    free_ports,
    latency_lines,
    poisson_arrivals,
    run_closed_loop,
    run_open_loop,
    slip_check,
    stop_all,
    stream_seed,
    system_cpu_ms_per_op,
)
from layers import socket_layers
from renew_durable import conservation_problems
from tracing import CLIENT_TARGETS, Tracer, merge

SHARDS = 2
LICENSES = 16
ZIPF_S = 1.1
POOL = 10**12
ENROLLED = 200
ANCHORS = 4
ANCHOR_WEIGHT = 10_000.0
PREFETCH = 4
RENEWS = 4
GRACEFUL_SHARE = 0.5
#: Lifecycles/s offered in the open loop: about a quarter of the
#: closed-loop capacity (35-45/s on a 2-vCPU host) measured when the
#: benchmark was defined, so call latency shows cost, not a queue.
#: Fixed; never re-derived.
RATE = 10.0
OPEN_SHARE, CLOSED_SHARE = 0.4, 0.6


def _license_ids() -> List[str]:
    return [f"lic-{index:02d}" for index in range(LICENSES)]


class Fleet:
    """The shard processes and the runner's router endpoints."""

    def __init__(self, work: str, trace_dir=None) -> None:
        from repro.core.licensefile import mint_license_blob

        self.ports = free_ports(SHARDS)
        names = [f"shard-{index}" for index in range(SHARDS)]
        members = ",".join(f"{name}=127.0.0.1:{port}"
                           for name, port in zip(names, self.ports))
        self.servers = []
        for index, port in enumerate(self.ports):
            args = ["serve-remote", "--port", str(port),
                    "--accept-any-platform",
                    "--shard-of", f"{index}:{SHARDS}",
                    "--replicas", "1", "--fleet", members,
                    "--data-dir", os.path.join(work, "data"),
                    "--fsync", "always"]
            for license_id in _license_ids():
                args += ["--license", f"{license_id}:{POOL}"]
            trace = (os.path.join(trace_dir, f"shard-{index}.json")
                     if trace_dir else None)
            self.servers.append(Server(args, trace))
        for server in self.servers:
            server.wait_listening()
        self.blobs = {lid: mint_license_blob(lid) for lid in _license_ids()}
        self.endpoints = []
        self.connect()

    def connect(self) -> None:
        """(Re)open the two router endpoints.  A router binds its
        per-shard transports' methods when it is built, so a traced
        phase reconnects after the tracer is installed."""
        from repro.net.endpoint import connect

        for endpoint in self.endpoints:
            endpoint.close()
        authority = ",".join(f"127.0.0.1:{port}" for port in self.ports)
        self.endpoints = [connect(f"sl+sharded://{authority}?replicas=1")
                          for _ in range(2)]

    def call(self, stream: int, method: str, payload):
        from repro.sim.clock import Clock

        return self.endpoints[stream].call(method, payload, clock=Clock())

    def init(self, stream: int, machine, slid=None):
        from repro.core.protocol import InitRequest

        report = machine.local_authority.generate_report(1, 1, nonce=1)
        return self.call(stream, "init", InitRequest(
            slid=slid, report=report,
            platform_secret=machine.platform_secret))

    def renew_request(self, slid: int, license_id: str):
        from repro.core.protocol import RenewRequest

        return RenewRequest(slid=slid, license_id=license_id,
                            license_blob=self.blobs[license_id],
                            network_reliability=1.0, health=1.0)

    def probe(self) -> Dict[str, Dict]:
        return self.call(0, "ledger_probe", None)

    def stats(self) -> List[Dict]:
        """Each shard's ``_server_stats``, dialled directly."""
        from repro.net.endpoint import connect
        from repro.sim.clock import Clock

        reports = []
        for port in self.ports:
            endpoint = connect(f"sl://127.0.0.1:{port}")
            try:
                reports.append(endpoint.call("_server_stats", None,
                                             clock=Clock()))
            finally:
                endpoint.close()
        return reports

    def close(self) -> None:
        for endpoint in self.endpoints:
            endpoint.close()
        stop_all(self.servers)


class Ledger:
    """What the runner knows it holds: the audit's other side."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.escrowed = 0     # units held by gracefully stopped clients
        self.forfeited = 0    # units held by crashed clients
        self.abandoned = 0    # units held by lifecycles that failed
        self.keys_lost = 0    # escrowed root keys that did not come back

    def add(self, field: str, amount: int) -> None:
        with self._lock:
            setattr(self, field, getattr(self, field) + amount)


class LifecycleFailed(Exception):
    """A call in a lifecycle was refused or answered wrongly."""


def lifecycle_plan(seed: int, label: str, count: int) -> List[tuple]:
    """``count`` lifecycles: ``(licenses, renews, graceful, root_key)``."""
    rng = random.Random(stream_seed(seed, f"fleet-churn:{label}"))
    picker = ZipfPicker(rng, LICENSES, ZIPF_S)
    plan = []
    for _ in range(count):
        chosen: List[int] = []
        while len(chosen) < PREFETCH:
            pick = picker.pick()
            if pick not in chosen:
                chosen.append(pick)
        renews = tuple(rng.choice(chosen) for _ in range(RENEWS))
        plan.append((tuple(chosen), renews, rng.random() < GRACEFUL_SHARE,
                     rng.getrandbits(63)))
    return plan


def run_lifecycle(fleet: Fleet, stream: int, op: tuple,
                  ledger: Ledger) -> Dict[str, float]:
    """One SL-Local lifecycle; returns ``{call: ms}`` for its calls in
    order, raises :class:`LifecycleFailed` on a refused call."""
    from repro.core.protocol import (
        BatchRequest,
        InitResponse,
        RenewResponse,
        ShutdownNotice,
        Status,
    )
    from repro.sgx import SgxMachine

    licenses, renews, graceful, root_key = op
    ids = _license_ids()
    machine = SgxMachine("bench-churn")
    timed: Dict[str, float] = {}
    clock = time.perf_counter
    held = 0

    def timed_call(kind: str, fn):
        begin = clock()
        result = fn()
        timed[f"{kind}:{len(timed)}"] = (clock() - begin) * 1e3
        return result

    def granted(reply) -> int:
        if (not isinstance(reply, RenewResponse)
                or reply.status is not Status.OK or reply.granted_units <= 0):
            raise LifecycleFailed(f"renewal answered {reply}")
        return reply.granted_units

    def initialised(reply) -> InitResponse:
        if not isinstance(reply, InitResponse) or reply.status is not Status.OK:
            raise LifecycleFailed(f"init answered {reply}")
        return reply

    slid = initialised(timed_call(
        "identity", lambda: fleet.init(stream, machine))).slid
    try:
        batch = timed_call("prefetch", lambda: fleet.call(
            stream, "renew_batch", BatchRequest(requests=tuple(
                fleet.renew_request(slid, ids[index])
                for index in licenses))))
        for slot in batch.responses:
            held += granted(slot)
        for index in renews:
            held += granted(timed_call("renew", lambda index=index: fleet.call(
                stream, "renew", fleet.renew_request(slid, ids[index]))))
        if graceful:
            status = timed_call("identity", lambda: fleet.call(
                stream, "shutdown",
                ShutdownNotice(slid=slid, root_key=root_key)))
            if status is not Status.OK:
                raise LifecycleFailed(f"shutdown answered {status}")
        reply = initialised(timed_call(
            "identity", lambda: fleet.init(stream, machine, slid)))
    except Exception:
        ledger.add("abandoned", held)
        raise
    if graceful:
        ledger.add("escrowed", held)
        if reply.old_backup_key != root_key:
            ledger.add("keys_lost", 1)
    else:
        ledger.add("forfeited", held)
        if reply.old_backup_key is not None:
            ledger.add("keys_lost", 1)
    return timed


def _anchor(fleet: Fleet, slids: List[int]) -> None:
    """Long-lived heavy holders: each takes a grant of every license at
    ``ANCHOR_WEIGHT`` and keeps one unit of it.  Algorithm 1 sizes a
    node's share by its weight against the holders', so churned
    clients (weight 1) get small slices and a run's crash forfeits
    stay far below the pools."""
    from repro.core.protocol import BatchRequest, Status

    for slid in slids:
        pending = _license_ids()
        # A fresh fleet ships its replication lag budgets within a flush
        # interval; until then a burst of grants can be clamped to zero
        # (EXHAUSTED), so those licenses are asked again.
        for _ in range(100):
            batch = fleet.call(0, "renew_batch", BatchRequest(requests=tuple(
                replace(fleet.renew_request(slid, lid), weight=ANCHOR_WEIGHT)
                for lid in pending)))
            refused = []
            for lid, slot in zip(pending, batch.responses):
                if slot.status is Status.OK and slot.granted_units >= 1:
                    if slot.granted_units > 1:
                        fleet.call(0, "return_units",
                                   (slid, lid, slot.granted_units - 1))
                else:
                    refused.append(lid)
            pending = refused
            if not pending:
                break
            time.sleep(0.02)
        if pending:
            raise RuntimeError(f"anchor grants of {pending} refused")


def _setup(work: str, setups: int, trace_dir=None):
    from repro.sgx import SgxMachine

    timings, fleet = [], None
    for attempt in range(setups):
        if fleet is not None:
            fleet.close()
        start = time.perf_counter()
        fleet = Fleet(os.path.join(work, f"fleet-{attempt}"),
                      trace_dir if attempt == setups - 1 else None)
        machine = SgxMachine("bench-enrol")
        slids = [fleet.init(index % 2, machine).slid
                 for index in range(ENROLLED)]
        _anchor(fleet, slids[:ANCHORS])
        timings.append(time.perf_counter() - start)
    return fleet, statistics.median(timings)


def _once(work: str, seed: int, seconds: float, traced: bool,
          scale: Scale) -> Dict:
    trace_dir = work if traced else None
    os.makedirs(work, exist_ok=True)
    fleet, setup_s = _setup(work, scale.setups, trace_dir)
    ledger = Ledger()
    try:
        open_seconds = seconds * OPEN_SHARE
        streams = []
        for stream in range(2):
            rng = random.Random(stream_seed(seed, f"fleet-churn:open:{stream}"))
            arrivals = poisson_arrivals(rng, RATE / 2, open_seconds)
            plan = lifecycle_plan(seed, f"open-plan:{stream}", len(arrivals))
            streams.append([(t, *op) for t, op in zip(arrivals, plan)])
        stats_before = fleet.stats()
        traces: Dict = {}
        tracer = Tracer() if traced else None
        if tracer is not None:
            traces["before"] = [s.dump_trace() for s in fleet.servers]
            tracer.install(CLIENT_TARGETS)
            fleet.connect()
        meter = CpuMeter([s.pid for s in fleet.servers])
        try:
            opened = run_open_loop(
                streams, lambda stream, op: run_lifecycle(
                    fleet, stream, op, ledger),
                time.perf_counter() + 0.05)
        finally:
            if tracer is not None:
                tracer.uninstall()
        cpu = meter.stop()
        if tracer is not None:
            traces["after"] = [s.dump_trace() for s in fleet.servers]
            traces["client"] = tracer.snapshot()
            traces["router"] = [
                (e.transport.router.migrations + e.transport.router.failovers,
                 sum(t.messages_dropped
                     for t in e.transport.transports.values()))
                for e in fleet.endpoints]
        stats_after = fleet.stats()
        plans = [lifecycle_plan(seed, f"closed-plan:{w}", 5_000)
                 for w in range(2)]
        closed_meter = CpuMeter([s.pid for s in fleet.servers])
        closed = run_closed_loop(
            2, seconds * CLOSED_SHARE,
            lambda w, i: bool(run_lifecycle(fleet, w, plans[w][i], ledger)))
        closed["cpu"] = closed_meter.stop()
        probe = fleet.probe()
    finally:
        fleet.close()
    return {"setup_s": setup_s, "open": opened, "closed": closed,
            "cpu": cpu, "traces": traces, "stats": (stats_before, stats_after),
            "probe": probe, "ledger": ledger}


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


def _audit(result: Dict) -> List[str]:
    probe, ledger = result["probe"], result["ledger"]
    problems = conservation_problems(probe)
    lost = sum(row["lost"] for row in probe.values())
    outstanding = sum(row["outstanding"] for row in probe.values())
    if lost != ledger.forfeited:
        problems.append(f"fleet lost {lost} units; crashed clients held "
                        f"{ledger.forfeited}")
    # Anchors keep one unit of every license.
    expected = ledger.escrowed + ledger.abandoned + ANCHORS * LICENSES
    if outstanding != expected:
        problems.append(f"fleet has {outstanding} units outstanding; "
                        f"clients hold {expected}")
    if ledger.keys_lost:
        problems.append(f"{ledger.keys_lost} root keys did not come back "
                        f"bit-exact on re-init")
    return problems


def _kinds(latencies: Dict[str, List[float]]) -> Dict[str, List[float]]:
    merged: Dict[str, List[float]] = {}
    for key, values in latencies.items():
        merged.setdefault(key.split(":")[0], []).extend(values)
    return merged


def report(result: Dict, scale: Scale = FULL) -> Dict:
    plain = result["plain"]
    opened, closed, cpu = plain["open"], plain["closed"], plain["cpu"]
    problems = _audit(plain)
    if "traced" in result:
        traced = result["traced"]
        problems += _audit(traced)
        traced_failed = traced["open"].failed + traced["closed"]["failed"]
        if traced_failed:
            problems.append(f"{traced_failed} traced lifecycles failed")
    failed = opened.failed + closed["failed"]
    attempted = opened.attempted + closed["completed"] + closed["failed"]
    if failed:
        problems.append(f"{failed} of {attempted} lifecycles failed")
    problems += opened.errors[:3] + closed["errors"][:3]
    slip, problem = slip_check(opened.slips_ms)
    problems += [problem] if problem else []
    ops = len(opened.service_ms) or 1
    e2e = {"setup_s": plain["setup_s"],
           "cpu_ms_per_op": system_cpu_ms_per_op(
               cpu, len(opened.service_ms), closed)}
    named = {
        **latency_lines(_kinds(opened.latencies_ms)),
        "lifecycle_capacity": (closed["rate"], "lifecycles/s",
                               closed["completed"]),
        "error_ratio": (failed / attempted if attempted else 0.0,
                        "fraction", attempted),
    }
    before, after = plain["stats"]
    wire = sum(a.get("wire", {}).get(k, 0) - b.get("wire", {}).get(k, 0)
               for a, b in zip(after, before)
               for k in ("bytes_decoded", "bytes_encoded"))
    renewals = ops * (PREFETCH + RENEWS)
    lag = max((peer.get("ack_lag", 0)
               for report in after
               for peer in report.get("replication", {}).get(
                   "replicates", {}).get("peers", {}).values()), default=0)
    layers = {
        "server.cpu_util": cpu["server_cpu_s"] / cpu["wall_s"],
        "loadgen.cpu_util": cpu["runner_cpu_s"] / cpu["wall_s"],
        "loadgen.slip_p99_ms": slip,
        "codec.bytes_per_renew": wire / renewals,
        "renewal.degraded": float(sum(
            a.get("renewal", {}).get("degraded_served", 0)
            - b.get("renewal", {}).get("degraded_served", 0)
            for a, b in zip(after, before))),
        "io.connections": float(sum(a.get("connections_accepted", 0)
                                    for a in after)),
        # Set-up enrolment plus one new SLID per open-loop lifecycle.
        "replication.enrolled_slids": float(ENROLLED + opened.attempted),
        "replication.ack_lag": float(lag),
    }
    if "traced" in result:
        layers.update(_traced_layers(result))
    return {"attempted": attempted,
            "failed": failed, "e2e": e2e, "named": named, "layers": layers,
            "problems": problems}


def _traced_layers(result: Dict) -> Dict[str, float]:
    from tracing import delta

    traced = result["traced"]
    traces = traced["traces"]
    server = merge(*(delta(a, b) for a, b in zip(traces["after"],
                                                 traces["before"])))
    ops = len(traced["open"].service_ms)
    client_ns = sum(traced["open"].service_ms) * 1e6
    plain_service = statistics.median(result["plain"]["open"].service_ms)
    traced_service = statistics.median(traced["open"].service_ms)
    layers = socket_layers(traces["client"], server, ops, client_ns,
                           plain_service, traced_service)
    layers["router.redirects"] = float(sum(r[0] for r in traces["router"]))
    layers["router.retries"] = float(sum(r[1] for r in traces["router"]))
    return layers
