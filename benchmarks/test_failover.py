"""Failover chaos and online membership, end to end over real sockets.

The replication release's headline claims, measured against real
``serve-remote`` subprocesses:

* **Kill the primary.**  A 3-shard fleet runs with ``--replicas 1``:
  each shard streams its license deltas to its ring successor under a
  bounded lag budget.  A client crowd renews and returns continuously;
  mid-load the harness SIGKILLs the shard that owns the hottest
  license.  Every client router independently observes the dial
  failure, promotes the follower, and resumes — the harness measures
  the gap between the kill and the first successful renew on a
  victim-owned license.  The run only counts if no client call fails,
  no unit is ever minted twice (client-observed net holdings are
  covered by outstanding + the pessimistic reserve), and the reserve
  itself never exceeds the lag budget per license.

* **Grow the ring under load.**  A 2-shard fleet serves the same crowd
  while the real ``ring add`` CLI verb joins a third (empty) shard and
  migrates its keyspace license by license.  Clients absorb only
  bounded retry-after waits during each license's freeze window and
  follow tombstone redirects to the shard they never configured — zero
  failed calls, exact conservation afterwards.

``SL_FAILOVER_SMOKE=1`` shrinks the crowd for CI; full-scale numbers
are persisted to ``BENCH_failover.json`` at the repo root.
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import threading
import time

from repro.core.protocol import InitRequest, RenewRequest, Status
from repro.net.endpoint import connect
from repro.net.sharding import HashRing, default_shard_names
from repro.sgx import SgxMachine
from repro.sim.clock import Clock

SMOKE = bool(os.environ.get("SL_FAILOVER_SMOKE"))

CLIENTS = 8 if SMOKE else 50
SHARDS = 3
LICENSES = 3 if SMOKE else 6
LAG_BUDGET = 128
#: The adaptive budget: the un-replicated window may grow to this many
#: *grants* of the peak observed size (capped by a pool fraction), so
#: forfeiture is bounded in the currency that matters — how many
#: in-flight grants a death can strand — not in absolute units.
LAG_GRANTS = 4
POOL = 10**9
#: Load runs this long before the kill (every follower must have had
#: its startup state transfer and be living on deltas) and this long
#: after it (the promoted ledgers must prove they serve steady state).
WARMUP_SECONDS = 1.5 if SMOKE else 2.5
CHAOS_SECONDS = 1.5 if SMOKE else 3.0

MARKER = "SL-Remote listening on "
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_JSON = os.path.join(REPO_ROOT, "BENCH_failover.json")


# ----------------------------------------------------------------------
# Fleet-process harness
# ----------------------------------------------------------------------
def _free_ports(count):
    """Reserve ``count`` distinct ephemeral ports (bind, read, close).

    The fleet needs every member's address *before* any member starts
    (``--fleet`` names all replication peers), so ``--port 0`` is not
    enough here.  Holding all sockets open until every port is read
    keeps the kernel from handing the same port out twice.
    """
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


def _license_args():
    return [arg
            for index in range(LICENSES)
            for arg in ("--license", f"lic-{index}:{POOL}")]


def _spawn(command):
    """Start one repro.cli subprocess; wait for its listening marker."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", *command],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
    )
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if not line:
            break
        if line.startswith(MARKER):
            return process
    process.kill()
    raise RuntimeError("serve-remote subprocess never reported its port")


def _spawn_fleet(ports, replicas, data_dir=None):
    """One serve-remote process per shard, every peer address wired in."""
    fleet = ",".join(
        f"{name}=127.0.0.1:{port}"
        for name, port in zip(default_shard_names(len(ports)), ports)
    )
    processes = []
    try:
        for index, port in enumerate(ports):
            command = [
                "serve-remote", "--port", str(port), "--accept-any-platform",
                "--shard-of", f"{index}:{len(ports)}", *_license_args(),
            ]
            if replicas:
                command += ["--replicas", str(replicas), "--fleet", fleet,
                            "--lag-budget", str(LAG_BUDGET),
                            "--lag-grants", str(LAG_GRANTS)]
            if data_dir:
                command += ["--data-dir", data_dir]
            processes.append(_spawn(command))
    except Exception:
        _stop(processes)
        raise
    return processes


def _stop(processes):
    for process in processes:
        process.terminate()
    for process in processes:
        try:
            process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            process.kill()


def _fleet_url(ports, **params):
    authority = ",".join(f"127.0.0.1:{port}" for port in ports)
    query = "&".join(f"{key}={value}" for key, value in params.items())
    return f"sl+sharded://{authority}" + (f"?{query}" if query else "")


def _blob_for(license_id):
    """Clients rebuild the license blob the servers mint (same vendor
    secret) instead of reaching into another process's memory."""
    from repro.core.licensefile import VENDOR_SECRET, mint_license_blob

    return mint_license_blob(license_id, VENDOR_SECRET)


# ----------------------------------------------------------------------
# Client crowd: renew/return until told to stop, log every outcome
# ----------------------------------------------------------------------
class _ClientLog:
    """One client thread's whole story, merged by the main thread."""

    def __init__(self):
        self.successes = []      # (monotonic_ts, license_id, granted)
        self.granted = {}        # license_id -> units acknowledged OK
        self.returned = {}       # license_id -> units returned with OK
        self.exhausted = 0
        self.failure = None      # first exception, ends the thread
        self.failovers = 0


def _run_crowd(url, stop_event, started, logs):
    """Start CLIENTS renew/return loops; returns the thread list."""
    blobs = {f"lic-{i}": _blob_for(f"lic-{i}") for i in range(LICENSES)}

    def client(index, log):
        license_id = f"lic-{index % LICENSES}"
        machine = SgxMachine(f"chaos-{index}")
        endpoint = connect(url)
        try:
            report = machine.local_authority.generate_report(1, 1, nonce=1)
            response = endpoint.call(
                "init",
                InitRequest(slid=None, report=report,
                            platform_secret=machine.platform_secret),
                clock=machine.clock, stats=machine.stats,
            )
            slid = response.slid
            started.wait()
            while not stop_event.is_set():
                renewal = endpoint.call(
                    "renew",
                    RenewRequest(slid=slid, license_id=license_id,
                                 license_blob=blobs[license_id],
                                 network_reliability=1.0, health=1.0),
                    clock=machine.clock,
                )
                if renewal.status is Status.OK:
                    log.successes.append(
                        (time.monotonic(), license_id, renewal.granted_units)
                    )
                    log.granted[license_id] = (
                        log.granted.get(license_id, 0) + renewal.granted_units
                    )
                    returned = endpoint.call(
                        "return_units",
                        (slid, license_id, renewal.granted_units),
                        clock=machine.clock,
                    )
                    if returned is Status.OK:
                        log.returned[license_id] = (
                            log.returned.get(license_id, 0)
                            + renewal.granted_units
                        )
                elif renewal.status is Status.EXHAUSTED:
                    # Replication backpressure, not an error: grant
                    # sizing asks for half the pool, so one grant eats
                    # the whole headroom until the next flush is acked.
                    # The adaptive budget (--lag-grants) relaxes this
                    # after the first ship — the budget grows toward
                    # LAG_GRANTS peak-sized grants — but the floor
                    # applies until then, and a client just retries,
                    # exactly like a drained pool.
                    log.exhausted += 1
                else:
                    raise AssertionError(f"renew answered {renewal.status}")
                time.sleep(0.01)
            log.failovers = endpoint.transport.router.failovers
        except Exception as exc:  # noqa: BLE001 - surfaced by the harness
            log.failure = exc
        finally:
            endpoint.close()

    threads = [threading.Thread(target=client, args=(i, logs[i]))
               for i in range(len(logs))]
    for thread in threads:
        thread.start()
    return threads


def _fleet_audit(url, expect_licenses=LICENSES):
    """Fleet-wide ledger probe through a fresh endpoint."""
    endpoint = connect(url)
    try:
        probe = endpoint.call("ledger_probe", None, clock=Clock())
    finally:
        endpoint.close()
    assert len(probe) == expect_licenses
    for license_id, entry in probe.items():
        assert entry["outstanding"] + entry["lost"] + entry["available"] \
            == entry["total"], f"{license_id} leaked units"
    return probe


def _sum_logs(logs, field):
    totals = {}
    for log in logs:
        for license_id, units in getattr(log, field).items():
            totals[license_id] = totals.get(license_id, 0) + units
    return totals


# ----------------------------------------------------------------------
# Chaos: SIGKILL the primary mid-load, measure the recovery gap
# ----------------------------------------------------------------------
def test_primary_death_fails_over_under_load(benchmark, table_printer):
    ring = HashRing(default_shard_names(SHARDS))
    victim = ring.shard_for("lic-0")
    victim_index = default_shard_names(SHARDS).index(victim)
    victim_licenses = {f"lic-{i}" for i in range(LICENSES)
                       if ring.shard_for(f"lic-{i}") == victim}

    def measure():
        ports = _free_ports(SHARDS)
        processes = _spawn_fleet(ports, replicas=1)
        url = _fleet_url(ports, replicas=1, timeout=10, max_attempts=2,
                         reconnect_attempts=2, reconnect_backoff=0.05)
        stop_event, started = threading.Event(), threading.Event()
        logs = [_ClientLog() for _ in range(CLIENTS)]
        try:
            threads = _run_crowd(url, stop_event, started, logs)
            started.set()
            time.sleep(WARMUP_SECONDS)
            processes[victim_index].kill()  # SIGKILL: no goodbye frames
            kill_ts = time.monotonic()
            time.sleep(CHAOS_SECONDS)
            stop_event.set()
            for thread in threads:
                thread.join(timeout=120)
            probe = _fleet_audit(url)
        finally:
            stop_event.set()
            _stop(processes)
        recoveries = [ts - kill_ts
                      for log in logs
                      for ts, license_id, _granted in log.successes
                      if ts > kill_ts and license_id in victim_licenses]
        return logs, probe, recoveries

    logs, probe, recoveries = benchmark.pedantic(measure, rounds=1,
                                                 iterations=1)

    failures = [log.failure for log in logs if log.failure is not None]
    assert not failures, f"client failures: {failures[:3]}"
    # Every client that touched a victim-owned license must have renewed
    # successfully on the promoted follower after the kill.
    assert recoveries, "no client ever recovered a victim-owned license"
    assert any(log.failovers for log in logs)

    granted = _sum_logs(logs, "granted")
    returned = _sum_logs(logs, "returned")
    peak_grant = {}
    for log in logs:
        for _ts, license_id, units in log.successes:
            peak_grant[license_id] = max(peak_grant.get(license_id, 0), units)
    forfeited = 0
    for license_id, entry in probe.items():
        # No double mint: units clients still hold are all accounted as
        # outstanding or pessimistically written off.
        held = granted.get(license_id, 0) - returned.get(license_id, 0)
        assert held <= entry["outstanding"] + entry["lost"], \
            f"{license_id}: clients hold {held} units the fleet forgot"
        if license_id in victim_licenses:
            # Algorithms 2-3 applied only inside the lag window, which
            # the adaptive budget denominates in grants: a death may
            # strand at most LAG_GRANTS peak-sized grants (never less
            # than the absolute floor the fleet started from).
            lag_bound = max(LAG_BUDGET,
                            LAG_GRANTS * peak_grant.get(license_id, 0))
            assert entry["lost"] <= lag_bound, \
                (f"{license_id} forfeited {entry['lost']} past the "
                 f"adaptive lag bound {lag_bound}")
            forfeited += entry["lost"]
        else:
            assert entry["lost"] == 0, \
                f"{license_id} never lost its primary but wrote off units"

    first_success = min(recoveries)
    served = sum(len(log.successes) for log in logs)
    exhausted = sum(log.exhausted for log in logs)
    table_printer(
        f"Primary SIGKILL under load: {CLIENTS} clients, {SHARDS} shards, "
        f"lag budget {LAG_BUDGET} units / {LAG_GRANTS} grants"
        + (" [smoke]" if SMOKE else ""),
        ["Metric", "Value"],
        [
            ["victim shard (owns lic-0)", victim],
            ["renewals served", served],
            ["kill -> first victim-license renew", f"{first_success:.3f} s"],
            ["backpressure (EXHAUSTED) answers", exhausted],
            ["units forfeited (victim licenses)", forfeited],
            ["client failures", len(failures)],
        ],
    )

    if not SMOKE:
        # Smoke runs must not clobber the committed full-scale numbers.
        payload = {
            "benchmark": "primary_failover",
            "smoke": SMOKE,
            "clients": CLIENTS,
            "shards": SHARDS,
            "licenses": LICENSES,
            "lag_budget": LAG_BUDGET,
            "lag_grants": LAG_GRANTS,
            "victim_shard": victim,
            "renewals_served": served,
            "kill_to_first_success_seconds": round(first_success, 4),
            "backpressure_exhausted": exhausted,
            "forfeited_units": forfeited,
            "failed_calls": len(failures),
        }
        with open(BENCH_JSON, "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")


# ----------------------------------------------------------------------
# Quorum chaos: two simultaneous SIGKILLs against a depth-2 fleet
# ----------------------------------------------------------------------
#: ``SL_QUORUM_SMOKE=1`` shrinks the quorum chaos run for CI the same
#: way ``SL_FAILOVER_SMOKE`` shrinks the single-kill run.
QUORUM_SMOKE = bool(os.environ.get("SL_QUORUM_SMOKE")) or SMOKE
Q_CLIENTS = 8 if QUORUM_SMOKE else 50
Q_SHARDS = 5
Q_REPLICAS = 2
Q_QUORUM = (Q_REPLICAS + 1) // 2  # the serve-remote default
Q_WARMUP = 2.0 if QUORUM_SMOKE else 2.5
Q_CHAOS = 2.0 if QUORUM_SMOKE else 3.0
BENCH_QUORUM_JSON = os.path.join(REPO_ROOT, "BENCH_quorum.json")


def _server_stats_of(port):
    endpoint = connect(f"sl://127.0.0.1:{port}")
    try:
        return endpoint.call("_server_stats", None, clock=Clock())
    finally:
        endpoint.close()


def test_two_simultaneous_deaths_promote_by_quorum(tmp_path, benchmark,
                                                   table_printer):
    """The quorum control plane's headline: SIGKILL a license's primary
    AND its first follower in the same instant.  Depth-2 replication
    means the second follower still holds the ledger (seeded by a
    state transfer at fleet start), epoch-fenced promotion makes
    it the unique new primary, and the client crowd recovers with zero
    double-grants and forfeiture bounded by the adaptive lag budget."""
    names = default_shard_names(Q_SHARDS)
    ring = HashRing(names)
    owner, first, _second = ring.owners("lic-0", 3)
    victims = [owner, first]
    victim_indices = [names.index(victim) for victim in victims]
    victim_licenses = {f"lic-{i}" for i in range(LICENSES)
                       if ring.shard_for(f"lic-{i}") in victims}
    assert "lic-0" in victim_licenses

    def measure():
        ports = _free_ports(Q_SHARDS)
        processes = _spawn_fleet(ports, replicas=Q_REPLICAS,
                                 data_dir=str(tmp_path))
        url = _fleet_url(ports, replicas=Q_REPLICAS, timeout=10,
                         max_attempts=3, reconnect_attempts=2,
                         reconnect_backoff=0.05)
        stop_event, started = threading.Event(), threading.Event()
        logs = [_ClientLog() for _ in range(Q_CLIENTS)]
        try:
            threads = _run_crowd(url, stop_event, started, logs)
            started.set()
            time.sleep(Q_WARMUP)
            for index in victim_indices:
                processes[index].kill()  # both at once: no goodbye frames
            kill_ts = time.monotonic()
            time.sleep(Q_CHAOS)
            stop_event.set()
            for thread in threads:
                thread.join(timeout=120)
            probe = _fleet_audit(url)
            survivors = [(name, port) for name, port in zip(names, ports)
                         if name not in victims]
            stats = {name: _server_stats_of(port)
                     for name, port in survivors}
        finally:
            stop_event.set()
            _stop(processes)
        recoveries = [ts - kill_ts
                      for log in logs
                      for ts, license_id, _granted in log.successes
                      if ts > kill_ts and license_id in victim_licenses]
        return logs, probe, stats, recoveries

    logs, probe, stats, recoveries = benchmark.pedantic(measure, rounds=1,
                                                        iterations=1)

    failures = [log.failure for log in logs if log.failure is not None]
    assert not failures, f"client failures: {failures[:3]}"
    assert recoveries, "no client ever recovered a victim-owned license"

    granted = _sum_logs(logs, "granted")
    returned = _sum_logs(logs, "returned")
    peak_grant = {}
    for log in logs:
        for _ts, license_id, units in log.successes:
            peak_grant[license_id] = max(peak_grant.get(license_id, 0), units)
    forfeited = 0
    double_grants = []
    for license_id, entry in probe.items():
        held = granted.get(license_id, 0) - returned.get(license_id, 0)
        if held > entry["outstanding"] + entry["lost"]:
            double_grants.append(license_id)
        if license_id in victim_licenses:
            lag_bound = max(LAG_BUDGET,
                            LAG_GRANTS * peak_grant.get(license_id, 0))
            assert entry["lost"] <= lag_bound, \
                (f"{license_id} forfeited {entry['lost']} past the "
                 f"adaptive lag bound {lag_bound}")
            forfeited += entry["lost"]
        else:
            assert entry["lost"] == 0, \
                f"{license_id} never lost its primary but wrote off units"
    assert double_grants == [], \
        f"units minted twice on {double_grants}"

    # The quorum control plane is visible in every survivor's stats:
    # epoch moved past 0 when the deaths were fenced, the quorum is the
    # fleet default, and at least one cold follower was seeded by a
    # full-state transfer (sent only to a cold, broken or restarted
    # peer; warm followers live on deltas alone).
    snapshots_applied = 0
    for name, report in stats.items():
        replication = report["replication"]
        assert replication["quorum"] == Q_QUORUM, name
        assert replication["epoch"] >= 1, \
            f"{name} never learned the promotion epoch"
        assert "exhausted_served" in report, name
        snapshots_applied += replication["follows"]["snapshots_applied"]
    assert snapshots_applied >= 1, \
        "no follower was ever seeded by a full-state transfer"

    first_success = min(recoveries)
    served = sum(len(log.successes) for log in logs)
    exhausted = sum(log.exhausted for log in logs)
    table_printer(
        f"Two simultaneous SIGKILLs: {Q_CLIENTS} clients, {Q_SHARDS} "
        f"shards, --replicas {Q_REPLICAS}, quorum {Q_QUORUM}"
        + (" [smoke]" if QUORUM_SMOKE else ""),
        ["Metric", "Value"],
        [
            ["victim shards (own lic-0 chain)", ", ".join(victims)],
            ["renewals served", served],
            ["kills -> first victim-license renew", f"{first_success:.3f} s"],
            ["backpressure (EXHAUSTED) answers", exhausted],
            ["units forfeited (victim licenses)", forfeited],
            ["state transfers applied (survivors)", snapshots_applied],
            ["double-granted licenses", len(double_grants)],
            ["client failures", len(failures)],
        ],
    )

    # Unlike the single-kill bench this file always persists results:
    # the CI smoke step uploads BENCH_quorum.json as its run artifact.
    payload = {
        "benchmark": "quorum_two_shard_kill",
        "smoke": QUORUM_SMOKE,
        "clients": Q_CLIENTS,
        "shards": Q_SHARDS,
        "replicas": Q_REPLICAS,
        "quorum": Q_QUORUM,
        "licenses": LICENSES,
        "lag_budget": LAG_BUDGET,
        "lag_grants": LAG_GRANTS,
        "victim_shards": victims,
        "renewals_served": served,
        "kill_to_first_success_seconds": round(first_success, 4),
        "backpressure_exhausted": exhausted,
        "forfeited_units": forfeited,
        "snapshots_applied": snapshots_applied,
        "double_grants": len(double_grants),
        "failed_calls": len(failures),
    }
    with open(BENCH_QUORUM_JSON, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


# ----------------------------------------------------------------------
# Membership: the ring add CLI verb migrates a live fleet, zero failures
# ----------------------------------------------------------------------
def test_ring_add_migrates_live_fleet_without_failed_calls(table_printer):
    two_ring = HashRing(default_shard_names(2))
    grown = two_ring.add_shard("shard-2")
    expected_moves = sorted(
        f"lic-{i}" for i in range(LICENSES)
        if grown.shard_for(f"lic-{i}") == "shard-2"
    )
    assert expected_moves, "pick license names so the join migrates some"

    ports = _free_ports(3)
    processes = _spawn_fleet(ports[:2], replicas=0)
    url = _fleet_url(ports[:2], timeout=10)
    joiner = None
    stop_event, started = threading.Event(), threading.Event()
    logs = [_ClientLog() for _ in range(CLIENTS)]
    try:
        threads = _run_crowd(url, stop_event, started, logs)
        started.set()
        time.sleep(WARMUP_SECONDS / 2)
        # The joining shard is a blank server: no --shard-of, no
        # licenses.  Everything it serves arrives via migration.
        joiner = _spawn(["serve-remote", "--port", str(ports[2]),
                         "--accept-any-platform"])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
        admin = subprocess.run(
            [sys.executable, "-m", "repro.cli", "ring", "add",
             "--endpoint", url, "--name", "shard-2",
             "--address", f"127.0.0.1:{ports[2]}"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert admin.returncode == 0, admin.stdout + admin.stderr
        time.sleep(WARMUP_SECONDS / 2)  # stale routers chase tombstones
        stop_event.set()
        for thread in threads:
            thread.join(timeout=120)
        # A *fresh* client that only knows the original two shards must
        # reach every migrated license through its redirect tombstone.
        fresh = connect(url)
        try:
            for license_id in expected_moves:
                machine = SgxMachine(f"fresh-{license_id}")
                report = machine.local_authority.generate_report(1, 1,
                                                                 nonce=1)
                slid = fresh.call(
                    "init",
                    InitRequest(slid=None, report=report,
                                platform_secret=machine.platform_secret),
                    clock=machine.clock, stats=machine.stats,
                ).slid
                renewal = fresh.call(
                    "renew",
                    RenewRequest(slid=slid, license_id=license_id,
                                 license_blob=_blob_for(license_id),
                                 network_reliability=1.0, health=1.0),
                    clock=machine.clock,
                )
                assert renewal.status is Status.OK
                fresh.call("return_units",
                           (slid, license_id, renewal.granted_units),
                           clock=machine.clock)
        finally:
            fresh.close()
        # The conservation audit needs eyes on all three shards: the old
        # owners released the migrated ledgers behind their tombstones.
        probe = _fleet_audit(_fleet_url(ports, timeout=10,
                                        names="shard-0,shard-1,shard-2"))
    finally:
        stop_event.set()
        _stop(processes + ([joiner] if joiner is not None else []))

    failures = [log.failure for log in logs if log.failure is not None]
    assert not failures, f"client failures during migration: {failures[:3]}"
    assert f"migrated {len(expected_moves)} license(s)" in admin.stdout

    granted = _sum_logs(logs, "granted")
    returned = _sum_logs(logs, "returned")
    for license_id, entry in probe.items():
        held = granted.get(license_id, 0) - returned.get(license_id, 0)
        assert held <= entry["outstanding"], \
            f"{license_id}: migration dropped {held} held units"
        assert entry["lost"] == 0

    table_printer(
        f"ring add under load: {CLIENTS} clients, 2 -> 3 shards"
        + (" [smoke]" if SMOKE else ""),
        ["Metric", "Value"],
        [
            ["licenses migrated", ", ".join(expected_moves)],
            ["renewals served", sum(len(log.successes) for log in logs)],
            ["client failures", len(failures)],
        ],
    )
