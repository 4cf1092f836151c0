"""Binary wire frames + coalesced renewal batching, end to end.

The batching claim, measured over real sockets against one live
``serve-remote --io async`` process: a client that sends one frame per
renewal pays one durable-commit budget per renewal, so 100 clients on
100 connections top out near the ~685 req/s the async-serving release
recorded.  Client-side renewal coalescing changes that — concurrent
renewals ride one length-prefixed ``renew_batch`` frame, the server
vectorizes the batch through one dispatch hop, and the whole batch
pays **one** ledger-commit charge — so throughput scales with the
coalesced group size instead of the per-license commit rate.

Both crowds drive the same workload shape (init once, then renew +
return in a tight loop, every grant returned so the run stays
commit-bound) against the *same* server binary and the same v3 frames;
only the client's connection shape and batch window differ.  Every run
ends with the standard fleet-wide ledger audit — speed that loses
units would be a non-result — and the server's wire counters price
each configuration in actual bytes per renewal.

``SL_WIRE_SMOKE=1`` shrinks the crowd for CI; the >= 5x acceptance bar
(and the ``BENCH_wire_format.json`` artifact) applies at full scale.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time

import pytest

from repro.core.protocol import InitRequest, RenewRequest, Status
from repro.net.endpoint import connect
from repro.sgx import SgxMachine
from repro.sim.clock import Clock

SMOKE = bool(os.environ.get("SL_WIRE_SMOKE"))

CLIENTS = 16 if SMOKE else 100
LICENSES = 4 if SMOKE else 8
RENEWALS_PER_CLIENT = 2 if SMOKE else 4
COMMIT_SECONDS = 0.01 if SMOKE else 0.02
#: How long the leader waits for stragglers before shipping a batch —
#: a fraction of the commit budget it amortizes, long enough for one
#: endpoint's whole crowd to regroup after each round.
BATCH_WINDOW = 0.005
#: Multiplexed endpoints for the batching crowd: each coalesces its
#: share of the clients onto one connection.  A handful keeps batches
#: large (CLIENTS / SHARED_ENDPOINTS per frame) without funneling every
#: return through a single connection reader.
SHARED_ENDPOINTS = 2 if SMOKE else 4
POOL = 10**9

#: The async-serving release's full-scale req/s on this workload shape
#: (100 clients, 8 licenses, 20 ms commits): the acceptance baseline.
BASELINE_REQS_PER_SECOND = 685.0
TARGET_SPEEDUP = 5.0

MARKER = "SL-Remote listening on "
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_JSON = os.path.join(REPO_ROOT, "BENCH_wire_format.json")


# ----------------------------------------------------------------------
# Server-process harness
# ----------------------------------------------------------------------
def _spawn_server():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    command = [
        sys.executable, "-m", "repro.cli", "serve-remote",
        "--port", "0", "--accept-any-platform",
        "--io", "async", "--max-workers", str(CLIENTS),
        "--ledger-commit-seconds", str(COMMIT_SECONDS),
    ]
    for index in range(LICENSES):
        command += ["--license", f"lic-{index}:{POOL}"]
    process = subprocess.Popen(command, stdout=subprocess.PIPE,
                               stderr=subprocess.STDOUT, text=True, env=env)
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if not line:
            break
        if line.startswith(MARKER):
            host, port = line[len(MARKER):].strip().rsplit(":", 1)
            return process, (host, int(port))
    process.kill()
    raise RuntimeError("serve-remote subprocess never reported its port")


@pytest.fixture
def wire_server():
    process, address = _spawn_server()
    yield address
    process.terminate()
    try:
        process.wait(timeout=10)
    except subprocess.TimeoutExpired:
        process.kill()


# ----------------------------------------------------------------------
# Client crowd
# ----------------------------------------------------------------------
def _blob_for(license_id):
    from repro.core.licensefile import VENDOR_SECRET, mint_license_blob

    return mint_license_blob(license_id, VENDOR_SECRET)


def _drive_crowd(make_endpoint, shared_endpoints: int):
    """``CLIENTS`` threads: init once, then renew/return in a tight loop.

    ``shared_endpoints > 0`` is the batching shape: the crowd
    multiplexes that many endpoints, so each one coalesces the
    concurrent renewals of ``CLIENTS / shared_endpoints`` threads into
    batch frames.  ``shared_endpoints == 0`` dials one endpoint per
    thread (the classic connection-per-client fleet).  Returns
    (elapsed, count, latencies, endpoints-to-inspect).
    """
    blobs = {f"lic-{i}": _blob_for(f"lic-{i}") for i in range(LICENSES)}
    latencies = [[] for _ in range(CLIENTS)]
    requests = [0] * CLIENTS
    failures = []
    barrier = threading.Barrier(CLIENTS + 1)
    endpoints = [make_endpoint() for _ in range(shared_endpoints)]

    def client(index):
        license_id = f"lic-{index % LICENSES}"
        machine = SgxMachine(f"wire-{index}")
        if shared_endpoints:
            endpoint = endpoints[index % shared_endpoints]
        else:
            endpoint = make_endpoint()
            endpoints.append(endpoint)
        try:
            report = machine.local_authority.generate_report(1, 1, nonce=1)
            response = endpoint.call(
                "init",
                InitRequest(slid=None, report=report,
                            platform_secret=machine.platform_secret),
                clock=machine.clock, stats=machine.stats,
            )
            slid = response.slid
            barrier.wait()
            for _ in range(RENEWALS_PER_CLIENT):
                start = time.monotonic()
                renewal = endpoint.call(
                    "renew",
                    RenewRequest(slid=slid, license_id=license_id,
                                 license_blob=blobs[license_id],
                                 network_reliability=1.0, health=1.0),
                    clock=machine.clock,
                )
                latencies[index].append(time.monotonic() - start)
                requests[index] += 1
                if renewal.status is not Status.OK:
                    failures.append((index, renewal.status))
                    return
                endpoint.call(
                    "return_units",
                    (slid, license_id, renewal.granted_units),
                    clock=machine.clock,
                )
                requests[index] += 1
        except Exception as exc:  # noqa: BLE001 - surfaced to the main thread
            failures.append((index, exc))
            try:
                barrier.wait(timeout=1)
            except threading.BrokenBarrierError:
                pass

    threads = [threading.Thread(target=client, args=(i,))
               for i in range(CLIENTS)]
    for thread in threads:
        thread.start()
    try:
        barrier.wait()
    except threading.BrokenBarrierError:
        pass
    start = time.monotonic()
    for thread in threads:
        thread.join(timeout=600)
    elapsed = time.monotonic() - start
    assert not failures, f"client failures: {failures[:3]}"
    flat = sorted(lat for per_client in latencies for lat in per_client)
    return elapsed, sum(requests), flat, endpoints


def _audit_conservation(make_endpoint):
    endpoint = make_endpoint()
    try:
        probe = endpoint.call("ledger_probe", None, clock=Clock())
    finally:
        endpoint.close()
    assert len(probe) == LICENSES
    for license_id, entry in probe.items():
        assert entry["outstanding"] + entry["lost"] + entry["available"] \
            == entry["total"], f"{license_id} leaked units"


def _server_wire_stats(address):
    endpoint = connect("sl://{}:{}".format(*address), timeout_seconds=120.0)
    try:
        return endpoint.call("_server_stats", None, clock=Clock())["wire"]
    finally:
        endpoint.close()


def _quantile(sorted_values, q):
    return sorted_values[min(len(sorted_values) - 1,
                             int(q * len(sorted_values)))]


# ----------------------------------------------------------------------
# The benchmark
# ----------------------------------------------------------------------
def test_batched_renewals_beat_the_baseline_by_5x(
    wire_server, benchmark, table_printer
):
    host, port = wire_server

    def measure_config(label, url, shared_endpoints):
        before = _server_wire_stats(wire_server)
        elapsed, count, latencies, endpoints = _drive_crowd(
            lambda: connect(url, timeout_seconds=120.0),
            shared_endpoints=shared_endpoints,
        )
        after = _server_wire_stats(wire_server)
        renewals = CLIENTS * RENEWALS_PER_CLIENT
        batching = [endpoint.transport.coalescer for endpoint in endpoints
                    if getattr(endpoint.transport, "coalescer", None)]
        result = {
            "label": label,
            "clients": CLIENTS,
            "requests": count,
            "elapsed_seconds": round(elapsed, 4),
            "requests_per_second": round(count / elapsed, 1),
            "p50_ms": round(_quantile(latencies, 0.50) * 1e3, 2),
            "p99_ms": round(_quantile(latencies, 0.99) * 1e3, 2),
            "bytes_per_renewal": round(
                (after["bytes_decoded"] - before["bytes_decoded"]) / renewals,
                1,
            ),
            "batches_sent": sum(c.batches_sent for c in batching),
            "largest_batch": max(
                (c.largest_batch for c in batching), default=0
            ),
        }
        for endpoint in endpoints:
            endpoint.close()
        _audit_conservation(
            lambda: connect(f"sl://{host}:{port}", timeout_seconds=120.0)
        )
        return result

    def measure():
        unbatched_v3 = measure_config(
            "v3, connection per client, no batch window",
            f"sl://{host}:{port}", shared_endpoints=0,
        )
        binary_v3 = measure_config(
            f"v3, {SHARED_ENDPOINTS} batching endpoints",
            f"sl://{host}:{port}?batch_window={BATCH_WINDOW}",
            shared_endpoints=SHARED_ENDPOINTS,
        )
        return unbatched_v3, binary_v3

    unbatched_v3, binary_v3 = benchmark.pedantic(measure, rounds=1,
                                                 iterations=1)
    speedup = (binary_v3["requests_per_second"]
               / unbatched_v3["requests_per_second"])

    def _bench_row(result):
        return [result["label"], result["requests"],
                f"{result['requests_per_second']:8.1f}",
                f"{result['p50_ms']:7.1f}", f"{result['p99_ms']:7.1f}",
                f"{result['bytes_per_renewal']:7.1f}",
                result["largest_batch"]]

    table_printer(
        f"Wire format + batching: {CLIENTS} clients, {LICENSES} licenses, "
        f"{COMMIT_SECONDS * 1e3:.0f} ms ledger commit"
        + (" [smoke]" if SMOKE else ""),
        ["Configuration", "Requests", "Req/s", "p50 ms", "p99 ms",
         "B/renewal", "Max batch"],
        [
            _bench_row(unbatched_v3),
            _bench_row(binary_v3),
            ["speedup", "", f"{speedup:8.2f}x", "", "", "", ""],
        ],
    )

    # Identical workload either way; the batched path really coalesced
    # and sharing frames really saves bytes on the wire.
    assert unbatched_v3["requests"] == binary_v3["requests"] \
        == CLIENTS * RENEWALS_PER_CLIENT * 2
    assert binary_v3["batches_sent"] >= 1
    assert binary_v3["largest_batch"] >= (2 if CLIENTS > 1 else 1)
    assert binary_v3["bytes_per_renewal"] < unbatched_v3["bytes_per_renewal"]

    if not SMOKE:
        payload = {
            "benchmark": "wire_format_batching",
            "smoke": SMOKE,
            "commit_seconds": COMMIT_SECONDS,
            "licenses": LICENSES,
            "renewals_per_client": RENEWALS_PER_CLIENT,
            "batch_window_seconds": BATCH_WINDOW,
            "shared_endpoints": SHARED_ENDPOINTS,
            "baseline_requests_per_second": BASELINE_REQS_PER_SECOND,
            "unbatched_v3": unbatched_v3,
            "binary_v3": binary_v3,
            "speedup_vs_unbatched": round(speedup, 2),
            "speedup_vs_baseline": round(
                binary_v3["requests_per_second"] / BASELINE_REQS_PER_SECOND,
                2,
            ),
        }
        with open(BENCH_JSON, "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        # Acceptance bar: the batched binary wire must clear 5x the
        # async-serving release's 685 req/s on the same client count.
        floor = TARGET_SPEEDUP * BASELINE_REQS_PER_SECOND
        assert binary_v3["requests_per_second"] >= floor, (
            f"batched v3 only {binary_v3['requests_per_second']:.0f} req/s "
            f"(needs {floor:.0f})"
        )
