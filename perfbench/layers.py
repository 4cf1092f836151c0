"""Per-layer metrics: the catalogue, and how span tables become numbers.

Every workload reports every metric in ``PER_LAYER``.  A layer a
workload bypasses reads 0 there — which is itself the prediction: a
codec change must leave ``check-local`` at zero codec time, a lease
tree change must leave the socket workloads at zero tree time.

Time metrics are *self* times (a span minus the spans nested in it)
per call, except ``io.overhead_us`` and the ``trace.*`` times, which
are per op; an op is one unit of the workload's offered load (a
check, a renew+return pair, a lifecycle).
"""

from __future__ import annotations

from typing import Dict, Optional

from common import DECOMPOSITION_TOLERANCE

#: name -> unit, in report order.
PER_LAYER = {
    "codec.encode_us": "us",
    "codec.decode_us": "us",
    "codec.bytes_per_renew": "B",
    "io.overhead_us": "us",
    "io.connections": "count",
    "sl_remote.renew_us": "us",
    "sl_remote.return_us": "us",
    "sl_remote.batch_us": "us",
    "sl_remote.init_us": "us",
    "sl_remote.shutdown_us": "us",
    "renewal.eq1_us": "us",
    "renewal.grant_ratio": "fraction",
    "renewal.degraded": "count",
    "wal.append_us": "us",
    "wal.sync_us": "us",
    "wal.appends_per_op": "count",
    "wal.syncs_per_op": "count",
    "wal.bytes_per_op": "B",
    "wal.compact_ms": "ms",
    "wal.compactions": "count",
    "wal.replay_records_per_s": "1/s",
    "crypto.aes_us_per_call": "us",
    "crypto.aes_calls_per_op": "count",
    "crypto.hmac_us": "us",
    "router.route_us": "us",
    "router.redirects": "count",
    "router.retries": "count",
    "replication.quorum_wait_us": "us",
    "replication.flush_us": "us",
    "replication.snapshot_ms": "ms",
    "replication.export_identity_ms": "ms",
    "replication.enrolled_slids": "count",
    "replication.apply_us": "us",
    "replication.ack_lag": "deltas",
    "sl_local.attest_us": "us",
    "sl_local.remote_renewals_per_kcheck": "count",
    "lease_tree.find_us": "us",
    "lease_tree.unseals_per_kcheck": "count",
    "lease_tree.commit_us": "us",
    "tokens.issue_us": "us",
    "sgx.cycles_per_check": "cycles",
    "sgx.ecalls_per_check": "count",
    "sgx.local_attestations_per_check": "count",
    "server.cpu_util": "fraction",
    "loadgen.cpu_util": "fraction",
    "loadgen.slip_p99_ms": "ms",
    "trace.residual_us": "us",
    "trace.residual_ratio": "fraction",
    "trace.overhead_us": "us",
}


def calls(spans: Dict, name: str) -> int:
    row = spans.get(name)
    return row[0] if row else 0


def self_us(spans: Dict, name: str) -> float:
    """Mean self time of one call of span ``name``, in µs (0 if none)."""
    row = spans.get(name)
    return row[2] / row[0] / 1e3 if row else 0.0


def total_ns(spans: Dict, *names: str, column: int = 1) -> int:
    return sum(spans[name][column] for name in names if name in spans)


def crypto_layers(spans: Dict, ops: int) -> Dict[str, float]:
    """AES (seal and unseal alike) per call and per op; HMAC per call."""
    aes = ("crypto.aes_encrypt", "crypto.aes_decrypt")
    aes_calls = sum(calls(spans, name) for name in aes)
    return {
        "crypto.aes_us_per_call": (total_ns(spans, *aes, column=2)
                                   / aes_calls / 1e3 if aes_calls else 0.0),
        "crypto.aes_calls_per_op": aes_calls / ops,
        "crypto.hmac_us": self_us(spans, "crypto.hmac"),
    }


def socket_layers(client: Dict, server: Dict, ops: int, client_ns: float,
                  plain_service_ms: float,
                  traced_service_ms: float) -> Dict[str, float]:
    """Layer metrics of a socket workload's traced phase.

    ``client``/``server`` are span snapshots (``{"spans", "results"}``)
    of the runner and of every server process, over the same phase;
    ``client_ns`` is the runner's own measure of the time its ``ops``
    spent in calls.  The blocking path of one call is: router →
    socket round trip (client encode, send, reply wait, client
    decode); the reply wait holds the server's decode → dispatch →
    encode, and the rest of the round trip — sending, waking the
    server's IO loop and being woken by it — is ``io.overhead``.
    ``trace.residual`` is the client time no span covers.
    """
    cs, ss = client["spans"], server["spans"]
    results = server["results"]
    encode = ("codec.encode",)
    decode = ("codec.decode",)
    frames_encoded = calls(cs, *encode) + calls(ss, *encode)
    frames_decoded = calls(cs, *decode) + calls(ss, *decode)
    server_frame_ns = total_ns(ss, "codec.decode", "server.dispatch",
                               "codec.encode")
    io_ns = (total_ns(cs, "io.wait")
             + total_ns(cs, "io.transport", column=2))
    # Round trips nest under the router when there is one; its self
    # time is the routing.
    covered_ns = (total_ns(cs, "io.transport")
                  + total_ns(cs, "router.request", column=2))
    residual_ns = client_ns - covered_ns
    wal_records = calls(ss, "wal.encode")
    attempts = results.get("renewal.attempts", 0)
    compact = ss.get("wal.compact")
    return {
        **crypto_layers(ss, ops),
        "codec.encode_us": (total_ns(cs, *encode, column=2)
                            + total_ns(ss, *encode, column=2))
        / frames_encoded / 1e3 if frames_encoded else 0.0,
        "codec.decode_us": (total_ns(cs, *decode, column=2)
                            + total_ns(ss, *decode, column=2))
        / frames_decoded / 1e3 if frames_decoded else 0.0,
        "io.overhead_us": (io_ns - server_frame_ns) / ops / 1e3,
        "sl_remote.renew_us": self_us(ss, "sl_remote.renew"),
        "sl_remote.return_us": self_us(ss, "sl_remote.return"),
        "sl_remote.batch_us": self_us(ss, "sl_remote.batch"),
        "sl_remote.init_us": self_us(ss, "sl_remote.init"),
        "sl_remote.shutdown_us": self_us(ss, "sl_remote.shutdown"),
        "renewal.eq1_us": self_us(ss, "renewal.eq1"),
        "renewal.grant_ratio": (results.get("renewal.granted", 0) / attempts
                                if attempts else 0.0),
        "wal.append_us": self_us(ss, "wal.append"),
        "wal.sync_us": self_us(ss, "wal.sync"),
        "wal.appends_per_op": calls(ss, "wal.append") / ops,
        "wal.syncs_per_op": calls(ss, "wal.sync") / ops,
        # A frame is an 8-byte header, an 8-byte nonce, the sealed
        # record and its 32-byte digest.
        "wal.bytes_per_op": (results.get("wal.record_bytes", 0)
                             + 48 * wal_records) / ops,
        "wal.compact_ms": compact[1] / compact[0] / 1e6 if compact else 0.0,
        "wal.compactions": float(calls(ss, "wal.compact")),
        "router.route_us": self_us(cs, "router.request"),
        "replication.quorum_wait_us": self_us(ss, "replication.quorum_wait"),
        "replication.flush_us": self_us(ss, "replication.flush"),
        "replication.snapshot_ms": self_us(ss, "replication.snapshot") / 1e3,
        "replication.export_identity_ms":
            self_us(ss, "replication.export_identity") / 1e3,
        "replication.apply_us": self_us(ss, "replication.apply"),
        "trace.residual_us": residual_ns / ops / 1e3,
        "trace.residual_ratio": residual_ns / client_ns,
        "trace.overhead_us": (traced_service_ms - plain_service_ms) * 1e3,
    }


def decomposition_problem(layers: Dict[str, float]) -> Optional[str]:
    """The traced run's parts must add up to the client's latency."""
    ratio = layers.get("trace.residual_ratio", 0.0)
    if abs(ratio) > DECOMPOSITION_TOLERANCE:
        return (f"spans explain the client latency only to within "
                f"{ratio:.1%} (tolerance {DECOMPOSITION_TOLERANCE:.0%})")
    return None


def complete(layers: Dict[str, float]) -> Dict[str, float]:
    """Every catalogued metric, bypassed layers at 0."""
    return {name: float(layers.get(name, 0.0)) for name in PER_LAYER}
