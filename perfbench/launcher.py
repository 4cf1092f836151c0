"""Start ``repro.cli`` with the server-side layers traced.

Usage::

    python perfbench/launcher.py TRACE_FILE serve-remote --port 0 ...

Everything after ``TRACE_FILE`` is handed to ``repro.cli.main``
unchanged; the entry points in ``tracing.SERVER_TARGETS`` are wrapped
before the CLI builds the server, so the handler tables bind the
traced methods.  The span table is written to ``TRACE_FILE`` (JSON,
replaced atomically) on SIGUSR1 — so a process that is about to be
SIGKILLed can still report — and again if the CLI returns.
"""

from __future__ import annotations

import json
import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)


def _write(path: str, tracer) -> None:
    staging = path + ".tmp"
    with open(staging, "w") as handle:
        json.dump(tracer.snapshot(), handle)
    os.replace(staging, path)


def main(argv) -> int:
    from repro import cli
    from tracing import SERVER_TARGETS, Tracer

    trace_file, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install(SERVER_TARGETS, observers={
        "sl_remote.renew": _count_renewal,
        "sl_remote.batch": _count_batch,
        "wal.encode": lambda tracer, record: tracer.count(
            "wal.record_bytes", len(record)),
    }, classifiers={
        "codec.decode": lambda args, result: _other(
            result[0] if result else None),
        "codec.encode": lambda args, result: (
            ".other" if isinstance(args[0], dict) else ""),
        "server.dispatch": lambda args, result: _other(args[1]),
    })
    signal.signal(signal.SIGUSR1, lambda *_: _write(trace_file, tracer))
    try:
        return cli.main(cli_args)
    finally:
        _write(trace_file, tracer)


#: Frames that are not a client's lease operation: replication between
#: shards, stats probes, audits and the wire hello.  Their spans are
#: filed under ``<span>.other`` so a client's blocking path excludes them.
OTHER_METHODS = frozenset({
    "replicate", "sync_snapshot", "bootstrap", "replication_probe",
    "promote", "_server_stats", "ledger_probe", "_wire_hello",
})


def _other(method) -> str:
    return ".other" if method in OTHER_METHODS else ""


def _count_renewal(tracer, response) -> None:
    tracer.count("renewal.attempts")
    if getattr(getattr(response, "status", None), "value", None) == "ok":
        tracer.count("renewal.granted")


def _count_batch(tracer, reply) -> None:
    for response in getattr(reply, "responses", ()):
        _count_renewal(tracer, response)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
