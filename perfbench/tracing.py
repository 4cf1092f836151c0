"""Spans around calls into the program's public entry points.

The benchmark never edits the program: it wraps named functions and
methods from the outside, in whatever process runs them (the runner
itself, or a ``serve-remote`` started through ``launcher.py``).  Each
wrapped call is a span; a span's *self time* is its duration minus
the time its child spans (nested calls on the same thread) cover.

Spans are aggregated as they close — count, total and self
nanoseconds per span name — so a run of a million checks keeps a few
dozen numbers in memory, not a million records.  ``self_times`` is the
same rule applied to an explicit span list; the tests hold the online
aggregation to it.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: (span name, "module:Qualified.name") pairs, by where they run.
#: Client side of a socket workload: the shard router, one socket
#: round trip (whose self time is the send and the kernel's hand-off),
#: the frames it encodes and decodes, and the wait for the reply.
CLIENT_TARGETS = (
    ("router.request", "repro.net.sharding:ShardRouterTransport.request"),
    ("io.transport", "repro.net.transport:TcpTransport.request"),
    ("codec.encode", "repro.net.codec:encode_request"),
    ("codec.decode", "repro.net.codec:decode_reply"),
    ("io.wait", "repro.net.transport:read_frame"),
)

#: Server side: everything a request touches between its frame
#: arriving and its reply leaving, plus the background passes (WAL
#: compaction, replication flush/snapshot) that contend with it.
SERVER_TARGETS = (
    ("codec.decode", "repro.net.codec:decode_request_envelope"),
    ("codec.encode", "repro.net.codec:encode_response"),
    ("server.dispatch", "repro.net.transport:HandlerTable.dispatch"),
    ("sl_remote.renew", "repro.core.sl_remote:SlRemote.handle_renew"),
    ("sl_remote.return", "repro.core.sl_remote:SlRemote.return_units"),
    ("sl_remote.batch", "repro.core.sl_remote:SlRemote.handle_renew_batch"),
    ("sl_remote.init", "repro.core.sl_remote:SlRemote.handle_init"),
    ("sl_remote.shutdown", "repro.core.sl_remote:SlRemote.handle_shutdown"),
    ("replication.export_identity",
     "repro.core.sl_remote:SlRemote.export_identity"),
    ("renewal.eq1", "repro.core.renewal:renew_lease_inplace"),
    ("wal.append", "repro.storage.wal:WriteAheadLog.append"),
    ("wal.encode", "repro.storage.wal:WalRecord.encode"),
    ("wal.sync", "repro.storage.wal:WriteAheadLog.sync"),
    ("wal.compact", "repro.storage.wal:ShardPersistence.compact"),
    ("wal.recover", "repro.storage.wal:ShardPersistence.recover"),
    ("crypto.aes_encrypt", "repro.crypto.aes:aes128_ctr_encrypt"),
    ("crypto.aes_decrypt", "repro.crypto.aes:aes128_ctr_decrypt"),
    ("crypto.hmac", "repro.crypto.hmac:hmac_sha256"),
    ("replication.quorum_wait",
     "repro.net.replication:ReplicationSource.wait_identity_quorum"),
    ("replication.flush", "repro.net.replication:ReplicationSource.flush_now"),
    ("replication.snapshot",
     "repro.net.replication:ReplicationSource.snapshot_now"),
    ("replication.apply", "repro.net.replication:FollowerStore.apply_batch"),
)

#: The in-process license check: SL-Manager down to the sealed tree,
#: plus the in-process SL-Remote it renews from.
LOCAL_TARGETS = (
    ("manager.check", "repro.core.sl_manager:SlManager.check"),
    ("sl_local.attest", "repro.core.sl_local:SlLocal.handle_attest"),
    ("lease_tree.find", "repro.core.lease_tree:LeaseTree.find"),
    ("lease_tree.commit", "repro.core.lease_tree:LeaseTree.commit_lease"),
    ("tokens.issue", "repro.core.tokens:ExecutionToken.issue"),
    ("sl_remote.renew", "repro.core.sl_remote:SlRemote.handle_renew"),
    ("renewal.eq1", "repro.core.renewal:renew_lease_inplace"),
    ("crypto.aes_encrypt", "repro.crypto.aes:aes128_ctr_encrypt"),
    ("crypto.aes_decrypt", "repro.crypto.aes:aes128_ctr_decrypt"),
    ("crypto.hmac", "repro.crypto.hmac:hmac_sha256"),
)


class Tracer:
    """Online span aggregation: ``name -> [count, total_ns, self_ns]``.

    Thread-safe: each thread keeps its own span stack (so nesting, and
    therefore self time, is per thread) and folds closed spans into
    the shared table under a lock.  ``results`` holds outcome counts
    reported by span observers (e.g. how many renewals granted).
    """

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.spans: Dict[str, List[int]] = {}
        self.results: Dict[str, int] = {}
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(self, name: str, duration_ns: int, self_ns: int) -> None:
        with self._lock:
            row = self.spans.get(name)
            if row is None:
                row = self.spans[name] = [0, 0, 0]
            row[0] += 1
            row[1] += duration_ns
            row[2] += self_ns

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.results[name] = self.results.get(name, 0) + amount

    def wrap(self, name: str, fn: Callable,
             observe: Optional[Callable[["Tracer", Any], None]] = None,
             classify: Optional[Callable[[tuple, Any], str]] = None
             ) -> Callable:
        """``fn`` timed as span ``name``.

        ``classify(args, result)`` may return a suffix that files the
        span under ``name + suffix`` (a server tells its peers' frames
        from its clients' that way); ``observe(tracer, result)`` runs
        after the span closes, outside its time.
        """
        tracer = self
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            stack.append(0)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                children = stack.pop()
                if stack:
                    stack[-1] += duration
                label = name if classify is None else (
                    name + classify(args, result))
                tracer.record(label, duration, duration - children)
            if observe is not None:
                observe(tracer, result)
            return result

        return traced

    # -- patching ------------------------------------------------------
    def install(self, targets: Iterable[Tuple[str, str]],
                observers: Optional[Dict[str, Callable]] = None,
                classifiers: Optional[Dict[str, Callable]] = None) -> None:
        """Wrap every target in place (see :meth:`wrap` for the hooks,
        keyed here by span name).

        A module-level function is also rebound in every loaded
        ``repro`` module that imported it by name, so callers that did
        ``from module import fn`` are traced too.
        """
        observers = observers or {}
        classifiers = classifiers or {}
        for name, path in targets:
            module_name, qualname = path.split(":")
            module = importlib.import_module(module_name)
            owner: Any = module
            *parents, attr = qualname.split(".")
            for part in parents:
                owner = getattr(owner, part)
            raw = owner.__dict__[attr]
            hooks = (observers.get(name), classifiers.get(name))
            if isinstance(raw, staticmethod):
                wrapped: Any = staticmethod(
                    self.wrap(name, raw.__func__, *hooks))
            elif isinstance(raw, classmethod):
                wrapped = classmethod(self.wrap(name, raw.__func__, *hooks))
            else:
                wrapped = self.wrap(name, raw, *hooks)
            self._patches.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
            if owner is module:
                for other in list(sys.modules.values()):
                    namespace = getattr(other, "__dict__", None)
                    if (other is not module and namespace is not None
                            and getattr(other, "__name__", "").startswith(
                                "repro")
                            and namespace.get(attr) is raw):
                        self._patches.append((other, attr, raw))
                        setattr(other, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    # -- output --------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "spans": {name: list(row) for name, row in self.spans.items()},
                "results": dict(self.results),
            }


def self_times(spans: Iterable[Tuple[str, int, int, Optional[int]]]
               ) -> Dict[int, int]:
    """Reference self-time rule over explicit spans.

    ``spans`` are ``(name, start_ns, end_ns, parent_index)`` records
    (``parent_index`` indexes into the same sequence, ``None`` for a
    root).  Returns ``index -> self_ns``: the span's duration minus
    the part of its interval that its children cover.  Overlapping
    children count their union once.
    """
    records = list(spans)
    children: Dict[int, List[Tuple[int, int]]] = {}
    for index, (_name, start, end, parent) in enumerate(records):
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    result: Dict[int, int] = {}
    for index, (_name, start, end, _parent) in enumerate(records):
        covered = 0
        cursor = start
        for child_start, child_end in sorted(children.get(index, [])):
            child_start = max(child_start, cursor)
            child_end = min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        result[index] = (end - start) - covered
    return result


def delta(after: Dict[str, Any], before: Dict[str, Any]) -> Dict[str, Any]:
    """What happened between two snapshots of one tracer."""
    spans = {}
    for name, row in after.get("spans", {}).items():
        base = before.get("spans", {}).get(name, [0, 0, 0])
        diff = [row[i] - base[i] for i in range(3)]
        if diff[0]:
            spans[name] = diff
    results = {}
    for name, value in after.get("results", {}).items():
        diff = value - before.get("results", {}).get(name, 0)
        if diff:
            results[name] = diff
    return {"spans": spans, "results": results}


def merge(*snapshots: Dict[str, Any]) -> Dict[str, Any]:
    """Sum span tables and result counters from several processes."""
    spans: Dict[str, List[int]] = {}
    results: Dict[str, int] = {}
    for snapshot in snapshots:
        for name, row in snapshot.get("spans", {}).items():
            total = spans.setdefault(name, [0, 0, 0])
            for i in range(3):
                total[i] += row[i]
        for name, value in snapshot.get("results", {}).items():
            results[name] = results.get(name, 0) + value
    return {"spans": spans, "results": results}
