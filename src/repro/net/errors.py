"""The one error surface every network backend raises from.

Before this module, a failed lease call surfaced as whatever the
backend happened to throw: ``ConnectionError`` from a dial loop, a
generic ``TransportError`` from a retry loop, a ``RemoteCallError``
whose *message text* had to be string-matched to discover the server
shed the connection.  Callers that wanted to react differently to
"server is gone" vs "server is overloaded" vs "license is mid-
migration" could not, portably.

The hierarchy::

    TransportError                  a request could not be completed
    ├── DialError                   (re)connect budget exhausted — the
    │                               far side is unreachable
    ├── RetriesExhausted            the per-call retry budget ran out on
    │                               an established session
    ├── TamperedFrame               a reply frame failed to decode —
    │                               tampering evidence, never retried
    ├── Overloaded                  the server answered with its typed
    │                               connection-shedding envelope
    └── Migrating                   a license's ledger is mid-migration
                                    and bounded retries did not outlast
                                    the freeze window

The socket client (:class:`~repro.net.transport.TcpTransport`) and the
shard router (:mod:`repro.net.sharding`) raise from this hierarchy; a
failure that one reply frame causes (a tampered reply, the overload
envelope, a dead connection) is raised in every call then in flight on
that socket.  The legacy name
``repro.net.transport.TransportError`` is an alias of the base class,
so existing ``except TransportError`` call sites keep working and the
RPC layer's :class:`~repro.net.rpc.RpcError` wrapping is unchanged.

Semantics worth knowing:

* :class:`DialError` is **not** retried by the per-call budget — if a
  full reconnect budget (N dials with exponential backoff) could not
  reach the host, immediately re-dialing ``max_attempts`` more times
  would only multiply the two budgets.  It is also the shard router's
  failover trigger: a shard that cannot be dialed is presumed dead and
  its follower is promoted.
* :class:`Overloaded` is terminal for the attempt — the server
  *answered* (with ``{"overloaded": true}`` envelope metadata), so
  retrying on the same connection cannot help.
* :class:`Migrating` carries ``retry_after_seconds`` and the new
  owner's name, mirroring the
  :class:`~repro.core.protocol.MigratingNotice` that produced it.

This module deliberately imports nothing from the rest of the package
so it can be used from any layer without import cycles.
"""

from __future__ import annotations

from typing import Optional


class TransportError(Exception):
    """A request could not be completed by the transport."""


class DialError(TransportError):
    """The (re)connect budget ran out; the far side is unreachable."""

    def __init__(self, message: str, host: str = "", port: int = 0,
                 attempts: int = 0) -> None:
        super().__init__(message)
        self.host = host
        self.port = port
        self.attempts = attempts


class RetriesExhausted(TransportError):
    """Every per-call retry attempt failed on an established session."""

    def __init__(self, message: str, attempts: int = 0) -> None:
        super().__init__(message)
        self.attempts = attempts


class TamperedFrame(TransportError):
    """A reply frame failed to decode: evidence of in-flight tampering.

    Raised (never retried) when a transport reads a frame whose
    checksum, framing, or envelope cannot be decoded.  Retrying would
    be wrong twice over: the stream is desynchronized (the next read
    would misinterpret bytes mid-frame), and a man-in-the-middle could
    use silent retries to hide the tampering entirely.  The transport
    drops the connection, counts the frame in ``frames_rejected``, and
    surfaces this typed error so red-team harnesses and operators can
    observe every tampered frame.
    """

    def __init__(self, message: str, host: str = "", port: int = 0) -> None:
        super().__init__(message)
        self.host = host
        self.port = port


class Overloaded(TransportError):
    """The server shed this connection with its typed overload envelope."""


class Migrating(TransportError):
    """A license stayed frozen (mid-migration) past the retry budget."""

    def __init__(self, message: str, license_id: str = "",
                 retry_after_seconds: float = 0.0,
                 new_owner: Optional[str] = None) -> None:
        super().__init__(message)
        self.license_id = license_id
        self.retry_after_seconds = retry_after_seconds
        self.new_owner = new_owner


class UnknownMethodError(TransportError):
    """Dispatch target does not exist on the far side."""
