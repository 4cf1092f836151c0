"""Event-loop lease serving.

The paper's deployment shape is one vendor SL-Remote in front of a
large fleet of mostly-idle SL-Locals that wake up only to renew their
sub-GCLs.  That is the many-idle-connections regime where the
thread-per-connection :class:`~repro.net.server.LeaseServer` stops
scaling long before the per-license locks do: every idle socket costs a
resident OS thread.  :class:`AsyncLeaseServer` holds connections on a
single ``asyncio`` event loop instead, so an idle SL-Local costs one
reader callback and nothing else.  Decoded requests are dispatched into
a **bounded** worker pool (``run_in_executor``), so the license-lock-
holding :class:`~repro.core.sl_remote.SlRemote` handlers stay
synchronous and the sharding release's concurrency semantics are
untouched.  Clients reach it over ``sl://`` with the same
:class:`~repro.net.transport.TcpTransport` as the threaded server.

Ordering contract
-----------------
A request **without** a correlation tag
(:data:`~repro.net.codec.CORRELATION_KEY`) is dispatched and answered
before the next frame of that connection is read, exactly like the
threaded server.  A request **with** a tag runs concurrently and its
response carries the tag back.  ``TcpTransport`` tags a request only
when other calls are already in flight on its socket, and matches every
reply by its request id, so one connection is as pipelined as its
callers make it, and no more.
"""

from __future__ import annotations

import asyncio
import socket as _socket
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Optional, Tuple

from repro.net import codec
from repro.net.server import WireStats, attach_server_stats, overload_frame
from repro.net.transport import HandlerTable
from repro.sgx.driver import SgxStats, ThreadSafeSgxStats
from repro.sim.clock import Clock, ThreadSafeClock


class AsyncLeaseServer:
    """Serve one SL-Remote (or a sharded fleet) on a single event loop.

    API-compatible with :class:`~repro.net.server.LeaseServer` —
    ``start()/stop()/wait()``, the same counters, the same handler
    dispatch with the server-owned clock/stats — so every wiring point
    (CLI, cluster, benchmarks) can switch IO backends with one knob.

    ``max_workers`` bounds the dispatch pool: that many handler calls
    run concurrently (contending only on per-license locks), while any
    number of idle connections wait on the loop for free.
    ``max_connections`` sheds accepts beyond the cap with the same typed
    error envelope as the threaded server.
    """

    def __init__(self, remote, host: str = "127.0.0.1", port: int = 0,
                 clock: Optional[Clock] = None,
                 stats: Optional[SgxStats] = None,
                 accept_backlog: int = 128,
                 max_workers: int = 8,
                 max_connections: Optional[int] = None,
                 extra_handlers=None) -> None:
        if max_workers < 1:
            raise ValueError("max_workers must be at least 1")
        if max_connections is not None and max_connections < 1:
            raise ValueError("max_connections must be at least 1")
        self.remote = remote
        self.handlers = HandlerTable(remote.protocol_handlers())
        for method, handler in (extra_handlers or {}).items():
            self.handlers.register(method, handler, override=True)
        self.host = host
        self.port = port
        self.clock = clock if clock is not None else ThreadSafeClock()
        self.stats = stats if stats is not None else ThreadSafeSgxStats()
        self.accept_backlog = accept_backlog
        self.max_workers = max_workers
        self.max_connections = max_connections
        self.wire_stats = WireStats()
        self.requests_served = 0
        self.errors_returned = 0
        self.connections_accepted = 0
        self.connections_shed = 0
        self.open_connections = 0
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._loop_thread: Optional[threading.Thread] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._stopping = threading.Event()
        self._conn_tasks: set = set()
        attach_server_stats(self.handlers, self, io_name="async")

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> Tuple[str, int]:
        """Spin up the event-loop thread, bind, listen; returns (host, port)."""
        if self._loop_thread is not None:
            raise RuntimeError("server already started")
        self._loop_thread = threading.Thread(
            target=self._run_loop, name="lease-aio-loop", daemon=True
        )
        self._loop_thread.start()
        if not self._started.wait(timeout=10.0):
            raise RuntimeError("async lease server failed to start in time")
        if self._startup_error is not None:
            self._loop_thread.join(timeout=2.0)
            self._loop_thread = None
            raise self._startup_error
        return self.address

    @property
    def address(self) -> Tuple[str, int]:
        return self.host, self.port

    @property
    def live_workers(self) -> int:
        """Dispatch-pool upper bound (there is no thread per connection)."""
        return self.max_workers

    def stop(self) -> None:
        """Close the listener, drain, and stop the event loop."""
        self._stopping.set()
        loop, stop_event = self._loop, self._stop_event
        if loop is not None and stop_event is not None and loop.is_running():
            loop.call_soon_threadsafe(stop_event.set)
        if self._loop_thread is not None:
            self._loop_thread.join(timeout=5.0)
            self._loop_thread = None

    def wait(self) -> None:
        """Block the calling thread until :meth:`stop` (CLI foreground)."""
        self._stopping.wait()

    def _run_loop(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            loop.run_until_complete(self._main())
        finally:
            asyncio.set_event_loop(None)
            loop.close()

    async def _main(self) -> None:
        self._stop_event = asyncio.Event()
        self._executor = ThreadPoolExecutor(
            max_workers=self.max_workers, thread_name_prefix="lease-aio-worker"
        )
        try:
            server = await asyncio.start_server(
                self._accept, self.host, self.port,
                backlog=self.accept_backlog,
            )
        except OSError as exc:
            self._startup_error = exc
            self._started.set()
            self._executor.shutdown(wait=False)
            return
        self._server = server
        self.host, self.port = server.sockets[0].getsockname()[:2]
        self._started.set()
        try:
            await self._stop_event.wait()
        finally:
            server.close()
            await server.wait_closed()
            for task in list(self._conn_tasks):
                task.cancel()
            if self._conn_tasks:
                await asyncio.gather(*self._conn_tasks,
                                     return_exceptions=True)
            self._executor.shutdown(wait=False)
            self._stopping.set()

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def _accept(self, reader: asyncio.StreamReader,
                writer: asyncio.StreamWriter) -> None:
        """Serve a new connection on a task this server owns.

        :meth:`stop` cancels these tasks and gathers them itself.  Handing
        the stream machinery a coroutine instead would make it read the
        result of every cancelled task and log the cancellation as an
        unhandled exception.
        """
        task = asyncio.get_running_loop().create_task(
            self._serve_connection(reader, writer)
        )
        self._conn_tasks.add(task)
        task.add_done_callback(self._conn_tasks.discard)

    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        sock = writer.get_extra_info("socket")
        if sock is not None:
            try:
                # Keep the port rebindable across restarts even while
                # accepted sockets linger in FIN_WAIT (mirrors the
                # threaded server).
                sock.setsockopt(_socket.SOL_SOCKET, _socket.SO_REUSEADDR, 1)
            except OSError:
                pass
        if (self.max_connections is not None
                and self.open_connections >= self.max_connections):
            # Same typed brush-off as the threaded server's accept cap.
            self.connections_shed += 1
            try:
                writer.write(overload_frame())
                await writer.drain()
            except (ConnectionError, OSError):
                pass
            finally:
                writer.close()
            return
        self.connections_accepted += 1
        self.open_connections += 1
        write_lock = asyncio.Lock()
        in_flight: set = set()
        try:
            while True:
                try:
                    header = await reader.readexactly(codec.FRAME_HEADER.size)
                    data = await reader.readexactly(codec.frame_length(header))
                except (asyncio.IncompleteReadError, ConnectionError,
                        OSError):
                    return  # peer gone
                except codec.CodecError:
                    # A length prefix past MAX_FRAME_BYTES: stream sync
                    # is unrecoverable so the connection must die, but
                    # the tampered frame is counted first (mirrors the
                    # threaded server).
                    self.wire_stats.note_rejected()
                    return
                self.wire_stats.note_decoded(
                    len(data) + codec.FRAME_HEADER.size
                )
                try:
                    method, payload, request_id, meta = \
                        codec.decode_request_envelope(data)
                except codec.CodecError as exc:
                    # Framing held but the payload would not decode:
                    # tampering evidence — typed error envelope back,
                    # and the rejection is counted for audits.
                    self.wire_stats.note_rejected()
                    self.errors_returned += 1
                    await self._write(writer, write_lock, codec.encode_error(
                        f"{type(exc).__name__}: {exc}", 0,
                    ))
                    continue
                corr = meta.get(codec.CORRELATION_KEY)
                if method == "renew_batch" and hasattr(payload, "requests"):
                    self.wire_stats.note_batch(len(payload.requests))
                handling = self._respond(
                    method, payload, request_id, corr, writer, write_lock,
                )
                if corr is None:
                    # Strict-ordered mode: a peer that did not tag the
                    # request matches responses by position, so answer
                    # before reading its next frame (threaded-server
                    # semantics).
                    await handling
                else:
                    task = asyncio.get_running_loop().create_task(handling)
                    in_flight.add(task)
                    task.add_done_callback(in_flight.discard)
        finally:
            for task in in_flight:
                task.cancel()
            self.open_connections -= 1
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _respond(self, method: str, payload: Any, request_id: int,
                       corr: Optional[Any], writer: asyncio.StreamWriter,
                       write_lock: asyncio.Lock) -> None:
        meta = {codec.CORRELATION_KEY: corr} if corr is not None else None
        try:
            response = await asyncio.get_running_loop().run_in_executor(
                self._executor, self._dispatch, method, payload
            )
        except Exception as exc:  # noqa: BLE001 - every fault becomes a wire error
            self.errors_returned += 1
            reply = codec.encode_error(
                f"{type(exc).__name__}: {exc}", request_id, meta=meta,
            )
        else:
            self.requests_served += 1
            reply = codec.encode_response(response, request_id, meta=meta)
        await self._write(writer, write_lock, reply)

    def _dispatch(self, method: str, payload: Any):
        """Runs on a pool thread: sync handlers, per-license locks inside."""
        return self.handlers.dispatch(
            method, payload, clock=self.clock, stats=self.stats
        )

    async def _write(self, writer: asyncio.StreamWriter,
                     write_lock: asyncio.Lock, reply: bytes) -> None:
        framed = codec.frame(reply)
        self.wire_stats.note_encoded(len(framed))
        async with write_lock:
            try:
                writer.write(framed)
                await writer.drain()
            except (ConnectionError, OSError):
                pass  # peer vanished between dispatch and reply
