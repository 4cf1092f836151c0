"""AsyncLeaseServer and the pipelining TcpTransport: event-loop serving,
many callers on one socket, correlation routing, connection caps,
tamper and overload under pipelining, and reconnect resilience."""

import gc
import logging
import socket
import sys
import threading
import time

import pytest

from repro.core.protocol import (
    InitRequest,
    InitResponse,
    RenewRequest,
    Status,
)
from repro.core.sl_local import SlLocal
from repro.core.sl_manager import SlManager
from repro.core.sl_remote import SlRemote
from repro.crypto.keys import KeyGenerator
from repro.net import codec
from repro.net.aio import AsyncLeaseServer
from repro.net.endpoint import connect, endpoint_for
from repro.net.errors import Overloaded, RetriesExhausted, TamperedFrame
from repro.net.network import NetworkConditions
from repro.net.rpc import RpcError
from repro.net.server import OVERLOAD_ERROR, LeaseServer
from repro.net.sharding import HashRing, default_shard_names
from repro.net.transport import TcpTransport
from repro.redteam.proxy import CaptureProxy
from repro.sgx import RemoteAttestationService, SgxMachine
from repro.sim.clock import Clock, seconds_to_cycles
from repro.sim.rng import DeterministicRng
from repro.testing.faults import NetFaultPlan

LICENSE = "lic-aio"
POOL = 50_000


@pytest.fixture()
def server():
    ras = RemoteAttestationService(accept_any_platform=True)
    remote = SlRemote(ras)
    remote.issue_license(LICENSE, POOL)
    srv = AsyncLeaseServer(remote, port=0)
    srv.start()
    yield srv
    srv.stop()


@pytest.fixture(params=[LeaseServer, AsyncLeaseServer])
def any_server(request):
    ras = RemoteAttestationService(accept_any_platform=True)
    remote = SlRemote(ras)
    remote.issue_license(LICENSE, POOL)
    srv = request.param(remote, port=0)
    srv.start()
    yield srv
    srv.stop()


#: Endpoints dialed by the running test; closed after it, pass or fail.
_dialed = []


@pytest.fixture(autouse=True)
def _close_dialed_endpoints():
    yield
    while _dialed:
        _dialed.pop().close()


def dial_tcp(host, port, **overrides):
    """An ``sl://`` endpoint for one server address, closed after the test."""
    endpoint = connect(f"sl://{host}:{port}", **overrides)
    _dialed.append(endpoint)
    return endpoint


def make_client(server, name, seed, rtt=0.004):
    machine = SgxMachine(name)
    endpoint = dial_tcp(
        *server.address,
        conditions=NetworkConditions(round_trip_seconds=rtt),
        timeout_seconds=5.0,
    )
    sl_local = SlLocal(machine, endpoint, KeyGenerator(DeterministicRng(seed)),
                       tokens_per_attestation=10)
    return machine, sl_local


def raw_init(endpoint, machine, slid=None, nonce=1):
    report = machine.local_authority.generate_report(1, 1, nonce=nonce)
    return endpoint.call(
        "init",
        InitRequest(slid=slid, report=report,
                    platform_secret=machine.platform_secret),
        clock=machine.clock, stats=machine.stats,
    )


class TestAsyncLifecycle:
    def test_raw_init_round_trip(self, server):
        machine = SgxMachine("raw")
        endpoint = dial_tcp(*server.address)
        response = raw_init(endpoint, machine)
        assert isinstance(response, InitResponse)
        assert response.status is Status.OK
        assert response.slid == 1
        endpoint.close()

    def test_full_lifecycle_over_async_server(self, server):
        """init -> renew (via attest) -> graceful shutdown on the loop."""
        machine, sl_local = make_client(server, "aio-client", seed=1)
        sl_local.init()
        assert sl_local.slid is not None

        blob = server.remote.license_definition(LICENSE).license_blob()
        manager = SlManager("app", machine, sl_local,
                            tokens_per_attestation=10)
        manager.load_license(LICENSE, blob)
        assert sum(manager.check(LICENSE) for _ in range(30)) == 30
        assert sl_local.remote_renewals >= 1

        sl_local.shutdown()
        state = server.remote._clients[sl_local.slid]
        assert state.graceful_shutdown
        assert state.escrowed_root_key is not None
        assert server.requests_served >= 3  # init + renewals + shutdown

    def test_rtt_charged_virtually_per_request(self, server):
        machine, sl_local = make_client(server, "billing", seed=9, rtt=0.25)
        before = machine.clock.cycles
        sl_local.init()
        assert machine.clock.cycles - before >= seconds_to_cycles(0.25)

    def test_server_error_surfaces_without_retry(self, server):
        endpoint = dial_tcp(*server.address, max_attempts=5)
        machine = SgxMachine("err")
        with pytest.raises(RpcError, match="remote error"):
            endpoint.call("warp", None, clock=machine.clock)
        assert endpoint.transport.messages_sent == 1  # no retry storm
        endpoint.close()

    def test_async_tcp_cannot_bypass_the_network(self):
        endpoint = dial_tcp("127.0.0.1", 1)
        with pytest.raises(RpcError, match="cannot bypass"):
            endpoint.call("init", None, local=True)

    def test_unreachable_server_fails_fast_after_dial_budget(self):
        """DialError is terminal for the call: one dial budget, no
        multiplication by the per-call retry budget."""
        endpoint = dial_tcp("127.0.0.1", 1,  # nothing listens
                            max_attempts=2, backoff_seconds=0.001,
                            reconnect_attempts=2,
                            reconnect_backoff_seconds=0.001,
                            timeout_seconds=0.2)
        machine = SgxMachine("lost")
        with pytest.raises(RpcError, match="2 dial attempts"):
            endpoint.call("init", None, clock=machine.clock)
        assert endpoint.transport.messages_dropped == 1
        assert endpoint.transport.observed_reliability == 0.0


class TestPipelining:
    def test_many_threads_share_one_socket(self, server):
        """Racing renewals from many caller threads on ONE transport:
        grants stay conserved and every caller gets its own answer."""
        blob = server.remote.license_definition(LICENSE).license_blob()
        endpoint = dial_tcp(*server.address, timeout_seconds=10.0)
        machines = [SgxMachine(f"pipeliner-{i}") for i in range(6)]
        slids = [raw_init(endpoint, m, nonce=1).slid for m in machines]
        granted = [0] * len(machines)
        errors = []

        def worker(index):
            try:
                for _ in range(10):
                    response = endpoint.call(
                        "renew",
                        RenewRequest(slid=slids[index], license_id=LICENSE,
                                     license_blob=blob,
                                     network_reliability=1.0, health=1.0),
                        clock=machines[index].clock,
                    )
                    if response.status is Status.OK:
                        granted[index] += response.granted_units
            except Exception as exc:  # noqa: BLE001 - surfaced to main thread
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(len(machines))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        endpoint.close()
        assert not errors
        ledger = server.remote.ledger(LICENSE)
        outstanding = sum(ledger.outstanding.values())
        assert sum(granted) == outstanding
        assert outstanding + ledger.lost_units + ledger.available == POOL
        # All of that traffic shared a single connection.
        assert server.connections_accepted == 1

    def test_out_of_order_responses_reach_the_right_caller(self, server):
        """A slow request must not block a fast one behind it on the
        same socket — and each response lands with its own caller.

        The lead call goes out alone, so untagged, and the server
        answers it before reading on; the slow and fast calls are sent
        while it is in flight, so they carry tags and run concurrently.
        """
        def slow_echo(request):
            delay, tag = request
            time.sleep(delay)
            return tag

        server.handlers.register("slow_echo", slow_echo)
        endpoint = dial_tcp(*server.address, timeout_seconds=10.0)
        finished = []
        results = {}
        barrier = threading.Barrier(3)

        def call(delay, tag, start_delay):
            barrier.wait(timeout=5)
            time.sleep(start_delay)
            results[tag] = endpoint.call("slow_echo", (delay, tag),
                                         clock=Clock())
            finished.append(tag)

        threads = [
            threading.Thread(target=call, args=(0.3, "lead", 0.0)),
            threading.Thread(target=call, args=(0.5, "slow", 0.1)),
            threading.Thread(target=call, args=(0.0, "fast", 0.2)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        endpoint.close()
        assert results == {"lead": "lead", "slow": "slow", "fast": "fast"}
        # The fast request was sent after the slow one but returned
        # first: the responses came back out of order and were matched
        # by request id.
        assert finished.index("fast") < finished.index("slow")

    def test_strict_ordered_peer_gets_in_order_untagged_replies(self, server):
        """Serial TcpTransport calls (untagged frames) against the async
        server: each is answered before the next frame is read, exactly
        like the threaded server."""
        machine = SgxMachine("strict")
        endpoint = dial_tcp(*server.address)
        response = raw_init(endpoint, machine)
        assert response.status is Status.OK

        blob = server.remote.license_definition(LICENSE).license_blob()
        manager_machine = SgxMachine("strict-lifecycle")
        strict_endpoint = dial_tcp(*server.address)
        sl_local = SlLocal(manager_machine, strict_endpoint,
                           KeyGenerator(DeterministicRng(3)),
                           tokens_per_attestation=10)
        sl_local.init()
        manager = SlManager("app", manager_machine, sl_local,
                            tokens_per_attestation=10)
        manager.load_license(LICENSE, blob)
        assert sum(manager.check(LICENSE) for _ in range(20)) == 20
        sl_local.shutdown()
        endpoint.close()
        strict_endpoint.close()

    def test_untagged_request_gets_untagged_reply(self, server):
        """The server echoes a corr tag only when the client sent one —
        a serial peer never sees metadata it did not ask for."""
        with socket.create_connection(server.address, timeout=5) as sock:
            sock.sendall(codec.frame(codec.encode_request(
                "ledger_probe", LICENSE, request_id=7
            )))
            header = _recv_exactly(sock, codec.FRAME_HEADER.size)
            data = _recv_exactly(sock, codec.frame_length(header))
        reply = codec.decode_reply(data)
        assert reply.request_id == 7
        assert codec.CORRELATION_KEY not in reply.meta


    def test_stress_every_caller_gets_its_own_reply(self, any_server):
        """More callers than cores and a short switch interval: every
        reply reaches the call that asked, and each frame is counted
        once."""
        any_server.handlers.register("echo", lambda request: request)
        endpoint = dial_tcp(*any_server.address, timeout_seconds=10.0)
        callers, calls = 16, 25

        def run(index):
            return [endpoint.call("echo", f"{index}:{n}", clock=Clock())
                    for n in range(calls)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            outcomes = race(callers, run)
        finally:
            sys.setswitchinterval(interval)
        for index, (replies, _seconds) in enumerate(outcomes):
            assert replies == [f"{index}:{n}" for n in range(calls)]
        transport = endpoint.transport
        assert transport.messages_sent == callers * calls
        assert transport.messages_dropped == 0
        assert transport.frames_sent == callers * calls
        assert transport.frames_received == callers * calls
        assert any_server.connections_accepted == 1

    def test_lone_call_sends_the_plain_untagged_frame(self):
        """With nothing else in flight a call's request frame is exactly
        ``frame(encode_request(method, payload, request_id))``: the
        serial path is the same bytes it always was, with no tag."""
        listener = socket.create_server(("127.0.0.1", 0))
        received = []

        def serve():
            connection, _peer = listener.accept()
            with connection:
                for request_id in (1, 2):
                    header = _recv_exactly(connection,
                                           codec.FRAME_HEADER.size)
                    received.append(header + _recv_exactly(
                        connection, codec.frame_length(header)))
                    connection.sendall(codec.frame(
                        codec.encode_response("ok", request_id)))

        thread = threading.Thread(target=serve)
        thread.start()
        endpoint = dial_tcp(*listener.getsockname()[:2])
        try:
            for _ in range(2):
                assert endpoint.call("ledger_probe", LICENSE,
                                     clock=Clock()) == "ok"
        finally:
            endpoint.close()
            thread.join(timeout=10)
            listener.close()
        assert received == [
            codec.frame(codec.encode_request("ledger_probe", LICENSE,
                                             request_id))
            for request_id in (1, 2)
        ]
        for frame in received:
            meta = codec.decode_request_envelope(
                frame[codec.FRAME_HEADER.size:])[3]
            assert codec.CORRELATION_KEY not in meta


def _recv_exactly(sock, count):
    chunks = b""
    while len(chunks) < count:
        chunk = sock.recv(count - len(chunks))
        if not chunk:
            raise ConnectionError("peer closed")
        chunks += chunk
    return chunks


def race(callers, call):
    """Run ``call(index)`` on ``callers`` threads released together.

    Returns one ``(result or raised exception, seconds taken)`` pair
    per caller.
    """
    barrier = threading.Barrier(callers)
    outcomes = [None] * callers

    def run(index):
        barrier.wait(timeout=10)
        started = time.monotonic()
        try:
            result = call(index)
        except Exception as exc:  # noqa: BLE001 - handed to the test
            result = exc
        outcomes[index] = (result, time.monotonic() - started)

    threads = [threading.Thread(target=run, args=(index,))
               for index in range(callers)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    return outcomes


#: How the shed connection is driven: ``dial_tcp`` is one caller in
#: strict request/reply order, ``dial_async`` is eight concurrent callers
#: pipelined on the one socket.
SHED_CALLERS = {"dial_tcp": 1, "dial_async": 8}


class TestConnectionCaps:
    def test_async_server_sheds_connections_over_the_cap(self):
        ras = RemoteAttestationService(accept_any_platform=True)
        remote = SlRemote(ras)
        remote.issue_license(LICENSE, POOL)
        srv = AsyncLeaseServer(remote, port=0, max_connections=1)
        srv.start()
        try:
            holder = dial_tcp(*srv.address)
            machine = SgxMachine("holder")
            raw_init(holder, machine)  # occupies the only slot
            with socket.create_connection(srv.address, timeout=5) as sock:
                header = _recv_exactly(sock, codec.FRAME_HEADER.size)
                data = _recv_exactly(sock, codec.frame_length(header))
            reply = codec.decode_reply(data)
            assert reply.error is not None and OVERLOAD_ERROR in reply.error
            assert reply.meta.get("overloaded") is True
            with pytest.raises(codec.RemoteCallError, match=OVERLOAD_ERROR):
                reply.deliver()
            assert srv.connections_shed == 1
            holder.close()
        finally:
            srv.stop()

    def test_threaded_server_sheds_connections_over_the_cap(self):
        ras = RemoteAttestationService(accept_any_platform=True)
        remote = SlRemote(ras)
        remote.issue_license(LICENSE, POOL)
        srv = LeaseServer(remote, port=0, max_connections=1)
        srv.start()
        try:
            holder = dial_tcp(*srv.address)
            machine = SgxMachine("holder-t")
            raw_init(holder, machine)  # a live worker occupies the slot
            with socket.create_connection(srv.address, timeout=5) as sock:
                header = _recv_exactly(sock, codec.FRAME_HEADER.size)
                data = _recv_exactly(sock, codec.frame_length(header))
            reply = codec.decode_reply(data)
            assert reply.error is not None and OVERLOAD_ERROR in reply.error
            assert reply.meta.get("overloaded") is True
            assert srv.connections_shed == 1
            holder.close()
        finally:
            srv.stop()

    @pytest.mark.parametrize("server_cls", [LeaseServer, AsyncLeaseServer])
    @pytest.mark.parametrize("dial", sorted(SHED_CALLERS, reverse=True))
    def test_clients_over_the_cap_get_a_typed_overload(self, server_cls,
                                                       dial):
        """The server sheds an over-cap connection with one unsolicited
        error frame.  Every call in flight on the shed connection must
        surface it as ``Overloaded`` — a lone caller reads it as the
        reply to its request, concurrent callers match it to no call
        and all fail with it — rather than retrying into
        ``RetriesExhausted``."""
        ras = RemoteAttestationService(accept_any_platform=True)
        remote = SlRemote(ras)
        remote.issue_license(LICENSE, POOL)
        srv = server_cls(remote, port=0, max_connections=1)
        srv.start()
        holder = dial_tcp(*srv.address)
        shed = dial_tcp(*srv.address)
        try:
            raw_init(holder, SgxMachine("holder"))  # occupies the slot
            outcomes = race(SHED_CALLERS[dial], lambda index: raw_init(
                shed, SgxMachine(f"shed-{index}")))
            for error, _seconds in outcomes:
                assert isinstance(error, RpcError)
                assert isinstance(error.__cause__, Overloaded)
                assert OVERLOAD_ERROR in str(error)
            assert srv.connections_shed >= 1
        finally:
            shed.close()
            holder.close()
            srv.stop()

    def test_connection_cap_validation(self):
        remote = SlRemote(RemoteAttestationService(accept_any_platform=True))
        with pytest.raises(ValueError, match="max_connections"):
            AsyncLeaseServer(remote, max_connections=0)
        with pytest.raises(ValueError, match="max_connections"):
            LeaseServer(remote, max_connections=0)
        with pytest.raises(ValueError, match="max_workers"):
            AsyncLeaseServer(remote, max_workers=0)

    def test_idle_connections_do_not_cost_server_threads(self, server):
        """The tentpole property in miniature: N idle sockets, still a
        handful of resident threads (thread-per-connection would add N)."""
        idle = []
        try:
            for _ in range(20):
                sock = socket.create_connection(server.address, timeout=5)
                idle.append(sock)
            deadline = time.time() + 5
            while server.open_connections < 20 and time.time() < deadline:
                time.sleep(0.01)
            assert server.open_connections >= 20
            probe = dial_tcp(*server.address)
            stats = probe.call("_server_stats", None, clock=Clock())
            probe.close()
            assert stats["io"] == "async"
            # 20 idle connections, yet nowhere near 20 server threads.
            assert stats["resident_threads"] < 15
        finally:
            for sock in idle:
                sock.close()


class TestPipelinedFaults:
    """Faults that one frame causes reach every call in flight."""

    TIMEOUT = 2.0
    CALLERS = 8

    def _race_renewals(self, server, direction):
        """Init clean, then corrupt every ``direction`` frame while
        ``CALLERS`` threads renew on one transport."""
        blob = server.remote.license_definition(LICENSE).license_blob()
        host, port = server.address
        with CaptureProxy(host, port) as tap:
            endpoint = connect(f"sl://{tap.host}:{tap.port}"
                               f"?timeout={self.TIMEOUT}&max_attempts=2"
                               f"&reconnect_attempts=2")
            try:
                tap.set_plan(direction, NetFaultPlan(corrupt_every=1,
                                                     start_after=1))
                slid = raw_init(endpoint, SgxMachine("tampered")).slid
                outcomes = race(self.CALLERS, lambda index: endpoint.call(
                    "renew",
                    RenewRequest(slid=slid, license_id=LICENSE,
                                 license_blob=blob,
                                 network_reliability=1.0, health=1.0),
                    clock=Clock(),
                ))
            finally:
                endpoint.close()
            assert tap.plan(direction).tampered() >= 1
        return outcomes

    def test_tampered_requests_fail_every_caller_with_codec_error(
            self, any_server):
        """The server answers a request it cannot decode with an error
        envelope it cannot attribute (request id 0).  Every caller must
        see that ``CodecError`` at once — not wait out its timeout and
        retry into ``RetriesExhausted``."""
        outcomes = self._race_renewals(any_server, "c2s")
        for error, seconds in outcomes:
            assert isinstance(error, RpcError)
            assert "CodecError" in str(error)
            assert not isinstance(error.__cause__, RetriesExhausted)
            assert seconds < self.TIMEOUT
        assert any_server.wire_stats.snapshot()["frames_rejected"] >= 1

    def test_read_timeout_fails_every_pending_call(self):
        """A server that never answers: the reader's timeout drops the
        connection and fails every call in flight with a retriable
        error, so no caller waits on after the reader gave up."""
        listener = socket.create_server(("127.0.0.1", 0))
        accepted = []
        thread = threading.Thread(
            target=lambda: accepted.append(listener.accept()[0]))
        thread.start()
        endpoint = dial_tcp(*listener.getsockname()[:2],
                            timeout_seconds=0.3, max_attempts=1)
        try:
            outcomes = race(4, lambda index: endpoint.call(
                "ledger_probe", LICENSE, clock=Clock()))
        finally:
            endpoint.close()
            thread.join(timeout=5)
            for connection in accepted:
                connection.close()
            listener.close()
        for error, seconds in outcomes:
            assert isinstance(error, RpcError)
            assert isinstance(error.__cause__, RetriesExhausted)
            assert "timed out" in str(error)
            assert seconds < 2.0

    def test_tampered_replies_fail_every_caller_as_tampered(self,
                                                            any_server):
        outcomes = self._race_renewals(any_server, "s2c")
        for error, seconds in outcomes:
            assert isinstance(error, RpcError)
            assert isinstance(error.__cause__, TamperedFrame)
            assert seconds < self.TIMEOUT


class TestReconnectResilience:
    def _restart_on_same_port(self, server_cls, remote, address):
        host, port = address
        srv = server_cls(remote, host=host, port=port)
        srv.start()
        return srv

    @pytest.mark.parametrize("server_cls", [LeaseServer, AsyncLeaseServer])
    def test_server_restart_mid_lifecycle_is_survived(self, server_cls):
        """Kill the server between renewals: the client re-dials on its
        reconnect budget and resumes the SLID-keyed session — without
        burning through the per-call retry budget."""
        ras = RemoteAttestationService(accept_any_platform=True)
        remote = SlRemote(ras)
        remote.issue_license(LICENSE, POOL)
        srv = server_cls(remote, port=0)
        srv.start()
        address = srv.address

        machine = SgxMachine("phoenix")
        endpoint = dial_tcp(*address, max_attempts=5,
                            backoff_seconds=0.01,
                            reconnect_attempts=6,
                            reconnect_backoff_seconds=0.02)
        sl_local = SlLocal(machine, endpoint,
                           KeyGenerator(DeterministicRng(11)),
                           tokens_per_attestation=10)
        sl_local.init()
        blob = remote.license_definition(LICENSE).license_blob()
        manager = SlManager("app", machine, sl_local,
                            tokens_per_attestation=10)
        manager.load_license(LICENSE, blob)
        assert sum(manager.check(LICENSE) for _ in range(10)) == 10

        # Hard server restart: every live socket dies.
        srv.stop()
        srv = self._restart_on_same_port(server_cls, remote, address)
        try:
            # The next renewal rides the SAME SlLocal session: the SLID
            # is in every request and the server state survived, so no
            # re-init, no re-attestation — just a re-dial.
            inits_before = remote.inits_served
            assert sl_local._fetch_lease(LICENSE, blob) is Status.OK
            assert sum(manager.check(LICENSE) for _ in range(20)) == 20
            assert remote.inits_served == inits_before  # no re-init
            assert endpoint.transport.reconnects >= 1
            # The drop cost at most one in-flight attempt, not the
            # whole per-call budget.
            assert endpoint.transport.messages_dropped <= 1
            sl_local.shutdown()
        finally:
            endpoint.close()
            srv.stop()


class TestShardedAsyncFleet:
    @pytest.fixture()
    def fleet(self):
        """Two event-loop servers, each one shard of a two-shard ring."""
        names = default_shard_names(2)
        ring = HashRing(names)
        ras = RemoteAttestationService(accept_any_platform=True)
        remotes = {name: SlRemote(ras) for name in names}
        blobs = {}
        for index in range(4):
            license_id = f"lic-{index}"
            owner = ring.shard_for(license_id)
            blobs[license_id] = remotes[owner].issue_license(
                license_id, POOL
            ).license_blob()
        servers = [AsyncLeaseServer(remotes[name], port=0) for name in names]
        for srv in servers:
            srv.start()
        try:
            yield remotes, blobs, [srv.address for srv in servers], ring
        finally:
            for srv in servers:
                srv.stop()

    def test_lifecycle_across_an_event_loop_fleet(self, fleet):
        remotes, blobs, addresses, ring = fleet
        endpoint = connect(endpoint_for(addresses))
        assert all(isinstance(t, TcpTransport)
                   for t in endpoint.transport.transports.values())
        machine = SgxMachine("aio-fleet")
        try:
            slid = raw_init(endpoint, machine).slid
            for license_id, blob in blobs.items():
                response = endpoint.call(
                    "renew",
                    RenewRequest(slid=slid, license_id=license_id,
                                 license_blob=blob,
                                 network_reliability=1.0, health=1.0),
                    clock=machine.clock,
                )
                assert response.status is Status.OK
                owner = remotes[ring.shard_for(license_id)]
                assert owner.ledger(license_id).outstanding[f"slid:{slid}"] \
                    == response.granted_units
        finally:
            endpoint.close()

    def test_unknown_io_backend_rejected(self):
        """The client no longer picks an IO backend: ``io=`` is not an
        endpoint parameter at all."""
        with pytest.raises(ValueError, match="unknown endpoint parameter"):
            connect("sl+sharded://127.0.0.1:1?io=async")


class TestLifecycleHygiene:
    """Stopping a server leaves nothing behind for asyncio to complain
    about: no unhandled ``CancelledError`` from a cancelled connection."""

    @pytest.fixture()
    def asyncio_errors(self, caplog):
        caplog.set_level(logging.WARNING, logger="asyncio")

        def collect():
            gc.collect()
            return [record.getMessage() for record in caplog.records
                    if record.name == "asyncio"]

        return collect

    def test_stop_with_a_live_connection_is_quiet(self, asyncio_errors):
        ras = RemoteAttestationService(accept_any_platform=True)
        srv = AsyncLeaseServer(SlRemote(ras), port=0)
        srv.start()
        endpoint = dial_tcp(*srv.address)
        try:
            raw_init(endpoint, SgxMachine("live"))
            srv.stop()  # cancels the connection's serving task
        finally:
            endpoint.close()
        assert asyncio_errors() == []
