"""CaptureProxy + inject_frames against a live in-process server.

Fast red-team plumbing tests: no subprocess fleet, just a
:class:`LeaseServer` on a real socket with the tap in front of it.
"""

import pytest

from repro.core.licensefile import VENDOR_SECRET, mint_license_blob
from repro.core.protocol import InitRequest, RenewRequest, Status
from repro.core.sl_remote import SlRemote
from repro.net.endpoint import connect
from repro.net.errors import TamperedFrame
from repro.net.rpc import RpcError
from repro.net.server import LeaseServer
from repro.redteam.proxy import CaptureProxy, inject_frames
from repro.sgx import RemoteAttestationService, SgxMachine
from repro.testing.faults import NetFaultPlan

LICENSE = "lic-proxy"


@pytest.fixture()
def server():
    remote = SlRemote(RemoteAttestationService(accept_any_platform=True))
    remote.issue_license(LICENSE, 100_000)
    server = LeaseServer(remote, port=0)
    server.start()
    yield server
    server.stop()


def run_client(url, renewals=3):
    machine = SgxMachine("proxy-client")
    endpoint = connect(url)
    try:
        report = machine.local_authority.generate_report(1, 1, nonce=1)
        slid = endpoint.call(
            "init",
            InitRequest(slid=None, report=report,
                        platform_secret=machine.platform_secret),
            clock=machine.clock, stats=machine.stats,
        ).slid
        blob = mint_license_blob(LICENSE, VENDOR_SECRET)
        responses = []
        for _ in range(renewals):
            responses.append(endpoint.call(
                "renew",
                RenewRequest(slid=slid, license_id=LICENSE,
                             license_blob=blob, network_reliability=1.0,
                             health=1.0),
                clock=machine.clock,
            ))
        return responses
    finally:
        endpoint.close()


class TestCapture:
    def test_proxy_is_transparent_and_records_both_directions(self, server):
        host, port = server.address
        with CaptureProxy(host, port) as tap:
            responses = run_client(f"sl://{tap.host}:{tap.port}")
        assert all(r.status is Status.OK for r in responses)
        renews = tap.captured("c2s", method="renew")
        assert len(renews) == 3
        replies = tap.captured("s2c")
        assert replies, "no server frames crossed the tap"
        # Capture order is globally monotonic across directions.
        indices = [f.index for f in tap.captured()]
        assert indices == sorted(indices)

    def test_captured_frames_replayable_at_the_same_server(self, server):
        host, port = server.address
        with CaptureProxy(host, port) as tap:
            run_client(f"sl://{tap.host}:{tap.port}", renewals=2)
            frames = tap.captured("c2s", method="renew")
        results = inject_frames(frames, host, port)
        assert [r.outcome for r in results] == ["reply"] * len(frames)

    def test_injection_at_a_dead_port_reports_closed(self, server):
        host, port = server.address
        with CaptureProxy(host, port) as tap:
            run_client(f"sl://{tap.host}:{tap.port}", renewals=1)
            frames = tap.captured("c2s", method="renew")
        server.stop()
        results = inject_frames(frames, host, port, timeout=2.0)
        assert all(r.outcome == "closed" for r in results)
        assert sum(r.granted_units() for r in results) == 0


class TestTamper:
    def test_c2s_corruption_surfaces_as_server_rejection(self, server):
        host, port = server.address
        with CaptureProxy(host, port) as tap:
            url = (f"sl://{tap.host}:{tap.port}"
                   f"?timeout=5&max_attempts=2&reconnect_attempts=2")
            # Let init through, corrupt every frame after it.
            tap.set_plan("c2s", NetFaultPlan(corrupt_every=1, start_after=1))
            with pytest.raises(RpcError) as excinfo:
                run_client(url, renewals=1)
            assert "CodecError" in str(excinfo.value)
            assert tap.plan("c2s").tampered() >= 1
        stats = server.wire_stats.snapshot()
        assert stats["frames_rejected"] >= 1

    def test_s2c_corruption_surfaces_as_tampered_frame(self, server):
        host, port = server.address
        with CaptureProxy(host, port) as tap:
            url = (f"sl://{tap.host}:{tap.port}"
                   f"?timeout=5&max_attempts=2&reconnect_attempts=2")
            tap.set_plan("s2c", NetFaultPlan(corrupt_every=1, start_after=1))
            with pytest.raises(RpcError) as excinfo:
                run_client(url, renewals=1)
            assert isinstance(excinfo.value.__cause__, TamperedFrame)

    def test_clean_call_succeeds_after_the_plan_is_lifted(self, server):
        host, port = server.address
        with CaptureProxy(host, port) as tap:
            url = (f"sl://{tap.host}:{tap.port}"
                   f"?timeout=5&max_attempts=2&reconnect_attempts=2"
                   f"&reconnect_backoff=0.05")
            tap.set_plan("c2s", NetFaultPlan(corrupt_every=1, start_after=1))
            with pytest.raises(RpcError):
                run_client(url, renewals=1)
            tap.set_plan("c2s", None)
            responses = run_client(url, renewals=1)
            assert responses[0].status is Status.OK
