"""Scripted adversarial campaigns against a live fleet.

Each campaign is a multi-step attack played against real
``serve-remote`` processes over real sockets, with the
:class:`~repro.redteam.audit.InvariantAuditor` adjudicating at the
end.  The three shipped campaigns map to the defense claims they
pressure:

* :func:`campaign_headline` — the full kill chain: capture a victim
  shard's renewal traffic through the wire tap, photograph its data
  directory mid-load, SIGKILL it, replay the captured frames across
  the epoch-fenced promotion, tamper live frames both directions
  (expecting one typed rejection per tampered frame), then restore
  the stale photo and revive — the freshness anchor must refuse the
  rolled-back image outright.

* :func:`campaign_deposed_primary` — resurrection: kill a primary,
  let the fleet promote past it, revive it from its own (intact)
  disk, wait until its followers' fencing is visible in its own
  stats, then replay captured renewals at it.  A deposed primary
  must not hand out a single fresh unit.

* :func:`campaign_batch_race` — crash-forfeiture raced against
  in-flight coalesced renewal batches: clients renew through
  ``batch_window`` coalescers while a primary dies mid-batch; the
  group-committed WAL plus pessimistic forfeiture must keep
  conservation exact with zero double-grants.

Campaigns never reach into server memory: every observation rides
``ledger_probe``, ``replication_probe``, ``_server_stats``, stdout
markers, or the wire itself.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.core.protocol import InitRequest, RenewRequest, Status
from repro.net.endpoint import connect
from repro.net.errors import TamperedFrame
from repro.net.rpc import RpcError
from repro.redteam.audit import AuditReport, InvariantAuditor
from repro.redteam.fleet import FleetHarness
from repro.redteam.proxy import CaptureProxy, inject_frames
from repro.sgx import SgxMachine
from repro.sim.clock import Clock
from repro.testing.faults import NetFaultPlan

CAMPAIGN_NAMES = ("headline", "deposed-primary", "batch-race")


@dataclass
class CampaignResult:
    """One campaign's verdict plus the numbers behind it."""

    name: str
    audit: AuditReport
    details: Dict[str, Any] = field(default_factory=dict)


def _quiet(_message: str) -> None:
    return None


def _blob_for(license_id: str) -> bytes:
    from repro.core.licensefile import VENDOR_SECRET, mint_license_blob

    return mint_license_blob(license_id, VENDOR_SECRET)


# ----------------------------------------------------------------------
# Client crowd (the honest background load every campaign attacks under)
# ----------------------------------------------------------------------
class ClientLog:
    """One client thread's whole story, merged by the campaign."""

    def __init__(self) -> None:
        self.successes: List[Any] = []   # (monotonic_ts, license_id, units)
        self.granted: Dict[str, int] = {}
        self.returned: Dict[str, int] = {}
        self.exhausted = 0
        self.failure: Optional[BaseException] = None


class Crowd:
    """Renew/return loops against one endpoint URL until told to stop."""

    def __init__(self, url: str, clients: int, licenses: int,
                 label: str = "crowd") -> None:
        self.url = url
        self.licenses = licenses
        self.label = label
        self.logs = [ClientLog() for _ in range(clients)]
        self._stop = threading.Event()
        self._started = threading.Event()
        self._threads: List[threading.Thread] = []

    def start(self) -> "Crowd":
        blobs = {f"lic-{i}": _blob_for(f"lic-{i}")
                 for i in range(self.licenses)}

        def client(index: int, log: ClientLog) -> None:
            license_id = f"lic-{index % self.licenses}"
            machine = SgxMachine(f"{self.label}-{index}")
            endpoint = connect(self.url)
            try:
                report = machine.local_authority.generate_report(1, 1,
                                                                 nonce=1)
                slid = endpoint.call(
                    "init",
                    InitRequest(slid=None, report=report,
                                platform_secret=machine.platform_secret),
                    clock=machine.clock, stats=machine.stats,
                ).slid
                self._started.wait()
                while not self._stop.is_set():
                    renewal = endpoint.call(
                        "renew",
                        RenewRequest(slid=slid, license_id=license_id,
                                     license_blob=blobs[license_id],
                                     network_reliability=1.0, health=1.0),
                        clock=machine.clock,
                    )
                    if renewal.status is Status.OK:
                        log.successes.append((time.monotonic(), license_id,
                                              renewal.granted_units))
                        log.granted[license_id] = (
                            log.granted.get(license_id, 0)
                            + renewal.granted_units
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
                        # Replication backpressure / fenced headroom:
                        # not an error, the client just retries.
                        log.exhausted += 1
                    else:
                        raise AssertionError(
                            f"renew answered {renewal.status}"
                        )
                    time.sleep(0.01)
            except BaseException as exc:  # noqa: BLE001 - audited later
                log.failure = exc
            finally:
                endpoint.close()

        self._threads = [
            threading.Thread(target=client, args=(index, log),
                             name=f"redteam-{self.label}-{index}",
                             daemon=True)
            for index, log in enumerate(self.logs)
        ]
        for thread in self._threads:
            thread.start()
        self._started.set()
        return self

    def stop(self, timeout: float = 120.0) -> None:
        self._stop.set()
        for thread in self._threads:
            thread.join(timeout=timeout)

    def held(self) -> Dict[str, int]:
        """Units the crowd verifiably acquired and never returned."""
        totals: Dict[str, int] = {}
        for log in self.logs:
            for license_id, units in log.granted.items():
                totals[license_id] = totals.get(license_id, 0) + units
            for license_id, units in log.returned.items():
                totals[license_id] = totals.get(license_id, 0) - units
        return totals

    def failures(self) -> List[BaseException]:
        return [log.failure for log in self.logs if log.failure is not None]

    def renewals(self) -> int:
        return sum(len(log.successes) for log in self.logs)

    def exhausted(self) -> int:
        return sum(log.exhausted for log in self.logs)


def merge_held(*crowds: Crowd) -> Dict[str, int]:
    totals: Dict[str, int] = {}
    for crowd in crowds:
        for license_id, units in crowd.held().items():
            totals[license_id] = totals.get(license_id, 0) + units
    return totals


def _find_counter(snapshot: Any, key: str) -> int:
    """Recursively sum every occurrence of ``key`` in a stats dict."""
    total = 0
    if isinstance(snapshot, dict):
        for name, value in snapshot.items():
            if name == key and isinstance(value, int):
                total += value
            else:
                total += _find_counter(value, key)
    elif isinstance(snapshot, (list, tuple)):
        for value in snapshot:
            total += _find_counter(value, key)
    return total


# ----------------------------------------------------------------------
# Campaign 1: the headline kill chain
# ----------------------------------------------------------------------
def campaign_headline(base_dir: str, smoke: bool = False,
                      log: Callable[[str], None] = _quiet) -> CampaignResult:
    clients = 4 if smoke else 8
    licenses = 3
    warmup = 1.2 if smoke else 2.0
    ripen = 0.8 if smoke else 1.2     # between the photo and the kill
    chaos = 1.8 if smoke else 2.5
    tamper_rounds = 2 if smoke else 4

    report = AuditReport()
    details: Dict[str, Any] = {"campaign": "headline"}
    fleet = FleetHarness(base_dir, shards=3, replicas=2, licenses=licenses)
    with fleet:
        victim = fleet.owner_of("lic-0")
        successor = fleet.successors_of("lic-0", 1)[0]
        details["victim"] = victim
        details["promoted_successor"] = successor
        log(f"fleet up; victim {victim} owns lic-0, successor {successor}")

        with CaptureProxy(fleet.host, fleet.port_of(victim)) as proxy:
            crowd = Crowd(fleet.url(), clients, licenses).start()
            # The bait client reaches the victim only through the tap,
            # so every one of its frames is captured for replay.
            bait = Crowd(fleet.proxied_url(victim, proxy.port),
                         1, 1, label="bait").start()
            time.sleep(warmup)

            # Step 1: photograph the victim's ledger mid-load — the
            # stale image the rollback will try to serve later.
            staging = fleet.snapshot_data_dir(victim)
            log(f"photographed {victim}'s data dir -> {staging}")
            time.sleep(ripen)  # committed seqs move past the photo

            # Step 2: SIGKILL the victim mid-traffic.  The tap dies
            # with it — a listening proxy in front of a dead upstream
            # would answer accept-then-reset, which burns the bait
            # client's retry budget instead of giving its router the
            # dial failure that triggers promotion.
            fleet.kill(victim)
            proxy.stop()
            log(f"SIGKILLed {victim}")
            time.sleep(chaos)  # routers promote; crowd keeps renewing

            # Step 3: replay the captured renewal traffic across the
            # promotion.  The promoted successor is the legitimate
            # primary now — whatever it serves must stay conserved; a
            # fenced or unknown ledger must not grant.
            renew_frames = proxy.captured("c2s", method="renew")
            injections = inject_frames(renew_frames, fleet.host,
                                       fleet.port_of(successor))
            replay_granted = sum(r.granted_units() for r in injections)
            details["replayed_frames"] = len(renew_frames)
            details["replay_outcomes"] = {
                outcome: sum(1 for r in injections if r.outcome == outcome)
                for outcome in ("reply", "error", "closed", "timeout")
            }
            details["replay_granted_units"] = replay_granted
            log(f"replayed {len(renew_frames)} captured renew frames at "
                f"{successor}: {details['replay_outcomes']}")

            crowd.stop()
            bait.stop()

        # Step 4: tamper live frames both directions against a healthy
        # shard; every mutilated frame must map to a typed rejection.
        target = next(
            (lic for lic in fleet.license_ids()
             if fleet.owner_of(lic) != victim), None
        )
        if target is not None:
            tampered = _tamper_phase(fleet, fleet.owner_of(target), target,
                                     rounds=tamper_rounds, log=log)
            report.tampered_frames_sent += tampered["sent"]
            report.tampered_frames_rejected += tampered["rejected"]
            details["tamper"] = tampered

        # Step 5: the rollback.  Swap the victim's disk for the stale
        # photo and revive; the freshness anchor (which kept ratcheting
        # after the photo, and lives outside the data dir) must refuse.
        fleet.restore_data_dir(victim, staging)
        revival = fleet.revive(victim)
        details["rollback_refused"] = revival.refused
        details["rollback_marker"] = revival.marker
        details["rollback_exit"] = revival.returncode
        if revival.refused:
            log(f"rollback refused: {revival.marker}")
        else:
            # The defense failed: the shard is serving a rolled-back
            # ledger.  Count what it resurrected so the gate trips.
            resurrected = _count_resurrection(fleet, victim)
            report.resurrected_units += resurrected
            report.note(
                f"{victim} served a stale image and resurrected "
                f"{resurrected} unit(s)"
            )
            fleet.kill(victim)

        # Step 6: the final audit over the surviving fleet.
        auditor = InvariantAuditor(fleet.url())
        report.renewals_served = crowd.renewals() + bait.renewals()
        report.failed_calls = len(crowd.failures()) + len(bait.failures())
        for failure in (crowd.failures() + bait.failures())[:3]:
            report.note(f"client failure: {failure!r}")
        auditor.audit(held_by_license=merge_held(crowd, bait),
                      report=report)
        stats = auditor.server_stats(fleet.host, fleet.port_of(successor))
        details["successor_frames_rejected"] = _find_counter(
            stats, "frames_rejected"
        )
        details["backpressure_exhausted"] = (crowd.exhausted()
                                             + bait.exhausted())
    return CampaignResult(name="headline", audit=report, details=details)


def _tamper_phase(fleet: FleetHarness, target: str, license_id: str,
                  rounds: int,
                  log: Callable[[str], None]) -> Dict[str, Any]:
    """Corrupt live frames both directions through a tampering tap.

    Client→server corruption must surface as the server's typed
    ``CodecError`` rejection (an error envelope, counted in its
    ``frames_rejected``); server→client corruption must surface as the
    transport's :class:`~repro.net.errors.TamperedFrame` — and in
    both cases the *next* clean call must succeed, proving the stream
    was shed or resynchronized rather than silently retried.
    """
    sent = 0
    rejected = 0
    outcomes: List[str] = []
    with CaptureProxy(fleet.host, fleet.port_of(target)) as tap:
        machine = SgxMachine("tamper-client")
        endpoint = connect(f"sl://{tap.host}:{tap.port}"
                           f"?timeout=5&max_attempts=2"
                           f"&reconnect_attempts=2&reconnect_backoff=0.05")
        try:
            report = machine.local_authority.generate_report(1, 1, nonce=1)
            slid = endpoint.call(
                "init",
                InitRequest(slid=None, report=report,
                            platform_secret=machine.platform_secret),
                clock=machine.clock, stats=machine.stats,
            ).slid
            blob = _blob_for(license_id)

            def renew() -> Any:
                return endpoint.call(
                    "renew",
                    RenewRequest(slid=slid, license_id=license_id,
                                 license_blob=blob,
                                 network_reliability=1.0, health=1.0),
                    clock=machine.clock,
                )

            for direction in ("c2s", "s2c"):
                for _ in range(rounds):
                    renew()  # clean call: session established, in sync
                    tap.set_plan(direction, NetFaultPlan(corrupt_nth=1))
                    sent += 1
                    try:
                        renew()
                        outcomes.append(f"{direction}:accepted")
                    except RpcError as exc:
                        cause = exc.__cause__
                        if isinstance(cause, TamperedFrame):
                            rejected += 1
                            outcomes.append(f"{direction}:TamperedFrame")
                        elif "CodecError" in str(exc):
                            rejected += 1
                            outcomes.append(f"{direction}:CodecError")
                        else:
                            outcomes.append(f"{direction}:{exc}")
                    finally:
                        tap.set_plan(direction, None)
            renew()  # the stream survives the whole gauntlet
        finally:
            endpoint.close()
    log(f"tamper phase at {target}: {sent} frames mutilated, "
        f"{rejected} typed rejections")
    return {"target": target, "license": license_id, "sent": sent,
            "rejected": rejected, "outcomes": outcomes}


def _count_resurrection(fleet: FleetHarness, victim: str) -> int:
    """Units a stale-image shard un-spent (the defense-failed path)."""
    try:
        endpoint = connect(f"sl://{fleet.host}:{fleet.port_of(victim)}")
        try:
            probe = endpoint.call("ledger_probe", None, clock=Clock())
        finally:
            endpoint.close()
    except Exception:
        return 1  # serving but unprobeable: still a broken defense
    resurrected = 0
    for entry in probe.values():
        # A freshly rolled-back ledger shows spent units as available
        # again; without the true books to diff against, every unit it
        # claims available beyond zero outstanding counts as suspect.
        resurrected += max(0, entry["total"] - entry["outstanding"]
                           - entry["lost"] - entry["available"])
    return max(1, resurrected)


# ----------------------------------------------------------------------
# Campaign 2: deposed-primary resurrection
# ----------------------------------------------------------------------
def campaign_deposed_primary(base_dir: str, smoke: bool = False,
                             log: Callable[[str], None] = _quiet,
                             ) -> CampaignResult:
    clients = 4 if smoke else 8
    licenses = 3
    warmup = 1.2 if smoke else 2.0
    chaos = 1.8 if smoke else 2.5
    fence_wait = 10.0

    report = AuditReport()
    details: Dict[str, Any] = {"campaign": "deposed-primary"}
    fleet = FleetHarness(base_dir, shards=3, replicas=2, licenses=licenses)
    with fleet:
        victim = fleet.owner_of("lic-0")
        details["victim"] = victim
        with CaptureProxy(fleet.host, fleet.port_of(victim)) as proxy:
            crowd = Crowd(fleet.url(), clients, licenses).start()
            bait = Crowd(fleet.proxied_url(victim, proxy.port),
                         1, 1, label="bait").start()
            time.sleep(warmup)
            fleet.kill(victim)
            proxy.stop()  # dead upstream: give routers the dial failure
            log(f"SIGKILLed {victim}")
            time.sleep(chaos)  # the fleet promotes past the victim
            renew_frames = proxy.captured("c2s", method="renew")
            crowd.stop()
            bait.stop()

        # Resurrect the deposed primary from its own intact disk: the
        # anchor passes (nothing stale), it recovers and serves again —
        # but its followers fenced its epoch when promotion happened.
        revival = fleet.revive(victim)
        assert not revival.refused, (
            "an intact image must not trip the anchor: "
            + revival.marker
        )
        log(f"revived {victim} from its own disk")

        # Wait until the resurrected primary has *learned* it is
        # deposed — its own replication stats show a follower fencing
        # it (its startup state transfer to every peer is answered
        # with the fence).
        fenced = _wait_for_fence(fleet, victim, timeout=fence_wait)
        details["fence_visible"] = fenced
        if not fenced:
            report.note(
                f"{victim} never observed its fencing within "
                f"{fence_wait}s; injecting anyway"
            )

        # Replay the captured pre-death renewals at the deposed
        # primary.  Every unit it grants now is a stale frame honored.
        injections = inject_frames(renew_frames, fleet.host,
                                   fleet.port_of(victim))
        accepted_units = sum(r.granted_units() for r in injections)
        report.stale_frames_accepted += sum(
            1 for r in injections if r.granted_units() > 0
        )
        details["replayed_frames"] = len(renew_frames)
        details["stale_units_granted"] = accepted_units
        details["replay_outcomes"] = {
            outcome: sum(1 for r in injections if r.outcome == outcome)
            for outcome in ("reply", "error", "closed", "timeout")
        }
        log(f"replayed {len(renew_frames)} frames at deposed {victim}: "
            f"{accepted_units} unit(s) granted")

        report.renewals_served = crowd.renewals() + bait.renewals()
        report.failed_calls = len(crowd.failures()) + len(bait.failures())
        for failure in (crowd.failures() + bait.failures())[:3]:
            report.note(f"client failure: {failure!r}")
        # Audit through the promoted fleet view (the books that count).
        InvariantAuditor(fleet.url()).audit(
            held_by_license=merge_held(crowd, bait), report=report
        )
        details["backpressure_exhausted"] = (crowd.exhausted()
                                             + bait.exhausted())
    return CampaignResult(name="deposed-primary", audit=report,
                          details=details)


def _wait_for_fence(fleet: FleetHarness, name: str,
                    timeout: float) -> bool:
    """Poll a shard's own replication probe until a peer has fenced it."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            endpoint = connect(f"sl://{fleet.host}:{fleet.port_of(name)}")
            try:
                probe = endpoint.call("replication_probe", None,
                                      clock=Clock())
            finally:
                endpoint.close()
        except Exception:
            time.sleep(0.2)
            continue
        fenced = (probe.get("replicates") or {}).get("fenced") or {}
        if fenced:
            return True
        time.sleep(0.2)
    return False


# ----------------------------------------------------------------------
# Campaign 3: crash forfeiture vs in-flight coalesced batches
# ----------------------------------------------------------------------
def campaign_batch_race(base_dir: str, smoke: bool = False,
                        log: Callable[[str], None] = _quiet,
                        ) -> CampaignResult:
    clients = 6 if smoke else 12
    licenses = 3
    warmup = 1.2 if smoke else 2.0
    chaos = 1.8 if smoke else 2.5

    report = AuditReport()
    details: Dict[str, Any] = {"campaign": "batch-race"}
    fleet = FleetHarness(base_dir, shards=3, replicas=2, licenses=licenses)
    with fleet:
        victim = fleet.owner_of("lic-0")
        details["victim"] = victim
        # Coalescing on: concurrent renewals ride shared batch frames,
        # so the SIGKILL lands mid-batch for somebody.
        url = fleet.url(batch_window=0.005)
        crowd = Crowd(url, clients, licenses).start()
        time.sleep(warmup)
        fleet.kill(victim)
        log(f"SIGKILLed {victim} under coalesced batch load")
        time.sleep(chaos)
        crowd.stop()

        report.renewals_served = crowd.renewals()
        report.failed_calls = len(crowd.failures())
        for failure in crowd.failures()[:3]:
            report.note(f"client failure: {failure!r}")
        InvariantAuditor(fleet.url()).audit(
            held_by_license=crowd.held(), report=report
        )
        details["backpressure_exhausted"] = crowd.exhausted()
    return CampaignResult(name="batch-race", audit=report, details=details)


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
_CAMPAIGNS: Dict[str, Callable[..., CampaignResult]] = {
    "headline": campaign_headline,
    "deposed-primary": campaign_deposed_primary,
    "batch-race": campaign_batch_race,
}


def run_campaign(name: str, base_dir: str, smoke: bool = False,
                 log: Callable[[str], None] = _quiet) -> CampaignResult:
    try:
        runner = _CAMPAIGNS[name]
    except KeyError:
        raise ValueError(
            f"unknown campaign {name!r}; choose from {CAMPAIGN_NAMES}"
        ) from None
    return runner(os.path.join(base_dir, name.replace("-", "_")),
                  smoke=smoke, log=log)


def run_campaigns(base_dir: str, names: Optional[List[str]] = None,
                  smoke: bool = False,
                  log: Callable[[str], None] = _quiet,
                  ) -> List[CampaignResult]:
    return [run_campaign(name, base_dir, smoke=smoke, log=log)
            for name in (names or list(CAMPAIGN_NAMES))]
