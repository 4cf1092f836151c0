"""Quorum control plane: depth-K delta streams, epoch fencing, catch-up.

The sharded SL-Remote loses a license's whole ledger when its home
shard dies — the availability gap the paper waves at and T-Lease
closes with replicated, epoch-disciplined lease state.  This module
makes every shard stream its
:class:`~repro.core.sl_remote.LicenseShardState` changes to **K ring
successors** so that even two simultaneous shard deaths cost clients a
bounded, *accounted* loss instead of a dead license:

* :class:`ReplicationSource` — taps the primary's observer hooks
  (:meth:`~repro.core.sl_remote.SlRemote.add_observer`), buffers
  per-license deltas in commit order, and a flusher thread ships them
  as :class:`ReplicaBatch` messages to each license's followers
  (``followers_for(license_id)`` — the next K *distinct* shards
  clockwise on the hash ring, exactly the shards the ring maps the
  license to as primaries die, so routing after failover needs no
  extra lookup table).  Grant deltas carry the holder's condition and
  the ledger's β as they stood under the license lock, and a refused
  renewal (which still re-prices both) ships a unitless ``condition``
  delta, so a promoted replica prices Equation 1 exactly as its
  primary did.
* **Bounded replication lag** — the source tracks, per peer and per
  license, how many granted units that follower has *not*
  acknowledged, and SL-Remote's ``grant_headroom`` hook clamps new
  grants so no live follower's lag ever exceeds the license's shipped
  budget.  That clamp is the whole no-double-mint argument: whatever
  *any* surviving follower missed is at most the budget, so reserving
  that many units as lost at promotion covers every unseen grant (the
  paper's pessimistic rule, Algorithms 2–3, applied only to the lag
  window instead of to everything).  The budget is adaptive and
  denominated in grants (``lag_budget_grants × peak grant``, capped at
  a pool fraction); the clamp only ever trusts the **shipped** budget
  — the last value that follower acknowledged receiving.
* **Identity quorum** — identity/escrow deltas (no ``license_id``)
  broadcast to every peer, and the dispatch path can block a client's
  ``init``/``shutdown`` ack until a majority of live peers has acked
  the identity watermark (:meth:`ReplicationSource.
  wait_identity_quorum`), so a home-shard death immediately after an
  escrow cannot silently forfeit it.
* **Epoch fencing** — every promotion carries an epoch; followers
  fence the deposed source at that epoch and answer its late traffic
  with ``{"status": "fenced"}`` instead of applying it.  A fenced
  source stops granting entirely (headroom 0): a partitioned stale
  primary can neither mint units nor corrupt its successors.
* **One catch-up path** — a follower that needs the whole state gets
  one :class:`ShardSnapshot`, cut inside
  :meth:`~repro.core.sl_remote.SlRemote.quiesce` so the export and the
  seq it names are exact.  A peer needs one at start, after a failed
  call, and after it restarted (a follower that sees a new
  *incarnation* from a peer marks that peer needy in its own source).
  Every other peer lives on deltas alone: there is no periodic pass.
* :class:`FollowerStore` — the follower-side replica: wire-form
  license records per source shard, mutated by deltas, replaced by
  snapshots; fences stale sources.
* :class:`ReplicationManager` — one per shard process; wires source +
  store together and exposes the fleet-internal wire surface
  (``replicate`` / ``sync_snapshot`` / ``promote`` /
  ``replication_probe`` and, when a quorum is configured, gated
  ``init``/``shutdown``) that the servers mount via
  ``extra_handlers``.

Promotion is **idempotent, epoch-fenced and router-driven**: every
client's :class:`~repro.net.sharding.ShardRouter` that observes a dead
shard probes the survivors, picks the max-(epoch, seq) ranking, and
broadcasts ``promote({source, epoch})``; each survivor fences the dead
source, folds the replicas *it* adopts (first live owner in ring
order) into its own serving state exactly once, and answers with what
it installed, no matter how many routers ask.  Every promote call
rescans all dead sources, so a second simultaneous death is healed by
whichever survivor is next in ring order for each license.
"""

from __future__ import annotations

import copy
import inspect
import os
import threading
import time
from collections import deque
from dataclasses import asdict, dataclass, field
from typing import (
    Any, Callable, Deque, Dict, List, Optional, Sequence, Set, Tuple,
)

from repro.net import codec
from repro.sim.clock import ThreadSafeClock

#: Default per-license replication-lag budget *floor*: the most granted
#: units that may ever be un-acknowledged by a follower before the
#: budget has adapted to the observed grant size, hence the least a
#: promotion may have to forfeit per license.
DEFAULT_LAG_BUDGET_UNITS = 64

#: How many peak-sized grants may be in flight un-acked before the
#: clamp bites (the grant-denominated budget).
DEFAULT_LAG_BUDGET_GRANTS = 4

#: Hard cap on the adaptive budget as a fraction of the license pool:
#: a promotion's pessimistic reserve can never burn more than this.
DEFAULT_LAG_BUDGET_POOL_FRACTION = 0.25

#: How long a gated ``init``/``shutdown`` waits for the identity
#: quorum before giving up (the ack still goes out — the timeout is a
#: tail-latency bound, counted in ``quorum_timeouts``, not a refusal).
DEFAULT_QUORUM_TIMEOUT = 1.0

#: How often the flusher thread drains the delta buffer.
FLUSH_SECONDS = 0.02

#: The least time between two state-transfer passes while a peer is
#: still needy (an unreachable peer is retried at this pace, never
#: faster: every pass quiesces the shard).
SNAPSHOT_RETRY_SECONDS = 0.5


# ----------------------------------------------------------------------
# Wire messages (registered with the codec)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ReplicaDelta:
    """One state change, in the emitting shard's commit order."""

    seq: int
    event: str  # grant | condition | return | writeoff | issue | revoke | ...
    fields: Dict[str, Any]

    def to_wire(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_wire(cls, fields: Dict[str, Any]) -> "ReplicaDelta":
        return cls(seq=fields["seq"], event=fields["event"],
                   fields=fields["fields"])


@dataclass(frozen=True)
class ReplicaBatch:
    """A run of deltas from ``source``, for one follower.

    ``budgets`` carries the source's *current* adaptive lag budget per
    license touched by the batch; the follower records the largest
    value it has seen — that (not the legacy flat ``budget``) is what
    its promotion reserve uses, and the source never clamps against a
    budget it has not successfully shipped.  ``epoch`` is the source's
    promotion epoch: a follower that fenced the source at a higher
    epoch rejects the batch instead of applying it.  ``incarnation``
    names the source process: a change tells the follower its peer
    restarted with an empty replica store.
    """

    source: str
    budget: int
    deltas: Tuple[ReplicaDelta, ...]
    budgets: Dict[str, int] = field(default_factory=dict)
    epoch: int = 0
    incarnation: str = ""

    def to_wire(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_wire(cls, fields: Dict[str, Any]) -> "ReplicaBatch":
        return cls(
            source=fields["source"],
            budget=fields["budget"],
            deltas=tuple(ReplicaDelta.from_wire(d)
                         for d in fields["deltas"]),
            budgets={str(lid): int(units)
                     for lid, units in fields.get("budgets", {}).items()},
            epoch=int(fields.get("epoch", 0)),
            incarnation=str(fields.get("incarnation", "")),
        )


@dataclass(frozen=True)
class ShardSnapshot:
    """The full state of ``source``'s licenses, for one follower.

    ``licenses`` maps license_id to the wire form produced by
    :meth:`~repro.core.sl_remote.SlRemote.export_license_state`;
    ``identity`` is :meth:`~repro.core.sl_remote.SlRemote.
    export_identity`'s payload.  Both come from one quiesced cut, and
    ``seq`` is the source's replication seq at that cut.  Applying a
    snapshot is authoritative: it *replaces* the follower's replica
    and sets its seq watermark to ``seq``, which is what lets a source
    drop undeliverable deltas and heal with the next transfer instead
    of buffering without bound.
    """

    source: str
    seq: int
    budget: int
    licenses: Dict[str, Any]
    identity: Dict[str, Any]
    budgets: Dict[str, int] = field(default_factory=dict)
    epoch: int = 0
    incarnation: str = ""

    def to_wire(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_wire(cls, fields: Dict[str, Any]) -> "ShardSnapshot":
        return cls(
            source=fields["source"], seq=fields["seq"],
            budget=fields["budget"], licenses=fields["licenses"],
            identity=fields["identity"],
            budgets={str(lid): int(units)
                     for lid, units in fields.get("budgets", {}).items()},
            epoch=int(fields.get("epoch", 0)),
            incarnation=str(fields.get("incarnation", "")),
        )


for _message in (ReplicaDelta, ReplicaBatch, ShardSnapshot):
    codec.register_message_type(_message)


def _wire_available(ledger: Dict[str, Any]) -> int:
    """``available`` computed from a wire-form ledger."""
    return (ledger["total_gcl"] - sum(ledger["outstanding"].values())
            - ledger["lost_units"])


def _slid_of(node_key: str) -> str:
    """``"slid:7"`` -> ``"7"`` (holdings are keyed by SLID strings)."""
    return node_key.split(":", 1)[1]


def _store_pricing(ledger: Dict[str, Any], node_key: str,
                   fields: Dict[str, Any]) -> None:
    """Apply a grant/condition delta's Equation 1 inputs to a replica."""
    if "condition" in fields:
        ledger["node_conditions"][node_key] = dict(fields["condition"])
    if "beta" in fields:
        ledger["beta"] = fields["beta"]


# ----------------------------------------------------------------------
# Peer links: how a source reaches its followers
# ----------------------------------------------------------------------
class PeerLink:
    """One replication hop to a peer shard (transport-agnostic)."""

    def call(self, method: str, payload: Any) -> Any:
        raise NotImplementedError

    def close(self) -> None:
        pass


class LocalPeerLink(PeerLink):
    """Direct call into another in-process shard's manager."""

    def __init__(self, manager: "ReplicationManager") -> None:
        self.manager = manager

    def call(self, method: str, payload: Any) -> Any:
        return self.manager.extra_handlers()[method](payload)


class TcpPeerLink(PeerLink):
    """Replication over the standard lease wire (fleet-internal).

    Uses small budgets: a failed call only marks the peer needy, and
    the next state transfer heals the gap, so a slow peer should fail
    fast rather than stall the stream.
    """

    def __init__(self, host: str, port: int) -> None:
        from repro.net.endpoint import EndpointConfig
        from repro.net.transport import TcpTransport

        self.transport = TcpTransport(host, port, config=EndpointConfig(
            timeout_seconds=2.0,
            max_attempts=2,
            backoff_seconds=0.01,
            reconnect_attempts=2,
            reconnect_backoff_seconds=0.01,
        ))
        self._clock = ThreadSafeClock()

    def call(self, method: str, payload: Any) -> Any:
        return self.transport.request(method, payload, clock=self._clock)

    def close(self) -> None:
        self.transport.close()


# ----------------------------------------------------------------------
# Source side
# ----------------------------------------------------------------------
class ReplicationSource:
    """Streams one shard's state changes to its K followers.

    ``followers_for(license_id)`` names the peers that replicate a
    given license (the K distinct ring successors); identity events go
    to every peer.  The flusher thread sends every peer a state
    transfer at start, then drains the delta buffer every
    :data:`FLUSH_SECONDS`; a peer whose stream broke (or that
    restarted) gets another transfer, retried at most every
    :data:`SNAPSHOT_RETRY_SECONDS` while it stays needy.  Both can
    also be driven explicitly (``flush_now`` / ``snapshot_now``),
    which is what deterministic tests do.
    """

    def __init__(
        self,
        remote,
        name: str,
        peers: Dict[str, PeerLink],
        followers_for: Callable[[str], Sequence[str]],
        lag_budget_units: int = DEFAULT_LAG_BUDGET_UNITS,
        lag_budget_grants: int = DEFAULT_LAG_BUDGET_GRANTS,
        lag_budget_pool_fraction: float = DEFAULT_LAG_BUDGET_POOL_FRACTION,
    ) -> None:
        if lag_budget_units < 1:
            raise ValueError("lag_budget_units must be >= 1")
        if lag_budget_grants < 1:
            raise ValueError("lag_budget_grants must be >= 1")
        if not 0.0 < lag_budget_pool_fraction <= 1.0:
            raise ValueError("lag_budget_pool_fraction must be in (0, 1]")
        self.remote = remote
        self.name = name
        self.peers = dict(peers)
        self.followers_for = followers_for
        self.budget = lag_budget_units
        self.grants_budget = lag_budget_grants
        self.pool_fraction = lag_budget_pool_fraction
        #: Promotion epoch stamped on every outbound message; bumped by
        #: the manager when this shard participates in a promotion.
        self.epoch = 0
        #: Names this process (its manager adopts it): stamped on
        #: every outbound message, so a peer can tell a restart — our
        #: seqs count from 1 again, our replica store is empty — from
        #: a replay.
        self.incarnation = os.urandom(8).hex()
        #: peer -> its incarnation our last state transfer reached (or
        #: that it showed us since).
        self._incarnations: Dict[str, str] = {}
        #: A peer restarted: run the next state transfer without
        #: waiting out the retry pace (once per restart, so no storm).
        self._resync = False
        self._lock = threading.Lock()
        self._ack_cond = threading.Condition(self._lock)
        #: Serializes flush_now/snapshot_now across the flusher thread
        #: and any request thread driving shipping inline (identity
        #: quorum waits): interleaved drains would ship deltas out of
        #: seq order and the follower would skip the stragglers.
        self._flush_serial = threading.Lock()
        self._pending: Deque[ReplicaDelta] = deque()
        self._seq = 0
        #: Seq of the most recent identity delta (no license_id): the
        #: watermark wait_identity_quorum compares peer acks against.
        self._identity_seq = 0
        #: peer -> license_id -> granted units that follower has not
        #: acked; the grant_headroom clamp keeps every entry <= the
        #: budget shipped *to that peer*.
        self._unacked: Dict[str, Dict[str, int]] = {}
        #: license_id -> largest grant Algorithm 1 ever *proposed*
        #: (pre-clamp) — the scale the adaptive budget tracks.
        self._peak: Dict[str, int] = {}
        #: peer -> license_id -> largest budget that follower has
        #: confirmed receiving.  The clamp uses only this: a grant
        #: sized against an unshipped budget could exceed the
        #: promotion reserve.
        self._shipped: Dict[str, Dict[str, int]] = {}
        #: peer -> highest seq that follower has acknowledged (batch
        #: or snapshot — whichever covered it).
        self._acked_seq: Dict[str, int] = {}
        #: peer -> epoch at which that peer fenced *us* (we were
        #: promoted away from).  A fenced source stops granting.
        self._fenced: Dict[str, int] = {}
        #: Peers that need a full-state transfer (all of them at start,
        #: then any whose stream broke or that restarted): deltas for
        #: them are dropped and the next snapshot pass reconciles them.
        self._needs_snapshot: Set[str] = set(self.peers)
        self.batches_sent = 0
        self.snapshots_sent = 0
        self.deltas_dropped = 0
        self.fenced_rejections = 0
        self._stop = threading.Event()
        self._wake = threading.Event()
        self._thread: Optional[threading.Thread] = None
        remote.add_observer(self._observe)
        remote.grant_headroom = self.grant_headroom
        # The auto-tuner's actuator: lets the served remote scale this
        # source's per-license lag budget (grants) online.
        if hasattr(remote, "lag_budget_control"):
            remote.lag_budget_control = self.scale_grants_budget

    # -- primary-side hooks (called under the mutated state's lock) ----
    def _live_followers(self, license_id: str) -> List[str]:
        """Followers that can still ack (``_lock`` held)."""
        return [peer for peer in self.followers_for(license_id)
                if peer in self.peers and peer not in self._fenced]

    def _observe(self, event: str, fields: Dict[str, Any]) -> None:
        if event in ("grant", "condition"):
            # Under the license lock: the condition and β the renewal
            # just left, so a replica prices Equation 1 as we do.
            fields = {**fields, **self.remote.pricing_of(
                fields["license_id"], fields["node_key"])}
        else:
            fields = dict(fields)
        with self._lock:
            self._seq += 1
            self._pending.append(ReplicaDelta(self._seq, event, fields))
            license_id = fields.get("license_id")
            if license_id is None:
                self._identity_seq = self._seq
            elif event == "grant":
                # Only grants a live follower should see count toward
                # the lag window: a license none of whose ring
                # successors is a peer (e.g. they all died) has no
                # replica anywhere, so there is nothing to lag.
                for peer in self._live_followers(license_id):
                    bucket = self._unacked.setdefault(peer, {})
                    bucket[license_id] = (
                        bucket.get(license_id, 0) + fields["units"]
                    )

    def grant_headroom(self, license_id: str,
                       proposed_units: int = 0) -> Optional[int]:
        """How many more units may be granted before exceeding the lag
        budget (wired into ``SlRemote.grant_headroom``); ``None`` means
        unlimited — the license has no live follower to lag behind —
        and ``0`` with a fenced follower means *deposed*: a stale
        primary that learned of its own replacement never grants again.

        ``proposed_units`` (Algorithm 1's pre-clamp decision) feeds the
        peak tracker so the *next* shipped budget adapts to the grant
        scale; the clamp itself only trusts ``_shipped``, and takes the
        minimum headroom across the K live followers — the promotion
        reserve must cover whichever survivor knows the least.
        """
        with self._lock:
            followers = list(self.followers_for(license_id))
            if any(peer in self._fenced for peer in followers):
                return 0
            live = [peer for peer in followers if peer in self.peers]
            if not live:
                return None
            if proposed_units > self._peak.get(license_id, 0):
                self._peak[license_id] = proposed_units
            headroom: Optional[int] = None
            for peer in live:
                shipped = self._shipped.get(peer, {}).get(
                    license_id, self.budget)
                lag = self._unacked.get(peer, {}).get(license_id, 0)
                room = max(0, shipped - lag)
                headroom = room if headroom is None else min(headroom, room)
            return headroom

    def scale_grants_budget(self, factor: float) -> int:
        """Multiply the per-license lag budget (in grants) by ``factor``.

        The auto-tuner's actuator (``SlRemote.lag_budget_control``):
        widening lets more un-replicated grants ride between acks
        (fewer backpressure refusals, larger promotion forfeit bound);
        narrowing tightens the forfeit bound.  Clamped to [1, 64]; the
        ``pool_fraction`` cap in :meth:`desired_budget` still applies,
        so no tuner move can put more than that fraction of a license
        at risk.  Returns the applied value.
        """
        grants = int(round(self.grants_budget * factor))
        self.grants_budget = max(1, min(grants, 64))
        return self.grants_budget

    def desired_budget(self, license_id: str) -> int:
        """The adaptive lag budget this license *should* have:
        ``max(floor, grants × peak)``, capped at ``pool_fraction`` of
        the license pool.  Shipped to followers on every batch and
        snapshot; the clamp starts honouring it once shipping succeeds.

        (The ledger lookup happens outside ``_lock``: observers run
        under the registry lock and take ``_lock``, so taking them in
        the opposite order here would be a lock-order inversion.)
        """
        with self._lock:
            peak = self._peak.get(license_id, 0)
        want = max(self.budget, self.grants_budget * peak)
        try:
            total = self.remote.ledger(license_id).total_gcl
        except Exception:  # noqa: BLE001 - unknown/migrated-away license
            return want
        return min(want, max(self.budget, int(total * self.pool_fraction)))

    def shipped_budget(self, license_id: str) -> int:
        """The smallest budget any live follower has confirmed (= the
        forfeit bound whichever of them is promoted)."""
        with self._lock:
            live = [peer for peer in self.followers_for(license_id)
                    if peer in self.peers]
            if not live:
                return self.budget
            return min(self._shipped.get(peer, {}).get(license_id,
                                                       self.budget)
                       for peer in live)

    def _ship_budgets(self, peer_name: str,
                      budgets: Dict[str, int]) -> None:
        """Record budgets a peer just acknowledged (monotone)."""
        with self._lock:
            bucket = self._shipped.setdefault(peer_name, {})
            for license_id, units in budgets.items():
                if units > bucket.get(license_id, self.budget):
                    bucket[license_id] = units

    def drop_peer(self, name: str) -> None:
        """Forget a dead peer (promotion observed its death).

        Its link closes and its lag stops counting toward the clamp —
        nothing it missed can be promoted any more, so backpressuring
        grants for it would wedge licenses at the budget with no
        follower left to ever ack.
        """
        with self._lock:
            peer = self.peers.pop(name, None)
            self._needs_snapshot.discard(name)
            self._unacked.pop(name, None)
            self._shipped.pop(name, None)
            self._acked_seq.pop(name, None)
            self._fenced.pop(name, None)
            self._incarnations.pop(name, None)
            self._ack_cond.notify_all()
        if peer is not None:
            try:
                peer.close()
            except Exception:  # noqa: BLE001 - closing a dead link
                pass

    def note_incarnation(self, name: str, incarnation: str) -> bool:
        """Peer ``name`` showed us ``incarnation``; True when it is not
        the one our last state transfer reached — the peer restarted
        and lost the replica we built there, so it needs a transfer,
        sent without waiting out the retry pace."""
        with self._lock:
            if (name not in self.peers or not incarnation
                    or self._incarnations.get(name) == incarnation):
                return False
            self._incarnations[name] = incarnation
            self._needs_snapshot.add(name)
            self._resync = True
        self._wake.set()
        return True

    # -- lifecycle ------------------------------------------------------
    def start(self) -> None:
        if self._thread is not None:
            return
        self._thread = threading.Thread(
            target=self._run, name=f"replication-{self.name}", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop the flusher, detach from the remote, close the links.

        Detaching the observer/headroom hooks makes stop() safe to
        call before the server sockets close: no request thread can
        re-enter a half-torn-down source.
        """
        self._stop.set()
        self._wake.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        try:
            self.remote._observers.remove(self._observe)
        except ValueError:
            pass
        if self.remote.grant_headroom == self.grant_headroom:
            self.remote.grant_headroom = None
        if getattr(self.remote, "lag_budget_control",
                   None) == self.scale_grants_budget:
            self.remote.lag_budget_control = None
        for peer in self.peers.values():
            peer.close()

    def _run(self) -> None:
        # Every peer is needy at start: a fresh follower has nothing,
        # and a restarted source's peers learn its new incarnation.
        self.snapshot_now()
        last_pass = time.monotonic()
        while True:
            self._wake.wait(FLUSH_SECONDS)
            self._wake.clear()
            if self._stop.is_set():
                break
            self.flush_now()
            if self._needs_snapshot and (
                    self._resync or time.monotonic() - last_pass
                    >= SNAPSHOT_RETRY_SECONDS):
                self._resync = False
                last_pass = time.monotonic()
                self.snapshot_now()

    # -- identity quorum ------------------------------------------------
    def wait_identity_quorum(self, required: int,
                             timeout: float = DEFAULT_QUORUM_TIMEOUT) -> bool:
        """Block until ``required`` live peers have acked the current
        identity watermark (or every live peer, when fewer than
        ``required`` remain).  Returns False on timeout.

        Called on the dispatch path after an identity-mutating handler
        (init/shutdown) ran: the client's ack is held until a majority
        of followers could survive this shard's death with the escrow
        intact.  With no flusher thread (deterministic tests) the wait
        drives shipping inline.
        """
        if required <= 0:
            return True
        deadline = time.monotonic() + timeout
        while True:
            with self._lock:
                target = self._identity_seq
                live = [peer for peer in self.peers
                        if peer not in self._fenced]
                need = min(required, len(live))
                if target == 0 or need <= 0:
                    return True
                acked = sum(1 for peer in live
                            if self._acked_seq.get(peer, 0) >= target)
                if acked >= need:
                    return True
            if time.monotonic() >= deadline:
                return False
            if self._thread is None:
                # Deterministic mode: ship inline.  flush alone cannot
                # reach a needy peer (deltas for it are dropped), so
                # escalate to the snapshot pass.
                self.flush_now()
                self.snapshot_now()
                time.sleep(0.001)
            else:
                self._wake.set()
                with self._ack_cond:
                    self._ack_cond.wait(timeout=0.01)

    # -- shipping -------------------------------------------------------
    def _route(self, delta: ReplicaDelta) -> List[str]:
        """Peer names a delta must reach (``_lock`` held; identity
        events go to every non-fenced peer)."""
        license_id = delta.fields.get("license_id")
        if license_id is None:
            return [peer for peer in self.peers
                    if peer not in self._fenced]
        return self._live_followers(license_id)

    @staticmethod
    def _coalesce(deltas: List[ReplicaDelta]) -> List[ReplicaDelta]:
        """Collapse adjacent same-cursor unit deltas before shipping.

        A coalesced renewal batch journals runs of grants for the same
        ``(license_id, node_key)`` back to back; the follower applies
        unit deltas additively and advances by the batch's last seq, so
        an adjacent run ships as **one** delta carrying the summed
        units under the run's final seq.  Only ``grant``/``return``
        runs with identical routing keys merge — same-cursor order is
        what the follower's clamp depends on, and any other event
        (issue, revoke, writeoff, escrow, ...) is a barrier.  A
        refusal's unitless ``condition`` delta folds into the grant or
        condition before it on the same cursor.
        """
        merged: List[ReplicaDelta] = []
        for delta in deltas:
            if merged and delta.event in ("grant", "return", "condition"):
                prev = merged[-1]
                if ((prev.event == delta.event
                     or (prev.event, delta.event) == ("grant", "condition"))
                        and prev.fields.get("license_id")
                        == delta.fields.get("license_id")
                        and prev.fields.get("node_key")
                        == delta.fields.get("node_key")):
                    # The run's last condition and β are the current ones.
                    fields = {**prev.fields, **delta.fields}
                    if delta.event != "condition":
                        fields["units"] = (prev.fields["units"]
                                           + delta.fields["units"])
                    merged[-1] = ReplicaDelta(delta.seq, prev.event, fields)
                    continue
            merged.append(delta)
        return merged

    def _fenced_reply(self, peer_name: str, reply: Any) -> bool:
        """Record a ``{"status": "fenced"}`` answer; True if it was one."""
        if not (isinstance(reply, dict)
                and reply.get("status") == "fenced"):
            return False
        with self._lock:
            epoch = int(reply.get("epoch", 0))
            if epoch > self._fenced.get(peer_name, -1):
                self._fenced[peer_name] = epoch
            self._needs_snapshot.discard(peer_name)
            self._ack_cond.notify_all()
        self.fenced_rejections += 1
        return True

    def flush_now(self) -> None:
        """Drain pending deltas and ship one batch per follower."""
        with self._flush_serial:
            with self._lock:
                drained = list(self._pending)
                self._pending.clear()
                if not drained:
                    self._ack_cond.notify_all()
                    return
                epoch = self.epoch
                needy = set(self._needs_snapshot)
                per_peer: Dict[str, List[ReplicaDelta]] = {}
                for delta in drained:
                    for peer_name in self._route(delta):
                        # A state transfer already carried everything up
                        # to its cut: shipping (and acking) those deltas
                        # again would count their grants twice.
                        if delta.seq > self._acked_seq.get(peer_name, 0):
                            per_peer.setdefault(peer_name, []).append(delta)
            for peer_name, deltas in per_peer.items():
                if peer_name in needy:
                    # Deltas would apply to a replica the peer lacks;
                    # the next state transfer supersedes them.
                    self.deltas_dropped += len(deltas)
                    continue
                deltas = self._coalesce(deltas)
                touched = {delta.fields.get("license_id")
                           for delta in deltas}
                budgets = {license_id: self.desired_budget(license_id)
                           for license_id in touched
                           if license_id is not None}
                batch = ReplicaBatch(source=self.name, budget=self.budget,
                                     deltas=tuple(deltas), budgets=budgets,
                                     epoch=epoch,
                                     incarnation=self.incarnation)
                link = self.peers.get(peer_name)
                if link is None:
                    continue  # dropped concurrently by a promotion
                try:
                    reply = link.call("replicate", batch)
                except Exception:  # noqa: BLE001 - peer fault = resync later
                    with self._lock:
                        self._needs_snapshot.add(peer_name)
                    self.deltas_dropped += len(deltas)
                    continue
                if self._fenced_reply(peer_name, reply):
                    continue
                if isinstance(reply, dict) and self.note_incarnation(
                        peer_name, reply.get("incarnation", "")):
                    continue  # it restarted: its replica lacks the base
                self.batches_sent += 1
                self._ack(peer_name, self._grant_units(deltas),
                          deltas[-1].seq)
                self._ship_budgets(peer_name, budgets)

    def snapshot_now(self) -> None:
        """Send one full-state transfer to every needy peer.

        All needy peers share one cut, taken inside
        :meth:`~repro.core.sl_remote.SlRemote.quiesce`: the export, the
        seq and each peer's unacked grants are read while no writer can
        commit, so the transfer covers exactly the grants it acks.
        Each peer gets only the licenses it follows, plus the identity.
        """
        with self._flush_serial:
            with self._lock:
                needy = [peer for peer in self.peers
                         if peer in self._needs_snapshot
                         and peer not in self._fenced]
                epoch = self.epoch
            if not needy:
                return
            with self.remote.quiesce() as cut:
                with self._lock:
                    seq = self._seq
                    covered = {peer: dict(self._unacked.get(peer, {}))
                               for peer in needy}
                followed = {
                    peer: [license_id for license_id in cut["licenses"]
                           if peer in self.followers_for(license_id)]
                    for peer in needy
                }
            for peer_name in needy:
                link = self.peers.get(peer_name)
                if link is None:
                    continue  # dropped concurrently by a promotion
                mine = {license_id: self.desired_budget(license_id)
                        for license_id in followed[peer_name]}
                snapshot = ShardSnapshot(
                    source=self.name, seq=seq, budget=self.budget,
                    licenses={license_id: cut["licenses"][license_id]
                              for license_id in mine},
                    identity=cut["identity"], budgets=mine, epoch=epoch,
                    incarnation=self.incarnation,
                )
                try:
                    reply = link.call("sync_snapshot", snapshot)
                except Exception:  # noqa: BLE001 - retried on the next pass
                    continue
                if self._fenced_reply(peer_name, reply):
                    continue
                self.snapshots_sent += 1
                with self._lock:
                    self._needs_snapshot.discard(peer_name)
                    if isinstance(reply, dict):
                        self._incarnations[peer_name] = reply.get(
                            "incarnation", "")
                self._ack(peer_name, covered[peer_name], seq)
                self._ship_budgets(peer_name, mine)

    @staticmethod
    def _grant_units(deltas: List[ReplicaDelta]) -> Dict[str, int]:
        grants: Dict[str, int] = {}
        for delta in deltas:
            if delta.event == "grant":
                license_id = delta.fields["license_id"]
                grants[license_id] = (grants.get(license_id, 0)
                                      + delta.fields["units"])
        return grants

    def _ack(self, peer_name: str, grants: Dict[str, int],
             seq: int) -> None:
        with self._lock:
            bucket = self._unacked.get(peer_name)
            if bucket is not None:
                for license_id, units in grants.items():
                    remaining = bucket.get(license_id, 0) - units
                    if remaining > 0:
                        bucket[license_id] = remaining
                    else:
                        bucket.pop(license_id, None)
                if not bucket:
                    self._unacked.pop(peer_name, None)
            if seq > self._acked_seq.get(peer_name, 0):
                self._acked_seq[peer_name] = seq
            self._ack_cond.notify_all()


# ----------------------------------------------------------------------
# Follower side
# ----------------------------------------------------------------------
@dataclass
class SourceReplica:
    """Everything this shard replicates *from* one source shard."""

    source: str
    budget: int = DEFAULT_LAG_BUDGET_UNITS
    last_seq: int = 0
    #: license_id -> mutable wire-form record (export_license_state).
    licenses: Dict[str, Any] = field(default_factory=dict)
    identity: Dict[str, Any] = field(
        default_factory=lambda: {"next_slid": 1, "clients": {}})
    #: license_id -> the largest adaptive lag budget the source has
    #: shipped us (falls back to the flat ``budget`` when absent).
    budgets: Dict[str, int] = field(default_factory=dict)

    def budget_for(self, license_id: str) -> int:
        return self.budgets.get(license_id, self.budget)


class FollowerStore:
    """Replicated state held on behalf of other shards.

    Fencing: once :meth:`fence` records an epoch for a source, any
    message from that source carrying a *lower* epoch is answered with
    ``{"status": "fenced", "epoch": E}`` instead of being applied —
    the partitioned-stale-primary rejection the promotion protocol
    relies on.  (A fence at epoch 0 — legacy string promotes — rejects
    nothing: epoch-0 messages are not ``< 0``.)
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._sources: Dict[str, SourceReplica] = {}
        #: source name -> epoch it was promoted away at.
        self._fenced: Dict[str, int] = {}
        self.deltas_applied = 0
        self.deltas_skipped = 0
        self.snapshots_applied = 0

    # -- fencing --------------------------------------------------------
    def fence(self, source: str, epoch: int) -> None:
        with self._lock:
            if epoch > self._fenced.get(source, -1):
                self._fenced[source] = epoch

    def fences(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._fenced)

    def _fence_check(self, source: str,
                     epoch: int) -> Optional[Dict[str, Any]]:
        """Rejection envelope for a stale source, or None (lock held)."""
        fenced = self._fenced.get(source)
        if fenced is not None and epoch < fenced:
            return {"status": "fenced", "epoch": fenced}
        return None

    def _claim(self, source: str, license_ids: List[str]) -> None:
        """``source`` just proved ownership of these licenses: purge
        stale copies replicated from anyone else (lock held).  This is
        what keeps a *sequence* of promotions safe — the adopted
        license's fresh stream supersedes the dead primary's old
        replica everywhere it landed."""
        if not license_ids:
            return
        for other_name, other in self._sources.items():
            if other_name == source:
                continue
            for license_id in license_ids:
                other.licenses.pop(license_id, None)

    # -- application ----------------------------------------------------
    def apply_batch(self, batch: ReplicaBatch,
                    issue_record: Optional[Callable[[Dict[str, Any]],
                                                    Dict[str, Any]]] = None,
                    ) -> Dict[str, Any]:
        with self._lock:
            rejected = self._fence_check(batch.source, batch.epoch)
            if rejected is not None:
                return rejected
            replica = self._sources.setdefault(
                batch.source, SourceReplica(source=batch.source)
            )
            replica.budget = batch.budget
            self._merge_budgets(replica, batch.budgets)
            claimed: List[str] = []
            for delta in batch.deltas:
                if delta.seq <= replica.last_seq:
                    continue  # replayed batch; deltas are idempotent by seq
                replica.last_seq = delta.seq
                # Any delta naming a license asserts the sender's
                # ownership of it — stale copies under other (dead)
                # sources are purged even when this delta itself
                # cannot be applied yet.
                license_id = delta.fields.get("license_id")
                if license_id is not None:
                    claimed.append(license_id)
                if self._apply_delta(replica, delta, issue_record):
                    self.deltas_applied += 1
                else:
                    self.deltas_skipped += 1
            self._claim(batch.source, claimed)
            return {"status": "ok", "seq": replica.last_seq}

    def apply_snapshot(self, snapshot: ShardSnapshot) -> Dict[str, Any]:
        """Replace the replica with the source's state at ``seq``.

        Authoritative: the watermark is *set*, not ratcheted — a
        restarted source counts its seqs from 1 again, and every delta
        past the snapshot's cut must apply.  The records are copied:
        an in-process link hands every follower the same cut.
        """
        with self._lock:
            rejected = self._fence_check(snapshot.source, snapshot.epoch)
            if rejected is not None:
                return rejected
            replica = self._sources.setdefault(
                snapshot.source, SourceReplica(source=snapshot.source)
            )
            replica.budget = snapshot.budget
            self._merge_budgets(replica, snapshot.budgets)
            replica.last_seq = snapshot.seq
            replica.licenses = copy.deepcopy(snapshot.licenses)
            replica.identity = copy.deepcopy(snapshot.identity)
            self._claim(snapshot.source, list(replica.licenses))
            self.snapshots_applied += 1
            return {"status": "ok", "seq": replica.last_seq}

    @staticmethod
    def _merge_budgets(replica: SourceReplica,
                       budgets: Dict[str, int]) -> None:
        """Budgets only ever grow: the source may clamp against any
        budget it successfully shipped, so the reserve honours the
        largest one ever seen even if a later message carries less."""
        for license_id, units in budgets.items():
            if units > replica.budgets.get(license_id, 0):
                replica.budgets[license_id] = units

    def _apply_delta(self, replica: SourceReplica, delta: ReplicaDelta,
                     issue_record: Optional[
                         Callable[[Dict[str, Any]],
                                  Dict[str, Any]]] = None) -> bool:
        """Mutate the replica; False when the delta had nothing to hit
        (an unknown license)."""
        fields = delta.fields
        event = delta.event
        if event in ("escrow", "escrow_clear", "admit"):
            clients = replica.identity.setdefault("clients", {})
            slid = str(fields["slid"])
            entry = {"escrowed_root_key": fields.get("root_key"),
                     "graceful_shutdown": event == "escrow"}
            if event == "admit":
                clients.setdefault(slid, entry)  # admit keeps any escrow
            else:
                clients[slid] = entry
            replica.identity["next_slid"] = max(
                replica.identity.get("next_slid", 1), int(slid) + 1
            )
            return True
        if event == "install_identity":
            payload = fields["identity"]
            clients = replica.identity.setdefault("clients", {})
            for slid, entry in payload.get("clients", {}).items():
                clients[slid] = dict(entry)
            replica.identity["next_slid"] = max(
                replica.identity.get("next_slid", 1),
                int(payload.get("next_slid", 1)),
            )
            return True
        if event == "install_license":
            # A migration/promotion moved a whole record onto the
            # source: replicate it wholesale (it arrives with holdings
            # and ledger intact, unlike an "issue").
            replica.licenses[fields["license_id"]] = copy.deepcopy(
                fields["record"])
            return True
        if event == "release":
            # Migrated away from the source: the new owner replicates
            # it now; holding a stale copy here risks double-serving.
            return replica.licenses.pop(fields["license_id"], None) is not None
        if event == "issue":
            # An "issue" delta carries no secret, so the record cannot
            # be built from the delta alone — unless the manager lends
            # us its fleet-shared secret via ``issue_record``.
            if issue_record is not None:
                replica.licenses[fields["license_id"]] = \
                    issue_record(fields)
                return True
            return False
        record = replica.licenses.get(fields.get("license_id"))
        if record is None:
            return False
        ledger = record["ledger"]
        holdings = record.setdefault("holdings", {})
        if event == "grant":
            key, units = fields["node_key"], fields["units"]
            ledger["outstanding"][key] = (
                ledger["outstanding"].get(key, 0) + units
            )
            slid = _slid_of(key)
            holdings[slid] = holdings.get(slid, 0) + units
            _store_pricing(ledger, key, fields)
            return True
        if event == "condition":
            _store_pricing(ledger, fields["node_key"], fields)
            return True
        if event == "return":
            key, units = fields["node_key"], fields["units"]
            ledger["outstanding"][key] = max(
                0, ledger["outstanding"].get(key, 0) - units
            )
            slid = _slid_of(key)
            left = holdings.get(slid, 0) - units
            if left > 0:
                holdings[slid] = left
            else:
                holdings.pop(slid, None)  # the export lists no empty holding
            return True
        if event == "writeoff":
            key, units = fields["node_key"], fields["units"]
            ledger["outstanding"][key] = max(
                0, ledger["outstanding"].get(key, 0) - units
            )
            ledger["lost_units"] += units
            holdings.pop(_slid_of(key), None)
            return True
        if event == "revoke":
            record["definition"]["revoked"] = True
            return True
        return False

    # -- promotion ------------------------------------------------------
    def licenses_of(self, source: str) -> List[str]:
        with self._lock:
            replica = self._sources.get(source)
            return sorted(replica.licenses) if replica is not None else []

    def take_license(self, source: str,
                     license_id: str) -> Optional[Tuple[Any, int]]:
        """Pop one replicated record; returns ``(record, budget)``."""
        with self._lock:
            replica = self._sources.get(source)
            if replica is None:
                return None
            record = replica.licenses.pop(license_id, None)
            if record is None:
                return None
            return record, replica.budget_for(license_id)

    def discard_license(self, source: str, license_id: str) -> None:
        with self._lock:
            replica = self._sources.get(source)
            if replica is not None:
                replica.licenses.pop(license_id, None)

    def identity_of(self, source: str) -> Optional[Dict[str, Any]]:
        with self._lock:
            replica = self._sources.get(source)
            if replica is None:
                return None
            return {
                "next_slid": replica.identity.get("next_slid", 1),
                "clients": {slid: dict(entry) for slid, entry in
                            replica.identity.get("clients", {}).items()},
            }

    def probe(self) -> Dict[str, Any]:
        with self._lock:
            return {
                source: {
                    "last_seq": replica.last_seq,
                    "budget": replica.budget,
                    "budgets": dict(replica.budgets),
                    "licenses": sorted(replica.licenses),
                }
                for source, replica in self._sources.items()
            }


# ----------------------------------------------------------------------
# Both sides, wired for one shard process
# ----------------------------------------------------------------------
class ReplicationManager:
    """One shard's replication role: source to followers, store for peers.

    ``peers`` maps peer shard name -> :class:`PeerLink`; an empty map
    (single-shard fleet, or replication off) degrades to a follower
    store only — the wire surface stays mounted so a probe or promote
    is still answerable (with nothing in it).

    ``followers_for(license_id)`` names the K peers replicating a
    license; ``owners_for(license_id)`` (optional) names the *full*
    ring order for it, which promotion uses to decide the adopter —
    the first owner not known dead.  ``quorum`` > 0 gates the
    ``init``/``shutdown`` handlers on that many follower acks of the
    identity watermark.

    ``incarnation`` names this process: its source stamps it on every
    message and every reply carries it.  A new incarnation from a peer
    means that peer restarted with an empty store: this shard's source
    then sends it a state transfer without waiting for traffic to
    reveal the gap.
    """

    def __init__(
        self,
        remote,
        name: str,
        peers: Optional[Dict[str, PeerLink]] = None,
        followers_for: Optional[Callable[[str], Sequence[str]]] = None,
        *,
        owners_for: Optional[Callable[[str], Sequence[str]]] = None,
        quorum: int = 0,
        quorum_timeout: float = DEFAULT_QUORUM_TIMEOUT,
        lag_budget_units: int = DEFAULT_LAG_BUDGET_UNITS,
        lag_budget_grants: int = DEFAULT_LAG_BUDGET_GRANTS,
    ) -> None:
        self.remote = remote
        self.name = name
        self.store = FollowerStore()
        self.source: Optional[ReplicationSource] = None
        #: Highest promotion epoch this shard has participated in;
        #: stamped on outbound replication traffic via the source.
        self.epoch = 0
        self.quorum = max(0, int(quorum))
        self.quorum_timeout = quorum_timeout
        self.quorum_timeouts = 0
        self.owners_for = owners_for
        self._promote_lock = threading.Lock()
        #: source name -> {license_id: reserved units} for promotions
        #: already performed (the idempotency memo every extra router
        #: asking again is answered from).
        self._promoted: Dict[str, Dict[str, int]] = {}
        if peers:
            if followers_for is None:
                raise ValueError("peers need a followers_for placement rule")
            self.source = ReplicationSource(
                remote, name, peers, followers_for,
                lag_budget_units=lag_budget_units,
                lag_budget_grants=lag_budget_grants,
            )
        self.incarnation = (self.source.incarnation if self.source is not None
                            else os.urandom(8).hex())

    # -- lifecycle ------------------------------------------------------
    def start(self) -> None:
        if self.source is not None:
            self.source.start()

    def stop(self) -> None:
        if self.source is not None:
            self.source.stop()

    # -- wire surface ---------------------------------------------------
    def extra_handlers(self) -> Dict[str, Callable]:
        handlers: Dict[str, Callable] = {
            "replicate": self.handle_replicate,
            "sync_snapshot": self.handle_snapshot,
            "promote": self.handle_promote,
            "replication_probe": self.handle_probe,
        }
        if self.source is not None and self.quorum > 0:
            # Identity quorum: hold the client's ack until a majority
            # of live followers could survive this shard's death with
            # the admit/escrow intact.  Mounted as extra handlers so
            # they override the remote's own protocol bindings.
            protocol = self.remote.protocol_handlers()
            for method in ("init", "shutdown"):
                inner = protocol.get(method)
                if inner is not None:
                    handlers[method] = self._gated(inner)
        return handlers

    def _gated(self, inner: Callable) -> Callable:
        # The wrapper must advertise clock/stats so HandlerTable's
        # signature introspection keeps threading them through to the
        # wrapped protocol handler.
        parameters = inspect.signature(inner).parameters
        wants = {name for name in ("clock", "stats") if name in parameters}

        def gated(request: Any, clock: Any = None, stats: Any = None) -> Any:
            kwargs = {}
            if "clock" in wants and clock is not None:
                kwargs["clock"] = clock
            if "stats" in wants and stats is not None:
                kwargs["stats"] = stats
            response = inner(request, **kwargs)
            if not self.source.wait_identity_quorum(
                    self.quorum, timeout=self.quorum_timeout):
                self.quorum_timeouts += 1
            return response
        return gated

    def handle_replicate(self, batch: ReplicaBatch) -> Dict[str, Any]:
        return self._answer(batch, self.store.apply_batch(
            batch, issue_record=self._issue_record))

    def handle_snapshot(self, snapshot: ShardSnapshot) -> Dict[str, Any]:
        return self._answer(snapshot, self.store.apply_snapshot(snapshot))

    def _answer(self, message: Any, reply: Dict[str, Any]) -> Dict[str, Any]:
        """Stamp our incarnation on the reply; learn the sender's."""
        if self.source is not None:
            self.source.note_incarnation(message.source,
                                         message.incarnation)
        reply["incarnation"] = self.incarnation
        return reply

    def _issue_record(self, fields: Dict[str, Any]) -> Dict[str, Any]:
        """Synthesize the wire record for an ``issue`` delta.

        WAL/delta "issue" events deliberately omit the license secret;
        fleet shards share the server secret, so the follower can
        rebuild the full record locally instead of waiting for a
        snapshot to deliver it.
        """
        license_id = fields["license_id"]
        return {
            "definition": {
                "license_id": license_id,
                "kind": fields["kind"],
                "total_units": fields["total_units"],
                "tick_seconds": fields.get("tick_seconds", 0.0),
                "secret": self.remote._server_secret.hex(),
                "revoked": False,
            },
            "ledger": {
                "license_id": license_id,
                "total_gcl": fields["total_units"],
                "beta": self.remote.policy.default_beta,
                "outstanding": {},
                "lost_units": 0,
                "node_conditions": {},
            },
            "frozen": False,
            "holdings": {},
        }

    def handle_probe(self, _payload: Any = None) -> Dict[str, Any]:
        result = {
            "name": self.name,
            "epoch": self.epoch,
            "quorum": self.quorum,
            "follows": self.store.probe(),
            "fences": self.store.fences(),
            "promoted": {source: dict(reserves)
                         for source, reserves in self._promoted.items()},
        }
        if self.source is not None:
            with self.source._lock:
                unacked = {peer: dict(bucket) for peer, bucket
                           in self.source._unacked.items()}
                peaks = dict(self.source._peak)
                shipped = {peer: dict(bucket) for peer, bucket
                           in self.source._shipped.items()}
                acked_seq = dict(self.source._acked_seq)
                seq = self.source._seq
                identity_seq = self.source._identity_seq
                fenced = dict(self.source._fenced)
            result["replicates"] = {
                "budget": self.source.budget,
                "grants_budget": self.source.grants_budget,
                "seq": seq,
                "identity_seq": identity_seq,
                "unacked": unacked,
                "peaks": peaks,
                "shipped": shipped,
                "acked_seq": acked_seq,
                "fenced": fenced,
                "batches_sent": self.source.batches_sent,
                "snapshots_sent": self.source.snapshots_sent,
                "fenced_rejections": self.source.fenced_rejections,
            }
        return result

    def health(self) -> Dict[str, Any]:
        """Replication health for ``_server_stats``: per-peer ack lag,
        epoch, quorum size and shipping counters."""
        result: Dict[str, Any] = {
            "epoch": self.epoch,
            "quorum": self.quorum,
            "quorum_timeouts": self.quorum_timeouts,
            "promoted": sorted(self._promoted),
            "follows": {
                "deltas_applied": self.store.deltas_applied,
                "deltas_skipped": self.store.deltas_skipped,
                "snapshots_applied": self.store.snapshots_applied,
            },
        }
        source = self.source
        if source is not None:
            with source._lock:
                seq = source._seq
                identity_seq = source._identity_seq
                peers = {
                    peer: {
                        "acked_seq": source._acked_seq.get(peer, 0),
                        "ack_lag": max(
                            0, seq - source._acked_seq.get(peer, 0)),
                        "needs_snapshot": peer in source._needs_snapshot,
                        "fenced": peer in source._fenced,
                    }
                    for peer in source.peers
                }
            result["replicates"] = {
                "seq": seq,
                "identity_seq": identity_seq,
                "peers": peers,
                "grants_budget": source.grants_budget,
                "batches_sent": source.batches_sent,
                "snapshots_sent": source.snapshots_sent,
                "fenced_rejections": source.fenced_rejections,
            }
        return result

    def _adopter_of(self, license_id: str, dead: Set[str]) -> str:
        """The shard that should install a dead primary's license: the
        first owner in full ring order that is not known dead.  With
        no ring knowledge (legacy single-follower wiring) the answer
        is always *us* — we were the only replica."""
        if self.owners_for is None:
            return self.name
        for owner in self.owners_for(license_id):
            if owner not in dead:
                return owner
        return self.name

    def handle_promote(self, request: Any) -> Dict[str, Any]:
        """Fold replicas held for a dead ``source`` into serving state.

        Accepts a legacy bare source name or ``{"source", "epoch"}``.
        The epoch fences the dead source in the follower store (its
        late traffic is rejected, not applied) and ratchets this
        shard's own epoch so its outbound stream outranks the deposed
        primary's.

        The pessimistic-loss rule, scoped to the lag window: for each
        *adopted* license, ``min(available, shipped budget)`` units
        are moved to ``lost`` before installing — every grant the dead
        primary made that this replica never saw is covered by that
        reserve, because the source only ever clamped grants against
        budgets its followers had already acknowledged.  Every call
        rescans *all* dead sources, so a simultaneous second death is
        healed by whichever survivor is next in ring order per
        license.  Idempotent: the first caller does the work, every
        later caller gets the memo.
        """
        if isinstance(request, dict):
            source = request["source"]
            epoch = int(request.get("epoch", 0))
        else:
            source, epoch = str(request), 0
        self.store.fence(source, epoch)
        if self.source is not None:
            # The fleet shrank: stop streaming to (and backpressuring
            # for) the dead shard.
            self.source.drop_peer(source)
        with self._promote_lock:
            if epoch > self.epoch:
                self.epoch = epoch
                if self.source is not None:
                    self.source.epoch = epoch
            already = source in self._promoted
            self._promoted.setdefault(source, {})
            dead = set(self._promoted)
            served = set(self.remote.license_ids())
            for dead_source in sorted(dead):
                memo = self._promoted.setdefault(dead_source, {})
                for license_id in self.store.licenses_of(dead_source):
                    if license_id in served:
                        # Already serving it (migrated here while the
                        # source was live, or adopted in an earlier
                        # pass): the stale replica copy must go.
                        self.store.discard_license(dead_source,
                                                   license_id)
                        continue
                    if self._adopter_of(license_id, dead) != self.name:
                        # Another survivor outranks us in ring order;
                        # keep the replica in case it dies too.
                        continue
                    taken = self.store.take_license(dead_source,
                                                    license_id)
                    if taken is None:
                        continue
                    record, budget = taken
                    ledger = record["ledger"]
                    reserve = min(max(_wire_available(ledger), 0), budget)
                    ledger["lost_units"] += reserve
                    record["frozen"] = False
                    self.remote.install_license_state(record)
                    served.add(license_id)
                    memo[license_id] = reserve
            if not already:
                identity = self.store.identity_of(source)
                if identity is not None:
                    self.remote.install_identity(identity)
            return {"status": "ok", "already": already,
                    "installed": dict(self._promoted[source]),
                    "epoch": self.epoch}
