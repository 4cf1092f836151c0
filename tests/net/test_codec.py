"""Wire codec tests: every protocol message survives the wire unchanged,
and nothing but an intact v3 frame decodes."""

import json

import pytest
from hypothesis import given, strategies as st

from repro.core.protocol import (
    AttestRequest,
    AttestResponse,
    BatchRequest,
    BatchResponse,
    InitRequest,
    InitResponse,
    MigratingNotice,
    RenewRequest,
    RenewResponse,
    ShutdownNotice,
    Status,
)
from repro.core.tokens import ExecutionToken
from repro.crypto.sealing import SealedBlob
from repro.net import codec
from repro.net.replication import ReplicaBatch, ReplicaDelta, ShardSnapshot
from repro.sgx.attestation import AttestationReport

# ----------------------------------------------------------------------
# Strategies covering the full protocol surface
# ----------------------------------------------------------------------
words = st.integers(min_value=0, max_value=2**64 - 1)
small_ints = st.integers(min_value=0, max_value=2**31 - 1)
license_ids = st.text(min_size=1, max_size=24)
blobs = st.binary(max_size=64)
ratios = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
statuses = st.sampled_from(list(Status))

reports = st.builds(
    AttestationReport,
    source_measurement=words,
    target_measurement=words,
    nonce=words,
    mac=words,
)

sealed_blobs = st.builds(SealedBlob, ciphertext=blobs, nonce=blobs)


@st.composite
def execution_tokens(draw):
    initial = draw(st.integers(min_value=1, max_value=1000))
    return ExecutionToken(
        license_id=draw(license_ids),
        lease_id=draw(small_ints),
        nonce=draw(words),
        grants=draw(st.integers(min_value=0, max_value=initial)),
        initial_grants=initial,
        mac=draw(words),
    )


# Fleet-internal replication/migration messages: the same lossless-wire
# property must hold for them as for client traffic.
migrating_notices = st.builds(
    MigratingNotice,
    license_id=license_ids,
    retry_after_seconds=st.floats(min_value=0.0, max_value=10.0,
                                  allow_nan=False),
    new_owner=st.none() | license_ids,
)

delta_fields = st.dictionaries(
    st.sampled_from(["license_id", "node_key", "units", "slid", "root_key"]),
    st.one_of(small_ints, license_ids),
    max_size=4,
)
replica_deltas = st.builds(
    ReplicaDelta,
    seq=small_ints,
    event=st.sampled_from(["grant", "return", "writeoff", "issue",
                           "revoke", "escrow", "escrow_clear"]),
    fields=delta_fields,
)
replica_batches = st.builds(
    ReplicaBatch,
    source=license_ids,
    budget=small_ints,
    deltas=st.lists(replica_deltas, max_size=4).map(tuple),
)
shard_snapshots = st.builds(
    ShardSnapshot,
    source=license_ids,
    seq=small_ints,
    budget=small_ints,
    licenses=st.dictionaries(
        license_ids,
        st.dictionaries(license_ids, st.one_of(small_ints, license_ids),
                        max_size=3),
        max_size=3,
    ),
    identity=st.fixed_dictionaries({
        "next_slid": small_ints,
        "clients": st.dictionaries(license_ids, small_ints, max_size=3),
    }),
)

renew_requests = st.builds(
    RenewRequest, slid=small_ints, license_id=license_ids,
    license_blob=blobs, network_reliability=ratios, health=ratios,
    weight=st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    rtt_seconds=st.floats(min_value=0.0, max_value=60.0, allow_nan=False),
    retries=small_ints,
    reconnects=small_ints,
)
renew_responses = st.builds(
    RenewResponse, status=statuses, granted_units=small_ints,
    lease_kind=st.sampled_from(["count", "time", "execution_time",
                                "perpetual"]),
    tick_seconds=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
)
batch_requests = st.builds(
    BatchRequest, requests=st.lists(renew_requests, max_size=4).map(tuple)
)
batch_responses = st.builds(
    BatchResponse,
    responses=st.lists(st.one_of(renew_responses, migrating_notices),
                       max_size=4).map(tuple),
)

protocol_messages = st.one_of(
    st.builds(InitRequest, slid=st.none() | small_ints, report=reports,
              platform_secret=words),
    st.builds(InitResponse, status=statuses, slid=st.none() | small_ints,
              old_backup_key=st.none() | words),
    renew_requests,
    renew_responses,
    batch_requests,
    batch_responses,
    st.builds(ShutdownNotice, slid=small_ints, root_key=words),
    st.builds(AttestRequest, report=reports, license_id=license_ids,
              license_blob=blobs, tokens_requested=small_ints),
    st.builds(AttestResponse, status=statuses,
              token=st.none() | execution_tokens()),
    reports,
    sealed_blobs,
    execution_tokens(),
    migrating_notices,
    replica_deltas,
    replica_batches,
    shard_snapshots,
)

plain_payloads = st.recursive(
    st.none() | st.booleans() | st.integers() | license_ids | blobs
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda children: st.lists(children, max_size=4)
    | st.tuples(children, children)
    | st.dictionaries(license_ids, children, max_size=4),
    max_leaves=8,
)


# ----------------------------------------------------------------------
# The round-trip property (the wire is lossless)
# ----------------------------------------------------------------------
@given(protocol_messages)
def test_every_protocol_message_survives_the_wire(message):
    rebuilt = codec.decode_value(codec.encode_value(message))
    assert rebuilt == message
    assert type(rebuilt) is type(message)


@given(protocol_messages)
def test_to_wire_from_wire_inverse(message):
    assert type(message).from_wire(
        json.loads(json.dumps(message.to_wire()))
    ) == message


@given(plain_payloads)
def test_plain_payloads_survive_the_wire(payload):
    rebuilt = codec.decode_value(codec.encode_value(payload))
    assert rebuilt == payload


@given(protocol_messages, st.integers(min_value=0, max_value=2**31))
def test_request_envelope_round_trip(message, request_id):
    data = codec.encode_request("renew", message, request_id)
    method, payload, rid = codec.decode_request(data)
    assert (method, payload, rid) == ("renew", message, request_id)


@given(protocol_messages)
def test_response_envelope_round_trip(message):
    assert codec.decode_response(codec.encode_response(message, 7)) == message


# ----------------------------------------------------------------------
# Strictness: one format, unknown types, error envelopes, framing
# ----------------------------------------------------------------------
def _msg_value(name: str, tag: int = 0x0B) -> bytes:
    """A hand-built message value: tag, type name, empty field table."""
    raw = name.encode()
    return bytes([tag]) + len(raw).to_bytes(4, "big") + raw + b"\x00"


def test_status_decodes_to_the_singleton():
    rebuilt = codec.decode_value(codec.encode_value(Status.EXHAUSTED))
    assert rebuilt is Status.EXHAUSTED  # `is` comparisons keep working


def test_wrong_version_rejected():
    data = bytearray(codec.encode_request("init", None))
    data[0] = codec.V3_MAGIC + 1  # a future revision's magic
    with pytest.raises(codec.CodecError, match="version"):
        codec.decode_request(bytes(data))


@pytest.mark.parametrize("decode", [codec.decode_request,
                                    codec.decode_request_envelope,
                                    codec.decode_reply,
                                    codec.decode_response])
def test_only_v3_frames_decode(decode):
    """The CRC does not cover the magic byte, so the decoder checks it:
    a JSON envelope and a v3 frame with only its magic byte flipped are
    both rejected before anything else is parsed."""
    json_frame = b'{"v":2,"kind":"request","id":1,"method":"init","body":null}'
    with pytest.raises(codec.CodecError, match="magic"):
        decode(json_frame)
    for intact in (codec.encode_request("init", None, 1),
                   codec.encode_response(None, 1)):
        flipped = bytearray(intact)
        flipped[0] ^= 0xFF
        with pytest.raises(codec.CodecError, match="magic"):
            decode(bytes(flipped))


def test_unknown_message_type_rejected():
    with pytest.raises(codec.CodecError, match="unknown message type"):
        codec.decode_value(_msg_value("Pickle"))


def test_retired_wire_dict_tag_rejected():
    """Every registered message is a dataclass, so the old free-form
    dict tag (0x0C) is just an unknown tag."""
    with pytest.raises(codec.CodecError, match="unknown v3 value tag 0xc"):
        codec.decode_value(_msg_value("RenewRequest", tag=0x0C))


def test_unregistered_object_rejected():
    class Rogue:
        def to_wire(self):
            return {}

    with pytest.raises(codec.CodecError, match="not wire-encodable"):
        codec.encode_value(Rogue())


def test_only_dataclasses_register():
    class Rogue:
        def to_wire(self):
            return {}

        @classmethod
        def from_wire(cls, fields):
            return cls()

    with pytest.raises(codec.CodecError, match="not a dataclass"):
        codec.register_message_type(Rogue)
    assert "Rogue" not in codec.MESSAGE_TYPES


def test_garbage_frame_rejected():
    with pytest.raises(codec.CodecError):
        codec.decode_response(b"\xff\xfenot json")


def test_error_envelope_raises_remote_call_error():
    data = codec.encode_error("LicenseUnknown: lic-x", 3)
    with pytest.raises(codec.RemoteCallError, match="LicenseUnknown"):
        codec.decode_response(data)


def test_shutdown_none_response_is_encodable():
    assert codec.decode_response(codec.encode_response(None)) is None


def test_frame_length_cap():
    with pytest.raises(codec.CodecError, match="exceeds"):
        codec.frame_length(codec.FRAME_HEADER.pack(codec.MAX_FRAME_BYTES + 1))


def test_frame_round_trip():
    data = codec.encode_request("renew", ("a", 1))
    framed = codec.frame(data)
    assert codec.frame_length(framed[:4]) == len(data)
    assert framed[4:] == data


# ----------------------------------------------------------------------
# Version compatibility: the wire revisions a current peer still speaks
# ----------------------------------------------------------------------
#: Leading byte of each wire revision a decoder accepts.  The v1/v2
#: JSON envelopes are retired, so v3 is the only row left.
SUPPORTED_WIRE_MAGIC = {3: codec.V3_MAGIC}


class TestVersionCompatMatrix:
    """Every supported emitter revision must decode through the one
    decoder entry point; only the v3 binary framing remains."""

    def test_requests_from_v3_decode(self):
        data = codec.encode_request("renew", ("lic", 3), request_id=9)
        assert data[0] == SUPPORTED_WIRE_MAGIC[3]
        assert codec.decode_request(data) == ("renew", ("lic", 3), 9)

    @pytest.mark.parametrize("version", sorted(SUPPORTED_WIRE_MAGIC))
    def test_responses_from_any_supported_version_decode(self, version):
        data = codec.encode_response(Status.OK, 5)
        assert data[0] == SUPPORTED_WIRE_MAGIC[version]
        assert codec.decode_response(data) is Status.OK

    @pytest.mark.parametrize("version", sorted(SUPPORTED_WIRE_MAGIC))
    def test_error_envelopes_from_any_supported_version(self, version):
        data = codec.encode_error("boom", 1)
        assert data[0] == SUPPORTED_WIRE_MAGIC[version]
        with pytest.raises(codec.RemoteCallError, match="boom"):
            codec.decode_response(data)


# ----------------------------------------------------------------------
# Correlation metadata: the pipelining contract on the wire
# ----------------------------------------------------------------------
class TestCorrelationMetadata:
    """Corr ids ride the envelope metadata: a tagged request is echoed
    back tagged, and an untagged one stays untagged."""

    def test_request_corr_id_round_trips(self):
        data = codec.encode_request("renew", ("lic", 1), request_id=4,
                                    meta={codec.CORRELATION_KEY: 77})
        method, payload, rid, meta = codec.decode_request_envelope(data)
        assert (method, payload, rid) == ("renew", ("lic", 1), 4)
        assert meta[codec.CORRELATION_KEY] == 77

    def test_untagged_request_has_empty_corr(self):
        data = codec.encode_request("renew", ("lic", 1), request_id=4)
        *_, meta = codec.decode_request_envelope(data)
        assert codec.CORRELATION_KEY not in meta

    def test_response_corr_id_round_trips(self):
        data = codec.encode_response(Status.OK, 9,
                                     meta={codec.CORRELATION_KEY: 13})
        reply = codec.decode_reply(data)
        assert reply.meta[codec.CORRELATION_KEY] == 13
        assert reply.request_id == 9
        assert reply.deliver() is Status.OK

    def test_error_reply_is_routable_before_it_raises(self):
        """decode_reply must NOT raise on an error envelope — the
        pipelining reader needs the corr id to route the error to the
        right caller first; deliver() raises at the call site."""
        data = codec.encode_error("LicenseUnknown: lic-x", 3,
                                  meta={codec.CORRELATION_KEY: 5})
        reply = codec.decode_reply(data)
        assert reply.meta[codec.CORRELATION_KEY] == 5
        assert reply.error is not None
        with pytest.raises(codec.RemoteCallError, match="LicenseUnknown"):
            reply.deliver()

    def test_meta_cannot_clobber_reserved_envelope_keys(self):
        with pytest.raises(codec.CodecError, match="reserved"):
            codec.encode_request("renew", None, meta={"method": "steal"})
        with pytest.raises(codec.CodecError, match="reserved"):
            codec.encode_response(None, meta={"body": "fake"})

    @given(protocol_messages, st.integers(min_value=1, max_value=2**31))
    def test_tagged_round_trip_is_lossless(self, message, corr):
        data = codec.encode_response(message, corr,
                                     meta={codec.CORRELATION_KEY: corr})
        reply = codec.decode_reply(data)
        assert reply.deliver() == message
        assert reply.meta[codec.CORRELATION_KEY] == corr


# ----------------------------------------------------------------------
# The v3 binary framing: lossless, and hostile to corruption
# ----------------------------------------------------------------------
class TestBinaryWireV3:
    """The binary format must be lossless — and provably resistant to
    corruption: every flipped byte and every truncation raises a typed
    :class:`~repro.net.codec.CodecError`, never a mis-parse."""

    @given(protocol_messages, st.integers(min_value=0, max_value=2**31))
    def test_request_frames_round_trip(self, message, request_id):
        data = codec.encode_request("renew", message, request_id)
        assert data[0] == codec.V3_MAGIC
        method, payload, rid = codec.decode_request(data)
        assert (method, rid) == ("renew", request_id)
        assert payload == message
        assert type(payload) is type(message)

    @given(protocol_messages)
    def test_response_frames_round_trip(self, message):
        rebuilt = codec.decode_response(
            codec.encode_response(message, 7)
        )
        assert rebuilt == message
        assert type(rebuilt) is type(message)

    @given(plain_payloads)
    def test_plain_payloads_round_trip(self, payload):
        data = codec.encode_response(payload, 1)
        assert codec.decode_response(data) == payload

    def test_error_frames_are_routable_then_raise(self):
        data = codec.encode_error("LicenseUnknown: lic-x", 3,
                                  meta={codec.CORRELATION_KEY: 5})
        reply = codec.decode_reply(data)
        assert reply.meta[codec.CORRELATION_KEY] == 5
        with pytest.raises(codec.RemoteCallError, match="LicenseUnknown"):
            reply.deliver()

    def test_corr_metadata_rides_v3(self):
        data = codec.encode_request("renew", ("lic", 1), 4,
                                    meta={codec.CORRELATION_KEY: 77})
        method, payload, rid, meta = codec.decode_request_envelope(data)
        assert (method, payload, rid) == ("renew", ("lic", 1), 4)
        assert meta[codec.CORRELATION_KEY] == 77

    def test_meta_cannot_clobber_reserved_envelope_keys(self):
        with pytest.raises(codec.CodecError, match="reserved"):
            codec.encode_request("renew", None, meta={"method": "steal"})

    def test_bytes_travel_raw_not_hex(self):
        """The format's point: byte fields ship as bytes, and the whole
        frame undercuts even the hex spelling of its blob."""
        blob = bytes(range(256))
        request = RenewRequest(slid=1, license_id="lic", license_blob=blob,
                               network_reliability=1.0, health=1.0)
        data = codec.encode_request("renew", request)
        assert blob in data
        assert blob.hex().encode() not in data
        assert len(data) < len(blob.hex())

    def test_json_envelope_claiming_v3_rejected(self):
        envelope = {"v": 3, "kind": "request", "id": 0, "method": "init",
                    "body": None}
        with pytest.raises(codec.CodecError, match="version"):
            codec.decode_request(json.dumps(envelope).encode())

    # -- the fleet-internal rows -----------------------------------------
    REPLICATION_ROWS = [
        ("replicate", ReplicaBatch(source="shard-0", budget=64, deltas=(
            ReplicaDelta(1, "grant", {"license_id": "lic",
                                      "node_key": "slid:1", "units": 8}),
            ReplicaDelta(2, "escrow", {"slid": 1, "root_key": 42}),
        ))),
        ("sync_snapshot", ShardSnapshot(
            source="shard-0", seq=9, budget=64,
            licenses={"lic": {"frozen": False}},
            identity={"next_slid": 2, "clients": {}},
        )),
        ("promote", "shard-0"),
    ]

    @pytest.mark.parametrize("method,payload", REPLICATION_ROWS,
                             ids=[row[0] for row in REPLICATION_ROWS])
    def test_fleet_internal_requests_cross_the_wire(self, method, payload):
        """The replication surface rides the same envelope as client
        traffic, so every fleet-internal message must decode."""
        data = codec.encode_request(method, payload, request_id=5)
        rebuilt_method, rebuilt, rid = codec.decode_request(data)
        assert (rebuilt_method, rid) == (method, 5)
        assert rebuilt == payload
        assert type(rebuilt) is type(payload)

    def test_migrating_notice_response_crosses_the_wire(self):
        """The typed retry-after envelope a frozen license answers with
        — stale routers must understand it."""
        notice = MigratingNotice(license_id="lic", retry_after_seconds=0.05,
                                 new_owner="shard-2=127.0.0.1:4872")
        rebuilt = codec.decode_response(codec.encode_response(notice, 7))
        assert rebuilt == notice
        assert rebuilt.status is Status.MIGRATING

    # -- the hostile sweeps --------------------------------------------
    def _sample_frame(self) -> bytes:
        request = RenewRequest(slid=7, license_id="lic-corrupt",
                               license_blob=b"\x00\x01\xfe\xff",
                               network_reliability=0.5, health=1.0)
        return codec.encode_request(
            "renew_batch", BatchRequest(requests=(request,)), 9,
            meta={codec.CORRELATION_KEY: 3},
        )

    def test_every_single_byte_corruption_is_detected(self):
        data = self._sample_frame()
        for offset in range(len(data)):
            corrupt = bytearray(data)
            corrupt[offset] ^= 0xFF
            with pytest.raises(codec.CodecError):
                codec.decode_request(bytes(corrupt))

    def test_every_offset_truncation_is_detected(self):
        data = self._sample_frame()
        for end in range(1, len(data)):
            with pytest.raises(codec.CodecError):
                codec.decode_request(data[:end])

    def test_trailing_garbage_is_detected(self):
        data = self._sample_frame()
        with pytest.raises(codec.CodecError):
            codec.decode_request(data + b"\x00")

    @given(protocol_messages, st.data())
    def test_fuzzed_corruption_never_misparses(self, message, data_strategy):
        """Randomized reinforcement of the deterministic sweep: any
        byte, any new value — decode raises or returns the original."""
        data = codec.encode_response(message, 2)
        offset = data_strategy.draw(
            st.integers(min_value=0, max_value=len(data) - 1)
        )
        value = data_strategy.draw(st.integers(min_value=0, max_value=255))
        corrupt = bytearray(data)
        corrupt[offset] = value
        try:
            rebuilt = codec.decode_response(bytes(corrupt))
        except (codec.CodecError, codec.RemoteCallError):
            return
        assert rebuilt == message  # the write happened to be a no-op


# ----------------------------------------------------------------------
# Telemetry field evolution: older peers and the growing RenewRequest
# ----------------------------------------------------------------------
class _LegacyRenewRequest:
    """The six-field RenewRequest an older peer still ships."""


class TestTelemetryFieldCompat:
    """``RenewRequest`` grew trailing telemetry fields; a peer built
    from the previous dataclass must keep decoding, with the telemetry
    defaulted."""

    TELEMETRY = {"rtt_seconds": 0.0, "retries": 0, "reconnects": 0}

    def _request(self, **overrides):
        fields = dict(slid=7, license_id="lic-tele", license_blob=b"\x01bl",
                      network_reliability=0.75, health=0.9, weight=2.0,
                      rtt_seconds=0.125, retries=3, reconnects=1)
        fields.update(overrides)
        return RenewRequest(**fields)

    @given(message=renew_requests)
    def test_v3_round_trip_preserves_telemetry(self, message):
        data = codec.encode_request("renew", message, request_id=1)
        _, rebuilt, _ = codec.decode_request(data)
        assert rebuilt == message

    def test_older_v3_peer_short_field_table_decodes_defaulted(self):
        """An older v3 peer's field table stops at ``weight``: the
        frame carries six packed values.  This side accepts the prefix
        and lets the dataclass defaults fill the telemetry tail."""
        import dataclasses as dc

        legacy = dc.make_dataclass(
            "RenewRequest",
            [("slid", int), ("license_id", str), ("license_blob", bytes),
             ("network_reliability", float), ("health", float),
             ("weight", float, dc.field(default=1.0))],
            namespace={"to_wire": lambda self: dc.asdict(self)},
        )
        message = self._request()
        old = legacy(slid=message.slid, license_id=message.license_id,
                     license_blob=message.license_blob,
                     network_reliability=message.network_reliability,
                     health=message.health, weight=message.weight)
        real = codec.MESSAGE_TYPES["RenewRequest"]
        try:
            codec.MESSAGE_TYPES["RenewRequest"] = legacy
            codec._FIELD_TABLES.pop("RenewRequest", None)
            data = codec.encode_request("renew", old, request_id=4)
        finally:
            codec.MESSAGE_TYPES["RenewRequest"] = real
            codec._FIELD_TABLES.pop("RenewRequest", None)
        _, rebuilt, _ = codec.decode_request(data)
        assert isinstance(rebuilt, RenewRequest)
        assert rebuilt == self._request(**self.TELEMETRY)

    def test_longer_field_table_than_ours_stays_fatal(self):
        """The reverse skew — a frame carrying *more* fields than this
        side knows — would silently drop peer data, so it raises."""
        import dataclasses as dc

        future = dc.make_dataclass(
            "RenewRequest",
            [(f.name, f.type) if f.default is dc.MISSING
             else (f.name, f.type, dc.field(default=f.default))
             for f in dc.fields(RenewRequest)]
            + [("congestion_window", int, dc.field(default=0))],
            namespace={"to_wire": lambda self: dc.asdict(self)},
        )
        message = self._request()
        new = future(**{f.name: getattr(message, f.name)
                        for f in dc.fields(RenewRequest)})
        real = codec.MESSAGE_TYPES["RenewRequest"]
        try:
            codec.MESSAGE_TYPES["RenewRequest"] = future
            codec._FIELD_TABLES.pop("RenewRequest", None)
            data = codec.encode_request("renew", new, request_id=4)
        finally:
            codec.MESSAGE_TYPES["RenewRequest"] = real
            codec._FIELD_TABLES.pop("RenewRequest", None)
        with pytest.raises(codec.CodecError, match="field table"):
            codec.decode_request(data)
