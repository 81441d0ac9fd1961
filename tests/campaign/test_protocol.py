"""Protocol codec and framing properties (hypothesis).

The coordinator/worker wire is only as trustworthy as its codec: every
message type must survive a round trip bit-for-bit, every malformed
input must fail with the typed :class:`ProtocolError` (never a raw
``KeyError``/``UnicodeDecodeError`` leaking decoder internals, and
never a ``pickle.loads`` of untrusted bytes), and frame reassembly must
be invariant under arbitrary TCP chunking — the property that makes
socket segmentation invisible to the protocol layer.  The coordinator's
endpoint serves every connection from the thread that polls it, so one
stalled or hostile peer must hold back only itself.
"""

import inspect
import json
import socket
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.campaign.protocol as protocol
from repro.campaign.protocol import (
    MAX_FRAME_BYTES,
    MESSAGE_TYPES,
    PROTOCOL_VERSION,
    FrameDecoder,
    Heartbeat,
    JobReport,
    JobRequest,
    NewJob,
    NoWorkLeft,
    ProtocolError,
    SocketEndpoint,
    SocketWorkerChannel,
    decode_message,
    encode_message,
    frame,
)

# -- strategies ---------------------------------------------------------------

finite = st.floats(allow_nan=False, allow_infinity=False, width=32)
short_text = st.text(max_size=40)
json_scalar = st.one_of(
    st.none(), st.booleans(), st.integers(min_value=-10**9, max_value=10**9),
    finite, short_text,
)
payloads = st.dictionaries(
    short_text,
    st.one_of(json_scalar, st.lists(json_scalar, max_size=4)),
    max_size=6,
)

messages = st.one_of(
    st.builds(JobRequest, worker=short_text),
    st.builds(
        NewJob,
        run_hash=short_text,
        payload=payloads,
        campaign=short_text,
        store_root=short_text,
        lease_timeout=finite,
        timeout=finite,
        collective_timeout=finite,
        members=st.lists(payloads, max_size=3),
    ),
    st.builds(NoWorkLeft, reason=short_text),
    st.builds(Heartbeat, worker=short_text, run_hash=short_text),
    st.builds(
        JobReport,
        worker=short_text,
        run_hash=short_text,
        status=st.sampled_from(["completed", "failed"]),
        elapsed=finite,
        resumed_from_step=st.integers(min_value=0, max_value=10**6),
        error=short_text,
    ),
)


# -- codec --------------------------------------------------------------------


class TestCodec:
    @settings(max_examples=200)
    @given(msg=messages)
    def test_round_trip_every_message_type(self, msg):
        assert decode_message(encode_message(msg)) == msg

    @settings(max_examples=200)
    @given(data=st.binary(max_size=256))
    def test_arbitrary_bytes_decode_or_typed_error(self, data):
        """Garbage in → ProtocolError out, never any other exception."""
        try:
            msg = decode_message(data)
        except ProtocolError:
            return
        assert type(msg).TYPE in MESSAGE_TYPES

    @settings(max_examples=100)
    @given(msg=messages, cut=st.integers(min_value=0, max_value=200))
    def test_truncated_codec_bytes_rejected(self, msg, cut):
        data = encode_message(msg)
        truncated = data[: min(cut, len(data) - 1)]
        with pytest.raises(ProtocolError):
            decode_message(truncated)

    def test_version_mismatch_rejected(self):
        doc = json.loads(encode_message(JobRequest(worker="w")))
        doc["v"] = PROTOCOL_VERSION + 1
        with pytest.raises(ProtocolError, match="version"):
            decode_message(json.dumps(doc).encode())

    def test_v1_frame_rejected(self):
        """A v1 peer would ignore a fleet's ``members`` and run one spec:
        its frames are refused, not mis-parsed."""
        assert PROTOCOL_VERSION == 3
        job = NewJob(run_hash="h", payload={}, campaign="c", store_root="r",
                     lease_timeout=1.0, members=[{"a": 1}, {"a": 2}])
        doc = json.loads(encode_message(job))
        doc["v"] = 1
        with pytest.raises(ProtocolError, match="version"):
            decode_message(json.dumps(doc).encode())

    def test_v2_frame_rejected(self):
        """A v2 peer reports ``job-done`` / ``job-failed``, which v3 folded
        into ``job-report``: its frames are refused, not mis-parsed."""
        for doc in (
            {"v": 2, "type": "job-done", "worker": "w", "run_hash": "h"},
            {"v": 2, "type": "job-request", "worker": "w"},
        ):
            with pytest.raises(ProtocolError, match="version"):
                decode_message(json.dumps(doc).encode())

    def test_report_status_is_terminal(self):
        """A report names a terminal state: anything else is a protocol
        violation, also when it arrives as a frame."""
        doc = json.loads(encode_message(
            JobReport(worker="w", run_hash="h", status="completed")
        ))
        doc["status"] = "running"
        with pytest.raises(ProtocolError, match="status"):
            decode_message(json.dumps(doc).encode())
        with pytest.raises(ProtocolError, match="status"):
            JobReport(worker="w", run_hash="h", status="running")

    def test_unknown_type_rejected(self):
        doc = {"v": PROTOCOL_VERSION, "type": "launch-missiles"}
        with pytest.raises(ProtocolError, match="unknown message type"):
            decode_message(json.dumps(doc).encode())

    def test_missing_required_field_rejected(self):
        doc = {"v": PROTOCOL_VERSION, "type": "heartbeat", "worker": "w"}
        with pytest.raises(ProtocolError, match="run_hash"):
            decode_message(json.dumps(doc).encode())

    @pytest.mark.parametrize("field,value", [
        ("worker", 3), ("worker", None), ("run_hash", ["x"]),
        ("elapsed", "fast"), ("elapsed", True), ("resumed_from_step", 0.5),
    ])
    def test_wrong_field_shape_rejected(self, field, value):
        doc = json.loads(encode_message(
            JobReport(worker="w", run_hash="h", status="failed", elapsed=1.0)
        ))
        doc[field] = value
        with pytest.raises(ProtocolError, match=field):
            decode_message(json.dumps(doc).encode())

    def test_unknown_extra_keys_ignored(self):
        """Forward compatibility: a newer minor revision may add keys."""
        doc = json.loads(encode_message(NoWorkLeft()))
        doc["shiny_new_field"] = 42
        assert decode_message(json.dumps(doc).encode()) == NoWorkLeft()

    def test_non_message_rejected_on_encode(self):
        with pytest.raises(ProtocolError):
            encode_message({"type": "job-request", "worker": "w"})

    def test_no_pickle_anywhere(self):
        """The wire never unpickles: frames arrive from a network socket
        and ``pickle.loads`` of untrusted bytes is arbitrary code
        execution."""
        source = inspect.getsource(protocol)
        assert "import pickle" not in source
        assert "pickle.loads" not in source
        assert "pickle.load" not in source


# -- framing ------------------------------------------------------------------


class TestFraming:
    @settings(max_examples=100)
    @given(
        msgs=st.lists(messages, max_size=6),
        data=st.data(),
    )
    def test_chunking_invariance(self, msgs, data):
        """Any split of the same byte stream yields the same frames."""
        stream = b"".join(frame(encode_message(m)) for m in msgs)
        cuts = sorted(
            data.draw(
                st.lists(
                    st.integers(min_value=0, max_value=len(stream)),
                    max_size=16,
                )
            )
        )
        decoder = FrameDecoder()
        frames = []
        prev = 0
        for cut in cuts + [len(stream)]:
            frames.extend(decoder.feed(stream[prev:cut]))
            prev = cut
        decoder.finish()
        assert [decode_message(f) for f in frames] == msgs

    @settings(max_examples=100)
    @given(msgs=st.lists(messages, min_size=1, max_size=4))
    def test_truncated_stream_is_an_error_not_a_silent_drop(self, msgs):
        stream = b"".join(frame(encode_message(m)) for m in msgs)
        decoder = FrameDecoder()
        decoder.feed(stream[:-1])
        with pytest.raises(ProtocolError, match="truncated"):
            decoder.finish()

    def test_oversized_length_prefix_rejected_before_allocation(self):
        decoder = FrameDecoder()
        hostile = (MAX_FRAME_BYTES + 1).to_bytes(4, "big")
        with pytest.raises(ProtocolError, match="MAX_FRAME_BYTES"):
            decoder.feed(hostile)

    def test_oversized_payload_rejected_on_frame(self):
        with pytest.raises(ProtocolError, match="MAX_FRAME_BYTES"):
            frame(b"x" * (MAX_FRAME_BYTES + 1))

    def test_clean_stream_finishes(self):
        decoder = FrameDecoder()
        frames = decoder.feed(
            frame(encode_message(NoWorkLeft()))
            + frame(encode_message(JobRequest("w")))
        )
        decoder.finish()
        assert [decode_message(f) for f in frames] == [
            NoWorkLeft(), JobRequest("w"),
        ]


# -- coordinator endpoint -----------------------------------------------------


def poll_until(endpoint, done, timeout=10.0):
    """Poll ``endpoint`` until ``done(messages so far)``; returns them."""
    got = []
    deadline = time.monotonic() + timeout
    while not done(got):
        assert time.monotonic() < deadline, f"endpoint stuck after {got}"
        got.extend(endpoint.poll(0.05))
    return got


def answer_one_request(endpoint, channel, worker):
    """``channel`` asks for work and is answered: the endpoint is
    serving it."""
    channel.send(JobRequest(worker))
    ((conn_id, msg),) = poll_until(endpoint, bool)
    assert msg == JobRequest(worker)
    assert endpoint.send(conn_id, NoWorkLeft())
    assert channel.recv(5.0) == NoWorkLeft()
    return conn_id


class TestEndpoint:
    def test_stalled_peer_does_not_block_another(self):
        """Half a frame is buffered, not waited for: a second connection
        is served meanwhile, and the stalled frame completes later."""
        endpoint = SocketEndpoint()
        stalled = socket.create_connection(endpoint.address)
        channel = SocketWorkerChannel(*endpoint.address)
        try:
            data = frame(encode_message(JobRequest("stalled")))
            stalled.sendall(data[: len(data) // 2])
            # The endpoint accepts the stalled peer and reads its half.
            poll_until(endpoint, lambda _: len(endpoint.connections()) == 2)
            assert endpoint.poll(0.1) == []
            answer_one_request(endpoint, channel, "w")
            stalled.sendall(data[len(data) // 2:])
            ((_, msg),) = poll_until(endpoint, bool)
            assert msg == JobRequest("stalled")
        finally:
            stalled.close()
            channel.close()
            endpoint.close()

    @pytest.mark.parametrize("garbage,hang_up", [
        (frame(b"not json at all"), False),
        ((MAX_FRAME_BYTES + 1).to_bytes(4, "big"), False),
        (frame(encode_message(JobRequest("x")))[:-1], True),  # mid-frame EOF
    ])
    def test_garbage_drops_only_its_connection(
        self, garbage, hang_up, campaign_log
    ):
        endpoint = SocketEndpoint()
        hostile = socket.create_connection(endpoint.address)
        channel = SocketWorkerChannel(*endpoint.address)
        try:
            hostile.sendall(garbage)
            if hang_up:
                hostile.shutdown(socket.SHUT_WR)
            conn_id = answer_one_request(endpoint, channel, "w")
            poll_until(endpoint, lambda _: endpoint.connections() == [conn_id])
            assert "dropping connection" in campaign_log.text
            answer_one_request(endpoint, channel, "w")  # still served
        finally:
            hostile.close()
            channel.close()
            endpoint.close()

    def test_starts_no_thread(self):
        """Building, accepting on, polling and closing an endpoint runs
        on the caller's thread alone."""
        before = set(threading.enumerate())
        endpoint = SocketEndpoint()
        channel = SocketWorkerChannel(*endpoint.address)
        answer_one_request(endpoint, channel, "w")
        assert not set(threading.enumerate()) - before
        channel.close()
        endpoint.close()
        assert not set(threading.enumerate()) - before
