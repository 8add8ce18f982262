import math
import random
import socket
import struct
import sys
import threading
import time

import pytest
from hypothesis import example, given, settings

from fltestbed import values
from fltestbed.engine import FlConfig
from fltestbed.errors import (
    ConfigError,
    ParseError,
    ProtocolTimeout,
    SerializationError,
    TransportError,
    UsageError,
)
from fltestbed.transport import (
    Envelope,
    LoopbackHub,
    Phase,
    TcpTransport,
    decode_frame,
    encode_frame,
)
from fltestbed.values import dumps, loads

from conftest import alloc_base_port
from test_values import _exact, _lists, value_trees

GOLDEN_FRAME = b'\x00\x00\x009{"src":0,"dst":2,"phase":"CLI_DATA","iter":0,"payload":0}'


class TestWireFormat:
    def test_golden_frame(self):
        env = Envelope(src=0, dst=2, phase=Phase.CLI_DATA, iter=0, payload=0.0)
        assert encode_frame(env) == GOLDEN_FRAME
        assert decode_frame(GOLDEN_FRAME) == env

    def test_round_trip_payload_shapes(self):
        for payload in (0.0, [1.5], [[1.5], [2]], None, []):
            env = Envelope(src=1, dst=0, phase=Phase.DEC_P1, iter=3, payload=payload)
            assert decode_frame(encode_frame(env)) == env

    def test_length_prefix_is_big_endian(self):
        env = Envelope(src=0, dst=1, phase=Phase.SRV_DATA, iter=0, payload=None)
        frame = encode_frame(env)
        assert int.from_bytes(frame[:4], "big") == len(frame) - 4

    def test_decode_rejects_bad_length(self):
        with pytest.raises(ParseError):
            decode_frame(GOLDEN_FRAME[:-1])

    def test_decode_rejects_unknown_phase(self):
        body = b'{"src":0,"dst":2,"phase":"NOPE","iter":0,"payload":0}'
        with pytest.raises(ParseError):
            decode_frame(len(body).to_bytes(4, "big") + body)

    def test_decode_rejects_missing_keys(self):
        body = b'{"src":0,"dst":2,"phase":"CLI_DATA","iter":0}'
        with pytest.raises(ParseError):
            decode_frame(len(body).to_bytes(4, "big") + body)

    def test_decode_rejects_non_finite_payload(self):
        body = b'{"src":0,"dst":2,"phase":"CLI_DATA","iter":0,"payload":NaN}'
        with pytest.raises(ParseError):
            decode_frame(len(body).to_bytes(4, "big") + body)

    @pytest.mark.parametrize("body", [
        b'{"src": 0,"dst":2,"phase":"CLI_DATA","iter":0,"payload":0}',
        b'{"dst":2,"src":0,"phase":"CLI_DATA","iter":0,"payload":0}',
        b'{"src":01,"dst":2,"phase":"CLI_DATA","iter":0,"payload":0}',
        b'{"src":0,"dst":2,"phase":"CLI_DATA","iter":0,"payload":[1, 2]}',
        b'{"src":0,"dst":2,"phase":"CLI_DATA","iter":0,"payload":true}',
        b'{"src":0,"dst":2,"phase":"CLI_DATA","iter":0,"payload":0} ',
        b'{"src":0,"dst":2,"phase":"CLI_DATA","iter":' + b"1" * 5000 + b',"payload":0}',
    ], ids=["header-space", "key-order", "leading-zero", "payload-space", "payload-true",
            "trailing-byte", "huge-iter"])
    def test_decode_rejects_non_canonical_body(self, body):
        with pytest.raises(ParseError):
            decode_frame(len(body).to_bytes(4, "big") + body)

    def test_deep_nesting_is_a_parse_error(self):
        with pytest.raises(ParseError, match="nested too deeply"):
            loads("[" * 100_000 + "]" * 100_000)


def _leaves(v):
    if isinstance(v, list):
        for item in v:
            yield from _leaves(item)
    else:
        yield v


@settings(max_examples=300, deadline=None)
@given(value_trees)
def test_wire_hop_is_exact(payload):
    got = decode_frame(encode_frame(Envelope(1, 0, Phase.DEC_P2, 2, payload))).payload
    assert dumps(got) == dumps(payload)
    assert all(type(x) is float for x in _leaves(got))


@settings(max_examples=300, deadline=None)
@given(value_trees)
@example([1, [2**53 + 1, -0.0], 1e16, [[]]])
def test_loopback_delivery_is_a_canonical_copy(payload):
    # what a loopback receiver gets is what a TCP hop would give it, and
    # its lists are its own: floats are the only objects two nodes share
    hub = LoopbackHub(3, recv_timeout=1.0)
    nodes = hub.transports()
    sent = dumps(payload)
    want = dumps(loads(sent))
    nodes[0].broadcast([1, 2], Phase.DEC_P1, 0, payload)
    (a,) = nodes[1].recv_matching(Phase.DEC_P1, 0, (0,))
    (b,) = nodes[2].recv_matching(Phase.DEC_P1, 0, (0,))
    for got in (a.payload, b.payload):
        assert dumps(got) == want
        assert all(type(x) is float for x in _leaves(got))
    ids = [{id(x) for x in _lists(v)} for v in (payload, a.payload, b.payload)]
    assert not ids[0] & ids[1] and not ids[0] & ids[2] and not ids[1] & ids[2]
    for lst in list(_lists(a.payload)):
        lst.append(0.5)
    assert dumps(payload) == sent
    assert dumps(b.payload) == want


def test_loopback_broadcast_scans_a_flat_payload_once(monkeypatch):
    # the send-time validation's scan also picks the copy: no receiver rescans
    scans = []
    scan = values._is_float_list
    monkeypatch.setattr(values, "_is_float_list", lambda v: scans.append(v) or scan(v))
    nodes = LoopbackHub(4, recv_timeout=1.0).transports()
    payload = [i / 7 for i in range(1000)]
    nodes[0].broadcast([1, 2, 3], Phase.DEC_P1, 0, payload)
    assert len(scans) == 1
    got = [nodes[i].recv_matching(Phase.DEC_P1, 0, (0,))[0].payload for i in (1, 2, 3)]
    assert all(g == payload for g in got)
    assert len({id(payload), *map(id, got)}) == 4
    nested = [[1, -0.0], [2.5, 2**53 + 1], []]
    nodes[0].broadcast([1, 2, 3], Phase.DEC_P1, 1, nested)
    for i in (1, 2, 3):
        (env,) = nodes[i].recv_matching(Phase.DEC_P1, 1, (0,))
        assert _exact(env.payload) == _exact(loads(dumps(nested)))


class TestEnvelopeInvariants:
    def test_src_dst_must_differ(self):
        with pytest.raises(UsageError):
            Envelope(src=1, dst=1, phase=Phase.SRV_DATA, iter=0, payload=None)

    def test_negative_ids_rejected(self):
        with pytest.raises(UsageError):
            Envelope(src=-1, dst=1, phase=Phase.SRV_DATA, iter=0, payload=None)
        with pytest.raises(UsageError):
            Envelope(src=0, dst=1, phase=Phase.SRV_DATA, iter=-1, payload=None)

    def test_invalid_payload_rejected_at_send(self, kind):
        # an Envelope does not check its payload; sending it does, before any frame leaves
        nodes, close = _federation(kind, 2, recv_timeout=0.3)
        try:
            for bad in ([None], [1.0, float("nan")]):
                with pytest.raises(SerializationError):
                    nodes[0].send(Envelope(0, 1, Phase.CLI_DATA, 0, bad))
            nodes[0].send(Envelope(0, 1, Phase.CLI_DATA, 0, [1.0]))
            # a frame left by a rejected send would fail this receive as a duplicate
            (env,) = nodes[1].recv_matching(Phase.CLI_DATA, 0, (0,))
            assert env.payload == [1.0]
            # and the valid envelope arrived once
            with pytest.raises(ProtocolTimeout):
                nodes[1].recv_matching(Phase.CLI_DATA, 0, (0,))
        finally:
            close()


def _federation(kind: str, no_nodes: int, recv_timeout: float = 5.0):
    """Bound transports for every node, plus a close-all function."""
    if kind == "loopback":
        hub = LoopbackHub(no_nodes, recv_timeout=recv_timeout)
        transports = hub.transports()
    else:
        base = alloc_base_port(no_nodes)
        transports = [
            TcpTransport(FlConfig(no_nodes=no_nodes, node_id=i, base_port=base,
                                  recv_timeout=recv_timeout, connect_timeout=2.0))
            for i in range(no_nodes)
        ]

    def close_all():
        for t in transports:
            t.close()

    return transports, close_all


@pytest.fixture(params=["loopback", "tcp"])
def kind(request):
    return request.param


class TestTransportContract:
    def test_happy_path_delivery(self, kind):
        nodes, close = _federation(kind, 3)
        try:
            nodes[0].send(Envelope(0, 2, Phase.CLI_DATA, 0, 0.0))
            got = nodes[2].recv_matching(Phase.CLI_DATA, 0, (0,))
            assert [e.src for e in got] == [0]
            assert got[0].payload == 0.0
        finally:
            close()

    def test_result_sorted_by_src(self, kind):
        nodes, close = _federation(kind, 3)
        try:
            nodes[1].send(Envelope(1, 2, Phase.CLI_DATA, 0, [1.0]))
            nodes[0].send(Envelope(0, 2, Phase.CLI_DATA, 0, [0.5]))
            got = nodes[2].recv_matching(Phase.CLI_DATA, 0, (0, 1))
            assert [e.src for e in got] == [0, 1]
            assert [e.payload for e in got] == [[0.5], [1.0]]
        finally:
            close()

    def test_per_pair_fifo(self, kind):
        nodes, close = _federation(kind, 2)
        try:
            for k in range(5):
                nodes[0].send(Envelope(0, 1, Phase.DEC_P1, k, float(k)))
            for k in range(5):
                (env,) = nodes[1].recv_matching(Phase.DEC_P1, k, (0,))
                assert (env.src, env.iter, env.payload) == (0, k, float(k))
        finally:
            close()

    def test_other_keys_stay_queued(self, kind):
        nodes, close = _federation(kind, 3)
        try:
            nodes[0].send(Envelope(0, 2, Phase.DEC_P1, 0, 1.0))
            nodes[0].send(Envelope(0, 2, Phase.CLI_DATA, 0, 2.0))
            nodes[1].send(Envelope(1, 2, Phase.CLI_DATA, 0, 3.0))
            got = nodes[2].recv_matching(Phase.CLI_DATA, 0, (0, 1))
            assert [e.payload for e in got] == [2.0, 3.0]
            # the out-of-phase envelope was buffered, not dropped
            (leftover,) = nodes[2].recv_matching(Phase.DEC_P1, 0, (0,))
            assert leftover.payload == 1.0
        finally:
            close()

    def test_timeout_reports_missing_nodes(self, kind):
        nodes, close = _federation(kind, 3, recv_timeout=0.3)
        try:
            nodes[0].send(Envelope(0, 2, Phase.CLI_DATA, 0, 0.0))
            with pytest.raises(ProtocolTimeout) as exc:
                nodes[2].recv_matching(Phase.CLI_DATA, 0, (0, 1))
            assert exc.value.missing == (1,)
            assert exc.value.phase is Phase.CLI_DATA
            assert "missing nodes [1]" in str(exc.value)
        finally:
            close()

    def test_duplicate_sender_fails_the_receive(self, kind):
        nodes, close = _federation(kind, 3)
        try:
            nodes[1].send(Envelope(1, 0, Phase.CLI_DATA, 0, [1.0]))
            nodes[1].send(Envelope(1, 0, Phase.CLI_DATA, 0, [2.0]))
            nodes[2].send(Envelope(2, 0, Phase.CLI_DATA, 0, [3.0]))
            fault = "duplicate CLI_DATA envelope from node 1 at iteration 0"
            with pytest.raises(TransportError, match=fault):
                nodes[0].recv_matching(Phase.CLI_DATA, 0, (1, 2))
            # the fault is sticky: later receives on this node fail the same way
            with pytest.raises(TransportError, match=fault):
                nodes[0].recv_matching(Phase.CLI_DATA, 1, (1, 2))
        finally:
            close()

    def test_unexpected_sender_fails_the_receive(self, kind):
        nodes, close = _federation(kind, 3)
        try:
            nodes[2].send(Envelope(2, 1, Phase.SRV_DATA, 0, [1.0]))
            with pytest.raises(TransportError, match="SRV_DATA envelope from node 2 at iteration 0"):
                nodes[1].recv_matching(Phase.SRV_DATA, 0, (0,))
        finally:
            close()

    def test_timeout_reports_only_expected_senders(self, kind):
        nodes, close = _federation(kind, 3, recv_timeout=0.3)
        try:
            with pytest.raises(ProtocolTimeout) as exc:
                nodes[1].recv_matching(Phase.SRV_DATA, 0, (0,))
            assert exc.value.missing == (0,)
            assert "missing nodes [0]" in str(exc.value)
        finally:
            close()

    def test_expected_count_precondition(self, kind):
        nodes, close = _federation(kind, 2)
        try:
            with pytest.raises(UsageError):
                nodes[0].recv_matching(Phase.CLI_DATA, 0, ())
        finally:
            close()

    def test_signed_zero_and_float_type_survive_a_hop(self, kind):
        nodes, close = _federation(kind, 2)
        try:
            nodes[0].send(Envelope(0, 1, Phase.DEC_P2, 0, [-0.0, 2.0, [3.0]]))
            (env,) = nodes[1].recv_matching(Phase.DEC_P2, 0, (0,))
            assert env.payload == [0.0, 2.0, [3.0]]
            assert math.copysign(1, env.payload[0]) < 0
            assert all(type(x) is float for x in _leaves(env.payload))
        finally:
            close()

    def test_send_requires_own_src(self, kind):
        nodes, close = _federation(kind, 2)
        try:
            with pytest.raises(UsageError):
                nodes[0].send(Envelope(1, 0, Phase.CLI_DATA, 0, 0.0))
        finally:
            close()

    def test_no_loss_no_duplication_counters(self, kind):
        nodes, close = _federation(kind, 3)
        try:
            for k in range(4):
                nodes[0].send(Envelope(0, 1, Phase.DEC_P1, k, float(k)))
                nodes[2].send(Envelope(2, 1, Phase.DEC_P1, k, float(k)))
            for k in range(4):
                got = nodes[1].recv_matching(Phase.DEC_P1, k, (0, 2))
                assert [(e.src, e.payload) for e in got] == [(0, float(k)), (2, float(k))]
        finally:
            close()


class TestLoopbackMultiset:
    def test_sent_equals_delivered(self):
        # all 12 envelopes are delivered before any receive, so a lost one
        # times out a receive and a duplicate fails it
        hub = LoopbackHub(3, recv_timeout=1.0)
        nodes = hub.transports()
        for k in range(3):
            nodes[0].send(Envelope(0, 1, Phase.DEC_P1, k, [float(k)]))
            nodes[1].send(Envelope(1, 2, Phase.DEC_P2, k, [float(k)]))
            nodes[2].broadcast([0, 1], Phase.DEC_P1, k, [float(k)])
        for k in range(3):
            for dst, phase, senders in ((0, Phase.DEC_P1, (2,)), (1, Phase.DEC_P1, (0, 2)),
                                        (2, Phase.DEC_P2, (1,))):
                got = nodes[dst].recv_matching(phase, k, senders)
                assert [(e.src, e.dst, e.payload) for e in got] == \
                    [(src, dst, [float(k)]) for src in senders]


class TestLoopbackClosedNode:
    def test_send_to_closed_node_fails(self):
        # a node whose run raised has closed its transport; as over TCP, a
        # later send to it fails and names the node, phase and iteration
        hub = LoopbackHub(2, recv_timeout=1.0)
        nodes = hub.transports()
        nodes[0].close()
        with pytest.raises(TransportError,
                           match=r"send to node 0 failed \(CLI_DATA iteration 0\)"):
            nodes[1].send(Envelope(1, 0, Phase.CLI_DATA, 0, [1.0]))


class TestBroadcast:
    def test_frames_match_encode_frame(self):
        # peers 1 and 2 are raw sockets, so the test sees the exact wire bytes
        base = alloc_base_port(3)
        cfg = FlConfig(no_nodes=3, node_id=0, base_port=base, connect_timeout=2.0)
        listeners = []
        for dst in (1, 2):
            s = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            s.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            s.bind(("127.0.0.1", base + dst))
            s.listen(1)
            listeners.append(s)
        node = TcpTransport(cfg)
        payloads = [[2.0, -0.0, 1e16, 0.1], [[1.5], [2]], None, 123456789012345.0]
        try:
            for k, payload in enumerate(payloads):
                node.broadcast([1, 2], Phase.DEC_P1, k, payload)
            for dst, listener in zip((1, 2), listeners):
                conn, _ = listener.accept()
                with conn:
                    want = b"".join(
                        encode_frame(Envelope(0, dst, Phase.DEC_P1, k, p))
                        for k, p in enumerate(payloads)
                    )
                    conn.settimeout(5.0)
                    got = b""
                    while len(got) < len(want):
                        chunk = conn.recv(65536)
                        assert chunk, "peer closed early"
                        got += chunk
                    assert got == want
        finally:
            node.close()
            for s in listeners:
                s.close()

    def test_receivers_get_distinct_copies(self, kind):
        nodes, close = _federation(kind, 3)
        try:
            payload = [[1.5, 2.5], [3.0]]
            nodes[0].broadcast([1, 2], Phase.DEC_P1, 0, payload)
            (a,) = nodes[1].recv_matching(Phase.DEC_P1, 0, (0,))
            (b,) = nodes[2].recv_matching(Phase.DEC_P1, 0, (0,))
            assert a.payload == b.payload == payload
            assert a.payload is not b.payload
            assert a.payload[0] is not b.payload[0]
            assert a.payload is not payload
            assert (a.src, a.dst, b.src, b.dst) == (0, 1, 0, 2)
        finally:
            close()

    def test_invalid_destination_sends_nothing(self, kind):
        nodes, close = _federation(kind, 3)
        try:
            for dsts in ([1, 0], [1, 3], [1, -1], [1, True]):
                with pytest.raises(UsageError):
                    nodes[0].broadcast(dsts, Phase.DEC_P1, 0, [1.0])
            with pytest.raises(UsageError):
                nodes[0].broadcast([1], "DEC_P1", 0, [1.0])
            with pytest.raises(UsageError):
                nodes[0].broadcast([1], Phase.DEC_P1, -1, [1.0])
            with pytest.raises(SerializationError):
                nodes[0].broadcast([1, 2], Phase.DEC_P1, 0, [1.0, float("nan")])
            # a frame left by a rejected broadcast would fail these receives as a duplicate
            nodes[0].broadcast([1, 2], Phase.DEC_P1, 0, [2.0])
            for dst in (1, 2):
                (env,) = nodes[dst].recv_matching(Phase.DEC_P1, 0, (0,))
                assert env.payload == [2.0]
            nodes[0].close()
            with pytest.raises(UsageError):
                nodes[0].broadcast([1], Phase.DEC_P1, 0, [1.0])
        finally:
            close()


class TestTcpSpecifics:
    def test_concurrent_readers_count_every_frame(self):
        # four peers send at once while node 0 reads nothing; once it waits,
        # its select round must file every frame from every connection
        n, per_peer = 5, 200
        nodes, close = _federation("tcp", n, recv_timeout=20.0)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            def blast(src):
                for k in range(per_peer):
                    nodes[src].send(Envelope(src, 0, Phase.CLI_DATA, k, [float(k)]))

            senders = [threading.Thread(target=blast, args=(i,)) for i in range(1, n)]
            for t in senders:
                t.start()
            for t in senders:
                t.join(20.0)
                assert not t.is_alive()
            for k in range(per_peer):
                got = nodes[0].recv_matching(Phase.CLI_DATA, k, tuple(range(1, n)))
                assert [(e.src, e.payload) for e in got] == [(src, [float(k)]) for src in range(1, n)]
        finally:
            sys.setswitchinterval(interval)
            close()

    def test_port_scheme_additive(self):
        base = alloc_base_port(3)
        t = TcpTransport(FlConfig(no_nodes=3, node_id=2, base_port=base))
        try:
            assert t.port == base + 2
        finally:
            t.close()

    def test_bind_exclusivity(self):
        base = alloc_base_port(3)
        cfg = FlConfig(no_nodes=3, node_id=2, base_port=base)
        t1 = TcpTransport(cfg)
        try:
            with pytest.raises(TransportError):
                TcpTransport(cfg)
        finally:
            t1.close()

    def test_node_id_out_of_range(self):
        # the node's config cannot be built, so neither can its transport
        with pytest.raises(ConfigError):
            TcpTransport(FlConfig(no_nodes=3, node_id=5, base_port=alloc_base_port(3)))

    def test_close_releases_port(self):
        base = alloc_base_port(2)
        cfg = FlConfig(no_nodes=2, node_id=0, base_port=base)
        t = TcpTransport(cfg)
        t.close()
        t2 = TcpTransport(cfg)
        t2.close()

    def test_unreachable_destination(self):
        base = alloc_base_port(2)
        t = TcpTransport(FlConfig(no_nodes=2, node_id=0, base_port=base, connect_timeout=0.4))
        try:
            started = time.monotonic()
            with pytest.raises(TransportError) as exc:
                t.send(Envelope(0, 1, Phase.SRV_DATA, 0, 1.0))
            assert "node 1" in str(exc.value)
            assert "SRV_DATA" in str(exc.value)
            assert time.monotonic() - started < 3.0
        finally:
            t.close()

    def test_startup_race_tolerated(self):
        # sender connects while the destination binds a moment later
        base = alloc_base_port(2)
        t0 = TcpTransport(FlConfig(no_nodes=2, node_id=0, base_port=base, connect_timeout=3.0,
                                   recv_timeout=3.0))
        late: dict = {}

        def bind_late():
            time.sleep(0.3)
            late["t"] = TcpTransport(FlConfig(no_nodes=2, node_id=1, base_port=base,
                                              connect_timeout=3.0, recv_timeout=3.0))

        thread = threading.Thread(target=bind_late)
        thread.start()
        try:
            t0.send(Envelope(0, 1, Phase.SRV_DATA, 0, 42.0))
            thread.join()
            (env,) = late["t"].recv_matching(Phase.SRV_DATA, 0, (0,))
            assert env.payload == 42.0
        finally:
            thread.join()
            t0.close()
            if "t" in late:
                late["t"].close()


def _raw_peer(port: int, *frames: bytes) -> socket.socket:
    """A client socket connected to `port` that has written `frames`."""
    sock = socket.create_connection(("127.0.0.1", port), timeout=5.0)
    for frame in frames:
        sock.sendall(frame)
    return sock


class TestTcpReceivePaths:
    """Inbound paths of the select round: large frames, closes, bad bytes."""

    def _node(self, no_nodes=2, recv_timeout=5.0):
        return TcpTransport(FlConfig(no_nodes=no_nodes, node_id=0,
                                     base_port=alloc_base_port(no_nodes),
                                     recv_timeout=recv_timeout, connect_timeout=2.0))

    def test_crossing_large_frames_both_complete(self):
        # each frame is larger than the socket buffers, so neither send can
        # finish unless each node reads its inbound frame while it sends
        nodes, close = _federation("tcp", 2, recv_timeout=60.0)
        rng = random.Random(7)
        payloads = [[rng.random() for _ in range(500_000)] for _ in range(2)]
        got: dict = {}

        def exchange(i):
            try:
                nodes[i].send(Envelope(i, 1 - i, Phase.DEC_P1, 0, payloads[i]))
                (env,) = nodes[i].recv_matching(Phase.DEC_P1, 0, (1 - i,))
                got[i] = env.payload
            except Exception as e:
                got[i] = e

        threads = [threading.Thread(target=exchange, args=(i,), daemon=True) for i in (0, 1)]
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(60.0)
                assert not t.is_alive(), "crossing sends deadlocked"
            assert got[0] == payloads[1]
            assert got[1] == payloads[0]
        finally:
            close()

    def test_peer_closing_mid_frame_fails_receive(self):
        node = self._node()
        frame = encode_frame(Envelope(1, 0, Phase.CLI_DATA, 0, [1.5, 2.5]))
        try:
            _raw_peer(node.port, frame[:-3]).close()
            with pytest.raises(TransportError) as exc:
                node.recv_matching(Phase.CLI_DATA, 0, (1,))
            assert "peer closed mid-frame" in str(exc.value)
        finally:
            node.close()

    def test_malformed_frame_fails_with_parse_error(self):
        node = self._node()
        body = b'{"src":1,"dst":0,"phase":"CLI_DATA","iter":0,"payload":[1.5,]}'
        peer = _raw_peer(node.port, struct.pack("!I", len(body)) + body)
        try:
            with pytest.raises(TransportError) as exc:
                node.recv_matching(Phase.CLI_DATA, 0, (1,))
            assert isinstance(exc.value.__cause__, ParseError)
        finally:
            peer.close()
            node.close()

    def test_frame_for_another_node_fails_the_receive(self):
        node = self._node(no_nodes=3)
        peer = _raw_peer(node.port, encode_frame(Envelope(1, 2, Phase.CLI_DATA, 0, [1.5])))
        try:
            with pytest.raises(TransportError, match="frame for node 2 arrived at node 0"):
                node.recv_matching(Phase.CLI_DATA, 0, (1,))
        finally:
            peer.close()
            node.close()

    def test_deeply_nested_frame_fails_with_parse_error(self):
        node = self._node()
        body = (b'{"src":1,"dst":0,"phase":"CLI_DATA","iter":0,"payload":'
                + b"[" * 100_000 + b"]" * 100_000 + b"}")
        peers: list = []
        # the frame may exceed the socket buffers, so it is written while the node reads
        writer = threading.Thread(
            target=lambda: peers.append(_raw_peer(node.port, struct.pack("!I", len(body)) + body))
        )
        writer.start()
        try:
            with pytest.raises(TransportError) as exc:
                node.recv_matching(Phase.CLI_DATA, 0, (1,))
            assert isinstance(exc.value.__cause__, ParseError)
            assert "nested too deeply" in str(exc.value.__cause__)
        finally:
            writer.join(5.0)
            assert not writer.is_alive()
            for peer in peers:
                peer.close()
            node.close()

    def test_clean_close_at_frame_boundary_is_silent(self):
        node = self._node(recv_timeout=0.3)
        frame = encode_frame(Envelope(1, 0, Phase.CLI_DATA, 0, [1.5]))
        try:
            _raw_peer(node.port, frame).close()
            (env,) = node.recv_matching(Phase.CLI_DATA, 0, (1,))
            assert env.payload == [1.5]
            with pytest.raises(ProtocolTimeout) as exc:
                node.recv_matching(Phase.CLI_DATA, 1, (1,))
            assert exc.value.missing == (1,)
            assert "missing nodes [1]" in str(exc.value)
        finally:
            node.close()
