import gc
import math
import os
import random
import select
import socket
import struct
import sys
import threading
import time
import tracemalloc
import warnings

import pytest
from hypothesis import example, given, settings

from fltestbed import transport, values
from fltestbed.engine import CENTRALIZED, FlConfig
from fltestbed.errors import (
    ConfigError,
    ParseError,
    ProtocolTimeout,
    SerializationError,
    TransportError,
    UsageError,
)
from fltestbed.examples import EXAMPLES, Run, example_run, sim_centralized, sim_decentralized
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


def test_tcp_round_encodes_once_per_send_and_decodes_once_per_frame(monkeypatch):
    # one centralized round on 4 TCP node threads: 1 broadcast and 3
    # replies are 4 sends, carried by 6 frames
    calls: dict = {"dumps": [], "decode_body": [], "loads": []}

    def counted(name):
        fn = getattr(transport, name)

        def count(*args):
            calls[name].append(args)  # append is atomic across the node threads
            return fn(*args)

        return count

    for name in calls:
        monkeypatch.setattr(transport, name, counted(name))
    base = alloc_base_port(4)
    run = Run(CENTRALIZED, EXAMPLES[2].callbacks, [[float(i)] for i in range(4)],
              base_port=base, recv_timeout=10.0)
    results: list = [None] * 4

    def node(i):
        results[i] = run.run_node(i)

    threads = [threading.Thread(target=node, args=(i,)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(20.0)
        assert not t.is_alive()
    assert results == [[1.0], [0.5], [1.0], [1.5]]
    assert {name: len(args) for name, args in calls.items()} == \
        {"dumps": 4, "decode_body": 6, "loads": 6}


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


class _Id(int):
    """An int subclass: a valid id or iteration, though not an exact int."""


def _unchecked(src, dst, phase, iteration) -> Envelope:
    """An Envelope that skipped its own checks, so only a send checks it."""
    env = object.__new__(Envelope)
    for name, v in zip(("src", "dst", "phase", "iter", "payload"),
                       (src, dst, phase, iteration, [1.0])):
        object.__setattr__(env, name, v)
    return env


# Node 1 of 3 sends SRV_DATA iteration 0 to node 2, with one field replaced.
_HEADER = {"src": 1, "dst": 2, "phase": Phase.SRV_DATA, "iter": 0}
_BAD_FIELDS = [
    ({"dst": True}, "envelope dst must be a non-negative integer, got True"),
    ({"dst": -1}, "envelope dst must be a non-negative integer, got -1"),
    ({"dst": "2"}, "envelope dst must be a non-negative integer, got '2'"),
    ({"iter": False}, "envelope iter must be a non-negative integer, got False"),
    ({"iter": -1}, "envelope iter must be a non-negative integer, got -1"),
    ({"iter": "0"}, "envelope iter must be a non-negative integer, got '0'"),
    ({"dst": 1}, "envelope src and dst must differ, both are 1"),
    ({"phase": "SRV_DATA"}, "envelope phase must be a Phase, got 'SRV_DATA'"),
    # several bad fields: src, dst, iter, then src == dst, then phase
    ({"dst": -1, "iter": -1}, "envelope dst must be a non-negative integer, got -1"),
    ({"iter": -1, "phase": "X"}, "envelope iter must be a non-negative integer, got -1"),
    ({"dst": 1, "phase": "X"}, "envelope src and dst must differ, both are 1"),
]
_BAD_SRC = [
    ({"src": True}, "envelope src must be a non-negative integer, got True"),
    ({"src": -1}, "envelope src must be a non-negative integer, got -1"),
    ({"src": "1"}, "envelope src must be a non-negative integer, got '1'"),
    ({"src": True, "dst": -1}, "envelope src must be a non-negative integer, got True"),
]


class TestRouteTexts:
    """The UsageError each bad header field gives, wherever it is checked."""

    @pytest.mark.parametrize("fields,text", _BAD_FIELDS + _BAD_SRC)
    def test_envelope(self, fields, text):
        header = {**_HEADER, **fields}
        with pytest.raises(UsageError) as exc:
            Envelope(**header, payload=None)
        assert str(exc.value) == text

    @pytest.mark.parametrize("fields,text", _BAD_FIELDS + [
        # True == 1, so it passes as node 1's own id and fails as an id
        ({"src": True}, "envelope src must be a non-negative integer, got True"),
        ({"src": -1}, "envelope src -1 does not match sending node 1"),
        ({"src": "1"}, "envelope src 1 does not match sending node 1"),
        ({"dst": 3}, "envelope dst 3 out of range for 3 nodes"),
    ])
    def test_send(self, kind, fields, text):
        nodes, close = _federation(kind, 3, recv_timeout=0.05)
        try:
            header = {**_HEADER, **fields}
            with pytest.raises(UsageError) as exc:
                nodes[1].send(_unchecked(header["src"], header["dst"], header["phase"],
                                         header["iter"]))
            assert str(exc.value) == text
            with pytest.raises(ProtocolTimeout):  # and nothing was sent
                nodes[2].recv_matching(Phase.SRV_DATA, 0, (1,))
        finally:
            close()

    @pytest.mark.parametrize("dsts,fields,text", [
        ([fields.get("dst", 2)], fields, text) for fields, text in _BAD_FIELDS
    ] + [
        ([0, True], {}, "envelope dst must be a non-negative integer, got True"),
        ([0, 2, 1], {}, "envelope src and dst must differ, both are 1"),
        ([3, -1], {}, "envelope dst 3 out of range for 3 nodes"),
        ([0, 3], {"iter": -1}, "envelope iter must be a non-negative integer, got -1"),
        ([-1, 3], {"phase": "X"}, "envelope dst must be a non-negative integer, got -1"),
    ])
    def test_broadcast(self, kind, dsts, fields, text):
        nodes, close = _federation(kind, 3, recv_timeout=0.05)
        try:
            header = {**_HEADER, **fields}
            with pytest.raises(UsageError) as exc:
                nodes[1].broadcast(dsts, header["phase"], header["iter"], [1.0])
            assert str(exc.value) == text
            with pytest.raises(ProtocolTimeout):  # and nothing was sent
                nodes[2].recv_matching(Phase.SRV_DATA, 0, (1,))
        finally:
            close()

    def test_int_subclass_ids_are_accepted(self, kind):
        nodes, close = _federation(kind, 3)
        try:
            env = Envelope(_Id(1), _Id(2), Phase.SRV_DATA, _Id(0), [1.0])
            nodes[1].send(env)
            nodes[1].broadcast([_Id(0), 2], Phase.SRV_DATA, _Id(1), [2.0])
            nodes[1].broadcast([0, _Id(2)], Phase.SRV_DATA, 2, [3.0])
            got = [nodes[2].recv_matching(Phase.SRV_DATA, k, (1,))[0] for k in range(3)]
            assert [(e.src, e.dst, e.iter, e.payload) for e in got] == \
                [(1, 2, k, [k + 1.0]) for k in range(3)]
            got = [nodes[0].recv_matching(Phase.SRV_DATA, k, (1,))[0] for k in (1, 2)]
            assert [e.payload for e in got] == [[2.0], [3.0]]
        finally:
            close()

    def test_frame_from_a_node_to_itself_is_a_parse_error(self):
        body = b'{"src":2,"dst":2,"phase":"CLI_DATA","iter":0,"payload":0}'
        with pytest.raises(ParseError) as exc:
            decode_frame(len(body).to_bytes(4, "big") + body)
        assert str(exc.value) == \
            "invalid envelope fields: envelope src and dst must differ, both are 2"
        assert exc.value.offset is None

    @pytest.mark.parametrize("tag", [b"NOPE", b"srv_data", b"SRV_DATA_", b"DEC_P3"])
    def test_unknown_phase_tag_names_the_tag_and_its_offset(self, tag):
        body = b'{"src":0,"dst":2,"phase":"' + tag + b'","iter":0,"payload":0}'
        with pytest.raises(ParseError) as exc:
            decode_frame(len(body).to_bytes(4, "big") + body)
        assert str(exc.value) == f"unknown phase tag {tag.decode()!r} (byte offset 26)"
        assert exc.value.offset == body.index(tag) == 26


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


class TestLoopbackHub:
    def test_needs_two_nodes(self):
        with pytest.raises(UsageError, match="at least 2 nodes, got 1"):
            LoopbackHub(1)

    def test_transport_id_out_of_range(self):
        with pytest.raises(UsageError, match="node id 3 out of range for 3 nodes"):
            LoopbackHub(3).transport(3)

    def test_fail_ends_every_nodes_receives(self):
        hub = LoopbackHub(2, recv_timeout=30.0)
        nodes = hub.transports()
        hub.fail(RuntimeError("stopped"))
        for node in nodes:
            with pytest.raises(TransportError, match="^receive failed: stopped$"):
                node.recv_matching(Phase.DEC_P1, 0, (1 - node.node_id,))


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

    def test_closing_after_the_peer_leaves_no_time_wait_on_its_port(self):
        # Node 0 accepted node 1's connection and closes first, sending a FIN.
        # Node 1 sees it and resets instead of closing in turn, so node 0's
        # port keeps no TIME_WAIT entry: even a bind without SO_REUSEADDR
        # gets it back at once, as a port probe of a benchmark does.
        base = alloc_base_port(2)
        t0, t1 = (TcpTransport(FlConfig(no_nodes=2, node_id=i, base_port=base,
                                        recv_timeout=5.0)) for i in (0, 1))
        try:
            t1.send(Envelope(1, 0, Phase.CLI_DATA, 0, 1.0))
            t0.recv_matching(Phase.CLI_DATA, 0, (1,))
            t0.close()
            assert select.select([t1._out[0]], [], [], 5.0)[0]  # the FIN has arrived
        finally:
            t0.close()
            t1.close()
        with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
            probe.bind(("127.0.0.1", base))

    def test_a_closed_outbound_connection_keeps_no_listener_off_its_port(self):
        # Node 1 connects to node 0 and closes first; node 0 answers with its
        # own FIN, so node 1's end, on a port the OS picked, waits in
        # TIME_WAIT. That port may be another node's: its listener still binds.
        base = alloc_base_port(2)
        with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as node0:
            node0.bind(("127.0.0.1", base))
            node0.listen(1)
            t1 = TcpTransport(FlConfig(no_nodes=2, node_id=1, base_port=base))
            try:
                t1.send(Envelope(1, 0, Phase.CLI_DATA, 0, 1.0))
                port = t1._out[0].getsockname()[1]
                conn, _ = node0.accept()
            finally:
                t1.close()
            with conn:
                while conn.recv(65536):  # the frame, then node 1's FIN
                    pass
        if os.path.exists("/proc/net/tcp"):
            with open("/proc/net/tcp") as f:
                states = {line.split()[3] for line in f
                          if line.split()[1].endswith(":%04X" % port)}
            assert "06" in states  # TIME_WAIT
        transport.listen(3, port, 1).close()

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

    def test_refused_connect_to_a_peer_heard_from_fails_at_once(self):
        # node 1 sent to node 0 and then closed: no backoff until connect_timeout
        base = alloc_base_port(2)
        t0, t1 = (TcpTransport(FlConfig(no_nodes=2, node_id=i, base_port=base,
                                        connect_timeout=5.0, recv_timeout=5.0)) for i in (0, 1))
        try:
            t1.send(Envelope(1, 0, Phase.CLI_DATA, 0, 1.0))
            t0.recv_matching(Phase.CLI_DATA, 0, (1,))
            t1.close()
            started = time.monotonic()
            with pytest.raises(TransportError) as exc:
                t0.send(Envelope(0, 1, Phase.SRV_DATA, 1, 2.0))
            assert time.monotonic() - started < 1.0
            assert "node 1 unreachable" in str(exc.value)
            assert "SRV_DATA" in str(exc.value)
        finally:
            t0.close()
            t1.close()

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

    def test_frame_from_a_peer_mid_backoff_connects_at_once(self, monkeypatch):
        # Node 0 backs off against node 1, which binds only after 1.3 s, when
        # node 0 waits in a backoff step from about 1.02 s to 2.05 s (the cap is
        # raised so steps keep doubling). Node 1's first frame shows that it
        # has bound, so node 0 retries at once instead of waiting out the step.
        monkeypatch.setattr(transport, "_RETRY_MAX", 10.0)
        base = alloc_base_port(2)
        cfgs = [FlConfig(no_nodes=2, node_id=i, base_port=base, connect_timeout=20.0,
                         recv_timeout=20.0) for i in (0, 1)]
        t0 = TcpTransport(cfgs[0])
        late: dict = {}

        def bind_late_and_send():
            time.sleep(1.3)
            late["t"] = TcpTransport(cfgs[1])
            late["t"].send(Envelope(1, 0, Phase.CLI_DATA, 0, 1.0))
            late["sent"] = time.monotonic()

        thread = threading.Thread(target=bind_late_and_send)
        thread.start()
        try:
            t0.send(Envelope(0, 1, Phase.SRV_DATA, 0, 42.0))
            connected = time.monotonic()
            thread.join(20.0)
            assert not thread.is_alive()
            assert connected - late["sent"] < 0.4
            (env,) = t0.recv_matching(Phase.CLI_DATA, 0, (1,))
            assert env.payload == 1.0
            (env,) = late["t"].recv_matching(Phase.SRV_DATA, 0, (0,))
            assert env.payload == 42.0
        finally:
            thread.join(20.0)
            t0.close()
            if "t" in late:
                late["t"].close()


class TestTcpConnectMakesNoNameLookup:
    """Connects go to 127.0.0.1 on a plain socket: no getaddrinfo, and so no
    idna codec import in a forked node. Error texts are create_connection's."""

    @pytest.fixture(autouse=True)
    def no_name_lookup(self, monkeypatch):
        def lookup(*args, **kwargs):
            raise AssertionError("a name lookup on the TCP path")

        monkeypatch.setattr(socket, "getaddrinfo", lookup)
        monkeypatch.setattr(socket, "create_connection", lookup)

    @pytest.mark.parametrize("example", [2, 3])  # centralized, decentralized
    def test_federation_on_threads_matches_the_oracle(self, example):
        run = example_run(example, 3, no_iters=2, base_port=alloc_base_port(3), recv_timeout=10.0)
        results: list = [None] * 3

        def node(i):
            try:
                results[i] = run.run_node(i)
            except Exception as e:  # a name lookup among them
                results[i] = e

        threads = [threading.Thread(target=node, args=(i,)) for i in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(20.0)
            assert not t.is_alive()
        ldata, pdata = zip(*map(run.node_data, range(3)))
        if run.engine == CENTRALIZED:
            assert results == sim_centralized(ldata, pdata, run.fl_srv_id, run.callbacks, 2)
        else:
            assert results == sim_decentralized(ldata, pdata, run.callbacks, 2)

    def test_refused_until_the_connect_timeout(self):
        base = alloc_base_port(2)
        t = TcpTransport(FlConfig(no_nodes=2, node_id=0, base_port=base, connect_timeout=0.3))
        try:
            with pytest.raises(TransportError) as exc:
                t.send(Envelope(0, 1, Phase.SRV_DATA, 0, 1.0))
            assert str(exc.value) == (
                f"send to node 1 failed (SRV_DATA iteration 0): node 1 unreachable on port "
                f"{base + 1} after 0.3s: [Errno 111] Connection refused")
        finally:
            t.close()

    def test_connect_timed_out(self):
        # a listener that never accepts, its backlog full: the SYN goes unanswered
        base = alloc_base_port(2)
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", base + 1))
        listener.listen(0)
        filler = []
        try:
            for _ in range(4):
                filler.append(socket.socket(socket.AF_INET, socket.SOCK_STREAM))
                filler[-1].setblocking(False)
                filler[-1].connect_ex(("127.0.0.1", base + 1))
            t = TcpTransport(FlConfig(no_nodes=2, node_id=0, base_port=base, connect_timeout=0.3))
            try:
                with pytest.raises(TransportError) as exc:
                    t.send(Envelope(0, 1, Phase.SRV_DATA, 0, 1.0))
            finally:
                t.close()
        finally:
            for sock in (*filler, listener):
                sock.close()
        assert str(exc.value) == (
            f"send to node 1 failed (SRV_DATA iteration 0): node 1 unreachable on port "
            f"{base + 1} after 0.3s: timed out")

    def test_refused_after_heard(self):
        base = alloc_base_port(2)
        t0, t1 = (TcpTransport(FlConfig(no_nodes=2, node_id=i, base_port=base,
                                        connect_timeout=5.0, recv_timeout=5.0)) for i in (0, 1))
        try:
            t1.send(Envelope(1, 0, Phase.CLI_DATA, 0, 1.0))
            t0.recv_matching(Phase.CLI_DATA, 0, (1,))
            t1.close()
            with pytest.raises(TransportError) as exc:
                t0.send(Envelope(0, 1, Phase.SRV_DATA, 1, 2.0))
            assert str(exc.value) == (
                f"send to node 1 failed (SRV_DATA iteration 1): node 1 unreachable on port "
                f"{base + 1}: [Errno 111] Connection refused")
        finally:
            t0.close()
            t1.close()

    def test_a_failed_connect_leaves_no_socket_open(self):
        base = alloc_base_port(2)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            t = TcpTransport(FlConfig(no_nodes=2, node_id=0, base_port=base, connect_timeout=0.2))
            try:
                with pytest.raises(TransportError):
                    t.send(Envelope(0, 1, Phase.SRV_DATA, 0, 1.0))
            finally:
                t.close()
            gc.collect()
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


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

    def test_large_frame_is_held_once_while_it_is_read(self):
        # a 9.63 MB frame: appending each read to a bytearray, then slicing
        # and copying the payload, peaked at 55.5 MB; two copies of the
        # frame are 19.3 MB
        nodes, close = _federation("tcp", 2, recv_timeout=60.0)
        rng = random.Random(7)
        payload = [rng.random() for _ in range(500_000)]
        env = Envelope(1, 0, Phase.DEC_P1, 0, payload)
        assert len(encode_frame(env)) > 9.6e6
        tracemalloc.start()
        try:
            sender = threading.Thread(target=nodes[1].send, args=(env,))
            sender.start()
            (got,) = nodes[0].recv_matching(Phase.DEC_P1, 0, (1,))
            sender.join(60.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            close()
        assert not sender.is_alive()
        assert got.payload == payload
        assert peak < 55.5e6 - 15e6

    def test_length_prefix_over_the_limit_fails_the_receive(self):
        # no buffer of the announced length is allocated for it
        node = self._node()
        peer = _raw_peer(node.port, struct.pack("!I", transport._MAX_FRAME + 1) + b"{")
        try:
            with pytest.raises(TransportError, match="over the 268435456-byte limit"):
                node.recv_matching(Phase.CLI_DATA, 0, (1,))
        finally:
            peer.close()
            node.close()

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


class TestTcpReassembly:
    """Frames a raw peer writes in pieces are filed whole, in wire order, once each."""

    PAYLOAD = [0.1, -0.0, 1e16, [2.5, []], 3]

    def _receive(self, chunks, iterations):
        """Write `chunks` to a node, pausing between them, and receive each iteration."""
        node = TcpTransport(FlConfig(no_nodes=2, node_id=0, base_port=alloc_base_port(2),
                                     recv_timeout=5.0, connect_timeout=2.0))
        filed = []
        put = node._buffer.put
        node._buffer.put = lambda env: (filed.append(env.iter), put(env))
        peer = socket.create_connection(("127.0.0.1", node.port), timeout=5.0)
        peer.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

        def write():
            for chunk in chunks:
                peer.sendall(chunk)
                time.sleep(0.001)  # so the node reads most chunks on their own

        writer = threading.Thread(target=write)
        writer.start()
        try:
            got = [node.recv_matching(Phase.CLI_DATA, k, (1,))[0] for k in iterations]
        finally:
            writer.join(10.0)
            peer.close()
            node.close()
        assert filed == list(iterations)
        want = dumps(loads(dumps(self.PAYLOAD)))
        for k, env in zip(iterations, got):
            assert (env.src, env.dst, env.phase, env.iter) == (1, 0, Phase.CLI_DATA, k)
            assert dumps(env.payload) == want

    def _frame(self, k):
        return encode_frame(Envelope(1, 0, Phase.CLI_DATA, k, self.PAYLOAD))

    def test_frame_split_at_every_byte_offset(self):
        # frame k is cut after its first k bytes: inside the length prefix,
        # inside the header, inside the payload, before the closing brace
        cuts = range(1, len(self._frame(1)))
        chunks = [piece for k in cuts for piece in (self._frame(k)[:k], self._frame(k)[k:])]
        self._receive(chunks, cuts)

    def test_several_frames_in_one_write(self):
        self._receive([b"".join(self._frame(k) for k in range(10))], range(10))

    def test_whole_frame_then_half_of_the_next(self):
        frames = [self._frame(k) for k in range(4)]
        half = len(frames[1]) // 2
        chunks = [frames[0] + frames[1][:half],
                  frames[1][half:] + frames[2] + frames[3][:3],
                  frames[3][3:]]
        self._receive(chunks, range(4))


@pytest.mark.parametrize("seconds", [math.nan, math.inf, -math.inf, 0.0])
def test_loopback_hub_rejects_a_timeout_that_is_not_positive_and_finite(seconds):
    # a nan wait never ends and an inf one overflows the clock
    with pytest.raises(ConfigError) as exc:
        LoopbackHub(2, recv_timeout=seconds)
    assert str(exc.value) == ("recv_timeout must be positive" if seconds <= 0 else
                              f"recv_timeout must be finite, got {seconds}")
