"""Message transport between node processes.

TcpTransport reads the node's engine.FlConfig, which has already checked
the port range and the timeouts; node i listens on 127.0.0.1:base_port+i.
A frame on the wire is a 4-byte big-endian length followed by exactly that
many body bytes; the body is a text object with keys src, dst, phase,
iter, payload in that fixed order and no whitespace, payload in canonical
value form. The decoder accepts only that header and parses the payload
with values.loads, the parser of RESULT lines, so a hop returns exactly the
payload that was sent. A frame split across reads is read into one buffer
of its announced length, so a large frame is held once, not chunk by chunk;
a length over _MAX_FRAME (256 MiB) counts as malformed. A TCP frame that is
malformed, or addressed to another node, drops its connection and fails
the node's receive. A receive names its expected senders and takes
exactly one envelope from each; messages that do not match the (phase,
iteration) a node is currently waiting for stay buffered, never dropped.

Both transports share one send path: the route checks, one validation of
the payload, then one delivery per destination. Only what crosses differs.
Over TCP a broadcast encodes its payload once and puts a per-peer header in
front of the same bytes. The in-process loopback transport hands each
receiver a canonical copy of the payload, which equals what a TCP hop
returns (fresh lists, every number a float) without the text in between.
The send-time validation also picks how that copy is made: a flat list
of exact floats costs one list copy per receiver, any other payload goes
through values.canonical_copy. No two nodes share a list; floats, being
immutable, may be shared. The protocol tests run against both transports,
but an in-process run does not exercise the wire codec: the golden frame,
the codec's own tests and every TCP or process run do. On both, a send to
a node whose transport is closed fails with a TransportError naming the
node, the phase and the iteration (over TCP, once the sender sees the
refused connect or reset).
"""

from __future__ import annotations

import enum
import functools
import math
import re
import selectors
import socket
import struct
import threading
import time
from collections import defaultdict
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import ConfigError, ParseError, ProtocolTimeout, TransportError, UsageError
from .values import Value, canonical_copy, dumps, loads, validate_value

if TYPE_CHECKING:
    from .engine import FlConfig


class Phase(enum.Enum):
    """Protocol phase tags; values are the on-wire names.

    Members hash by identity, in C, not by Enum's Python-level hash of the
    name: every message hashes its (phase, iteration) buffer key.
    """

    SRV_DATA = "SRV_DATA"  # server broadcast to clients (centralized)
    CLI_DATA = "CLI_DATA"  # client reply to server (centralized)
    DEC_P1 = "DEC_P1"      # all-to-all broadcast (decentralized phase I)
    DEC_P2 = "DEC_P2"      # per-peer reply (decentralized phase II)

    __hash__ = object.__hash__


# Each phase's tag as frame bytes, and the phase of each tag.
_TAG = {phase: phase.value.encode("ascii") for phase in Phase}
_PHASE_OF_TAG = {tag: phase for phase, tag in _TAG.items()}


def _check_route(src: int, dst: int, phase: Phase, iteration: int) -> None:
    """Raise UsageError unless these are valid envelope header fields."""
    # One test passes every valid header of exact ints (the OR of ints is
    # negative iff one of them is); anything else takes the named checks.
    if (type(src) is type(dst) is type(iteration) is int and (src | dst | iteration) >= 0
            and src != dst and type(phase) is Phase):
        return
    for name, v in (("src", src), ("dst", dst), ("iter", iteration)):
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            raise UsageError(f"envelope {name} must be a non-negative integer, got {v!r}")
    if src == dst:
        raise UsageError(f"envelope src and dst must differ, both are {src}")
    if not isinstance(phase, Phase):
        raise UsageError(f"envelope phase must be a Phase, got {phase!r}")


@dataclass(frozen=True)
class Envelope:
    """Routing record for one message; its payload is checked when it is sent or encoded."""

    src: int
    dst: int
    phase: Phase
    iter: int
    payload: Value

    def __post_init__(self):
        _check_route(self.src, self.dst, self.phase, self.iter)


# Default seconds to wait for a peer to accept a connection, and for the
# messages of one receive to arrive.
CONNECT_TIMEOUT = 5.0
RECV_TIMEOUT = 30.0


def check_timeout(name: str, seconds: float) -> None:
    """A timeout is a positive, finite number of seconds; `name` leads the error text."""
    if not isinstance(seconds, (int, float)) or isinstance(seconds, bool):
        raise ConfigError(f"{name} must be a number of seconds, got {seconds!r}")
    if seconds <= 0:
        raise ConfigError(f"{name} must be positive")
    if not math.isfinite(seconds):
        raise ConfigError(f"{name} must be finite, got {seconds}")


_LENGTH = struct.Struct("!I")
# Bytes read per ready socket and select round. Larger reads cost more than
# they save: recv allocates the full chunk on every call.
_RECV_CHUNK = 64 * 1024
# Longest frame body a receiver allocates a buffer for: about 13 million
# numbers. A longer length prefix is garbage, not a frame to wait for.
_MAX_FRAME = 256 * 1024 * 1024
# Longest wait between connect attempts; the backoff starts at 1 ms.
_RETRY_MAX = 0.1
_RESET = struct.pack("ii", 1, 0)  # SO_LINGER on for 0 s: close sends a reset, not a FIN
# The header _frame writes: canonical key order, no whitespace, no leading zeros.
_HEADER = re.compile(
    rb'\{"src":(0|[1-9][0-9]*),"dst":(0|[1-9][0-9]*),"phase":"(\w+)",'
    rb'"iter":(0|[1-9][0-9]*),"payload":'
)


def encode_frame(env: Envelope) -> bytes:
    """Full wire frame (length prefix + body) for one envelope."""
    return _frame(env.src, env.dst, env.phase, env.iter, dumps(env.payload).encode("ascii"))


def _frame(src: int, dst: int, phase: Phase, iteration: int, payload: bytes) -> bytes:
    """Wire frame around a payload that is already in canonical text."""
    head = b'{"src":%d,"dst":%d,"phase":"%s","iter":%d,"payload":' % (
        src, dst, _TAG[phase], iteration
    )
    return b"".join((_LENGTH.pack(len(head) + len(payload) + 1), head, payload, b"}"))


def decode_body(body: bytes) -> Envelope:
    """Parse one frame body back into an Envelope."""
    m = _HEADER.match(body)
    if m is None:
        raise ParseError("frame header is not src,dst,phase,iter,payload in canonical form", 0)
    if not body.endswith(b"}"):
        raise ParseError("frame body does not end with '}'", len(body) - 1)
    phase = _PHASE_OF_TAG.get(bytes(m[3]))  # bytes(): a bytearray body's group is unhashable
    if phase is None:
        raise ParseError(f"unknown phase tag {m[3].decode('ascii')!r}", m.start(3))
    payload = loads(memoryview(body)[m.end():-1])  # the one payload validation on receipt
    try:
        return Envelope(int(m[1]), int(m[2]), phase, int(m[4]), payload)
    except (UsageError, ValueError) as e:  # ValueError: an int past Python's digit limit
        raise ParseError(f"invalid envelope fields: {e}") from None


def decode_frame(frame: bytes) -> Envelope:
    """Parse a complete frame, checking the length prefix."""
    if len(frame) < 4:
        raise ParseError("frame shorter than its 4-byte length prefix", 0)
    (length,) = _LENGTH.unpack_from(frame)
    if len(frame) - 4 != length:
        raise ParseError(f"length prefix says {length} body bytes, frame has {len(frame) - 4}", 0)
    return decode_body(frame[4:])


class _MessageBuffer:
    """Store of received envelopes keyed by (phase, iteration), then by sender.

    take() blocks through `wait(seconds)`: by default the condition
    variable that put() notifies, which suits senders on other threads;
    TcpTransport passes its select round, which reads the node's sockets on
    the waiting thread, so nothing waits on the condition and put() does
    not notify. The lock is reentrant, so a wait that calls put() from
    inside take() is safe.
    """

    def __init__(self, wait: Callable[[float], object] | None = None):
        self._lock = threading.RLock()
        if wait is None:
            cond = threading.Condition(self._lock)
            self._wait, self._notify = cond.wait, cond.notify_all
        else:
            self._wait, self._notify = wait, None
        self._buckets: dict[tuple[Phase, int], dict[int, Envelope]] = defaultdict(dict)
        self._error: Exception | None = None

    def put(self, env: Envelope) -> None:
        with self._lock:
            bucket = self._buckets[(env.phase, env.iter)]
            if env.src in bucket:  # poisons pending and later receives, as a bad frame does
                self._error = TransportError(
                    f"duplicate {env.phase.value} envelope from node {env.src} "
                    f"at iteration {env.iter}"
                )
            bucket[env.src] = env
            if self._notify is not None:
                self._notify()

    def fail(self, exc: Exception) -> None:
        with self._lock:
            self._error = exc
            if self._notify is not None:
                self._notify()

    def take(
        self, phase: Phase, iteration: int, senders: tuple[int, ...], timeout: float
    ) -> list[Envelope]:
        """One envelope from each of `senders`, in that order."""
        if not senders:
            raise UsageError("a receive must name at least one sender")
        deadline = None  # set on the first wait
        key = (phase, iteration)
        with self._lock:
            while True:
                if self._error is not None:
                    raise TransportError(f"receive failed: {self._error}") from self._error
                bucket = self._buckets.get(key, {})
                if len(bucket) >= len(senders):
                    stray = bucket.keys() - senders
                    if stray:
                        raise TransportError(
                            f"unexpected {phase.value} envelope from node {min(stray)} "
                            f"at iteration {iteration}, expected nodes {list(senders)}"
                        )
                    del self._buckets[key]
                    return [bucket[src] for src in senders]
                now = time.monotonic()
                if deadline is None:
                    deadline = now + timeout
                remaining = deadline - now
                if remaining <= 0:
                    missing = [src for src in senders if src not in bucket]
                    raise ProtocolTimeout(
                        f"timeout after {timeout}s waiting for {len(senders)} "
                        f"{phase.value} envelope(s) at iteration {iteration}: "
                        f"received {len(bucket)} from nodes {list(bucket)}, "
                        f"missing nodes {missing}",
                        phase=phase,
                        iteration=iteration,
                        missing=missing,
                    )
                self._wait(remaining)


class _Transport:
    """Send and receive surface shared by TcpTransport and LoopbackTransport.

    A handle belongs to one protocol loop: send/broadcast/recv_matching are
    called from a single logical thread. Subclasses supply _pack, which
    validates a payload once per send and returns what every destination
    is handed: over TCP the canonical text; on loopback a copier that the
    same validation picked, so a flat float list costs one list copy per
    receiver. _deliver moves it to one destination or raises OSError or
    TransportError; _send words either as a failed send.
    """

    def __init__(self, node_id: int, no_nodes: int, recv_timeout: float, buffer: _MessageBuffer):
        self.node_id = node_id
        self.no_nodes = no_nodes
        self.recv_timeout = recv_timeout
        self._buffer = buffer
        self._closed = False

    def send(self, env: Envelope) -> None:
        self._send(env.src, (env.dst,), env.phase, env.iter, env.payload)

    def broadcast(self, dsts: Iterable[int], phase: Phase, iteration: int, payload: Value) -> None:
        """Send one payload to every node in dsts, validating it once.

        Over TCP it is encoded once, and each frame is byte-identical to
        encode_frame of the matching Envelope.
        """
        self._send(self.node_id, tuple(dsts), phase, iteration, payload)

    def _send(
        self, src: int, dsts: tuple[int, ...], phase: Phase, iteration: int, payload: Value
    ) -> None:
        if self._closed:
            raise UsageError("transport is closed")
        if src != self.node_id:
            raise UsageError(f"envelope src {src} does not match sending node {self.node_id}")
        for dst in dsts:  # every route is checked before anything is delivered
            _check_route(src, dst, phase, iteration)
            if dst >= self.no_nodes:
                raise UsageError(f"envelope dst {dst} out of range for {self.no_nodes} nodes")
        packed = self._pack(payload)  # the one validation of the payload
        for dst in dsts:
            try:
                self._deliver(dst, phase, iteration, packed)
            except (OSError, TransportError) as e:
                raise TransportError(
                    f"send to node {dst} failed ({phase.value} iteration {iteration}): {e}"
                ) from e

    def _pack(self, payload: Value) -> object:
        raise NotImplementedError

    def _deliver(self, dst: int, phase: Phase, iteration: int, packed: object) -> None:
        raise NotImplementedError

    def recv_matching(
        self, phase: Phase, iteration: int, senders: tuple[int, ...]
    ) -> list[Envelope]:
        """One envelope from each expected sender, in the order given.

        A second envelope from one sender for the same (phase, iteration),
        or one from a node outside `senders`, fails the receive.
        """
        if self._closed:
            raise UsageError("transport is closed")
        return self._buffer.take(phase, iteration, senders, self.recv_timeout)


class _Partial:
    """What an accepted connection has of its next frame: the first bytes
    of a length prefix, or the buffer of a body split across reads."""

    __slots__ = ("head", "body", "filled")

    def __init__(self):
        self.head = b""  # fewer than 4 bytes
        self.body: bytearray | None = None  # the announced length, filled up to `filled`
        self.filled = 0


def listen(node_id: int, port: int, backlog: int) -> socket.socket:
    """Node `node_id`'s non-blocking listener on 127.0.0.1:`port` (0: one the OS picks)."""
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    try:
        listener.bind(("127.0.0.1", port))
        listener.listen(backlog)
    except OSError as e:
        listener.close()
        raise TransportError(f"node {node_id} cannot bind port {port}: {e}") from e
    listener.setblocking(False)
    return listener


class TcpTransport(_Transport):
    """Wire transport for one node; owns its listener, bound by `listen` here
    or, for a forked node, by the zygote before it forked any node of the launch.

    It starts no threads. One selector holds the non-blocking listener and
    every accepted connection, and the thread that owns the handle runs it:
    recv_matching reads frames while it waits, and a send reads them while
    the peer's socket buffer is full, so two nodes that send each other
    large frames cannot deadlock. Between calls nobody reads; inbound bytes
    wait in the kernel. Outbound connections are made on the first send to
    a peer, retrying with exponential backoff from 1 ms up to 0.1 s
    until connect_timeout and reading frames between attempts; a peer that
    this node has received a frame from has already bound, so a first
    frame from it ends the wait and its refused connect fails the send at
    once.
    """

    def __init__(self, cfg: FlConfig, listener: socket.socket | None = None):
        super().__init__(cfg.node_id, cfg.no_nodes, cfg.recv_timeout, _MessageBuffer(self._pump))
        self.cfg = cfg
        self.port = cfg.base_port + cfg.node_id
        self._out: dict[int, socket.socket] = {}
        self._heard: set[int] = set()  # nodes a frame has come from, so they have bound
        self._listener = listener or listen(cfg.node_id, self.port, cfg.no_nodes)
        self._sel = selectors.DefaultSelector()
        self._sel.register(self._listener, selectors.EVENT_READ)

    def _pump(self, timeout: float | None) -> None:
        """One select round: accept connections and read every ready one.

        Each accepted connection carries the _Partial frame it has begun;
        an outbound socket is registered (without one) only while a send
        waits for it to become writable.
        """
        for key, _ in self._sel.select(timeout):
            if key.fileobj is self._listener:
                try:
                    conn, _ = self._listener.accept()
                except OSError:
                    continue
                conn.setblocking(False)
                self._sel.register(conn, selectors.EVENT_READ, _Partial())
            elif key.data is not None:
                self._read(key.fileobj, key.data)

    def _read(self, conn: socket.socket, partial: _Partial) -> None:
        try:
            if partial.body is None:
                data = conn.recv(_RECV_CHUNK)
                got = len(data)
            else:  # the rest of a split frame goes straight into its buffer
                got = conn.recv_into(memoryview(partial.body)[partial.filled:])
        except BlockingIOError:
            return
        except OSError:
            got = 0  # a reset counts as the peer closing
        if not got:
            self._drop(conn)
            if partial.head or partial.body is not None:
                self._buffer.fail(TransportError("peer closed mid-frame"))
            return  # at a frame boundary, a close is silent
        if partial.body is not None:
            partial.filled += got
            if partial.filled == len(partial.body):
                body, partial.body = partial.body, None
                self._file(conn, body)
            return
        # Frames that arrive whole are decoded straight from the chunk.
        if partial.head:
            data, partial.head = partial.head + data, b""
        pos, size = 0, len(data)
        while size - pos >= 4:
            end = pos + 4 + _LENGTH.unpack_from(data, pos)[0]
            if end > size:
                break
            if not self._file(conn, data[pos + 4:end]):
                return
            pos = end
        if size - pos < 4:
            partial.head = data[pos:]
            return
        # a frame split across reads: a buffer of its announced length takes it
        length = end - pos - 4
        if length > _MAX_FRAME:
            self._drop(conn)
            self._buffer.fail(TransportError(
                f"frame of {length} bytes announced, over the {_MAX_FRAME}-byte limit"))
            return
        partial.body = bytearray(length)
        partial.filled = size - pos - 4
        partial.body[:partial.filled] = memoryview(data)[pos + 4:]

    def _file(self, conn: socket.socket, body) -> bool:
        """Decode one frame body and file it; False if that failed and dropped `conn`."""
        try:
            env = decode_body(body)
            if env.dst != self.node_id:
                raise TransportError(f"frame for node {env.dst} arrived at node {self.node_id}")
        except Exception as e:  # malformed or misaddressed frame: poison pending receives
            self._drop(conn)
            self._buffer.fail(e)
            return False
        self._buffer.put(env)
        self._heard.add(env.src)
        return True

    def _drop(self, conn: socket.socket) -> None:
        self._sel.unregister(conn)
        conn.close()

    def _connect(self, dst: int) -> socket.socket:
        port = self.cfg.base_port + dst
        deadline = time.monotonic() + self.cfg.connect_timeout
        delay = 0.001
        while True:
            # not create_connection: its getaddrinfo imports idna in every forked node
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            try:
                # so that its TIME_WAIT entry keeps no later listener off its port
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
                sock.settimeout(self.cfg.connect_timeout)
                sock.connect(("127.0.0.1", port))
                sock.setblocking(False)
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                self._out[dst] = sock
                return sock
            except OSError as e:
                sock.close()
                if isinstance(e, ConnectionRefusedError) and dst in self._heard:
                    # a transport binds before it sends, so this peer has closed
                    raise TransportError(f"node {dst} unreachable on port {port}: {e}") from e
                if time.monotonic() >= deadline:
                    raise TransportError(
                        f"node {dst} unreachable on port {port} after "
                        f"{self.cfg.connect_timeout}s: {e}"
                    ) from e
                # read frames meanwhile; a first one from dst shows that it has bound
                wake, heard = min(time.monotonic() + delay, deadline), dst in self._heard
                while (left := wake - time.monotonic()) > 0 and (heard or dst not in self._heard):
                    self._pump(left)
                delay = min(2 * delay, _RETRY_MAX)

    def _send_all(self, sock: socket.socket, frame: bytes) -> None:
        """Write the whole frame, reading inbound frames while the peer's buffer is full."""
        try:
            sent = sock.send(frame)
        except BlockingIOError:
            sent = 0
        if sent == len(frame):  # the common case: one send takes it all
            return
        view = memoryview(frame)[sent:]
        waiting = False
        try:
            while True:
                try:
                    view = view[sock.send(view):]
                except BlockingIOError:
                    pass
                if not view:
                    return
                if not waiting:
                    self._sel.register(sock, selectors.EVENT_WRITE)
                    waiting = True
                self._pump(None)
        finally:
            if waiting:
                self._sel.unregister(sock)

    def _pack(self, payload: Value) -> bytes:
        return dumps(payload).encode("ascii")  # validates the payload

    def _deliver(self, dst: int, phase: Phase, iteration: int, text: bytes) -> None:
        sock = self._out.get(dst)
        if sock is None:
            sock = self._connect(dst)
        self._send_all(sock, _frame(self.node_id, dst, phase, iteration, text))

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        inbound = [key.fileobj for key in self._sel.get_map().values()]
        self._sel.close()
        for sock in inbound + list(self._out.values()):
            try:  # reset a peer that closed first, so no TIME_WAIT holds its port for 60 s
                if sock.recv(1, socket.MSG_PEEK) == b"":
                    sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, _RESET)
            except OSError:  # no FIN yet, a reset already, or the listener
                pass
            try:
                sock.close()
            except OSError:
                pass


class LoopbackHub:
    """In-process rendezvous for a whole federation; one buffer per node."""

    def __init__(self, no_nodes: int, recv_timeout: float = RECV_TIMEOUT):
        if no_nodes < 2:
            raise UsageError(f"a federation needs at least 2 nodes, got {no_nodes}")
        check_timeout("recv_timeout", recv_timeout)
        self.no_nodes = no_nodes
        self.recv_timeout = recv_timeout
        self._buffers = [_MessageBuffer() for _ in range(no_nodes)]
        self._closed: set[int] = set()  # nodes whose transport is closed

    def transport(self, node_id: int) -> "LoopbackTransport":
        if not (0 <= node_id < self.no_nodes):
            raise UsageError(f"node id {node_id} out of range for {self.no_nodes} nodes")
        return LoopbackTransport(self, node_id)

    def transports(self) -> list["LoopbackTransport"]:
        return [self.transport(i) for i in range(self.no_nodes)]

    def fail(self, exc: Exception) -> None:
        for buf in self._buffers:
            buf.fail(exc)


class LoopbackTransport(_Transport):
    """Same contract as TcpTransport, delivered through shared buffers.

    Each receiver gets its own canonical copy of the payload, the value a
    TCP hop would return, built without the text in between. For a list of
    exact floats, which validation has just scanned, that copy is the
    list's own copy method.
    """

    def __init__(self, hub: LoopbackHub, node_id: int):
        super().__init__(node_id, hub.no_nodes, hub.recv_timeout, hub._buffers[node_id])
        self.hub = hub

    def _pack(self, payload: Value) -> Callable[[], Value]:
        if validate_value(payload):
            return payload.copy
        return functools.partial(canonical_copy, payload)

    def _deliver(self, dst: int, phase: Phase, iteration: int, copy: Callable[[], Value]) -> None:
        if dst in self.hub._closed:
            raise TransportError(f"node {dst} unreachable: its transport is closed")
        self.hub._buffers[dst].put(Envelope(self.node_id, dst, phase, iteration, copy()))

    def close(self) -> None:
        self._closed = True
        self.hub._closed.add(self.node_id)
