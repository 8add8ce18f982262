"""Per-node instances and the two generic federated-learning engines.

An application is one program started as no_nodes independent processes.
Each process builds an FlInstance for its own node id and calls one engine;
the engine moves data between roles and invokes the user's callbacks:

    client(local_data, private_data, msg)  -> updated local data
    server(private_data, msgs)             -> aggregated local data

Centralized: per iteration the server node (fl_srv_id) broadcasts its local
data, every client updates via the client callback and replies, and the
server aggregates the replies (sorted by ascending node id) via the server
callback.

Decentralized: per iteration every node broadcasts its iteration-start local
data (phase I), answers each received broadcast with a client-callback reply
computed from its own iteration-start data (phase II, no self-mutation), and
aggregates its collected replies with the server callback (phase III).
fl_srv_id plays no role here.

Both engines return the calling node's own local data after the final
iteration; private data never leaves the node. run_node is the whole life
of one node: build its instance, run one engine, shut down.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable

from .errors import CallbackError, ConfigError, FaultInjected, UsageError
from .transport import CONNECT_TIMEOUT, RECV_TIMEOUT, Envelope, Phase, TcpTransport
from .values import Value

# Points at which fault injection may crash a node, named after the send
# step just completed: centralized server broadcast / client reply,
# decentralized phase I broadcast / phase II replies.
FAULT_POINTS = ("srv", "cli", "p1", "p2")

# Engine names, as the CLI and the fuzz summary print them.
CENTRALIZED = "cent"
DECENTRALIZED = "decent"


def check_fault(no_nodes: int, node: int | None, point: str | None) -> None:
    """A fault names both a node in range and a fault point, or neither."""
    if (node is None) != (point is None):
        raise ConfigError("the fault node and the fault point must be given together")
    if node is not None and not (0 <= node < no_nodes):
        raise ConfigError(f"fault node {node} out of range [0, {no_nodes})")


def check_iters(no_iters: int) -> None:
    if no_iters < 1:
        raise ConfigError(f"no_iters must be >= 1, got {no_iters}")


@dataclass(frozen=True)
class FlConfig:
    """One node's view of the federation; TcpTransport reads its port and timeouts."""

    no_nodes: int
    node_id: int
    fl_srv_id: int = 0
    base_port: int = 6000
    connect_timeout: float = CONNECT_TIMEOUT
    recv_timeout: float = RECV_TIMEOUT

    def __post_init__(self):
        if not isinstance(self.no_nodes, int) or self.no_nodes < 2:
            raise ConfigError(f"no_nodes must be an integer >= 2, got {self.no_nodes!r}")
        if not (0 <= self.node_id < self.no_nodes):
            raise ConfigError(f"node_id {self.node_id} out of range [0, {self.no_nodes})")
        if not (0 <= self.fl_srv_id < self.no_nodes):
            raise ConfigError(f"fl_srv_id {self.fl_srv_id} out of range [0, {self.no_nodes})")
        if not (0 < self.base_port and self.base_port + self.no_nodes - 1 <= 65535):
            raise ConfigError(f"port range {self.base_port}..+{self.no_nodes - 1} out of bounds")
        if self.recv_timeout <= 0 or self.connect_timeout <= 0:
            raise ConfigError("timeouts must be positive")


def node_config(no_nodes: int, node_id: int, fl_srv_id: int, base_port: int,
                recv_timeout: float | None = None,
                connect_timeout: float | None = None) -> FlConfig:
    """The FlConfig of a node started with these run flags; a None timeout keeps its default."""
    return FlConfig(no_nodes, node_id, fl_srv_id, base_port,
                    CONNECT_TIMEOUT if connect_timeout is None else connect_timeout,
                    RECV_TIMEOUT if recv_timeout is None else recv_timeout)


@dataclass(frozen=True)
class CallbackPair:
    """The user-supplied role functions; both must be deterministic and pure."""

    client: Callable[[Value, Value, Value], Value]
    server: Callable[[Value, list[Value]], Value]


class FlInstance:
    """One node's handle on the federation.

    Binds the node's port on construction. An instance runs one engine call
    at a time from a single logical thread; shutdown() releases the port.
    """

    def __init__(self, cfg: FlConfig, transport=None, fault_after_phase: str | None = None):
        if fault_after_phase is not None and fault_after_phase not in FAULT_POINTS:
            raise ConfigError(f"fault_after_phase must be one of {FAULT_POINTS}")
        self.cfg = cfg
        self._fault_after_phase = fault_after_phase
        self._running = False
        self._closed = False
        self._lock = threading.Lock()
        self._transport = transport if transport is not None else TcpTransport(cfg)

    @property
    def transport(self):
        return self._transport

    def fl_centralized(
        self,
        callbacks: CallbackPair,
        ldata: Value,
        pdata: Value = None,
        no_iters: int = 1,
    ) -> Value:
        """Run the centralized engine; must be called on every node."""
        check_iters(no_iters)
        cfg = self.cfg
        peers = tuple(i for i in range(cfg.no_nodes) if i != cfg.node_id)
        with self._begin_run():
            if cfg.node_id == cfg.fl_srv_id:
                for k in range(no_iters):
                    self._transport.broadcast(peers, Phase.SRV_DATA, k, ldata)
                    self._fault_point("srv")
                    replies = self._transport.recv_matching(Phase.CLI_DATA, k, peers)
                    msgs = [env.payload for env in replies]
                    ldata = self._call_server(callbacks, pdata, msgs, k)
            else:
                for k in range(no_iters):
                    (env,) = self._transport.recv_matching(Phase.SRV_DATA, k, (cfg.fl_srv_id,))
                    ldata = self._call_client(callbacks, ldata, pdata, env.payload, k)
                    self._transport.send(
                        Envelope(cfg.node_id, cfg.fl_srv_id, Phase.CLI_DATA, k, ldata)
                    )
                    self._fault_point("cli")
            return ldata

    def fl_decentralized(
        self,
        callbacks: CallbackPair,
        ldata: Value,
        pdata: Value = None,
        no_iters: int = 1,
    ) -> Value:
        """Run the decentralized engine; must be called on every node."""
        check_iters(no_iters)
        cfg = self.cfg
        peers = tuple(i for i in range(cfg.no_nodes) if i != cfg.node_id)
        with self._begin_run():
            for k in range(no_iters):
                start = ldata  # phase II replies are computed from this snapshot
                self._transport.broadcast(peers, Phase.DEC_P1, k, start)
                broadcasts = self._transport.recv_matching(Phase.DEC_P1, k, peers)
                # "after p1" fires once phase I is complete at this node (its
                # broadcasts sent and every peer's collected), so survivors of
                # an injected crash always fail on the DEC_P2 exchange
                self._fault_point("p1")
                for env in broadcasts:
                    reply = self._call_client(callbacks, start, pdata, env.payload, k)
                    self._transport.send(Envelope(cfg.node_id, env.src, Phase.DEC_P2, k, reply))
                self._fault_point("p2")
                replies = self._transport.recv_matching(Phase.DEC_P2, k, peers)
                ldata = self._call_server(callbacks, pdata, [env.payload for env in replies], k)
            return ldata

    def shutdown(self) -> None:
        """Release the port; idempotent. Illegal while an engine run is live."""
        with self._lock:
            if self._running:
                raise UsageError("cannot shut down while an engine run is in progress")
            if self._closed:
                return
            self._closed = True
        self._transport.close()

    def _begin_run(self):
        return _RunGuard(self)

    def _call_client(self, callbacks, ldata, pdata, msg, iteration) -> Value:
        try:
            return callbacks.client(ldata, pdata, msg)
        except Exception as e:
            raise CallbackError(f"client callback failed at iteration {iteration}: {e}") from e

    def _call_server(self, callbacks, pdata, msgs, iteration) -> Value:
        try:
            return callbacks.server(pdata, msgs)
        except Exception as e:
            raise CallbackError(f"server callback failed at iteration {iteration}: {e}") from e

    def _fault_point(self, tag: str) -> None:
        if self._fault_after_phase == tag:
            raise FaultInjected(
                f"fault injection: node {self.cfg.node_id} crashing after phase {tag}"
            )


def run_node(
    cfg: FlConfig,
    engine: str,
    callbacks: CallbackPair,
    ldata: Value,
    pdata: Value = None,
    no_iters: int = 1,
    transport=None,
    fault_after_phase: str | None = None,
) -> Value:
    """One node's share of a federation on `engine`; the port is released on return."""
    if engine not in (CENTRALIZED, DECENTRALIZED):
        raise ConfigError(f"engine must be '{CENTRALIZED}' or '{DECENTRALIZED}', got {engine!r}")
    inst = FlInstance(cfg, transport=transport, fault_after_phase=fault_after_phase)
    try:
        run = inst.fl_centralized if engine == CENTRALIZED else inst.fl_decentralized
        return run(callbacks, ldata, pdata, no_iters)
    finally:
        inst.shutdown()


class _RunGuard:
    """Marks an engine run; on error, best-effort shutdown of the transport."""

    def __init__(self, inst: FlInstance):
        self._inst = inst

    def __enter__(self):
        with self._inst._lock:
            if self._inst._closed:
                raise UsageError("instance already shut down")
            if self._inst._running:
                raise UsageError("an engine run is already in progress on this instance")
            self._inst._running = True
        return self

    def __exit__(self, exc_type, exc, tb):
        with self._inst._lock:
            self._inst._running = False
            if exc is not None and not self._inst._closed:
                self._inst._closed = True
                close = True
            else:
                close = False
        if close:
            try:
                self._inst._transport.close()
            except Exception:
                pass
        return False
