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
iteration; private data never leaves the node.

Engine runs that share one process share its interpreter lock, so a run on
any thread but the main one (in-process verification, fuzzing, node
threads) pins its thread to the main thread's first CPU: on several CPUs
every message would pay a cross-CPU handoff of the lock. A run on the main
thread, such as a node process's, keeps the kernel's placement, and each
thread gets its CPU set back when its run ends. The cost: a callback that
releases the lock for long C work (numpy, say) does not run in parallel
with other in-process nodes.
"""

from __future__ import annotations

import contextlib
import os
import threading
from dataclasses import dataclass
from typing import Callable

from .errors import CallbackError, ConfigError, FaultInjected, UsageError
from .transport import CONNECT_TIMEOUT, RECV_TIMEOUT, Envelope, Phase, TcpTransport, check_timeout
from .values import Value

# Points at which fault injection may crash a node: after the centralized
# server's broadcast (srv) or a client's reply (cli), after the decentralized
# phase I receive (p1) or before the phase II receive (p2). fault_points says
# which node passes which; CrashingTransport fires them.
FAULT_POINTS = ("srv", "cli", "p1", "p2")

# Engine names, as the CLI and the fuzz summary print them.
CENTRALIZED = "cent"
DECENTRALIZED = "decent"


def fault_points(engine: str, is_server: bool) -> tuple[str, ...]:
    """The fault points a node passes in every iteration of a run of `engine`."""
    if engine == DECENTRALIZED:
        return ("p1", "p2")
    return ("srv",) if is_server else ("cli",)


class CrashingTransport:
    """A node's transport that crashes the node at fault point `point`.

    Each point is at one of its calls; the FaultInjected raised there fails
    the run, which closes the node. Survivors of a p1 crash fail on DEC_P2.
    """

    def __init__(self, transport, node_id: int, point: str):
        self._transport, self._node_id, self._point = transport, node_id, point

    def broadcast(self, dsts, phase: Phase, iteration: int, payload: Value) -> None:
        self._transport.broadcast(dsts, phase, iteration, payload)
        if phase is Phase.SRV_DATA:
            self._crash_at("srv")

    def send(self, env: Envelope) -> None:
        self._transport.send(env)
        if env.phase is Phase.CLI_DATA:
            self._crash_at("cli")

    def recv_matching(self, phase: Phase, iteration: int, senders: tuple[int, ...]):
        if phase is Phase.DEC_P2:
            self._crash_at("p2")
        envs = self._transport.recv_matching(phase, iteration, senders)
        if phase is Phase.DEC_P1:
            self._crash_at("p1")
        return envs

    def close(self) -> None:
        self._transport.close()

    def _crash_at(self, point: str) -> None:
        if point == self._point:
            raise FaultInjected(
                f"fault injection: node {self._node_id} crashing after phase {point}"
            )


def check_engine(engine: str) -> None:
    if engine not in (CENTRALIZED, DECENTRALIZED):
        raise ConfigError(f"engine must be '{CENTRALIZED}' or '{DECENTRALIZED}', got {engine!r}")


def check_int(name: str, value) -> None:
    """`value` is an int; a bool, which Python counts as one, is not."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"{name} must be an integer, got {value!r}")


def check_iters(no_iters: int) -> None:
    check_int("no_iters", no_iters)
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
        for name in ("node_id", "fl_srv_id", "base_port"):
            check_int(name, getattr(self, name))
        if not (0 <= self.node_id < self.no_nodes):
            raise ConfigError(f"node_id {self.node_id} out of range [0, {self.no_nodes})")
        if not (0 <= self.fl_srv_id < self.no_nodes):
            raise ConfigError(f"fl_srv_id {self.fl_srv_id} out of range [0, {self.no_nodes})")
        if not (0 < self.base_port and self.base_port + self.no_nodes - 1 <= 65535):
            raise ConfigError(f"port range {self.base_port}..+{self.no_nodes - 1} out of bounds")
        check_timeout("recv_timeout", self.recv_timeout)
        check_timeout("connect_timeout", self.connect_timeout)


@dataclass(frozen=True)
class CallbackPair:
    """The user-supplied role functions; both must be deterministic and pure."""

    client: Callable[[Value, Value, Value], Value]
    server: Callable[[Value, list[Value]], Value]


class FlInstance:
    """One node's handle on the federation.

    Binds the node's port on construction. An instance runs one engine call
    at a time from a single logical thread; shutdown(), or a run that
    raises, releases the port.
    """

    def __init__(self, cfg: FlConfig, transport=None):
        self.cfg = cfg
        self._running = False
        self._closed = False
        self._lock = threading.Lock()
        self.transport = transport if transport is not None else TcpTransport(cfg)

    def fl_centralized(
        self,
        callbacks: CallbackPair,
        ldata: Value,
        pdata: Value = None,
        no_iters: int = 1,
    ) -> Value:
        """Run the centralized engine; must be called on every node."""
        cfg = self.cfg
        with self._begin_run(no_iters) as peers:
            if cfg.node_id == cfg.fl_srv_id:
                for k in range(no_iters):
                    self.transport.broadcast(peers, Phase.SRV_DATA, k, ldata)
                    replies = self.transport.recv_matching(Phase.CLI_DATA, k, peers)
                    msgs = [env.payload for env in replies]
                    ldata = self._call("server", k, callbacks.server, pdata, msgs)
            else:
                for k in range(no_iters):
                    (env,) = self.transport.recv_matching(Phase.SRV_DATA, k, (cfg.fl_srv_id,))
                    ldata = self._call("client", k, callbacks.client, ldata, pdata, env.payload)
                    self.transport.send(
                        Envelope(cfg.node_id, cfg.fl_srv_id, Phase.CLI_DATA, k, ldata)
                    )
            return ldata

    def fl_decentralized(
        self,
        callbacks: CallbackPair,
        ldata: Value,
        pdata: Value = None,
        no_iters: int = 1,
    ) -> Value:
        """Run the decentralized engine; must be called on every node."""
        cfg = self.cfg
        with self._begin_run(no_iters) as peers:
            for k in range(no_iters):
                start = ldata  # phase II replies are computed from this snapshot
                self.transport.broadcast(peers, Phase.DEC_P1, k, start)
                broadcasts = self.transport.recv_matching(Phase.DEC_P1, k, peers)
                for env in broadcasts:
                    reply = self._call("client", k, callbacks.client, start, pdata, env.payload)
                    self.transport.send(Envelope(cfg.node_id, env.src, Phase.DEC_P2, k, reply))
                replies = self.transport.recv_matching(Phase.DEC_P2, k, peers)
                msgs = [env.payload for env in replies]
                ldata = self._call("server", k, callbacks.server, pdata, msgs)
            return ldata

    def shutdown(self) -> None:
        """Release the port; idempotent. Illegal while an engine run is live."""
        with self._lock:
            if self._running:
                raise UsageError("cannot shut down while an engine run is in progress")
            if self._closed:
                return
            self._closed = True
        self.transport.close()

    @contextlib.contextmanager
    def _begin_run(self, no_iters: int):
        """Mark an engine run and yield the node's peers; a run that raises closes the transport.

        A run off the main thread pins its thread to the main thread's first
        CPU, so all such threads share one, and gives the thread its own CPU
        set back when it ends. A thread that cannot be pinned stays as it is.
        """
        check_iters(no_iters)
        with self._lock:
            if self._closed:
                raise UsageError("instance already shut down")
            if self._running:
                raise UsageError("an engine run is already in progress on this instance")
            self._running = True
        saved = None
        off_main = threading.current_thread() is not threading.main_thread()
        if off_main and hasattr(os, "sched_setaffinity"):
            with contextlib.suppress(OSError):
                own = os.sched_getaffinity(0)
                os.sched_setaffinity(0, {min(os.sched_getaffinity(os.getpid()))})
                saved = own
        try:
            yield tuple(i for i in range(self.cfg.no_nodes) if i != self.cfg.node_id)
        except BaseException:
            with self._lock:
                self._running = False
                close = not self._closed
                self._closed = True
            if close:
                with contextlib.suppress(Exception):
                    self.transport.close()
            raise
        finally:
            if saved is not None:
                with contextlib.suppress(OSError):
                    os.sched_setaffinity(0, saved)
        with self._lock:
            self._running = False

    def _call(self, role: str, iteration: int, callback: Callable, *args) -> Value:
        """The `role` callback's result; whatever it raises becomes a CallbackError."""
        try:
            return callback(*args)
        except Exception as e:
            raise CallbackError(f"{role} callback failed at iteration {iteration}: {e}") from e
