"""The three built-in elementary algorithms and their sequential oracles.

Example 1 (federated map): each client reports whether its sensor reading
exceeds the server's threshold; the server averages the indicators.

Example 2 (centralized averaging): local data is a single-element list; each
client averages its value with the server's broadcast, the server averages
the client results.

Example 3 (decentralized averaging): the same callbacks as example 2, driven
by the decentralized engine.

The sequential oracles (seq_example1, seq_example2) mirror the reference
single-process programs operation for operation, so on the canonical inputs
they agree with the generic simulators bit for bit, not just within
tolerance. sim_centralized / sim_decentralized replay the engine contracts
for arbitrary callbacks and federation sizes; they define correctness for
every distributed run. A Run is one checked run of any callback pair.
EXAMPLES maps each example id to the example's canonical 3-node Run, checked
when this module is imported; example_run derives from it the run that
`fltestbed node`, `launch` and `verify` all build.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from dataclasses import dataclass, replace

from .engine import (
    CENTRALIZED,
    DECENTRALIZED,
    FAULT_POINTS,
    CallbackPair,
    CrashingTransport,
    FlConfig,
    FlInstance,
    check_engine,
    check_int,
    check_iters,
    fault_points,
)
from .errors import ConfigError, SerializationError
from .transport import CONNECT_TIMEOUT, RECV_TIMEOUT, TcpTransport
from .values import Value, canonical_copy, is_number, validate_value


def ex1_client(local_data: Value, private_data: Value, msg: Value) -> Value:
    """1.0 if the local reading strictly exceeds the broadcast threshold."""
    if not is_number(local_data) or not is_number(msg):
        raise TypeError("example 1 expects numeric local data and threshold")
    client_reading = local_data
    threshold = msg
    tmp = 0.0
    if client_reading > threshold:
        tmp = 1.0
    return tmp


def ex1_server(private_data: Value, msgs: list[Value]) -> Value:
    """Arithmetic mean of the client indicators."""
    if not msgs:
        raise ValueError("example 1 server needs at least one client message")
    if not all(is_number(m) for m in msgs):
        raise TypeError("example 1 expects numeric client messages")
    return sum(msgs) / len(msgs)


def _check_singleton(v: Value, what: str) -> None:
    if not (isinstance(v, list) and len(v) == 1 and is_number(v[0])):
        raise TypeError(f"example 2 expects {what} as a single-element numeric list, got {v!r}")


def ex2_client(local_data: Value, private_data: Value, msg: Value) -> Value:
    """Pairwise mean of own value and the broadcast value, as [x]."""
    _check_singleton(local_data, "local data")
    _check_singleton(msg, "msg")
    return [(local_data[0] + msg[0]) / 2]


def ex2_server(private_data: Value, msgs: list[Value]) -> Value:
    """Mean of the clients' single-element lists, as [x]."""
    if not msgs:
        raise ValueError("example 2 server needs at least one client message")
    for m in msgs:
        _check_singleton(m, "each message")
    totals = [lst[0] for lst in msgs]
    average = sum(totals) / len(totals)
    return [average]


def _check_arr(ldata_arr, fl_srv_id: int) -> None:
    if len(ldata_arr) < 2:
        raise ConfigError(f"need at least 2 nodes, got {len(ldata_arr)}")
    if not (0 <= fl_srv_id < len(ldata_arr)):
        raise ConfigError(f"fl_srv_id {fl_srv_id} out of range [0, {len(ldata_arr)})")


def seq_example1(ldata_arr: list[Value], fl_srv_id: int) -> Value:
    """Single-process reference for example 1, generalized to any server index."""
    _check_arr(ldata_arr, fl_srv_id)
    threshold = ldata_arr[fl_srv_id]
    tmp_arr = []
    for node_id in range(len(ldata_arr)):
        if node_id == fl_srv_id:
            continue
        client_reading = ldata_arr[node_id]
        tmp = 0.0
        if client_reading > threshold:
            tmp = 1.0
        tmp_arr.append(tmp)
    list_of_is_over_as_float = tmp_arr
    return sum(list_of_is_over_as_float) / len(list_of_is_over_as_float)


def seq_example2(ldata_arr: list[Value], fl_srv_id: int) -> Value:
    """Single-process reference for example 2, generalized to any server index."""
    _check_arr(ldata_arr, fl_srv_id)
    msg = ldata_arr[fl_srv_id]
    tmp_arr = []
    for node_id in range(len(ldata_arr)):
        if node_id == fl_srv_id:
            continue
        ldata = ldata_arr[node_id]
        tmp_arr.append([(ldata[0] + msg[0]) / 2])
    msgs = tmp_arr
    tmp = 0.0
    for lst in msgs:
        tmp = tmp + lst[0]
    tmp = tmp / len(msgs)
    return [tmp]


def sim_centralized(
    ldata_arr: list[Value],
    pdata_arr: list[Value],
    fl_srv_id: int,
    callbacks: CallbackPair,
    no_iters: int = 1,
) -> list[Value]:
    """Sequential replay of the centralized engine; returns every node's final data."""
    _check_arr(ldata_arr, fl_srv_id)
    if len(pdata_arr) != len(ldata_arr):
        raise ConfigError("pdata_arr and ldata_arr lengths differ")
    check_iters(no_iters)
    state = list(ldata_arr)
    for _ in range(no_iters):
        broadcast = state[fl_srv_id]
        msgs = []
        for node_id in range(len(state)):
            if node_id == fl_srv_id:
                continue
            state[node_id] = callbacks.client(state[node_id], pdata_arr[node_id], broadcast)
            msgs.append(state[node_id])
        state[fl_srv_id] = callbacks.server(pdata_arr[fl_srv_id], msgs)
    return state


def sim_decentralized(
    ldata_arr: list[Value],
    pdata_arr: list[Value],
    callbacks: CallbackPair,
    no_iters: int = 1,
) -> list[Value]:
    """Sequential replay of the decentralized engine; returns every node's final data.

    Within one iteration all replies are computed from iteration-start data:
    node i aggregates callbacks.client(start[j], pdata[j], start[i]) over all
    j != i, in ascending j order.
    """
    if len(ldata_arr) < 2:
        raise ConfigError(f"need at least 2 nodes, got {len(ldata_arr)}")
    if len(pdata_arr) != len(ldata_arr):
        raise ConfigError("pdata_arr and ldata_arr lengths differ")
    check_iters(no_iters)
    n = len(ldata_arr)
    state = list(ldata_arr)
    for _ in range(no_iters):
        start = list(state)
        new_state = []
        for i in range(n):
            replies = [
                callbacks.client(start[j], pdata_arr[j], start[i]) for j in range(n) if j != i
            ]
            new_state.append(callbacks.server(pdata_arr[i], replies))
        state = new_state
    return state


def laid_out_like(sample: Value, readings: list[float]) -> list[Value]:
    """`readings` in the layout of `sample`: bare numbers, or one-element lists."""
    return readings if is_number(sample) else [[x] for x in readings]


def generate_ldata(example: Run, no_nodes: int, seed: int) -> list[Value]:
    """Deterministic random dataset in the layout of the example's canonical one.

    Values are uniform in [-1e6, 1e6]; every process that knows (example,
    no_nodes, seed) reproduces the identical dataset.
    """
    if no_nodes < 2:
        raise ConfigError(f"need at least 2 nodes, got {no_nodes}")
    rng = random.Random(seed)
    readings = [rng.uniform(-1e6, 1e6) for _ in range(no_nodes)]
    return laid_out_like(example.ldata[0], readings)


def _own_copy(v: Value) -> Value:
    try:
        validate_value(v)
    except SerializationError:
        return v
    return canonical_copy(v)


@dataclass(frozen=True)
class Run:
    """One run of any callback pair over len(ldata) nodes, checked once for all of them.

    Building a run makes the checks each node would make: the engine, the
    fault pair (a point the fault node passes in that engine), one pdata
    entry per node (None for all without pdata), every node's FlConfig and
    the iteration count. Each EXAMPLES entry is the canonical run of a
    built-in example. example_id and seed are for node_flags only.
    """

    engine: str
    callbacks: CallbackPair
    ldata: Sequence[Value]
    pdata: Sequence[Value] | None = None
    no_iters: int = 1
    base_port: int = 6000
    fl_srv_id: int = 0
    recv_timeout: float = RECV_TIMEOUT
    connect_timeout: float = CONNECT_TIMEOUT
    fault_node: int | None = None
    after_phase: str | None = None
    example_id: int | None = None
    seed: int | None = None

    def __post_init__(self):
        check_engine(self.engine)
        if (self.fault_node is None) != (self.after_phase is None):
            raise ConfigError("the fault node and the fault point must be given together")
        if self.fault_node is not None:
            check_int("fault_node", self.fault_node)
            if not (0 <= self.fault_node < self.no_nodes):
                raise ConfigError(f"fault node {self.fault_node} out of range [0, {self.no_nodes})")
        if self.after_phase not in (None, *FAULT_POINTS):
            raise ConfigError(f"fault point must be one of {FAULT_POINTS}, got {self.after_phase!r}")
        if self.pdata is None:
            object.__setattr__(self, "pdata", (None,) * self.no_nodes)
        elif len(self.pdata) != self.no_nodes:
            raise ConfigError(f"{len(self.pdata)} pdata entries for {self.no_nodes} nodes")
        self.config(0)
        if self.fault_node is not None and self.after_phase not in fault_points(
                self.engine, self.fault_node == self.fl_srv_id):
            raise ConfigError(f"node {self.fault_node} never reaches fault point "
                              f"{self.after_phase} in a {self.engine} run")
        check_iters(self.no_iters)

    @property
    def no_nodes(self) -> int:
        return len(self.ldata)

    def config(self, node_id: int) -> FlConfig:
        return FlConfig(self.no_nodes, node_id, self.fl_srv_id, self.base_port,
                        self.connect_timeout, self.recv_timeout)

    def node_data(self, node_id: int) -> tuple[Value, Value]:
        """Node `node_id`'s local and private data, as copies of its own.

        A node or an oracle whose callback writes into its data changes
        only that copy, not the run. A valid payload is copied as a wire hop
        would return it (values.canonical_copy); anything else is handed on
        as it is, for the engine's send to reject.
        """
        return _own_copy(self.ldata[node_id]), _own_copy(self.pdata[node_id])

    def run_node(self, node_id: int, transport=None, listener=None) -> Value:
        """Node `node_id`'s share of the run, over TCP (on `listener`, if bound) unless
        a transport is given. The fault node's transport crashes it; the port is freed on return."""
        cfg = self.config(node_id)
        transport = TcpTransport(cfg, listener) if transport is None else transport
        if node_id == self.fault_node:
            transport = CrashingTransport(transport, node_id, self.after_phase)
        inst = FlInstance(cfg, transport)
        try:
            run = inst.fl_centralized if self.engine == CENTRALIZED else inst.fl_decentralized
            return run(self.callbacks, *self.node_data(node_id), self.no_iters)
        finally:
            inst.shutdown()

    def node_flags(self) -> list[str]:
        """The run flags of `fltestbed node`; the launcher adds each node's
        --no-nodes, --node-id, --fl-srv-id and --base-port. A node process
        can rebuild only a run of a built-in example."""
        if self.example_id is None:
            raise ConfigError("only a run of a built-in example can run as node processes")
        flags = ["--example", str(self.example_id), "--iters", str(self.no_iters)]
        if self.seed is not None:
            flags += ["--seed", str(self.seed)]
        flags += ["--recv-timeout", str(self.recv_timeout),
                  "--connect-timeout", str(self.connect_timeout)]
        if self.fault_node is not None:
            flags += ["--fault-node", str(self.fault_node), "--after-phase", self.after_phase]
        return flags


EXAMPLES: dict[int, Run] = {
    run.example_id: run
    for run in (
        Run(CENTRALIZED, CallbackPair(ex1_client, ex1_server), (68.0, 70.5, 69.5),
            fl_srv_id=2, example_id=1),
        Run(CENTRALIZED, CallbackPair(ex2_client, ex2_server), ([1], [2], [3]), example_id=2),
        # Example 3 reuses the example-2 callbacks under the decentralized engine.
        Run(DECENTRALIZED, CallbackPair(ex2_client, ex2_server), ([1], [2], [3]), example_id=3),
    )
}


def get_example(example_id: int) -> Run:
    """The canonical 3-node run of a built-in example."""
    try:
        return EXAMPLES[example_id]
    except KeyError:
        raise ConfigError(f"unknown example id {example_id}; "
                          f"choose one of {', '.join(map(str, EXAMPLES))}") from None


def example_run(
    example_id: int,
    no_nodes: int,
    no_iters: int = 1,
    base_port: int = 6000,
    fl_srv_id: int | None = None,
    seed: int | None = None,
    recv_timeout: float | None = None,
    connect_timeout: float | None = None,
    fault_node: int | None = None,
    after_phase: str | None = None,
) -> Run:
    """The run of a built-in example that `fltestbed node`, `launch` and `verify` build.

    It is the example's canonical run from EXAMPLES, looked up now, with
    the given settings. Its data is the canonical dataset without a seed,
    generated data with one. A None server id is the example's canonical
    one, clamped to the last node in smaller federations; a None timeout is
    the transport default.
    """
    canonical = get_example(example_id)
    if seed is not None:
        ldata = generate_ldata(canonical, no_nodes, seed)
    elif no_nodes == canonical.no_nodes:
        ldata = canonical.ldata
    else:
        raise ConfigError(
            f"example {example_id} has a canonical {canonical.no_nodes}-node "
            f"dataset; pass a seed to run with {no_nodes} nodes"
        )
    return replace(
        canonical, ldata=tuple(ldata), pdata=None, no_iters=no_iters, base_port=base_port,
        fl_srv_id=min(canonical.fl_srv_id, no_nodes - 1) if fl_srv_id is None else fl_srv_id,
        recv_timeout=RECV_TIMEOUT if recv_timeout is None else recv_timeout,
        connect_timeout=CONNECT_TIMEOUT if connect_timeout is None else connect_timeout,
        fault_node=fault_node, after_phase=after_phase, seed=seed,
    )
