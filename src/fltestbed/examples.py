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
every distributed run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .engine import CENTRALIZED, DECENTRALIZED, CallbackPair
from .errors import ConfigError
from .values import Value, is_number

# Data layouts the built-in examples expect: bare numbers or one-element lists.
SCALAR = "scalar"
SINGLETON = "singleton"


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


@dataclass(frozen=True)
class ExampleSpec:
    example_id: int
    name: str
    callbacks: CallbackPair
    default_ldata: tuple[Value, ...]  # canonical 3-node dataset
    default_fl_srv_id: int
    engine: str  # CENTRALIZED or DECENTRALIZED
    data_layout: str  # SCALAR or SINGLETON


def effective_fl_srv_id(spec: ExampleSpec, no_nodes: int) -> int:
    """The example's canonical server index, clamped into range for small runs."""
    return spec.default_fl_srv_id if spec.default_fl_srv_id < no_nodes else no_nodes - 1


EXAMPLES: dict[int, ExampleSpec] = {
    1: ExampleSpec(
        example_id=1,
        name="federated-map",
        callbacks=CallbackPair(client=ex1_client, server=ex1_server),
        default_ldata=(68.0, 70.5, 69.5),
        default_fl_srv_id=2,
        engine=CENTRALIZED,
        data_layout=SCALAR,
    ),
    2: ExampleSpec(
        example_id=2,
        name="centralized-averaging",
        callbacks=CallbackPair(client=ex2_client, server=ex2_server),
        default_ldata=([1], [2], [3]),
        default_fl_srv_id=0,
        engine=CENTRALIZED,
        data_layout=SINGLETON,
    ),
    # Example 3 reuses the example-2 callbacks under the decentralized engine.
    3: ExampleSpec(
        example_id=3,
        name="decentralized-averaging",
        callbacks=CallbackPair(client=ex2_client, server=ex2_server),
        default_ldata=([1], [2], [3]),
        default_fl_srv_id=0,
        engine=DECENTRALIZED,
        data_layout=SINGLETON,
    ),
}


def get_example(example_id: int) -> ExampleSpec:
    try:
        return EXAMPLES[example_id]
    except KeyError:
        raise ConfigError(f"unknown example id {example_id}; choose one of 1, 2, 3") from None


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
    if no_iters < 1:
        raise ConfigError(f"no_iters must be >= 1, got {no_iters}")
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
    if no_iters < 1:
        raise ConfigError(f"no_iters must be >= 1, got {no_iters}")
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


def generate_ldata(spec: ExampleSpec, no_nodes: int, seed: int) -> list[Value]:
    """Deterministic random dataset in the layout an example expects.

    Values are uniform in [-1e6, 1e6]; every process that knows (example,
    no_nodes, seed) reproduces the identical dataset.
    """
    if no_nodes < 2:
        raise ConfigError(f"need at least 2 nodes, got {no_nodes}")
    rng = random.Random(seed)
    readings = [rng.uniform(-1e6, 1e6) for _ in range(no_nodes)]
    if spec.data_layout == SCALAR:
        return readings
    return [[x] for x in readings]


def dataset_for(spec: ExampleSpec, no_nodes: int, seed: int | None) -> list[Value]:
    """Canonical dataset when seed is None, generated data otherwise."""
    if seed is None:
        if no_nodes != len(spec.default_ldata):
            raise ConfigError(
                f"example {spec.example_id} has a canonical {len(spec.default_ldata)}-node "
                f"dataset; pass a seed to run with {no_nodes} nodes"
            )
        return list(spec.default_ldata)
    return generate_ldata(spec, no_nodes, seed)
