"""Verification harness: run an example, compare every node to the oracle.

A run is an examples.ExampleRun, checked once when it is built. It
executes either in-process (one thread per node calling run.run_node over
the loopback hub) or as real node processes spawned by launch_federation,
each of which builds the same run from its flags and calls the same
run_node. The harness then replays the matching sequential simulator on
the same inputs and reports per-node agreement at the default tolerances.
launch_federation is also what `fltestbed launch` runs. fuzz_verify
hammers the engines with randomized federations against the simulators; a
fixed seed reproduces the exact trial sequence.
"""

from __future__ import annotations

import json
import random
import re
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

from .engine import CENTRALIZED, DECENTRALIZED, CallbackPair, FlConfig, run_node
from .errors import ConfigError, FlError
from .examples import EXAMPLES, ExampleRun, laid_out_like, sim_centralized, sim_decentralized
from .launcher import LaunchResult, LaunchSpec, NodeOutcome, launch_all
from .transport import RECV_TIMEOUT, LoopbackHub, LoopbackTransport
from .values import Value, approx_eq, dumps, format_number, loads

MODE_INPROC = "inproc"
MODE_PROC = "proc"

_RESULT_LINE = re.compile(r"^RESULT (\d+) (\S+)$", re.MULTILINE)


@dataclass
class NodeVerdict:
    node_id: int
    distributed: Value
    oracle: Value
    match: bool
    diagnostic: str | None = None


@dataclass
class RunReport:
    example_id: int
    mode: str
    no_nodes: int
    no_iters: int
    per_node: list[NodeVerdict]
    overall_match: bool
    wall_time: float

    def to_mapping(self) -> dict:
        return {
            "exampleId": self.example_id,
            "mode": self.mode,
            "noNodes": self.no_nodes,
            "noIters": self.no_iters,
            "perNode": [
                {
                    "nodeId": v.node_id,
                    "distributedResult": v.distributed,
                    "oracleResult": v.oracle,
                    "match": v.match,
                    "diagnostic": v.diagnostic,
                }
                for v in self.per_node
            ],
            "overallMatch": self.overall_match,
            "wallTime": self.wall_time,
        }

    def to_text(self) -> str:
        return canonical_text(self.to_mapping())


def canonical_text(obj) -> str:
    """Deterministic one-line rendering: dicts keep insertion order, numbers
    use the canonical payload notation."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, float)):
        return format_number(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(canonical_text(x) for x in obj) + "]"
    if isinstance(obj, dict):
        return "{" + ",".join(f"{json.dumps(k)}:{canonical_text(v)}" for k, v in obj.items()) + "}"
    raise TypeError(f"cannot render {type(obj).__name__} canonically")


def run_federation_inproc(
    no_nodes: int,
    fl_srv_id: int,
    engine: str,
    callbacks: CallbackPair | list[CallbackPair],
    ldata_arr: list[Value],
    pdata_arr: list[Value] | None = None,
    no_iters: int = 1,
    recv_timeout: float = RECV_TIMEOUT,
) -> list[Value | Exception]:
    """Drive one engine per node on threads over a loopback hub.

    Returns each node's final data, or the exception that node raised.
    `callbacks` may be a single pair shared by all nodes or one pair per node
    (used by recording/probing tests).
    """
    if pdata_arr is None:
        pdata_arr = [None] * no_nodes
    pairs = callbacks if isinstance(callbacks, list) else [callbacks] * no_nodes
    if len(pairs) != no_nodes or len(ldata_arr) != no_nodes or len(pdata_arr) != no_nodes:
        raise ConfigError("callbacks/ldata/pdata lists must have one entry per node")

    def node(node_id: int, transport) -> Value:
        cfg = FlConfig(no_nodes, node_id, fl_srv_id, recv_timeout=recv_timeout)
        return run_node(cfg, engine, pairs[node_id], ldata_arr[node_id], pdata_arr[node_id],
                        no_iters, transport=transport)

    return _on_threads(no_nodes, no_iters, recv_timeout, node)


def _on_threads(no_nodes: int, no_iters: int, recv_timeout: float,
                node: Callable[[int, LoopbackTransport], Value]) -> list[Value | Exception]:
    """node(node_id, transport) for every node, each on its own thread over one loopback hub."""
    hub = LoopbackHub(no_nodes, recv_timeout=recv_timeout)
    results: list[Value | Exception] = [None] * no_nodes

    def worker(node_id: int) -> None:
        try:
            results[node_id] = node(node_id, hub.transport(node_id))
        except Exception as e:
            results[node_id] = e

    threads = [
        threading.Thread(target=worker, args=(i,), name=f"node-{i}", daemon=True)
        for i in range(no_nodes)
    ]
    for t in threads:
        t.start()
    deadline = time.monotonic() + recv_timeout * no_iters * 3 + 10.0
    for t in threads:
        t.join(max(0.0, deadline - time.monotonic()))
    for i, t in enumerate(threads):
        if t.is_alive():
            results[i] = FlError(f"node {i} engine thread did not finish")
    return results


def _simulate(
    engine: str,
    callbacks: CallbackPair,
    ldata_arr: list[Value],
    pdata_arr: list[Value],
    fl_srv_id: int,
    no_iters: int,
) -> list[Value]:
    """The sequential oracle of `engine`: every node's final data."""
    if engine == CENTRALIZED:
        return sim_centralized(ldata_arr, pdata_arr, fl_srv_id, callbacks, no_iters)
    return sim_decentralized(ldata_arr, pdata_arr, callbacks, no_iters)


def launch_federation(run: ExampleRun, per_node_timeout: float = 60.0) -> LaunchResult:
    """Run `run` as `fltestbed node` processes, one per node.

    The run made its checks when it was built, so a bad run fails before
    any node starts.
    """
    return launch_all(
        LaunchSpec(
            program=(sys.executable, "-m", "fltestbed", "node", *run.node_flags()),
            no_nodes=run.no_nodes,
            fl_srv_id=run.fl_srv_id,
            base_port=run.base_port,
            per_node_timeout=per_node_timeout,
        )
    )


def run_and_verify(
    example_id: int,
    mode: str,
    no_nodes: int = 3,
    no_iters: int = 1,
    base_port: int = 6000,
    seed: int | None = None,
    kill_node: int | None = None,
    after_phase: str | None = None,
    recv_timeout: float | None = None,
    connect_timeout: float | None = None,
    per_node_timeout: float = 60.0,
) -> RunReport:
    """Execute one example in the requested mode and verify it against its oracle."""
    run = ExampleRun(example_id, no_nodes, no_iters, base_port, seed=seed,
                     recv_timeout=recv_timeout, connect_timeout=connect_timeout,
                     fault_node=kill_node, after_phase=after_phase)
    return verify_run(run, mode, per_node_timeout)


def verify_run(run: ExampleRun, mode: str, per_node_timeout: float = 60.0) -> RunReport:
    """Execute `run` in the requested mode and verify every node against the oracle.

    In-process, each node is a thread calling run.run_node over a loopback
    hub; in proc mode each is a `fltestbed node` process that builds the
    same run from its flags.
    """
    if mode not in (MODE_INPROC, MODE_PROC):
        raise ConfigError(f"mode must be '{MODE_INPROC}' or '{MODE_PROC}', got {mode!r}")
    no_nodes = run.no_nodes
    oracle = _simulate(run.spec.engine, run.spec.callbacks, run.ldata, [None] * no_nodes,
                       run.fl_srv_id, run.no_iters)

    started = time.monotonic()
    if mode == MODE_INPROC:
        raw = _on_threads(no_nodes, run.no_iters, run.recv_timeout, run.run_node)
        distributed = [
            (None, f"{type(r).__name__}: {r}") if isinstance(r, Exception) else (r, None)
            for r in raw
        ]
    else:
        launch = launch_federation(run, per_node_timeout)
        distributed = [_proc_result(launch.outcome(i)) for i in range(no_nodes)]
    wall_time = time.monotonic() - started

    per_node = []
    for node_id in range(no_nodes):
        result, diagnostic = distributed[node_id]
        match = diagnostic is None and approx_eq(result, oracle[node_id])
        per_node.append(
            NodeVerdict(
                node_id=node_id,
                distributed=result,
                oracle=oracle[node_id],
                match=match,
                diagnostic=diagnostic,
            )
        )
    return RunReport(
        example_id=run.example_id,
        mode=mode,
        no_nodes=no_nodes,
        no_iters=run.no_iters,
        per_node=per_node,
        overall_match=all(v.match for v in per_node),
        wall_time=wall_time,
    )


def _proc_result(o: NodeOutcome) -> tuple[Value, str | None]:
    """A node process's RESULT payload, or the diagnostic of why it has none."""
    node_id = o.node_id
    if o.timed_out:
        return None, f"node {node_id} exceeded the launch deadline and was terminated"
    if o.exit_code != 0:
        detail = o.stderr.strip().splitlines()
        last = detail[-1] if detail else "no diagnostic"
        return None, f"node {node_id} exited {o.exit_code}: {last}"
    found = None
    for m in _RESULT_LINE.finditer(o.stdout):
        if int(m.group(1)) == node_id:
            found = m.group(2)
    if found is None:
        return None, f"node {node_id} printed no RESULT line"
    try:
        return loads(found), None
    except FlError as e:
        return None, f"node {node_id} RESULT payload unreadable: {e}"


# --- randomized engine-vs-simulator fuzzing ---------------------------------


def _affine_client(local_data, private_data, msg):
    """Deterministic non-symmetric update on single-element lists."""
    return [(2.0 * local_data[0] + msg[0]) / 3.0]


def _weighted_server(private_data, msgs):
    """Position-weighted mean; sensitive to message ordering on purpose."""
    total = 0.0
    weight = 0.0
    for idx, lst in enumerate(msgs):
        total += (idx + 1) * lst[0]
        weight += idx + 1
    return [total / weight]


# (name, callbacks, a value in the layout of their local data)
_FUZZ_SUITES: list[tuple[str, CallbackPair, Value]] = [
    ("indicator-mean", EXAMPLES[1].callbacks, EXAMPLES[1].default_ldata[0]),
    ("pairwise-mean", EXAMPLES[2].callbacks, EXAMPLES[2].default_ldata[0]),
    ("affine-weighted", CallbackPair(_affine_client, _weighted_server), [0.0]),
]


@dataclass
class FuzzSummary:
    engine: str
    trials: int
    passed: int
    failed: int
    ordering_violations: int
    seed: int
    failures: list[dict] = field(default_factory=list)

    def to_mapping(self) -> dict:
        return {
            "engine": self.engine,
            "trials": self.trials,
            "passed": self.passed,
            "failed": self.failed,
            "orderingViolations": self.ordering_violations,
            "seed": self.seed,
            "failures": self.failures,
        }

    def to_text(self) -> str:
        return canonical_text(self.to_mapping())

    @property
    def ok(self) -> bool:
        return self.failed == 0 and self.ordering_violations == 0


def _ordering_probe(no_nodes: int, fl_srv_id: int, engine: str, no_iters: int) -> list[list[float]]:
    """Run a federation whose client replies carry the sender's node id.

    Returns, per aggregating node, the id sequence its server callback saw;
    the caller checks these against the ascending peer lists.
    """
    observed: list[list[float]] = [[] for _ in range(no_nodes)]

    def make_pair(node_id: int) -> CallbackPair:
        def client(local_data, private_data, msg):
            return [float(private_data)]

        def server(private_data, msgs):
            observed[node_id] = [m[0] for m in msgs]
            return [0.0]

        return CallbackPair(client, server)

    pairs = [make_pair(i) for i in range(no_nodes)]
    ldata_arr: list[Value] = [[float(i)] for i in range(no_nodes)]
    pdata_arr: list[Value] = [float(i) for i in range(no_nodes)]
    results = run_federation_inproc(
        no_nodes, fl_srv_id, engine, pairs, ldata_arr, pdata_arr, no_iters=no_iters
    )
    for r in results:
        if isinstance(r, Exception):
            raise r
    return observed


def fuzz_verify(engine: str, trials: int, seed: int) -> FuzzSummary:
    """Randomized federations through the in-process engine vs. the simulator."""
    if engine not in (CENTRALIZED, DECENTRALIZED):
        raise ConfigError(f"engine must be '{CENTRALIZED}' or '{DECENTRALIZED}', got {engine!r}")
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    rng = random.Random(seed)

    passed = failed = ordering_violations = 0
    failures: list[dict] = []
    for trial in range(trials):
        no_nodes = rng.randint(2, 8)
        no_iters = rng.randint(1, 3)
        fl_srv_id = rng.randrange(no_nodes)
        suite_name, callbacks, sample = _FUZZ_SUITES[rng.randrange(len(_FUZZ_SUITES))]
        readings = [rng.uniform(-1e6, 1e6) for _ in range(no_nodes)]
        ldata_arr = laid_out_like(sample, readings)
        pdata_arr: list[Value] = [None] * no_nodes

        expected = _simulate(engine, callbacks, ldata_arr, pdata_arr, fl_srv_id, no_iters)
        actual = run_federation_inproc(
            no_nodes, fl_srv_id, engine, callbacks, ldata_arr, pdata_arr, no_iters
        )

        problems = []
        for i, r in enumerate(actual):
            if isinstance(r, Exception):
                problems.append(f"node {i} raised {type(r).__name__}: {r}")
            elif not approx_eq(r, expected[i]):
                problems.append(f"node {i} got {dumps(r)}, oracle {dumps(expected[i])}")

        observed = _ordering_probe(no_nodes, fl_srv_id, engine, no_iters)
        if engine == CENTRALIZED:
            want = [float(i) for i in range(no_nodes) if i != fl_srv_id]
            if observed[fl_srv_id] != want:
                ordering_violations += 1
                problems.append(f"server saw order {observed[fl_srv_id]}, want {want}")
        else:
            for i in range(no_nodes):
                want = [float(j) for j in range(no_nodes) if j != i]
                if observed[i] != want:
                    ordering_violations += 1
                    problems.append(f"node {i} saw order {observed[i]}, want {want}")
                    break

        if problems:
            failed += 1
            failures.append(
                {
                    "trial": trial,
                    "suite": suite_name,
                    "noNodes": no_nodes,
                    "noIters": no_iters,
                    "flSrvId": fl_srv_id,
                    "ldata": ldata_arr,
                    "problems": problems,
                }
            )
        else:
            passed += 1

    return FuzzSummary(
        engine=engine,
        trials=trials,
        passed=passed,
        failed=failed,
        ordering_violations=ordering_violations,
        seed=seed,
        failures=failures,
    )
