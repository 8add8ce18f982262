"""Verification harness: run a callback pair, compare every node to the oracle.

A run is an examples.Run, checked once when it is built; a built-in
example's canonical run is its examples.EXAMPLES entry. verify_run, the
one simulate-run-compare path, runs it either in-process (one thread per
node calling run.run_node over a loopback hub) or, for a built-in
example, as node processes spawned by launch_federation, each of which
builds the same run from its flags. It replays the matching sequential
simulator on the same inputs and reports per-node agreement at the default
tolerances; a report holds only valid payloads. launch_federation is also
what `fltestbed launch` runs.
fuzz_verify runs randomized federations through verify_run; every trial
also runs the sender-order pair, and a fixed seed reproduces the exact
trial sequence.
"""

from __future__ import annotations

import json
import random
import re
import sys
import threading
import time
from dataclasses import dataclass, field

from .engine import CENTRALIZED, CallbackPair
from .errors import ConfigError, FlError, SerializationError
from .examples import (
    EXAMPLES,
    Run,
    example_run,
    laid_out_like,
    sim_centralized,
    sim_decentralized,
)
from .launcher import LaunchResult, LaunchSpec, NodeOutcome, launch_all
from .transport import LoopbackHub
from .values import Value, approx_eq, dumps, format_number, loads, validate_value

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
    example_id: int | None  # None for a run that is not a built-in example
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


def _simulate(run: Run) -> list[Value]:
    """The sequential oracle of `run`'s engine: every node's final data."""
    if run.engine == CENTRALIZED:
        return sim_centralized(run.ldata, run.pdata, run.fl_srv_id, run.callbacks, run.no_iters)
    return sim_decentralized(run.ldata, run.pdata, run.callbacks, run.no_iters)


def launch_federation(run: Run, per_node_timeout: float = 60.0) -> LaunchResult:
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
    run = example_run(example_id, no_nodes, no_iters, base_port, seed=seed,
                      recv_timeout=recv_timeout, connect_timeout=connect_timeout,
                      fault_node=kill_node, after_phase=after_phase)
    return verify_run(run, mode, per_node_timeout)


def verify_run(run: Run, mode: str, per_node_timeout: float = 60.0) -> RunReport:
    """Execute `run` in the requested mode and verify every node against the oracle.

    In-process, each node is a thread calling run.run_node over a loopback
    hub; in proc mode each is a `fltestbed node` process that builds the
    same run from its flags. Either mode gives every node until
    per_node_timeout after the start; then every in-process receive fails,
    and only a thread stuck in a callback outlives the run. A node result
    or oracle state that is not a valid payload is reported as that node's
    SerializationError, with null in its place. An oracle that raises is
    reported on every node without a diagnostic of its own.
    """
    if mode not in (MODE_INPROC, MODE_PROC):
        raise ConfigError(f"mode must be '{MODE_INPROC}' or '{MODE_PROC}', got {mode!r}")
    no_nodes = run.no_nodes
    started = time.monotonic()
    if mode == MODE_INPROC:
        hub = LoopbackHub(no_nodes, recv_timeout=run.recv_timeout)
        finished: list[tuple[Value, str | None]] = [(None, None)] * no_nodes

        def worker(node_id: int) -> None:
            try:
                result = run.run_node(node_id, hub.transport(node_id))
                validate_value(result)
                finished[node_id] = result, None
            except Exception as e:
                finished[node_id] = None, f"{type(e).__name__}: {e}"

        threads = [threading.Thread(target=worker, args=(i,), name=f"node-{i}", daemon=True)
                   for i in range(no_nodes)]
        for t in threads:
            t.start()
        distributed = []
        for i, t in enumerate(threads):
            t.join(max(0.0, started + per_node_timeout - time.monotonic()))
            distributed.append((None, f"FlError: node {i} engine thread did not finish")
                               if t.is_alive() else finished[i])
        hub.fail(FlError("in-process run stopped at its deadline"))
    else:
        launch = launch_federation(run, per_node_timeout)
        distributed = [_proc_result(launch.outcome(i)) for i in range(no_nodes)]
    wall_time = time.monotonic() - started

    oracle_error = None
    try:
        oracle = _simulate(run)
    except Exception as e:
        oracle, oracle_error = [None] * no_nodes, f"oracle raised {type(e).__name__}: {e}"

    per_node = []
    for node_id in range(no_nodes):
        result, diagnostic = distributed[node_id]
        expected = oracle[node_id]
        try:
            validate_value(expected)
        except SerializationError as e:
            expected, diagnostic = None, diagnostic or f"oracle gave SerializationError: {e}"
        diagnostic = diagnostic or oracle_error
        match = diagnostic is None and approx_eq(result, expected)
        per_node.append(
            NodeVerdict(
                node_id=node_id,
                distributed=result,
                oracle=expected,
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
    ("indicator-mean", EXAMPLES[1].callbacks, EXAMPLES[1].ldata[0]),
    ("pairwise-mean", EXAMPLES[2].callbacks, EXAMPLES[2].ldata[0]),
    ("affine-weighted", CallbackPair(_affine_client, _weighted_server), [0.0]),
]


# Node i replies with its id (its private data), and each server callback
# keeps the sender order it saw; the oracles give it in ascending node order.
_SENDER_ORDER = CallbackPair(
    client=lambda local_data, private_data, msg: [private_data],
    server=lambda private_data, msgs: [m[0] for m in msgs],
)


@dataclass
class FuzzSummary:
    engine: str
    trials: int
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
    def passed(self) -> int:
        return self.trials - self.failed

    @property
    def ok(self) -> bool:
        return self.failed == 0


def _disagreements(run: Run) -> list[str]:
    """One line per node of an in-process run that raised or differs from the oracle."""
    return [
        f"node {v.node_id} raised {v.diagnostic}" if v.diagnostic is not None
        else f"node {v.node_id} got {dumps(v.distributed)}, oracle {dumps(v.oracle)}"
        for v in verify_run(run, MODE_INPROC).per_node
        if not v.match
    ]


def fuzz_verify(engine: str, trials: int, seed: int) -> FuzzSummary:
    """Randomized federations through the in-process engine vs. the simulator.

    Every trial also runs the sender-order pair on the same federation; a
    trial whose sender-order run disagrees with its oracle counts as one
    ordering violation.
    """
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    rng = random.Random(seed)

    ordering_violations = 0
    failures: list[dict] = []
    for trial in range(trials):
        no_nodes = rng.randint(2, 8)
        no_iters = rng.randint(1, 3)
        fl_srv_id = rng.randrange(no_nodes)
        suite_name, callbacks, sample = _FUZZ_SUITES[rng.randrange(len(_FUZZ_SUITES))]
        readings = [rng.uniform(-1e6, 1e6) for _ in range(no_nodes)]
        ldata_arr = laid_out_like(sample, readings)

        problems = _disagreements(Run(engine, callbacks, ldata_arr, None, no_iters,
                                      fl_srv_id=fl_srv_id))
        ids = [float(i) for i in range(no_nodes)]
        misordered = _disagreements(Run(engine, _SENDER_ORDER, [[i] for i in ids], ids,
                                        no_iters, fl_srv_id=fl_srv_id))
        if misordered:
            ordering_violations += 1
            problems += [f"sender order: {p}" for p in misordered]
        if problems:
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

    return FuzzSummary(
        engine=engine,
        trials=trials,
        failed=len(failures),
        ordering_violations=ordering_violations,
        seed=seed,
        failures=failures,
    )
