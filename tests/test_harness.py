import json
import math
import re
import subprocess
import sys
import threading
import time
from dataclasses import replace

import pytest

from fltestbed.engine import CENTRALIZED, DECENTRALIZED, CallbackPair, fault_points
from fltestbed.errors import ConfigError, TransportError
from fltestbed.examples import EXAMPLES, Run, ex2_client, ex2_server, example_run
from fltestbed.launcher import LaunchSpec, NodeOutcome, node_argv
from fltestbed.transport import Phase, _MessageBuffer
from fltestbed.values import loads
from fltestbed.harness import (
    MODE_INPROC,
    MODE_PROC,
    _proc_result,
    canonical_text,
    fuzz_verify,
    run_and_verify,
    verify_run,
)

from conftest import alloc_base_port


def _strip_wall_time(report_mapping: dict) -> dict:
    trimmed = dict(report_mapping)
    trimmed.pop("wallTime")
    return trimmed


class TestRunAndVerifyInproc:
    @pytest.mark.parametrize(
        "example_id,expected",
        [
            (1, [0.0, 1.0, 0.5]),
            (2, [[1.75], [1.5], [2.0]]),
            (3, [[1.75], [2.0], [2.25]]),
        ],
    )
    def test_canonical_examples_match(self, example_id, expected):
        report = run_and_verify(example_id, MODE_INPROC)
        assert report.overall_match
        assert [v.distributed for v in report.per_node] == expected
        assert [v.oracle for v in report.per_node] == expected
        assert all(v.diagnostic is None for v in report.per_node)

    def test_randomized_run_with_seed(self):
        report = run_and_verify(2, MODE_INPROC, no_nodes=5, seed=123, no_iters=2)
        assert report.no_nodes == 5
        assert report.overall_match

    def test_canonical_dataset_requires_three_nodes(self):
        with pytest.raises(ConfigError):
            run_and_verify(2, MODE_INPROC, no_nodes=4)

    @pytest.mark.parametrize("mode", [MODE_INPROC, MODE_PROC])
    def test_bad_fault_point_fails_before_any_node_starts(self, mode, monkeypatch):
        from fltestbed import examples, harness

        started = []
        monkeypatch.setattr(harness, "launch_all", started.append)
        monkeypatch.setattr(examples, "FlInstance", lambda *a, **k: started.append(a))
        with pytest.raises(ConfigError, match="fault point must be one of"):
            run_and_verify(3, mode, kill_node=1, after_phase="bogus")
        assert started == []

    def test_fault_injection_inproc(self):
        report = run_and_verify(3, MODE_INPROC, kill_node=1, after_phase="p1",
                                recv_timeout=0.5)
        assert not report.overall_match
        assert "fault injection" in report.per_node[1].diagnostic
        timeouts = [v.diagnostic for v in report.per_node if v.node_id != 1]
        assert any("DEC_P2" in d for d in timeouts if d)

    def test_report_determinism(self):
        a = run_and_verify(3, MODE_INPROC, seed=9)
        b = run_and_verify(3, MODE_INPROC, seed=9)
        assert _strip_wall_time(a.to_mapping()) == _strip_wall_time(b.to_mapping())


class TestRunAndVerifyProc:
    def test_example1_proc(self, base_port):
        report = run_and_verify(1, MODE_PROC, base_port=base_port)
        assert report.overall_match
        assert [v.distributed for v in report.per_node] == [0.0, 1.0, 0.5]

    def test_mode_equivalence(self, base_port):
        proc = run_and_verify(2, MODE_PROC, base_port=base_port)
        inproc = run_and_verify(2, MODE_INPROC)
        assert [v.distributed for v in proc.per_node] == [v.distributed for v in inproc.per_node]
        assert _strip_wall_time(proc.to_mapping())["perNode"] == \
            _strip_wall_time(inproc.to_mapping())["perNode"]

    def test_kill_node_diagnostics(self, base_port):
        report = run_and_verify(3, MODE_PROC, base_port=base_port, kill_node=1,
                                after_phase="p1", recv_timeout=2.0, connect_timeout=2.0)
        assert not report.overall_match
        assert report.per_node[1].match is False
        surviving = [v.diagnostic for v in report.per_node if v.node_id != 1]
        for diag in surviving:
            assert diag is not None and "1" in diag
        assert any("DEC_P2" in d for d in surviving)

    @pytest.mark.parametrize("mode", [MODE_INPROC, MODE_PROC])
    def test_kill_server_after_broadcast(self, mode, base_port):
        # centralized srv fault: every client gets the broadcast, then either
        # its reply fails against the dead server (named CLI_DATA error) or
        # lands in the dying server's backlog and the client completes; the
        # run as a whole must fail on the server either way
        report = run_and_verify(2, mode, base_port=base_port, kill_node=0,
                                after_phase="srv", recv_timeout=2.0, connect_timeout=2.0)
        assert not report.overall_match
        assert "fault injection" in report.per_node[0].diagnostic
        for v in report.per_node:
            if v.node_id == 0:
                continue
            completed = v.match and v.diagnostic is None
            failed_reply = v.diagnostic is not None and "0" in v.diagnostic \
                and "CLI_DATA" in v.diagnostic
            assert completed or failed_reply, (v.node_id, v.diagnostic)

    def test_kill_client_after_reply_degrades_gracefully(self, base_port):
        # the dead client already delivered its reply, so with one iteration
        # every other node still completes and matches the oracle
        report = run_and_verify(2, MODE_PROC, base_port=base_port, kill_node=1,
                                after_phase="cli", recv_timeout=2.0, connect_timeout=2.0)
        assert not report.overall_match
        assert "fault injection" in report.per_node[1].diagnostic
        assert report.per_node[0].match is True


def _diagnostic(mode: str, node_id: int, error: str, text: str) -> str:
    """How a node's `error` with message `text` reads in a report of `mode`."""
    if mode == MODE_INPROC:
        return f"{error}: {text}"
    return f"node {node_id} exited {2 if error == 'ProtocolTimeout' else 1}: error: {text}"


def _survivor_verdict_allowed(mode: str, point: str, fault_node: int, verdict) -> bool:
    """Whether a survivor's verdict is one that a crash at `point` allows."""
    if verdict.diagnostic is None:
        return verdict.match and point != "p1"
    if point == "srv":
        return verdict.diagnostic.startswith(_diagnostic(
            mode, verdict.node_id, "TransportError",
            f"send to node {fault_node} failed (CLI_DATA iteration 0)"))
    if point not in ("p1", "p2"):
        return False
    timeout = re.escape(_diagnostic(mode, verdict.node_id, "ProtocolTimeout", "timeout after "))
    return bool(re.match(timeout + r"[0-9.]+s waiting for \d+ DEC_P2 envelope\(s\) at "
                                   r"iteration 0: ", verdict.diagnostic)) \
        or verdict.diagnostic.startswith(_diagnostic(
            mode, verdict.node_id, "TransportError",
            f"send to node {fault_node} failed (DEC_P2 iteration 0)"))


class TestFaultOutcomes:
    """Every reachable fault pair of the built-in examples' canonical runs."""

    @pytest.mark.parametrize("example_id,fault_node,point,mode", [
        (2, 0, "srv", MODE_INPROC),
        (2, 1, "cli", MODE_INPROC),
        (1, 2, "srv", MODE_INPROC),
        (1, 0, "cli", MODE_INPROC),
        (3, 1, "p1", MODE_INPROC),
        (3, 1, "p2", MODE_INPROC),
        (3, 1, "p2", MODE_PROC),
    ])
    def test_crash_and_survivor_verdicts(self, example_id, fault_node, point, mode, base_port):
        timeout = 0.5 if mode == MODE_INPROC else 2.0
        report = run_and_verify(example_id, mode, base_port=base_port, kill_node=fault_node,
                                after_phase=point, recv_timeout=timeout, connect_timeout=2.0)
        crashed = report.per_node[fault_node]
        assert crashed.diagnostic == _diagnostic(
            mode, fault_node, "FaultInjected",
            f"fault injection: node {fault_node} crashing after phase {point}")
        assert crashed.distributed is None and not crashed.match
        for v in report.per_node:
            if v.node_id != fault_node:
                assert _survivor_verdict_allowed(mode, point, fault_node, v), \
                    (v.node_id, v.diagnostic)


class TestReportFormat:
    def test_key_order_and_canonical_numbers(self):
        report = run_and_verify(2, MODE_INPROC)
        text = report.to_text()
        assert text.startswith('{"exampleId":2,"mode":"inproc","noNodes":3,"noIters":1,"perNode":[')
        assert '"distributedResult":[1.75]' in text
        assert '"overallMatch":true' in text
        # node 2's pairwise mean is exactly 2.0, canonically "2"
        assert '"distributedResult":[2],"oracleResult":[2]' in text
        # canonical text is also valid JSON for downstream tools
        parsed = json.loads(text)
        assert parsed["perNode"][0]["nodeId"] == 0

    def test_canonical_text_primitives(self):
        assert canonical_text({"a": True, "b": None, "c": [1.5, 2.0]}) == \
            '{"a":true,"b":null,"c":[1.5,2]}'


class TestFuzz:
    def test_deterministic_for_fixed_seed(self):
        a = fuzz_verify(CENTRALIZED, 10, seed=7)
        b = fuzz_verify(CENTRALIZED, 10, seed=7)
        assert a.to_mapping() == b.to_mapping()

    def test_all_zero_data_passes(self):
        summary = fuzz_verify(DECENTRALIZED, 5, seed=0)
        assert summary.passed == 5
        assert summary.ordering_violations == 0

    def test_bad_engine_rejected(self):
        with pytest.raises(ConfigError):
            fuzz_verify("bogus", 1, seed=0)

    # node 0's line in trial 2 (affine-weighted) of seed 0 with rotated replies
    _AFFINE_LINES = {
        CENTRALIZED: "node 0 got [-48107.32375129073], oracle [-279341.37160073797]",
        DECENTRALIZED: "node 0 got [-188871.31316130774], oracle [-112884.71020744897]",
    }

    @pytest.mark.parametrize("engine", [CENTRALIZED, DECENTRALIZED])
    def test_rotated_replies_are_ordering_violations(self, engine, monkeypatch):
        # every server callback gets its replies rotated by one sender
        take = _MessageBuffer.take

        def rotated(self, phase, iteration, senders, timeout):
            got = take(self, phase, iteration, senders, timeout)
            if phase in (Phase.CLI_DATA, Phase.DEC_P2):
                got = got[1:] + got[:1]
            return got

        monkeypatch.setattr(_MessageBuffer, "take", rotated)
        summary = fuzz_verify(engine, 10, seed=0)
        assert summary.ordering_violations > 0
        assert summary.failed >= summary.ordering_violations
        assert not summary.ok
        problems = {f["trial"]: f["problems"] for f in summary.failures}
        # trial 0: 8 nodes, server node 6
        assert "sender order: node 6 got [1,2,3,4,5,7,0], oracle [0,1,2,3,4,5,7]" in problems[0]
        assert summary.failures[2]["suite"] == "affine-weighted"
        assert self._AFFINE_LINES[engine] in problems[2]

    def test_failed_receive_names_the_node(self, monkeypatch):
        # the server's receive of the replies fails; the clients' iteration-1
        # receives are capped so that they time out quickly instead
        take = _MessageBuffer.take

        def failing(self, phase, iteration, senders, timeout):
            if phase is Phase.CLI_DATA:
                raise TransportError("injected")
            return take(self, phase, iteration, senders, min(timeout, 1.0))

        monkeypatch.setattr(_MessageBuffer, "take", failing)
        summary = fuzz_verify(CENTRALIZED, 1, seed=0)
        (failure,) = summary.failures
        assert (failure["trial"], failure["flSrvId"]) == (0, 6)
        assert "node 6 raised TransportError: injected" in failure["problems"]
        assert "sender order: node 6 raised TransportError: injected" in failure["problems"]


def _mean_client(local_data, private_data, msg):
    return [(a + b) / 2 for a, b in zip(local_data, msg)]


def _mean_server(private_data, msgs):
    return [sum(column) / len(msgs) for column in zip(*msgs)]


_MEAN = CallbackPair(_mean_client, _mean_server)
_MEAN_LDATA = ([1.0, 2.0], [3.0, 4.0], [5.0, 7.0])


class TestRun:
    """A Run of a callback pair that is not a built-in example."""

    @pytest.mark.parametrize("engine", [CENTRALIZED, DECENTRALIZED])
    def test_any_pair_verifies_inproc(self, engine):
        report = verify_run(Run(engine, _MEAN, _MEAN_LDATA), MODE_INPROC)
        assert report.overall_match, report.to_text()
        assert report.to_mapping()["exampleId"] is None

    @pytest.mark.parametrize("example_id,results", [
        (2, [[1.75], [1.5], [2.0]]),
        (3, [[1.75], [2.0], [2.25]]),
    ])
    def test_client_writing_its_local_data_leaves_the_run_alone(self, example_id, results):
        # each node and the oracle get copies of their own: a client that
        # writes into local_data changes neither EXAMPLES nor a later run
        canonical = EXAMPLES[example_id]

        def client(local_data, private_data, msg):
            reply = ex2_client(local_data, private_data, msg)
            local_data[0] = 99.0
            return reply

        report = verify_run(replace(canonical, callbacks=CallbackPair(client, ex2_server)),
                            MODE_INPROC)
        if canonical.engine == CENTRALIZED:
            # a decentralized node hands one start list to all its client
            # calls, so there the write is an impure pair's own mismatch
            assert report.overall_match, report.to_text()
        assert EXAMPLES[example_id] is canonical
        assert canonical.ldata == ([1], [2], [3])
        again = run_and_verify(example_id, MODE_INPROC)
        assert again.overall_match
        assert [v.distributed for v in again.per_node] == results

    @pytest.mark.parametrize("engine", [CENTRALIZED, DECENTRALIZED])
    def test_raising_client_is_a_callback_error_on_each_client(self, engine):
        def client(local_data, private_data, msg):
            raise RuntimeError("boom")

        run = Run(engine, CallbackPair(client, _mean_server), _MEAN_LDATA, recv_timeout=0.5)
        report = verify_run(run, MODE_INPROC)
        assert not report.overall_match
        clients = [v for v in report.per_node if engine == DECENTRALIZED or v.node_id != 0]
        assert [v.diagnostic for v in clients] == \
            ["CallbackError: client callback failed at iteration 0: boom"] * len(clients)

    @pytest.mark.parametrize("role", ["client", "server"])
    @pytest.mark.parametrize("engine", [CENTRALIZED, DECENTRALIZED])
    def test_raising_callback_error_names_role_and_iteration(self, engine, role):
        # each node's data counts the iterations; the `role` callback raises in iteration 1
        def client(local_data, private_data, msg):
            if role == "client" and msg == [1.0]:
                raise RuntimeError("boom")
            return msg

        def server(private_data, msgs):
            if role == "server" and msgs[0] == [1.0]:
                raise RuntimeError("boom")
            return [msgs[0][0] + 1.0]

        run = Run(engine, CallbackPair(client, server), [[0.0] for _ in range(3)], no_iters=2,
                  recv_timeout=0.5)
        verdicts = verify_run(run, MODE_INPROC).per_node
        raisers = [v for v in verdicts
                   if engine == DECENTRALIZED or (v.node_id == 0) == (role == "server")]
        assert [v.diagnostic for v in raisers] == \
            [f"CallbackError: {role} callback failed at iteration 1: boom"] * len(raisers)

    def test_oracle_failure_is_reported_on_nodes_without_a_diagnostic(self):
        # only node 2's data makes the client raise: node 1 completes, but
        # the oracle raised too, so node 1 has nothing to be compared with
        def client(local_data, private_data, msg):
            if local_data[0] > 4:
                raise RuntimeError("boom")
            return _mean_client(local_data, private_data, msg)

        run = Run(CENTRALIZED, CallbackPair(client, _mean_server), _MEAN_LDATA,
                  recv_timeout=0.5)
        verdicts = verify_run(run, MODE_INPROC).per_node
        assert [v.match for v in verdicts] == [False] * 3
        assert verdicts[0].diagnostic.startswith("ProtocolTimeout: ")
        assert verdicts[1].diagnostic == "oracle raised RuntimeError: boom"
        assert verdicts[2].diagnostic == \
            "CallbackError: client callback failed at iteration 0: boom"

    @pytest.mark.parametrize("engine", [CENTRALIZED, DECENTRALIZED])
    def test_tuple_returning_client_is_a_serialization_error(self, engine):
        # the oracle accepts the tuples; a send does not
        def client(local_data, private_data, msg):
            return tuple(_mean_client(local_data, private_data, msg))

        run = Run(engine, CallbackPair(client, _mean_server), _MEAN_LDATA, recv_timeout=0.5)
        report = verify_run(run, MODE_INPROC)
        assert not report.overall_match
        clients = [v for v in report.per_node if engine == DECENTRALIZED or v.node_id != 0]
        assert all(v.diagnostic.startswith("SerializationError: ") for v in clients), \
            [v.diagnostic for v in clients]

    # server callbacks whose result is no payload; the oracle computes the same
    @pytest.mark.parametrize("server", [
        lambda private_data, msgs: [msgs[0][0] * 1e308 * 10],
        lambda private_data, msgs: (msgs[0][0],),
    ], ids=["inf", "tuple"])
    def test_server_result_that_is_no_payload_is_a_serialization_error(self, server):
        report = verify_run(Run(CENTRALIZED, CallbackPair(_mean_client, server), _MEAN_LDATA),
                            MODE_INPROC)
        mapping = json.loads(report.to_text())
        server_verdict, *clients = mapping["perNode"]
        assert server_verdict["diagnostic"].startswith("SerializationError: ")
        assert server_verdict["distributedResult"] is None
        assert server_verdict["oracleResult"] is None
        assert [v["match"] for v in clients] == [True, True]

    def test_inproc_deadline_is_the_per_node_timeout(self):
        gate = threading.Event()

        def client(local_data, private_data, msg):
            if threading.current_thread().name == "node-1":
                gate.wait()
            return _mean_client(local_data, private_data, msg)

        run = Run(CENTRALIZED, CallbackPair(client, _mean_server), _MEAN_LDATA, recv_timeout=0.5)
        started = time.monotonic()
        try:
            report = verify_run(run, MODE_INPROC, per_node_timeout=1.0)
            elapsed = time.monotonic() - started
        finally:
            gate.set()
        (straggler,) = [t for t in threading.enumerate() if t.name == "node-1"]
        straggler.join(10)
        assert not straggler.is_alive()
        assert elapsed < 5
        assert report.per_node[1].diagnostic == "FlError: node 1 engine thread did not finish"
        assert report.per_node[1].distributed is None

    def test_inproc_deadline_stops_threads_blocked_in_a_receive(self):
        # node 0 waits for node 1's reply with the default 30 s recv_timeout
        gate = threading.Event()

        def client(local_data, private_data, msg):
            if threading.current_thread().name == "node-1":
                gate.wait()
            return _mean_client(local_data, private_data, msg)

        run = Run(CENTRALIZED, CallbackPair(client, _mean_server), _MEAN_LDATA)
        before = set(threading.enumerate())
        try:
            report = verify_run(run, MODE_INPROC, per_node_timeout=1.0)
            servers = [t for t in threading.enumerate() if t.name == "node-0" and t not in before]
            for t in servers:
                t.join(5)
            assert not any(t.is_alive() for t in servers)
        finally:
            gate.set()
        assert [v.diagnostic for v in report.per_node[:2]] == \
            [f"FlError: node {i} engine thread did not finish" for i in range(2)]

    def test_invalid_payload_is_handed_on_uncopied_for_the_send_to_reject(self):
        run = Run(CENTRALIZED, _MEAN, ([math.inf], [1.0], [2.0]), recv_timeout=0.3)
        assert run.node_data(0)[0] is run.ldata[0]
        report = verify_run(run, MODE_INPROC)
        assert report.per_node[0].diagnostic == \
            "SerializationError: non-finite number in payload: inf"
        assert [v.oracle for v in report.per_node] == [None] * 3

    @pytest.mark.parametrize("mode", [MODE_INPROC, MODE_PROC])
    @pytest.mark.parametrize("seconds", [math.nan, math.inf, -1.0])
    def test_deadline_that_is_not_positive_and_finite_fails_before_any_node_starts(
            self, mode, seconds, monkeypatch):
        # in-process, a nan or negative deadline reported a running node as not finished
        from fltestbed import examples, harness

        started = []
        monkeypatch.setattr(harness, "launch_all", started.append)
        monkeypatch.setattr(examples, "FlInstance", lambda *a, **k: started.append(a))
        with pytest.raises(ConfigError, match="per_node_timeout must be"):
            verify_run(EXAMPLES[2], mode, per_node_timeout=seconds)
        assert started == []

    def test_proc_mode_needs_a_built_in_example(self, monkeypatch):
        from fltestbed import harness

        started = []
        monkeypatch.setattr(harness, "launch_all", started.append)
        with pytest.raises(ConfigError, match="built-in example"):
            verify_run(Run(CENTRALIZED, _MEAN, _MEAN_LDATA), MODE_PROC)
        assert started == []

    # (Run keywords, text the error must contain)
    @pytest.mark.parametrize("case", [
        ({"engine": "centralized"}, "engine must be"),
        ({"pdata": (None, None)}, "2 pdata entries for 3 nodes"),
        ({"ldata": ([1.0],)}, "no_nodes must be an integer >= 2"),
        ({"fault_node": 1}, "must be given together"),
        ({"fault_node": 0, "after_phase": "cli"}, "node 0 never reaches fault point cli"),
        ({"no_iters": 0}, "no_iters must be >= 1"),
        # a proc node could not parse these flags
        ({"base_port": 21100.0}, "base_port must be an integer, got 21100.0"),
        ({"fl_srv_id": 0.0}, "fl_srv_id must be an integer, got 0.0"),
        ({"fl_srv_id": True}, "fl_srv_id must be an integer, got True"),
        ({"no_iters": 2.0}, "no_iters must be an integer, got 2.0"),
        ({"no_iters": True}, "no_iters must be an integer, got True"),
        ({"fault_node": 1.0, "after_phase": "cli"}, "fault_node must be an integer, got 1.0"),
        ({"fault_node": True, "after_phase": "cli"}, "fault_node must be an integer, got True"),
        ({"recv_timeout": "5"}, "recv_timeout must be a number of seconds, got '5'"),
        ({"connect_timeout": None}, "connect_timeout must be a number of seconds, got None"),
    ])
    def test_bad_run_rejected_when_built(self, case):
        kwargs, reason = case
        with pytest.raises(ConfigError, match=reason):
            Run(**{"engine": CENTRALIZED, "callbacks": _MEAN, "ldata": _MEAN_LDATA, **kwargs})


# (outcome of node process 1, the diagnostic of its missing result)
@pytest.mark.parametrize("case", [
    (NodeOutcome(1, None, "", "", 2.0, timed_out=True),
     "node 1 exceeded the launch deadline and was terminated"),
    (NodeOutcome(1, 0, "RESULT 0 [1]\n", "", 0.1), "node 1 printed no RESULT line"),
    (NodeOutcome(1, 0, "RESULT 1 [1,\n", "", 0.1),
     "node 1 RESULT payload unreadable: malformed payload: Expecting value (byte offset 3)"),
], ids=["timed-out", "no-result-line", "unreadable-result"])
def test_proc_result_diagnostics(case):
    outcome, diagnostic = case
    assert _proc_result(outcome) == (None, diagnostic)


def run_cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "fltestbed", *args],
        capture_output=True,
        text=True,
        timeout=120,
    )


class TestCli:
    def test_verify_exit_zero_on_match(self):
        res = run_cli("verify", "--example", "1", "--mode", "inproc")
        assert res.returncode == 0
        report = json.loads(res.stdout)
        assert report["overallMatch"] is True

    def test_verify_exit_one_on_mismatch(self, base_port):
        res = run_cli("verify", "--example", "3", "--mode", "proc",
                      "--base-port", str(base_port),
                      "--kill-node", "0", "--after-phase", "p1",
                      "--recv-timeout", "2", "--connect-timeout", "2")
        assert res.returncode == 1
        report = json.loads(res.stdout)
        assert report["overallMatch"] is False

    def test_verify_report_file(self, tmp_path):
        path = tmp_path / "report.json"
        res = run_cli("verify", "--example", "2", "--mode", "inproc",
                      "--report", str(path))
        assert res.returncode == 0
        assert json.loads(path.read_text())["overallMatch"] is True

    def test_node_prints_single_result_line(self, base_port):
        procs = [
            subprocess.Popen(
                [sys.executable, "-m", "fltestbed", "node", "--example", "2",
                 "--no-nodes", "3", "--node-id", str(i), "--fl-srv-id", "0",
                 "--base-port", str(base_port)],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
            for i in range(3)
        ]
        outs = [p.communicate(timeout=60) for p in procs]
        assert all(p.returncode == 0 for p in procs)
        assert [o.strip() for o, _ in outs] == \
            ["RESULT 0 [1.75]", "RESULT 1 [1.5]", "RESULT 2 [2]"]

    def test_node_config_error_exit_code(self):
        res = run_cli("node", "--example", "2", "--no-nodes", "4", "--node-id", "0",
                      "--fl-srv-id", "0", "--base-port", "6000")
        assert res.returncode == 1
        assert "error:" in res.stderr

    def test_launch_relays_results(self, base_port):
        res = run_cli("launch", "--example", "2", "--base-port", str(base_port))
        assert res.returncode == 0
        assert "RESULT 0 [1.75]" in res.stdout

    def test_launch_default_server_id_matches_verify(self, base_port):
        # example 1's canonical server is node 2; a 2-node launch clamps it like verify
        res = run_cli("launch", "--example", "1", "--nodes", "2", "--seed", "1",
                      "--base-port", str(base_port))
        assert res.returncode == 0, res.stderr
        lines = sorted(ln.split(" ", 2) for ln in res.stdout.splitlines()
                       if ln.startswith("RESULT"))
        launched = [loads(text) for _, _, text in lines]
        report = run_and_verify(1, MODE_INPROC, no_nodes=2, seed=1)
        assert report.overall_match
        assert [int(node_id) for _, node_id, _ in lines] == [0, 1]
        assert launched == [v.distributed for v in report.per_node]

    def test_fuzz_cli_summary(self):
        res = run_cli("fuzz", "--engine", "cent", "--trials", "5", "--seed", "1")
        assert res.returncode == 0
        assert res.stdout == ('{"engine":"cent","trials":5,"passed":5,"failed":0,'
                              '"orderingViolations":0,"seed":1,"failures":[]}\n')

    def test_one_parser_serves_back_to_back_calls(self, monkeypatch, capsys):
        # main reuses the parser built at import: each call gives what the same
        # argv gives in a fresh process, and no value of one call reaches the next
        from fltestbed import cli

        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal
        seen, example_run_of = [], cli._example_run

        def recording(args):
            seen.append(vars(args).copy())
            return example_run_of(args)

        monkeypatch.setattr(cli, "_example_run", recording)
        verify = ["verify", "--example", "2", "--mode", "inproc"]
        calls = [
            verify,
            ["node", "--example", "2", "--iters", "0", "--no-nodes", "3", "--node-id", "0",
             "--fl-srv-id", "2"],  # one `error:` line, exit 1
            ["verify", "--example", "9", "--mode", "inproc"],  # argparse: usage, exit 2
            verify,
        ]
        wall_time = re.compile(r'"wallTime":[^,}]+')
        for argv in calls:
            try:
                code = cli.main(argv)
            except SystemExit as e:
                code = e.code
            out, err = capsys.readouterr()
            fresh = run_cli(*argv)
            assert (code, wall_time.sub("", out), err) == \
                (fresh.returncode, wall_time.sub("", fresh.stdout), fresh.stderr), argv
        assert [(args["command"], args["fl_srv_id"], args["iters"]) for args in seen] == \
            [("verify", None, 1), ("node", 2, 0), ("verify", None, 1)]
        assert seen[0] == seen[2]

    def test_node_argv_rebuilds_the_run(self):
        # canonical and seeded data, default and non-default settings, with
        # and without each fault pair the run's nodes reach: a node process
        # rebuilds the run, fault pair included, that Run checked
        from fltestbed.cli import _example_run, build_parser

        runs = []
        settings = ({}, {"no_iters": 2, "base_port": 7000, "recv_timeout": 1.5,
                         "connect_timeout": 2.5})
        for example_id in EXAMPLES:
            for no_nodes, seed in ((3, None), (4, 5)):
                for kwargs in settings:
                    run = example_run(example_id, no_nodes, seed=seed, **kwargs)
                    runs += [run] + [
                        example_run(example_id, no_nodes, seed=seed, fault_node=node,
                                    after_phase=point, **kwargs)
                        for node in range(no_nodes)
                        for point in fault_points(run.engine, node == run.fl_srv_id)]
        # example 1's canonical server is node 2, clamped to node 1 in a 2-node run
        runs.append(example_run(1, 2, seed=1))
        assert runs[-1].fl_srv_id == 1
        parser = build_parser()
        for run in runs:
            spec = LaunchSpec(program=("node", *run.node_flags()), no_nodes=run.no_nodes,
                              fl_srv_id=run.fl_srv_id, base_port=run.base_port)
            for node_id in range(run.no_nodes):
                args = parser.parse_args(node_argv(spec, node_id))
                assert args.node_id == node_id
                assert _example_run(args) == run, node_argv(spec, node_id)

    def test_launch_and_verify_build_the_same_node_program(self, monkeypatch):
        from fltestbed import cli, harness

        class Captured(Exception):
            pass

        specs = []

        def capture(spec):
            specs.append(spec)
            raise Captured

        monkeypatch.setattr(harness, "launch_all", capture)
        with pytest.raises(Captured):
            cli.main(["launch", "--example", "3", "--nodes", "4", "--iters", "2",
                      "--seed", "5", "--base-port", "7000", "--recv-timeout", "1.5",
                      "--connect-timeout", "2.5", "--fault-node", "1", "--after-phase", "p1"])
        with pytest.raises(Captured):
            run_and_verify(3, MODE_PROC, no_nodes=4, no_iters=2, seed=5, base_port=7000,
                           recv_timeout=1.5, connect_timeout=2.5, kill_node=1,
                           after_phase="p1")
        launched, verified = specs
        assert launched.program == verified.program
        assert "--fault-node" in launched.program and "--seed" in launched.program
        assert (launched.no_nodes, launched.fl_srv_id, launched.base_port) == \
            (verified.no_nodes, verified.fl_srv_id, verified.base_port)

    # (argv, text the error must contain)
    @pytest.mark.parametrize("case", [
        (["launch", "--example", "3", "--after-phase", "p1"], "fault node"),
        (["launch", "--example", "3", "--fault-node", "1"], "fault node"),
        (["launch", "--example", "3", "--nodes", "3", "--fault-node", "3", "--after-phase", "p1"],
         "fault node"),
        (["node", "--example", "3", "--no-nodes", "3", "--node-id", "0", "--fault-node", "1"],
         "fault node"),
        (["launch", "--example", "2", "--nodes", "4"], "canonical 3-node dataset"),
        (["launch", "--example", "2", "--iters", "0"], "no_iters must be >= 1"),
        (["launch", "--example", "2", "--base-port", "70000"], "port range"),
        (["launch", "--example", "2", "--recv-timeout", "0"], "recv_timeout must be positive"),
        (["verify", "--example", "3", "--mode", "proc", "--base-port", "70000"], "port range"),
        (["verify", "--example", "3", "--mode", "inproc", "--recv-timeout", "0"],
         "recv_timeout must be positive"),
        (["verify", "--example", "3", "--mode", "inproc", "--connect-timeout", "0"],
         "connect_timeout must be positive"),
        (["verify", "--example", "3", "--mode", "inproc", "--base-port", "70000"], "port range"),
        (["verify", "--example", "3", "--mode", "inproc", "--kill-node", "1",
          "--after-phase", "srv"], "node 1 never reaches fault point srv in a decent run"),
        (["verify", "--example", "2", "--mode", "inproc", "--kill-node", "0",
          "--after-phase", "cli"], "node 0 never reaches fault point cli in a cent run"),
        (["verify", "--example", "2", "--mode", "inproc", "--kill-node", "1",
          "--after-phase", "srv"], "node 1 never reaches fault point srv in a cent run"),
        (["verify", "--example", "2", "--mode", "inproc", "--kill-node", "1",
          "--after-phase", "p1"], "node 1 never reaches fault point p1 in a cent run"),
        # example 1's canonical server is node 2, clamped to node 1 in a 2-node run
        (["launch", "--example", "1", "--nodes", "2", "--seed", "1", "--fault-node", "1",
          "--after-phase", "cli"], "node 1 never reaches fault point cli in a cent run"),
        (["verify", "--example", "3", "--mode", "inproc", "--report", "no-such-dir/report.json"],
         "cannot write the report to no-such-dir/report.json: No such file or directory"),
        (["verify", "--example", "3", "--mode", "inproc", "--report", "."],
         "cannot write the report to .: Is a directory"),
    ])
    def test_bad_run_fails_before_any_node_starts(self, case, monkeypatch, capsys):
        from fltestbed import cli, examples, harness

        argv, reason = case

        started = []
        monkeypatch.setattr(harness, "launch_all", started.append)
        monkeypatch.setattr(examples, "FlInstance", lambda *a, **k: started.append(a))
        assert cli.main(argv) == 1
        out, err = capsys.readouterr()
        assert err.splitlines() == [err.strip()] and err.startswith("error: ")
        assert reason in err
        assert "usage:" not in out + err
        assert started == []

    # every timeout flag with a value that is not a finite number of seconds
    @pytest.mark.parametrize("argv", [
        [*cmd, f"{flag}={value}"]
        for cmd, flags in [
            (["verify", "--example", "2", "--mode", "inproc"], ("--recv-timeout", "--connect-timeout")),
            (["verify", "--example", "2", "--mode", "proc"], ("--recv-timeout", "--connect-timeout")),
            (["launch", "--example", "2"], ("--timeout",)),
        ]
        for flag in flags
        for value in ("nan", "inf", "-inf")
    ])
    def test_timeout_that_is_not_finite_fails_before_any_node_starts(self, argv, monkeypatch,
                                                                     capsys):
        from fltestbed import cli, examples, harness

        started = []
        monkeypatch.setattr(harness, "launch_all", started.append)
        monkeypatch.setattr(examples, "FlInstance", lambda *a, **k: started.append(a))
        assert cli.main(argv) == 1
        out, err = capsys.readouterr()
        assert err.splitlines() == [err.strip()] and err.startswith("error: ")
        value = argv[-1].split("=")[1]
        assert err.strip().endswith("must be positive" if value == "-inf" else
                                    f"must be finite, got {value}")
        assert "usage:" not in out + err
        assert started == []

    def test_cli_surface(self):
        # (option strings, default, required, choices) of every flag, per subcommand
        import argparse

        from fltestbed.cli import build_parser

        points = ("srv", "cli", "p1", "p2")
        run = {
            (("--example",), None, True, (1, 2, 3)),
            (("--base-port",), 6000, False, None),
            (("--iters",), 1, False, None),
            (("--seed",), None, False, None),
            (("--recv-timeout",), None, False, None),
            (("--connect-timeout",), None, False, None),
            (("--after-phase",), None, False, points),
        }
        expected = {
            "node": run | {
                (("--fl-srv-id",), None, False, None),
                (("--fault-node",), None, False, None),
                (("--no-nodes",), None, True, None),
                (("--node-id",), None, True, None),
            },
            "launch": run | {
                (("--fl-srv-id",), None, False, None),
                (("--fault-node",), None, False, None),
                (("--nodes",), 3, False, None),
                (("--timeout",), 60.0, False, None),
            },
            "verify": run | {
                (("--kill-node",), None, False, None),
                (("--mode",), None, True, ("inproc", "proc")),
                (("--nodes",), 3, False, None),
                (("--report",), None, False, None),
            },
            "fuzz": {
                (("--engine",), None, True, ("cent", "decent")),
                (("--trials",), 100, False, None),
                (("--seed",), 0, False, None),
            },
        }
        (sub,) = [a for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)]
        surface = {
            name: {(tuple(a.option_strings), a.default, a.required,
                    None if a.choices is None else tuple(a.choices))
                   for a in parser._actions if not isinstance(a, argparse._HelpAction)}
            for name, parser in sub.choices.items()
        }
        assert surface == expected
