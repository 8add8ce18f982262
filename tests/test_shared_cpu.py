"""An engine run off the main thread pins itself to the main thread's first CPU.

So the in-process nodes of a federation share one CPU. A run on the main
thread, as in a node process, keeps the kernel's placement, and every
thread gets its own CPU set back when its run ends, however the run ends.
"""

import os
import subprocess
import sys
import threading
from dataclasses import replace

import pytest

from fltestbed.engine import CENTRALIZED, DECENTRALIZED, CallbackPair, FlConfig
from fltestbed.errors import CallbackError
from fltestbed.examples import Run, example_run, sim_centralized, sim_decentralized
from fltestbed.harness import MODE_INPROC, run_and_verify, verify_run
from fltestbed.launcher import LaunchSpec, node_argv
from fltestbed.transport import LoopbackHub
from fltestbed.values import approx_eq

from conftest import alloc_base_port
from test_engine import run_instance


def mean_client(ldata, pdata, msg):
    return [(a + b) / 2 for a, b in zip(ldata, msg)]


def mean_server(pdata, msgs):
    return [sum(col) / len(col) for col in zip(*msgs)]


MEAN = CallbackPair(mean_client, mean_server)


def oracle(eng, ldata, no_iters):
    pdata = [None] * len(ldata)
    if eng == CENTRALIZED:
        return sim_centralized(ldata, pdata, 0, MEAN, no_iters)
    return sim_decentralized(ldata, pdata, MEAN, no_iters)


class Recorder:
    """MEAN, logging the CPU set that each callback runs on."""

    def __init__(self):
        self.masks = []
        self.pair = CallbackPair(self._client, self._server)

    def _client(self, ldata, pdata, msg):
        self.masks.append(frozenset(os.sched_getaffinity(0)))
        return mean_client(ldata, pdata, msg)

    def _server(self, pdata, msgs):
        self.masks.append(frozenset(os.sched_getaffinity(0)))
        return mean_server(pdata, msgs)


def federation(kind, eng, pair, ldata, no_iters=1, calls=1, narrow=(), recv_timeout=5.0):
    """`calls` engine calls on node threads over loopback or TCP.

    Returns each node's results, and its thread's CPU set before the first
    call and after the last. A node in `narrow` starts on its last CPU only.
    """
    no_nodes = len(ldata)
    if kind == "loopback":
        base_port = 6000
        hubs = [LoopbackHub(no_nodes, recv_timeout) for _ in range(calls)]
        transports = [[hub.transport(i) for hub in hubs] for i in range(no_nodes)]
    else:
        base_port, transports = alloc_base_port(no_nodes), [[None] * calls] * no_nodes
    results = [[] for _ in range(no_nodes)]
    before, after = [None] * no_nodes, [None] * no_nodes

    def worker(i):
        if i in narrow:
            os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        before[i] = os.sched_getaffinity(0)
        cfg = FlConfig(no_nodes=no_nodes, node_id=i, base_port=base_port,
                       recv_timeout=recv_timeout, connect_timeout=2.0)
        for transport in transports[i]:
            try:
                results[i].append(run_instance(cfg, eng, pair, ldata[i], None, no_iters,
                                               transport))
            except Exception as e:
                results[i].append(e)
        after[i] = os.sched_getaffinity(0)

    threads = [threading.Thread(target=worker, args=(i,), daemon=True) for i in range(no_nodes)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(60.0)
        assert not t.is_alive()
    return results, before, after


@pytest.mark.parametrize("kind,no_nodes", [("loopback", 4), ("tcp", 3)])
@pytest.mark.parametrize("eng", [CENTRALIZED, DECENTRALIZED])
def test_in_process_nodes_share_one_cpu_and_get_their_own_set_back(kind, no_nodes, eng):
    rec = Recorder()
    ldata = [[float(i), 2.0 * i] for i in range(no_nodes)]
    results, before, after = federation(kind, eng, rec.pair, ldata, no_iters=3,
                                        narrow={no_nodes - 1})
    assert all(approx_eq(r, e) for (r,), e in zip(results, oracle(eng, ldata, 3)))
    assert set(rec.masks) == {frozenset({min(os.sched_getaffinity(0))})}
    assert before == after
    assert before[-1] == {max(os.sched_getaffinity(0))}


def node_0_here_and_node_1_in_a_process():
    """Run node 0 of a 2-node example-3 run on this thread; node 1 is a `fltestbed node` process.

    Returns the CPU set that each of node 0's client callbacks ran on.
    """
    run = example_run(3, 2, 2, alloc_base_port(2), seed=5)
    spec = LaunchSpec((sys.executable, "-m", "fltestbed", "node", *run.node_flags()),
                      run.no_nodes, run.fl_srv_id, run.base_port)
    node1 = subprocess.Popen(node_argv(spec, 1), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             text=True)
    try:
        masks = []

        def client(ldata, pdata, msg):
            masks.append(os.sched_getaffinity(0))
            return run.callbacks.client(ldata, pdata, msg)

        result = replace(run, callbacks=CallbackPair(client, run.callbacks.server)).run_node(0)
        out, err = node1.communicate(timeout=30.0)
    finally:
        node1.kill()
        node1.wait()
    assert node1.returncode == 0, err
    assert out.startswith("RESULT 1 ")
    assert approx_eq(result, sim_decentralized(*zip(*map(run.node_data, range(2))),
                                               run.callbacks, 2)[0])
    return masks


def test_a_run_alone_in_its_process_is_not_pinned(monkeypatch):
    calls = []
    monkeypatch.setattr(os, "sched_setaffinity", lambda *a: calls.append(a))
    original = os.sched_getaffinity(0)
    assert node_0_here_and_node_1_in_a_process() == [original] * 2
    assert calls == []


def test_without_affinity_calls_runs_behave_as_before(monkeypatch):
    monkeypatch.delattr(os, "sched_setaffinity")
    rec = Recorder()
    ldata = [[1.0], [2.0], [4.0]]
    (results, before, after) = federation("loopback", CENTRALIZED, rec.pair, ldata)
    assert [r for (r,) in results] == oracle(CENTRALIZED, ldata, 1)
    assert set(rec.masks) == {frozenset(os.sched_getaffinity(0))}
    assert before == after


def test_a_thread_that_cannot_be_pinned_runs_unpinned(monkeypatch):
    def refuse(tid, cpus):
        raise OSError(22, "Invalid argument")

    monkeypatch.setattr(os, "sched_setaffinity", refuse)
    rec = Recorder()
    ldata = [[1.0], [2.0], [4.0]]
    results, before, after = federation("loopback", DECENTRALIZED, rec.pair, ldata)
    assert [r for (r,) in results] == oracle(DECENTRALIZED, ldata, 1)
    assert set(rec.masks) == {frozenset(os.sched_getaffinity(0))}
    assert before == after


def _raise_in_client_of_node_1(ldata, pdata, msg):
    if ldata == [2.0]:
        raise RuntimeError("boom")
    return mean_client(ldata, pdata, msg)


@pytest.fixture
def run_node_masks(monkeypatch):
    """Node id -> its thread's CPU set before and after its Run.run_node call."""
    masks = {}
    run_node = Run.run_node

    def recording(self, node_id, *args):
        before = os.sched_getaffinity(0)
        try:
            return run_node(self, node_id, *args)
        finally:
            masks[node_id] = before, os.sched_getaffinity(0)

    monkeypatch.setattr(Run, "run_node", recording)
    return masks


def test_each_thread_gets_its_set_back_after_a_clean_run_and_a_callback_error():
    ldata = [[1.0], [2.0], [4.0]]
    results, before, after = federation("loopback", CENTRALIZED, MEAN, ldata)
    assert [r for (r,) in results] == oracle(CENTRALIZED, ldata, 1)
    assert before == after == [os.sched_getaffinity(0)] * 3

    failing = CallbackPair(_raise_in_client_of_node_1, mean_server)
    results, before, after = federation("loopback", CENTRALIZED, failing, ldata,
                                        recv_timeout=0.5)
    assert isinstance(results[1][0], CallbackError)
    assert before == after == [os.sched_getaffinity(0)] * 3


def test_each_thread_gets_its_set_back_after_a_fault_injected_crash(run_node_masks):
    report = run_and_verify(3, MODE_INPROC, kill_node=1, after_phase="p1", recv_timeout=0.5)
    assert report.per_node[1].diagnostic == (
        "FaultInjected: fault injection: node 1 crashing after phase p1")
    full = os.sched_getaffinity(0)
    assert run_node_masks == {i: (full, full) for i in range(3)}


def leave_node_1_stuck(release, masks):
    """Verify a 3-node run in-process whose node 1 thread blocks in its callback until `release`.

    That thread outlives the run's deadline; `masks` gets the CPU set its callback runs on.
    """
    def client(ldata, pdata, msg):
        if threading.current_thread().name == "node-1":  # not in the oracle's replay
            masks.append(os.sched_getaffinity(0))
            release.wait(30.0)
        return mean_client(ldata, pdata, msg)

    run = Run(CENTRALIZED, CallbackPair(client, mean_server), [[1.0], [2.0], [4.0]],
              recv_timeout=30.0)
    report = verify_run(run, MODE_INPROC, per_node_timeout=0.5)
    assert report.per_node[1].diagnostic == "FlError: node 1 engine thread did not finish"


def join_new_threads(others):
    for t in set(threading.enumerate()) - others:
        t.join(30.0)
        assert not t.is_alive()


def test_each_thread_gets_its_set_back_after_a_run_stopped_at_its_deadline(run_node_masks):
    release = threading.Event()
    stuck = []
    others = set(threading.enumerate())
    leave_node_1_stuck(release, stuck)
    release.set()
    join_new_threads(others)
    full = os.sched_getaffinity(0)
    assert stuck == [{min(full)}]
    assert run_node_masks == {i: (full, full) for i in range(3)}


def test_a_main_thread_run_is_not_pinned_while_a_leaked_node_thread_lives():
    # the leaked thread is still pinned; the main thread's run must not follow it
    release = threading.Event()
    stuck = []
    others = set(threading.enumerate())
    original = os.sched_getaffinity(0)
    try:
        leave_node_1_stuck(release, stuck)
        masks = node_0_here_and_node_1_in_a_process()
    finally:
        release.set()
        join_new_threads(others)
    assert stuck == [{min(original)}]
    assert masks == [original] * 2


def test_three_federations_at_once_under_rapid_thread_switches():
    # 3 loopback federations of 4 nodes, 50 one-round engine calls each
    rec = Recorder()
    ldata = [[float(i), 1.0 + i] for i in range(4)]
    engines = (CENTRALIZED, DECENTRALIZED, CENTRALIZED)
    outcomes = [None] * 3
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        def federation_of(j):
            outcomes[j] = federation("loopback", engines[j], rec.pair, ldata, calls=50)

        threads = [threading.Thread(target=federation_of, args=(j,), daemon=True)
                   for j in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(120.0)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    for eng, (results, before, after) in zip(engines, outcomes):
        expected = oracle(eng, ldata, 1)
        assert all(approx_eq(r, [expected[i]] * 50) for i, r in enumerate(results)), eng
        assert before == after == [os.sched_getaffinity(0)] * 4
    (mask,) = set(rec.masks)
    assert len(mask) == 1
    assert len(rec.masks) == 50 * (4 + 4 * 4 + 4)
