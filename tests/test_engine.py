import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from fltestbed.engine import (
    CENTRALIZED,
    DECENTRALIZED,
    CallbackPair,
    FlConfig,
    FlInstance,
    run_node,
)
from fltestbed.errors import (
    CallbackError,
    ConfigError,
    FaultInjected,
    ProtocolTimeout,
    UsageError,
)
from fltestbed.examples import get_example, sim_centralized, sim_decentralized
from fltestbed.transport import LoopbackHub, Phase, TcpTransport
from fltestbed.values import approx_eq

from conftest import alloc_base_port


def run_federation(kind, no_nodes, fl_srv_id, engine, callbacks, ldata_arr,
                   pdata_arr=None, no_iters=1, recv_timeout=5.0):
    """Run one engine per node on threads, over loopback or real sockets.

    `callbacks` is one pair for every node or a list of one pair per node.
    """
    pairs = callbacks if isinstance(callbacks, list) else [callbacks] * no_nodes
    if pdata_arr is None:
        pdata_arr = [None] * no_nodes
    if kind == "loopback":
        base_port, transports = 6000, LoopbackHub(no_nodes, recv_timeout).transports()
    else:
        base_port, transports = alloc_base_port(no_nodes), [None] * no_nodes
    results = [None] * no_nodes

    def worker(i):
        try:
            cfg = FlConfig(no_nodes=no_nodes, node_id=i, fl_srv_id=fl_srv_id,
                           base_port=base_port, recv_timeout=recv_timeout, connect_timeout=2.0)
            results[i] = run_node(cfg, engine, pairs[i], ldata_arr[i], pdata_arr[i], no_iters,
                                  transport=transports[i])
        except Exception as e:
            results[i] = e

    threads = [threading.Thread(target=worker, args=(i,), daemon=True) for i in range(no_nodes)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(30.0)
        assert not t.is_alive()
    return results


def unwrap(results):
    for r in results:
        if isinstance(r, Exception):
            raise r
    return results


@pytest.fixture(params=["loopback", "tcp"])
def kind(request):
    return request.param


class TestConfig:
    def test_single_node_federation_rejected(self):
        with pytest.raises(ConfigError):
            FlConfig(no_nodes=1, node_id=0)

    def test_node_id_out_of_range(self):
        with pytest.raises(ConfigError):
            FlConfig(no_nodes=3, node_id=3)

    def test_fl_srv_id_out_of_range(self):
        with pytest.raises(ConfigError):
            FlConfig(no_nodes=3, node_id=0, fl_srv_id=3)

    def test_unknown_fault_point_rejected_before_any_port_is_bound(self, monkeypatch):
        bound = []
        monkeypatch.setattr("fltestbed.engine.TcpTransport", bound.append)
        with pytest.raises(ConfigError, match="fault_after_phase must be one of"):
            FlInstance(FlConfig(no_nodes=2, node_id=0), fault_after_phase="bogus")
        assert bound == []

    def test_instance_binds_expected_port(self):
        base = alloc_base_port(3)
        inst = FlInstance(FlConfig(no_nodes=3, node_id=2, fl_srv_id=2, base_port=base))
        try:
            assert inst.transport.port == base + 2
        finally:
            inst.shutdown()


class TestCentralized:
    # expected values frozen from the sequential oracles (see test_examples)
    def test_example1_federation(self, kind):
        e1 = get_example(1)
        results = unwrap(run_federation(kind, 3, 2, CENTRALIZED, e1.callbacks,
                                        [68.0, 70.5, 69.5]))
        assert results == [0.0, 1.0, 0.5]

    def test_example2_federation(self, kind):
        e2 = get_example(2)
        results = unwrap(run_federation(kind, 3, 0, CENTRALIZED, e2.callbacks,
                                        [[1], [2], [3]]))
        assert results == [[1.75], [1.5], [2.0]]

    def test_fixed_point_any_iters(self, kind):
        e2 = get_example(2)
        for iters in (1, 3):
            results = unwrap(run_federation(kind, 3, 0, CENTRALIZED, e2.callbacks,
                                            [[7.5], [7.5], [7.5]], no_iters=iters))
            assert results == [[7.5], [7.5], [7.5]]

    def test_server_gets_singleton_with_two_nodes(self, kind):
        e2 = get_example(2)
        results = unwrap(run_federation(kind, 2, 0, CENTRALIZED, e2.callbacks, [[0], [4]]))
        assert results == [[2.0], [2.0]]


class TestDecentralized:
    def test_example3_federation(self, kind):
        e3 = get_example(3)
        results = unwrap(run_federation(kind, 3, 0, DECENTRALIZED, e3.callbacks,
                                        [[1], [2], [3]]))
        assert results == [[1.75], [2.0], [2.25]]

    def test_two_nodes_symmetric_fixed_point(self, kind):
        e3 = get_example(3)
        results = unwrap(run_federation(kind, 2, 0, DECENTRALIZED, e3.callbacks, [[5], [5]]))
        assert results == [[5.0], [5.0]]

    def test_two_nodes_converge_to_pair_mean(self, kind):
        e3 = get_example(3)
        results = unwrap(run_federation(kind, 2, 0, DECENTRALIZED, e3.callbacks, [[3], [5]]))
        assert results == [[4.0], [4.0]]

    def test_fl_srv_id_is_ignored(self):
        e3 = get_example(3)
        outcomes = [
            unwrap(run_federation("loopback", 3, srv, DECENTRALIZED, e3.callbacks,
                                  [[1], [2], [3]]))
            for srv in (0, 1, 2)
        ]
        assert outcomes[0] == outcomes[1] == outcomes[2]


class TestTcpThreadCount:
    """Node threads do their own socket I/O: no thread per connection."""

    def _sampling(self, callbacks, samples):
        def server(pdata, msgs):
            samples.append(threading.active_count())
            return callbacks.server(pdata, msgs)

        return CallbackPair(callbacks.client, server)

    def test_centralized_64_nodes(self):
        n, e2, samples = 64, get_example(2), []
        ldata = [[float(i)] for i in range(n)]
        results = unwrap(run_federation("tcp", n, 0, CENTRALIZED,
                                        self._sampling(e2.callbacks, samples), ldata,
                                        no_iters=2))
        expected = sim_centralized(ldata, [None] * n, 0, e2.callbacks, 2)
        assert all(approx_eq(a, b) for a, b in zip(results, expected))
        assert len(samples) == 2
        assert max(samples) <= n + 2, samples

    def test_decentralized_16_nodes(self):
        n, e3, samples = 16, get_example(3), []
        ldata = [[float(i)] for i in range(n)]
        results = unwrap(run_federation("tcp", n, 0, DECENTRALIZED,
                                        self._sampling(e3.callbacks, samples), ldata,
                                        no_iters=2))
        expected = sim_decentralized(ldata, [None] * n, e3.callbacks, 2)
        assert all(approx_eq(a, b) for a, b in zip(results, expected))
        assert len(samples) == 2 * n
        assert max(samples) <= n + 2, samples


class TestCallbackObservations:
    def test_server_msgs_sorted_ascending(self):
        seen = []

        def client(ldata, pdata, msg):
            return [float(pdata)]

        def server(pdata, msgs):
            seen.append([m[0] for m in msgs])
            return [0.0]

        pair = CallbackPair(client, server)
        unwrap(run_federation("loopback", 5, 2, CENTRALIZED, pair,
                              [[float(i)] for i in range(5)],
                              [float(i) for i in range(5)]))
        assert seen == [[0.0, 1.0, 3.0, 4.0]]

    def test_centralized_cardinality(self):
        client_calls = [0] * 4
        server_sizes = []

        def make_pair(node_id):
            def client(ldata, pdata, msg):
                client_calls[node_id] += 1
                return ldata

            def server(pdata, msgs):
                server_sizes.append(len(msgs))
                return msgs[0]

            return CallbackPair(client, server)

        pairs = [make_pair(i) for i in range(4)]
        unwrap(run_federation("loopback", 4, 0, CENTRALIZED, pairs,
                              [[float(i)] for i in range(4)], no_iters=3))
        assert client_calls == [0, 3, 3, 3]
        assert server_sizes == [3, 3, 3]

    def test_iteration_chaining_rebroadcasts_server_state(self):
        # a client records each broadcast; iteration 1 must carry the server's
        # iteration-0 aggregate
        e2 = get_example(2)
        broadcasts = []

        def recording_client(ldata, pdata, msg):
            broadcasts.append(msg)
            return e2.callbacks.client(ldata, pdata, msg)

        pairs = [
            e2.callbacks,
            CallbackPair(recording_client, e2.callbacks.server),
            e2.callbacks,
        ]
        unwrap(run_federation("loopback", 3, 0, CENTRALIZED, pairs,
                              [[1], [2], [3]], no_iters=2))
        expected_iter0_aggregate = sim_centralized([[1], [2], [3]], [None] * 3, 0,
                                                   e2.callbacks, 1)[0]
        assert broadcasts[0] == [1.0]
        assert broadcasts[1] == expected_iter0_aggregate

    def test_decentralized_phase2_uses_iteration_start_data(self):
        e3 = get_example(3)
        observed = []

        def recording_client(ldata, pdata, msg):
            observed.append(ldata)
            return e3.callbacks.client(ldata, pdata, msg)

        pairs = [
            CallbackPair(recording_client, e3.callbacks.server),
            e3.callbacks,
            e3.callbacks,
        ]
        unwrap(run_federation("loopback", 3, 0, DECENTRALIZED, pairs,
                              [[1], [2], [3]], no_iters=2))
        # two invocations per iteration, all seeing the iteration-start value
        assert observed[0] == observed[1] == [1.0]
        assert observed[2] == observed[3]
        expected_iter1_start = sim_decentralized([[1], [2], [3]], [None] * 3,
                                                 e3.callbacks, 1)[0]
        assert observed[2] == expected_iter1_start


class TestFailurePaths:
    def test_missing_peer_times_out_with_phase_and_nodes(self):
        # node 1 is bound but silent: the server delivers its broadcast, then
        # waits for a CLI_DATA reply that never comes
        e2 = get_example(2)
        base_port = alloc_base_port(3)
        silent = FlInstance(FlConfig(no_nodes=3, node_id=1, fl_srv_id=0, base_port=base_port))
        server = FlInstance(FlConfig(no_nodes=3, node_id=0, fl_srv_id=0, base_port=base_port,
                                     recv_timeout=0.8, connect_timeout=2.0))
        client_result = {}

        def client_worker():
            inst = FlInstance(FlConfig(no_nodes=3, node_id=2, fl_srv_id=0,
                                       base_port=base_port, recv_timeout=5.0))
            try:
                client_result["r"] = inst.fl_centralized(e2.callbacks, [3])
            finally:
                inst.shutdown()

        t = threading.Thread(target=client_worker, daemon=True)
        t.start()
        try:
            with pytest.raises(ProtocolTimeout) as exc:
                server.fl_centralized(e2.callbacks, [1])
            assert exc.value.phase.value == "CLI_DATA"
            assert exc.value.iteration == 0
            assert exc.value.missing == (1,)
            t.join(10.0)
            assert client_result["r"] == [2.0]
        finally:
            silent.shutdown()

    def test_callback_error_propagates(self):
        def bad_server(pdata, msgs):
            raise RuntimeError("boom")

        e2 = get_example(2)
        pair = CallbackPair(e2.callbacks.client, bad_server)
        results = run_federation("loopback", 2, 0, CENTRALIZED, [pair, e2.callbacks],
                                 [[1], [2]])
        assert isinstance(results[0], CallbackError)
        assert "boom" in str(results[0])
        assert results[1] == [1.5]

    def test_invalid_no_iters(self):
        inst = FlInstance(FlConfig(no_nodes=2, node_id=0), transport=_DummyTransport())
        e2 = get_example(2)
        with pytest.raises(ConfigError):
            inst.fl_centralized(e2.callbacks, [1], no_iters=0)
        # the iteration count is checked before the instance's state
        inst.shutdown()
        with pytest.raises(ConfigError, match="no_iters must be >= 1, got 0"):
            inst.fl_decentralized(e2.callbacks, [1], no_iters=0)


class _DummyTransport:
    def close(self):
        pass


class TestShutdown:
    def test_shutdown_releases_port_for_rebind(self):
        base = alloc_base_port(2)
        cfg = FlConfig(no_nodes=2, node_id=0, base_port=base)
        inst = FlInstance(cfg)
        inst.shutdown()
        inst2 = FlInstance(cfg)
        inst2.shutdown()

    def test_double_shutdown_is_noop(self):
        inst = FlInstance(FlConfig(no_nodes=2, node_id=0), transport=_DummyTransport())
        inst.shutdown()
        inst.shutdown()

    def test_engine_after_shutdown_rejected(self):
        inst = FlInstance(FlConfig(no_nodes=2, node_id=0), transport=_DummyTransport())
        inst.shutdown()
        with pytest.raises(UsageError):
            inst.fl_centralized(get_example(2).callbacks, [1])

    def test_second_run_on_busy_instance_rejected(self):
        base = alloc_base_port(2)
        cfg = FlConfig(no_nodes=2, node_id=0, fl_srv_id=1, base_port=base,
                       recv_timeout=1.0, connect_timeout=1.0)
        inst = FlInstance(cfg)
        pair = get_example(2).callbacks
        blocked = threading.Event()

        def runner():
            blocked.set()
            try:
                inst.fl_centralized(pair, [1])
            except ProtocolTimeout:
                pass

        t = threading.Thread(target=runner, daemon=True)
        t.start()
        blocked.wait(5.0)
        time.sleep(0.1)
        with pytest.raises(UsageError):
            inst.fl_centralized(pair, [1])
        t.join(10.0)

    def test_shutdown_during_run_rejected(self):
        # node 0 runs as a client, so it blocks waiting for a broadcast that
        # never arrives; shutting down mid-wait must be refused
        base = alloc_base_port(2)
        cfg = FlConfig(no_nodes=2, node_id=0, fl_srv_id=1, base_port=base,
                       recv_timeout=1.0, connect_timeout=1.0)
        inst = FlInstance(cfg)
        started = threading.Event()
        done = {}

        def runner():
            started.set()
            try:
                inst.fl_centralized(get_example(2).callbacks, [1])
            except Exception as e:
                done["e"] = e

        t = threading.Thread(target=runner, daemon=True)
        t.start()
        started.wait(5.0)
        time.sleep(0.1)  # let the engine block in recv
        with pytest.raises(UsageError):
            inst.shutdown()
        t.join(10.0)
        assert isinstance(done.get("e"), ProtocolTimeout)


class TestRunGuard:
    def test_unreachable_fault_point_rejected_before_any_send(self):
        # node 0 passes `srv` as the centralized server, never in a decentralized run
        hub = LoopbackHub(2, recv_timeout=0.3)
        inst = FlInstance(FlConfig(no_nodes=2, node_id=0), transport=hub.transport(0),
                          fault_after_phase="srv")
        peer = hub.transport(1)
        pair = get_example(2).callbacks
        with pytest.raises(ConfigError, match="node 0 never reaches fault point srv in a decent"):
            inst.fl_decentralized(pair, [1])
        with pytest.raises(ProtocolTimeout):
            peer.recv_matching(Phase.DEC_P1, 0, (0,))
        # the instance is neither closed nor busy: a centralized run reaches `srv`
        with pytest.raises(FaultInjected, match="after phase srv"):
            inst.fl_centralized(pair, [1])
        (env,) = peer.recv_matching(Phase.SRV_DATA, 0, (0,))
        assert env.payload == [1.0]

    def test_run_that_raises_releases_the_port(self):
        def bad_server(pdata, msgs):
            raise RuntimeError("boom")

        e2 = get_example(2)
        base = alloc_base_port(2)
        cfgs = [FlConfig(no_nodes=2, node_id=i, fl_srv_id=0, base_port=base,
                         recv_timeout=5.0, connect_timeout=2.0) for i in range(2)]
        server = FlInstance(cfgs[0])
        client = {}

        def client_worker():
            client["r"] = run_node(cfgs[1], CENTRALIZED, e2.callbacks, [2.0])

        t = threading.Thread(target=client_worker, daemon=True)
        t.start()
        with pytest.raises(CallbackError, match="boom"):
            server.fl_centralized(CallbackPair(e2.callbacks.client, bad_server), [1.0])
        # no shutdown(): the failed run closed the transport itself
        TcpTransport(cfgs[0]).close()
        with pytest.raises(UsageError, match="instance already shut down"):
            server.fl_centralized(e2.callbacks, [1.0])
        t.join(10.0)
        assert not t.is_alive()
        assert client["r"] == [1.5]


single_values = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=1, max_value=3),
    st.data(),
)
def test_centralized_matches_simulator(no_nodes, no_iters, data):
    fl_srv_id = data.draw(st.integers(min_value=0, max_value=no_nodes - 1))
    ldata = [[data.draw(single_values)] for _ in range(no_nodes)]
    e2 = get_example(2)
    expected = sim_centralized(ldata, [None] * no_nodes, fl_srv_id, e2.callbacks, no_iters)
    actual = unwrap(run_federation("loopback", no_nodes, fl_srv_id, CENTRALIZED,
                                   e2.callbacks, ldata, no_iters=no_iters))
    assert all(approx_eq(a, b) for a, b in zip(actual, expected))


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=1, max_value=3),
    st.data(),
)
def test_decentralized_matches_simulator(no_nodes, no_iters, data):
    ldata = [[data.draw(single_values)] for _ in range(no_nodes)]
    e3 = get_example(3)
    expected = sim_decentralized(ldata, [None] * no_nodes, e3.callbacks, no_iters)
    actual = unwrap(run_federation("loopback", no_nodes, 0, DECENTRALIZED,
                                   e3.callbacks, ldata, no_iters=no_iters))
    assert all(approx_eq(a, b) for a, b in zip(actual, expected))


class TestRunNode:
    @pytest.mark.parametrize("server_fails", [False, True])
    def test_tcp_port_is_released(self, server_fails):
        def bad_server(pdata, msgs):
            raise RuntimeError("boom")

        e2 = get_example(2)
        pairs = [CallbackPair(e2.callbacks.client, bad_server) if server_fails else e2.callbacks,
                 e2.callbacks]
        base = alloc_base_port(2)
        results = [None, None]

        def worker(i):
            cfg = FlConfig(no_nodes=2, node_id=i, fl_srv_id=0, base_port=base,
                           recv_timeout=5.0, connect_timeout=2.0)
            try:
                results[i] = run_node(cfg, CENTRALIZED, pairs[i], [float(i + 1)])
            except Exception as e:
                results[i] = e

        threads = [threading.Thread(target=worker, args=(i,), daemon=True) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30.0)
        if server_fails:
            assert isinstance(results[0], CallbackError)
        else:
            assert results[0] == [1.5]
        assert results[1] == [1.5]
        # the same base port binds again at once
        for i in range(2):
            TcpTransport(FlConfig(no_nodes=2, node_id=i, base_port=base)).close()

    def test_unknown_engine_rejected(self):
        cfg = FlConfig(no_nodes=2, node_id=0)
        with pytest.raises(ConfigError):
            run_node(cfg, "centralized", get_example(2).callbacks, [1.0])
