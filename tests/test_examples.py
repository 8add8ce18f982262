import sys

import pytest
from hypothesis import given, settings, strategies as st

from fltestbed.engine import CallbackPair
from fltestbed.errors import ConfigError
from fltestbed.examples import (
    EXAMPLES,
    Run,
    ex1_client,
    ex1_server,
    ex2_client,
    ex2_server,
    example_run,
    generate_ldata,
    get_example,
    seq_example1,
    seq_example2,
    sim_centralized,
    sim_decentralized,
)
from fltestbed.values import approx_eq

EPS = sys.float_info.epsilon


class TestExample1Callbacks:
    def test_below_threshold(self):
        assert ex1_client(68.0, None, 69.5) == 0.0

    def test_above_threshold(self):
        assert ex1_client(70.5, None, 69.5) == 1.0

    def test_boundary_is_strict(self):
        assert ex1_client(69.5, None, 69.5) == 0.0

    def test_type_errors(self):
        with pytest.raises(TypeError):
            ex1_client([68.0], None, 69.5)
        with pytest.raises(TypeError):
            ex1_server(None, [[1.0]])

    def test_server_mean(self):
        assert ex1_server(None, [0.0, 1.0]) == 0.5
        assert ex1_server(None, [1.0]) == 1.0

    def test_server_rejects_empty(self):
        with pytest.raises(ValueError):
            ex1_server(None, [])


class TestExample2Callbacks:
    def test_pairwise_mean(self):
        assert ex2_client([2], None, [1]) == [1.5]
        assert ex2_client([3], None, [1]) == [2.0]

    def test_mean_of_equals(self):
        assert ex2_client([4.25], None, [4.25]) == [4.25]

    def test_shape_errors(self):
        with pytest.raises(TypeError):
            ex2_client(2, None, [1])
        with pytest.raises(TypeError):
            ex2_client([1, 2], None, [1])
        with pytest.raises(TypeError):
            ex2_server(None, [[1.5], 2.0])

    def test_server_mean(self):
        assert ex2_server(None, [[1.5], [2.0]]) == [1.75]
        assert ex2_server(None, [[7.0]]) == [7.0]
        assert ex2_server(None, [[1.5], [2.0], [2.5]]) == [2.0]

    def test_server_rejects_empty(self):
        with pytest.raises(ValueError):
            ex2_server(None, [])

    def test_example3_reuses_example2_callbacks(self):
        assert EXAMPLES[3].callbacks.client is EXAMPLES[2].callbacks.client
        assert EXAMPLES[3].callbacks.server is EXAMPLES[2].callbacks.server


class TestSequentialReferences:
    def test_seq_example1_canonical(self):
        assert seq_example1([68.0, 70.5, 69.5], 2) == 0.5

    def test_seq_example1_edges(self):
        assert seq_example1([0, 0], 1) == 0.0
        assert seq_example1([1, 0], 1) == 1.0

    def test_seq_example1_bad_server_index(self):
        with pytest.raises(ConfigError):
            seq_example1([1.0, 2.0], 5)

    def test_seq_example2_canonical(self):
        assert seq_example2([[1], [2], [3]], 0) == [1.75]

    def test_seq_example2_edges(self):
        assert seq_example2([[4.5], [4.5]], 0) == [4.5]
        assert seq_example2([[0], [4]], 0) == [2.0]


class TestSimulators:
    def test_centralized_example2(self):
        got = sim_centralized([[1], [2], [3]], [None] * 3, 0, EXAMPLES[2].callbacks, 1)
        assert got == [[1.75], [1.5], [2.0]]

    def test_centralized_example1(self):
        got = sim_centralized([68.0, 70.5, 69.5], [None] * 3, 2, EXAMPLES[1].callbacks, 1)
        assert got == [0.0, 1.0, 0.5]

    def test_centralized_ordering_visible_to_server(self):
        # identity client + head-taking server: the aggregate must be the
        # lowest-numbered client's initial data
        pair = CallbackPair(client=lambda l, p, m: l, server=lambda p, msgs: msgs[0])
        got = sim_centralized([[10], [20], [30]], [None] * 3, 1, pair, 1)
        assert got[1] == [10]

    def test_decentralized_ordering_visible_to_server(self):
        # the client replies with its own initial data: node i must aggregate
        # every other node's, in ascending sender order
        pair = CallbackPair(client=lambda l, p, m: l, server=lambda p, msgs: msgs)
        got = sim_decentralized([[10], [20], [30]], [None] * 3, pair, 1)
        assert got == [[[20], [30]], [[10], [30]], [[10], [20]]]

    def test_decentralized_example3(self):
        got = sim_decentralized([[1], [2], [3]], [None] * 3, EXAMPLES[3].callbacks, 1)
        assert got == [[1.75], [2.0], [2.25]]

    def test_decentralized_two_nodes(self):
        got = sim_decentralized([[3.0], [5.0]], [None] * 2, EXAMPLES[3].callbacks, 1)
        assert got == [[4.0], [4.0]]

    def test_decentralized_symmetry(self):
        got = sim_decentralized([[9.5]] * 4, [None] * 4, EXAMPLES[3].callbacks, 2)
        assert got == [[9.5]] * 4

    def test_decentralized_two_node_mean_conservation(self):
        a, b = 12.25, -3.5
        got = sim_decentralized([[a], [b]], [None] * 2, EXAMPLES[3].callbacks, 1)
        assert got == [[(a + b) / 2], [(a + b) / 2]]


readings = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


@settings(max_examples=100, deadline=None)
@given(st.lists(readings, min_size=2, max_size=8), st.data())
def test_sim_centralized_server_entry_equals_seq_example1_bitwise(arr, data):
    fl_srv_id = data.draw(st.integers(min_value=0, max_value=len(arr) - 1))
    sim = sim_centralized(arr, [None] * len(arr), fl_srv_id, EXAMPLES[1].callbacks, 1)
    assert sim[fl_srv_id] == seq_example1(arr, fl_srv_id)


@settings(max_examples=100, deadline=None)
@given(st.lists(readings, min_size=2, max_size=8), st.data())
def test_sim_centralized_server_entry_equals_seq_example2_bitwise(arr, data):
    fl_srv_id = data.draw(st.integers(min_value=0, max_value=len(arr) - 1))
    ldata = [[x] for x in arr]
    sim = sim_centralized(ldata, [None] * len(arr), fl_srv_id, EXAMPLES[2].callbacks, 1)
    assert sim[fl_srv_id] == seq_example2(ldata, fl_srv_id)


@settings(max_examples=100, deadline=None)
@given(readings, readings)
def test_indicator_range(reading, threshold):
    assert ex1_client(reading, None, threshold) in (0.0, 1.0)


def _mean_slack(values: list[float]) -> float:
    # floating summation can push the mean a few ulps past the extremes
    return 4 * len(values) * EPS * max(1.0, max(abs(v) for v in values))


@settings(max_examples=100, deadline=None)
@given(st.lists(readings, min_size=1, max_size=8))
def test_mean_bounds_ex1(values):
    mean = ex1_server(None, [float(v > 0) for v in values])
    assert 0.0 <= mean <= 1.0


@settings(max_examples=100, deadline=None)
@given(st.lists(readings, min_size=1, max_size=8))
def test_mean_bounds_ex2(values):
    (mean,) = ex2_server(None, [[v] for v in values])
    slack = _mean_slack(values)
    assert min(values) - slack <= mean <= max(values) + slack


@settings(max_examples=100, deadline=None)
@given(st.lists(readings, min_size=1, max_size=8), st.randoms(use_true_random=False))
def test_ex2_server_permutation_insensitive(values, rnd):
    # summation order changes the result by at most a few ulps of sum(|x|)
    shuffled = list(values)
    rnd.shuffle(shuffled)
    (a,) = ex2_server(None, [[v] for v in values])
    (b,) = ex2_server(None, [[v] for v in shuffled])
    tol = max(1e-12, 4 * EPS * sum(abs(v) for v in values))
    assert approx_eq(a, b, rel_tol=1e-9, abs_tol=tol)


class TestDatasets:
    def test_generate_is_deterministic(self):
        a = generate_ldata(EXAMPLES[2], 5, seed=7)
        b = generate_ldata(EXAMPLES[2], 5, seed=7)
        assert a == b
        assert a != generate_ldata(EXAMPLES[2], 5, seed=8)

    def test_layouts(self):
        scalars = generate_ldata(EXAMPLES[1], 4, seed=1)
        assert all(isinstance(x, float) for x in scalars)
        singletons = generate_ldata(EXAMPLES[3], 4, seed=1)
        assert all(isinstance(x, list) and len(x) == 1 for x in singletons)

    def test_unknown_example_rejected(self):
        with pytest.raises(ConfigError, match="choose one of 1, 2, 3"):
            get_example(4)


@pytest.mark.parametrize("example_id", [1, 2, 3])
def test_each_example_is_its_canonical_run(example_id):
    canonical = EXAMPLES[example_id]
    assert isinstance(canonical, Run)
    assert canonical.example_id == example_id
    assert example_run(example_id, 3) == canonical
