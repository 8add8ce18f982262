import math

import pytest
from hypothesis import example, given, settings, strategies as st

from fltestbed.errors import ParseError, SerializationError, UsageError
from fltestbed.values import (
    approx_eq,
    canonical_copy,
    dumps,
    format_number,
    loads,
    validate_value,
)


finite = st.floats(allow_nan=False, allow_infinity=False)
value_trees = st.recursive(finite, lambda inner: st.lists(inner, max_size=8), max_leaves=32)


class TestDumps:
    def test_contract_examples(self):
        assert dumps(1.75) == "1.75"
        assert dumps([1]) == "[1]"
        assert dumps([[1.5], [2]]) == "[[1.5],[2]]"

    def test_absent_and_empty(self):
        assert dumps(None) == "null"
        assert dumps([]) == "[]"

    def test_integral_floats_drop_fraction(self):
        assert dumps(2.0) == "2"
        assert dumps(0.0) == "0"
        assert dumps(-3.0) == "-3"

    def test_exponent_form_kept_when_shorter(self):
        assert dumps(1e16) == "1e+16"
        assert dumps(1e300) == "1e+300"

    def test_negative_zero_keeps_sign(self):
        assert dumps(-0.0) == "-0"
        assert math.copysign(1.0, loads("-0")) < 0

    def test_rejects_non_finite(self):
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(SerializationError):
                dumps(bad)
        with pytest.raises(SerializationError):
            dumps([1.0, float("nan")])

    def test_rejects_nested_absent(self):
        with pytest.raises(SerializationError):
            dumps([None])

    def test_rejects_foreign_types(self):
        with pytest.raises(SerializationError):
            dumps("text")
        with pytest.raises(SerializationError):
            dumps([True])
        with pytest.raises(SerializationError):
            dumps(10**400)

    def test_deterministic(self):
        v = [[1.5], [2], 0.1, [[-0.0]]]
        assert dumps(v) == dumps(v)


class TestLoads:
    def test_contract_examples(self):
        assert loads("[[1.5],[2]]") == [[1.5], [2.0]]
        assert loads("[0.0,1.0]") == [0.0, 1.0]

    def test_empty_input_is_parse_error(self):
        with pytest.raises(ParseError) as exc:
            loads("")
        assert exc.value.offset == 0

    def test_null_top_level_only(self):
        assert loads("null") is None
        with pytest.raises(ParseError) as exc:
            loads("[null]")
        assert exc.value.offset == 1

    def test_error_offsets(self):
        with pytest.raises(ParseError) as exc:
            loads("[1,]")
        assert exc.value.offset == 3
        with pytest.raises(ParseError) as exc:
            loads("[1 2]")
        assert exc.value.offset == 2
        with pytest.raises(ParseError) as exc:
            loads("1.5x")
        assert exc.value.offset == 3

    @pytest.mark.parametrize("text,message", [
        ("[1]2", "malformed payload: Extra data (byte offset 3)"),
        ("[1,2", "malformed payload: Expecting ',' delimiter (byte offset 4)"),
        ("[1\u00e9]", "non-ASCII byte in payload text (byte offset 2)"),
    ])
    def test_error_texts(self, text, message):
        with pytest.raises(ParseError) as exc:
            loads(text)
        assert str(exc.value) == message

    def test_rejects_json_but_not_payload(self):
        for bad in ('"str"', "true", "{}", "NaN", "Infinity"):
            with pytest.raises(ParseError):
                loads(bad)

    def test_rejects_out_of_range_literal(self):
        with pytest.raises(ParseError):
            loads("1e999")

    def test_accepts_bytes(self):
        assert loads(b"[1.5]") == [1.5]


class TestApproxEq:
    def test_identity(self):
        assert approx_eq(0.5, 0.5, 1e-9, 1e-12)

    def test_within_abs_tol(self):
        assert approx_eq([1.75], [1.75 + 1e-13], 1e-9, 1e-12)

    def test_structure_mismatch_is_false(self):
        assert not approx_eq([1.75], 1.75)
        assert not approx_eq([1.0], [1.0, 2.0])
        assert not approx_eq(None, 0.0)
        assert approx_eq(None, None)

    def test_outside_tolerance(self):
        assert not approx_eq(1.0, 1.1, 1e-9, 1e-12)

    def test_negative_tolerance_rejected(self):
        with pytest.raises(UsageError):
            approx_eq(1.0, 1.0, -1.0, 0.0)


@settings(max_examples=300, deadline=None)
@given(value_trees)
def test_round_trip_is_exact(v):
    encoded = dumps(v)
    decoded = loads(encoded)
    assert decoded == v
    # re-encoding catches sign-of-zero or precision loss that == would hide
    assert dumps(decoded) == encoded


@settings(max_examples=200, deadline=None)
@given(value_trees)
def test_approx_eq_reflexive_and_zero_tol_exact(v):
    assert approx_eq(v, v, 0.0, 0.0)


@settings(max_examples=100, deadline=None)
@given(value_trees, value_trees)
def test_approx_eq_symmetric(a, b):
    assert approx_eq(a, b) == approx_eq(b, a)


@settings(max_examples=200, deadline=None)
@given(finite)
def test_format_number_round_trips(x):
    assert float(format_number(x)) == x


def test_validate_value_accepts_ints_as_doubles():
    validate_value([1, 2, 3])
    validate_value(5)


def _generic_write(v):
    """Canonical text item by item, the way every non-flat payload is written."""
    if isinstance(v, list):
        return "[" + ",".join(_generic_write(x) for x in v) + "]"
    return format_number(v)


_EDGE_FLOATS = [2.0, -0.0, 1e16, 123456789012345.0, 5e-324, 12345678901234568.0, -1e-5]


@settings(max_examples=300, deadline=None)
@given(st.lists(finite, max_size=40))
@example(_EDGE_FLOATS)
@example([])
@example([0.0])
@example([1e308, 1e308])
def test_flat_float_fast_path_matches_generic_writer(v):
    assert dumps(v) == _generic_write(v)
    assert dumps([v]) == "[" + _generic_write(v) + "]"
    validate_value(v)


def test_fast_path_edge_values():
    assert dumps(_EDGE_FLOATS) == (
        "[2,-0,1e+16,123456789012345,5e-324,12345678901234568,-1e-05]"
    )


class TestFastPathRejections:
    # each bad item sits among floats, so the flat-float check sees it first
    BAD = [float("inf"), float("-inf"), float("nan"), True, None, 10**400, "1"]

    def test_bad_items_rejected_like_the_generic_path(self):
        for bad in self.BAD:
            for v in ([1.0, bad], [bad, 2.0], [[1.0], [1.0, bad]]):
                with pytest.raises(SerializationError):
                    validate_value(v)
                with pytest.raises(SerializationError):
                    dumps(v)

    def test_overflowing_sum_of_finite_items_is_valid(self):
        v = [1.7e308, 1.7e308, -1.0]
        validate_value(v)
        assert loads(dumps(v)) == v

    def test_non_finite_hidden_by_cancellation_rejected(self):
        with pytest.raises(SerializationError):
            validate_value([float("inf"), 1.0, float("-inf")])


class _Row(list):
    """A list subclass: a valid payload list that is not exactly list."""


def _exact(v):
    """v with every float spelled by float.hex, so -0.0 and 0.0 differ, and every type named."""
    if isinstance(v, list):
        return (type(v).__name__, [_exact(x) for x in v])
    if v is None:
        return None
    return (type(v).__name__, float(v).hex())


def _lists(v):
    if isinstance(v, list):
        yield v
        for item in v:
            yield from _lists(item)


_int_leaves = st.one_of(
    st.integers(-(2**70), 2**70),
    st.integers(2**53, 2**60),
    st.sampled_from([0, -0.0, 1e16, 2.0**53 + 2, 1e300]),
    finite,
)
_mixed_trees = st.recursive(
    _int_leaves,
    lambda inner: st.one_of(st.lists(inner, max_size=6), st.lists(inner, max_size=6).map(_Row)),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(value_trees, _mixed_trees, st.none()))
@example([1, 2**53, 2**53 + 1, -0.0, 1e16, 12345678901234567890])
@example(_Row([_Row([1, 2.5]), [-0.0]]))
@example([0.0, -0.0, 1e16, 1.5e300])
@example(-0.0)
@example(7)
@example([])
def test_canonical_copy_equals_a_text_round_trip(v):
    copy = canonical_copy(v)
    assert _exact(copy) == _exact(loads(dumps(v)))
    # only floats, which are immutable, may be shared with the original
    assert not {id(x) for x in _lists(copy)} & {id(x) for x in _lists(v)}


class _Float(float):
    """A float subclass: a valid payload number that is not exactly float."""


def _valid(v, top=True):
    """The payload grammar, item by item: what validate_value accepts."""
    if v is None:
        return top
    if isinstance(v, list):
        return all(_valid(x, False) for x in v)
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:  # an int beyond the double range
        return False


_any_trees = st.recursive(
    st.one_of(
        _int_leaves,
        st.floats().map(_Float),
        st.sampled_from([math.nan, math.inf, -math.inf, True, None, "1", 2**1100]),
    ),
    lambda inner: st.one_of(st.lists(inner, max_size=6), st.lists(inner, max_size=6).map(_Row)),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(value_trees, _mixed_trees, st.none(), _any_trees))
@example([])
@example([1.0, -0.0, 1e16])
@example([1.0, 2])
@example([_Float(1.0)])
@example(_Row([1.0]))
@example([[1.0]])
@example([1.0, True])
@example([1e308, 1e308])
@example([1.0, math.inf, -math.inf])
def test_validate_value_returns_the_flat_float_verdict(v):
    if not _valid(v):
        with pytest.raises(SerializationError):
            validate_value(v)
        return
    flat = type(v) is list and all(type(x) is float for x in v)
    assert validate_value(v) is flat


_NAN = float("nan")  # one object, so list == treats it as equal to itself
_compare_leaves = st.one_of(
    finite,
    st.integers(-(2**60), 2**60),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, _NAN, 1e308]),
    st.booleans(),  # not a payload number: True == 1.0, yet approx_eq is False
)


def _approx_walk(a, b, rel_tol, abs_tol):
    """approx_eq's definition, item by item."""
    if a is None or b is None:
        return a is None and b is None
    def num(v):
        return isinstance(v, (int, float)) and not isinstance(v, bool)

    if num(a) and num(b):
        x, y = float(a), float(b)
        return abs(x - y) <= max(abs_tol, rel_tol * max(abs(x), abs(y)))
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(
            _approx_walk(x, y, rel_tol, abs_tol) for x, y in zip(a, b)
        )
    return False


_near_steps = st.sampled_from([0.0, 1e-10, 9e-10, 1.1e-9, 1e-6, 0.49, 0.51])
_near_offsets = st.sampled_from([0.0, 5e-13, 2e-12])


@st.composite
def _compare_pairs(draw):
    a = draw(st.lists(st.one_of(_compare_leaves, st.lists(_compare_leaves, max_size=3)),
                      max_size=12))
    how = draw(st.sampled_from(["copy", "ints", "nudge", "near", "shorter", "nest", "other"]))
    b = list(a)  # shares every item, nan objects included
    if how == "near":
        # float lists on both sides of every tolerance the test uses, some
        # pushed past the double range
        a = draw(st.lists(st.one_of(finite, st.just(1e308)), min_size=1, max_size=12))
        b = [x * (1 + draw(_near_steps)) + draw(_near_offsets) for x in a]
    elif how == "ints" and b:
        b = [int(x) if isinstance(x, float) and math.isfinite(x) and x.is_integer() else x
             for x in b]
    elif how == "nudge" and b:
        i = draw(st.integers(0, len(b) - 1))
        if isinstance(b[i], (int, float)):
            b[i] = b[i] + draw(st.sampled_from([1e-13, 1e-6, 1.0]))
    elif how == "shorter" and b:
        b = b[:-1]
    elif how == "nest" and b:
        b[0] = [b[0]]
    elif how == "other":
        b = draw(st.lists(_compare_leaves, max_size=12))
    return a, b


@settings(max_examples=500, deadline=None)
@given(_compare_pairs(), st.sampled_from([(1e-9, 1e-12), (0.0, 0.0), (0.5, 0.0)]))
@example(([_NAN], [_NAN]), (1e-9, 1e-12))
@example(([1.0, math.inf], [1.0, math.inf]), (1e-9, 1e-12))
@example(([1e308, 1e308], [1e308, 1e308]), (0.0, 0.0))
@example(([-0.0, 1.0], [0.0, 1]), (0.0, 0.0))
@example(([[1.0]], [1.0]), (1e-9, 1e-12))
@example(([1.0, 0.0], [True, False]), (1e-9, 1e-12))
@example(([1.0, 2.0], [1.0]), (1e-9, 1e-12))
@example(([1.0, 2.0], [1.0 + 9e-10, 2.0]), (1e-9, 1e-12))
@example(([1.0, 2.0], [1.0 + 2e-9, 2.0]), (1e-9, 1e-12))
@example(([0.0, 1.0], [1e-12, 1.0]), (0.0, 1e-12))
@example(([1e308, 1.0], [1.7e308, 1.0]), (0.5, 0.0))
@example(([1e308, 1e308], [1e308, 1.7e308]), (0.5, 0.0))
@example(([1e308, 1.0], [math.inf, 1.0]), (0.5, 0.0))
def test_approx_eq_matches_the_item_walk(pair, tols):
    a, b = pair
    want = _approx_walk(a, b, *tols)
    assert approx_eq(a, b, *tols) is want
    assert approx_eq(b, a, *tols) is _approx_walk(b, a, *tols)
    assert approx_eq([a, b], [b, a], *tols) is (want and _approx_walk(b, a, *tols))


def test_approx_eq_equal_lists_with_non_finite_items_stay_false():
    for item in (_NAN, math.inf, -math.inf):
        v = [1.0, item]
        assert v == list(v)
        assert not approx_eq(v, list(v))
