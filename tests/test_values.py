import math

import pytest
from hypothesis import example, given, settings, strategies as st

from fltestbed.errors import ParseError, SerializationError, UsageError
from fltestbed.values import approx_eq, dumps, format_number, loads, validate_value


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
