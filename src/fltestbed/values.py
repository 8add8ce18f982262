"""The universal payload type and its canonical text form.

A payload is a finite double-precision number, a (possibly nested) list of
payloads, or ``None`` meaning "no data". ``None`` is only legal as a whole
payload, never inside a list. The canonical text form writes numbers in their
shortest round-tripping notation, lists as bracketed comma-separated items,
and the absent payload as ``null``, with no whitespace anywhere. Every wire
message, RESULT line, and report embeds payloads in exactly this form.
"""

from __future__ import annotations

import json
import math
import operator
from typing import TypeAlias, Union

from .errors import ParseError, SerializationError, UsageError

Value: TypeAlias = Union[float, int, list["Value"], None]

# Tolerances used by all verification unless a caller overrides them.
DEFAULT_REL_TOL = 1e-9
DEFAULT_ABS_TOL = 1e-12

__all__ = [
    "Value",
    "DEFAULT_REL_TOL",
    "DEFAULT_ABS_TOL",
    "approx_eq",
    "canonical_copy",
    "dumps",
    "format_number",
    "loads",
    "validate_value",
]


def is_number(v: object) -> bool:
    """True for int/float payload leaves; bool is excluded on purpose."""
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_float_list(v: object) -> bool:
    """True for a list whose items are all exactly float: the fast-path shape."""
    return type(v) is list and operator.countOf(map(type, v), float) == len(v)


def _check_floats(v: list[float]) -> None:
    """Reject a non-finite item of a float list in one pass over the floats."""
    # Any inf or nan makes the sum non-finite; an overflowing sum of finite
    # items does too, so only then look at each item.
    if not math.isfinite(sum(v)):
        for x in v:
            if not math.isfinite(x):
                raise SerializationError(f"non-finite number in payload: {x!r}")


def validate_value(v: Value, _top: bool = True) -> bool:
    """Raise SerializationError unless ``v`` is a well-formed payload.

    Returns the shape its first check found: True for a list whose items
    are all exactly float (the empty list too), False for any other valid
    payload, so a caller can pick the flat-list path without a second scan.
    """
    if _is_float_list(v):
        _check_floats(v)
        return True
    if v is None:
        if not _top:
            raise SerializationError("absent payload (None) is not allowed inside a sequence")
        return False
    if is_number(v):
        if isinstance(v, float):
            if not math.isfinite(v):
                raise SerializationError(f"non-finite number in payload: {v!r}")
        else:
            try:
                float(v)
            except OverflowError:
                raise SerializationError(f"integer too large for double precision: {v}") from None
        return False
    if isinstance(v, list):
        for item in v:
            validate_value(item, _top=False)
        return False
    raise SerializationError(f"unsupported payload element of type {type(v).__name__}")


def format_number(x: float | int) -> str:
    """Shortest text that parses back to exactly the same double.

    Integral doubles drop the fractional part when that is no longer than the
    float repr (so 2.0 -> "2" but 1e16 stays "1e+16"); -0.0 keeps its sign.
    """
    x = float(x)
    r = repr(x)
    if x.is_integer():
        if x == 0.0 and math.copysign(1.0, x) < 0.0:
            i = "-0"
        else:
            i = str(int(x))
        if len(i) <= len(r):
            return i
    return r


def dumps(v: Value) -> str:
    """Canonical text for a payload; deterministic for equal payloads."""
    if validate_value(v):
        return _write_floats(v)
    return _write(v)


def _write(v: Value) -> str:
    if _is_float_list(v):
        return _write_floats(v)
    if v is None:
        return "null"
    if isinstance(v, list):
        return "[" + ",".join(_write(item) for item in v) + "]"
    return format_number(v)


def _write_floats(v: list[float]) -> str:
    """format_number over a list of finite floats, with one repr per item.

    Below 1e16 the repr of an integral double is its integer digits plus
    ".0", which format_number drops ("2.0" -> "2", "-0.0" -> "-0"). From
    1e16 up repr switches to exponent form ("e+"), where the integer digits
    may be the shorter text, so those lists go item by item.
    """
    text = ",".join(map(float.__repr__, v))
    if "e+" in text:
        return "[" + ",".join(map(format_number, v)) + "]"
    return "[" + (text + ",").replace(".0,", ",")[:-1] + "]"


def canonical_copy(v: Value) -> Value:
    """``loads(dumps(v))`` of a valid payload, without the text in between.

    Every list is new and every number is ``float(x)``, so ints come back as
    floats and -0.0 keeps its sign; only the immutable floats may be shared
    with ``v``. ``v`` must already have passed validate_value.
    """
    if _is_float_list(v):
        return v[:]
    if isinstance(v, list):
        return [canonical_copy(item) for item in v]
    return None if v is None else float(v)


# Every byte the canonical form can contain. Whitespace, strings, objects,
# true/false, NaN and Infinity all need a byte outside this set.
_PAYLOAD_BYTES = b"0123456789.-+eE,[]nul"
# Over those bytes the JSON number grammar is the payload's; parse_int makes
# every number a float, so "2" and "-0" read back as 2.0 and -0.0. The byte
# filter leaves no whitespace, so the decoder's scanner runs on the text
# directly, without decode()'s whitespace skips.
_SCAN = json.JSONDecoder(parse_int=float).scan_once


def loads(text: str | bytes) -> Value:
    """Parse canonical payload text; inverse of dumps on its outputs.

    All numbers come back as floats. Errors carry the offending byte offset
    where one byte is at fault. This is the only parser of the payload
    grammar: RESULT lines and wire frames both use it.
    """
    if isinstance(text, str):
        try:
            data = text.encode("ascii")
        except UnicodeEncodeError as e:
            raise ParseError("non-ASCII byte in payload text", e.start) from None
    else:
        data, text = bytes(text), None  # a bytes object is not copied
    foreign = data.translate(None, _PAYLOAD_BYTES)
    if foreign:
        raise ParseError(f"unexpected byte {foreign[:1]!r} in payload", data.index(foreign[:1]))
    if text is None:
        text = data.decode("ascii")
    try:
        value, end = _SCAN(text, 0)
        if end != len(text):
            raise ParseError("malformed payload: Extra data", end)
        validate_value(value)
    except StopIteration as e:
        raise ParseError("malformed payload: Expecting value", e.value) from None
    except json.JSONDecodeError as e:
        raise ParseError(f"malformed payload: {e.msg}", e.pos) from None
    except SerializationError:
        # the parsed tree holds floats and lists, so the fault is a null
        # inside a list or a number that overflowed to inf
        null = data.find(b"null")
        if null >= 0:
            raise ParseError("null is only allowed as the whole payload", null) from None
        raise ParseError("number out of double-precision range") from None
    except RecursionError:
        raise ParseError("payload is nested too deeply") from None
    return value


def approx_eq(
    a: Value,
    b: Value,
    rel_tol: float = DEFAULT_REL_TOL,
    abs_tol: float = DEFAULT_ABS_TOL,
) -> bool:
    """Structural equality with per-number tolerance.

    True iff both payloads have the same shape and every corresponding number
    pair (x, y) satisfies |x - y| <= max(abs_tol, rel_tol * max(|x|, |y|)).
    Shape mismatch is False, never an error.
    """
    if rel_tol < 0 or abs_tol < 0:
        raise UsageError(f"tolerances must be non-negative, got rel={rel_tol} abs={abs_tol}")
    return _approx_eq(a, b, rel_tol, abs_tol)


def _approx_eq(a: Value, b: Value, rel_tol: float, abs_tol: float) -> bool:
    # Equal finite float lists: every pair differs by 0, within any tolerance.
    # List == also holds for a shared nan or inf item, which the walk rejects.
    if _is_float_list(a) and _is_float_list(b) and a == b and math.isfinite(sum(a)):
        return True
    if a is None or b is None:
        return a is None and b is None
    if is_number(a) and is_number(b):
        x, y = float(a), float(b)
        return abs(x - y) <= max(abs_tol, rel_tol * max(abs(x), abs(y)))
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return False
        return all(_approx_eq(x, y, rel_tol, abs_tol) for x, y in zip(a, b))
    return False
