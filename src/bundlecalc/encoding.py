"""Canonical exact-number encoding for the JSON boundary.

Rationals travel as strings "p/q" in lowest terms with q > 0 (bare "p" when
integral); integers as decimal strings.  Binary floats are rejected
everywhere: exactness is part of the contract.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction

from .errors import CapExceededError, DomainError

_ECHO_CHARS = 40


def _echo(value: str) -> str:
    """repr of the argument, or of its first _ECHO_CHARS characters and its
    length, so that one malformed argument cannot make a message of any length."""
    if len(value) <= _ECHO_CHARS:
        return repr(value)
    return f"{value[:_ECHO_CHARS]!r}... ({len(value)} characters)"


def echo_integer(value: int) -> str:
    """value in decimal, or its first _ECHO_CHARS digits and its digit count,
    found without str() so that a value past the int-to-str limit can be named."""
    size = abs(value)
    if size < 10 ** _ECHO_CHARS:
        return str(value)
    digits = (size.bit_length() - 1) * 30102 // 100000  # 0.30102 < log10(2)
    while 10 ** digits <= size:
        digits += 1
    head = size // 10 ** (digits - _ECHO_CHARS)
    return f"{'-' if value < 0 else ''}{head}... ({digits} digits)"


def parse_rational(value) -> Fraction:
    """Parse an int or a "p/q" / "p" string into an exact Fraction."""
    if isinstance(value, bool):
        raise DomainError("booleans are not numbers", code="bad_number")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise DomainError(
            "floating-point input rejected; pass a 'p/q' string", code="float_rejected"
        )
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise DomainError(f"not a rational: {_echo(value)}", code="bad_number") from exc
    raise DomainError(f"cannot parse {type(value).__name__} as a rational", code="bad_number")


def parse_integer(value) -> int:
    """Parse an int or a decimal string into an exact int."""
    q = parse_rational(value)
    if q.denominator != 1:
        # a short decimal such as "1e-5000" parses to a fraction past the
        # int-to-str limit, so only a small fraction is shown in full
        if max(abs(q.numerator), q.denominator) < 10 ** _ECHO_CHARS:
            shown = str(q)
        else:
            shown = f"a fraction with a {q.denominator.bit_length()}-bit denominator"
        raise DomainError(f"expected an integer, got {shown}", code="bad_number")
    return q.numerator


def format_rational(value: Fraction | int) -> str:
    return _decimal(Fraction(value))


def format_integer(value: int) -> str:
    return _decimal(int(value))


def _decimal(value: Fraction | int) -> str:
    """str(value), with Python's int-to-str digit limit mapped to a cap error."""
    try:
        return str(value)
    except ValueError:
        raise output_limit_error() from None


def output_limit_error() -> CapExceededError:
    """The error for a number past Python's int-to-str digit limit."""
    limit = sys.get_int_max_str_digits()
    return CapExceededError(f"number has more than {limit} decimal digits, the output limit")


def dumps(payload) -> str:
    """Serialize to a single canonical JSON form (sorted keys, ASCII)."""
    return json.dumps(payload, sort_keys=True, ensure_ascii=True, separators=(", ", ": "))
