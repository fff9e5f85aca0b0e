"""Exact truncated Chern-character calculus.

A bundle on a polarized variety (X, Theta) of dimension d is recorded through
four intersection numbers: rank, deg = c1.Theta^(d-1), c1sq = c1^2.Theta^(d-2)
and c2 = c2.Theta^(d-2).  The Chern character truncated in cohomological
degree <= 2 is a ring under the graded product, and all of the operations
below (sums, tensor products, duals, symmetric and exterior powers, slopes,
discriminant, secondary slope) are computed in exact rational arithmetic.
Floating point is forbidden in this module.

Because only pairing numbers are stored, the cross pairing
c1(a).c1(b).Theta^(d-2) of two distinct bundles is not determined by the
eight stored numbers; binary operations therefore take an explicit ``cross``
argument, with a default of 0 accepted only when one side carries vanishing
c1 data (deg = c1sq = 0).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .encoding import format_integer, format_rational, parse_rational
from .errors import CapExceededError, DomainError


def _rat(x) -> Fraction:
    if isinstance(x, float):
        raise DomainError("floating-point input rejected", code="float_rejected")
    return Fraction(x)


@dataclass(frozen=True)
class ChernData:
    """Truncated Chern/rank record (rank, deg, c1sq, c2) of a bundle.

    ``rank == 0`` is the zero-sheaf sentinel (all pairings zero); it is what
    an out-of-range exterior power returns.  All genuine bundles have
    rank >= 1.
    """

    rank: int
    deg: Fraction = Fraction(0)
    c1sq: Fraction = Fraction(0)
    c2: Fraction = Fraction(0)

    def __post_init__(self):
        if not isinstance(self.rank, int) or isinstance(self.rank, bool):
            raise DomainError("rank must be an integer", code="bad_rank")
        if self.rank < 0:
            raise DomainError("rank must be nonnegative", code="bad_rank")
        for field in ("deg", "c1sq", "c2"):
            object.__setattr__(self, field, _rat(getattr(self, field)))
        if self.rank == 0 and (self.deg or self.c1sq or self.c2):
            raise DomainError("zero object must have vanishing pairings", code="bad_zero_object")

    @staticmethod
    def zero() -> "ChernData":
        """The zero-sheaf sentinel."""
        return ChernData(0)

    @property
    def is_zero_object(self) -> bool:
        return self.rank == 0

    def has_vanishing_c1(self) -> bool:
        """Numeric proxy for c1 = 0: both stored c1 pairings vanish."""
        return self.deg == 0 and self.c1sq == 0

    def to_json(self) -> dict:
        return {
            "rank": format_integer(self.rank),
            "deg": format_rational(self.deg),
            "c1sq": format_rational(self.c1sq),
            "c2": format_rational(self.c2),
        }

    @staticmethod
    def from_json(obj) -> "ChernData":
        if not isinstance(obj, dict):
            raise DomainError("chern record must be a JSON object", code="bad_chern_json")
        extra = set(obj) - {"rank", "deg", "c1sq", "c2"}
        if extra:
            raise DomainError(f"unknown chern fields: {sorted(extra)}", code="bad_chern_json")
        if "rank" not in obj:
            raise DomainError("chern record requires a rank", code="bad_chern_json")
        rank = parse_rational(obj["rank"])
        if rank.denominator != 1:
            raise DomainError("rank must be an integer", code="bad_rank")
        return ChernData(
            rank.numerator,
            parse_rational(obj.get("deg", 0)),
            parse_rational(obj.get("c1sq", 0)),
            parse_rational(obj.get("c2", 0)),
        )


@dataclass(frozen=True)
class TruncatedCh:
    """Chern character truncated at degree 2: (ch0, ch1, ch2) pairing values."""

    ch0: Fraction
    ch1: Fraction
    ch2: Fraction

    def __post_init__(self):
        for field in ("ch0", "ch1", "ch2"):
            object.__setattr__(self, field, _rat(getattr(self, field)))


def truncated_ch(e: ChernData) -> TruncatedCh:
    """ch0 = rank, ch1 = deg, ch2 = (c1sq - 2 c2)/2, all exact."""
    return TruncatedCh(Fraction(e.rank), e.deg, (e.c1sq - 2 * e.c2) / 2)


def from_truncated(ch: TruncatedCh, c1sq: Fraction) -> ChernData:
    """Invert ``truncated_ch`` given the c1^2 pairing (lost in ch2)."""
    if ch.ch0.denominator != 1 or ch.ch0 < 0:
        raise DomainError("ch0 must be a nonnegative integer rank", code="bad_rank")
    c1sq = _rat(c1sq)
    return ChernData(ch.ch0.numerator, ch.ch1, c1sq, (c1sq - 2 * ch.ch2) / 2)


def slope(e: ChernData) -> Fraction:
    """deg / rank."""
    if e.rank == 0:
        raise DomainError("slope undefined for the zero object", code="zero_object")
    return e.deg / e.rank


def discriminant(e: ChernData) -> Fraction:
    """2 r c2 - (r - 1) c1^2, as a Theta^(d-2) pairing value."""
    return 2 * e.rank * e.c2 - (e.rank - 1) * e.c1sq


def secondary_slope(e: ChernData) -> Fraction:
    """c2 / rank, defined only on the c1 = 0 subcategory.

    The secondary slope is additive under tensor product there; inputs with
    nonzero deg or c1sq are rejected rather than coerced.
    """
    if e.rank == 0:
        raise DomainError("secondary slope undefined for the zero object", code="zero_object")
    if not e.has_vanishing_c1():
        raise DomainError(
            "secondary slope undefined outside the c1 = 0 subcategory", code="mu2_undefined"
        )
    return e.c2 / e.rank


def _resolve_cross(a: ChernData, b: ChernData, cross) -> Fraction:
    if cross is not None:
        return _rat(cross)
    if a.has_vanishing_c1() or b.has_vanishing_c1():
        return Fraction(0)
    raise DomainError(
        "cross pairing c1(a).c1(b) required: neither side has vanishing c1 data",
        code="cross_term_required",
    )


def direct_sum(a: ChernData, b: ChernData, cross: Optional[Fraction] = None) -> ChernData:
    """Whitney sum; ``cross`` is the pairing c1(a).c1(b).Theta^(d-2)."""
    x = _resolve_cross(a, b, cross)
    return ChernData(
        a.rank + b.rank,
        a.deg + b.deg,
        a.c1sq + b.c1sq + 2 * x,
        a.c2 + b.c2 + x,
    )


def tensor(a: ChernData, b: ChernData, cross: Optional[Fraction] = None) -> ChernData:
    """Tensor product via the graded product of truncated Chern characters.

    ch(a (x) b) = ch(a) ch(b) truncated at degree 2; the degree-2 product of
    the two degree-1 parts is the ``cross`` pairing.
    """
    x = _resolve_cross(a, b, cross)
    r, s = a.rank, b.rank
    cha, chb = truncated_ch(a), truncated_ch(b)
    ch2 = r * chb.ch2 + s * cha.ch2 + x
    c1sq = s * s * a.c1sq + r * r * b.c1sq + 2 * r * s * x
    return ChernData(r * s, r * b.deg + s * a.deg, c1sq, (c1sq - 2 * ch2) / 2)


def dual(e: ChernData) -> ChernData:
    """Chern roots negate: (rank, -deg, c1sq, c2)."""
    return ChernData(e.rank, -e.deg, e.c1sq, e.c2)


def sym_rank(r: int, n: int) -> int:
    """rank Sym^n of a rank-r bundle: binom(n + r - 1, r - 1), exact."""
    if r < 1:
        raise DomainError("rank must be positive", code="bad_rank")
    if n < 0:
        raise DomainError("power must be nonnegative", code="bad_power")
    return _binom(n + r - 1, r - 1)


def _binom(a: int, b: int) -> int:
    """Generalized binomial a(a-1)...(a-b+1)/b!, and 0 for b < 0.

    C(m, k) >= 2^min(k, m - k), so one past math.comb's limit on
    min(k, m - k) has more than 2^63 bits (on 64-bit builds): a cap error."""
    if b < 0:
        return 0
    m = a if a >= 0 else b - a - 1
    if min(b, m - b) > sys.maxsize:
        raise CapExceededError(
            f"a binomial coefficient has more than 2^{sys.maxsize.bit_length()} bits")
    return math.comb(m, b) if a >= 0 else (-1) ** b * math.comb(m, b)


# Characters of polynomial functors of one bundle E of rank r: (a0, a1, a2, a3)
# stands for a0 + a1*c1(E) + a2*ch2(E) + a3*c1(E)^2 in the graded quotient
# ring Q[c1, ch2]/(degree >= 3).  Expanding the generating functions
# prod_i (1 - t e^(x_i))^(-1) and prod_i (1 + t e^(x_i)) in the Chern roots
# x_i to degree 2 (Macdonald, Symmetric Functions and Hall Polynomials, ch. I)
# gives the coefficient of t^n in closed form.

def sym_character(r: int, n: int) -> tuple[int, int, int, Fraction]:
    """Character of Sym^n of rank r: with m = n + r - 1, A = C(m, n-1) and
    B = C(m, n-2), it is (C(m, n), A, A + B, B/2)."""
    m = n + r - 1
    a, b = _binom(m, n - 1), _binom(m, n - 2)
    return _binom(m, n), a, a + b, Fraction(b, 2)


def wedge_character(r: int, n: int) -> tuple[int, int, int, Fraction]:
    """Character of Lambda^n of rank r: with c_k = C(r-k, n-k), it is
    (c0, c1, c1 - c2, c2/2).  For r <= 1 it can be nonzero in the abstract
    ring at n > r; ``wedge_power`` returns the zero object there."""
    c0, c1, c2 = (_binom(r - k, n - k) for k in range(3))
    return c0, c1, c1 - c2, Fraction(c2, 2)


def _evaluate(e: ChernData, char: tuple[int, int, int, Fraction]) -> ChernData:
    rank, a1, a2, a3 = char
    c1sq = a1 * a1 * e.c1sq
    ch2 = a2 * (e.c1sq - 2 * e.c2) / 2 + a3 * e.c1sq
    return ChernData(rank, a1 * e.deg, c1sq, (c1sq - 2 * ch2) / 2)


def sym_power(e: ChernData, n: int) -> ChernData:
    """Exact Chern data of Sym^n(e)."""
    if n < 0:
        raise DomainError("power must be nonnegative", code="bad_power")
    return _evaluate(e, sym_character(e.rank, n))


def wedge_power(e: ChernData, n: int) -> ChernData:
    """Exact Chern data of Lambda^n(e); the zero object when n > rank."""
    if n < 0:
        raise DomainError("power must be nonnegative", code="bad_power")
    if n > e.rank:
        return ChernData.zero()
    return _evaluate(e, wedge_character(e.rank, n))
