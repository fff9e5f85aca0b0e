"""Effective restriction constants.

Everything here is an exact floor or ceiling of a rational or surd
expression: the restriction index k(E) controlling stability under
restriction to divisors in |a Theta|, Jordan constants J(r) bounding the
index of an abelian normal subgroup in any finite subgroup of GL_r, and the
composite bound ell(r, c) built from the rank of Sym^J(r) together with the
restriction-index formula.

No floating point: Schur's bound is expanded as an integer multiple of
sqrt(8r) and its ceiling resolved by integer-square comparison; the
parametric Weisfeiler form uses certified interval arithmetic with exact
binary-rational endpoints.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .chern import ChernData, discriminant, sym_rank
from .encoding import echo_integer, format_integer, output_limit_error
from .errors import CapExceededError, DomainError, MissingConstantError, PrecisionError

_WEISFEILER_PREC_CAP = 1 << 14


@dataclass(frozen=True)
class AmbientSpace:
    """Numeric context of the polarized ambient variety.

    dim is d, theta_top is m = Theta^d, and beta is a partial table of the
    nonnegative constants beta_r; beta values are never invented, but a zero
    default can be enabled explicitly with ``assume_beta_zero``.
    """

    dim: int
    theta_top: int
    beta: dict[int, Fraction] = field(default_factory=dict)
    assume_beta_zero: bool = False

    def __post_init__(self):
        if self.dim < 1:
            raise DomainError("ambient dimension must be >= 1", code="bad_ambient")
        if self.theta_top < 1:
            raise DomainError("theta_top must be >= 1", code="bad_ambient")
        clean = {}
        for r, b in dict(self.beta).items():
            b = Fraction(b)
            if b < 0:
                raise DomainError(f"beta_{echo_integer(r)} must be nonnegative",
                                  code="bad_ambient")
            clean[int(r)] = b
        object.__setattr__(self, "beta", clean)

    def beta_for(self, rank: int) -> Fraction:
        if rank in self.beta:
            return self.beta[rank]
        if self.assume_beta_zero:
            return Fraction(0)
        raise MissingConstantError(
            f"beta_{echo_integer(rank)} is not configured; supply it or enable assume-beta-zero"
        )


@dataclass(frozen=True)
class JordanMode:
    """How J(r) is produced: Schur's exact bound, the parametric
    (r+1)! r^(a log r + b) form, or an explicit value."""

    kind: str
    a: Optional[Fraction] = None
    b: Optional[Fraction] = None
    value: Optional[int] = None

    def __post_init__(self):
        if self.kind not in ("schur", "weisfeiler", "explicit"):
            raise DomainError(f"unknown jordan mode {self.kind!r}", code="bad_mode")
        if self.kind == "weisfeiler":
            if self.a is None or self.b is None:
                raise DomainError("weisfeiler mode requires a and b", code="bad_mode")
            object.__setattr__(self, "a", Fraction(self.a))
            object.__setattr__(self, "b", Fraction(self.b))
        if self.kind == "explicit":
            if self.value is None or self.value < 1:
                raise DomainError("explicit mode requires a value >= 1", code="bad_mode")

    @staticmethod
    def schur() -> "JordanMode":
        return JordanMode("schur")

    @staticmethod
    def weisfeiler(a, b) -> "JordanMode":
        return JordanMode("weisfeiler", a=Fraction(a), b=Fraction(b))

    @staticmethod
    def explicit(value: int) -> "JordanMode":
        return JordanMode("explicit", value=value)


def _floor(x: Fraction) -> int:
    return x.numerator // x.denominator


def _ceil(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)


def langer_index(e: ChernData, amb: AmbientSpace, delta_pairing: Fraction) -> int:
    """floor((r-1)/r * Delta.Theta^(d-1) + 1/(m r (r-1)) + (r-1) beta_r / (m r)).

    ``delta_pairing`` is the caller-evaluated value of Delta(E).Theta^(d-1);
    on a surface pass ``discriminant(e)``.
    """
    r = e.rank
    if r < 2:
        raise DomainError("restriction index undefined for rank < 2", code="rank_too_small")
    m = amb.theta_top
    beta_r = amb.beta_for(r)
    delta = Fraction(delta_pairing)
    total = (
        Fraction(r - 1, r) * delta
        + Fraction(1, m * r * (r - 1))
        + (r - 1) * beta_r / (m * r)
    )
    return _floor(total)


def schur_surd_multiple(r: int) -> int:
    """The integer b with (sqrt(8r)+1)^N - (sqrt(8r)-1)^N = b sqrt(8r), N = 2r^2.

    Even powers of sqrt(8r) cancel in the difference, so
    b = 2 * sum over odd i of binom(N, i) * (8r)^((i-1)/2).
    """
    n = 2 * r * r
    base = 8 * r
    total = 0
    power = 1
    for i in range(1, n + 1, 2):
        total += math.comb(n, i) * power
        power *= base
    return 2 * total


def _check_schur_digits(r: int) -> None:
    """Raise the output-limit error when J(r) certainly has more decimal
    digits than Python's int-to-str limit lets it print, before the sum.

    With x = sqrt(8r) and N = 2r^2, J(r) is the ceiling of
    (x + 1)^N - (x - 1)^N, which lies between (x - 1)^(N - 1) and (x + 1)^N.
    Bit lengths of those bounds decide small and large r; in between, x is
    bracketed to three decimals, s / 1000 <= x < (s + 1) / 1000, which
    decides r = 41 (4308 digits) against the default limit of 4300.
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # Python < 3.10.7 has none
    if not limit:
        return
    n, root = 2 * r * r, math.isqrt(8 * r)
    if n * (root + 2).bit_length() <= 3 * limit:  # J(r) < 2^(3 limit) < 10^limit
        return
    if (n - 1) * ((root - 1).bit_length() - 1) < 4 * limit:  # else J(r) >= 16^limit
        s = math.isqrt(8 * r * 10 ** 6)
        if (pow(s + 1000, n) - pow(s - 999, n)) // 1000 ** n < 10 ** limit:
            return
    raise output_limit_error()


def _ceil_sqrt_multiple(b: int, radicand: int) -> int:
    """ceil(b * sqrt(radicand)) for nonnegative integers, by exact squaring."""
    target = radicand * b * b
    root = math.isqrt(target)
    return root if root * root == target else root + 1


def jordan_constant(r: int, mode: JordanMode) -> int:
    """J(r): every finite subgroup of GL_r has an abelian normal subgroup of
    index at most J(r).  A Schur J(r) past the int-to-str digit limit raises
    CapExceededError before it is computed."""
    if r < 1:
        raise DomainError("rank must be positive", code="bad_rank")
    if mode.kind == "explicit":
        return mode.value
    if mode.kind == "schur":
        _check_schur_digits(r)
        b = schur_surd_multiple(r)
        return _ceil_sqrt_multiple(b, 8 * r)
    return _weisfeiler_ceiling(r, mode.a, mode.b)


def _mpf_to_fraction(x) -> Fraction:
    sign, man, exp, _ = x
    value = Fraction(man) * Fraction(2) ** exp
    return -value if sign else value


def _weisfeiler_ceiling(r: int, a: Fraction, b: Fraction) -> int:
    """ceil((r+1)! * r^(a ln r + b)) via certified intervals.

    Exact fast paths: r = 1 (the power is 1) and a = 0 with integral b.
    Otherwise the interval precision doubles until the two endpoint ceilings
    agree; values sitting exactly on an integer cannot be separated and
    raise a precision error.  Past math.factorial's limit, (r + 1)! has more
    than 2^63 bits (on 64-bit builds): a cap error.
    """
    if r >= sys.maxsize:
        raise CapExceededError(f"(r + 1)! has more than 2^{sys.maxsize.bit_length()} bits")
    fact = math.factorial(r + 1)
    if r == 1:
        return fact
    if a == 0 and b.denominator == 1:
        if b >= 0:
            return fact * r ** b.numerator
        return _ceil(Fraction(fact, r ** (-b.numerator)))

    from mpmath import iv

    prec = 64
    while prec <= _WEISFEILER_PREC_CAP:
        old = iv.prec
        try:
            iv.prec = prec
            log_r = iv.log(iv.mpf(r))
            a_iv = iv.mpf(a.numerator) / iv.mpf(a.denominator)
            b_iv = iv.mpf(b.numerator) / iv.mpf(b.denominator)
            value = iv.exp((a_iv * log_r + b_iv) * log_r) * iv.mpf(fact)
            lo, hi = value._mpi_
        finally:
            iv.prec = old
        lo_f, hi_f = _mpf_to_fraction(lo), _mpf_to_fraction(hi)
        if _ceil(lo_f) == _ceil(hi_f):
            return _ceil(lo_f)
        prec *= 2
    raise PrecisionError(
        "interval endpoints straddle an integer at precision "
        f"{_WEISFEILER_PREC_CAP}; retry with different constants or use an explicit value"
    )


def check_ell_arguments(r: int, c: Fraction, variant: str) -> Fraction:
    """The checks of ``ell_bound`` that need no J(r); returns c as a Fraction."""
    if variant not in ("as_printed", "normalized"):
        raise DomainError(f"unknown variant {variant!r}", code="bad_variant")
    if r < 1:
        raise DomainError("rank must be positive", code="bad_rank")
    c = Fraction(c)
    if c < 0:
        raise DomainError("c must be nonnegative", code="bad_c2_bound")
    return c


def ell_bound(
    r: int,
    c: Fraction,
    amb: AmbientSpace,
    mode: JordanMode,
    variant: str = "as_printed",
) -> int:
    """The restriction bound for polystable bundles with rank <= r, c2 <= c.

    Sets t = rank Sym^J(r) of a rank-r bundle and Delta = 2 t c, then takes
    floor(coeff * Delta + 1/(m t (t-1)) + (t-1) beta_t / (m t)).  The
    ``as_printed`` variant uses coeff = (t-1)/r; ``normalized`` uses
    (t-1)/t, matching the shape of the rank-level restriction index.  Both
    are exposed on purpose; neither is silently corrected.
    """
    c = check_ell_arguments(r, c, variant)
    j = jordan_constant(r, mode)
    t = sym_rank(r, j)
    if t <= 1:
        raise DomainError(
            "degenerate rank: t <= 1 makes the 1/(m t (t-1)) term undefined",
            code="degenerate_rank",
        )
    m = amb.theta_top
    beta_t = amb.beta_for(t)
    delta = 2 * t * c
    coeff = Fraction(t - 1, r) if variant == "as_printed" else Fraction(t - 1, t)
    total = coeff * delta + Fraction(1, m * t * (t - 1)) + (t - 1) * beta_t / (m * t)
    return _floor(total)


@dataclass(frozen=True)
class SummandIndex:
    """Restriction index of one stable summand, or a skip marker for
    rank < 2 summands (line bundles restrict stably for free)."""

    chern: ChernData
    index: Optional[int]
    skipped: bool = False

    def to_json(self) -> dict:
        return {
            "chern": self.chern.to_json(),
            "index": None if self.index is None else format_integer(self.index),
            "skipped": self.skipped,
        }


@dataclass(frozen=True)
class RestrictionReport:
    summands: tuple[SummandIndex, ...]
    ell: int

    def to_json(self) -> dict:
        return {
            "summands": [s.to_json() for s in self.summands],
            "ell": format_integer(self.ell),
        }


def restriction_report(
    summands: Sequence[ChernData],
    amb: AmbientSpace,
    delta_pairings: Optional[Sequence[Fraction]] = None,
) -> RestrictionReport:
    """Per-summand restriction indices and their maximum ell.

    The caller supplies the stable-summand decomposition; this module cannot
    compute one.  On surfaces (dim 2) each Delta pairing defaults to the
    summand's discriminant; in other dimensions ``delta_pairings`` must be
    given.  Rank < 2 summands are skipped (their index is reported as null).
    """
    summands = list(summands)
    if not summands:
        raise DomainError("empty summand list", code="empty_summands")
    if delta_pairings is None:
        if amb.dim != 2:
            raise DomainError(
                "delta pairings must be supplied when dim != 2", code="missing_delta"
            )
        delta_pairings = [discriminant(s) for s in summands]
    else:
        delta_pairings = [Fraction(d) for d in delta_pairings]
        if len(delta_pairings) != len(summands):
            raise DomainError(
                "delta pairing list must match the summand list", code="missing_delta"
            )
    records = []
    indices = []
    for s, d in zip(summands, delta_pairings):
        if s.rank < 2:
            records.append(SummandIndex(s, None, skipped=True))
            continue
        k = langer_index(s, amb, d)
        records.append(SummandIndex(s, k))
        indices.append(k)
    if not indices:
        raise DomainError(
            "no rank >= 2 summand: the maximum index is undefined", code="empty_summands"
        )
    return RestrictionReport(tuple(records), max(indices))
