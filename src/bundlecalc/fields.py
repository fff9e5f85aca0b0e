"""Small finite fields F_q with table-driven arithmetic.

Elements of F_(p^e) are coefficient tuples (c0, ..., c_(e-1)) of residues
modulo an irreducible monic modulus polynomial; the tuple lists coefficients
by ascending degree.  Fields are capped at q <= 81 by design: all arithmetic
is precomputed into q x q lookup tables at construction, which also verifies
the field axioms (every nonzero element acquires an inverse or construction
fails).

The canonical element order is the lexicographic order of coefficient
tuples; enumeration, indices and serialization all use it, so downstream
group enumerations are bit-reproducible.
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence

from .errors import CapExceededError, DomainError
from .primes import is_prime

Q_CAP = 81


def _poly_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mul(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_mod(a: Sequence[int], m: Sequence[int], p: int) -> list[int]:
    # m monic
    a = list(a)
    dm = len(m) - 1
    while len(a) - 1 >= dm and a:
        lead = a[-1]
        shift = len(a) - 1 - dm
        if lead:
            for i, mi in enumerate(m):
                a[shift + i] = (a[shift + i] - lead * mi) % p
        a.pop()
        _poly_trim(a)
    return a


def _is_irreducible(m: Sequence[int], p: int) -> bool:
    """Brute-force divisor search; fine for the degrees this cap allows."""
    deg = len(m) - 1
    if deg < 1 or m[-1] != 1:
        return False
    for d in range(1, deg // 2 + 1):
        for lower in itertools.product(range(p), repeat=d):
            g = list(lower) + [1]
            if not _poly_mod(m, g, p):
                return False
    return True


def default_modulus(p: int, e: int) -> tuple[int, ...]:
    """First irreducible monic polynomial of degree e over F_p.

    Candidates are scanned in lexicographic order of their ascending-degree
    coefficient tuples, so the choice is deterministic.
    """
    if e == 1:
        return (0, 1)
    for lower in itertools.product(range(p), repeat=e):
        m = list(lower) + [1]
        if _is_irreducible(m, p):
            return tuple(m)
    raise DomainError(f"no irreducible polynomial of degree {e} over F_{p}", code="internal")


class FqField:
    """F_(p^e) with index-based table arithmetic.

    Elements are referred to by their index in the canonical enumeration;
    ``coeffs(i)`` and ``index(tuple)`` convert.  Index 0 is zero and
    ``one`` is the index of the multiplicative unit.
    """

    def __init__(self, p: int, e: int, modulus: Optional[Sequence[int]] = None):
        if not is_prime(p):
            raise DomainError(f"characteristic {p} is not prime", code="not_prime")
        if e < 1:
            raise DomainError("extension degree must be >= 1", code="bad_field")
        q = p ** e
        if q > Q_CAP:
            raise CapExceededError(f"field size {q} exceeds the cap {Q_CAP}")
        if modulus is None:
            modulus = default_modulus(p, e)
        else:
            modulus = tuple(int(c) % p for c in modulus)
            if len(modulus) != e + 1 or modulus[-1] != 1:
                raise DomainError(
                    f"modulus must be monic of degree {e}", code="bad_modulus"
                )
            if not _is_irreducible(modulus, p):
                raise DomainError(
                    f"modulus {list(modulus)} is reducible over F_{p}", code="reducible_modulus"
                )
        self.p = p
        self.e = e
        self.q = q
        self.modulus = tuple(modulus)
        # itertools.product emits coefficient tuples in lexicographic order.
        self._elements = [t for t in itertools.product(range(p), repeat=e)]
        self._index = {t: i for i, t in enumerate(self._elements)}
        self.zero = 0
        self.one = self._index[(1,) + (0,) * (e - 1)]
        self._build_tables()

    def _build_tables(self) -> None:
        p, q = self.p, self.q
        els = self._elements
        self.add_table = [
            [self._index[tuple((a[k] + b[k]) % p for k in range(self.e))] for b in els]
            for a in els
        ]
        self.neg_table = [self._index[tuple((-a[k]) % p for k in range(self.e))] for a in els]
        mod = list(self.modulus)
        self.mul_table = []
        for a in els:
            row = []
            pa = _poly_trim(list(a))
            for b in els:
                prod = _poly_mod(_poly_mul(pa, _poly_trim(list(b)), p), mod, p)
                prod = tuple(prod) + (0,) * (self.e - len(prod))
                row.append(self._index[prod])
            self.mul_table.append(row)
        # Inverses via exhaustive search; doubles as the field-axiom check.
        self.inv_table: list[Optional[int]] = [None] * q
        for i in range(1, q):
            row = self.mul_table[i]
            for j in range(1, q):
                if row[j] == self.one:
                    self.inv_table[i] = j
                    break
            if self.inv_table[i] is None:
                raise DomainError(
                    f"element {els[i]} has no inverse; modulus is not irreducible",
                    code="reducible_modulus",
                )

    # -- index arithmetic ------------------------------------------------
    def add(self, a: int, b: int) -> int:
        return self.add_table[a][b]

    def sub(self, a: int, b: int) -> int:
        return self.add_table[a][self.neg_table[b]]

    def neg(self, a: int) -> int:
        return self.neg_table[a]

    def mul(self, a: int, b: int) -> int:
        return self.mul_table[a][b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise DomainError("division by zero", code="division_by_zero")
        return self.inv_table[a]

    def coeffs(self, i: int) -> tuple[int, ...]:
        return self._elements[i]

    def index(self, coeffs: Sequence[int]) -> int:
        t = tuple(int(c) % self.p for c in coeffs)
        if len(t) != self.e:
            raise DomainError(
                f"coefficient vector must have length {self.e}", code="bad_element"
            )
        return self._index[t]

    def from_int(self, n: int) -> int:
        """Image of the integer n under the prime-field embedding."""
        return self._index[(n % self.p,) + (0,) * (self.e - 1)]

    def elements(self) -> range:
        return range(self.q)

    def describe(self) -> dict:
        return {
            "p": self.p,
            "e": self.e,
            "q": self.q,
            "modulus": list(self.modulus),
        }

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return (
            isinstance(other, FqField)
            and self.p == other.p
            and self.e == other.e
            and self.modulus == other.modulus
        )

    def __hash__(self) -> int:
        return hash((self.p, self.e, self.modulus))

    def __repr__(self) -> str:
        return f"FqField(p={self.p}, e={self.e}, modulus={list(self.modulus)})"


def make_field(p: int, e: int, modulus: Optional[Sequence[int]] = None) -> FqField:
    """Construct F_(p^e), verifying the modulus (or choosing the default)."""
    return FqField(p, e, modulus)
