"""Small finite fields F_q with table-driven arithmetic.

Elements of F_(p^e) are coefficient tuples (c0, ..., c_(e-1)) of residues
modulo an irreducible monic modulus polynomial; the tuple lists coefficients
by ascending degree.  Fields are capped at q <= 81 by design: all arithmetic
is precomputed into q x q lookup tables at construction, which also verifies
the field axioms (every nonzero element acquires an inverse or construction
fails).  The tables are built additively, a row at a time as ``bytes``: add
rows by the "+x^k" permutations, mul rows as sums of the rows of the powers
x^k, which the "times x" map yields; no polynomial is multiplied.

The canonical element order is the lexicographic order of coefficient
tuples; enumeration, indices and serialization all use it, so downstream
group enumerations are bit-reproducible.
"""

from __future__ import annotations

import itertools
import operator
from typing import Optional, Sequence

from .caps import Q_CAP
from .errors import CapExceededError, DomainError
from .primes import is_prime


def _poly_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


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
        if e < 1:
            raise DomainError("extension degree must be >= 1", code="bad_field")
        # p^e > Q_CAP already when e > log2(Q_CAP), so p^e is formed (and
        # the message renders the inputs, not p^e) only under the cap; the
        # cap comes before the primality test, which is exact only for
        # p < primes.EXACT_BELOW
        if p ** min(e, Q_CAP.bit_length()) > Q_CAP:
            size = p if e == 1 else f"{p}^{e}"
            raise CapExceededError(f"field size {size} exceeds the cap {Q_CAP}")
        if not is_prime(p):
            raise DomainError(f"characteristic {p} is not prime", code="not_prime")
        q = p ** e
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
        """Fill the tables additively, on rows held as ``bytes``.

        Element a = a' + x^k, with k the degree of a as a polynomial,
        so add row a is add row a' mapped through the "+x^k" permutation and
        mul row a is the sum of mul rows a' and x^k; the rows of x^k follow
        from the identity by repeated use of the "times x" map.  Rows are
        added a digit plane at a time, each plane one big integer (no
        carries: every byte stays <= 2(p-1) < 256), then reduced mod p.
        """
        p, e, q = self.p, self.e, self.q
        weights = [p ** (e - 1 - k) for k in range(e)]  # index of x^k
        pad = bytes(256 - q)
        digit = [bytes(i // w % p for i in range(q)) + pad for w in weights]
        mod_p = bytes(i % p for i in range(256))

        def planes(row: bytes) -> list[int]:
            return [int.from_bytes(row.translate(t), "big") for t in digit]

        def reduced(row_planes: list[int]) -> list[int]:
            return [int.from_bytes(x.to_bytes(q, "big").translate(mod_p), "big")
                    for x in row_planes]

        # "+x^k" and "times x" as permutations of the indices
        plus = [bytes(i - (p - 1) * w if i // w % p == p - 1 else i + w for i in range(q)) + pad
                for w in weights]
        m = self.modulus
        times_x = []
        for c in self._elements:
            top = c[-1]
            shifted = (0,) + c[:-1]
            times_x.append(self._index[tuple((s - top * mk) % p for s, mk in zip(shifted, m))])
        times_x = bytes(times_x) + pad

        add_rows = [bytes(range(q))]
        mul_rows = [bytes(q)]
        mul_planes = [[0] * e]
        power = bytes(range(q))  # mul row of x^k, k = 0, 1, ...
        power_planes = []
        for _ in range(e):
            power_planes.append(planes(power))
            power = power.translate(times_x)
        for a in range(1, q):
            k = max(k for k, w in enumerate(weights) if a // w % p)
            rest = a - weights[k]
            add_rows.append(add_rows[rest].translate(plus[k]))
            row_planes = reduced([x + y for x, y in zip(mul_planes[rest], power_planes[k])])
            mul_planes.append(row_planes)
            mul_rows.append(sum(map(operator.mul, weights, row_planes)).to_bytes(q, "big"))
        self.add_table = [list(row) for row in add_rows]
        self.neg_table = [row.index(0) for row in add_rows]
        self.mul_table = [list(row) for row in mul_rows]
        # Inverses by lookup in each row; doubles as the field-axiom check.
        self.inv_table: list[Optional[int]] = [None]
        for i in range(1, q):
            try:
                self.inv_table.append(mul_rows[i].index(self.one))
            except ValueError:
                raise DomainError(
                    f"element {self._elements[i]} has no inverse; modulus is not irreducible",
                    code="reducible_modulus",
                ) from None

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
