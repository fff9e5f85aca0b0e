"""Square matrices over a small finite field, plus the matrix functors
(Kronecker product, inverse-transpose, symmetric and exterior powers) used
to transport representations.

Entries are field element indices (see fields.FqField); matrices are
immutable nested tuples, so they hash and sort.  The sort order is the
lexicographic order of index rows, which coincides with the lexicographic
order of coefficient-tuple serializations because the element indices are
themselves lexicographically ordered.

The public constructor validates its entries; products, inverses and the
functors build their results with the trusted ``FqMatrix._make``, because
entries computed from the field tables are valid by construction.
"""

from __future__ import annotations

import itertools
from typing import Sequence

from .errors import DomainError
from .fields import FqField


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


class FqMatrix:
    """An r x r matrix over an FqField."""

    __slots__ = ("field", "rows", "n")

    def __init__(self, field: FqField, rows: Sequence[Sequence[int]]):
        rows = tuple(tuple(int(x) for x in row) for row in rows)
        n = len(rows)
        if n == 0 or any(len(row) != n for row in rows):
            raise DomainError("matrix must be square and nonempty", code="bad_matrix")
        q = field.q
        for row in rows:
            for x in row:
                if not 0 <= x < q:
                    raise DomainError("entry is not a field element index", code="bad_matrix")
        self.field = field
        self.rows = rows
        self.n = n

    @classmethod
    def _make(cls, field: FqField, rows: tuple[tuple[int, ...], ...]) -> "FqMatrix":
        """Trusted constructor: rows must already be a square tuple of tuples
        of field element indices."""
        m = object.__new__(cls)
        m.field = field
        m.rows = rows
        m.n = len(rows)
        return m

    # -- constructors ----------------------------------------------------
    @staticmethod
    def identity(field: FqField, n: int) -> "FqMatrix":
        one, zero = field.one, field.zero
        return FqMatrix._make(
            field, tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))
        )

    @staticmethod
    def from_ints(field: FqField, rows: Sequence[Sequence[int]]) -> "FqMatrix":
        """Build from integer entries via the prime-field embedding."""
        return FqMatrix(field, [[field.from_int(x) for x in row] for row in rows])

    @staticmethod
    def from_json(field: FqField, obj) -> "FqMatrix":
        """Decode the JSON wire format: a list of rows, each entry an int
        (its prime-field image) or a coefficient vector of ints.  A bool or
        a float is not an int here."""
        if not isinstance(obj, list):
            raise DomainError("matrix must be a nested JSON array", code="bad_matrix")
        rows = []
        for row in obj:
            if not isinstance(row, list):
                raise DomainError("matrix rows must be arrays", code="bad_matrix")
            entries = []
            for cell in row:
                if _is_int(cell):
                    entries.append(field.from_int(cell))
                elif isinstance(cell, list) and all(map(_is_int, cell)):
                    entries.append(field.index(cell))
                else:
                    raise DomainError(
                        "matrix entries must be ints or coefficient vectors", code="bad_matrix"
                    )
            rows.append(entries)
        return FqMatrix(field, rows)

    def to_coeff_rows(self) -> list[list[list[int]]]:
        f = self.field
        return [[list(f.coeffs(x)) for x in row] for row in self.rows]

    # -- ring operations ---------------------------------------------------
    def __mul__(self, other: "FqMatrix") -> "FqMatrix":
        f = self.field
        if (other.field is not f and other.field != f) or self.n != other.n:
            raise DomainError("matrix dimension/field mismatch", code="bad_matrix")
        mul, add = f.mul_table, f.add_table
        if self.n == 2:  # closed form: a quarter of the loop's time at n = 2
            (a, b), (c, d) = self.rows
            (x, y), (z, w) = other.rows
            ma, mb, mc, md = mul[a], mul[b], mul[c], mul[d]
            return FqMatrix._make(f, ((add[ma[x]][mb[z]], add[ma[y]][mb[w]]),
                                      (add[mc[x]][md[z]], add[mc[y]][md[w]])))
        bcols = tuple(zip(*other.rows))
        out = []
        for arow in self.rows:
            row = []
            for bcol in bcols:
                acc = 0
                for x, y in zip(arow, bcol):
                    acc = add[acc][mul[x][y]]
                row.append(acc)
            out.append(tuple(row))
        return FqMatrix._make(f, tuple(out))

    def transpose(self) -> "FqMatrix":
        return FqMatrix._make(self.field, tuple(zip(*self.rows)))

    def det(self) -> int:
        """Determinant by fraction-free-ish Gaussian elimination over F_q."""
        f = self.field
        n = self.n
        m = [list(row) for row in self.rows]
        det = f.one
        for col in range(n):
            pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
            if pivot is None:
                return f.zero
            if pivot != col:
                m[col], m[pivot] = m[pivot], m[col]
                det = f.neg(det)
            det = f.mul(det, m[col][col])
            inv = f.inv(m[col][col])
            for r in range(col + 1, n):
                factor = f.mul(m[r][col], inv)
                if factor:
                    for c in range(col, n):
                        m[r][c] = f.sub(m[r][c], f.mul(factor, m[col][c]))
        return det

    def inverse(self) -> "FqMatrix":
        f = self.field
        n = self.n
        m = [list(row) + list(FqMatrix.identity(f, n).rows[i]) for i, row in enumerate(self.rows)]
        for col in range(n):
            pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
            if pivot is None:
                raise DomainError("matrix is singular", code="not_invertible")
            m[col], m[pivot] = m[pivot], m[col]
            inv = f.inv(m[col][col])
            m[col] = [f.mul(inv, x) for x in m[col]]
            for r in range(n):
                if r != col and m[r][col]:
                    factor = m[r][col]
                    m[r] = [f.sub(m[r][c], f.mul(factor, m[col][c])) for c in range(2 * n)]
        return FqMatrix._make(f, tuple(tuple(row[n:]) for row in m))

    def is_invertible(self) -> bool:
        return self.det() != self.field.zero

    # -- value semantics ---------------------------------------------------
    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FqMatrix)
            and self.rows == other.rows
            and (self.field is other.field or self.field == other.field)
        )

    def __hash__(self) -> int:
        return hash(self.rows)

    def __lt__(self, other: "FqMatrix") -> bool:
        return self.rows < other.rows

    def __repr__(self) -> str:
        return f"FqMatrix({self.rows})"


def flatten(m: FqMatrix) -> tuple[int, ...]:
    return tuple(x for row in m.rows for x in row)


def kronecker(a: FqMatrix, b: FqMatrix) -> FqMatrix:
    """Kronecker product on the row-major basis e_i (x) e_j."""
    if a.field != b.field:
        raise DomainError("field mismatch", code="bad_matrix")
    f = a.field
    mul = f.mul_table
    n, m = a.n, b.n
    out = [[0] * (n * m) for _ in range(n * m)]
    for i in range(n):
        for k in range(n):
            aik = a.rows[i][k]
            if aik == 0:
                continue
            for j in range(m):
                brow = b.rows[j]
                orow = out[i * m + j]
                for l in range(m):
                    orow[k * m + l] = mul[aik][brow[l]]
    return FqMatrix._make(f, tuple(tuple(row) for row in out))


def dual_matrix(a: FqMatrix) -> FqMatrix:
    """Inverse transpose, the matrix of the dual representation."""
    return a.inverse().transpose()


def sym_matrix(a: FqMatrix, n: int) -> FqMatrix:
    """Matrix of Sym^n(a) on the degree-n monomial basis.

    Column alpha is the expansion of prod_j (a . x_j)^(alpha_j) as a
    polynomial; this makes Sym multiplicative: Sym(ab) = Sym(a) Sym(b).

    A monomial is the integer whose base-(n + 1) digits are its exponents,
    so integer order is the lexicographic basis order and a product of
    monomials is a sum of codes.  The powers of each column's linear form
    L_j are built one from the last, L_j^k = L_j^(k-1) L_j, and the columns
    come in basis order, each the product of its r powers, so a prefix
    product of the first powers is made once for all the columns that
    share it.  A 1 x 1 matrix has the one column a^n, taken by repeated
    squaring, so its cost grows with log n.
    """
    if n < 0:
        raise DomainError("power must be nonnegative", code="bad_power")
    f = a.field
    r = a.n
    add, mul = f.add_table, f.mul_table
    if r == 1:
        x, out = a.rows[0][0], f.one
        while n:
            if n & 1:
                out = mul[out][x]
            n >>= 1
            x = mul[x][x]
        return FqMatrix._make(f, ((out,),))

    def times(p1: dict, p2: dict) -> dict:
        out = {}
        get = out.get
        for e1, c1 in p1.items():
            t = mul[c1]
            for e2, c2 in p2.items():
                e = e1 + e2
                out[e] = add[get(e, 0)][t[c2]]
        return out

    def nonzero(p: dict) -> dict:
        return {e: c for e, c in p.items() if c}

    units = [(n + 1) ** (r - 1 - i) for i in range(r)]  # the code of x_i
    powers = []  # powers[j][k] = L_j^k, column j of a as the form sum_i a[i][j] x_i
    for j in range(r):
        form = {u: row[j] for u, row in zip(units, a.rows) if row[j]}
        column = [{0: f.one}]
        for _ in range(n):
            column.append(nonzero(times(column[-1], form)))
        powers.append(column)

    cols = []
    basis = []

    def expand(j: int, left: int, code: int, prefix: dict | None) -> None:
        """The columns whose first j exponents are fixed: prefix is the
        product of their powers (None before the first), code their
        monomial and left the degree still to place."""
        if j == r - 1:
            basis.append(code + left)
            cols.append(times(prefix, powers[j][left]))
            return
        for k in range(left + 1):
            power = powers[j][k]
            expand(j + 1, left - k, code + k * units[j],
                   power if prefix is None else nonzero(times(prefix, power)))

    expand(0, n, 0, None)
    dense = [tuple(map(col.get, basis, itertools.repeat(0))) for col in cols]
    return FqMatrix._make(f, tuple(zip(*dense)))


def wedge_matrix(a: FqMatrix, n: int) -> FqMatrix:
    """Compound matrix of Lambda^n(a) on the sorted n-subset basis."""
    if n < 0:
        raise DomainError("power must be nonnegative", code="bad_power")
    if n > a.n:
        raise DomainError("exterior power exceeds the dimension", code="bad_power")
    f = a.field
    subsets = list(itertools.combinations(range(a.n), n))
    if n == 0:
        return FqMatrix.identity(f, 1)
    out = []
    for rows_sel in subsets:
        row = []
        for cols_sel in subsets:
            sub = FqMatrix._make(f, tuple(tuple(a.rows[i][j] for j in cols_sel) for i in rows_sel))
            row.append(sub.det())
        out.append(tuple(row))
    return FqMatrix._make(f, tuple(out))
