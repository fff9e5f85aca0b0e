"""Independent brute-force oracles.

Each routine here recomputes a quantity by a route deliberately different
from the main implementation, for cross-checking:

  * symmetric/exterior power Chern data by expanding formal Chern roots in a
    truncated polynomial ring (against the closed-form characters);
  * the surd expansion (sqrt(8r)+1)^N - (sqrt(8r)-1)^N by iterated
    multiplication in Z[sqrt(8r)] (against the binomial-sum expansion);
  * SL(2, F_q) by filtering all q^4 matrices for determinant 1 (against the
    elements of the stabilizer chain of its generators);
  * the elements of a matrix group by a breadth-first search over flattened
    entry tuples, ``group_by_enumeration`` (against the order, membership and
    element list of the stabilizer chain);
  * reducibility of a 2-dimensional matrix group by searching for a common
    eigenvector over the quadratic extension (against the algebra span test);
    the group is enumerated here by its own search over 2x2 entry tuples,
    not from the chain in bundlecalc.groups;
  * the dimension of the span of a matrix group by eliminating the
    flattened elements of ``group_by_enumeration`` as lists
    (against the byte-packed algebra span test, which never enumerates it);
  * the largest abelian normal subgroup of a multiplication table by closing
    unions of cliques of commuting conjugacy classes (against the walk over
    the abelian normal subgroups above the centre).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .chern import ChernData
from .errors import CapExceededError, DomainError
from .fields import FqField, make_field
from .matrices import FqMatrix

# -- truncated polynomials in formal Chern roots -------------------------

_Poly = dict  # exponent tuple -> Fraction, total degree <= 2


def _poly_add(a: _Poly, b: _Poly) -> _Poly:
    out = dict(a)
    for e, c in b.items():
        c2 = out.get(e, Fraction(0)) + c
        if c2:
            out[e] = c2
        elif e in out:
            del out[e]
    return out


def _poly_mul(a: _Poly, b: _Poly) -> _Poly:
    out: _Poly = {}
    for e1, c1 in a.items():
        d1 = sum(e1)
        for e2, c2 in b.items():
            if d1 + sum(e2) > 2:
                continue
            e = tuple(x + y for x, y in zip(e1, e2))
            c = out.get(e, Fraction(0)) + c1 * c2
            if c:
                out[e] = c
            elif e in out:
                del out[e]
    return out


def _unit(r: int, i: int) -> _Poly:
    return {tuple(1 if k == i else 0 for k in range(r)): Fraction(1)}


@lru_cache(maxsize=None)
def _functor_shape(r: int, n: int, kind: str) -> tuple[int, Fraction, Fraction, Fraction]:
    """(rank t, alpha, beta, gamma) with c1(S) = alpha e1 and
    c2(S) = beta e1^2 + gamma e2 as symmetric functions of the input roots."""
    if kind == "sym":
        selections = list(itertools.combinations_with_replacement(range(r), n))
    elif kind == "wedge":
        selections = list(itertools.combinations(range(r), n))
    else:
        raise DomainError(f"unknown kind {kind!r}", code="bad_functor")
    t = len(selections)
    if t == 0:
        return 0, Fraction(0), Fraction(0), Fraction(0)
    roots = []
    for sel in selections:
        s: _Poly = {}
        for i in sel:
            s = _poly_add(s, _unit(r, i))
        roots.append(s)
    c1: _Poly = {}
    for s in roots:
        c1 = _poly_add(c1, s)
    c2: _Poly = {}
    for i in range(t):
        for j in range(i + 1, t):
            c2 = _poly_add(c2, _poly_mul(roots[i], roots[j]))

    e1: _Poly = {}
    for i in range(r):
        e1 = _poly_add(e1, _unit(r, i))
    e1sq = _poly_mul(e1, e1)
    e2: _Poly = {}
    for i in range(r):
        for j in range(i + 1, r):
            e2 = _poly_add(e2, _poly_mul(_unit(r, i), _unit(r, j)))

    x1 = tuple(1 if k == 0 else 0 for k in range(r))
    x1sq = tuple(2 if k == 0 else 0 for k in range(r))
    alpha = c1.get(x1, Fraction(0))
    if _poly_add(c1, {e: -alpha * c for e, c in e1.items()}):
        raise DomainError("degree-1 part is not a multiple of e1", code="internal")
    beta = c2.get(x1sq, Fraction(0))
    if r >= 2:
        x1x2 = tuple(1 if k <= 1 else 0 for k in range(r))
        gamma = c2.get(x1x2, Fraction(0)) - 2 * beta
    else:
        gamma = Fraction(0)
    recomposed = _poly_add(
        {e: beta * c for e, c in e1sq.items()},
        {e: gamma * c for e, c in e2.items()},
    )
    if _poly_add(c2, {e: -c for e, c in recomposed.items()}):
        raise DomainError("degree-2 part escapes the (e1^2, e2) span", code="internal")
    return t, alpha, beta, gamma


def _pairings(e: ChernData, n: int, kind: str) -> tuple[Fraction, Fraction, Fraction]:
    """(rank, c1 multiple, ch2 pairing) of the functor applied to e."""
    t, alpha, beta, gamma = _functor_shape(e.rank, n, kind)
    c1sq = alpha * alpha * e.c1sq
    c2 = beta * e.c1sq + gamma * e.c2
    return Fraction(t), alpha, (c1sq - 2 * c2) / 2


def power_by_roots(e: ChernData, n: int, kind: str) -> ChernData:
    """Chern data of Sym^n(e) ("sym") or Lambda^n(e) ("wedge") by the
    splitting principle, independent of the closed-form characters.

    A rank-1 record can carry c2 data that no single Chern root realizes
    (ideal-sheaf-like classes), so rank 1 is reduced to honest rank-2
    splitting through the virtual presentation e = (e + O) - O and the
    classical series identities Sym_t(A - B) = Sym_t(A)/Sym_t(B) and
    lambda_t(A - B) = lambda_t(A)/lambda_t(B); out-of-range exterior powers
    follow the zero-sheaf convention of the public API.
    """
    if e.rank == 1:
        if kind == "wedge" and n > 1:
            return ChernData.zero()
        padded = ChernData(2, e.deg, e.c1sq, e.c2)
        if kind == "sym":
            # Sym^n(F - O) = Sym^n(F) - Sym^(n-1)(F)
            terms = [(1, n)] + ([(-1, n - 1)] if n >= 1 else [])
        else:
            # lambda_t(F - O) = lambda_t(F) / (1 + t)
            terms = [((-1) ** k, n - k) for k in range(n + 1)]
        t = alpha = ch2 = Fraction(0)
        for sign, j in terms:
            tj, aj, cj = _pairings(padded, j, kind)
            t += sign * tj
            alpha += sign * aj
            ch2 += sign * cj
        if t.denominator != 1 or t < 0:
            raise DomainError("virtual reduction produced a bad rank", code="internal")
        if t == 0:
            if alpha or ch2:
                raise DomainError("virtual reduction left a nonzero character", code="internal")
            return ChernData.zero()
        c1sq = alpha * alpha * e.c1sq
        return ChernData(t.numerator, alpha * e.deg, c1sq, (c1sq - 2 * ch2) / 2)

    t, alpha, beta, gamma = _functor_shape(e.rank, n, kind)
    if t == 0:
        return ChernData.zero()
    deg = alpha * e.deg
    c1sq = alpha * alpha * e.c1sq
    c2 = beta * e.c1sq + gamma * e.c2
    return ChernData(t, deg, c1sq, c2)


def character_product(x: Sequence, y: Sequence) -> tuple:
    """Product in the character ring Q[c1, ch2]/(degree >= 3) on the basis
    (1, c1, ch2, c1^2), for the identity sum_k (-1)^k Sym^(n-k) Lambda^k = 0."""
    return (
        x[0] * y[0],
        x[0] * y[1] + y[0] * x[1],
        x[0] * y[2] + y[0] * x[2],
        x[0] * y[3] + y[0] * x[3] + x[1] * y[1],
    )


# -- surd expansion -------------------------------------------------------

def surd_power_difference(r: int) -> tuple[int, int]:
    """(u, v) with (sqrt(8r)+1)^N - (sqrt(8r)-1)^N = u + v sqrt(8r), N = 2r^2,
    computed by iterated multiplication in Z[sqrt(8r)].  u must be 0."""
    radicand = 8 * r
    n = 2 * r * r

    def mul(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
        return (x[0] * y[0] + radicand * x[1] * y[1], x[0] * y[1] + x[1] * y[0])

    plus = minus = (1, 0)
    for _ in range(n):
        plus = mul(plus, (1, 1))
        minus = mul(minus, (-1, 1))
    return (plus[0] - minus[0], plus[1] - minus[1])


# -- SL(2, F_q) by exhaustive filter --------------------------------------

def sl2_by_filter(field: FqField) -> tuple[FqMatrix, ...]:
    """All 2x2 matrices of determinant 1 over the field, sorted."""
    one = field.one
    out = []
    for a, b, c, d in itertools.product(field.elements(), repeat=4):
        det = field.sub(field.mul(a, d), field.mul(b, c))
        if det == one:
            out.append(FqMatrix(field, ((a, b), (c, d))))
    return tuple(sorted(out))


# -- common-eigenvector reducibility oracle (dimension 2) -----------------

def _embedding_root(field: FqField, ext: FqField) -> int:
    """Index in ext of a root of field's modulus (defines F_q -> F_(q^2))."""
    coeffs = [ext.from_int(c) for c in field.modulus]
    for x in ext.elements():
        acc = ext.zero
        power = ext.one
        for c in coeffs:
            acc = ext.add(acc, ext.mul(c, power))
            power = ext.mul(power, x)
        if acc == ext.zero:
            return x
    raise DomainError("modulus has no root in the quadratic extension", code="internal")


def _closure_2x2(field: FqField, gens: Sequence[FqMatrix]) -> set:
    """Elements of the group generated by 2x2 matrices, as entry tuples
    (a, b, c, d), by breadth-first search with the field's add and mul."""
    add, mul = field.add, field.mul
    gs = [tuple(x for row in g.rows for x in row) for g in gens]
    start = (field.one, field.zero, field.zero, field.one)
    seen = {start}
    frontier = [start]
    while frontier:
        new = []
        for a, b, c, d in frontier:
            for e, f, g, h in gs:
                prod = (add(mul(a, e), mul(b, g)), add(mul(a, f), mul(b, h)),
                        add(mul(c, e), mul(d, g)), add(mul(c, f), mul(d, h)))
                if prod not in seen:
                    seen.add(prod)
                    new.append(prod)
        frontier = new
    return seen


def reducible_by_common_eigenvector(gens: Sequence[FqMatrix]) -> bool:
    """True iff all elements of the generated 2-dimensional group share an
    eigenvector over the quadratic extension.

    For 2x2 matrices every invariant line over the algebraic closure is
    already defined over F_(q^2), so scanning the projective line of the
    extension decides absolute reducibility.
    """
    field = gens[0].field
    if any(g.n != 2 for g in gens):
        raise DomainError("eigenvector oracle is 2-dimensional only", code="bad_matrix")
    elements = _closure_2x2(field, gens)
    ext = make_field(field.p, 2 * field.e)
    root = _embedding_root(field, ext)

    def embed(i: int) -> int:
        acc = ext.zero
        power = ext.one
        for c in field.coeffs(i):
            acc = ext.add(acc, ext.mul(ext.from_int(c), power))
            power = ext.mul(power, root)
        return acc

    mats = [((embed(a), embed(b)), (embed(c), embed(d))) for a, b, c, d in elements]
    lines = [(ext.one, t) for t in ext.elements()] + [(ext.zero, ext.one)]
    for v in lines:
        ok = True
        for m in mats:
            w0 = ext.add(ext.mul(m[0][0], v[0]), ext.mul(m[0][1], v[1]))
            w1 = ext.add(ext.mul(m[1][0], v[0]), ext.mul(m[1][1], v[1]))
            if ext.sub(ext.mul(w0, v[1]), ext.mul(w1, v[0])) != ext.zero:
                ok = False
                break
        if ok:
            return True
    return False


# -- matrix-algebra span by group enumeration -----------------------------

def group_by_enumeration(gens: Sequence[FqMatrix], limit: int = 4096) -> list[tuple[int, ...]]:
    """The elements of the group generated by the r x r matrices, as sorted
    flattened entry tuples: its own breadth-first search with the field's add
    and mul, the element oracle of the stabilizer chain.  Groups of more than
    ``limit`` elements raise CapExceededError."""
    field = gens[0].field
    r = gens[0].n
    n = r * r
    add, mul = field.add, field.mul
    gs = [tuple(x for row in g.rows for x in row) for g in gens]

    def times(a: tuple, b: tuple) -> tuple:
        out = []
        for i in range(0, n, r):
            for j in range(r):
                acc = field.zero
                for k in range(r):
                    acc = add(acc, mul(a[i + k], b[k * r + j]))
                out.append(acc)
        return tuple(out)

    start = tuple(field.one if i % (r + 1) == 0 else field.zero for i in range(n))
    seen = {start}
    frontier = [start]
    while frontier:
        new = []
        for a in frontier:
            for b in gs:
                c = times(a, b)
                if c not in seen:
                    seen.add(c)
                    new.append(c)
        if len(seen) > limit:
            raise CapExceededError(f"group has more than {limit} elements")
        frontier = new
    return sorted(seen)


def span_by_enumeration(gens: Sequence[FqMatrix], limit: int = 4096) -> int:
    """Dimension of the linear span of the group generated by the r x r
    matrices: the group from ``group_by_enumeration``, then the rank of its
    elements by elimination on lists.  Groups of more than ``limit`` elements
    raise CapExceededError."""
    field = gens[0].field
    n = gens[0].n ** 2
    mul = field.mul
    rows: list[tuple[int, list[int]]] = []  # (pivot, row with a 1 there)
    for v in group_by_enumeration(gens, limit):
        v = list(v)
        for pivot, row in rows:
            c = v[pivot]
            if c:
                v = [field.sub(x, mul(c, y)) for x, y in zip(v, row)]
        pivot = next((i for i, x in enumerate(v) if x), None)
        if pivot is not None:
            inv = field.inv(v[pivot])
            rows.append((pivot, [mul(inv, x) for x in v]))
            if len(rows) == n:
                break
    return len(rows)


# -- abelian normal subgroups by a clique search ---------------------------

def abelian_normal_by_cliques(table: Sequence[Sequence[int]], limit: int = 200_000) -> frozenset:
    """The largest abelian normal subgroup of the group with this
    multiplication table, first found in the search order.

    An abelian group is its own answer.  Otherwise, as a normal subgroup is
    a union of conjugacy classes, closing the identity with every clique of
    classes that commute within and with each other finds every abelian
    normal subgroup; a clique is not extended by a class its closure already
    holds, which closes to the same subgroup as a clique visited anyway.
    Classes and closures are computed here from the raw table.  More than
    ``limit`` cliques raise CapExceededError."""
    n = len(table)
    e = next(a for a in range(n) if list(table[a]) == list(range(n)))
    inv = [list(table[a]).index(e) for a in range(n)]

    def commute(xs, ys) -> bool:
        return all(table[a][b] == table[b][a] for a in xs for b in ys)

    if commute(range(n), range(n)):
        return frozenset(range(n))

    def closure(subset: set) -> frozenset:
        out = subset | {e}
        frontier = list(out)
        while frontier:
            new = []
            for a in frontier:
                for b in list(out):
                    for c in (table[a][b], table[b][a]):
                        if c not in out:
                            out.add(c)
                            new.append(c)
            frontier = new
        return frozenset(out)

    classes, seen = [], {e}
    for a in range(n):
        if a not in seen:
            cls = {table[table[g][a]][inv[g]] for g in range(n)}
            seen |= cls
            if commute(cls, cls):
                classes.append(cls)
    k = len(classes)
    compat = {(i, j) for i in range(k) for j in range(i + 1, k) if commute(classes[i], classes[j])}
    best = frozenset({e})
    stack: list[tuple[tuple[int, ...], int]] = [((), 0)]
    visited = 0
    while stack:
        chosen, start = stack.pop()
        visited += 1
        if visited > limit:
            raise CapExceededError(f"more than {limit} class cliques")
        sub = closure(set().union(*(classes[i] for i in chosen)))
        if commute(sub, sub) and len(sub) > len(best):
            best = sub
        for nxt in range(start, k):
            if not classes[nxt] <= sub and all((i, nxt) in compat for i in chosen):
                stack.append((chosen + (nxt,), nxt + 1))
    return best
