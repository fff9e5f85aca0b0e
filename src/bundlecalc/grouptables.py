"""Abstract finite groups as multiplication tables, and the brute-force
verification of Jordan's theorem: every finite linear group of degree r has
an abelian normal subgroup of index at most J(r).

The abelian normal subgroup of minimal index is found by a breadth-first
walk from the centre Z, the union of the singleton conjugacy classes.  For
each subgroup N found and each class C outside N whose elements commute
with each other and with N, <N, C> is abelian and normal: it is the closure
of N under right multiplication by C.  The largest subgroup found is kept.
The walk is exact.  If A is abelian and normal, so is AZ, and |AZ| >= |A|.
An abelian normal subgroup above Z is Z and some non-central classes, which
the walk adds one at a time (an abelian group has none, and is returned).
Starting at Z keeps the walk small: on (Z/2)^5 x D4 it meets 4 subgroups,
against 10 178 from the trivial group.

A table built from a matrix group is filled from the left-multiplication
permutations of its generators, (g * x) * y = g * (x * y), so it needs
n * |gens| matrix products instead of n^2.  Every table, however built, is
checked for associativity by Light's test: (x * a) * y = x * (a * y) for all
x, y and every a in a generating set, which costs O(n^2 |gens|) instead of
O(n^3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .encoding import format_integer
from .errors import CapExceededError, DomainError
from .groups import FqMatrixGroup
from .matrices import FqMatrix

JORDAN_ORDER_CAP = 360


@dataclass(frozen=True)
class FiniteGroupTable:
    """A finite group given by its multiplication table.

    table[i][j] is the index of element i times element j.  Identity and
    inverses are verified at construction, and associativity by Light's
    test (Clifford & Preston, Algebraic Theory of Semigroups I, 1.2): the
    elements a with (x * a) * y = x * (a * y) for all x, y are closed under
    the product, so it suffices to check a over a generating set.  The set
    is chosen greedily, in index order, among the elements not yet reached
    as left-normed products of those already chosen.
    """

    order: int
    table: tuple[tuple[int, ...], ...]
    labels: tuple[str, ...]
    identity: int = -1  # filled in during validation

    def __post_init__(self):
        n = self.order
        if n < 1:
            raise DomainError("group order must be >= 1", code="bad_table")
        table = tuple(tuple(row) for row in self.table)
        if len(table) != n or any(len(row) != n for row in table):
            raise DomainError("table must be n x n", code="bad_table")
        for row in table:
            if not (0 <= min(row) and max(row) < n):
                raise DomainError("table entries must be element indices", code="bad_table")
        if len(self.labels) != n:
            raise DomainError("one label per element required", code="bad_table")
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "labels", tuple(str(s) for s in self.labels))
        ident = None
        for e in range(n):
            if all(table[e][x] == x and table[x][e] == x for x in range(n)):
                ident = e
                break
        if ident is None:
            raise DomainError("no identity element", code="bad_table")
        object.__setattr__(self, "identity", ident)
        for a in range(n):
            if not any(table[a][b] == ident and table[b][a] == ident for b in range(n)):
                raise DomainError(f"element {a} has no inverse", code="bad_table")
        for a in _greedy_generators(table, ident):
            column_a = [row[a] for row in table]
            row_a = table[a]
            for x, row_x in enumerate(table):
                # (x * a) * y against x * (a * y), over all y at once
                if table[column_a[x]] != tuple(map(row_x.__getitem__, row_a)):
                    raise DomainError(
                        f"associativity fails at ({x}, {a})", code="bad_table"
                    )

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        # every row holds the identity: inverses are verified at construction
        return self.table[a].index(self.identity)

    def is_abelian(self) -> bool:
        t = self.table
        n = self.order
        return all(t[a][b] == t[b][a] for a in range(n) for b in range(a + 1, n))

    def conjugacy_classes(self) -> list[tuple[int, ...]]:
        """Sorted classes, identity class first."""
        n = self.order
        t = self.table
        invs = [self.inv(g) for g in range(n)]
        seen = [False] * n
        classes = []
        for a in range(n):
            if seen[a]:
                continue
            cls = {t[t[g][a]][invs[g]] for g in range(n)}
            for x in cls:
                seen[x] = True
            classes.append(tuple(sorted(cls)))
        classes.sort(key=lambda c: (self.identity not in c, c))
        return classes


def _greedy_generators(table: tuple[tuple[int, ...], ...], identity: int) -> list[int]:
    """Elements whose left-normed products, with the identity, reach every
    element: each is the first in index order not reached by the earlier ones."""
    n = len(table)
    reached = [False] * n
    reached[identity] = True
    gens: list[int] = []
    for a in range(n):
        if reached[a]:
            continue
        gens.append(a)
        reached[a] = True
        frontier = [x for x in range(n) if reached[x]]
        while frontier:
            new = []
            for x in frontier:
                row = table[x]
                for g in gens:
                    y = row[g]
                    if not reached[y]:
                        reached[y] = True
                        new.append(y)
            frontier = new
    return gens


def table_from_matrix_group(g: FqMatrixGroup) -> FiniteGroupTable:
    """Multiplication table of a matrix group under its canonical order.

    Row h * x of the table is row x mapped through the left-multiplication
    permutation of generator h, so the rows are filled breadth-first from
    the identity's.  The group must be consistent: its elements closed
    under left multiplication by the generators, which reach every element
    from the identity.
    """
    elements = g.elements
    n = len(elements)
    index = {m: i for i, m in enumerate(elements)}
    try:
        perms = [[index[h * m] for m in elements] for h in g.generators]
        ident = index[FqMatrix.identity(g.field, g.dim)]
    except KeyError:
        raise DomainError(
            "the group's elements are not closed under its generators", code="bad_group"
        ) from None
    rows: list[tuple[int, ...] | None] = [None] * n
    rows[ident] = tuple(range(n))
    frontier = [ident]
    while frontier:
        new = []
        for x in frontier:
            row = rows[x]
            for perm in perms:
                hx = perm[x]
                if rows[hx] is None:
                    rows[hx] = tuple(map(perm.__getitem__, row))
                    new.append(hx)
        frontier = new
    if None in rows:
        raise DomainError(
            "the group's generators do not reach every element", code="bad_group"
        )
    labels = tuple(m.label() for m in elements)
    return FiniteGroupTable(n, tuple(rows), labels)


def _grow(t: FiniteGroupTable, subgroup: frozenset[int], cls: Sequence[int]) -> frozenset[int]:
    """<subgroup, cls>, for a class commuting with itself and the subgroup."""
    table = t.table
    out = set(subgroup)
    frontier = list(subgroup)
    while frontier:
        new = []
        for x in frontier:
            row = table[x]
            for c in cls:
                y = row[c]
                if y not in out:
                    out.add(y)
                    new.append(y)
        frontier = new
    return frozenset(out)


def _all_commute(t: FiniteGroupTable, elements: Sequence[int]) -> bool:
    table = t.table
    els = list(elements)
    return all(
        table[a][b] == table[b][a] for i, a in enumerate(els) for b in els[i + 1:]
    )


def _is_normal(t: FiniteGroupTable, subgroup: frozenset[int]) -> bool:
    table = t.table
    for g in range(t.order):
        ig = t.inv(g)
        for s in subgroup:
            if table[table[g][s]][ig] not in subgroup:
                return False
    return True


@dataclass(frozen=True)
class JordanCertificate:
    """Outcome of the minimal-index search, with the witness subgroup."""

    subgroup: tuple[int, ...]
    order: int
    index: int
    bound: int
    holds: bool

    def to_json(self) -> dict:
        return {
            "N_order": format_integer(self.order),
            "index": format_integer(self.index),
            "bound": format_integer(self.bound),
            "holds": self.holds,
        }


def jordan_verify(g: FiniteGroupTable, r: int, j_value: int,
                  cap: int = JORDAN_ORDER_CAP) -> JordanCertificate:
    """Find the abelian normal subgroup of minimal index and compare with
    the degree-r Jordan bound; a group of more than ``cap`` elements raises
    CapExceededError.

    The witness is re-verified abelian and normal by exhaustive pair and
    conjugation checks before any index claim.
    """
    if r < 1:
        raise DomainError("degree must be positive", code="bad_rank")
    if j_value < 1:
        raise DomainError("bound must be >= 1", code="bad_mode")
    n = g.order
    if n > cap:
        raise CapExceededError(f"group order {n} exceeds the search cap {cap}")

    table = g.table
    classes = g.conjugacy_classes()
    centre = frozenset(c[0] for c in classes if len(c) == 1)
    usable = [c for c in classes if len(c) > 1 and _all_commute(g, c)]
    best = centre
    seen = {centre}
    frontier = [centre]
    while frontier:
        new = []
        for sub in frontier:
            for cls in usable:
                # a normal subgroup holding one element of a class holds it all
                if cls[0] in sub or any(table[a][b] != table[b][a] for a in cls for b in sub):
                    continue
                grown = _grow(g, sub, cls)
                if grown not in seen:
                    seen.add(grown)
                    new.append(grown)
                    if len(grown) > len(best):
                        best = grown
        frontier = new

    if not _all_commute(g, best):
        raise DomainError("witness subgroup failed the abelian re-check", code="internal")
    if not _is_normal(g, best):
        raise DomainError("witness subgroup failed the normality re-check", code="internal")
    index = n // len(best)
    return JordanCertificate(
        subgroup=tuple(sorted(best)),
        order=len(best),
        index=index,
        bound=j_value,
        holds=index <= j_value,
    )
