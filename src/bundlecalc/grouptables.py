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

A table is made only from a matrix group, and is correct by construction:
matrix multiplication is associative, and the group's stabilizer chain has
proved its elements closed, so the table is not re-checked.  It is filled
from the left-multiplication permutations of the generators, (g * x) * y =
g * (x * y), so it needs n * |gens| matrix products instead of n^2.  The
Jordan order cap is checked there, on the chain's order, before any element
is enumerated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .caps import JORDAN_ORDER_CAP
from .encoding import format_integer
from .errors import CapExceededError, DomainError
from .groups import FqMatrixGroup
from .matrices import FqMatrix


@dataclass(frozen=True)
class FiniteGroupTable:
    """A finite group given by its multiplication table: table[i][j] is the
    index of element i times element j, and identity is the index of the
    identity.  Tables are made only by ``table_from_matrix_group``, which
    builds them correct by construction (module docstring)."""

    order: int
    table: tuple[tuple[int, ...], ...]
    identity: int

    def inv(self, a: int) -> int:
        # every row of a group's table holds the identity
        return self.table[a].index(self.identity)

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


def table_from_matrix_group(g: FqMatrixGroup, cap: int = JORDAN_ORDER_CAP) -> FiniteGroupTable:
    """Multiplication table of a matrix group under its canonical order.  A
    group of more than ``cap`` elements raises CapExceededError before any
    element is enumerated.

    Row h * x of the table is row x mapped through the left-multiplication
    permutation of generator h, so the rows are filled breadth-first from
    the identity's; the generators reach every element.
    """
    if g.order > cap:
        raise CapExceededError(f"group order {g.order} exceeds the configured cap {cap}")
    elements = g.elements
    n = len(elements)
    index = {m: i for i, m in enumerate(elements)}
    perms = [[index[h * m] for m in elements] for h in g.generators]
    ident = index[FqMatrix.identity(g.field, g.dim)]
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
    return FiniteGroupTable(n, tuple(rows), ident)


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


def jordan_verify(g: FiniteGroupTable, r: int, j_value: int) -> JordanCertificate:
    """Find the abelian normal subgroup of minimal index and compare with
    the degree-r Jordan bound.

    The witness is re-verified abelian and normal by exhaustive pair and
    conjugation checks before any index claim.
    """
    if r < 1:
        raise DomainError("degree must be positive", code="bad_rank")
    if j_value < 1:
        raise DomainError("bound must be >= 1", code="bad_mode")
    n = g.order

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
