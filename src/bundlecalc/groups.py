"""Finite matrix groups from generators: closure enumeration, the two-
elementary-matrix generation of SL(2, F_q), the Burnside matrix-algebra
span test for absolute irreducibility, and free-group representations as
desk-scale models of finite covers with their holonomy (image) groups.

All enumerations are returned in the canonical sorted order (lexicographic
on entry-index rows), so repeated runs are bit-identical.

The closure runs on packed matrices: a row is a base-q integer of its entry
indices and a matrix a base-q^r integer of its rows, both big-endian, so
integer order is the canonical row order.  Right multiplication by a
generator maps each row independently, through a per-generator table from
packed row to packed row that is filled as rows are met.  The FqMatrix
objects are built once, from the sorted packed set.

The span test runs on whole rows as well: a flattened matrix is one
``bytes`` of entry indices (q <= 81 < 256).  Scaling is one
``bytes.translate``; a sum is taken on the e base-p digit planes of its
terms, each plane one big integer, and reduced mod p by one more
``translate`` before any byte could carry.
"""

from __future__ import annotations

import gc
import operator
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import filterfalse, repeat
from math import comb
from typing import Optional, Sequence

from .encoding import format_integer
from .errors import CapExceededError, DomainError
from .fields import FqField, Q_CAP
from .matrices import FqMatrix, dual_matrix, flatten, kronecker, sym_matrix, wedge_matrix

CLOSURE_CAP = 10 ** 6
SPAN_DIM_CAP = 256


@dataclass(frozen=True)
class FqMatrixGroup:
    """A finite matrix group: generators plus its full sorted element set."""

    field: FqField
    dim: int
    generators: tuple[FqMatrix, ...]
    elements: tuple[FqMatrix, ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    def element_set(self) -> frozenset[FqMatrix]:
        return frozenset(self.elements)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FqMatrixGroup)
            and self.field == other.field
            and self.elements == other.elements
        )

    def __hash__(self) -> int:
        return hash((self.field, self.elements))

    def to_json(self, sample: int = 4) -> dict:
        return {
            "order": format_integer(self.order),
            "generators": [g.to_coeff_rows() for g in self.generators],
            "sample_elements": [m.to_coeff_rows() for m in self.elements[:sample]],
        }


class _RowAction(dict):
    """Packed row v -> packed row v * g for one generator g, computed from
    the field tables the first time v is met."""

    def __init__(self, g: FqMatrix, places: list[int]):
        super().__init__()
        self.cols = tuple(zip(*g.rows))
        self.field = g.field
        self.places = places

    def __missing__(self, row: int) -> int:
        f = self.field
        q, add, mul = f.q, f.add_table, f.mul_table
        v = [row // p % q for p in self.places]
        out = 0
        for col in self.cols:
            acc = 0
            for x, y in zip(v, col):
                acc = add[acc][mul[x][y]]
            out = out * q + acc
        self[row] = out
        return out


def closure(generators: Sequence[FqMatrix], cap: int = CLOSURE_CAP) -> tuple[FqMatrix, ...]:
    """Multiplicative closure of the generators, sorted canonically.

    In a finite matrix group, closing under products from the identity
    already yields the generated subgroup (inverses are powers).  The
    breadth-first search multiplies every element by every generator once,
    a whole level per generator at a time: the frontier is kept as one list
    of packed rows per row position.
    """
    if not generators:
        raise DomainError("at least one generator required", code="no_generators")
    field = generators[0].field
    n = generators[0].n
    for g in generators:
        if g.field != field or g.n != n:
            raise DomainError("generators must share a field and dimension", code="bad_matrix")
        if not g.is_invertible():
            raise DomainError("generators must be invertible", code="not_invertible")
    q = field.q
    radix = q ** n
    places = [q ** (n - 1 - j) for j in range(n)]  # of the entries in a row
    weights = [radix ** (n - 1 - i) for i in range(n)]  # of the rows in a matrix
    actions = [_RowAction(g, places) for g in generators]
    identity = [field.one * p for p in places]
    seen = {sum(r * w for r, w in zip(identity, weights))}
    frontier = [[r] for r in identity]
    while frontier[0]:
        level = []
        for act in actions:
            act_on = act.__getitem__
            prods = map(act_on, frontier[0])
            for rows in frontier[1:]:
                prods = [m * radix + r for m, r in zip(prods, map(act_on, rows))]
            new = set(filterfalse(seen.__contains__, prods))
            seen |= new
            if len(seen) > cap:
                raise CapExceededError(f"group closure exceeded the element cap {cap}")
            level.append(new)
        frontier = [[m // w % radix for new in level for m in new] for w in weights]
    codes = sorted(seen)
    del seen
    # the matrices share one entry tuple per distinct row
    row_tuples = {row: tuple(row // v % q for v in places)
                  for row in {code // w % radix for code in codes for w in weights}}
    columns = [[row_tuples[code // w % radix] for code in codes] for w in weights]
    del codes
    with _gc_paused():
        return tuple(map(FqMatrix._make, repeat(field), zip(*columns)))


@contextmanager
def _gc_paused():
    """Pause the cyclic garbage collector while a closure's matrices are
    built: they form no cycles, and each collection pass would rescan all of
    them built so far (about 0.6 s of the 531 360 matrices of SL(2, F_81))."""
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def group_from_generators(generators: Sequence[FqMatrix], cap: int = CLOSURE_CAP) -> FqMatrixGroup:
    gens = tuple(generators)
    elements = closure(gens, cap)
    return FqMatrixGroup(gens[0].field, gens[0].n, gens, elements)


def sl2_elementary_generators(field: FqField) -> list[FqMatrix]:
    """The elementary transvections [[1,b],[0,1]], [[1,0],[b,1]] with b
    running over the canonical basis 1, x, ..., x^(e-1) of F_q over F_p.

    For a prime field this is exactly the classical pair [[1,1],[0,1]] and
    [[1,0],[1,1]].  Over a proper extension the unit-entry pair only
    generates SL(2, F_p) (in characteristic 2 two elementary matrices can
    only generate a dihedral group), so the basis entries are required for
    the closure to be all of SL(2, F_q).
    """
    one, zero = field.one, field.zero
    gens = []
    for i in range(field.e):
        b = field.index(tuple(1 if k == i else 0 for k in range(field.e)))
        gens.append(FqMatrix(field, [[one, b], [zero, one]]))
        gens.append(FqMatrix(field, [[one, zero], [b, one]]))
    return gens


def sl2_generate(field: FqField, cap: int = CLOSURE_CAP) -> FqMatrixGroup:
    """SL(2, F_q) as the closure of its elementary transvection generators;
    every element is checked to have determinant 1."""
    if field.q > Q_CAP:
        raise CapExceededError(f"field size {field.q} exceeds the cap {Q_CAP}")
    group = group_from_generators(sl2_elementary_generators(field), cap)
    one = field.one
    add, mul, neg = field.add_table, field.mul_table, field.neg_table
    for m in group.elements:
        (a, b), (c, d) = m.rows
        if add[mul[a][d]][neg[mul[b][c]]] != one:
            raise DomainError("closure produced a non-unimodular element", code="internal")
    return group


@dataclass(frozen=True)
class BurnsideResult:
    irreducible: bool
    span_dim: int


def burnside_irreducible(gens: Sequence[FqMatrix]) -> BurnsideResult:
    """Absolute irreducibility by matrix-algebra span.

    The group generated acts absolutely irreducibly iff its elements span
    the full r^2-dimensional matrix algebra.  The span of all group elements
    is the unital algebra generated by the generators, so a basis is grown
    incrementally (multiplying basis elements by generators) until the
    dimension stabilizes; the group itself is never enumerated.

    Vectors are ``bytes`` of entry indices, held as digit-plane integers
    while terms are added (see the module docstring).  The basis is in
    echelon form, each row scaled to a pivot entry 1 found by ``lstrip``; a
    product m*g is the sum over k of the outer products (column k of m) x
    (row k of g), each one ``join`` of translated rows of g.

    An empty generator list is the trivial group (span dimension 1).
    """
    if gens:
        field = gens[0].field
        r = gens[0].n
        for g in gens:
            if g.field != field or g.n != r:
                raise DomainError("generators must share a field and dimension", code="bad_matrix")
    else:
        raise DomainError("at least one matrix (or the identity) required", code="no_generators")
    if r * r > SPAN_DIM_CAP:
        raise CapExceededError(f"span dimension {r * r} exceeds the cap {SPAN_DIM_CAP}")

    f = field
    p, e, q, n = f.p, f.e, f.q, r * r
    pad = bytes(256 - q)
    weights = [p ** (e - 1 - k) for k in range(e)]
    digit = [bytes(i // w % p for i in range(q)) + pad for w in weights]
    scale = [bytes(row) + pad for row in f.mul_table]
    # times[c][k] takes a vector v to digit plane k of c*v
    times = [[row.translate(t) for t in digit] for row in scale]
    minus = [times[c] for c in f.neg_table]
    mod_p = bytes(i % p for i in range(256))
    room = 255 // (p - 1)  # terms a plane holds before a byte could carry
    shifts = [8 * (n - 1 - i) for i in range(n)]

    def reduced(planes: list[int]) -> list[int]:
        return [int.from_bytes(x.to_bytes(n, "big").translate(mod_p), "big") for x in planes]

    def packed(planes: list[int]) -> bytes:
        return sum(map(operator.mul, weights, planes)).to_bytes(n, "big")

    def product(m: bytes, outer: list) -> list[int]:
        """Digit planes of m*g, from outer[k][j][c] = plane j of c * (row k of g)."""
        planes = [0] * e
        load = 0
        for k, terms in enumerate(outer):
            if load == room:
                planes, load = reduced(planes), 1
            column = m[k::r]
            planes = [x + int.from_bytes(b"".join(map(t.__getitem__, column)), "big")
                      for x, t in zip(planes, terms)]
            load += 1
        return reduced(planes)

    basis: list[tuple[int, bytes]] = []  # (shift of the pivot byte, row with pivot 1)

    def reduce_and_insert(planes: list[int]) -> bool:
        load = 1
        for shift, row in basis:
            c = 0
            for w, x in zip(weights, planes):
                c += w * (((x >> shift) & 255) % p)
            if c:  # x - c*y = x + (-c)*y
                if load == room:
                    planes, load = reduced(planes), 1
                planes = [x + int.from_bytes(row.translate(t), "big")
                          for x, t in zip(planes, minus[c])]
                load += 1
        planes = reduced(planes)
        if not any(planes):
            return False
        vec = packed(planes)
        pivot = n - len(vec.lstrip(b"\0"))
        basis.append((shifts[pivot], vec.translate(scale[f.inv(vec[pivot])])))
        return True

    flat = [bytes(flatten(g)) for g in gens]
    # outer[k][j][c]: digit plane j of c * (row k of g), for each generator g
    outers = [[[[g[k * r:(k + 1) * r].translate(t[j]) for t in times] for j in range(e)]
               for k in range(r)] for g in flat]
    identity = bytes(flatten(FqMatrix.identity(f, r)))
    members = []
    for v in [identity] + flat:
        if reduce_and_insert([int.from_bytes(v.translate(t), "big") for t in digit]):
            members.append(v)
    frontier = members
    while frontier and len(basis) < n:
        new = []
        for m in frontier:
            for outer in outers:
                planes = product(m, outer)
                if reduce_and_insert(planes):
                    new.append(packed(planes))
                    if len(basis) == n:
                        break
            if len(basis) == n:
                break
        frontier = new
    span = len(basis)
    return BurnsideResult(span == n, span)


@dataclass(frozen=True)
class FreeGroupRep:
    """A representation of the free group on g generators into GL_r(F_q),
    modeling the monodromy of a finite cover of a curve whose fundamental
    group is (the profinite completion of) that free group."""

    field: FqField
    dim: int
    images: tuple[FqMatrix, ...]

    def __post_init__(self):
        if not self.images:
            raise DomainError("representation needs at least one image", code="no_generators")
        for m in self.images:
            if m.field != self.field or m.n != self.dim:
                raise DomainError("images must share a field and dimension", code="bad_matrix")
            if not m.is_invertible():
                raise DomainError("images must be invertible", code="not_invertible")

    @property
    def free_rank(self) -> int:
        return len(self.images)

    @staticmethod
    def of(images: Sequence[FqMatrix]) -> "FreeGroupRep":
        images = tuple(images)
        return FreeGroupRep(images[0].field, images[0].n, images)


@dataclass(frozen=True)
class HolonomyResult:
    group: FqMatrixGroup
    full: Optional[bool]


def holonomy(
    rep: FreeGroupRep,
    target: Optional[FqMatrixGroup] = None,
    cap: int = CLOSURE_CAP,
) -> HolonomyResult:
    """Image closure of the representation; with a target group supplied,
    also reports whether the image is the whole target (full holonomy)."""
    group = group_from_generators(rep.images, cap)
    full = None
    if target is not None:
        full = group.element_set() == target.element_set()
    return HolonomyResult(group, full)


def associated_rep(rep: FreeGroupRep, functor: str, n: int = 0,
                   other: Optional[FreeGroupRep] = None) -> FreeGroupRep:
    """Apply a matrix functor generator-wise, through ``apply_matrix_functor``.

    functor is one of "dual", "sym", "wedge", "tensor_with"; sym/wedge take
    the power n and tensor_with takes the second representation (of the same
    free group, matched generator by generator).  The output dimension is
    checked against the span cap before any image is built; a bad power or
    an unknown functor is rejected by ``apply_matrix_functor``.
    """
    r = rep.dim
    others = [None] * rep.free_rank
    if functor == "tensor_with":
        if other is None:
            raise DomainError("tensor_with requires a second representation", code="bad_functor")
        if other.free_rank != rep.free_rank or other.field != rep.field:
            raise DomainError(
                "tensor_with requires matching free rank and field", code="bad_functor"
            )
        others = other.images
        _check_span_cap(r * other.dim)
    elif functor == "dual":
        _check_span_cap(r)
    elif functor == "sym" and n >= 0:
        _check_span_cap(comb(n + r - 1, r - 1))
    elif functor == "wedge" and n >= 0:
        _check_span_cap(comb(r, n))
    return FreeGroupRep.of([apply_matrix_functor(m, functor, n, o)
                            for m, o in zip(rep.images, others)])


def _check_span_cap(new_dim: int) -> None:
    """Reject a functor output dimension before any image is built."""
    if new_dim * new_dim > SPAN_DIM_CAP:
        raise CapExceededError(
            f"functor output dimension {new_dim} exceeds the span cap"
        )


def apply_matrix_functor(m: FqMatrix, functor: str, n: int = 0,
                         other: Optional[FqMatrix] = None) -> FqMatrix:
    """The matrix of one functor applied to one matrix: the single map from
    functor name to matrix function, used by ``associated_rep``."""
    if functor == "dual":
        return dual_matrix(m)
    if functor == "sym":
        return sym_matrix(m, n)
    if functor == "wedge":
        return wedge_matrix(m, n)
    if functor == "tensor_with":
        if other is None:
            raise DomainError("tensor_with requires a second matrix", code="bad_functor")
        return kronecker(m, other)
    raise DomainError(f"unknown functor {functor!r}", code="bad_functor")
