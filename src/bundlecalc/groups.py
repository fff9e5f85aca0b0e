"""Finite matrix groups from generators, each held as its stabilizer chain
(``FqMatrixGroup``) for order, membership, full holonomy and element
enumeration; the two-elementary-matrix generation of SL(2, F_q), the
Burnside matrix-algebra span test for absolute irreducibility, and
free-group representations as desk-scale models of finite covers with their
holonomy (image) groups.

All enumerations are returned in the canonical sorted order (lexicographic
on entry-index rows), so repeated runs are bit-identical.

Rows are packed: a row is a base-q integer of its entry indices, big-endian,
so integer order is the canonical row order, and a matrix is a tuple (to be
sorted, a base-q^n integer) of its rows.  Right multiplication by a matrix
g maps each row independently, through a table from packed row to packed
row that is filled as rows are met (``_row_action``).  For 2 x 2 g an entry
is computed in closed form, as ``FqMatrix.__mul__`` does: one ``divmod``
splits the row into its two entries, and (x, y) g = (ax + cy, bx + dy)
takes four mul-table rows bound once per g; larger g run the loop over
columns.

The stabilizer chain is deterministic Schreier-Sims (Sims 1970; Seress,
*Permutation Group Algorithms*, ch. 4) for the right action of matrices on
row vectors, with base e_1, ..., e_n.  Level i holds the orbit of e_i under
the strong generators that fix e_1, ..., e_(i-1), found breadth-first, with
a Schreier vector: each orbit point keeps its parent point and the index of
the generator that maps the parent to it.  A transversal element (from e_i
to a point) is built only when needed, from the path back to the root, and
sifting walks back to the root with inverse generators.  Every (orbit
point, strong generator) pair is sifted, deepest level first; a Schreier
generator that does not sift to the identity joins the strong generators.

The chain stops early, exactly.  With D the subgroup of F_q^* generated by
the generators' determinants, G lies in {g : det g in D}, so
|G| <= |SL(n, q)| |D|; and the product of the orbit lengths of any partial
chain is at most |G| (level i's group acts on an orbit whose stabilizer
contains level i+1's group).  Once the product reaches the upper bound,
both bounds are |G|: every orbit is complete and each level's group is the
full stabilizer of the one above, so the order, sifting and the descent
below are valid without checking the remaining pairs.  Once the product
exceeds the closure cap, the group is over the cap.

The order is the product of the orbit lengths.  Because row i of g is
e_i g, an element is fixed by its rows level by level: row i ranges over
the orbit at level i mapped by the transversal elements chosen above, so
the first elements in canonical order come from a best-first descent of
the chain.  The full list, enumerated only when asked for, walks the
Schreier trees from the last level up: level i's group is the products h u,
h in level i+1's group and u a transversal element of level i, one for each
pair (row i of h u is e_i u, the orbit point of u).  So the walk is exact:
it makes as many distinct elements as the order.  The products at an orbit
point are those at its parent times the tree edge's generator.

The span test runs on whole vectors in one layout for every q = p^e: an
entry is its e base-p digits in adjacent bytes, a flattened matrix one
integer.  A sum of terms is one integer addition (no carry while a byte
holds at most 255 // (p - 1) terms), a reduction mod p one ``translate``,
and an entry is read by one masked shift and a memo of entry indices.
"""

from __future__ import annotations

import heapq
import operator
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from math import comb, prod
from typing import Optional, Sequence

from .caps import CLOSURE_CAP
from .encoding import format_integer
from .errors import CapExceededError, DomainError
from .fields import FqField
from .matrices import FqMatrix, dual_matrix, flatten, kronecker, sym_matrix, wedge_matrix

SPAN_DIM_CAP = 256


class _Memo(dict):
    """key -> fn(key), computed the first time the key is met."""

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


def _row_action(g: FqMatrix, places: list[int]) -> _Memo:
    """Packed row v -> packed row v * g for one matrix g, computed from the
    field tables the first time v is met; in closed form for 2 x 2 g."""
    q, add, mul = g.field.q, g.field.add_table, g.field.mul_table
    if g.n == 2:
        (a, b), (c, d) = g.rows
        ma, mb, mc, md = mul[a], mul[b], mul[c], mul[d]

        def times2(row: int) -> int:
            x, y = divmod(row, q)  # (x, y) g = (ax + cy, bx + dy)
            return add[ma[x]][mc[y]] * q + add[mb[x]][md[y]]

        return _Memo(times2)

    cols = tuple(zip(*g.rows))

    def times(row: int) -> int:
        v = [row // p % q for p in places]
        out = 0
        for col in cols:
            acc = 0
            for x, y in zip(v, col):
                acc = add[acc][mul[x][y]]
            out = out * q + acc
        return out

    return _Memo(times)


def _order_bound(field: FqField, n: int, generators: Sequence[FqMatrix]) -> int:
    """|SL(n, q)| |D|, D the subgroup of F_q^* the determinants generate."""
    q, mul = field.q, field.mul_table
    dets = {g.det() for g in generators}
    group = {field.one}
    frontier = [field.one]
    while frontier:
        frontier = [y for y in {mul[x][d] for x in frontier for d in dets} if y not in group]
        group.update(frontier)
    return q ** (n * (n - 1) // 2) * prod(q ** i - 1 for i in range(2, n + 1)) * len(group)


class FqMatrixGroup:
    """The group generated by invertible matrices, held as its stabilizer
    chain for the right action on row vectors with base e_1, ..., e_n (see
    the module docstring): the order, membership (``m in group``), the first
    elements in canonical order, and the sorted element list, enumerated on
    first access to ``elements`` and cached.  Raises CapExceededError as soon
    as the group is proved to have more than ``cap`` elements."""

    def __init__(self, generators: Sequence[FqMatrix], cap: int = CLOSURE_CAP):
        self.generators = tuple(generators)
        if not self.generators:
            raise DomainError("at least one generator required", code="no_generators")
        self.field, self.dim = field, n = self.generators[0].field, self.generators[0].n
        for g in self.generators:
            if g.field != field or g.n != n:
                raise DomainError("generators must share a field and dimension", code="bad_matrix")
            if not g.is_invertible():
                raise DomainError("generators must be invertible", code="not_invertible")
        self.cap = cap
        q = field.q
        self.places = [q ** (n - 1 - j) for j in range(n)]
        self.base = tuple(field.one * p for p in self.places)  # e_1, ..., e_n packed
        self._acts: list[_Memo] = []  # the strong generators
        self._inverse_acts: list[_Memo] = []
        self._gens: list[list[int]] = [[] for _ in range(n)]  # level -> strong generators
        self._trees: list[dict] = [{b: None} for b in self.base]  # point -> (parent, generator)
        self._points: list[list[int]] = [[b] for b in self.base]  # breadth-first order
        self._paired: list[list[int]] = [[0] for _ in range(n)]  # per point: generators sifted
        self._first = [0] * n  # per level, no unsifted pair before this point
        self._transversal = [{b: self.base} for b in self.base]
        self._bound = _order_bound(field, n, self.generators)
        self._size = 1  # the product of the orbit lengths
        if cap < 1:  # the identity alone is over the cap
            self._over_cap()
        for g in self.generators:
            self._add_generator(g, 0)
        if not self._extend(list(range(n - 1, -1, -1))):
            self._schreier_sims()

    @property
    def order(self) -> int:
        return self._size

    def _over_cap(self):
        raise CapExceededError(f"group closure exceeded the element cap {self.cap}")

    def _add_generator(self, g: FqMatrix, top: int) -> None:
        """Make g a strong generator of levels top, ..., d, where e_d is the
        first base point g moves (none for the identity)."""
        act = _row_action(g, self.places)
        depth = next((i for i, b in enumerate(self.base) if act[b] != b), self.dim)
        if depth < self.dim:
            k = len(self._acts)
            self._acts.append(act)
            self._inverse_acts.append(_row_action(g.inverse(), self.places))
            for level in range(top, depth + 1):
                self._gens[level].append(k)
                self._first[level] = 0

    def _extend(self, levels: list[int]) -> bool:
        """Grow the orbits of the given levels under their generators; True
        once the product of the orbit lengths reaches the upper bound."""
        for level in levels:
            tree, points, paired = self._trees[level], self._points[level], self._paired[level]
            others = self._size // len(points)
            limit = self.cap // others
            target = self._bound // others if self._bound % others == 0 else 0
            acts = [(k, self._acts[k]) for k in self._gens[level]]
            i = 0  # the tables already hold the images met before
            while i < len(points):
                pt = points[i]
                for k, act in acts:
                    img = act[pt]
                    if img not in tree:
                        tree[img] = (pt, k)
                        points.append(img)
                        paired.append(0)
                        size = len(points)
                        if size > limit:
                            self._over_cap()
                        if size == target:
                            self._size = size * others
                            return True
                i += 1
            self._size = len(points) * others
        return False

    def _schreier_sims(self) -> None:
        """Sift every (orbit point, strong generator) pair, deepest level
        first, until all sift to the identity or the order is exact.  The
        last level has none to sift: an element of its group that fixes
        e_n fixes every base point, so it is the identity."""
        n = self.dim
        level = n - 2
        while level >= 0:
            points, paired, gens = self._points[level], self._paired[level], self._gens[level]
            j = self._first[level]
            while j < len(points) and paired[j] == len(gens):
                j += 1
            self._first[level] = j
            if j == len(points):
                level -= 1
                continue
            pt, k = points[j], gens[paired[j]]
            paired[j] += 1
            act = self._acts[k]
            if self._trees[level][act[pt]] == (pt, k):
                continue  # a tree edge: the Schreier generator is the identity
            h, depth = self._sift([act[r] for r in self._transversal_rows(level, pt)], level)
            if depth < n:
                self._add_generator(self._matrix(h), level + 1)
                if self._extend(list(range(depth, level, -1))):
                    return
                level = depth

    def _transversal_rows(self, level: int, point: int) -> tuple[int, ...]:
        """Rows of the transversal element of the level that takes its base
        point to the point: the product of the generators on the Schreier
        vector path, built on first use and cached."""
        cache, tree = self._transversal[level], self._trees[level]
        path = []
        while point not in cache:
            parent, k = tree[point]
            path.append((point, k))
            point = parent
        rows = cache[point]
        for point, k in reversed(path):
            act = self._acts[k]
            rows = cache[point] = tuple(act[r] for r in rows)
        return rows

    def _sift(self, h: list[int], level: int = 0) -> tuple[list[int], int]:
        """Sift packed rows h from the level down: while row i of h lies in
        the orbit at level i, walk it back to e_i with inverse generators.
        Returns the residue and the level it stopped at: n when h is in the
        group, and the residue is then the identity."""
        n = self.dim
        for i in range(level, n):
            tree, beta = self._trees[i], self.base[i]
            point = h[i]
            if point not in tree:
                return h, i
            if i == n - 1:  # walking back would only restore row n - 1
                return list(self.base), n
            rest = h[i + 1:]  # rows 1..i end on the base points
            while point != beta:
                point, k = tree[point]
                rest = list(map(self._inverse_acts[k].__getitem__, rest))
            h = list(self.base[:i + 1]) + rest
        return h, n

    def _matrix(self, rows) -> FqMatrix:
        q = self.field.q
        return FqMatrix._make(self.field, tuple(tuple(r // p % q for p in self.places)
                                                for r in rows))

    def __contains__(self, m: FqMatrix) -> bool:
        """Membership, by sifting."""
        if m.field != self.field or m.n != self.dim:
            return False
        rows = [sum(map(operator.mul, row, self.places)) for row in m.rows]
        return self._sift(rows)[1] == self.dim

    def smallest(self, k: int) -> list[FqMatrix]:
        """The first k elements in canonical order, by a best-first descent.

        Below a choice of rows 1..i, row i+1 of an element is a point of the
        orbit at level i+1 mapped by c, the product of the transversal
        elements chosen so far (the deepest on the left); choosing a point
        multiplies its transversal element onto c from the left.  Each
        choice leads to at least one element, so a level needs only its
        k smallest images."""
        found: list[tuple[int, ...]] = []
        last = self.dim - 1

        def descend(level: int, c: Optional[_Memo], rows: tuple[int, ...]) -> None:
            points = self._points[level]
            images = points if c is None else map(c.__getitem__, points)
            for image, point in heapq.nsmallest(k - len(found), zip(images, points)):
                if level == last:
                    found.append(rows + (image,))
                else:
                    u = self._transversal_rows(level, point)
                    below = u if c is None else [c[r] for r in u]
                    descend(level + 1, _row_action(self._matrix(below), self.places),
                            rows + (image,))
                if len(found) == k:
                    return

        if k > 0:
            descend(0, None, ())
        return [self._matrix(rows) for rows in found]

    @cached_property
    def elements(self) -> tuple[FqMatrix, ...]:
        return self._walk()

    def _walk(self) -> tuple[FqMatrix, ...]:
        """Every element in canonical order, by the Schreier-tree walk (module docstring)."""
        n, q = self.dim, self.field.q
        columns = [[b] for b in self.base]  # one list of packed rows per row position
        for level in range(n - 1, -1, -1):
            size, points, tree = len(columns[0]), self._points[level], self._trees[level]
            index = {point: j for j, point in enumerate(points)}
            for point in points[1:]:  # slice j holds point j's products; parents come first
                parent, k = tree[point]
                start = index[parent] * size
                for rows in columns:
                    rows.extend(map(self._acts[k].__getitem__, rows[start:start + size]))
        radix = q ** n
        codes = columns[0]
        for rows in columns[1:]:
            codes = [m * radix + r for m, r in zip(codes, rows)]
        codes.sort()
        weights = [radix ** (n - 1 - i) for i in range(n)]  # of the rows in a code
        # the matrices share one entry tuple per distinct row
        entries = {row: tuple(row // v % q for v in self.places) for row in set().union(*columns)}
        del columns
        columns = [[entries[code // w % radix] for code in codes] for w in weights]
        del codes
        return tuple(map(FqMatrix._make, repeat(self.field), zip(*columns)))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FqMatrixGroup)
            and self.field == other.field
            and self.dim == other.dim
            and self.order == other.order
            and all(g in self for g in other.generators)
        )

    def __hash__(self) -> int:
        return hash((self.field, self.dim, self.order))

    def to_json(self, sample: int = 4) -> dict:
        return {
            "order": format_integer(self.order),
            "generators": [g.to_coeff_rows() for g in self.generators],
            "sample_elements": [m.to_coeff_rows() for m in self.smallest(sample)],
        }


def closure(generators: Sequence[FqMatrix], cap: int = CLOSURE_CAP) -> tuple[FqMatrix, ...]:
    """The sorted elements of the group generated, from its stabilizer chain
    (kept under this name: the holonomy benchmark traces calls to it)."""
    return FqMatrixGroup(generators, cap).elements


def group_from_generators(generators: Sequence[FqMatrix], cap: int = CLOSURE_CAP) -> FqMatrixGroup:
    """The group generated, ``FqMatrixGroup(generators, cap)``."""
    return FqMatrixGroup(generators, cap)


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
    """SL(2, F_q) as the group of its elementary transvection generators.

    The generators are checked to have determinant 1 and the chain order to
    be q^3 - q; together these prove the group is all of SL(2, F_q)."""
    gens = sl2_elementary_generators(field)
    if any(g.det() != field.one for g in gens):
        raise DomainError("an SL(2) generator is not unimodular", code="internal")
    group = group_from_generators(gens, cap)
    q = field.q
    if group.order != q ** 3 - q:
        raise DomainError("the SL(2) generators do not generate SL(2, F_q)", code="internal")
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

    Vectors are digit-layout integers (see the module docstring).  The basis
    is semi-echelon in insertion order, each row scaled to a pivot entry 1;
    rows never change once in, so their negated multiples (-c)*row are
    cached as they are met.  A product m*g is the sum over k of the outer
    products (column k of m) x (row k of g), each a ``join`` of multiples of
    row k of g.  The span dimension does not depend on the basis chosen.
    """
    if not gens:
        raise DomainError("at least one matrix (or the identity) required", code="no_generators")
    f, r = gens[0].field, gens[0].n
    if any(g.field != f or g.n != r for g in gens):
        raise DomainError("generators must share a field and dimension", code="bad_matrix")
    if r * r > SPAN_DIM_CAP:
        raise CapExceededError(f"span dimension {r * r} exceeds the cap {SPAN_DIM_CAP}")

    p, e, q, n = f.p, f.e, f.q, r * r
    width, bits, mask = n * e, 8 * e, (1 << 8 * e) - 1  # a vector's bytes; an entry's bits
    pad = bytes(256 - q)
    weights = [p ** (e - 1 - k) for k in range(e)]
    digit = [bytes(i // w % p for i in range(q)) + pad for w in weights]
    scale = [bytes(row) + pad for row in f.mul_table]
    mod_p = bytes(i % p for i in range(256))
    room = 255 // (p - 1)  # terms a vector holds before a byte could carry
    # an entry's index from its e bytes, however many terms they hold
    coeff = _Memo(lambda raw: sum(w * (d % p) for w, d in zip(weights, raw.to_bytes(e, "big"))))

    def spread(v: bytes) -> bytearray:
        """The digits of the entries v: e adjacent bytes per entry."""
        out = bytearray(len(v) * e)
        for k, t in enumerate(digit):
            out[k::e] = v.translate(t)
        return out

    def reduced(x: int) -> int:
        return int.from_bytes(x.to_bytes(width, "big").translate(mod_p), "big")

    def indices(x: int) -> bytes:
        """The entry indices of a reduced vector."""
        b = x.to_bytes(width, "big")
        return sum(w * int.from_bytes(b[k::e], "big")
                   for k, w in enumerate(weights)).to_bytes(n, "big")

    def product(m: bytes, outer: list[list[memoryview]]) -> int:
        """m*g, from outer[k][c] = the digits of c * (row k of g)."""
        x = load = 0
        for k, terms in enumerate(outer):
            if load == room:
                x, load = reduced(x), 1
            x += int.from_bytes(b"".join(map(terms.__getitem__, m[k::r])), "big")
            load += 1
        return reduced(x)

    basis: list[tuple[int, _Memo]] = []  # (shift of the pivot entry, c -> (-c)*row)

    def insert(x: int) -> bool:
        load = 1
        for shift, minus in basis:
            c = coeff[x >> shift & mask]
            if c:
                if load == room:
                    x, load = reduced(x), 1
                x += minus[c]
                load += 1
        x = reduced(x)
        if not x:
            return False
        shift = (x.bit_length() - 1) // bits * bits
        row = indices(x).translate(scale[f.inv(coeff[x >> shift])])
        minus = _Memo(lambda c: int.from_bytes(spread(row.translate(scale[f.neg(c)])), "big"))
        basis.append((shift, minus))
        return True

    def multiples(v: bytes) -> list[memoryview]:
        """The digits of c*v for every c, from one spread of them all."""
        out = memoryview(spread(b"".join(v.translate(t) for t in scale[:q])))
        return [out[i:i + len(v) * e] for i in range(0, len(out), len(v) * e)]

    flat = [bytes(flatten(g)) for g in gens]
    outers = [[multiples(g[k * r:(k + 1) * r]) for k in range(r)] for g in flat]
    identity = bytes(flatten(FqMatrix.identity(f, r)))
    frontier = [v for v in [identity] + flat if insert(int.from_bytes(spread(v), "big"))]
    while frontier and len(basis) < n:
        new = []
        for x in (product(m, outer) for m in frontier for outer in outers):
            if insert(x):
                new.append(indices(x))
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

    @classmethod
    def _make(cls, images: tuple[FqMatrix, ...]) -> "FreeGroupRep":
        """Trusted constructor, unchecked: the images must be nonempty,
        share a field and dimension, and be invertible, as a functor's
        images of a representation's are by construction."""
        rep = object.__new__(cls)
        object.__setattr__(rep, "field", images[0].field)
        object.__setattr__(rep, "dim", images[0].n)
        object.__setattr__(rep, "images", images)
        return rep


@dataclass(frozen=True)
class HolonomyResult:
    group: FqMatrixGroup
    full: Optional[bool]


def holonomy(
    rep: FreeGroupRep,
    target: Optional[FqMatrixGroup] = None,
    cap: int = CLOSURE_CAP,
) -> HolonomyResult:
    """Image group of the representation; with a target group supplied,
    also reports whether the image is the whole target (full holonomy):
    the same field and dimension, equal orders, and every image in the
    target by sifting.  Neither group is enumerated."""
    group = group_from_generators(rep.images, cap)
    full = None
    if target is not None:
        full = (group.field == target.field and group.dim == target.dim
                and group.order == target.order
                and all(m in target for m in rep.images))
    return HolonomyResult(group, full)


def associated_rep(rep: FreeGroupRep, functor: str, n: int = 0,
                   other: Optional[FreeGroupRep] = None) -> FreeGroupRep:
    """Apply a matrix functor generator-wise, through ``apply_matrix_functor``.

    functor is one of "dual", "sym", "wedge", "tensor_with"; sym/wedge take
    the power n and tensor_with takes the second representation (of the same
    free group, matched generator by generator).  The output dimension is
    checked against the span cap before any image is built; a bad power or
    an unknown functor is rejected by ``apply_matrix_functor``.  The images
    are invertible by construction (each functor maps GL to GL), so they
    are not checked again.
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
    return FreeGroupRep._make(tuple(apply_matrix_functor(m, functor, n, o)
                                    for m, o in zip(rep.images, others)))


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
