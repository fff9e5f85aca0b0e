import functools
import itertools
import random

import pytest

from bundlecalc import (
    CapExceededError,
    DomainError,
    FqMatrix,
    FreeGroupRep,
    associated_rep,
    burnside_irreducible,
    group_from_generators,
    holonomy,
    make_field,
    sl2_generate,
)
from bundlecalc import groups
from bundlecalc.groups import BurnsideResult, apply_matrix_functor, sl2_elementary_generators
from bundlecalc.matrices import dual_matrix, flatten, kronecker, sym_matrix, wedge_matrix
from bundlecalc.oracles import (
    group_by_enumeration,
    reducible_by_common_eigenvector,
    sl2_by_filter,
    span_by_enumeration,
)


class TestSl2Generation:
    @pytest.mark.parametrize(
        "p,e,order", [(2, 1, 6), (3, 1, 24), (2, 2, 60), (5, 1, 120)]
    )
    def test_orders(self, p, e, order):
        field = make_field(p, e)
        group = sl2_generate(field)
        assert group.order == order == field.q ** 3 - field.q

    def test_prime_field_uses_the_two_classical_generators(self):
        field = make_field(5, 1)
        gens = sl2_elementary_generators(field)
        assert len(gens) == 2
        assert gens[0] == FqMatrix.from_ints(field, [[1, 1], [0, 1]])
        assert gens[1] == FqMatrix.from_ints(field, [[1, 0], [1, 1]])

    def test_every_element_is_unimodular(self):
        field = make_field(3, 1)
        for m in sl2_generate(field).elements:
            assert m.det() == field.one

    def test_matches_filter_enumeration(self):
        field = make_field(2, 2)
        assert tuple(sl2_generate(field).elements) == sl2_by_filter(field)

    def test_enumeration_is_reproducible(self):
        field = make_field(3, 1)
        assert sl2_generate(field).elements == sl2_generate(field).elements

    def test_closure_cap(self):
        field = make_field(7, 1)
        with pytest.raises(CapExceededError):
            sl2_generate(field, cap=100)

    def test_a_non_unimodular_element_is_caught(self, monkeypatch):
        field = make_field(5, 1)
        gens = sl2_elementary_generators(field) + [FqMatrix.from_ints(field, [[1, 0], [0, 2]])]
        monkeypatch.setattr(groups, "sl2_elementary_generators", lambda f: gens)
        with pytest.raises(DomainError, match="not unimodular"):
            sl2_generate(field)

    def test_a_non_generating_set_is_caught(self, monkeypatch):
        field = make_field(5, 1)
        upper = sl2_elementary_generators(field)[:1]
        monkeypatch.setattr(groups, "sl2_elementary_generators", lambda f: upper)
        with pytest.raises(DomainError, match="do not generate"):
            sl2_generate(field)


class TestClosure:
    def test_singular_generator_rejected(self):
        field = make_field(2, 1)
        singular = FqMatrix.from_ints(field, [[1, 0], [0, 0]])
        with pytest.raises(DomainError, match="invertible"):
            group_from_generators([singular])

    def test_cyclic_closure(self):
        field = make_field(3, 1)
        u = FqMatrix.from_ints(field, [[1, 1], [0, 1]])
        assert group_from_generators([u]).order == 3

    def test_closure_is_a_subgroup(self):
        field = make_field(3, 1)
        group = sl2_generate(field)
        elements = frozenset(group.elements)
        assert FqMatrix.identity(field, 2) in elements
        for m in group.elements:
            assert m.inverse() in elements
            for g in group.generators:
                assert m * g in elements


class TestBurnside:
    def test_natural_module_is_absolutely_irreducible(self):
        result = burnside_irreducible(sl2_elementary_generators(make_field(3, 1)))
        assert result.irreducible and result.span_dim == 4

    def test_diagonal_group_is_reducible(self):
        field = make_field(5, 1)
        result = burnside_irreducible([FqMatrix.from_ints(field, [[2, 0], [0, 3]])])
        assert not result.irreducible and result.span_dim == 2

    def test_trivial_group(self):
        result = burnside_irreducible([FqMatrix.identity(make_field(5, 1), 2)])
        assert not result.irreducible and result.span_dim == 1

    def test_matches_eigenvector_oracle_on_borel(self):
        field = make_field(3, 1)
        upper = [
            FqMatrix.from_ints(field, [[1, 1], [0, 1]]),
            FqMatrix.from_ints(field, [[2, 1], [0, 2]]),
        ]
        assert not burnside_irreducible(upper).irreducible
        assert reducible_by_common_eigenvector(upper)


ORACLE_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2), (2, 4), (3, 3)]
ORACLE_LIMIT = 2000  # group elements the enumeration oracle may visit
ELEMENT_LIMIT = 20000  # the element oracle's limit: SL(2, F_27) has 19 656 elements


def _random_gl(rng, field, r):
    while True:
        m = FqMatrix(field, [[rng.randrange(field.q) for _ in range(r)] for _ in range(r)])
        if m.is_invertible():
            return m


def _signed_permutation(rng, field, r):
    perm = rng.sample(range(r), r)
    signs = (field.one, field.neg(field.one))
    return FqMatrix(field, [[rng.choice(signs) if j == perm[i] else field.zero
                             for j in range(r)] for i in range(r)])


def _block_diagonal(a, b):
    zero = a.field.zero
    rows = [list(row) + [zero] * b.n for row in a.rows]
    rows += [[zero] * a.n + list(row) for row in b.rows]
    return FqMatrix(a.field, rows)


def _kinds(r):
    """Recipe shapes for dimension r; random generators of dimension >= 3
    mostly generate groups far above the oracle's limit."""
    if r == 1:
        return ["random"]
    return ["monomial", "block", "sl2p", "sym_sl2p"] + (["random"] if r == 2 else [])


def _recipe(rng, field, r, kind=None):
    """Generators of a matrix group of one of several shapes, most of them
    small: signed permutations, Sym^(r-1) of SL(2, F_p), SL(2, F_p) on a
    block, block sums (reducible), or random matrices."""
    count = rng.randint(1, 3)
    kind = kind or rng.choice(_kinds(r))
    if kind == "monomial":
        return [_signed_permutation(rng, field, r) for _ in range(count)]
    if kind == "random":
        return [_random_gl(rng, field, r) for _ in range(count)]
    sl2p = [FqMatrix.from_ints(field, m) for m in ([[1, 1], [0, 1]], [[1, 0], [1, 1]])]
    if kind == "sym_sl2p":
        return [sym_matrix(g, r - 1) for g in sl2p]
    if kind == "sl2p":
        if r == 2:
            return sl2p
        rest = FqMatrix.identity(field, r - 2)
        return [_block_diagonal(g, rest) for g in sl2p]
    a = rng.randint(1, r - 1)
    top, bottom = _recipe(rng, field, a), _recipe(rng, field, r - a)
    return [_block_diagonal(top[i % len(top)], bottom[i % len(bottom)])
            for i in range(max(len(top), len(bottom)))]


def _conjugated(rng, gens):
    g = _random_gl(rng, gens[0].field, gens[0].n)
    gi = g.inverse()
    return [g * m * gi for m in gens]


def _oracle_span(gens):
    """The enumeration oracle's span, or None for a group over the limit."""
    try:
        return span_by_enumeration(gens, ORACLE_LIMIT)
    except CapExceededError:
        return None


@functools.lru_cache(maxsize=None)
def _span_oracle_groups(p, e):
    """Seeded generators over F_(p^e) in dimensions 1 to 4, of every recipe
    shape, each with the oracle's span: (generators, span) pairs."""
    field = make_field(p, e)
    rng = random.Random(f"span/{p}/{e}")
    cases = []
    for r in range(1, 5):
        for kind in _kinds(r) * 2:
            span = None
            while span is None:
                gens = _conjugated(rng, _recipe(rng, field, r, kind))
                span = _oracle_span(gens)
            cases.append((tuple(gens), span))
    return cases


class TestSpanOracle:
    """The byte-packed span test against enumeration of the group."""

    @pytest.mark.parametrize("p,e", ORACLE_FIELDS)
    def test_dimensions_one_to_four(self, p, e):
        outcomes = set()
        for gens, span in _span_oracle_groups(p, e):
            r = gens[0].n
            assert burnside_irreducible(gens) == BurnsideResult(span == r * r, span), gens
            outcomes.add(span == r * r)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("p", [79, 73, 31])
    def test_large_characteristic(self, p):
        # only a few terms fit in a byte plane here (3 at p = 79), so sums
        # and products are reduced mod p many times along the way
        field = make_field(p, 1)
        rng = random.Random(f"span/{p}")
        cases = [_recipe(rng, field, r, "monomial") for r in (2, 3, 4, 4, 4)]
        for a, b in [(1, 1), (2, 2), (1, 3), (3, 1), (2, 2)]:  # reducible block sums
            top, bottom = _recipe(rng, field, a, "monomial"), _recipe(rng, field, b, "monomial")
            cases.append([_block_diagonal(x, y) for x, y in zip(top * 3, bottom * 3)])
        spans = []
        for gens in cases:
            gens = _conjugated(rng, gens)
            r = gens[0].n
            span = _oracle_span(gens)
            assert burnside_irreducible(gens) == BurnsideResult(span == r * r, span)
            spans.append(span)
        assert 16 in spans and any(6 <= s < 16 for s in spans), spans

    @pytest.mark.parametrize("functor,n,r", [
        ("sym", 2, 2), ("sym", 2, 3), ("sym", 3, 2), ("wedge", 2, 3), ("wedge", 2, 4),
        ("tensor_with", 0, 2),
    ])
    def test_functor_images(self, functor, n, r):
        rng = random.Random(f"span/{functor}/{n}/{r}")
        dims = set()
        for p, e in ORACLE_FIELDS[:6]:
            field = make_field(p, e)
            checked = 0
            while checked < 2:
                gens = _conjugated(rng, _recipe(rng, field, r))
                others = _conjugated(rng, _recipe(rng, field, r))
                images = [apply_matrix_functor(g, functor, n, others[i % len(others)])
                          for i, g in enumerate(gens)]
                span = _oracle_span(images)
                if span is None:
                    continue
                d = images[0].n
                assert burnside_irreducible(images) == BurnsideResult(span == d * d, span)
                dims.add(span)
                checked += 1
        assert len(dims) > 1

    @pytest.mark.parametrize("n,span", [(3, 79), (4, 135)])
    def test_sym_of_sl3_generators_over_f3(self, n, span):
        field = make_field(3, 1)
        gens = [FqMatrix.from_ints(field, [[1, 1, 0], [0, 1, 0], [0, 0, 1]]),
                FqMatrix.from_ints(field, [[0, 0, 1], [1, 0, 0], [0, 1, 0]])]
        images = [sym_matrix(g, n) for g in gens]
        assert burnside_irreducible(images) == BurnsideResult(False, span)


class TestFreeGroupReps:
    def test_holonomy_reaches_the_full_group(self):
        field = make_field(3, 1)
        rep = FreeGroupRep.of(sl2_elementary_generators(field))
        result = holonomy(rep, sl2_generate(field))
        assert result.group.order == 24 and result.full is True

    def test_trivial_images(self):
        field = make_field(3, 1)
        ident = FqMatrix.identity(field, 2)
        result = holonomy(FreeGroupRep.of([ident, ident]), sl2_generate(field))
        assert result.group.order == 1 and result.full is False

    def test_upper_triangular_images_are_a_proper_reducible_subgroup(self):
        field = make_field(3, 1)
        rep = FreeGroupRep.of([
            FqMatrix.from_ints(field, [[1, 1], [0, 1]]),
            FqMatrix.from_ints(field, [[2, 0], [0, 2]]),
        ])
        result = holonomy(rep, sl2_generate(field))
        assert result.full is False
        assert not burnside_irreducible(list(rep.images)).irreducible

    def test_images_must_be_invertible(self):
        field = make_field(2, 1)
        with pytest.raises(DomainError):
            FreeGroupRep.of([FqMatrix.from_ints(field, [[1, 1], [1, 1]])])


class TestAssociatedReps:
    def setup_method(self):
        self.field = make_field(3, 1)
        self.rep = FreeGroupRep.of(sl2_elementary_generators(self.field))

    def test_dual_is_an_involution(self):
        assert associated_rep(associated_rep(self.rep, "dual"), "dual").images == self.rep.images

    def test_sym2_is_three_dimensional_and_irreducible(self):
        sym2 = associated_rep(self.rep, "sym", 2)
        assert sym2.dim == 3
        assert burnside_irreducible(list(sym2.images)).irreducible

    def test_wedge2_is_the_trivial_determinant_line(self):
        wedge2 = associated_rep(self.rep, "wedge", 2)
        ident = FqMatrix.identity(self.field, 1)
        assert all(m == ident for m in wedge2.images)

    def test_tensor_with_doubles_the_dimension_multiplicatively(self):
        prod = associated_rep(self.rep, "tensor_with", other=self.rep)
        assert prod.dim == 4

    @pytest.mark.parametrize("functor,n", [("dual", 0), ("sym", 2), ("sym", 3), ("wedge", 2)])
    def test_functoriality_of_holonomy(self, functor, n):
        image = holonomy(self.rep).group
        lhs = frozenset(holonomy(associated_rep(self.rep, functor, n)).group.elements)
        rhs = frozenset(apply_matrix_functor(m, functor, n) for m in image.elements)
        assert lhs == rhs

    def test_functoriality_for_diagonal_tensor(self):
        image = holonomy(self.rep).group
        doubled = associated_rep(self.rep, "tensor_with", other=self.rep)
        lhs = frozenset(holonomy(doubled).group.elements)
        rhs = frozenset(kronecker(m, m) for m in image.elements)
        assert lhs == rhs

    def test_unknown_functor(self):
        with pytest.raises(DomainError):
            associated_rep(self.rep, "adjoint")

    @pytest.mark.parametrize("functor,n,dim", [("sym", 16, 17), ("sym", 10 ** 6, 10 ** 6 + 1),
                                               ("tensor_with", 0, 36), ("wedge", 3, 20)])
    def test_span_cap_is_checked_before_any_image_is_built(self, monkeypatch, functor, n, dim):
        def unreachable(*args):
            raise AssertionError("image built before the span cap was checked")

        for name in ("sym_matrix", "wedge_matrix", "dual_matrix", "kronecker"):
            monkeypatch.setattr(groups, name, unreachable)
        rep = self.rep
        other = None
        if functor in ("tensor_with", "wedge"):
            rep = other = FreeGroupRep.of([FqMatrix.identity(self.field, 6)] * 2)
        with pytest.raises(CapExceededError, match=f"dimension {dim} exceeds"):
            associated_rep(rep, functor, n, other)

    @pytest.mark.parametrize("functor,n,called", [
        ("dual", 0, "dual_matrix"), ("sym", 2, "sym_matrix"),
        ("wedge", 2, "wedge_matrix"), ("tensor_with", 0, "kronecker"),
    ])
    def test_images_are_built_through_the_module_functors(self, monkeypatch, functor, n, called):
        calls = {}
        for name in ("sym_matrix", "wedge_matrix", "dual_matrix", "kronecker"):
            def spy(*args, _name=name, _real=getattr(groups, name)):
                calls[_name] = calls.get(_name, 0) + 1
                return _real(*args)

            monkeypatch.setattr(groups, name, spy)
        other = self.rep if functor == "tensor_with" else None
        out = associated_rep(self.rep, functor, n, other)
        assert calls == {called: self.rep.free_rank}
        assert out.free_rank == self.rep.free_rank

    def test_cap_on_three_dimensional_sym_and_large_dual(self):
        sym2 = associated_rep(self.rep, "sym", 2)
        assert associated_rep(sym2, "sym", 4).dim == 15
        with pytest.raises(CapExceededError, match="dimension 21 exceeds"):
            associated_rep(sym2, "sym", 5)
        big = FreeGroupRep.of([FqMatrix.identity(self.field, 17)])
        with pytest.raises(CapExceededError, match="dimension 17 exceeds"):
            associated_rep(big, "dual")

    def test_input_errors_win_over_the_span_cap(self):
        with pytest.raises(DomainError, match="nonnegative") as exc:
            associated_rep(self.rep, "sym", -1)
        assert exc.value.code == "bad_power"
        with pytest.raises(DomainError, match="exceeds the dimension") as exc:
            associated_rep(self.rep, "wedge", 3)
        assert exc.value.code == "bad_power"
        big = FreeGroupRep.of([FqMatrix.identity(self.field, 17)] * 3)
        with pytest.raises(DomainError, match="matching free rank") as exc:
            associated_rep(big, "tensor_with", other=FreeGroupRep.of(big.images[:1]))
        assert exc.value.code == "bad_functor"


class TestMatrixFunctors:
    @pytest.mark.parametrize("p,e", [(3, 1), (5, 1), (2, 2)])
    def test_functors_are_multiplicative(self, p, e):
        field = make_field(p, e)
        a = FqMatrix.from_ints(field, [[1, 1], [0, 1]])
        b = FqMatrix.from_ints(field, [[0, 1], [-1, 0]])
        ab = a * b
        assert dual_matrix(ab) == dual_matrix(a) * dual_matrix(b)
        for n in (0, 1, 2, 3):
            assert sym_matrix(ab, n) == sym_matrix(a, n) * sym_matrix(b, n)
        for n in (0, 1, 2):
            assert wedge_matrix(ab, n) == wedge_matrix(a, n) * wedge_matrix(b, n)
        assert kronecker(a, b) * kronecker(b, a) == kronecker(a * b, b * a)

    @pytest.mark.parametrize("n", [10 ** 9, 10 ** 18])
    def test_sym_of_a_1x1_matrix_at_a_huge_power(self, n):
        field = make_field(7, 1)
        for a in range(1, 7):
            m = FqMatrix.from_ints(field, [[a]])
            assert sym_matrix(m, n) == FqMatrix.from_ints(field, [[pow(a, n, 7)]])

    def test_inverse(self):
        field = make_field(7, 1)
        m = FqMatrix.from_ints(field, [[1, 2], [3, 4]])
        assert m * m.inverse() == FqMatrix.identity(field, 2)

    def test_wedge_top_is_the_determinant(self):
        field = make_field(5, 1)
        m = FqMatrix.from_ints(field, [[1, 2], [3, 4]])
        top = wedge_matrix(m, 2)
        assert top.rows == ((m.det(),),)

    def test_coefficient_row_wire_format_round_trips(self):
        field = make_field(2, 2)
        m = FqMatrix.from_coeff_rows(field, [[[0, 1], [1, 0]], [[0, 0], [1, 1]]])
        assert FqMatrix.from_coeff_rows(field, m.to_coeff_rows()) == m


def _random_invertible(rng, n, p):
    while True:
        m = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        if FqMatrix.from_ints(make_field(p, 1), m).is_invertible():
            return m


def _schreier_sims_order(gens):
    """Order of the group of FqMatrix generators, by sympy's Schreier-Sims
    on the permutations they induce on all row vectors."""
    combinatorics = pytest.importorskip("sympy.combinatorics")
    field, n = gens[0].field, gens[0].n
    add, mul = field.add_table, field.mul_table
    vectors = list(itertools.product(range(field.q), repeat=n))
    index = {v: i for i, v in enumerate(vectors)}

    def image(v, m):
        out = []
        for j in range(n):
            acc = field.zero
            for k in range(n):
                acc = add[acc][mul[v[k]][m.rows[k][j]]]
            out.append(acc)
        return tuple(out)

    perms = [combinatorics.Permutation([index[image(v, m)] for v in vectors]) for m in gens]
    return combinatorics.PermutationGroup(perms).order()


class TestClosureOracles:
    @pytest.mark.parametrize("n,p,seed", [(2, p, seed) for p in (2, 3, 5, 7) for seed in range(3)]
                             + [(3, p, seed) for p in (2, 3) for seed in range(3)])
    def test_order_matches_schreier_sims(self, n, p, seed):
        rng = random.Random(f"closure/{n}/{p}/{seed}")
        mats = [_random_invertible(rng, n, p) for _ in range(rng.randint(1, 3))]
        field = make_field(p, 1)
        gens = [FqMatrix.from_ints(field, m) for m in mats]
        group = group_from_generators(gens)
        order = len(group_by_enumeration(gens, ELEMENT_LIMIT))
        assert group.order == order == _schreier_sims_order(gens)

    @pytest.mark.parametrize("p,e,n", [(7, 1, 2), (2, 2, 2), (3, 2, 2), (3, 1, 3), (2, 1, 3)])
    def test_output_is_strictly_sorted(self, p, e, n):
        field = make_field(p, e)
        rng = random.Random(f"sorted/{p}/{e}/{n}")
        gens = [FqMatrix(field, [[rng.randrange(field.q) for _ in range(n)] for _ in range(n)])
                for _ in range(2)]
        gens = [g for g in gens if g.is_invertible()] or [FqMatrix.identity(field, n)]
        elements = group_from_generators(gens).elements
        rows = [m.rows for m in elements]
        assert rows == sorted(set(rows))
        assert all(m.field is field for m in elements)


SYMPY_POINTS = 4096  # sympy's oracle acts on all q^n row vectors


def _probes(rng, gens, members):
    """Seeded members and non-members: the given elements of the group,
    random invertible matrices, and members times random matrices."""
    field, r = gens[0].field, gens[0].n
    strangers = [_random_gl(rng, field, r) for _ in range(6)]
    return members + strangers + [m * x for m, x in zip(members, strangers)]


class TestStabilizerChain:
    """The chain's order, membership and elements against the enumeration
    oracle and sympy's Schreier-Sims."""

    def _check(self, rng, gens):
        group = group_from_generators(gens)
        flat = group_by_enumeration(gens, ELEMENT_LIMIT)
        assert group.order == len(flat)
        field, r = gens[0].field, gens[0].n
        if field.q ** r <= SYMPY_POINTS:
            assert group.order == _schreier_sims_order(gens)
        assert [flatten(m) for m in group.elements] == flat

        def matrix(v):
            return FqMatrix(field, [v[i:i + r] for i in range(0, r * r, r)])

        first = [matrix(v) for v in flat[:4]]
        assert group.chain.smallest(4) == first
        assert group.to_json()["sample_elements"] == [m.to_coeff_rows() for m in first]
        members = frozenset(flat)
        for m in _probes(rng, gens, [matrix(v) for v in rng.sample(flat, min(6, len(flat)))]):
            assert (m in group) == (flatten(m) in members), m

    @pytest.mark.parametrize("p,e", ORACLE_FIELDS)
    def test_span_oracle_groups(self, p, e):
        rng = random.Random(f"chain/{p}/{e}")
        for gens, _ in _span_oracle_groups(p, e):
            self._check(rng, list(gens))

    @pytest.mark.parametrize("p,e", ORACLE_FIELDS + [(5, 2)])
    def test_sl2(self, p, e):
        field = make_field(p, e)
        self._check(random.Random(f"chain/sl2/{p}/{e}"), sl2_elementary_generators(field))

    @pytest.mark.parametrize("p", [3, 5])
    def test_reducible_groups_verified_pair_by_pair(self, p):
        # block sums of two SL(2, F_p) generating pairs: far below the
        # determinant bound, so every Schreier generator is sifted
        rng = random.Random(f"chain/blocks/{p}")
        field = make_field(p, 1)
        for _ in range(3):
            top = _conjugated(rng, _recipe(rng, field, 2, "sl2p"))
            bottom = _conjugated(rng, _recipe(rng, field, 2, "sl2p"))
            self._check(rng, [_block_diagonal(a, b) for a, b in zip(top, bottom[::-1])])

    @pytest.mark.parametrize("n,p,seed", [(3, 5, 0), (3, 7, 0), (3, 7, 1), (4, 3, 0), (4, 3, 1)])
    def test_orders_past_the_closure_cap(self, n, p, seed):
        rng = random.Random(f"chain/big/{n}/{p}/{seed}")
        field = make_field(p, 1)
        gens = [FqMatrix.from_ints(field, _random_invertible(rng, n, p)) for _ in range(2)]
        order = _schreier_sims_order(gens)
        group = group_from_generators(gens, cap=order)
        assert group.order == order
        for _ in range(5):
            word = FqMatrix.identity(field, n)
            for _ in range(rng.randint(1, 30)):
                word = word * rng.choice(gens)
            assert word in group
        with pytest.raises(CapExceededError):
            group_from_generators(gens, cap=order - 1)

    @pytest.mark.parametrize("p,e", ORACLE_FIELDS[:5])
    def test_the_cap_raises_exactly_when_the_order_exceeds_it(self, p, e):
        for gens, _ in _span_oracle_groups(p, e):
            order = len(group_by_enumeration(gens, ELEMENT_LIMIT))
            for cap in (order, order + 1, 10 * order):
                assert group_from_generators(gens, cap).order == order
            for cap in (order - 1, order // 2, 0):
                with pytest.raises(CapExceededError, match=f"element cap {cap}$"):
                    group_from_generators(gens, cap)

    def test_elements_are_enumerated_on_first_access_only(self, monkeypatch):
        field = make_field(5, 1)
        calls = []
        walk = groups.StabilizerChain.elements
        monkeypatch.setattr(groups.StabilizerChain, "elements",
                            lambda self: calls.append(self) or walk(self))
        group = sl2_generate(field)
        group.to_json()
        assert holonomy(FreeGroupRep.of(group.generators), group).full is True
        assert calls == []
        assert group.elements is group.elements and len(calls) == 1

    def test_groups_compare_by_their_elements(self):
        field = make_field(3, 1)
        sl2 = sl2_generate(field)
        rng = random.Random("chain/eq")
        pair = group_from_generators(_conjugated(rng, sl2_elementary_generators(field)))
        assert pair == sl2 and hash(pair) == hash(sl2)
        upper = group_from_generators(sl2_elementary_generators(field)[:1])
        assert upper != sl2 and sl2 != upper

    def test_supplied_elements_are_taken_as_given(self):
        field = make_field(3, 1)
        u = FqMatrix.from_ints(field, [[1, 1], [0, 1]])
        elements = sl2_generate(field).elements
        group = groups.FqMatrixGroup(field, 2, (u,), elements)
        assert group.elements == elements and group.order == 3

    def test_holonomy_is_full_only_for_the_same_field_and_dimension(self):
        f9 = make_field(3, 2)
        sub = FreeGroupRep.of([FqMatrix.from_ints(f9, m) for m in ([[1, 1], [0, 1]], [[1, 0], [1, 1]])])
        assert holonomy(sub, sl2_generate(f9)).full is False  # SL(2, F_3) in SL(2, F_9)
        f3 = make_field(3, 1)
        same = FreeGroupRep.of(sl2_elementary_generators(f3))
        assert holonomy(same, sl2_generate(f3)).full is True
        sym2 = FreeGroupRep.of([sym_matrix(g, 2) for g in same.images])
        assert holonomy(sym2, sl2_generate(f3)).full is False
        assert holonomy(same, sl2_generate(make_field(5, 1))).full is False
