import itertools
import random

import pytest

from bundlecalc import CapExceededError, DomainError, fields, make_field
from bundlecalc.fields import _is_irreducible, default_modulus


class TestConstruction:
    def test_prime_field(self):
        f = make_field(2, 1)
        assert f.q == 2 and f.modulus == (0, 1)

    def test_f4_with_explicit_modulus(self):
        f = make_field(2, 2, [1, 1, 1])  # x^2 + x + 1
        assert f.q == 4

    def test_reducible_modulus_rejected(self):
        # x^2 + 1 = (x + 1)^2 over F_2
        with pytest.raises(DomainError, match="reducible"):
            make_field(2, 2, [1, 0, 1])

    def test_default_modulus_is_deterministic(self):
        assert default_modulus(2, 2) == (1, 1, 1)
        assert make_field(3, 2).modulus == make_field(3, 2).modulus

    def test_nonprime_characteristic(self):
        with pytest.raises(DomainError, match="prime"):
            make_field(6, 1)

    def test_cap(self):
        with pytest.raises(CapExceededError):
            make_field(2, 7)  # 128 > 81
        make_field(3, 4)  # 81 is allowed

    def test_table_build_rejects_a_reducible_modulus(self, monkeypatch):
        # past the divisor search, the missing inverse still stops construction
        monkeypatch.setattr(fields, "_is_irreducible", lambda m, p: True)
        with pytest.raises(DomainError, match="no inverse") as info:
            make_field(2, 2, [1, 0, 1])
        assert info.value.code == "reducible_modulus"

    def test_bad_modulus_degree(self):
        with pytest.raises(DomainError, match="monic"):
            make_field(2, 2, [1, 1])


class TestArithmetic:
    @pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2), (7, 1)])
    def test_field_axioms_spot_checks(self, p, e):
        f = make_field(p, e)
        one, zero = f.one, f.zero
        for a in f.elements():
            assert f.add(a, zero) == a
            assert f.mul(a, one) == a
            assert f.add(a, f.neg(a)) == zero
            if a != zero:
                assert f.mul(a, f.inv(a)) == one
        # commutativity and distributivity on all triples of a small field
        if f.q <= 9:
            for a in f.elements():
                for b in f.elements():
                    assert f.add(a, b) == f.add(b, a)
                    assert f.mul(a, b) == f.mul(b, a)
                    for c in f.elements():
                        lhs = f.mul(a, f.add(b, c))
                        rhs = f.add(f.mul(a, b), f.mul(a, c))
                        assert lhs == rhs

    def test_canonical_order_is_lexicographic(self):
        f = make_field(2, 2)
        assert [f.coeffs(i) for i in f.elements()] == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_index_round_trip(self):
        f = make_field(3, 2)
        for i in f.elements():
            assert f.index(f.coeffs(i)) == i

    def test_from_int(self):
        f = make_field(5, 1)
        assert f.coeffs(f.from_int(7)) == (2,)

    def test_division_by_zero(self):
        f = make_field(3, 1)
        with pytest.raises(DomainError, match="zero"):
            f.inv(f.zero)

    def test_describe(self):
        d = make_field(2, 2).describe()
        assert d == {"p": 2, "e": 2, "q": 4, "modulus": [1, 1, 1]}


def _reference_tables(p, e, modulus):
    """add, neg, mul and inv tables by coefficient arithmetic and polynomial
    multiplication reduced by the monic modulus, on the lexicographic order
    of coefficient tuples (constant term first)."""
    elements = list(itertools.product(range(p), repeat=e))
    index = {c: i for i, c in enumerate(elements)}

    def times(a, b):
        prod = [0] * (2 * e - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] = (prod[i + j] + x * y) % p
        for top in range(2 * e - 2, e - 1, -1):  # x^top = x^(top-e) * (x^e - modulus)
            c = prod[top]
            for k, m in enumerate(modulus):
                prod[top - e + k] = (prod[top - e + k] - c * m) % p
        return index[tuple(prod[:e])]

    add = [[index[tuple((x + y) % p for x, y in zip(a, b))] for b in elements] for a in elements]
    neg = [index[tuple(-x % p for x in a)] for a in elements]
    mul = [[times(a, b) for b in elements] for a in elements]
    one = index[(1,) + (0,) * (e - 1)]
    inv = [None] + [mul[a].index(one) for a in range(1, p ** e)]
    return add, neg, mul, inv


def _fields_to_81():
    """(p, e, modulus) for every field with q <= 81: the default modulus and
    up to two seeded irreducible ones."""
    rng = random.Random(8101)
    cases = []
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73,
              79):
        for e in range(1, 7):
            if p ** e > 81:
                break
            cases.append((p, e, None))
            moduli = [list(c) + [1] for c in itertools.product(range(p), repeat=e)]
            moduli = [m for m in moduli if _is_irreducible(m, p)]
            cases += [(p, e, m) for m in rng.sample(moduli, min(2, len(moduli)))]
    return cases


@pytest.mark.parametrize("p,e,modulus", _fields_to_81())
def test_tables_match_polynomial_reference(p, e, modulus):
    f = make_field(p, e, modulus)
    add, neg, mul, inv = _reference_tables(p, e, f.modulus)
    assert f.add_table == add
    assert f.neg_table == neg
    assert f.mul_table == mul
    assert f.inv_table == inv
