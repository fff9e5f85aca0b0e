import random
from functools import lru_cache

import pytest

from bundlecalc import (
    CapExceededError,
    FqMatrix,
    FqMatrixGroup,
    JordanMode,
    group_from_generators,
    jordan_constant,
    jordan_verify,
    make_field,
    sl2_generate,
    table_from_matrix_group,
)
from bundlecalc.acceptance import _fixture_groups
from bundlecalc.oracles import abelian_normal_by_cliques


def cyclic_table(p, a):
    """The table of <[a]> <= GL(1, F_p)."""
    field = make_field(p, 1)
    return table_from_matrix_group(group_from_generators([FqMatrix.from_ints(field, [[a]])]))


def is_abelian(t):
    return all(t.table[a][b] == t.table[b][a] for a in range(t.order) for b in range(a))


class TestFiniteGroupTable:
    def test_cyclic(self):
        t = cyclic_table(13, 2)
        assert (t.order, t.identity) == (12, 0) and is_abelian(t)

    def test_sl2_f2_is_symmetric_group_like(self):
        t = table_from_matrix_group(sl2_generate(make_field(2, 1)))
        assert t.order == 6
        assert not is_abelian(t)

    def test_trivial_table(self):
        t = cyclic_table(5, 1)
        assert (t.order, t.table, t.identity) == (1, ((0,),), 0)

    def test_one_transvection_closure_is_cyclic(self):
        field = make_field(3, 1)
        u = FqMatrix.from_ints(field, [[1, 1], [0, 1]])
        t = table_from_matrix_group(group_from_generators([u]))
        assert t.order == 3 and is_abelian(t)

    def test_identity_may_sit_anywhere(self):
        # the swap sorts before the identity: C2 with the identity labeled 1
        swap = FqMatrix.from_ints(make_field(3, 1), [[0, 1], [1, 0]])
        t = table_from_matrix_group(group_from_generators([swap]))
        assert (t.table, t.identity) == (((1, 0), (0, 1)), 1)

    def test_conjugacy_classes_of_sl2_f2(self):
        t = table_from_matrix_group(sl2_generate(make_field(2, 1)))
        sizes = sorted(len(c) for c in t.conjugacy_classes())
        assert sizes == [1, 2, 3]


class TestJordanVerify:
    def test_s3_has_index_two(self):
        field = make_field(7, 1)
        s3 = group_from_generators([
            FqMatrix.from_ints(field, [[0, 1], [1, 0]]),
            FqMatrix.from_ints(field, [[0, -1], [1, -1]]),
        ])
        cert = jordan_verify(table_from_matrix_group(s3), 2, 384064)
        assert cert.order == 3 and cert.index == 2 and cert.holds

    def test_abelian_group_takes_itself(self):
        cert = jordan_verify(cyclic_table(13, 2), 2, 1)
        assert cert.order == 12 and cert.index == 1 and cert.holds

    def test_sl2_f3_center_is_the_best(self):
        table = table_from_matrix_group(sl2_generate(make_field(3, 1)))
        cert = jordan_verify(table, 2, jordan_constant(2, JordanMode.schur()))
        assert cert.index == 12 and cert.order == 2 and cert.holds

    def test_bound_failure_is_reported_not_raised(self):
        field = make_field(7, 1)
        s3 = group_from_generators([
            FqMatrix.from_ints(field, [[0, 1], [1, 0]]),
            FqMatrix.from_ints(field, [[0, -1], [1, -1]]),
        ])
        cert = jordan_verify(table_from_matrix_group(s3), 2, 1)
        assert cert.index == 2 and not cert.holds

    def test_order_cap(self):
        group = group_from_generators([FqMatrix.from_ints(make_field(13, 1), [[2]])])
        with pytest.raises(CapExceededError, match="^group order 12 exceeds the configured cap 11$"):
            table_from_matrix_group(group, 11)

    def test_certificate_json(self):
        cert = jordan_verify(cyclic_table(5, 2), 1, 12)
        assert cert.to_json() == {"N_order": "4", "index": "1", "bound": "12", "holds": True}


def _f9_monomial_group():
    # diag(x, 1) and the swap over F_9: monomial matrices with entries in <x>
    field = make_field(3, 2)
    x = field.index((0, 1))
    return group_from_generators([
        FqMatrix(field, [[x, field.zero], [field.zero, field.one]]),
        FqMatrix.from_ints(field, [[0, 1], [1, 0]]),
    ])


def _table_fixtures():
    f3, f5, f7 = make_field(3, 1), make_field(5, 1), make_field(7, 1)

    def grp(field, mats):
        return group_from_generators([FqMatrix.from_ints(field, m) for m in mats])

    return {
        "SL(2,5)": sl2_generate(f5),
        "GL(2,3)": grp(f3, [[[1, 1], [0, 1]], [[0, 1], [1, 0]]]),
        "A4": grp(f5, [[[1, 0, 0], [0, -1, 0], [0, 0, -1]], [[0, 0, 1], [1, 0, 0], [0, 1, 0]]]),
        "S4": grp(f5, [[[0, -1, 0], [1, 0, 0], [0, 0, 1]], [[0, 0, 1], [1, 0, 0], [0, 1, 0]]]),
        "C7": grp(f7, [[[1, 1], [0, 1]]]),
        "SL(2,4)": sl2_generate(make_field(2, 2)),
        "F9 monomial": _f9_monomial_group(),
    }


class TestTableFromMatrixGroup:
    @pytest.mark.parametrize("name", sorted(_table_fixtures()))
    def test_equals_the_brute_force_table(self, name):
        group = _table_fixtures()[name]
        index = {m: i for i, m in enumerate(group.elements)}
        expected = tuple(tuple(index[a * b] for b in group.elements) for a in group.elements)
        table = table_from_matrix_group(group)
        assert table.table == expected
        assert group.elements[table.identity] == FqMatrix.identity(group.field, group.dim)

    def test_the_cap_comes_before_the_elements(self, monkeypatch):
        walked = []
        walk = FqMatrixGroup._walk
        monkeypatch.setattr(FqMatrixGroup, "_walk", lambda self: walked.append(self) or walk(self))
        group = sl2_generate(make_field(11, 1))
        with pytest.raises(CapExceededError) as exc:
            table_from_matrix_group(group)
        assert str(exc.value) == "group order 1320 exceeds the configured cap 360"
        assert walked == []

    def test_a_group_at_the_cap_is_accepted(self):
        table = table_from_matrix_group(sl2_generate(make_field(7, 1)), 336)
        assert table.order == 336


# the benchmark's Jordan groups of order <= 360: (name, p, generators or None for SL(2, p))
_BENCH_JORDAN = (
    ("SL(2,3)", 3, None), ("SL(2,5)", 5, None), ("SL(2,7)", 7, None),
    ("GL(2,3)", 3, ([[1, 1], [0, 1]], [[0, 1], [1, 0]])),
    ("Borel(SL(2,7))", 7, ([[1, 1], [0, 1]], [[3, 0], [0, 5]])),
    ("dihedral(12)", 7, ([[3, 0], [0, 5]], [[0, 1], [1, 0]])),
)


@lru_cache(maxsize=None)
def _oracle_groups():
    """A09's groups, the table fixtures, the benchmark's Jordan groups, the
    monomial group diag(F_7^*)^2 x <swap> of order 72, and seeded random
    pairs of 2x2 matrices over F_3, F_5 and F_7 generating a group of order
    <= 120, six per field."""
    groups = {f"A09 {name}": group for name, group, *_ in _fixture_groups()}
    groups.update((f"table {name}", group) for name, group in _table_fixtures().items())
    for name, p, gens in _BENCH_JORDAN:
        field = make_field(p, 1)
        groups[f"bench {name}"] = sl2_generate(field) if gens is None else \
            group_from_generators([FqMatrix.from_ints(field, m) for m in gens])
    monomial = ([[3, 0], [0, 1]], [[1, 0], [0, 3]], [[0, 1], [1, 0]])
    groups["monomial(72)"] = group_from_generators(
        [FqMatrix.from_ints(make_field(7, 1), m) for m in monomial])
    rng = random.Random(20261018)
    for p in (3, 5, 7):
        field = make_field(p, 1)
        found = 0
        while found < 6:
            mats = [[[rng.randrange(p) for _ in range(2)] for _ in range(2)] for _ in range(2)]
            if any((m[0][0] * m[1][1] - m[0][1] * m[1][0]) % p == 0 for m in mats):
                continue
            group = group_from_generators([FqMatrix.from_ints(field, m) for m in mats])
            if group.order <= 120:
                groups[f"F_{p} #{found} {mats}"] = group
                found += 1
    return groups


class TestJordanAgainstCliqueOracle:
    @pytest.mark.parametrize("name", sorted(_oracle_groups()))
    def test_witness_order_and_shape(self, name):
        table = table_from_matrix_group(_oracle_groups()[name])
        cert = jordan_verify(table, 2, 1)
        t = table.table
        n = table.order
        e = t.index(tuple(range(n)))
        inv = [t[a].index(e) for a in range(n)]
        witness = set(cert.subgroup)
        assert all(t[a][b] == t[b][a] and t[a][b] in witness for a in witness for b in witness)
        assert all(t[t[g][s]][inv[g]] in witness for g in range(n) for s in witness)
        assert cert.order == len(witness) and cert.index * cert.order == n
        assert cert.order == len(abelian_normal_by_cliques(t))

    def test_the_oracle_has_a_clique_limit(self):
        table = table_from_matrix_group(_oracle_groups()["monomial(72)"]).table
        with pytest.raises(CapExceededError, match="more than 10 class cliques"):
            abelian_normal_by_cliques(table, limit=10)


class TestJordanBeyondTheCliqueOracle:
    """(Z/2)^5 x D4: the clique oracle passes its limit on it, so the
    minimality of index 2 is proved here from the table alone."""

    def test_z2_to_the_5_times_d4(self):
        # D4 on the first two coordinates over F_3 and a sign on each of the
        # other five (the generators of test_cli's TestJordanSearch)
        field = make_field(3, 1)
        mats = [[[1 if i == j else 0 for j in range(7)] for i in range(7)] for _ in range(7)]
        mats[0][0][:2], mats[0][1][:2] = [0, 2], [1, 0]
        mats[1][1][1] = 2
        for k in range(2, 7):
            mats[k][k][k] = 2
        gens = [FqMatrix.from_ints(field, m) for m in mats]
        # two generators do not commute: G is not abelian, so no abelian
        # subgroup has index 1, and index 2 is minimal
        assert gens[0] * gens[1] != gens[1] * gens[0]
        table = table_from_matrix_group(group_from_generators(gens))
        cert = jordan_verify(table, 7, 1)
        assert (table.order, cert.order, cert.index) == (256, 128, 2)
        t = table.table
        e = t.index(tuple(range(256)))
        inv = [t[a].index(e) for a in range(256)]
        witness = set(cert.subgroup)
        assert len(witness) == 128
        assert all(t[a][b] == t[b][a] and t[a][b] in witness for a in witness for b in witness)
        assert all(t[t[g][s]][inv[g]] in witness for g in range(256) for s in witness)
