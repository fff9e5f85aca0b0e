"""Acceptance suite: the exit criteria of the build, runnable both through
pytest (tests/test_acceptance.py) and the `bundlecalc selftest` command.

Each criterion is exact (no tolerances anywhere, only equality and integer
comparison) and carries the time budget it must meet.  Expected values are
either trivially checkable, verified against the governing formulas, or
recomputed by the independent oracles in bundlecalc.oracles.
"""

from __future__ import annotations

import io
import itertools
import os
import random
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

from . import chern, bounds, grouptables, groups, hn, oracles, serre
from .chern import ChernData
from .fields import make_field
from .grouptables import table_from_matrix_group
from .groups import FreeGroupRep, burnside_irreducible, sl2_elementary_generators, sl2_generate
from .matrices import FqMatrix

_SEED = 20260810


def _cli(argv: list[str]) -> tuple[int, str, str]:
    from .cli import main

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


# -- criteria ---------------------------------------------------------------

def crit_jordan_schur() -> str:
    code, out, _ = _cli(["bounds", "jordan", "--r", "2", "--mode", "schur"])
    assert code == 0 and out == '{"J": "384064"}\n', out
    assert 384064 == 5 ** 8 - 3 ** 8
    assert bounds.jordan_constant(1, bounds.JordanMode.schur()) == 12
    j3 = bounds.jordan_constant(3, bounds.JordanMode.schur())
    u, b = oracles.surd_power_difference(3)
    assert u == 0, "even powers must cancel"
    assert (j3 - 1) ** 2 < 24 * b * b <= j3 * j3
    return f"J(2)=384064, J(1)=12, J(3) bracketed by independent surd expansion"


def crit_sl2_generation() -> str:
    orders = []
    for p, e in [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]:
        field = make_field(p, e)
        group = sl2_generate(field)
        q = field.q
        assert group.order == q ** 3 - q, (q, group.order)
        assert tuple(group.elements) == oracles.sl2_by_filter(field), q
        orders.append(group.order)
    return f"orders {orders} match q^3-q and the determinant-1 filter"


def crit_ell_bound() -> str:
    amb = bounds.AmbientSpace(2, 1, assume_beta_zero=True)
    big = bounds.ell_bound(2, Fraction(1), amb, bounds.JordanMode.schur())
    assert big == 384064 * 384065, big  # independent bignum product
    mini = bounds.ell_bound(2, Fraction(1), amb, bounds.JordanMode.explicit(1))
    assert mini == 2, mini
    zero = bounds.ell_bound(2, Fraction(0), amb, bounds.JordanMode.schur())
    assert zero == 0, zero
    return f"ell(2,1) = 384064*384065 = {big}, miniature = 2"


def crit_langer_index() -> str:
    amb = bounds.AmbientSpace(2, 1, {2: Fraction(0)})
    fixture = bounds.langer_index(ChernData(2, Fraction(0), Fraction(0), Fraction(5)), amb, Fraction(20))
    assert fixture == 10, fixture
    rng = random.Random(_SEED)
    for _ in range(1000):
        r = rng.randint(2, 6)
        m = rng.randint(1, 5)
        beta = Fraction(rng.randint(0, 12), rng.randint(1, 7))
        delta = Fraction(rng.randint(-40, 40), rng.randint(1, 9))
        bump = Fraction(rng.randint(0, 30), rng.randint(1, 9))
        e = ChernData(r)
        amb1 = bounds.AmbientSpace(2, m, {r: beta})
        amb2 = bounds.AmbientSpace(2, m, {r: beta + bump})
        assert bounds.langer_index(e, amb1, delta + bump) >= bounds.langer_index(e, amb1, delta)
        assert bounds.langer_index(e, amb2, delta) >= bounds.langer_index(e, amb1, delta)
        # floors re-derived from numerator/denominator arithmetic
        total = (
            Fraction(r - 1, r) * delta
            + Fraction(1, m * r * (r - 1))
            + (r - 1) * beta / (m * r)
        )
        assert bounds.langer_index(e, amb1, delta) == total.numerator // total.denominator
    return "fixture k = 10; monotone in delta and beta over 1000 random inputs"


def crit_lambda_ring_oracle() -> str:
    count = 0
    vals = range(-3, 4)
    for rank in (1, 2, 3):
        for deg, c1sq, c2 in itertools.product(vals, repeat=3):
            e = ChernData(rank, Fraction(deg), Fraction(c1sq), Fraction(c2))
            for n in range(0, 5):
                assert chern.sym_power(e, n) == oracles.power_by_roots(e, n, "sym")
                assert chern.wedge_power(e, n) == oracles.power_by_roots(e, n, "wedge")
                count += 2
    zero4 = (0, 0, 0, 0)
    for rank in (1, 2, 3):
        for n in range(1, 5):
            acc = zero4
            for k in range(n + 1):
                term = oracles.character_product(chern.sym_character(rank, n - k),
                                                 chern.wedge_character(rank, k))
                acc = tuple(a - t if k % 2 else a + t for a, t in zip(acc, term))
            assert acc == zero4, (rank, n)
    return f"{count} root-oracle comparisons agree; alternating-sum identity holds"


def crit_mu2_additivity() -> str:
    rng = random.Random(_SEED + 1)
    for _ in range(1000):
        ra, rb = rng.randint(1, 5), rng.randint(1, 5)
        ca = Fraction(rng.randint(-30, 30), rng.randint(1, 11))
        cb = Fraction(rng.randint(-30, 30), rng.randint(1, 11))
        v = ChernData(ra, Fraction(0), Fraction(0), ca)
        w = ChernData(rb, Fraction(0), Fraction(0), cb)
        lhs = chern.secondary_slope(chern.tensor(v, w, Fraction(0)))
        assert lhs == chern.secondary_slope(v) + chern.secondary_slope(w)
    return "mu2(V x W) = mu2(V) + mu2(W) on 1000 random c1 = 0 pairs"


def crit_serre_planner() -> str:
    p1 = serre.plan(serre.PlaneLineBundle(1))
    assert (p1.n, p1.h0_QM, p1.lz_min) == (1, 10, 11), p1
    for m_deg in range(-20, 21):
        m = serre.PlaneLineBundle(m_deg)
        p = serre.plan(m)
        conditions = serre.check_assumptions(p, m)
        assert all(h for _, h in conditions), (m_deg, conditions)
        # decrementing n must break positivity or a printed condition
        n_dec = p.n - 1
        n_still_fine = (
            n_dec >= 1 and 2 * n_dec > m_deg and serre.h0_plane(2 * n_dec) > 0
        )
        assert not n_still_fine, m_deg
        # decrementing the cycle length must break the counting condition
        assert not (p.lz_min - 1 > serre.h0_plane(p.q_degree + m_deg)), m_deg
    return "plan(O(1)) = (1, 10, 11); conditions and minimality hold on [-20, 20]"


def crit_burnside_dictionary() -> str:
    f3 = make_field(3, 1)
    gens = sl2_elementary_generators(f3)
    natural = burnside_irreducible(gens)
    assert natural.irreducible and natural.span_dim == 4, natural
    sym2 = groups.associated_rep(FreeGroupRep.of(gens), "sym", 2)
    s = burnside_irreducible(list(sym2.images))
    assert s.irreducible and s.span_dim == 9, s
    upper = [
        FqMatrix.from_ints(f3, [[1, 1], [0, 1]]),
        FqMatrix.from_ints(f3, [[2, 1], [0, 2]]),
    ]
    assert not burnside_irreducible(upper).irreducible
    checked = 0
    for p, e in [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]:
        field = make_field(p, e)
        corpus = [
            sl2_elementary_generators(field),
            [FqMatrix.from_ints(field, [[1, 1], [0, 1]]),
             FqMatrix.from_ints(field, [[1, 2], [0, 1]])],
            [FqMatrix.from_ints(field, [[1, 0], [0, -1]])],
            [FqMatrix.from_ints(field, [[1, 0], [1, 1]])],
            [FqMatrix.identity(field, 2)],
            [FqMatrix.from_ints(field, [[0, 1], [1, 0]]),
             FqMatrix.from_ints(field, [[0, -1], [1, -1]])],
        ]
        for gens_q in corpus:
            verdict = burnside_irreducible(gens_q).irreducible
            oracle = not oracles.reducible_by_common_eigenvector(gens_q)
            assert verdict == oracle, (field.q, [g.rows for g in gens_q])
            checked += 1
    return f"span verdicts match the eigenvector oracle on {checked} groups over q <= 9"


def _fixture_groups():
    f2, f3 = make_field(2, 1), make_field(3, 1)
    f5, f7 = make_field(5, 1), make_field(7, 1)

    def grp(field, mats):
        return groups.group_from_generators([FqMatrix.from_ints(field, m) for m in mats])

    return [
        ("S3", grp(f7, [[[0, 1], [1, 0]], [[0, -1], [1, -1]]]), 2, 6, 2),
        ("D4", grp(f3, [[[0, -1], [1, 0]], [[1, 0], [0, -1]]]), 2, 8, 2),
        ("Q8", grp(f3, [[[0, -1], [1, 0]], [[1, 1], [1, -1]]]), 2, 8, 2),
        ("A4", grp(f5, [[[1, 0, 0], [0, -1, 0], [0, 0, -1]],
                        [[0, 0, 1], [1, 0, 0], [0, 1, 0]]]), 3, 12, 3),
        ("S4", grp(f5, [[[0, -1, 0], [1, 0, 0], [0, 0, 1]],
                        [[0, 0, 1], [1, 0, 0], [0, 1, 0]]]), 3, 24, 6),
        ("SL(2,F2)", sl2_generate(f2), 2, 6, 2),
        ("SL(2,F3)", sl2_generate(f3), 2, 24, 12),
    ]


def crit_jordan_verification() -> str:
    schur = bounds.JordanMode.schur()
    j_cache: dict[int, int] = {}
    lines = []
    for name, group, r, order, min_index in _fixture_groups():
        assert group.order == order, (name, group.order)
        table = table_from_matrix_group(group)
        j = j_cache.setdefault(r, bounds.jordan_constant(r, schur))
        cert = grouptables.jordan_verify(table, r, j)
        assert cert.holds and cert.index <= j, (name, cert)
        assert cert.index == min_index, (name, cert.index, min_index)
        # re-verify the witness from the raw table, independent of the search
        witness = set(cert.subgroup)
        t = table.table
        for a in witness:
            for b in witness:
                assert t[a][b] == t[b][a], (name, "abelian")
                assert t[a][b] in witness, (name, "closed")
        for g in range(table.order):
            ig = table.inv(g)
            for s in witness:
                assert t[t[g][s]][ig] in witness, (name, "normal")
        assert cert.index * cert.order == table.order
        lines.append(f"{name}:{cert.index}")
    return "minimal indices " + ", ".join(lines)


def crit_hn_predicates() -> str:
    rng = random.Random(_SEED + 2)
    # the etale criterion accepts exactly the single-factor slope-0 profiles
    probes = [
        hn.HNProfile.of([(n, Fraction(0))]) for n in (1, 2, 5)
    ] + [
        hn.HNProfile.of([(2, Fraction(1))]),
        hn.HNProfile.of([(1, Fraction(0)), (2, Fraction(-1))]),
        hn.HNProfile.of([(3, Fraction(3)), (1, Fraction(0))]),
    ]
    for p in probes:
        expected = len(p.factors) == 1 and p.factors[0][1] == 0
        got = hn.etale_criterion(p) is hn.EtaleVerdict.ETALE_CONSISTENT
        assert got == expected, p
    # genuinely-ramified rule on a 500-case random corpus of mu_max = 0 data
    for _ in range(500):
        top_rank = rng.randint(1, 4)
        factors = [(top_rank, Fraction(0))]
        slope = Fraction(0)
        for _ in range(rng.randint(0, 3)):
            slope -= Fraction(rng.randint(1, 9), rng.randint(1, 4))
            r = rng.randint(1, 4)
            factors.append((r, slope * r))
        profile = hn.HNProfile.of(factors)
        verdict = hn.genuinely_ramified_criterion(profile)
        expected = (
            hn.RamificationVerdict.GENUINELY_RAMIFIED
            if top_rank == 1
            else hn.RamificationVerdict.FACTORS_THROUGH_ETALE
        )
        assert verdict is expected, profile
    # pushforward bound and Frobenius scaling
    assert hn.pushforward_bound_check(Fraction(3), hn.CoverData(2), hn.HNProfile.of([(1, Fraction(1))]))
    assert not hn.pushforward_bound_check(Fraction(3), hn.CoverData(2), hn.HNProfile.of([(1, Fraction(2))]))
    assert hn.pushforward_bound_check(Fraction(0), hn.CoverData(7), hn.HNProfile.of([(4, Fraction(0))]))
    for _ in range(200):
        deg = Fraction(rng.randint(-50, 50), rng.randint(1, 12))
        p = rng.choice([2, 3, 5, 7, 11])
        m, n = rng.randint(0, 4), rng.randint(0, 4)
        once = hn.frobenius_degree_scale(deg, p, m)
        assert hn.frobenius_degree_scale(once, p, n) == hn.frobenius_degree_scale(deg, p, m + n)
        assert (deg >= 0) == (hn.frobenius_degree_scale(deg, p, n) >= 0)
    return "etale/genram rules exact on corpus; pushforward and Frobenius properties hold"


_CLI_CORPUS: list[list[str]] = [
    ["chern", "sum", "--a", '{"rank": "2", "c2": "1"}', "--b", '{"rank": "2", "c2": "3"}'],
    ["chern", "tensor", "--a", '{"rank": "2", "c2": "1"}', "--b", '{"rank": "2", "c2": "3"}'],
    ["chern", "tensor", "--a", '{"rank": "2", "deg": "4", "c1sq": "16", "c2": "7"}',
     "--b", '{"rank": "1", "deg": "-2", "c1sq": "4"}', "--cross", "-8"],
    ["chern", "dual", "--rank", "3", "--deg", "1", "--c1sq", "1", "--c2", "7"],
    ["chern", "sym", "--rank", "2", "--c2", "1", "--n", "2"],
    ["chern", "wedge", "--rank", "2", "--deg", "5", "--c1sq", "25", "--c2", "3", "--n", "2"],
    ["chern", "slope", "--rank", "4", "--deg", "-2"],
    ["chern", "disc", "--rank", "2", "--c2", "5"],
    ["chern", "mu2", "--rank", "4", "--c2", "8"],
    ["bounds", "langer", "--rank", "2", "--c2", "5", "--assume-beta-zero"],
    ["bounds", "bogomolov", "--rank", "2", "--c2", "5", "--beta", "0"],
    ["bounds", "jordan", "--r", "2", "--mode", "schur"],
    ["bounds", "jordan", "--r", "1", "--mode", "schur"],
    ["bounds", "jordan", "--r", "4", "--mode", "explicit", "--value", "60"],
    ["bounds", "ell", "--r", "2", "--c", "1", "--mode", "explicit", "--value", "1",
     "--assume-beta-zero"],
    ["bounds", "report", "--summands",
     '[{"rank": "4", "c2": "4"}, {"rank": "1"}]', "--assume-beta-zero"],
    ["hn", "validate", "--profile", '[[2, "3"], [1, "0"]]'],
    ["hn", "mumax", "--profile", '[[2, "3"], [1, "0"]]'],
    ["hn", "pushforward", "--profile", '[[1, "1"]]', "--w-slope", "3", "--degree", "2"],
    ["hn", "etale", "--profile", '[[5, "0"]]'],
    ["hn", "genram", "--profile", '[[1, "0"], [3, "-2"]]'],
    ["hn", "frobscale", "--deg", "3", "--p", "2", "--n", "3"],
    ["serre", "plan", "--m-degree", "1"],
    ["serre", "alpha-curve", "--curve-degree", "4"],
    ["serre", "check", "--m-degree", "1", "--plan",
     '{"n": "1", "q_degree": "2", "h0_QM": "10", "lz_min": "11", "c2_min": "11", '
     '"stability_floor": "0"}'],
    ["hol", "field", "--p", "2", "--e", "2"],
    ["hol", "sl2", "--p", "3", "--e", "1"],
    ["hol", "irreducible", "--p", "3", "--gens", '[[[1, 1], [0, 1]], [[1, 0], [1, 1]]]'],
    ["hol", "holonomy", "--p", "3", "--images", '[[[1, 1], [0, 1]], [[1, 0], [1, 1]]]',
     "--target-sl2"],
    ["hol", "assoc", "--p", "3", "--images", '[[[1, 1], [0, 1]], [[1, 0], [1, 1]]]',
     "--functor", "sym", "--n", "2"],
    ["hol", "jordan-verify", "--p", "7", "--gens", '[[[0, 1], [1, 0]], [[0, 6], [1, 6]]]',
     "--r", "2", "--j", "384064"],
    # deterministic error surfaces
    ["chern", "mu2", "--rank", "2", "--deg", "1"],
    ["bounds", "langer", "--rank", "1", "--assume-beta-zero"],
    ["bounds", "langer", "--rank", "2", "--c2", "5"],
    ["hol", "sl2", "--p", "101"],
    ["hn", "genram", "--profile", '[[2, "2"]]'],
]


def _run_corpus() -> list[tuple[int, str, str]]:
    saved = os.environ.pop("BUNDLECALC_CONFIG", None)
    try:
        return [_cli(list(argv)) for argv in _CLI_CORPUS]
    finally:
        if saved is not None:
            os.environ["BUNDLECALC_CONFIG"] = saved


def crit_cli_determinism() -> str:
    first = _run_corpus()
    second = _run_corpus()
    assert first == second, "outputs differ between runs"
    pinned = {
        11: '{"J": "384064"}\n',
        26: '{"order": "24"}\n',
        8: '{"mu2": "2"}\n',
    }
    for idx, expected in pinned.items():
        code, out, _ = first[idx]
        assert code == 0 and out == expected, (idx, first[idx])
    codes = [c for c, _, _ in first]
    assert codes[-5:] == [2, 2, 2, 3, 2], codes[-5:]
    return f"{len(_CLI_CORPUS)} invocations byte-identical across two runs"


CRITERIA: list[tuple[str, str, float, object]] = [
    ("A01", "Jordan constants via Schur's surd expansion", 3.0, crit_jordan_schur),
    ("A02", "SL(2, F_q) generation matches the determinant filter", 5.0, crit_sl2_generation),
    ("A03", "effective restriction bound ell(r, c)", 1.0, crit_ell_bound),
    ("A04", "restriction index fixture and monotonicity", 1.0, crit_langer_index),
    ("A05", "Sym/Lambda powers against the Chern-root oracle", 30.0, crit_lambda_ring_oracle),
    ("A06", "secondary slope additivity under tensor product", 1.0, crit_mu2_additivity),
    ("A07", "plane Serre planner conditions and minimality", 1.0, crit_serre_planner),
    ("A08", "Burnside span test against the eigenvector oracle", 30.0, crit_burnside_dictionary),
    ("A09", "abelian normal subgroups within the Jordan bound", 60.0, crit_jordan_verification),
    ("A10", "cover predicates on slope data", 5.0, crit_hn_predicates),
    ("A11", "CLI corpus determinism", 30.0, crit_cli_determinism),
]


def run(stream=None) -> int:
    """Run every criterion; print one pass/fail line each; 0 iff all pass.

    The time budgets are part of the criteria and are enforced.
    """
    if stream is None:
        stream = __import__("sys").stdout
    failures = 0
    for ident, title, budget, fn in CRITERIA:
        start = time.perf_counter()
        try:
            detail = fn()
            elapsed = time.perf_counter() - start
            if elapsed > budget:
                raise AssertionError(f"took {elapsed:.2f}s, budget {budget:.0f}s")
            stream.write(f"[PASS] {ident} {title} ({elapsed:.2f}s): {detail}\n")
        except Exception as exc:  # noqa: BLE001 - report any failure and continue
            elapsed = time.perf_counter() - start
            failures += 1
            stream.write(f"[FAIL] {ident} {title} ({elapsed:.2f}s): {exc}\n")
    return 0 if failures == 0 else 1
