"""holonomy: in-process finite-group tasks over F_q.

Fields, matrices, groups and grouptables do almost all the work here and
chern and bounds almost none. Closure-bound tasks (SL(2, F_q) up to q = 27,
holonomy images) and table-bound tasks (Jordan verification up to
SL(2, F_7), order 336) sit side by side, so a change that speeds one and
slows the other shows.

A round holds one op per field size, holonomy prime and functor power. The
two sweeps whose ops take up to seconds, SL(2, F_q) for q <= 27 and the
Jordan groups, run each size once per seed, spread over the seed's rounds,
so that a run repeats every op several times. The sizes are the same for
every seed; the seed draws the moduli, the generator pairs (random
conjugates and Nielsen moves of fixed generating sets, so each group's
order is known by construction) and the holonomy images.
"""

from __future__ import annotations

import itertools
import math
import random

from harness import InProcess, Op, Result, check, patched, random_sl2

from bundlecalc import bounds, groups, grouptables, oracles
from bundlecalc.encoding import dumps
from bundlecalc.errors import CapExceededError
from bundlecalc.fields import make_field
from bundlecalc.groups import SPAN_DIM_CAP
from bundlecalc.grouptables import JORDAN_ORDER_CAP
from bundlecalc.matrices import FqMatrix

NAME = "holonomy"
# Distinct rounds per seed: 112 ops, so p90 has ten beyond it.
ROUNDS = 3

FIELD_Q = ((2, 4), (5, 2), (3, 3), (2, 5), (7, 2), (2, 6), (3, 4))
SL2_Q = ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1), (2, 4),
         (17, 1), (19, 1), (23, 1), (5, 2), (3, 3))
HOLONOMY_P = (3, 5, 7, 11, 13)  # random SL(2, F_p) pairs
ORACLE_Q_MAX = 9  # the determinant-filter oracle enumerates q^4 matrices
# Groups of the Jordan tasks: (label, p, generators, order). Conjugates and
# Nielsen moves of the generators generate a conjugate group of that order.
JORDAN_GROUPS = (
    ("SL(2,3)", 3, ([[1, 1], [0, 1]], [[1, 0], [1, 1]]), 24),
    ("SL(2,5)", 5, ([[1, 1], [0, 1]], [[1, 0], [1, 1]]), 120),
    ("SL(2,7)", 7, ([[1, 1], [0, 1]], [[1, 0], [1, 1]]), 336),
    ("GL(2,3)", 3, ([[1, 1], [0, 1]], [[0, 1], [1, 0]]), 48),
    ("Borel(SL(2,7))", 7, ([[1, 1], [0, 1]], [[3, 0], [0, 5]]), 42),
    ("dihedral(12)", 7, ([[3, 0], [0, 5]], [[0, 1], [1, 0]]), 12),
    ("GL(2,5)", 5, ([[1, 1], [0, 1]], [[0, 1], [1, 0]], [[2, 0], [0, 1]]), 480),
)
# Sym^n functor tasks: (dim, n, p). The span cap rejects outputs of
# dimension > 16 (2x2 with n >= 16, 3x3 with n >= 5) after building them.
# The span test grows with p and n, so the larger n use the smaller fields.
ASSOC = tuple((2, n, 7 if n < 8 else 5 if n < 12 else 3) for n in range(1, 21, 2)) + \
    tuple((3, n, 3) for n in range(1, 9))
SL_GENS = {2: ([[1, 1], [0, 1]], [[1, 0], [1, 1]]),
           3: ([[1, 1, 0], [0, 1, 0], [0, 0, 1]], [[0, 0, 1], [1, 0, 0], [0, 1, 0]])}

LEFT_OUT = [
    {"input": "closures that grind up to the 10^6 element cap, e.g. random GL(3, F_7) "
              "generators (order 1.6e8)",
     "reason": "many seconds and a large RSS per op before the cap stops them; "
               "ROADMAP item 4 (caps before work) tracks these"},
    {"input": "sl2_generate for q > 27 (SL(2, F_49) takes 5 s, SL(2, F_81) 47 s)",
     "reason": "one op would outlast a run; ROADMAP item 2 targets these"},
    {"input": "Jordan verification on the monomial group diag(F_7^*)^2 x <swap> (order 72)",
     "reason": "the conjugacy-class clique search runs about 60 s before its cap rejects it "
               "with cap_exceeded; a cap after the work, as in ROADMAP item 4"},
    {"input": "Jordan verification above order 360",
     "reason": "rejected by the order cap before any table is built"},
]


# -- arithmetic mod p, for generating inputs -----------------------------------

def _mul(a, b, p):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) % p for j in range(n)] for i in range(n)]


def _det(a, p):
    if len(a) == 2:
        return (a[0][0] * a[1][1] - a[0][1] * a[1][0]) % p
    return sum(a[0][j] * _det([row[:j] + row[j + 1:] for row in a[1:]], p) * (-1) ** j
               for j in range(len(a))) % p


def _inverse(a, p):
    """Adjugate over the determinant, for 2x2 and 3x3."""
    d = pow(_det(a, p), -1, p)
    if len(a) == 2:
        adj = [[a[1][1], -a[0][1]], [-a[1][0], a[0][0]]]
    else:
        adj = [[(-1) ** (i + j) * _det([r[:i] + r[i + 1:] for k, r in enumerate(a) if k != j], p)
                for j in range(3)] for i in range(3)]
    return [[x * d % p for x in row] for row in adj]


def _random_gl(rng, n, p):
    while True:
        m = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        if _det(m, p):
            return m


def _disguise(rng, gens, p):
    """A random conjugate of the generators after random Nielsen moves; the
    generated group is conjugate to the original, so its order is kept."""
    gens = [list(map(list, g)) for g in gens]
    for _ in range(rng.randint(1, 3)):
        i, j = rng.sample(range(len(gens)), 2)
        gens[i] = _mul(gens[i], gens[j], p) if rng.random() < 0.5 else _mul(gens[j], gens[i], p)
    g = _random_gl(rng, len(gens[0]), p)
    gi = _inverse(g, p)
    return [_mul(_mul(g, m, p), gi, p) for m in gens]


def _irreducible(poly, p):
    """Monic poly (ascending coefficients) has no monic factor of degree <= deg/2."""
    deg = len(poly) - 1
    for d in range(1, deg // 2 + 1):
        for lower in itertools.product(range(p), repeat=d):
            rem = list(poly)
            div = list(lower) + [1]
            for shift in range(deg - d, -1, -1):
                c = rem[shift + d]
                for k in range(d + 1):
                    rem[shift + k] = (rem[shift + k] - c * div[k]) % p
            if not any(rem[:d]):
                return False
    return True


def _random_modulus(rng, p, e):
    if e == 1:
        return [rng.randrange(p), 1]
    while True:
        poly = [rng.randrange(p) for _ in range(e)] + [1]
        if poly[0] and _irreducible(poly, p):
            return poly


def _round(rng, index: int, rounds: int):
    ops = []
    for p, e in FIELD_Q:
        ops.append(Op("field", {"p": p, "e": e, "modulus": _random_modulus(rng, p, e)}, "fields"))
    for p, e in SL2_Q[index::rounds]:
        ops.append(Op("sl2", {"p": p, "e": e, "modulus": _random_modulus(rng, p, e)}, "groups"))
    for p in HOLONOMY_P:
        ops.append(Op("holonomy", {"p": p, "images": [random_sl2(rng, p), random_sl2(rng, p)]},
                      "groups"))
    for label, p, gens, order in JORDAN_GROUPS[index::rounds]:
        ops.append(_jordan_op(label, p, _disguise(rng, gens, p), order))
    for dim, n, p in ASSOC:
        ops.append(_assoc_op(dim, n, p, _disguise(rng, SL_GENS[dim], p)))
    rng.shuffle(ops)
    return ops


def _jordan_op(label, p, gens, order):
    expect = "cap_exceeded" if order > JORDAN_ORDER_CAP else None
    return Op("jordan", {"group": label, "p": p, "gens": gens, "r": 2, "order": order},
              "grouptables", expect=expect)


def _assoc_op(dim, n, p, gens):
    out_dim = math.comb(n + dim - 1, dim - 1)
    expect = "cap_exceeded" if out_dim * out_dim > SPAN_DIM_CAP else None
    return Op("assoc", {"p": p, "images": gens, "functor": "sym", "n": n}, "groups",
              expect=expect)


class Workload(InProcess):
    name = NAME
    left_out = LEFT_OUT

    def __init__(self, seed: int, rounds: int):
        rng = random.Random(f"{NAME}/{seed}")
        self.rounds = [_round(rng, i, rounds) for i in range(rounds)]
        self.probes = [[] for _ in range(rounds)]
        self.warmup = [
            Op("field", {"p": 2, "e": 2, "modulus": [1, 1, 1]}, "fields"),
            Op("sl2", {"p": 3, "e": 1, "modulus": [0, 1]}, "groups"),
            Op("holonomy", {"p": 3, "images": [[[1, 1], [0, 1]], [[1, 0], [1, 1]]]}, "groups"),
            _jordan_op(*JORDAN_GROUPS[0][:3], JORDAN_GROUPS[0][3]),
            _assoc_op(2, 1, 3, SL_GENS[2]),
        ]
        self._j2 = bounds.JordanMode.schur()

    # -- timed part --------------------------------------------------------
    def run(self, op: Op, tr) -> Result:
        counts = {}
        try:
            return self._run(op, tr, counts)
        except Exception as exc:
            exc.counts = counts  # work done before the raise still counts
            raise

    def _run(self, op: Op, tr, counts: dict) -> Result:
        inp = op.inp
        field = tr.call(make_field, inp["p"], inp.get("e", 1), inp.get("modulus"))
        counts["fields.make_field.calls"] = 1
        if op.kind == "field":
            d = field.describe()
            with tr.span("encoding", "render"):
                out = dumps({"p": str(d["p"]), "e": str(d["e"]), "q": str(d["q"]),
                             "modulus": d["modulus"]})
            return Result(out, field, counts)
        if op.kind == "sl2":
            with patched(tr, groups, ["closure"]):
                group = tr.call(groups.sl2_generate, field)
            counts.update(_closure_counts(group.order, len(group.generators)))
            with tr.span("encoding", "render"):
                out = dumps({"order": str(group.order)})
            return Result(out, (field, group), counts)
        with tr.span("matrices", "parse"):
            mats = [FqMatrix.from_ints(field, m) for m in inp.get("images") or inp["gens"]]
        if op.kind == "holonomy":
            rep = tr.call(groups.FreeGroupRep.of, mats)
            with patched(tr, groups, ["closure"]):
                target = tr.call(groups.sl2_generate, field)
                res = tr.call(groups.holonomy, rep, target)
            counts.update(_closure_counts(target.order, len(target.generators)))
            _add(counts, _closure_counts(res.group.order, len(mats)))
            with tr.span("encoding", "render"):
                payload = res.group.to_json()
                payload["full"] = res.full
                out = dumps(payload)
            return Result(out, (field, mats, res), counts)
        if op.kind == "jordan":
            with patched(tr, groups, ["closure"]):
                group = tr.call(groups.group_from_generators, mats)
            counts.update(_closure_counts(group.order, len(mats)))
            if group.order > JORDAN_ORDER_CAP:  # the CLI's order cap, before any table
                err = CapExceededError(f"group order {group.order} exceeds the cap")
                err.group = group
                raise err
            table = tr.call(grouptables.table_from_matrix_group, group)
            counts["grouptables.table.cells"] = group.order ** 2
            j = tr.call(bounds.jordan_constant, inp["r"], self._j2, name="jordan_constant.schur")
            cert = tr.call(grouptables.jordan_verify, table, inp["r"], j)
            with tr.span("encoding", "render"):
                out = dumps(cert.to_json())
            return Result(out, (group, table, cert, j), counts)
        # assoc: functor outputs, then the Burnside span test on them
        rep = tr.call(groups.FreeGroupRep.of, mats)
        counts["groups.assoc.outputs"] = len(mats)
        # the span cap is checked after every output is built: a raise wastes them all
        counts["groups.assoc.wasted"] = len(mats)
        with patched(tr, groups, ["sym_matrix", "wedge_matrix", "dual_matrix", "kronecker"]):
            img = tr.call(groups.associated_rep, rep, inp["functor"], inp["n"])
        counts["groups.assoc.wasted"] = 0
        burn = tr.call(groups.burnside_irreducible, list(img.images))
        with tr.span("encoding", "render"):
            out = dumps({"dim": str(img.dim), "irreducible": burn.irreducible,
                         "span_dim": str(burn.span_dim)})
        return Result(out, (field, mats, img, burn), counts)

    # -- checks, untimed -----------------------------------------------------
    def check_error(self, op: Op, err: BaseException) -> None:
        """A group over the order cap must still have its known order."""
        if op.kind == "jordan":
            order = err.group.order
            check(order == op.inp["order"] and order > JORDAN_ORDER_CAP,
                  f"|{op.inp['group']}| = {order}")

    def check(self, op: Op, res: Result) -> None:
        import json
        out = json.loads(res.out)
        inp = op.inp
        if op.kind == "field":
            f = res.detail
            q = inp["p"] ** inp["e"]
            check(out == {"p": str(inp["p"]), "e": str(inp["e"]), "q": str(q),
                          "modulus": [c % inp["p"] for c in inp["modulus"]]}, "field description")
            one = f.one
            check(all(f.mul_table[a][f.inv_table[a]] == one for a in range(1, q)),
                  "a * inv(a) != 1", "fields")
            if inp["e"] > 1:
                x = f.index([0, 1] + [0] * (inp["e"] - 2))
                acc, power = 0, one
                for c in inp["modulus"]:
                    acc = f.add_table[acc][f.mul_table[f.from_int(c)][power]]
                    power = f.mul_table[power][x]
                check(acc == 0, "x is not a root of the modulus", "fields")
        elif op.kind == "sl2":
            f, group = res.detail
            q = f.q
            check(out == {"order": str(q ** 3 - q)}, f"|SL(2,{q})| = {out['order']}")
            if q <= ORACLE_Q_MAX:
                check(tuple(group.elements) == oracles.sl2_by_filter(f),
                      "differs from the determinant filter")
        elif op.kind == "holonomy":
            f, mats, hres = res.detail
            order = hres.group.order
            full_order = f.q ** 3 - f.q
            check(out["order"] == str(order) and out["full"] == (order == full_order),
                  "order or full flag")
            check(full_order % order == 0, "image order does not divide |SL(2,q)|")
            elements = set(hres.group.elements)
            check(all(m * g in elements for m in elements for g in mats), "image not closed")
            if f.q <= ORACLE_Q_MAX:
                sl2 = set(oracles.sl2_by_filter(f))
                check(elements <= sl2 and hres.full == (elements == sl2), "image vs filter")
        elif op.kind == "jordan":
            group, table, cert, j = res.detail
            check(group.order == inp["order"], f"|{inp['group']}| = {group.order}")
            t = table.table
            n = table.order
            sub = cert.subgroup
            inv = {a: next(b for b in range(n) if t[a][b] == table.identity) for a in range(n)}
            members = set(sub)
            check(all(t[a][b] == t[b][a] for a in sub for b in sub), "witness not abelian")
            check(all(t[t[g][s]][inv[g]] in members for g in range(n) for s in sub),
                  "witness not normal")
            check(cert.index * len(sub) == n and cert.order == len(sub), "index * order != |G|")
            check(cert.holds == (cert.index <= j), "holds flag")
            if inp["group"].startswith("SL"):  # quasisimple or SL(2,3): the centre
                check(cert.index == n // 2, f"index {cert.index} for {inp['group']}")
            check(out == {"N_order": str(len(sub)), "index": str(cert.index), "bound": str(j),
                          "holds": cert.holds}, "rendered certificate")
        else:
            f, mats, img, burn = res.detail
            dim = math.comb(inp["n"] + len(mats[0].rows) - 1, len(mats[0].rows) - 1)
            check(img.dim == dim and out["dim"] == str(dim), "functor dimension")
            check(burn.span_dim <= dim * dim and burn.irreducible == (burn.span_dim == dim * dim)
                  and out["span_dim"] == str(burn.span_dim)
                  and out["irreducible"] == burn.irreducible, "span result")
            a, b = img.images[0], img.images[1]
            prod = groups.apply_matrix_functor(mats[0] * mats[1], "sym", inp["n"])
            check(prod == a * b, "Sym is not multiplicative", "matrices")
            if dim == 2:
                check(burn.irreducible != oracles.reducible_by_common_eigenvector(list(img.images)),
                      "span test vs common-eigenvector oracle")


def _closure_counts(order: int, gens: int) -> dict:
    # breadth-first closure multiplies every element by every generator once
    return {"groups.closure.products": order * gens, "groups.closure.elements": order}


def _add(counts: dict, more: dict) -> None:
    for k, v in more.items():
        counts[k] = counts.get(k, 0) + v
