"""numerology: in-process Chern, bound, HN and Serre tasks.

Inputs arrive as wire strings ("p/q" rationals, JSON records) and results
are rendered through to_json and encoding.dumps, as the CLI does. No
finite-group code runs, so this workload is the control for finite-group
changes, and the reverse. Chern and bound ops on Fraction and bignum values
do the work; cheap ops set p50 and the large Sym and Schur ops set p90.

A round holds each op kind once, except the two size sweeps, Sym^n over
ranks 2-6 up to n = 300 and Schur J(r) for every r in 1..48: each of their
sizes runs once per seed, spread over the seed's rounds. The sizes are the
same for every seed; the seed draws the values.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction

from harness import InProcess, Op, Result, check, hn_profile, rational

from bundlecalc import bounds, chern, hn, oracles, serre
from bundlecalc.encoding import dumps, format_integer, format_rational, parse_integer, \
    parse_rational

NAME = "numerology"
# Distinct rounds per seed: 109 timed ops, so p90 has ten beyond it.
ROUNDS = 3

BASIC = ("sum", "tensor", "dual", "slope", "disc", "mu2")
# The Sym^n sweep as (rank, n): one large n per rank, then small n on seeded
# ranks (None).
SYM = ((2, 300), (3, 150), (4, 100), (5, 56), (6, 56)) + \
    tuple((None, n) for n in (1, 2, 3, 4, 6, 10, 20))
SCHUR_R = range(1, 49)
# J(r) has 2r^2 log10(sqrt(8r) + 1) digits: about 4084 at r = 40 and 4308 at
# r = 41, past Python's default 4300-digit limit on int-to-str conversion.
SCHUR_STR_LIMIT_R = 41
HN_KINDS = ("validate", "mumax", "pushforward", "etale", "genram")
SERRE_KINDS = ("plan", "alpha", "check")

LEFT_OUT = [
    {"input": "chern sym with n > 300 (n = 3000 runs over 20 s)",
     "reason": "the O(n^2) Adams recursion; ROADMAP item 3 replaces it with a closed form"},
    {"input": "bounds ell with r >= 12 in Schur mode",
     "reason": "ell has more than 4300 digits; the same rendering defect as Schur r >= 41"},
]


def _nonneg(rng: random.Random, num: int = 40, den: int = 9) -> str:
    return str(Fraction(rng.randint(0, num), rng.randint(1, den)))


def _record(rng: random.Random, rank: int, c1_zero: bool = False) -> dict:
    rec = {"rank": str(rank), "c2": rational(rng)}
    if not c1_zero:
        rec["deg"] = rational(rng)
        rec["c1sq"] = rational(rng)
    return rec


def _basic_op(rng: random.Random, kind: str) -> Op:
    if kind in ("sum", "tensor"):
        inp = {"a": _record(rng, rng.randint(1, 6)), "b": _record(rng, rng.randint(1, 6)),
               "cross": rational(rng)}
    else:
        inp = {"e": _record(rng, rng.randint(1, 6), c1_zero=kind == "mu2")}
    return Op("chern." + kind, inp, "chern")


def _round(rng: random.Random, index: int, rounds: int) -> list[Op]:
    ops = [_basic_op(rng, k) for k in BASIC]
    for rank, n in SYM[index::rounds]:
        rank = rank or rng.randint(2, 6)
        ops.append(Op("chern.sym", {"e": _record(rng, rank), "n": str(n)}, "chern"))
    rank = rng.randint(2, 6)
    ops.append(Op("chern.wedge", {"e": _record(rng, rank), "n": str(rng.randint(0, rank + 1))},
                  "chern"))
    for r in SCHUR_R[index::rounds]:
        defect = "J(r) exceeds the 4300-digit int-to-str limit" if r >= SCHUR_STR_LIMIT_R else None
        ops.append(Op("bounds.schur", {"r": str(r)}, "bounds", defect=defect))
    ops.append(Op("bounds.weisfeiler", {
        "r": str(rng.randint(2, 10)),
        "a": str(Fraction(rng.randint(1, 12), rng.randint(1, 8))),
        "b": str(Fraction(rng.randint(-8, 16), rng.randint(1, 8)))}, "bounds"))
    mode = {"mode": "schur"} if rng.random() < 0.5 else \
        {"mode": "explicit", "value": str(rng.randint(2, 400))}
    ops.append(Op("bounds.ell", {"r": str(rng.randint(2, 4)), "c": _nonneg(rng),
                                 "m": rng.randint(1, 3),
                                 "variant": rng.choice(["as_printed", "normalized"]), **mode},
                  "bounds"))
    ops.append(Op("bounds.langer", {"e": _record(rng, rng.randint(2, 6)),
                                    "m": rng.randint(1, 3), "beta": _nonneg(rng, 9, 4)},
                  "bounds"))
    summands = [_record(rng, rng.randint(1, 4)) for _ in range(rng.randint(1, 3))]
    summands.append(_record(rng, rng.randint(2, 4)))
    ops.append(Op("bounds.report", {"summands": summands}, "bounds"))
    for kind in HN_KINDS:
        if kind == "validate":
            prof = hn_profile(rng)
            if rng.random() < 0.5:
                prof.append([1, prof[0][1]])  # a non-decreasing step
            inp = {"profile": prof}
        elif kind == "mumax":
            inp = {"profile": hn_profile(rng)}
        elif kind == "pushforward":
            inp = {"profile": hn_profile(rng), "w_slope": rational(rng),
                   "degree": str(rng.randint(1, 6))}
        elif kind == "etale":
            inp = {"profile": [[rng.randint(1, 6), "0"]] if rng.random() < 0.5
                   else hn_profile(rng)}
        else:
            inp = {"profile": hn_profile(rng, top=Fraction(0))}
        ops.append(Op("hn." + kind, inp, "hn"))
    for kind in SERRE_KINDS:
        if kind == "plan":
            inp = {"m": str(rng.randint(-6, 30)), "floor": str(rng.randint(0, 40))}
        elif kind == "alpha":
            inp = {"curve": str(rng.randint(1, 30)), "floor": str(rng.randint(0, 40))}
        else:
            n = rng.randint(1, 8)
            lz = rng.randint(1, 200)
            inp = {"m": str(rng.randint(-6, 20)),
                   "plan": {"n": str(n), "q_degree": str(2 * n), "h0_QM": str(rng.randint(0, 200)),
                            "lz_min": str(lz), "c2_min": str(lz + rng.randint(0, 5)),
                            "stability_floor": "0"}}
        ops.append(Op("serre." + kind, inp, "serre"))
    rng.shuffle(ops)
    return ops


class Workload(InProcess):
    name = NAME
    left_out = LEFT_OUT

    def __init__(self, seed: int, rounds: int):
        rng = random.Random(f"{NAME}/{seed}")
        self.rounds, self.probes = [], []
        for i in range(rounds):
            ops = _round(rng, i, rounds)
            self.rounds.append([op for op in ops if op.defect is None])
            self.probes.append([op for op in ops if op.defect is not None])
        wrng = random.Random(f"{NAME}/warmup")
        warm = [_basic_op(wrng, k) for k in BASIC]
        warm += [Op("chern.sym", {"e": _record(wrng, 2), "n": "2"}, "chern"),
                 Op("chern.wedge", {"e": _record(wrng, 3), "n": "2"}, "chern"),
                 Op("bounds.schur", {"r": "2"}, "bounds"),
                 Op("bounds.weisfeiler", {"r": "3", "a": "1/2", "b": "1/3"}, "bounds"),
                 Op("bounds.ell", {"r": "2", "c": "1", "m": 1, "variant": "as_printed",
                                   "mode": "explicit", "value": "5"}, "bounds"),
                 Op("bounds.langer", {"e": _record(wrng, 2), "m": 1, "beta": "0"}, "bounds"),
                 Op("bounds.report", {"summands": [_record(wrng, 2), _record(wrng, 1)]}, "bounds"),
                 Op("hn.validate", {"profile": hn_profile(wrng)}, "hn"),
                 Op("hn.mumax", {"profile": hn_profile(wrng)}, "hn"),
                 Op("hn.pushforward", {"profile": hn_profile(wrng), "w_slope": "3",
                                       "degree": "2"}, "hn"),
                 Op("hn.etale", {"profile": [[2, "0"]]}, "hn"),
                 Op("hn.genram", {"profile": hn_profile(wrng, top=Fraction(0))}, "hn"),
                 Op("serre.plan", {"m": "1", "floor": "0"}, "serre"),
                 Op("serre.alpha", {"curve": "4", "floor": "0"}, "serre"),
                 Op("serre.check", {"m": "1", "plan": {
                     "n": "1", "q_degree": "2", "h0_QM": "10", "lz_min": "11", "c2_min": "11",
                     "stability_floor": "0"}}, "serre")]
        self.warmup = warm

    # -- timed part --------------------------------------------------------
    def run(self, op: Op, tr) -> Result:
        kind, inp = op.kind, op.inp
        with tr.span("encoding", "parse"):
            args = _parse(kind, inp)
        if kind.startswith("chern."):
            value, payload = _chern(tr, kind, args)
        elif kind.startswith("bounds."):
            value, payload = _bounds(tr, kind, args)
        elif kind.startswith("hn."):
            value, payload = _hn(tr, kind, args)
        else:
            value, payload = _serre(tr, kind, args)
        with tr.span("encoding", "render"):
            out = dumps(payload())
        counts = {"encoding.digits_out": len(out)}
        if kind == "chern.sym":
            counts["chern.sym_power.n_sum"] = args[1]
        return Result(out, (args, value), counts)

    # -- checks, untimed -----------------------------------------------------
    def check(self, op: Op, res: Result) -> None:
        args, value = res.detail
        expected = _expected(op.kind, args, value)
        check(json.loads(res.out) == expected, f"rendered {res.out[:200]} != {str(expected)[:200]}")


def _parse(kind: str, inp: dict):
    if kind in ("chern.sum", "chern.tensor"):
        return (chern.ChernData.from_json(inp["a"]), chern.ChernData.from_json(inp["b"]),
                parse_rational(inp["cross"]))
    if kind.startswith("chern."):
        e = chern.ChernData.from_json(inp["e"])
        return (e, parse_integer(inp["n"])) if "n" in inp else (e,)
    if kind in ("bounds.schur",):
        return (parse_integer(inp["r"]),)
    if kind == "bounds.weisfeiler":
        return (parse_integer(inp["r"]),
                bounds.JordanMode.weisfeiler(parse_rational(inp["a"]), parse_rational(inp["b"])))
    if kind == "bounds.ell":
        mode = bounds.JordanMode.schur() if inp["mode"] == "schur" else \
            bounds.JordanMode.explicit(parse_integer(inp["value"]))
        amb = bounds.AmbientSpace(2, inp["m"], assume_beta_zero=True)
        return parse_integer(inp["r"]), parse_rational(inp["c"]), amb, mode, inp["variant"]
    if kind == "bounds.langer":
        e = chern.ChernData.from_json(inp["e"])
        return e, bounds.AmbientSpace(2, inp["m"], {e.rank: parse_rational(inp["beta"])})
    if kind == "bounds.report":
        return ([chern.ChernData.from_json(s) for s in inp["summands"]],
                bounds.AmbientSpace(2, 1, assume_beta_zero=True))
    if kind.startswith("hn."):
        prof = hn.HNProfile.from_json(inp["profile"])
        if kind == "hn.pushforward":
            return prof, parse_rational(inp["w_slope"]), hn.CoverData(parse_integer(inp["degree"]))
        return (prof,)
    if kind == "serre.plan":
        return serre.PlaneLineBundle(parse_integer(inp["m"])), parse_integer(inp["floor"])
    if kind == "serre.alpha":
        return parse_integer(inp["curve"]), parse_integer(inp["floor"])
    raw = inp["plan"]
    plan = serre.SerrePlan(**{k: parse_integer(v) for k, v in raw.items()})
    return plan, serre.PlaneLineBundle(parse_integer(inp["m"]))


_CHERN_BINARY = {"chern.sum": chern.direct_sum, "chern.tensor": chern.tensor}
_CHERN_UNARY = {"chern.dual": chern.dual, "chern.slope": chern.slope,
                "chern.disc": chern.discriminant, "chern.mu2": chern.secondary_slope}
_CHERN_KEY = {"chern.slope": "slope", "chern.disc": "delta", "chern.mu2": "mu2"}


def _chern(tr, kind, args):
    if kind in _CHERN_BINARY:
        v = tr.call(_CHERN_BINARY[kind], *args)
        return v, v.to_json
    if kind == "chern.sym":
        v = tr.call(chern.sym_power, *args)
        return v, v.to_json
    if kind == "chern.wedge":
        v = tr.call(chern.wedge_power, *args)
        return v, v.to_json
    v = tr.call(_CHERN_UNARY[kind], *args)
    if kind == "chern.dual":
        return v, v.to_json
    return v, lambda: {_CHERN_KEY[kind]: format_rational(v)}


def _bounds(tr, kind, args):
    if kind == "bounds.schur":
        j = tr.call(bounds.jordan_constant, args[0], bounds.JordanMode.schur(),
                    name="jordan_constant.schur")
        return j, lambda: {"J": format_integer(j)}
    if kind == "bounds.weisfeiler":
        j = tr.call(bounds.jordan_constant, *args, name="jordan_constant.weisfeiler")
        return j, lambda: {"J": format_integer(j)}
    if kind == "bounds.ell":
        v = tr.call(bounds.ell_bound, *args)
        return v, lambda: {"ell": format_integer(v)}
    if kind == "bounds.langer":
        e, amb = args
        v = tr.call(bounds.langer_index, e, amb, tr.call(chern.discriminant, e))
        return v, lambda: {"k": format_integer(v)}
    v = tr.call(bounds.restriction_report, *args)
    return v, v.to_json


def _hn(tr, kind, args):
    if kind == "hn.validate":
        v = tr.call(hn.validate_profile, *args)
        return v, lambda: {"valid": v.valid, "first_violation": v.first_violation}
    if kind == "hn.mumax":
        v = (tr.call(hn.mu_max, *args), tr.call(hn.total_slope, *args))
        return v, lambda: {"mu_max": format_rational(v[0]), "total_slope": format_rational(v[1])}
    if kind == "hn.pushforward":
        prof, w, cover = args
        v = tr.call(hn.pushforward_bound_check, w, cover, prof)
        return v, lambda: {"consistent": v}
    fn = hn.etale_criterion if kind == "hn.etale" else hn.genuinely_ramified_criterion
    v = tr.call(fn, *args)
    return v, lambda: {"verdict": v.value}


def _serre(tr, kind, args):
    if kind == "serre.plan":
        v = tr.call(serre.plan, *args)
        return v, v.to_json
    if kind == "serre.alpha":
        v = tr.call(serre.alpha_of_curve, *args)
        return v, v.to_json
    v = tr.call(serre.check_assumptions, *args)
    return v, lambda: {"conditions": [[n, h] for n, h in v], "all_hold": all(h for _, h in v)}


# -- expected values, by routes independent of the code under test -----------

def _rec_json(rank, deg, c1sq, c2) -> dict:
    return {"rank": str(rank), "deg": str(Fraction(deg)), "c1sq": str(Fraction(c1sq)),
            "c2": str(Fraction(c2))}


def _cd_json(e) -> dict:
    return _rec_json(e.rank, e.deg, e.c1sq, e.c2)


def _disc(e) -> Fraction:
    return 2 * e.rank * e.c2 - (e.rank - 1) * e.c1sq


def _floor(x: Fraction) -> int:
    return x.numerator // x.denominator


def _langer(e, m: int, beta: Fraction, delta: Fraction) -> int:
    r = e.rank
    return _floor(Fraction(r - 1, r) * delta + Fraction(1, m * r * (r - 1)) + (r - 1) * beta / (m * r))


def _schur_bracketed(r: int, j: int) -> bool:
    """J(r) = ceil(v sqrt(8r)) with v from iterated surd multiplication."""
    u, v = oracles.surd_power_difference(r)
    return u == 0 and (j - 1) ** 2 < 8 * r * v * v <= j * j


def _slopes(prof) -> list[Fraction]:
    return [Fraction(d) / r for r, d in prof.factors]


def _serre_plan(m: int, floor: int) -> dict:
    n = 1
    while not 2 * n > m:
        n += 1
    h0 = _h0(2 * n + m)
    return {"n": str(n), "q_degree": str(2 * n), "h0_QM": str(h0), "lz_min": str(h0 + 1),
            "c2_min": str(max(h0 + 1, floor)), "stability_floor": str(floor)}


def _h0(d: int) -> int:
    return math.comb(d + 2, 2) if d >= 0 else 0


def _expected(kind: str, args, value):
    if kind in ("chern.sum", "chern.tensor"):
        a, b, x = args
        if kind == "chern.sum":
            return _rec_json(a.rank + b.rank, a.deg + b.deg, a.c1sq + b.c1sq + 2 * x,
                             a.c2 + b.c2 + x)
        r, s = a.rank, b.rank
        c1sq = s * s * a.c1sq + r * r * b.c1sq + 2 * r * s * x
        # the discriminant is multiplicative: Delta(a (x) b) = s^2 Delta(a) + r^2 Delta(b)
        delta = s * s * _disc(a) + r * r * _disc(b)
        c2 = (delta + (r * s - 1) * c1sq) / (2 * r * s)
        return _rec_json(r * s, r * b.deg + s * a.deg, c1sq, c2)
    if kind in ("chern.sym", "chern.wedge"):
        e, n = args
        fn = "sym" if kind == "chern.sym" else "wedge"
        if n <= 4:
            return _cd_json(oracles.power_by_roots(e, n, fn))
        t = math.comb(n + e.rank - 1, e.rank - 1) if fn == "sym" else math.comb(e.rank, n)
        # c1 of Sym^n / Lambda^n is (n t / r) c1; c1sq and c2 are taken as computed
        check(value.rank == t and value.deg == Fraction(n * t, e.rank) * e.deg,
              f"{fn}^{n} rank or degree")
        return _cd_json(value)
    if kind == "chern.dual":
        (e,) = args
        return _rec_json(e.rank, -e.deg, e.c1sq, e.c2)
    if kind == "chern.slope":
        return {"slope": str(args[0].deg / args[0].rank)}
    if kind == "chern.disc":
        return {"delta": str(_disc(args[0]))}
    if kind == "chern.mu2":
        return {"mu2": str(args[0].c2 / args[0].rank)}
    if kind == "bounds.schur":
        check(_schur_bracketed(args[0], value), f"J({args[0]}) not bracketed by the surd oracle")
        return {"J": str(value)}
    if kind == "bounds.weisfeiler":
        import mpmath
        r, mode = args
        with mpmath.workdps(60):
            x = math.factorial(r + 1) * mpmath.power(
                r, mpmath.mpf(mode.a.numerator) / mode.a.denominator * mpmath.log(r)
                + mpmath.mpf(mode.b.numerator) / mode.b.denominator)
            check(value - 1 < x <= value, f"weisfeiler J({r}) = {value} vs {x}")
        return {"J": str(value)}
    if kind == "bounds.ell":
        r, c, amb, mode, variant = args
        if mode.kind == "schur":
            u, v = oracles.surd_power_difference(r)
            target = 8 * r * v * v
            j = math.isqrt(target)
            j += j * j != target
        else:
            j = mode.value
        t = math.comb(j + r - 1, r - 1)
        coeff = Fraction(t - 1, r) if variant == "as_printed" else Fraction(t - 1, t)
        m = amb.theta_top
        return {"ell": str(_floor(coeff * 2 * t * c + Fraction(1, m * t * (t - 1))))}
    if kind == "bounds.langer":
        e, amb = args
        return {"k": str(_langer(e, amb.theta_top, amb.beta[e.rank], _disc(e)))}
    if kind == "bounds.report":
        summands, _ = args
        rows, ks = [], []
        for s in summands:
            k = _langer(s, 1, Fraction(0), _disc(s)) if s.rank >= 2 else None
            rows.append({"chern": _cd_json(s), "index": None if k is None else str(k),
                         "skipped": k is None})
            if k is not None:
                ks.append(k)
        return {"summands": rows, "ell": str(max(ks))}
    if kind.startswith("hn."):
        prof = args[0]
        sl = _slopes(prof)
        if kind == "hn.validate":
            bad = next((i for i in range(1, len(sl)) if not sl[i - 1] > sl[i]), None)
            return {"valid": bad is None, "first_violation": bad}
        if kind == "hn.mumax":
            total = sum(Fraction(d) for _, d in prof.factors) / sum(r for r, _ in prof.factors)
            return {"mu_max": str(sl[0]), "total_slope": str(total)}
        if kind == "hn.pushforward":
            _, w, cover = args
            return {"consistent": sl[0] <= w / cover.degree}
        if kind == "hn.etale":
            ok = len(sl) == 1 and sl[0] == 0
            return {"verdict": "etale_consistent" if ok else "not_etale"}
        return {"verdict": "genuinely_ramified" if prof.factors[0][0] == 1
                else "factors_through_etale"}
    if kind == "serre.plan":
        m, floor = args
        return _serre_plan(m.degree, floor)
    if kind == "serre.alpha":
        return _serre_plan(args[0] - 3, args[1])
    plan, m = args
    h0 = _h0(plan.q_degree + m.degree)
    conds = [["h0_Q_positive", _h0(plan.q_degree) > 0],
             ["deg_Q_exceeds_deg_M", plan.q_degree > m.degree],
             ["cycle_length_exceeds_h0_QM", plan.lz_min > h0]]
    return {"conditions": conds, "all_hold": all(h for _, h in conds)}
