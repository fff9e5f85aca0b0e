"""Command-line surface.

Every subcommand delegates 1:1 to a library operation and prints a single
JSON object on stdout (or a flat key = value table with --output table).
All numbers cross the boundary as decimal / "p/q" strings, never as binary
floats.  Exit status: 0 success, 1 failed selftest, 2 domain error,
3 cap or precision error, 64 usage error.  Errors are structured JSON on
stderr with a machine-readable code.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import bounds, chern, config as config_mod, grouptables, groups, hn, serre
from .encoding import dumps, format_integer, format_rational, parse_integer, parse_rational
from .errors import BundleCalcError, CapExceededError, DomainError, PrecisionError
from .fields import make_field
from .matrices import FqMatrix

USAGE_EXIT = 64


class UsageError(Exception):
    pass


class Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _add_common_flags(p: Parser) -> None:
    # also accepted after the subcommand; SUPPRESS keeps a root-level value
    # from being clobbered by the subparser default
    p.add_argument("--config", default=argparse.SUPPRESS, help="path to a JSON config file")
    p.add_argument("--output", choices=["json", "table"], default=argparse.SUPPRESS)


def _json_arg(raw: str, what: str):
    try:
        return json.loads(raw)
    except json.JSONDecodeError as exc:
        raise DomainError(f"{what} is not valid JSON: {exc}", code="bad_json")


def _json_list(raw: str, what: str) -> list:
    data = _json_arg(raw, what)
    if not isinstance(data, list):
        raise DomainError(f"{what} must be a JSON list", code="bad_json")
    return data


def _chern_from_flags(args) -> chern.ChernData:
    return chern.ChernData(
        parse_integer(args.rank),
        parse_rational(args.deg),
        parse_rational(args.c1sq),
        parse_rational(args.c2),
    )


def _add_chern_flags(p: Parser) -> None:
    p.add_argument("--rank", required=True)
    p.add_argument("--deg", default="0")
    p.add_argument("--c1sq", default="0")
    p.add_argument("--c2", default="0")


def _add_ambient_flags(p: Parser) -> None:
    p.add_argument("--dim", default=None)
    p.add_argument("--theta-top", default=None)
    p.add_argument("--beta", default=None, help="beta constant for the relevant rank")
    p.add_argument("--assume-beta-zero", action="store_true")


def _ambient_from(args, cfg: config_mod.Config, beta_rank: int | None = None) -> bounds.AmbientSpace:
    amb = cfg.ambient
    dim = parse_integer(args.dim) if args.dim is not None else amb.dim
    m = parse_integer(args.theta_top) if args.theta_top is not None else amb.theta_top
    beta = dict(amb.beta)
    if args.beta is not None:
        if beta_rank is None:
            raise DomainError("--beta needs a definite rank for this command", code="bad_config")
        beta[beta_rank] = parse_rational(args.beta)
    assume = amb.assume_beta_zero or args.assume_beta_zero
    return bounds.AmbientSpace(dim=dim, theta_top=m, beta=beta, assume_beta_zero=assume)


def _add_mode_flags(p: Parser) -> None:
    p.add_argument("--mode", choices=["schur", "weisfeiler", "explicit"], default=None)
    p.add_argument("--a", default=None)
    p.add_argument("--b", default=None)
    p.add_argument("--value", default=None)


def _mode_from(args, cfg: config_mod.Config) -> bounds.JordanMode:
    if args.mode is None:
        return cfg.jordan
    if args.mode == "schur":
        return bounds.JordanMode.schur()
    if args.mode == "weisfeiler":
        if args.a is None or args.b is None:
            raise DomainError("weisfeiler mode requires --a and --b", code="bad_mode")
        return bounds.JordanMode.weisfeiler(parse_rational(args.a), parse_rational(args.b))
    if args.value is None:
        raise DomainError("explicit mode requires --value", code="bad_mode")
    return bounds.JordanMode.explicit(parse_integer(args.value))


def _add_field_flags(p: Parser) -> None:
    p.add_argument("--p", required=True)
    p.add_argument("--e", default="1")
    p.add_argument("--modulus", default=None, help="comma-separated ascending coefficients")


def _field_from(args):
    modulus = None
    if args.modulus is not None:
        try:
            modulus = [int(c) for c in str(args.modulus).split(",")]
        except ValueError as exc:
            raise DomainError(f"bad modulus coefficients: {args.modulus!r}",
                              code="bad_modulus") from exc
    return make_field(parse_integer(args.p), parse_integer(args.e), modulus)


def _matrix_from_json(field, obj) -> FqMatrix:
    if not isinstance(obj, list):
        raise DomainError("matrix must be a nested JSON array", code="bad_matrix")
    rows = []
    for row in obj:
        if not isinstance(row, list):
            raise DomainError("matrix rows must be arrays", code="bad_matrix")
        entries = []
        for cell in row:
            if isinstance(cell, int):
                entries.append(field.from_int(cell))
            elif isinstance(cell, list):
                entries.append(field.index([int(c) for c in cell]))
            else:
                raise DomainError(
                    "matrix entries must be ints or coefficient vectors", code="bad_matrix"
                )
        rows.append(entries)
    return FqMatrix(field, rows)


def _matrices_from_arg(field, raw: str, what: str) -> list[FqMatrix]:
    data = _json_arg(raw, what)
    if not isinstance(data, list) or not data:
        raise DomainError(f"{what} must be a nonempty JSON list", code="bad_matrix")
    return [_matrix_from_json(field, m) for m in data]


# -- subcommand implementations ------------------------------------------

def _cmd_chern(args, cfg) -> dict:
    op = args.op
    if op in ("sum", "tensor"):
        a = chern.ChernData.from_json(_json_arg(args.a, "--a"))
        b = chern.ChernData.from_json(_json_arg(args.b, "--b"))
        cross = parse_rational(args.cross) if args.cross is not None else None
        fn = chern.direct_sum if op == "sum" else chern.tensor
        return fn(a, b, cross).to_json()
    e = _chern_from_flags(args)
    if op == "dual":
        return chern.dual(e).to_json()
    if op == "sym":
        return chern.sym_power(e, parse_integer(args.n)).to_json()
    if op == "wedge":
        return chern.wedge_power(e, parse_integer(args.n)).to_json()
    if op == "slope":
        return {"slope": format_rational(chern.slope(e))}
    if op == "disc":
        return {"delta": format_rational(chern.discriminant(e))}
    return {"mu2": format_rational(chern.secondary_slope(e))}


def _cmd_bounds(args, cfg) -> dict:
    op = args.op
    if op in ("langer", "bogomolov"):
        e = _chern_from_flags(args)
        amb = _ambient_from(args, cfg, beta_rank=e.rank)
        if args.delta is not None:
            delta = parse_rational(args.delta)
        elif amb.dim == 2:
            delta = chern.discriminant(e)
        else:
            raise DomainError("--delta required when dim != 2", code="missing_delta")
        return {"k": format_integer(bounds.langer_index(e, amb, delta))}
    if op == "jordan":
        mode = _mode_from(args, cfg)
        j = bounds.jordan_constant(parse_integer(args.r), mode)
        return {"J": format_integer(j)}
    if op == "ell":
        mode = _mode_from(args, cfg)
        r = parse_integer(args.r)
        t = chern.sym_rank(r, bounds.jordan_constant(r, mode))
        amb = _ambient_from(args, cfg, beta_rank=t)
        value = bounds.ell_bound(r, parse_rational(args.c), amb, mode, args.variant)
        return {
            "ell": format_integer(value),
            "t": format_integer(t),
            "variant": args.variant,
        }
    summands = [chern.ChernData.from_json(s) for s in _json_list(args.summands, "--summands")]
    deltas = None
    if args.deltas is not None:
        deltas = [parse_rational(d) for d in _json_list(args.deltas, "--deltas")]
    ranks = sorted({s.rank for s in summands if s.rank >= 2})
    amb = cfg.ambient
    if args.beta is not None and len(ranks) == 1:
        amb = _ambient_from(args, cfg, beta_rank=ranks[0])
    else:
        amb = _ambient_from(args, cfg)
    return bounds.restriction_report(summands, amb, deltas).to_json()


def _cmd_hn(args, cfg) -> dict:
    op = args.op
    if op == "frobscale":
        scaled = hn.frobenius_degree_scale(
            parse_rational(args.deg), parse_integer(args.p), parse_integer(args.n)
        )
        return {"deg": format_rational(scaled)}
    profile = hn.HNProfile.from_json(_json_arg(args.profile, "--profile"))
    if op == "validate":
        check = hn.validate_profile(profile)
        return {"valid": check.valid, "first_violation": check.first_violation}
    if op == "mumax":
        return {
            "mu_max": format_rational(hn.mu_max(profile)),
            "total_slope": format_rational(hn.total_slope(profile)),
        }
    if op == "pushforward":
        cover = hn.CoverData(parse_integer(args.degree), not args.inseparable)
        ok = hn.pushforward_bound_check(parse_rational(args.w_slope), cover, profile)
        return {"consistent": ok}
    if op == "etale":
        return {"verdict": hn.etale_criterion(profile).value}
    return {"verdict": hn.genuinely_ramified_criterion(profile).value}


def _cmd_serre(args, cfg) -> dict:
    op = args.op
    if op == "plan":
        p = serre.plan(serre.PlaneLineBundle(parse_integer(args.m_degree)),
                       parse_integer(args.floor))
        return p.to_json()
    if op == "alpha-curve":
        p = serre.alpha_of_curve(parse_integer(args.curve_degree), parse_integer(args.floor))
        return p.to_json()
    raw = _json_arg(args.plan, "--plan")
    if not isinstance(raw, dict):
        raise DomainError("--plan must be a JSON object", code="bad_plan")
    required = {"n", "q_degree", "h0_QM", "lz_min", "c2_min"}
    extra = set(raw) - required - {"stability_floor"}
    if extra:
        raise DomainError(f"unknown plan fields: {sorted(extra)}", code="bad_plan")
    missing = required - set(raw)
    if missing:
        raise DomainError(f"missing plan fields: {sorted(missing)}", code="bad_plan")
    p = serre.SerrePlan(
        n=parse_integer(raw["n"]),
        q_degree=parse_integer(raw["q_degree"]),
        h0_QM=parse_integer(raw["h0_QM"]),
        lz_min=parse_integer(raw["lz_min"]),
        c2_min=parse_integer(raw["c2_min"]),
        stability_floor=parse_integer(raw.get("stability_floor", 0)),
    )
    conditions = serre.check_assumptions(p, serre.PlaneLineBundle(parse_integer(args.m_degree)))
    return {
        "conditions": [[name, holds] for name, holds in conditions],
        "all_hold": all(holds for _, holds in conditions),
    }


def _cmd_hol(args, cfg) -> dict:
    op = args.op
    field = _field_from(args)
    if field.q > cfg.caps.q_max:
        raise CapExceededError(f"field size {field.q} exceeds the configured cap {cfg.caps.q_max}")
    if op == "field":
        d = field.describe()
        return {"p": str(d["p"]), "e": str(d["e"]), "q": str(d["q"]), "modulus": d["modulus"]}
    if op == "sl2":
        group = groups.sl2_generate(field, cap=cfg.caps.closure)
        return {"order": format_integer(group.order)}
    if op == "irreducible":
        gens = _matrices_from_arg(field, args.gens, "--gens")
        result = groups.burnside_irreducible(gens)
        return {"irreducible": result.irreducible, "span_dim": format_integer(result.span_dim)}
    if op == "holonomy":
        images = _matrices_from_arg(field, args.images, "--images")
        rep = groups.FreeGroupRep.of(images)
        target = groups.sl2_generate(field, cap=cfg.caps.closure) if args.target_sl2 else None
        result = groups.holonomy(rep, target, cap=cfg.caps.closure)
        payload = result.group.to_json()
        if result.full is not None:
            payload["full"] = result.full
        return payload
    if op == "assoc":
        images = _matrices_from_arg(field, args.images, "--images")
        rep = groups.FreeGroupRep.of(images)
        other = None
        if args.other is not None:
            other = groups.FreeGroupRep.of(_matrices_from_arg(field, args.other, "--other"))
        out = groups.associated_rep(rep, args.functor, parse_integer(args.n), other)
        return {
            "dim": format_integer(out.dim),
            "images": [m.to_coeff_rows() for m in out.images],
        }
    # jordan-verify
    gens = _matrices_from_arg(field, args.gens, "--gens")
    group = groups.group_from_generators(gens, cap=cfg.caps.closure)
    if group.order > cfg.caps.jordan_order:
        raise CapExceededError(
            f"group order {group.order} exceeds the configured cap {cfg.caps.jordan_order}"
        )
    table = grouptables.table_from_matrix_group(group)
    r = parse_integer(args.r)
    if args.j is not None:
        j = parse_integer(args.j)
    else:
        j = bounds.jordan_constant(r, _mode_from(args, cfg))
    return grouptables.jordan_verify(table, r, j, cfg.caps.jordan_order).to_json()


def _cmd_selftest(args, cfg) -> int:
    from .acceptance import run

    return run()


# -- parser ----------------------------------------------------------------

def build_parser() -> Parser:
    parser = Parser(prog="bundlecalc", description=__doc__)
    parser.add_argument("--config", default=None, help="path to a JSON config file")
    parser.add_argument("--output", choices=["json", "table"], default=None)
    sub = parser.add_subparsers(dest="group", required=True)

    chern_p = sub.add_parser("chern", help="truncated Chern calculus")
    chern_sub = chern_p.add_subparsers(dest="op", required=True)
    for op in ("sum", "tensor"):
        p = chern_sub.add_parser(op)
        _add_common_flags(p)
        p.add_argument("--a", required=True, help="ChernData JSON")
        p.add_argument("--b", required=True, help="ChernData JSON")
        p.add_argument("--cross", default=None)
    for op in ("dual", "slope", "disc", "mu2"):
        p = chern_sub.add_parser(op)
        _add_common_flags(p)
        _add_chern_flags(p)
    for op in ("sym", "wedge"):
        p = chern_sub.add_parser(op)
        _add_common_flags(p)
        _add_chern_flags(p)
        p.add_argument("--n", required=True)

    bounds_p = sub.add_parser("bounds", help="effective restriction constants")
    bounds_sub = bounds_p.add_subparsers(dest="op", required=True)
    for op in ("langer", "bogomolov"):
        p = bounds_sub.add_parser(op)
        _add_common_flags(p)
        _add_chern_flags(p)
        p.add_argument("--delta", default=None)
        _add_ambient_flags(p)
    p = bounds_sub.add_parser("jordan")
    _add_common_flags(p)
    p.add_argument("--r", required=True)
    _add_mode_flags(p)
    p = bounds_sub.add_parser("ell")
    _add_common_flags(p)
    p.add_argument("--r", required=True)
    p.add_argument("--c", required=True)
    p.add_argument("--variant", choices=["as_printed", "normalized"], default="as_printed")
    _add_mode_flags(p)
    _add_ambient_flags(p)
    p = bounds_sub.add_parser("report")
    _add_common_flags(p)
    p.add_argument("--summands", required=True, help="JSON list of ChernData")
    p.add_argument("--deltas", default=None, help="JSON list of pairing values")
    _add_ambient_flags(p)

    hn_p = sub.add_parser("hn", help="slope predicates on HN data")
    hn_sub = hn_p.add_subparsers(dest="op", required=True)
    for op in ("validate", "mumax", "etale", "genram"):
        p = hn_sub.add_parser(op)
        _add_common_flags(p)
        p.add_argument("--profile", required=True, help='JSON [[rank, "p/q"], ...]')
    p = hn_sub.add_parser("pushforward")
    _add_common_flags(p)
    p.add_argument("--profile", required=True)
    p.add_argument("--w-slope", required=True)
    p.add_argument("--degree", required=True)
    p.add_argument("--inseparable", action="store_true")
    p = hn_sub.add_parser("frobscale")
    _add_common_flags(p)
    p.add_argument("--deg", required=True)
    p.add_argument("--p", required=True)
    p.add_argument("--n", required=True)

    serre_p = sub.add_parser("serre", help="plane Serre-construction planning")
    serre_sub = serre_p.add_subparsers(dest="op", required=True)
    p = serre_sub.add_parser("plan")
    _add_common_flags(p)
    p.add_argument("--m-degree", required=True)
    p.add_argument("--floor", default="0")
    p = serre_sub.add_parser("alpha-curve")
    _add_common_flags(p)
    p.add_argument("--curve-degree", required=True)
    p.add_argument("--floor", default="0")
    p = serre_sub.add_parser("check")
    _add_common_flags(p)
    p.add_argument("--plan", required=True, help="SerrePlan JSON")
    p.add_argument("--m-degree", required=True)

    hol_p = sub.add_parser("hol", help="finite fields, matrix groups, holonomy")
    hol_sub = hol_p.add_subparsers(dest="op", required=True)
    for op in ("field", "sl2"):
        p = hol_sub.add_parser(op)
        _add_common_flags(p)
        _add_field_flags(p)
    p = hol_sub.add_parser("irreducible")
    _add_common_flags(p)
    _add_field_flags(p)
    p.add_argument("--gens", required=True, help="JSON list of matrices")
    p = hol_sub.add_parser("holonomy")
    _add_common_flags(p)
    _add_field_flags(p)
    p.add_argument("--images", required=True, help="JSON list of matrices")
    p.add_argument("--target-sl2", action="store_true")
    p = hol_sub.add_parser("assoc")
    _add_common_flags(p)
    _add_field_flags(p)
    p.add_argument("--images", required=True)
    p.add_argument("--functor", choices=["dual", "sym", "wedge", "tensor_with"], required=True)
    p.add_argument("--n", default="0")
    p.add_argument("--other", default=None)
    p = hol_sub.add_parser("jordan-verify")
    _add_common_flags(p)
    _add_field_flags(p)
    p.add_argument("--gens", required=True)
    p.add_argument("--r", required=True)
    p.add_argument("--j", default=None, help="explicit bound; defaults to the configured mode")
    _add_mode_flags(p)

    sub.add_parser("selftest", help="run the acceptance suite")
    return parser


_DISPATCH = {
    "chern": _cmd_chern,
    "bounds": _cmd_bounds,
    "hn": _cmd_hn,
    "serre": _cmd_serre,
    "hol": _cmd_hol,
}


def _render(payload: dict, fmt: str) -> str:
    if fmt == "json":
        return dumps(payload)
    lines = []
    for key in sorted(payload):
        value = payload[key]
        if isinstance(value, (dict, list)):
            value = dumps(value)
        lines.append(f"{key} = {value}")
    return "\n".join(lines)


def _emit_error(code: str, message: str) -> None:
    sys.stderr.write(dumps({"error": code, "message": message}) + "\n")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        _emit_error("usage", str(exc))
        return USAGE_EXIT
    try:
        cfg = config_mod.load_config(getattr(args, "config", None))
        if args.group == "selftest":
            return _cmd_selftest(args, cfg)
        payload = _DISPATCH[args.group](args, cfg)
        fmt = getattr(args, "output", None) or cfg.output
        sys.stdout.write(_render(payload, fmt) + "\n")
        return 0
    except (CapExceededError, PrecisionError) as exc:
        _emit_error(exc.code, str(exc))
        return 3
    except BundleCalcError as exc:
        _emit_error(exc.code, str(exc))
        return 2


if __name__ == "__main__":
    sys.exit(main())
