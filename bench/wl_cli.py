"""cli_oneshot: one `bundlecalc` process at a time, as the CLI is used.

Each op spawns the console-script equivalent of `bundlecalc <argv>` and
waits for it. Start-up dominates each call (a bare interpreter, then the
import of bundlecalc.cli), so compute-module changes should not move this
workload and import or parser changes should. Inputs are small: hol on
q <= 9 and groups of order <= 24, Schur r <= 12, chern sym n <= 20 and
frobscale n drawn log-uniformly up to 10^6. About one command in ten uses
--config, some use --output table and about one in ten is a documented
error surface (domain, cap or usage).
"""

from __future__ import annotations

import io
import json
import math
import random
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

from harness import OUT, PYTHON, Failure, Op, Result, check, child_env, hn_profile, \
    random_sl2, rational, spawn, traceback_module

from bundlecalc import cli, config

NAME = "cli_oneshot"
# Distinct rounds per seed, one per small field of Q_SMALL.
ROUNDS = 7
MAIN = "import sys; from bundlecalc.cli import main; sys.exit(main())"
GROUPS = ("chern", "bounds", "hn", "serre", "hol")
SAMPLE_EVERY = 4  # traced runs interleave start-up samples every this many commands

# The README's examples and their pinned outputs.
README = [
    (["bounds", "jordan", "--r", "2", "--mode", "schur"], '{"J": "384064"}'),
    (["hol", "sl2", "--p", "3", "--e", "1"], '{"order": "24"}'),
    (["chern", "mu2", "--rank", "4", "--c2", "8"], '{"mu2": "2"}'),
    (["chern", "tensor", "--a", '{"rank": "2", "deg": "2", "c1sq": "4", "c2": "7"}',
      "--b", '{"rank": "1", "deg": "-1", "c1sq": "1"}', "--cross", "-2"],
     '{"c1sq": "0", "c2": "6", "deg": "0", "rank": "2"}'),
    (["bounds", "langer", "--rank", "2", "--c2", "5", "--assume-beta-zero"], '{"k": "10"}'),
    (["serre", "plan", "--m-degree", "1"],
     '{"c2_min": "11", "h0_QM": "10", "lz_min": "11", "n": "1", "q_degree": "2", '
     '"stability_floor": "0"}'),
    (["hn", "genram", "--profile", '[[1, "0"], [3, "-2"]]'], '{"verdict": "genuinely_ramified"}'),
    (["hol", "jordan-verify", "--p", "3", "--gens", "[[[1, 1], [0, 1]], [[1, 0], [1, 1]]]",
      "--r", "2", "--mode", "schur"],
     '{"N_order": "2", "bound": "384064", "holds": true, "index": "12"}'),
]

CONFIGS = {
    "beta0": {"ambient": {"assume_beta_zero": True}},
    "weisfeiler": {"jordan": {"mode": "weisfeiler", "a": "1/2", "b": "1/3"}},
    "table": {"output": "table"},
    "tight_caps": {"caps": {"jordan_order": 20}},
}

# 10^4300 is where Python's default int-to-str limit starts.
STR_LIMIT = 10 ** 4300

LEFT_OUT = [
    {"input": "bundlecalc selftest",
     "reason": "2.9 s per call, and its exit code 1 is a test verdict, not a command outcome"},
    {"input": "hol commands on q > 9 or groups of order > 24",
     "reason": "compute would dominate start-up; the holonomy workload covers them in-process"},
]


def _rec(rng, rank=None) -> str:
    return json.dumps({"rank": str(rank or rng.randint(1, 4)), "deg": rational(rng),
                       "c1sq": rational(rng), "c2": rational(rng)})


def _profile(rng, top=None) -> str:
    return json.dumps(hn_profile(rng, top))


def _sl2_pair(rng, p) -> str:
    return json.dumps([random_sl2(rng, p), random_sl2(rng, p)])


def _frobscale(rng) -> tuple[list[str], bool]:
    """frobscale with n log-uniform in [1, 10^6]; True when the output
    would pass the int-to-str limit (the known defect)."""
    p = rng.choice([2, 3, 5, 7])
    n = int(10 ** rng.uniform(0, 6))
    deg = Fraction(rng.randint(1, 40), rng.randint(1, 5))
    digits = n * math.log10(p) + math.log10(deg.numerator)
    too_big = digits > 4301 or (digits > 4299 and deg.numerator * p ** n >= STR_LIMIT)
    return ["hn", "frobscale", "--deg", str(deg), "--p", str(p), "--n", str(n)], too_big


Q_SMALL = ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2))


def _valid(rng, index: int) -> list[list[str]]:
    """One command per valid slot of a round. The field sizes, which set the
    cost of the hol commands, follow the round index rather than the seed."""
    q_small = Q_SMALL[index % len(Q_SMALL)]
    p = (3, 5, 7)[index % 3]
    r = rng.randint(2, 4)
    return [
        ["chern", "sum", "--a", _rec(rng), "--b", _rec(rng), "--cross", rational(rng)],
        ["chern", "tensor", "--a", _rec(rng), "--b", _rec(rng), "--cross", rational(rng)],
        ["chern", "dual", "--rank", str(r), "--deg", rational(rng), "--c1sq", rational(rng),
         "--c2", rational(rng)],
        ["chern", "slope", "--rank", str(r), "--deg", rational(rng)],
        ["chern", "disc", "--rank", str(r), "--c1sq", rational(rng), "--c2", rational(rng)],
        ["chern", "mu2", "--rank", str(r), "--c2", rational(rng)],
        ["chern", "sym", "--rank", str(r), "--deg", rational(rng), "--c1sq", rational(rng),
         "--c2", rational(rng), "--n", str(rng.randint(0, 20))],
        ["chern", "sym", "--rank", "2", "--c2", rational(rng), "--n", str(rng.randint(0, 20))],
        ["chern", "wedge", "--rank", str(r), "--deg", rational(rng), "--c2", rational(rng),
         "--n", str(rng.randint(0, r + 1))],
        ["bounds", "langer", "--rank", str(r), "--c2", rational(rng),
         "--beta", rational(rng, 9, 4).lstrip("-")],
        ["bounds", "bogomolov", "--rank", str(r), "--c1sq", rational(rng), "--c2", rational(rng),
         "--assume-beta-zero"],
        ["bounds", "jordan", "--r", str(rng.randint(1, 12)), "--mode", "schur"],
        ["bounds", "jordan", "--r", str(rng.randint(2, 8)), "--mode", "weisfeiler",
         "--a", str(Fraction(rng.randint(1, 8), rng.randint(1, 6))),
         "--b", str(Fraction(rng.randint(0, 8), rng.randint(1, 6)))],
        ["bounds", "ell", "--r", str(r), "--c", rational(rng).lstrip("-"), "--mode", "explicit",
         "--value", str(rng.randint(2, 60)), "--assume-beta-zero"],
        ["bounds", "report", "--summands", json.dumps([json.loads(_rec(rng, 2)),
                                                       json.loads(_rec(rng))]),
         "--assume-beta-zero"],
        ["hn", "validate", "--profile", _profile(rng)],
        ["hn", "mumax", "--profile", _profile(rng)],
        ["hn", "pushforward", "--profile", _profile(rng), "--w-slope", rational(rng),
         "--degree", str(rng.randint(1, 5))],
        ["hn", "etale", "--profile", rng.choice([_profile(rng), '[[3, "0"]]'])],
        ["hn", "genram", "--profile", _profile(rng, Fraction(0))],
        ["serre", "plan", "--m-degree", str(rng.randint(-5, 25)), "--floor", str(rng.randint(0, 30))],
        ["serre", "alpha-curve", "--curve-degree", str(rng.randint(1, 25))],
        ["serre", "check", "--m-degree", str(rng.randint(-3, 10)), "--plan", json.dumps(
            {"n": "2", "q_degree": "4", "h0_QM": str(rng.randint(0, 60)),
             "lz_min": "40", "c2_min": "41", "stability_floor": "0"})],
        ["hol", "field", "--p", str(q_small[0]), "--e", str(q_small[1])],
        ["hol", "sl2", "--p", str(q_small[0]), "--e", str(q_small[1])],
        ["hol", "field", "--p", str(p), "--e", "2"],
        ["hol", "irreducible", "--p", str(p), "--gens", _sl2_pair(rng, p)],
        ["hol", "holonomy", "--p", str(p), "--images", _sl2_pair(rng, p), "--target-sl2"],
        ["hol", "assoc", "--p", "3", "--images", _sl2_pair(rng, 3), "--functor", "sym",
         "--n", str(rng.randint(1, 4))],
        ["hol", "jordan-verify", "--p", "3", "--gens", _sl2_pair(rng, 3), "--r", "2",
         "--mode", "schur"],
    ]


def _errors(rng) -> list[tuple[list[str], int, str]]:
    """One domain, one cap and one usage error: (argv, exit code, error code)."""
    domain = rng.choice([
        (["chern", "mu2", "--rank", "2", "--deg", "1"], 2, "mu2_undefined"),
        (["hn", "mumax", "--profile", '[[1, "0"], [1, "1"]]'], 2, "invalid_profile"),
        (["bounds", "langer", "--rank", "1", "--assume-beta-zero"], 2, "rank_too_small"),
        (["hn", "frobscale", "--deg", "1", "--p", "4", "--n", "2"], 2, "not_prime"),
    ])
    cap = rng.choice([
        (["hol", "sl2", "--p", "3", "--e", "5"], 3, "cap_exceeded"),
        (["hol", "field", "--p", "2", "--e", "7"], 3, "cap_exceeded"),
        (["hol", "jordan-verify", "--config", "@tight_caps", "--p", "3", "--gens",
          "[[[1, 1], [0, 1]], [[1, 0], [1, 1]]]", "--r", "2"], 3, "cap_exceeded"),
    ])
    usage = rng.choice([
        (["chern", "sum", "--a", '{"rank": "2"}'], 64, "usage"),
        (["hol", "sl2", "--p", "3", "--output", "xml"], 64, "usage"),
        (["bundle"], 64, "usage"),
    ])
    return [domain, cap, usage]


def _op(argv: list[str], **contract) -> Op:
    """A value that starts with '-' is joined to its flag, as argparse needs
    for values such as -19/5 that are not plain numbers."""
    joined = []
    for a in argv:
        if a.startswith("-") and not a.startswith("--") and joined and joined[-1].startswith("--"):
            joined[-1] += "=" + a
        else:
            joined.append(a)
    kind = argv[0] if argv[0] in GROUPS else "usage"
    return Op(kind, {"argv": joined, **contract}, "cli")


def _round(rng, index: int) -> tuple[list[Op], list[Op]]:
    cmds = _valid(rng, index)
    # about one in ten with --config, a few with --output table
    for i, name in zip(rng.sample(range(len(cmds)), 3), ["beta0", "weisfeiler", "table"]):
        argv = cmds[i]
        if name == "beta0":
            argv = ["bounds", "langer", "--rank", "3", "--c2", rational(rng)]
        elif name == "weisfeiler":
            argv = ["bounds", "jordan", "--r", str(rng.randint(2, 8))]
        cmds[i] = argv[:2] + ["--config", "@" + name] + argv[2:]
    for i in rng.sample(range(len(cmds)), 2):
        if "--config" not in cmds[i]:
            cmds[i] = cmds[i] + ["--output", "table"]
    ops = [_op(argv) for argv in cmds]
    argv, pinned = README[(index + rng.randrange(len(README))) % len(README)]
    ops.append(_op(argv, stdout=pinned + "\n"))
    ops += [_op(argv, exit=code, error=err) for argv, code, err in _errors(rng)]
    probes = []
    while True:  # the frobscale slot: inputs the defect hits become probes
        argv, too_big = _frobscale(rng)
        if not too_big:
            ops.append(_op(argv))
            break
        probes.append(Op("hn", {"argv": argv}, "cli", defect="output past the int-to-str limit"))
    rng.shuffle(ops)
    return ops, probes


def _inprocess(argv: list[str]):
    """cli.main on the same argv in this process: (exit, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except Exception as exc:  # the child would print a traceback and exit 1
            return 1, out.getvalue(), f"Traceback: {type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()


class Workload:
    name = NAME
    left_out = LEFT_OUT

    def __init__(self, seed: int, rounds: int):
        OUT.mkdir(exist_ok=True)
        self.config_paths = {}
        for name, body in CONFIGS.items():
            path = OUT / f"config-{name}.json"
            path.write_text(json.dumps(body))
            self.config_paths[name] = str(path)
        rng = random.Random(f"{NAME}/{seed}")
        self.rounds, self.probes = [], []
        for i in range(rounds):
            ops, probes = _round(rng, i)
            self.rounds.append(ops)
            self.probes.append(probes)
        self.warmup = [_op(a, stdout=out + "\n")
                       for a, out in (README[0], README[1], README[2], README[5], README[6])]
        self.env = child_env()
        self.child_rss_kib = 0
        self._since_sample = 0

    def _argv(self, op: Op) -> list[str]:
        return [self.config_paths.get(a[1:], a) if a.startswith("@") else a
                for a in op.inp["argv"]]

    # -- timed part --------------------------------------------------------
    def run(self, op: Op, tr) -> Result:
        argv = self._argv(op)
        with tr.span("cli", "process." + op.kind):
            code, out, err, rss = spawn([PYTHON, "-c", MAIN, *argv], self.env)
        self.child_rss_kib = max(self.child_rss_kib, rss)
        return Result((code, out, err), argv)

    def between_ops(self, tr) -> None:
        if tr.enabled:
            self._since_sample += 1
            if self._since_sample % SAMPLE_EVERY == 0:
                self.sample(tr)

    def sample(self, tr) -> None:
        """Start-up samples: a bare interpreter, the import of bundlecalc.cli,
        and in-process build_parser and load_config calls."""
        for name, code in (("interpreter", "pass"), ("import", "import bundlecalc.cli")):
            t0 = time.perf_counter()
            exit_code, _, err, _ = spawn([PYTHON, "-c", code], self.env)
            tr.sample("cli." + name, time.perf_counter() - t0)
            if exit_code != 0:
                raise Failure(f"start-up sample {name} exited {exit_code}: {err[-300:]}", "cli")
        t0 = time.perf_counter()
        cli.build_parser()
        tr.sample("cli.build_parser", time.perf_counter() - t0)
        t0 = time.perf_counter()
        config.load_config(self.config_paths["weisfeiler"])
        tr.sample("config.load_config", time.perf_counter() - t0)

    def peak_rss_kib(self) -> int:
        return self.child_rss_kib

    # -- checks, untimed -----------------------------------------------------
    def check(self, op: Op, res: Result) -> None:
        code, out, err = res.out
        argv = res.detail
        if "Traceback" in err or code == 1:
            raise Failure(f"exit {code}: {err.strip()[-300:]}", traceback_module(err))
        if "exit" in op.inp:
            check(code == op.inp["exit"] and out == "", f"exit {code}, expected {op.inp['exit']}")
            check(json.loads(err)["error"] == op.inp["error"], f"error {err.strip()[:200]}")
            return
        check(code == 0 and err == "", f"exit {code}: {err.strip()[:300]}")
        if "stdout" in op.inp:
            check(out == op.inp["stdout"], f"README output {out.strip()[:200]}")
        check((code, out) == _inprocess(argv)[:2], "differs from in-process cli.main")
