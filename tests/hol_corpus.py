"""A seeded corpus of `hol` commands, pinned with their outputs.

``tests/data/hol_corpus.json`` holds, for each case, the argv, an optional
config object and the exit code, stdout and stderr the CLI produced when
the file was written; ``tests/test_hol_corpus.py`` replays every case and
asserts the three are byte-identical.  The corpus covers ``hol holonomy``
with and without ``--target-sl2`` over F_p (p <= 13) and F_q
(q in {4, 8, 9, 16, 25}), ``hol sl2`` for every q <= 81, ``hol
jordan-verify`` on the acceptance suite's Jordan groups, and the closure
and order caps.

Regenerate (only when an output change is intended) with

    PYTHONPATH=src python tests/hol_corpus.py
"""

from __future__ import annotations

import io
import json
import os
import random
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from bundlecalc.cli import main
from bundlecalc.fields import make_field
from bundlecalc.matrices import FqMatrix

FIXTURE = Path(__file__).with_name("data") / "hol_corpus.json"

HOLONOMY_Q = [(2, 1), (3, 1), (5, 1), (7, 1), (11, 1), (13, 1),
              (2, 2), (2, 3), (3, 2), (2, 4), (5, 2)]
SL2_Q = [(p, e) for p in range(2, 82) if all(p % d for d in range(2, p))
         for e in range(1, 7) if p ** e <= 81]
# the Jordan groups of the acceptance suite, with their degree r
JORDAN_GROUPS = [
    (7, [[[0, 1], [1, 0]], [[0, -1], [1, -1]]], 2),
    (3, [[[0, -1], [1, 0]], [[1, 0], [0, -1]]], 2),
    (3, [[[0, -1], [1, 0]], [[1, 1], [1, -1]]], 2),
    (5, [[[1, 0, 0], [0, -1, 0], [0, 0, -1]], [[0, 0, 1], [1, 0, 0], [0, 1, 0]]], 3),
    (5, [[[0, -1, 0], [1, 0, 0], [0, 0, 1]], [[0, 0, 1], [1, 0, 0], [0, 1, 0]]], 3),
    (2, [[[1, 1], [0, 1]], [[1, 0], [1, 1]]], 2),
    (3, [[[1, 1], [0, 1]], [[1, 0], [1, 1]]], 2),
]


def _wire(field, rows) -> list:
    """Entry indices as the CLI's wire format: ints over F_p, coefficient
    vectors over a proper extension."""
    if field.e == 1:
        return [[field.coeffs(x)[0] for x in row] for row in rows]
    return [[list(field.coeffs(x)) for x in row] for row in rows]


def _random_matrix(rng, f, n, det_one=False, upper=False):
    while True:
        m = [[0 if upper and j < i else rng.randrange(f.q) for j in range(n)] for i in range(n)]
        d = FqMatrix(f, m).det()
        if d != f.zero and (not det_one or d == f.one):
            return m


def _holonomy_images(rng, f) -> list[list]:
    one, zero = f.one, f.zero
    # x over a proper extension, -1 over F_p (1 over F_2)
    x = f.index([0, 1] + [0] * (f.e - 2)) if f.e > 1 else f.from_int(f.p - 1 if f.p > 2 else 1)
    return [
        [_random_matrix(rng, f, 2, det_one=True) for _ in range(2)],
        [_random_matrix(rng, f, 2, det_one=True)],
        [_random_matrix(rng, f, 2) for _ in range(2)],
        [_random_matrix(rng, f, 2, upper=True) for _ in range(2)],
        [[[one, one], [zero, one]], [[one, zero], [one, one]]],  # SL(2, F_p)
        [[[x, zero], [zero, one]], [[zero, one], [one, zero]]],  # monomial
        [[[one, zero], [zero, one]]] * 2,
        [_random_matrix(rng, f, 2, det_one=True) for _ in range(3)],
    ]


def cases() -> list[dict]:
    out = []
    for p, e in HOLONOMY_Q:
        f = make_field(p, e)
        rng = random.Random(f"hol-corpus/{p}/{e}")
        for images in _holonomy_images(rng, f):
            argv = ["hol", "holonomy", "--p", str(p), "--e", str(e),
                    "--images", json.dumps([_wire(f, m) for m in images])]
            out.append({"argv": argv})
            out.append({"argv": argv + ["--target-sl2"]})
        # a 3x3 image never equals the 2x2 target: random over F_2 and F_3,
        # a cyclic permutation matrix elsewhere
        if f.q <= 3:
            images3 = [_random_matrix(rng, f, 3) for _ in range(2)]
        else:
            images3 = [[[f.one if i == (j + 1) % 3 else 0 for j in range(3)] for i in range(3)]]
        out.append({"argv": ["hol", "holonomy", "--p", str(p), "--e", str(e), "--target-sl2",
                             "--images", json.dumps([_wire(f, m) for m in images3])]})
    out.append({"argv": ["hol", "holonomy", "--p", "3", "--output", "table", "--target-sl2",
                         "--images", "[[[1, 1], [0, 1]], [[1, 0], [1, 1]]]"]})
    out.append({"argv": ["hol", "holonomy", "--p", "3",
                         "--images", "[[[1, 1], [1, 1]]]"]})  # singular: a domain error
    rng = random.Random("hol-corpus/gl3-7")
    f = make_field(7, 1)
    out.append({"argv": ["hol", "holonomy", "--p", "7", "--images",
                         json.dumps([_random_matrix(rng, f, 3) for _ in range(2)])]})
    for p, e in SL2_Q:
        out.append({"argv": ["hol", "sl2", "--p", str(p), "--e", str(e)]})
    for cap in (100, 335, 336):
        out.append({"argv": ["hol", "sl2", "--p", "7"], "config": {"caps": {"closure": cap}}})
    out.append({"argv": ["hol", "holonomy", "--p", "5", "--images",
                         "[[[1, 1], [0, 1]], [[1, 0], [1, 1]]]"],
                "config": {"caps": {"closure": 119}}})
    for p, gens, r in JORDAN_GROUPS:
        out.append({"argv": ["hol", "jordan-verify", "--p", str(p), "--gens", json.dumps(gens),
                             "--r", str(r), "--mode", "schur"]})
    out.append({"argv": ["hol", "jordan-verify", "--p", "5", "--r", "2", "--j", "100", "--gens",
                         "[[[1, 1], [0, 1]], [[0, 1], [1, 0]], [[2, 0], [0, 1]]]"]})
    return out


def run_case(case: dict) -> dict:
    """Exit code, stdout and stderr of one case, run through ``cli.main``."""
    argv = list(case["argv"])
    with tempfile.TemporaryDirectory() as tmp:
        if "config" in case:
            path = os.path.join(tmp, "config.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(case["config"], fh)
            argv += ["--config", path]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


if __name__ == "__main__":
    corpus = []
    for case in cases():
        corpus.append({**case, **run_case(case)})
        print(corpus[-1]["code"], " ".join(case["argv"][:6]), file=sys.stderr)
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n", encoding="utf-8")
