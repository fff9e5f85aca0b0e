"""Benchmark self-test, run by `python3 bench/run.py --selftest`.

A tiny run of each workload (its warm-up ops as the only round) must emit
every metric BENCHMARK.json names, with its unit, and fail no op. Then, for
every warm-up op, the check must pass on the real output and flag the same
output with one value corrupted, and on cli_oneshot it must flag a
corrupted README pin. Last, an expected order-cap error must pass only for
a group of the known order.
"""

from __future__ import annotations

import json
from dataclasses import replace

from harness import ROOT, Tracer, classify


def corrupt(x):
    """A copy of a decoded JSON value with its first leaf changed."""
    if isinstance(x, dict) and x:
        k = sorted(x)[0]
        return {**x, k: corrupt(x[k])}
    if isinstance(x, list) and x:
        return [corrupt(x[0])] + x[1:]
    if isinstance(x, bool):
        return not x
    if isinstance(x, int):
        return x + 1
    return "1" if x is None else x + "1"


def _corrupted_output(out):
    if isinstance(out, tuple):  # a child's (exit, stdout, stderr)
        code, stdout, stderr = out
        return code, stdout.rstrip("\n") + "1\n", stderr
    return json.dumps(corrupt(json.loads(out)), sort_keys=True)


def _cap_error_checks(setup) -> list[str]:
    import wl_holonomy

    wl, _, _ = setup("holonomy", 1, rounds=1)
    label, p, gens, order = next(g for g in wl_holonomy.JORDAN_GROUPS
                                 if g[3] > wl_holonomy.JORDAN_ORDER_CAP)
    problems = []
    for claimed in (order, order + 1):
        op = wl_holonomy._jordan_op(label, p, gens, claimed)
        try:
            wl.run(op, Tracer())
            fail = classify(wl, op, None, None)
        except Exception as exc:
            fail = classify(wl, op, None, exc)
        if (fail is None) != (claimed == order):
            problems.append(f"holonomy {label} cap error with claimed order {claimed}: {fail}")
    return problems


def selftest(run, setup, workloads) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for name in workloads:
        for trace in (0, 1):
            res = run(name, 1, 0.0, bool(trace), tiny=True)
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != wanted[trace]:
                diff = set(got.items()) ^ set(wanted[trace].items())
                problems.append(f"{name} trace={trace}: metrics differ from BENCHMARK.json: "
                                f"{sorted(diff)}")
            if res["failed"] or not res["attempted"]:
                problems.append(f"{name} trace={trace}: {res['failed']} of {res['attempted']} "
                                f"valid ops failed")
            if trace == 0 and res["metrics"]["ok_rate"]["value"] != 1.0:
                problems.append(f"{name}: ok_rate {res['metrics']['ok_rate']['value']} != 1")
        wl, _, _ = setup(name, 1, rounds=1)
        for op in wl.warmup:
            out = wl.run(op, Tracer())
            if classify(wl, op, out, None) is not None:
                problems.append(f"{name} {op.kind}: check fails on the real output")
            out.out = _corrupted_output(out.out)
            if classify(wl, op, out, None) is None:
                problems.append(f"{name} {op.kind}: check missed a corrupted output")
            if "stdout" in op.inp:
                pin = replace(op, inp={**op.inp, "stdout": op.inp["stdout"].replace('"', "'", 1)})
                if classify(wl, pin, wl.run(pin, Tracer()), None) is None:
                    problems.append(f"{name} {op.kind}: check missed a corrupted README pin")
        print(f"selftest {name}: {len(wl.warmup)} op kinds checked", flush=True)
    problems += _cap_error_checks(setup)
    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0
