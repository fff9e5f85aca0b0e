"""The bundlecalc benchmark.

    python3 bench/run.py --workload cli_oneshot|holonomy|numerology|all \
        --seed N --seconds S --trace 0|1
    python3 bench/run.py --selftest

Each workload is a closed loop with one client. A run sets up (imports,
generates a few rounds of inputs from the seed, runs one warm-up op per op
kind), then cycles through those rounds until the ops have taken --seconds,
checking every output outside the timed region. Timings come from each
distinct op's fastest repetition. The last line of stdout is one JSON object
with `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with --trace 0, the per-module metrics with --trace 1. A run record and, for
traced runs, the spans go to .bench_out/ at the root of the checkout.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import replace

from harness import OUT, PKG, PYTHON, ROOT, SPAN_FIELDS, SRC, Tally, Tracer, \
    pin_quietest_cpu, quantile, run_one, timed_phase

WORKLOADS = {"cli_oneshot": "wl_cli", "holonomy": "wl_holonomy", "numerology": "wl_numerology"}
SETUP_SAMPLES = 15  # set-ups per run, one here and the rest in child processes
SETUP_TIMEOUT_S = 120
MAX_LISTED_FAILURES = 50
# Workloads pinned to the quietest CPU before set-up and every round. The
# cli_oneshot children are left to the scheduler: pinned, its run-to-run
# spread of ops_per_s grew from 2% to 8% on a 2-vCPU VM.
PINNED = ("holonomy", "numerology")
MAX_PROBES = 4  # known-defect inputs run per run; each Schur probe takes about 0.5 s

E2E_UNITS = {"ops_per_s": "1/s", "latency_p50_ms": "ms", "latency_p90_ms": "ms",
             "ok_rate": "ratio", "setup_s": "s", "peak_rss_mb": "MB"}


def unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name in E2E_UNITS:
        return E2E_UNITS[name]
    for suffix, u in (("_ops_per_s", "1/s"), ("_pct", "%"), ("_ms", "ms"), ("_us", "us"),
                      ("_s", "s"), ("_ratio", "ratio"), ("_share", "ratio")):
        if name.endswith(suffix):
            return u
    return "ns" if ".ns_per_" in name else "count"


def setup(name: str, seed: int, rounds: int | None = None):
    """Import, input generation and one warm-up op per op kind. A workload
    module's ROUNDS is how many distinct rounds its seed generates."""
    t0 = time.perf_counter()
    module = importlib.import_module(WORKLOADS[name])
    wl = module.Workload(seed, rounds or module.ROUNDS)
    for i, op in enumerate(op for ops in wl.rounds for op in ops):
        op.index = i
    warm = Tally()
    for op in wl.warmup:
        run_one(wl, op, Tracer(), warm)
    return wl, time.perf_counter() - t0, warm


def setup_in_child(name: str, seed: int) -> float:
    proc = subprocess.run([PYTHON, __file__, "--setup-only", "--workload", name,
                           "--seed", str(seed)], cwd=ROOT, capture_output=True, text=True,
                          timeout=SETUP_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def run_probes(wl, tally: Tally) -> None:
    """The first inputs a known defect hits, run outside timing."""
    for op in [op for ops in wl.probes for op in ops][:MAX_PROBES]:
        run_one(wl, op, Tracer(), tally)


def reference_pass(name: str, seed: int, tr: Tracer, tally: Tally) -> None:
    """One traced warm-up op per op kind of the other workloads, so every
    layer is measured in every traced run."""
    for other in WORKLOADS:
        if other == name:
            continue
        owl, _, _ = setup(other, seed, rounds=1)  # its set-up warms lazy imports
        for op in owl.warmup:
            run_one(owl, op, tr, tally)
        for _ in range(3):
            owl.sample(tr)


def run(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    pin = name in PINNED
    if pin:
        pin_quietest_cpu()  # set-up children inherit the choice
    wl, first_setup, warm = setup(name, seed, rounds=1 if tiny else None)
    if tiny:  # self-test: the warm-up ops are the only round
        wl.rounds = [[replace(op, index=i) for i, op in enumerate(wl.warmup)]]
        wl.probes = [[]]
    setups = [first_setup]
    wanted = 1 if tiny else SETUP_SAMPLES

    def sample_setups(busy: float) -> None:
        """Set-ups in children, spread over the timed phase between ops, so
        that their median sees the host as the ops do."""
        while len(setups) < wanted and busy >= seconds * len(setups) / wanted:
            setups.append(setup_in_child(name, seed))

    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "python": sys.version, "implementation": platform.python_implementation(),
              "platform": platform.platform(), "machine": platform.machine(),
              "nproc": os.cpu_count(), "setup_samples_s": setups,
              "left_out": wl.left_out}
    probes = Tally()
    if not trace:
        tally = timing = Tally()
        rounds = timed_phase(wl, Tracer(), seconds, tally, pin, sample_setups)
        sample_setups(math.inf)
        rss_kib = wl.peak_rss_kib()
        run_probes(wl, probes)
        best = tally.best_latencies()
        metrics = {
            "ops_per_s": len(best) / sum(best),
            "latency_p50_ms": quantile(best, 0.5) * 1e3,
            "latency_p90_ms": quantile(best, 0.9) * 1e3,
            "ok_rate": 1 - len(tally.failures) / tally.attempted,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": rss_kib / 1024,
        }
    else:
        from layers import COMPUTED, layer_metrics

        timing, tally = Tally(), Tally()
        rounds = timed_phase(wl, Tracer(), seconds / 2, timing, pin, sample_setups)
        sample_setups(math.inf)
        tr = Tracer(True)
        timed_phase(wl, tr, seconds / 2, tally, pin)
        same = min(timing.attempted, tally.attempted)  # the same ops, both ways
        overhead = (same / sum(timing.latencies[:same]), same / sum(tally.latencies[:same]))
        reference_from_op = tr.op_id + 1
        reference_pass(name, seed, tr, tally)
        run_probes(wl, probes)
        failed_by_module = (timing.failed_by_module + tally.failed_by_module
                            + probes.failed_by_module)
        metrics = layer_metrics(tr.spans, tr.samples, tally.counts, failed_by_module, overhead)
        tally.latencies = timing.latencies + tally.latencies
        tally.failures = timing.failures + tally.failures
        spans_path = OUT / f"spans-{name}-seed{seed}.json"
        spans_path.write_text(json.dumps({"fields": SPAN_FIELDS, "spans": tr.spans,
                                          "reference_from_op": reference_from_op}))
        record.update(spans_file=str(spans_path.relative_to(ROOT)), computed_counts=COMPUTED,
                      samples={k: v for k, v in tr.samples.items()})
    failures = warm.failures + tally.failures
    attempted, failed = tally.attempted, len(failures)
    shares = {k: t / sum(tally.kind_time.values()) for k, t in tally.kind_time.items()}
    known = probes.attempted + attempted
    record.update(
        rounds_run=rounds, round_ops_per_s=timing.round_rates(), round_ends=timing.round_ends,
        latency_samples=len(tally.latencies), distinct_ops=len(timing.best),
        op_latencies=list(zip(timing.indices, timing.latencies)),
        ops_per_kind=dict(tally.kind_ops), time_share_per_kind=shares,
        error_rate=failed / attempted, failures=failures[:MAX_LISTED_FAILURES],
        known_defects={"ran": probes.attempted, "failed": len(probes.failures),
                       "error_rate_with_them": (failed + len(probes.failures)) / known,
                       "inputs": probes.failures[:MAX_LISTED_FAILURES]},
        metrics=metrics)
    OUT.mkdir(exist_ok=True)
    (OUT / f"run-{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1, default=str))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
            "known_defects": record["known_defects"]}


def summary(name: str, result: dict) -> str:
    lines = [f"{name}: correct={result['correct']} attempted={result['attempted']} "
             f"failed={result['failed']}"]
    for k, v in result["metrics"].items():
        lines.append(f"  {k:34s} {v['value']:>16.6g} {v['unit']}")
    kd = result.get("known_defects")
    if kd and kd["ran"]:
        lines.append(f"  known-defect probes: {kd['failed']} of {kd['ran']} still fail; "
                     f"error rate with them {kd['error_rate_with_them']:.4f}")
    return "\n".join(lines)


def run_all(args) -> int:
    """Each workload in its own process, so each set-up starts cold."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run([PYTHON, __file__, "--workload", name, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)],
                              cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        sys.stderr.write(proc.stderr)
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = v
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=48.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--selftest", action="store_true",
                    help="tiny runs of every workload, plus corrupted-value checks")
    args = ap.parse_args(argv)
    if not (PKG / "__init__.py").is_file():
        sys.stderr.write(f"bundlecalc sources not found under {SRC}; run from a checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    if args.selftest:
        from selftest import selftest
        return selftest(run, setup, WORKLOADS)
    if args.workload is None:
        ap.error("--workload is required")
    if args.setup_only:
        _, seconds, warm = setup(args.workload, args.seed)
        if warm.failures:
            sys.stderr.write(json.dumps(warm.failures) + "\n")
            return 1
        print(json.dumps({"setup_s": seconds}))
        return 0
    if args.workload == "all":
        return run_all(args)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    sys.stderr.write(summary(args.workload, result) + "\n")
    del result["known_defects"]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
