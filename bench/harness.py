"""Shared pieces of the benchmark: ops and results, seeded input generators,
the span recorder, the closed-loop runner, outcome classification and
subprocess spawning.

Nothing here imports bundlecalc at module level, so that the import cost
lands inside the timed set-up of each workload.
"""

from __future__ import annotations

import os
import re
import resource
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PKG = SRC / "bundlecalc"
OUT = ROOT / ".bench_out"

# A bundlecalc child that runs longer than this is killed and its op fails.
CHILD_TIMEOUT_S = 60.0
# The CPUs this process may use, before any pinning; at most this many are tried.
CPUS = sorted(os.sched_getaffinity(0))[:8] if hasattr(os, "sched_getaffinity") else []
PYTHON = sys.executable or "python3"


@dataclass
class Op:
    """One operation: its kind, its wire-format input and its contract."""

    kind: str
    inp: dict
    module: str  # module a wrong value is charged to
    expect: str | None = None  # documented error code the op must end in
    defect: str | None = None  # known defect the input hits; such ops are probes
    index: int = -1  # which of the seed's distinct ops this is; its repetitions share it


@dataclass
class Result:
    out: object  # what a user sees: rendered JSON, or (exit, stdout, stderr)
    detail: object = None  # library objects the check needs
    counts: dict = field(default_factory=dict)  # work counts computed from the result


class Failure(Exception):
    """Raised by a check: the op violated its contract."""

    def __init__(self, reason: str, module: str | None = None):
        super().__init__(reason)
        self.module = module


def check(cond: bool, reason: str, module: str | None = None) -> None:
    if not cond:
        raise Failure(reason, module)


def bundlecalc_module(path: str) -> str | None:
    """'fields' for .../bundlecalc/fields.py, else None."""
    p = Path(path)
    return p.stem if p.parent.name == "bundlecalc" else None


def raising_module(exc: BaseException) -> str:
    """The innermost bundlecalc module on the exception's traceback."""
    module = "bench"
    tb = exc.__traceback__
    while tb is not None:
        m = bundlecalc_module(tb.tb_frame.f_code.co_filename)
        if m is not None:
            module = m
        tb = tb.tb_next
    return module


_TRACEBACK_FILE = re.compile(r'File "([^"]+)"')


def traceback_module(stderr: str) -> str:
    """The innermost bundlecalc module named in a printed traceback."""
    module = "cli"
    for path in _TRACEBACK_FILE.findall(stderr):
        m = bundlecalc_module(path)
        if m is not None:
            module = m
    return module


# -- seeded inputs, in wire format ---------------------------------------------

def rational(rng, num: int = 40, den: int = 9) -> str:
    """A "p/q" string with |p| <= num and 1 <= q <= den."""
    return str(Fraction(rng.randint(-num, num), rng.randint(1, den)))


def hn_profile(rng, top: Fraction | None = None) -> list:
    """A valid HN profile, [[rank, "degree"], ...] with strictly decreasing slopes."""
    slope = Fraction(rng.randint(-5, 8), rng.randint(1, 4)) if top is None else top
    out = []
    for _ in range(rng.randint(1, 4)):
        rank = rng.randint(1, 4)
        out.append([rank, str(slope * rank)])
        slope -= Fraction(rng.randint(1, 9), rng.randint(1, 4))
    return out


def random_sl2(rng, p: int) -> list:
    """A uniformly random element of SL(2, F_p) as coefficient rows."""
    while True:
        m = [[rng.randrange(p) for _ in range(2)] for _ in range(2)]
        if (m[0][0] * m[1][1] - m[0][1] * m[1][0]) % p == 1:
            return m


class InProcess:
    """What the in-process workloads share: no start-up samples, no checks
    on expected errors beyond their code, and the peak RSS of this process."""

    def between_ops(self, tr) -> None:
        pass

    def check_error(self, op: Op, err: BaseException) -> None:
        pass

    def sample(self, tr) -> None:
        pass

    def peak_rss_kib(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# -- spans -------------------------------------------------------------------

SPAN_FIELDS = ("module", "name", "start", "end", "parent", "op", "raised")
_NULL = nullcontext()


class Tracer:
    """Spans kept in memory: module, name, start, end, parent span index, op
    id and whether the call raised. Disabled, every method is a bare call."""

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self.spans: list[list] = []
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._stack: list[int] = []
        self.op_id = -1  # id of the latest op span

    @contextmanager
    def _span(self, module: str, name: str):
        rec = [module, name, time.perf_counter(), 0.0,
               self._stack[-1] if self._stack else -1, self.op_id, False]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        except BaseException:
            rec[6] = True
            raise
        finally:
            rec[3] = time.perf_counter()
            self._stack.pop()

    def span(self, module: str, name: str):
        return self._span(module, name) if self.enabled else _NULL

    def op(self, kind: str):
        """Root span of one op; its children are the module calls."""
        if not self.enabled:
            return _NULL
        self.op_id += 1
        return self._span("bench", kind)

    def call(self, fn, *args, name: str | None = None):
        """Call a bundlecalc function inside a span named after it."""
        if not self.enabled:
            return fn(*args)
        with self._span(fn.__module__.rpartition(".")[2], name or fn.__qualname__):
            return fn(*args)

    def wrap(self, fn, module: str):
        def wrapped(*args, **kwargs):
            with self._span(module, fn.__name__):
                return fn(*args, **kwargs)
        return wrapped

    def sample(self, name: str, seconds: float) -> None:
        self.samples[name].append(seconds)


@contextmanager
def patched(tr: Tracer, module, names: list[str]):
    """Route a module's own calls to the named functions through spans."""
    if not tr.enabled:
        yield
        return
    saved = {n: getattr(module, n) for n in names}
    for n, fn in saved.items():
        setattr(module, n, tr.wrap(fn, fn.__module__.rpartition(".")[2]))
    try:
        yield
    finally:
        for n, fn in saved.items():
            setattr(module, n, fn)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part its child spans cover."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s[4] >= 0:
            covered[s[4]] += s[3] - s[2]
    return [s[3] - s[2] - c for s, c in zip(spans, covered)]


# -- running ops -------------------------------------------------------------

@dataclass
class Tally:
    latencies: list[float] = field(default_factory=list)
    indices: list[int] = field(default_factory=list)
    best: dict[int, float] = field(default_factory=dict)  # op index -> fastest latency
    kind_time: Counter = field(default_factory=Counter)
    kind_ops: Counter = field(default_factory=Counter)
    counts: Counter = field(default_factory=Counter)
    failures: list[dict] = field(default_factory=list)
    failed_by_module: Counter = field(default_factory=Counter)
    round_ends: list[int] = field(default_factory=list)  # op count at each round's end

    def round_rates(self) -> list[float]:
        """Ops per second of op time, round by round."""
        starts = [0] + self.round_ends[:-1]
        return [(b - a) / sum(self.latencies[a:b]) for a, b in zip(starts, self.round_ends)]

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def best_latencies(self) -> list[float]:
        """Each distinct op's fastest repetition. Other tenants' load on a
        shared host only ever adds time, and it comes and goes within
        seconds; the fastest of an op's repetitions, spread over the run,
        is the least disturbed reading of its cost."""
        return list(self.best.values())


def classify(wl, op: Op, res: Result | None, err: BaseException | None):
    """None when the op met its contract, else (module, reason)."""
    if err is not None:
        if op.expect is None or getattr(err, "code", None) != op.expect \
                or type(err).__module__ != "bundlecalc.errors":
            return raising_module(err), f"{type(err).__name__}: {err}"[:300]
    elif op.expect is not None:
        return op.module, f"expected error {op.expect}, got a result"
    try:
        if err is None:
            wl.check(op, res)
        else:  # the documented error, raised for the right reason
            wl.check_error(op, err)
    except Failure as exc:
        return exc.module or op.module, f"check: {exc}"[:300]
    except Exception as exc:  # a check that crashes is a failed check
        return op.module, f"check raised {type(exc).__name__}: {exc}"[:300]
    return None


def run_one(wl, op: Op, tr: Tracer, tally: Tally) -> float:
    """Run one op timed, then check it untimed; returns its latency."""
    res = err = None
    t0 = time.perf_counter()
    try:
        with tr.op(op.kind):
            res = wl.run(op, tr)
    except Exception as exc:  # any raise is an outcome to classify
        err = exc
    dt = time.perf_counter() - t0
    tally.latencies.append(dt)
    tally.indices.append(op.index)
    tally.best[op.index] = min(dt, tally.best.get(op.index, dt))
    tally.kind_time[op.kind] += dt
    tally.kind_ops[op.kind] += 1
    tally.counts.update(res.counts if res is not None else getattr(err, "counts", {}))
    fail = classify(wl, op, res, err)
    if fail is not None:
        module, reason = fail
        tally.failed_by_module[module] += 1
        tally.failures.append({"kind": op.kind, "input": op.inp, "module": module,
                               "reason": reason, "defect": op.defect})
    return dt


def _spin() -> float:
    t0 = time.perf_counter()
    x = 0
    for i in range(100_000):
        x += i * i
    return time.perf_counter() - t0


def pin_quietest_cpu() -> None:
    """Pin this process to the allowed CPU where a short loop runs fastest.

    On a shared host, another tenant's load can slow one vCPU to half speed
    for minutes. Choosing again before every round keeps most of that out of
    the numbers; children inherit the choice.
    """
    if len(CPUS) < 2:
        return
    speed = {}
    try:
        for cpu in CPUS:
            os.sched_setaffinity(0, {cpu})
            speed[cpu] = min(_spin(), _spin())
        os.sched_setaffinity(0, {min(speed, key=speed.get)})
    except OSError:  # pinning refused: run where the scheduler puts us
        return


def timed_phase(wl, tr: Tracer, seconds: float, tally: Tally, pin: bool,
                after_op=None) -> int:
    """Closed loop, one client: whole rounds, at least one of each of the
    seed's rounds, until the ops have taken `seconds`; returns the number of
    rounds. `after_op(busy)` runs untimed after every op."""
    busy, rounds = 0.0, 0
    while rounds < len(wl.rounds) or busy < seconds:
        if pin:
            pin_quietest_cpu()
        for op in wl.rounds[rounds % len(wl.rounds)]:
            busy += run_one(wl, op, tr, tally)
            wl.between_ops(tr)
            if after_op is not None:
                after_op(busy)
        rounds += 1
        tally.round_ends.append(tally.attempted)
    return rounds


def quantile(values: list[float], q: float) -> float:
    """Linear interpolation between order statistics (inclusive method)."""
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


# -- subprocesses ------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("BUNDLECALC_CONFIG", None)
    return env


def spawn(argv: list[str], env: dict) -> tuple[int, str, str, int]:
    """Run a child to completion: (exit code, stdout, stderr, peak RSS in KiB)."""
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryFile(dir=OUT) as out, tempfile.TemporaryFile(dir=OUT) as err:
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                env=env, cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return (proc.returncode, out.read().decode("utf-8", "replace"),
                err.read().decode("utf-8", "replace"), usage.ru_maxrss)

