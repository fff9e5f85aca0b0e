"""Per-module metrics of a traced run, from its spans, samples and counts.

A `_ms`/`_us` metric is the mean per call; a `_s` metric is the total busy
time of the traced ops. Counts marked in COMPUTED are derived from results
(for example closure products = order x |generators|), not counted inside
the program.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from harness import quantile, self_times

MODULES = ("cli", "config", "fields", "matrices", "groups", "grouptables", "chern",
           "bounds", "hn", "serre", "encoding")
CLI_GROUPS = ("chern", "bounds", "hn", "serre", "hol")
COMPUTED = ("fields.make_field.calls", "groups.closure.products", "groups.closure.elements",
            "grouptables.table.cells", "chern.sym_power.n_sum", "encoding.digits_out")
CHERN_BASIC = ("direct_sum", "tensor", "dual", "slope", "discriminant", "secondary_slope")
FUNCTORS = ("sym_matrix", "wedge_matrix", "dual_matrix", "kronecker")


def _median(xs) -> float:
    return statistics.median(xs) if xs else 0.0


def _mean(xs) -> float:
    return sum(xs) / len(xs) if xs else 0.0


def layer_metrics(spans, samples, counts, failed_by_module, overhead) -> dict:
    """Every per-layer metric; `overhead` is (untraced, traced) ops per second
    over the same ops."""
    durs = defaultdict(list)  # (module, name) -> durations
    for s in spans:
        durs[s[0], s[1]].append(s[3] - s[2])

    def d(module, *names):
        return [x for n in names for x in durs[module, n]]

    def d_prefix(module, prefix=""):
        return [x for (m, n), xs in durs.items() if m == module and n.startswith(prefix)
                for x in xs]

    m = {}
    interp = _median(samples["cli.interpreter"])
    imp = _median(samples["cli.import"])
    process = d_prefix("cli", "process.")
    m["cli.interpreter_ms"] = interp * 1e3
    m["cli.import_ms"] = (imp - interp) * 1e3
    m["cli.command_ms"] = (_median(process) - imp) * 1e3
    m["cli.build_parser_ms"] = _median(samples["cli.build_parser"]) * 1e3
    for g in CLI_GROUPS:
        xs = d("cli", "process." + g)
        m[f"cli.{g}.latency_p50_ms"] = (quantile(xs, 0.5) if xs else 0.0) * 1e3
    m["config.load_config_ms"] = _median(samples["config.load_config"]) * 1e3

    m["fields.make_field_ms"] = _mean(d("fields", "make_field")) * 1e3
    m["fields.make_field.calls"] = counts["fields.make_field.calls"]

    closure_s = sum(d("groups", "closure"))
    products = counts["groups.closure.products"]
    m["matrices.ns_per_product"] = closure_s / products * 1e9 if products else 0.0
    m["matrices.parse_ms"] = _mean(d("matrices", "parse")) * 1e3
    m["matrices.functor_ms"] = _mean(d("matrices", *FUNCTORS)) * 1e3
    m["groups.closure_s"] = closure_s
    m["groups.closure.products"] = products
    m["groups.closure.elements"] = counts["groups.closure.elements"]
    m["groups.burnside_ms"] = _mean(d("groups", "burnside_irreducible")) * 1e3
    outputs = counts["groups.assoc.outputs"]
    m["groups.assoc.wasted_ratio"] = counts["groups.assoc.wasted"] / outputs if outputs else 0.0

    table_s = sum(d("grouptables", "table_from_matrix_group"))
    cells = counts["grouptables.table.cells"]
    m["grouptables.table_s"] = table_s
    m["grouptables.table.cells"] = cells
    m["grouptables.ns_per_cell"] = table_s / cells * 1e9 if cells else 0.0
    m["grouptables.jordan_verify_ms"] = _mean(d("grouptables", "jordan_verify")) * 1e3

    m["chern.sym_power_s"] = sum(d("chern", "sym_power"))
    m["chern.sym_power.n_sum"] = counts["chern.sym_power.n_sum"]
    m["chern.wedge_power_ms"] = _mean(d("chern", "wedge_power")) * 1e3
    m["chern.basic_us"] = _mean(d("chern", *CHERN_BASIC)) * 1e6

    m["bounds.schur_s"] = sum(d("bounds", "jordan_constant.schur"))
    m["bounds.weisfeiler_ms"] = _mean(d("bounds", "jordan_constant.weisfeiler")) * 1e3
    m["bounds.ell_ms"] = _mean(d("bounds", "ell_bound")) * 1e3
    m["bounds.langer_us"] = _mean(d("bounds", "langer_index")) * 1e6
    m["hn.predicate_us"] = _mean(d_prefix("hn")) * 1e6
    m["serre.plan_us"] = _mean(d_prefix("serre")) * 1e6

    m["encoding.render_ms"] = _mean(d("encoding", "render")) * 1e3
    m["encoding.parse_us"] = _mean(d("encoding", "parse")) * 1e6
    m["encoding.digits_out"] = counts["encoding.digits_out"]

    # self time: a span's duration minus its children's; the op root spans
    # are the "bench" layer, so the self times add up to the traced op time
    own = defaultdict(float)
    for s, t in zip(spans, self_times(spans)):
        own[s[0]] += t
    op_s = sum(s[3] - s[2] for s in spans if s[4] < 0)
    for mod in MODULES:
        if mod != "config":  # config runs only in children and start-up samples
            m[f"{mod}.self_s"] = own[mod]
        m[f"{mod}.failed"] = failed_by_module[mod]
    m["bench.self_s"] = own["bench"]
    m["trace.op_s"] = op_s
    m["trace.module_share"] = (op_s - own["bench"]) / op_s if op_s else 0.0
    untraced, traced = overhead
    m["trace.untraced_ops_per_s"] = untraced
    m["trace.traced_ops_per_s"] = traced
    m["trace.overhead_pct"] = (untraced - traced) / untraced * 100 if untraced else 0.0
    return m
