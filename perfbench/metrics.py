"""Names, units and expected effects of every metric the benchmark prints.

``BENCHMARK.json`` lists the same names and units; ``selftest.py`` checks
that the two agree. The per-layer table also records which end-to-end
metric each layer metric should move, and on which workloads, because
``BENCHMARK.json`` has no field for that.
"""
from __future__ import annotations

from dataclasses import dataclass

WHYNOT_R1 = "whynot_r1"
WHY_R1 = "why_r1"
WHYNOT_CHAIN6 = "whynot_chain6"
WHYNOT = (WHYNOT_R1, WHYNOT_CHAIN6)
ALL = (WHYNOT_R1, WHY_R1, WHYNOT_CHAIN6)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    # end-to-end metric this layer metric should move, and where
    moves: tuple[str, ...] = ()
    on: tuple[str, ...] = ()


END_TO_END = (
    Metric("summarize_s", "s", "lower"),
    Metric("setup_s", "s", "lower"),
    Metric("summary_score", "score", "higher"),
    Metric("py_peak_rss_mb", "MB", "lower"),
)

_S = ("summarize_s",)
_SCORE_FAIL = ("summary_score", "failed_frac")
_SAMPLER = (WHYNOT_CHAIN6, WHYNOT_R1)
_PATTERNS = (WHY_R1, WHYNOT_R1)


def _layer(prefix: str, fields: dict[str, str], moves, on) -> list[Metric]:
    better = {"rows": "lower", "values": "lower", "pops": "lower",
              "patterns_in": "lower", "keep_frac": "higher",
              "distinct_frac": "higher", "proved_optimal": "higher"}
    return [
        Metric(f"{prefix}.{f}", unit, better.get(f, "lower"), moves, on)
        for f, unit in fields.items()
    ]


PER_LAYER = tuple(
    # the replayed phases: 1 (capture or sampling) and 2-3 (LCA + match)
    _layer("pipeline.sample", {"s": "s", "jobs": "count"}, _S, ALL)
    + _layer("pipeline.patterns", {"s": "s", "jobs": "count"}, _S, ALL)
    # Q(D): recomputed by the sigma_t count and by Q_der; unused by why.
    + _layer("engine.evaluate", {"s": "s", "jobs": "count", "rows": "rows"},
           _S, WHYNOT)
    # why capture: one instrumented join
    + _layer("provenance.why_provenance",
             {"s": "s", "jobs": "count", "rows": "rows"}, _S, (WHY_R1,))
    # sampler steps, summed over variables (13 on chain6, 5 on r1, 0 on why)
    + _layer("provenance.variable_domain",
             {"s": "s", "jobs": "count", "values": "values"}, _S, _SAMPLER)
    + _layer("sampling.sample_with_replacement", {"s": "s", "jobs": "count"},
             _S, _SAMPLER)
    + _layer("sampling.sigma_t_count", {"s": "s", "jobs": "count"},
             _S, WHYNOT)
    + _layer("sampling.q_bind", {"s": "s", "jobs": "count", "rows": "rows"},
             _S, WHYNOT)
    + _layer("provenance.anti_join_existing",
             {"s": "s", "jobs": "count", "keep_frac": "frac"}, _S, WHYNOT)
    + _layer("provenance.annotate_goals",
             {"s": "s", "jobs": "count", "distinct_frac": "frac"}, _S, WHYNOT)
    + _layer("sampling.cut", {"s": "s", "jobs": "count"}, _S, ALL)
    # the whole sampler as one call; its gap to the sum of the steps above
    # is work the steps do not need, such as domains counted twice
    + _layer("sampling.sample_whynot", {"s": "s", "jobs": "count"},
             _S, WHYNOT)
    + [
        Metric("sampling.n_os", "rows", "lower", _SCORE_FAIL, WHYNOT),
        Metric("sampling.p_prov", "frac", "higher", _SCORE_FAIL, WHYNOT),
        Metric("sampling.delivered_frac", "frac", "higher", _SCORE_FAIL,
               WHYNOT),
    ]
    # phases 2-3 scale with the sample, not the data: near zero on chain6
    + _layer("patterns.lca_candidates",
             {"s": "s", "jobs": "count", "rows": "rows"}, _S, _PATTERNS)
    + _layer("patterns.match_counts", {"s": "s", "jobs": "count"},
             _S, _PATTERNS)
    + _layer("summarize.sample_store", {"s": "s", "jobs": "count"}, _S, _PATTERNS)
    + _layer("summarize.select_topk",
             {"s": "s", "jobs": "count", "pops": "count",
              "proved_optimal": "frac",
              "patterns_in": "count"},
             ("summarize_s", "summary_score"), _PATTERNS)
    + [
        Metric("pipeline.summarize.jobs", "count", "lower", _S,
               (WHYNOT_CHAIN6, WHYNOT_R1, WHY_R1)),
        Metric("pipeline.trace_overhead_s", "s", "lower", (), ALL),
        # failures are also in the result line's ``failed``/``attempted``;
        # the end-to-end set holds only metrics that are never 0
        Metric("failed_frac", "frac", "lower", (), ALL),
        # VmHWM of the Spark JVM over the whole traced run. Too unsteady
        # for a bound (G1 grows the heap in steps): 2.9-3.7 GB on whynot_r1
        # across seeds, 3.2-4.9 GB on whynot_chain6.
        Metric("jvm_peak_rss_mb", "MB", "lower", (), ALL),
    ]
)
