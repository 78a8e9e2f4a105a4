"""The traced run: ``summarize()``'s layers called one at a time, timed.

The run calls each module's public function in the order
``pattern_inputs`` and ``sample_whynot_rule`` call them, on the same
inputs and seed, and materialises each output with ``persist()`` +
``count()``, the pipeline's own materialisation points. Each span tags
its Spark jobs with a job group of its own. Nothing under ``src/`` is
instrumented, so the untraced calls run exactly the shipped code.

The sampler also runs once as a whole (``sampling.sample_whynot``); the
gap between it and the sum of its replayed steps is work the steps do
not need, such as domains counted twice.
"""
from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

from pyspark import SparkContext
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.unify import WHY, unify_program
from repro.engine.eval import comparison_column, evaluate
from repro.patterns.lca import lca_candidates, lca_reference
from repro.patterns.matching import collect_patterns, match_counts, match_reference
from repro.provenance.annotate import (
    annotate_goals,
    anti_join_existing,
    filter_result_to_head,
    goal_column_names,
)
from repro.provenance.why import why_provenance
from repro.provenance.whynot_full import split_comparisons, variable_domain
from repro.sampling.ops import sample_with_replacement
from repro.sampling.whynot import sample_whynot
from repro.summarize.metrics import SampleStore
from repro.summarize.pipeline import PatternInputs, select_topk

from metrics import PER_LAYER

#: Top-level spans of the replayed call; their sum is the traced total.
PHASES = ("pipeline.sample", "pipeline.patterns", "summarize.select_topk")
#: Ratio metrics, computed from the summed ``rows_in`` and ``rows``.
_FRACS = {
    "provenance.anti_join_existing": "keep_frac",
    "provenance.annotate_goals": "distinct_frac",
}


def spark_jobs(sc: SparkContext, group: str) -> int:
    """Number of Spark jobs run under job group ``group``.

    The status store is filled by an asynchronous listener and keeps only
    the last ``spark.ui.retainedJobs`` jobs, so the listener bus is
    drained first and a count that may have been cut short is refused.
    Call it right after the group's work ends.
    """
    sc._jsc.sc().listenerBus().waitUntilEmpty()
    n = len(sc.statusTracker().getJobIdsForGroup(group))
    retained = int(sc.getConf().get("spark.ui.retainedJobs", "1000"))
    if n >= retained:
        raise RuntimeError(
            f"{n} jobs in group {group!r} reach spark.ui.retainedJobs="
            f"{retained}; older jobs may have been dropped"
        )
    return n


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    jobs: int = 0  # including the jobs of child spans
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Spans kept in memory; written out by the caller when the run ends."""

    def __init__(self, sc: SparkContext, prefix: str):
        self.sc = sc
        self.prefix = prefix
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        sp = Span(name, 0.0, parent=self._open[-1] if self._open else None)
        self.spans.append(sp)
        self._open.append(idx)
        self.sc.setJobGroup(self._group(idx), name)
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._open.pop()
            sp.jobs += spark_jobs(self.sc, self._group(idx))
            if sp.parent is not None:
                parent = self.spans[sp.parent]
                parent.jobs += sp.jobs
                self.sc.setJobGroup(self._group(sp.parent), parent.name)

    def _group(self, idx: int) -> str:
        return f"{self.prefix}-span-{idx}"

    def to_dicts(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


class Captured(NamedTuple):
    """Phase 1's output for one rule, as ``pattern_inputs`` keeps it."""

    rule: object  # UnifiedRule
    sample: DataFrame
    n_rows: int
    raw_weight: float
    n_os: int = 0
    p_prov: float = 0.0


def _materialise(df: DataFrame) -> tuple[DataFrame, int]:
    df = df.persist()
    return df, df.count()


def _whole_sampler(tr: Tracer, inputs, n_s: int, seed: int) -> list:
    """``sample_whynot`` as one call, materialised as ``pattern_inputs``
    does; its n_OS and p_prov drive the step-by-step replay."""
    q = inputs.question
    with tr.span("sampling.sample_whynot"):
        whole = sample_whynot(inputs.catalog, inputs.program, q.ptuple, n_s,
                              seed=seed)
        for rs in whole:
            rs.sample.persist().count()
    for rs in whole:
        rs.sample.unpersist()
    return whole


def _replay_sampler(tr: Tracer, inputs, n_s: int, seed: int,
                    whole: list) -> list[Captured]:
    """The sampler step by step, as ``sample_whynot_rule`` runs it."""
    cat, prog, t = inputs.catalog, inputs.program, inputs.question.ptuple
    out = []
    with tr.span("engine.evaluate") as sp:
        result, sp.attrs["rows"] = _materialise(evaluate(cat, prog))
    for i, (u, rs) in enumerate(zip(unify_program(prog, t), whole)):
        rule_seed = seed + 1000 * i
        doms = {}
        for var in u.unbound:
            with tr.span("provenance.variable_domain") as sp:
                doms[var.name], sp.attrs["values"] = _materialise(
                    variable_domain(cat, u, var)
                )
        with tr.span("sampling.sigma_t_count"):
            sigma = filter_result_to_head(result, u)
            (result.filter(sigma) if sigma is not None else result).count()
        if rs.n_os == 0:  # the rule's single head exists: nothing to sample
            continue
        bind = None
        for j, var in enumerate(u.unbound):
            with tr.span("sampling.sample_with_replacement"):
                qx, _ = _materialise(sample_with_replacement(
                    doms[var.name], rs.n_os, seed=rule_seed + 7 * j + 1
                ))
            bind = qx if bind is None else bind.join(qx, on="id")
        with tr.span("sampling.q_bind") as sp:
            bind = (
                bind.drop("id") if bind is not None
                else cat.spark.range(1).drop("id")
            )
            for c in split_comparisons(u)[1]:
                bind = bind.filter(comparison_column(c))
            bind, n_bind = _materialise(bind)
            sp.attrs["rows"] = n_bind
        with tr.span("provenance.anti_join_existing") as sp:
            der, n_der = _materialise(anti_join_existing(bind, result, u))
            sp.attrs.update(rows_in=n_bind, rows=n_der)
        with tr.span("provenance.annotate_goals") as sp:
            ann, n_ann = _materialise(annotate_goals(cat, u, der).distinct())
            sp.attrs.update(rows_in=n_der, rows=n_ann)
        with tr.span("sampling.cut") as sp:
            sample, sp.attrs["rows"] = _materialise(
                ann.orderBy(F.rand(rule_seed + 101)).limit(n_s)
            )
        out.append(Captured(u, sample, sp.attrs["rows"], rs.est_whynot_size,
                              rs.n_os, rs.p_prov))
    return out


def _replay_capture(tr: Tracer, inputs, n_s: int,
                    seed: int) -> list[Captured]:
    """Why capture and the uniform cut, as ``pattern_inputs`` runs them."""
    cat, prog, t = inputs.catalog, inputs.program, inputs.question.ptuple
    with tr.span("provenance.why_provenance") as sp:
        rules = [(u, *_materialise(df)) for u, df in why_provenance(cat, prog, t)]
        sp.attrs["rows"] = sum(full for _, _, full in rules)
    out = []
    for u, df, full in rules:
        if full == 0:
            continue
        with tr.span("sampling.cut") as sp:
            cut = df.orderBy(F.rand(seed + 11)).limit(n_s) if full > n_s else df
            sample, sp.attrs["rows"] = _materialise(cut)
        out.append(Captured(u, sample, sp.attrs["rows"], float(full)))
    return out


def traced_run(sc: SparkContext, inputs, n_s: int, k: int, seed: int,
               prefix: str) -> tuple[Tracer, dict, list[str]]:
    """Replay one ``summarize()`` call span by span.

    Returns the tracer, the per-layer metric values it yields, and the
    failures of the checks against ``lca_reference`` / ``match_reference``.
    """
    tr = Tracer(sc, prefix)
    why = inputs.question.qtype == WHY
    whole = None if why else _whole_sampler(tr, inputs, n_s, seed)
    with tr.span("pipeline.sample"):
        if why:
            captured = _replay_capture(tr, inputs, n_s, seed)
        else:
            captured = _replay_sampler(tr, inputs, n_s, seed, whole)
    nonempty = [c for c in captured if c.n_rows > 0]
    total_weight = sum(c.raw_weight for c in nonempty)

    store, patterns, per_rule, n_cand = SampleStore(), [], [], 0
    with tr.span("pipeline.patterns"):
        for u, sample, n_rows, raw_weight, _, _ in nonempty:
            weight = (raw_weight / total_weight if total_weight > 0
                      else 1.0 / len(nonempty))
            var_cols = [v.name for v in u.unbound]
            goal_cols = goal_column_names(u.n_goals)
            with tr.span("patterns.lca_candidates") as sp:
                lca, sp.attrs["rows"] = _materialise(
                    lca_candidates(sample, var_cols, goal_cols)
                )
                n_cand += sp.attrs["rows"]
            with tr.span("patterns.match_counts"):
                ps = collect_patterns(
                    match_counts(lca, sample, var_cols, goal_cols),
                    u.rule_id, var_cols, goal_cols, n_rows, weight=weight,
                )
            with tr.span("summarize.sample_store"):
                rows = [
                    (tuple(r[v] for v in var_cols),
                     tuple(bool(r[g]) for g in goal_cols))
                    for r in sample.collect()
                ]
                store.add_rule(u.rule_id, rows, weight)
            patterns.extend(ps)
            per_rule.append((lca, var_cols, goal_cols, rows, ps))
    with tr.span("summarize.select_topk") as sp:
        res = select_topk(PatternInputs(patterns, store, n_cand, {}, []), k)
        sp.attrs.update(pops=res.pops, proved_optimal=int(res.proved_optimal),
                        patterns_in=len(patterns))

    failures = _reference_checks(per_rule)
    return tr, _layer_values(tr, captured, n_s), failures


def _reference_checks(per_rule) -> list[str]:
    """The Spark LCA candidates and match counts of the traced sample must
    equal the pure-Python references."""
    failures = []
    for lca, var_cols, goal_cols, rows, ps in per_rule:
        got = {
            (tuple(r[v] for v in var_cols), tuple(bool(r[g]) for g in goal_cols))
            for r in lca.collect()
        }
        if got != lca_reference(rows):
            failures.append("lca_candidates differs from lca_reference")
        counts = {(p.args, p.goals): p.count for p in ps}
        if counts != match_reference(list(got), rows):
            failures.append("match_counts differs from match_reference")
    return failures


def _layer_values(tr: Tracer, captured, n_s: int) -> dict[str, float]:
    """Per-layer metric values: spans of one name summed; layers the
    workload does not run read 0. The run-level metrics
    (``pipeline.summarize.jobs``, ...) are left for the caller."""
    sums: dict[str, float] = defaultdict(float)
    for sp in tr.spans:
        sums[f"{sp.name}.s"] += sp.end - sp.start
        sums[f"{sp.name}.jobs"] += sp.jobs
        for key, v in sp.attrs.items():
            sums[f"{sp.name}.{key}"] += v
    for name, frac in _FRACS.items():
        rows_in = sums.pop(f"{name}.rows_in", 0.0)
        rows = sums.pop(f"{name}.rows", 0.0)
        sums[f"{name}.{frac}"] = rows / rows_in if rows_in else 0.0
    n = len(captured)
    sums["sampling.n_os"] = sum(c.n_os for c in captured)
    sums["sampling.p_prov"] = sum(c.p_prov for c in captured) / n if n else 0.0
    sums["sampling.delivered_frac"] = (
        sum(c.n_rows for c in captured) / (n_s * n) if n else 0.0
    )
    sums.pop("sampling.cut.rows", None)
    known = {m.name for m in PER_LAYER}
    unknown = set(sums) - known
    if unknown:
        raise KeyError(f"spans yield metrics missing from metrics.py: {unknown}")
    return {m.name: float(sums.get(m.name, 0.0)) for m in PER_LAYER}


def phase_totals(tr: Tracer) -> dict[str, float]:
    """Seconds of each replayed phase; their sum is the traced total."""
    out = {p: 0.0 for p in PHASES}
    for sp in tr.spans:
        if sp.parent is None and sp.name in out:
            out[sp.name] += sp.end - sp.start
    return out
