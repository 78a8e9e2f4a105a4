"""End-to-end provenance summarization (Sec. 4's four phases).

``summarize`` runs, per rule of the UCQ¬< question:

1. **capture/sampling** — why: instrumented evaluation (+ uniform cut to
   n_S); why-not: the batch sampling pipeline of Sec. 5 (or the FULL
   enumeration when ``use_full``);
2. **pattern generation** — the LCA self-join (Sec. 6);
3. **metric estimation** — match counting over the sample (Sec. 7);
4. **top-k construction** — driver-side best-first search (Sec. 8.2),
   scored exactly over the collected sample (see ``topk.py``).

Phases 1–3 are Catalyst plans; the phase boundaries are materialization
points (persist + count) so the reported per-phase timings measure the
actual work, mirroring the per-phase bars of Figs. 6–7.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.ast import Program
from repro.core.unify import WHY, WHYNOT, PQuestion, UnifiedRule
from repro.engine.catalog import Catalog
from repro.patterns.lca import lca_candidates
from repro.patterns.matching import collect_patterns, match_counts
from repro.patterns.pattern import Pattern
from repro.provenance.annotate import goal_column_names
from repro.provenance.why import why_provenance
from repro.provenance.whynot_full import whynot_full
from repro.sampling.whynot import sample_whynot
from repro.summarize.metrics import SampleStore, harmonic, info_of_set
from repro.summarize.topk import SearchResult, topk_bestfirst

MAX_PATTERNS = 64


@dataclass
class Summary:
    """A top-k provenance summary plus quality metrics and phase timings."""

    question: PQuestion
    k: int
    n_s: int
    patterns: tuple[Pattern, ...]
    n_candidates: int
    completeness: float
    informativeness: float
    score: float
    proved_optimal: bool
    timings: dict[str, float]
    per_rule: list[dict] = field(default_factory=list)
    store: SampleStore = field(default_factory=SampleStore, repr=False)

    def pretty(self) -> str:
        lines = [
            f"top-{self.k} summary for {self.question.qtype} "
            f"{self.question.ptuple.pred}{tuple(a for a in self.question.ptuple.args)}: "
            f"cp={self.completeness:.3f} info={self.informativeness:.3f} "
            f"sc={self.score:.3f}"
        ]
        for p in self.patterns:
            lines.append(f"  [{p.cp:6.3f}] {p.pretty()}")
        return "\n".join(lines)


def _collect_rows(
    df: DataFrame, var_cols: list[str], goal_cols: list[str]
) -> list[tuple[tuple, tuple[bool, ...]]]:
    return [
        (tuple(r[v] for v in var_cols), tuple(bool(r[g]) for g in goal_cols))
        for r in df.collect()
    ]


def _capture(
    catalog: Catalog,
    program: Program,
    question: PQuestion,
    n_s: int,
    p_success: float,
    seed: int,
    domains: dict[str, DataFrame] | None,
    use_full: bool,
    max_n_os: int,
    max_full_derivations: int | None,
) -> list[tuple[UnifiedRule, DataFrame, float]]:
    """Phase 1: per rule, (unified rule, sample DataFrame, raw weight).

    Raw weights are each rule's (estimated) share of |PROV(Φ)| before
    normalization: exact derivation counts for why / FULL why-not,
    estimated why-not sizes for sampled why-not.
    """
    out: list[tuple[UnifiedRule, DataFrame, float]] = []
    if question.qtype == WHY:
        for u, df in why_provenance(catalog, program, question.ptuple):
            df = df.persist()
            full = df.count()
            if full == 0:
                df.unpersist()
                continue
            sample = (
                df.orderBy(F.rand(seed + 11)).limit(n_s) if full > n_s else df
            )
            out.append((u, sample, float(full)))
        return out
    if use_full:
        for u, df in whynot_full(
            catalog, program, question.ptuple, domains, max_full_derivations
        ):
            df = df.persist()
            full = df.count()
            if full == 0:
                df.unpersist()
                continue
            out.append((u, df, float(full)))
        return out
    for rs in sample_whynot(
        catalog,
        program,
        question.ptuple,
        n_s,
        p_success=p_success,
        seed=seed,
        domains=domains,
        max_n_os=max_n_os,
    ):
        out.append((rs.unified, rs.sample, float(rs.est_whynot_size)))
    return out


@dataclass
class PatternInputs:
    """Output of phases 1–3: scored candidate patterns + the driver-side
    sample store, ready for top-k construction (the input of Fig. 8)."""

    patterns: list[Pattern]
    store: SampleStore
    n_candidates: int
    timings: dict[str, float]
    per_rule: list[dict]


def pattern_inputs(
    catalog: Catalog,
    program: Program,
    question: PQuestion,
    n_s: int = 1000,
    p_success: float = 0.999,
    seed: int = 0,
    domains: dict[str, DataFrame] | None = None,
    use_full: bool = False,
    max_n_os: int = 5_000_000,
    max_full_derivations: int | None = 5_000_000,
) -> PatternInputs:
    """Run capture/sampling, LCA candidate generation, and metric
    estimation (phases 1–3 of Sec. 4)."""
    timings: dict[str, float] = {}

    # --- phase 1: capture / sampling ---
    t0 = time.perf_counter()
    captured = _capture(
        catalog, program, question, n_s, p_success, seed, domains,
        use_full, max_n_os, max_full_derivations,
    )
    per_rule_data = []
    for u, sample_df, raw_weight in captured:
        var_cols = [v.name for v in u.unbound]
        goal_cols = goal_column_names(u.n_goals)
        sample_df = sample_df.persist()
        n_rows = sample_df.count()
        if n_rows == 0:
            sample_df.unpersist()
            continue
        per_rule_data.append(
            {
                "unified": u,
                "sample_df": sample_df,
                "var_cols": var_cols,
                "goal_cols": goal_cols,
                "n_rows": n_rows,
                "raw_weight": raw_weight,
            }
        )
    timings["sample"] = time.perf_counter() - t0

    store = SampleStore()
    if not per_rule_data:
        timings["pattern_gen"] = timings["metrics"] = 0.0
        return PatternInputs([], store, 0, timings, [])

    total_weight = sum(d["raw_weight"] for d in per_rule_data)
    for d in per_rule_data:
        d["weight"] = (
            d["raw_weight"] / total_weight if total_weight > 0
            else 1.0 / len(per_rule_data)
        )

    # --- phase 2: pattern candidate generation (LCA) ---
    t0 = time.perf_counter()
    for d in per_rule_data:
        lca_df = lca_candidates(d["sample_df"], d["var_cols"], d["goal_cols"])
        lca_df = lca_df.persist()
        d["lca_df"] = lca_df
        d["n_candidates"] = lca_df.count()
    timings["pattern_gen"] = time.perf_counter() - t0

    # --- phase 3: metric estimation (match counting) ---
    t0 = time.perf_counter()
    all_patterns: list[Pattern] = []
    for d in per_rule_data:
        matched = match_counts(
            d["lca_df"], d["sample_df"], d["var_cols"], d["goal_cols"]
        )
        ps = collect_patterns(
            matched,
            d["unified"].rule_id,
            d["var_cols"],
            d["goal_cols"],
            d["n_rows"],
            weight=d["weight"],
        )
        all_patterns.extend(ps)
        rows = _collect_rows(d["sample_df"], d["var_cols"], d["goal_cols"])
        store.add_rule(d["unified"].rule_id, rows, d["weight"])
    timings["metrics"] = time.perf_counter() - t0

    per_rule_stats = [
        {
            "rule_id": d["unified"].rule_id,
            "n_sample": d["n_rows"],
            "n_candidates": d["n_candidates"],
            "weight": d["weight"],
        }
        for d in per_rule_data
    ]
    for d in per_rule_data:
        d["sample_df"].unpersist()
        d["lca_df"].unpersist()
    return PatternInputs(
        patterns=all_patterns,
        store=store,
        n_candidates=sum(d["n_candidates"] for d in per_rule_data),
        timings=timings,
        per_rule=per_rule_stats,
    )


def _cap_order(p: Pattern) -> tuple:
    """Singleton score descending, then a total order on the pattern itself
    (rule, goals, args with placeholders first), so the cap does not
    depend on the order Spark returned the candidates in."""
    return (
        -harmonic(p.cp, p.info()),
        p.rule_id,
        p.goals,
        tuple((a is not None, a) for a in p.args),
    )


def select_topk(inputs: PatternInputs, k: int) -> SearchResult:
    """Phase 4: prune to the ``MAX_PATTERNS`` strongest candidates by
    singleton score (heuristic cap, see DESIGN.md) and run the best-first
    search."""
    pruned = sorted(inputs.patterns, key=_cap_order)[:MAX_PATTERNS]
    return topk_bestfirst(pruned, k, inputs.store)


def summarize(
    catalog: Catalog,
    program: Program,
    question: PQuestion,
    k: int = 3,
    n_s: int = 1000,
    p_success: float = 0.999,
    seed: int = 0,
    domains: dict[str, DataFrame] | None = None,
    use_full: bool = False,
    max_n_os: int = 5_000_000,
    max_full_derivations: int | None = 5_000_000,
) -> Summary:
    """Compute the top-k provenance summary S(Q, D, Φ, k)."""
    t_start = time.perf_counter()
    inputs = pattern_inputs(
        catalog,
        program,
        question,
        n_s=n_s,
        p_success=p_success,
        seed=seed,
        domains=domains,
        use_full=use_full,
        max_n_os=max_n_os,
        max_full_derivations=max_full_derivations,
    )
    timings = dict(inputs.timings)
    store = inputs.store
    if not inputs.patterns:
        timings["topk"] = 0.0
        timings["total"] = time.perf_counter() - t_start
        return Summary(
            question, k, n_s, (), 0, 0.0, 0.0, 0.0, True, timings,
            inputs.per_rule, store,
        )

    # --- phase 4: top-k construction ---
    t0 = time.perf_counter()
    result = select_topk(inputs, k)
    timings["topk"] = time.perf_counter() - t0

    completeness = store.cp_of_set(result.patterns)
    informativeness = info_of_set(result.patterns)
    timings["total"] = time.perf_counter() - t_start
    return Summary(
        question=question,
        k=k,
        n_s=n_s,
        patterns=result.patterns,
        n_candidates=inputs.n_candidates,
        completeness=completeness,
        informativeness=informativeness,
        score=result.score,
        proved_optimal=result.proved_optimal,
        timings=timings,
        per_rule=inputs.per_rule,
        store=store,
    )


def summarize_why(
    catalog: Catalog, program: Program, ptuple, **kwargs
) -> Summary:
    """Top-k summary of Why(Q, D, t)."""
    return summarize(catalog, program, PQuestion(ptuple, WHY), **kwargs)


def summarize_whynot(
    catalog: Catalog, program: Program, ptuple, **kwargs
) -> Summary:
    """Top-k summary of Whynot(Q, D, t)."""
    return summarize(catalog, program, PQuestion(ptuple, WHYNOT), **kwargs)
