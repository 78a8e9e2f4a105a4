"""End-to-end provenance summarization (Sec. 4's four phases).

``summarize`` runs, per rule of the UCQ¬< question:

1. **capture/sampling** — why: instrumented evaluation (+ a cut to n_S
   ordered by a seeded hash of each row); why-not: the batch sampling pipeline of Sec. 5 (or the FULL
   enumeration when ``use_full``);
2. **pattern generation** — the LCA generalization of all sample pairs
   (Sec. 6);
3. **metric estimation** — match counting over the sample (Sec. 7);
4. **top-k construction** — driver-side best-first search (Sec. 8.2),
   scored exactly over the collected sample (see ``topk.py``).

Phase 1 runs the data-sized work per rule in Spark (why capture; the
why-not domains, Q_der and goal annotation, with Q_bind drawn on the
driver, see ``repro.sampling.whynot``), and the sample (at most n_S rows)
is collected to the driver exactly once. Phases 2–3 then run on the driver
over that collected sample with the NumPy kernel of
``repro.patterns.kernel`` instead of the paper's Q_lca / Q_match SQL;
the same kernel gives the top-k search its match bitsets, so
completeness is computed one way only.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.ast import Program
from repro.core.unify import WHY, WHYNOT, PQuestion, UnifiedRule
from repro.engine.catalog import Catalog
from repro.patterns.kernel import lca, match_counts
from repro.patterns.pattern import Pattern
from repro.provenance.annotate import goal_column_names
from repro.provenance.why import why_provenance
from repro.provenance.whynot_full import whynot_full
from repro.sampling.whynot import RuleSample, sample_whynot
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
    df: DataFrame, unified: UnifiedRule
) -> list[tuple[tuple, tuple[bool, ...]]]:
    var_cols = [v.name for v in unified.unbound]
    goal_cols = goal_column_names(unified.n_goals)
    return [
        (tuple(r[v] for v in var_cols), tuple(bool(r[g]) for g in goal_cols))
        for r in df.collect()
    ]


@dataclass
class _Captured:
    """Phase 1's output for one rule: its collected sample rows, its raw
    weight (the rule's (estimated) share of |PROV(Φ)| before
    normalization), and the sampler's statistics for sampled why-not."""

    unified: UnifiedRule
    rows: list[tuple[tuple, tuple[bool, ...]]]
    raw_weight: float
    sampled: RuleSample | None = None


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
) -> list[_Captured]:
    """Phase 1: per rule, the sample collected to the driver once.

    Raw weights are exact derivation counts for why / FULL why-not and
    estimated why-not sizes for sampled why-not.
    """
    out: list[_Captured] = []
    if question.qtype == WHY:
        for u, df in why_provenance(catalog, program, question.ptuple):
            df = df.persist()
            full = df.count()
            if full > 0:
                # cut by a hash of the seed and the row, the row itself
                # breaking ties: independent of the partition layout
                cut = F.xxhash64(F.lit(seed), *df.columns)
                sample = (
                    df.orderBy(cut, *df.columns).limit(n_s) if full > n_s
                    else df
                )
                out.append(_Captured(u, _collect_rows(sample, u), float(full)))
            df.unpersist()
        return out
    if use_full:
        for u, df in whynot_full(
            catalog, program, question.ptuple, domains, max_full_derivations
        ):
            rows = _collect_rows(df, u)
            out.append(_Captured(u, rows, float(len(rows))))
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
        rows = _collect_rows(rs.sample, rs.unified)
        out.append(_Captured(rs.unified, rows, float(rs.est_whynot_size), rs))
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


def _rule_stats(c: _Captured, n_candidates: int, weight: float) -> dict:
    """One rule's entry of ``Summary.per_rule``; the sampler's statistics,
    and ``shortfall`` (requested minus delivered rows), are ``None``
    unless the rule's why-not provenance was sampled."""
    rs = c.sampled
    return {
        "rule_id": c.unified.rule_id,
        "n_sample": len(c.rows),  # delivered rows (requested: n_s)
        "n_candidates": n_candidates,
        "weight": weight,
        "n_os": rs.n_os if rs else None,
        "p_prov": rs.p_prov if rs else None,
        "est_whynot_size": rs.est_whynot_size if rs else None,
        "shortfall": max(0, rs.n_s - len(c.rows)) if rs else None,
    }


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

    # --- phase 1: capture / sampling, collected to the driver ---
    t0 = time.perf_counter()
    captured = [
        c for c in _capture(
            catalog, program, question, n_s, p_success, seed, domains,
            use_full, max_n_os, max_full_derivations,
        )
        if c.rows
    ]
    timings["sample"] = time.perf_counter() - t0

    store = SampleStore()
    if not captured:
        timings["pattern_gen"] = timings["metrics"] = 0.0
        return PatternInputs([], store, 0, timings, [])

    total_weight = sum(c.raw_weight for c in captured)
    weights = [
        c.raw_weight / total_weight if total_weight > 0 else 1.0 / len(captured)
        for c in captured
    ]

    # --- phase 2: pattern candidate generation (LCA) ---
    t0 = time.perf_counter()
    candidates = []
    for c, weight in zip(captured, weights):
        store.add_rule(c.unified.rule_id, c.rows, weight)
        candidates.append(lca(store.rules[c.unified.rule_id].coded.table))
    timings["pattern_gen"] = time.perf_counter() - t0

    # --- phase 3: metric estimation (match counting) ---
    t0 = time.perf_counter()
    all_patterns: list[Pattern] = []
    for c, weight, cands in zip(captured, weights, candidates):
        coded = store.rules[c.unified.rule_id].coded
        counts = match_counts(cands, coded.table)
        var_names = tuple(v.name for v in c.unified.unbound)
        n = len(c.rows)
        for row, count in zip(cands.tolist(), counts.tolist()):
            args, goals = coded.decode(row)
            all_patterns.append(Pattern(
                rule_id=c.unified.rule_id,
                var_names=var_names,
                args=args,
                goals=goals,
                cp=weight * count / n,
                count=count,
            ))
    timings["metrics"] = time.perf_counter() - t0

    return PatternInputs(
        patterns=all_patterns,
        store=store,
        n_candidates=sum(len(cands) for cands in candidates),
        timings=timings,
        per_rule=[
            _rule_stats(c, len(cands), weight)
            for c, weight, cands in zip(captured, weights, candidates)
        ],
    )


def _cap_order(p: Pattern) -> tuple:
    """Singleton score descending, then a total order on the pattern itself
    (rule, goals, args with placeholders first), so the cap does not
    depend on the order the candidates were generated in."""
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
