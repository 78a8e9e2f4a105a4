"""Batch sampling of why-not provenance as one Catalyst pipeline (Sec. 5.2).

Per unified rule r_t the pipeline is the paper's three-step query:

1. **Q_X / Q_bind** — per unbound variable, sample n_OS values with
   replacement from its (θ_X-filtered) domain, zip the per-variable
   samples by a natural join on the pick id, filter θ_join predicates.
2. **Q_der** — anti-join with σ_t(Q(D)) to drop derivations of existing
   answers.
3. **Q_sample** — left-outer joins with the body relations to compute
   goal annotations g1…gm, duplicate elimination, and a final uniform
   cut down to n_S derivations.
"""
from __future__ import annotations

from dataclasses import dataclass

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.ast import Program, Var
from repro.core.unify import PTuple, UnifiedRule, unify_program
from repro.engine.catalog import Catalog
from repro.engine.eval import comparison_column, evaluate
from repro.provenance.annotate import (
    annotate_goals,
    anti_join_existing,
    filter_result_to_head,
)
from repro.provenance.whynot_full import split_comparisons, variable_domain
from repro.sampling.ops import sample_with_replacement
from repro.sampling.oversample import (
    comparison_selectivity,
    min_oversample_size,
    p_prov_estimate,
)


@dataclass
class RuleSample:
    """The sample of Whynot(Q, D, t) restricted to one rule, plus the
    statistics needed for reweighting and reporting."""

    unified: UnifiedRule
    sample: DataFrame
    n_s: int
    n_os: int
    p_prov: float
    n_all_derivations: int  # |A(Q, D, t)| for this rule (ignoring θ_join)
    est_whynot_size: float  # estimated |Whynot| share of this rule

    @property
    def rule_id(self) -> str:
        return self.unified.rule_id


def _empty_sample(catalog, unified, dom_dfs):
    """An empty DataFrame with the annotated-derivation schema of the rule."""
    bind = None
    for var in unified.unbound:
        d = dom_dfs[var.name].limit(0)
        bind = d if bind is None else bind.crossJoin(d)
    if bind is None:
        bind = catalog.spark.range(1).drop("id").limit(0)
    return annotate_goals(catalog, unified, bind)


def sample_whynot_rule(
    catalog: Catalog,
    program: Program,
    unified: UnifiedRule,
    n_s: int,
    p_success: float = 0.999,
    seed: int = 0,
    domains: dict[str, DataFrame] | None = None,
    result: DataFrame | None = None,
    max_n_os: int = 5_000_000,
) -> RuleSample:
    """Sample ≤ n_S annotated derivations from Whynot restricted to one rule."""
    if result is None:
        result = evaluate(catalog, program)

    # --- over-sampling size from p_prov (Sec. 5.3) ---
    dom_dfs: dict[str, DataFrame] = {}
    dom_sizes: dict[str, int] = {}
    for var in unified.unbound:
        d = variable_domain(catalog, unified, var, domains)
        dom_dfs[var.name] = d
        dom_sizes[var.name] = d.count()
    sigma = filter_result_to_head(result, unified)
    matching = result.filter(sigma) if sigma is not None else result
    n_existing = matching.count()
    n_all = 1
    for s in dom_sizes.values():
        n_all *= s
    head_has_unbound = any(
        isinstance(a, Var) for a in unified.rule.head.args
    )
    if not head_has_unbound and n_existing > 0:
        # the (single) head this rule can produce exists → Whynot is
        # empty; return an empty (but correctly-schemed) sample
        empty = _empty_sample(catalog, unified, dom_dfs)
        return RuleSample(unified, empty, n_s, 0, 0.0, n_all, 0.0)
    p_prov = p_prov_estimate(unified, n_existing, dom_sizes)
    _, var_var = split_comparisons(unified)
    sel = comparison_selectivity(var_var)
    if n_s / p_prov > max_n_os:
        n_os = max_n_os  # binomial target unreachable within the cap
    else:
        n_os = min_oversample_size(n_s, p_prov, p_success)
    n_os = min(max_n_os, max(n_s, int(n_os / max(sel, 1e-6)) + 1))

    # --- step 1: Q_X per variable, zipped into Q_bind ---
    bind: DataFrame | None = None
    for i, var in enumerate(unified.unbound):
        qx = sample_with_replacement(dom_dfs[var.name], n_os, seed=seed + 7 * i + 1)
        bind = qx if bind is None else bind.join(qx, on="id")
    if bind is None:  # fully bound question: the single empty valuation
        bind = catalog.spark.range(1).drop("id")
    else:
        bind = bind.drop("id")
    for c in var_var:
        bind = bind.filter(comparison_column(c))

    # --- step 2: Q_der — drop derivations of existing answers ---
    der = anti_join_existing(bind, result, unified)

    # --- step 3: Q_sample — goal annotations, set semantics, cut to n_S ---
    annotated = annotate_goals(catalog, unified, der).distinct()
    sample = annotated.orderBy(F.rand(seed + 101)).limit(n_s)

    est = p_prov * n_all * sel
    return RuleSample(
        unified=unified,
        sample=sample,
        n_s=n_s,
        n_os=n_os,
        p_prov=p_prov,
        n_all_derivations=n_all,
        est_whynot_size=est,
    )


def sample_whynot(
    catalog: Catalog,
    program: Program,
    t: PTuple,
    n_s: int,
    p_success: float = 0.999,
    seed: int = 0,
    domains: dict[str, DataFrame] | None = None,
    max_n_os: int = 5_000_000,
) -> list[RuleSample]:
    """Sample Whynot(Q, D, t): per-rule samples for every rule of the UCQ.

    n_OS is determined separately per rule (end of Sec. 5.2); the final
    top-k step merges the per-rule pattern sets.
    """
    result = evaluate(catalog, program)
    samples = []
    for i, u in enumerate(unify_program(program, t)):
        samples.append(
            sample_whynot_rule(
                catalog,
                program,
                u,
                n_s,
                p_success=p_success,
                seed=seed + 1000 * i,
                domains=domains,
                result=result,
                max_n_os=max_n_os,
            )
        )
    return samples
