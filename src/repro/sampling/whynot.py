"""Batch sampling of why-not provenance (Sec. 5.2), split between Spark
and the driver.

Work that grows with the data runs in Spark; work that grows with the
sample runs on the driver. Per unified rule r_t:

1. **Q_X / Q_bind** — each variable's (θ_X-filtered) domain query runs
   in Spark and is collected once, sorted with ``None`` first so the
   picks do not depend on the partition layout; its length is the domain
   size. The picks are drawn on the driver: variable i draws indices
   from ``default_rng([seed, i])``, the draws are zipped column by
   column, and only the first appearance of each valuation is kept
   (Q_sample's set semantics, before any shuffle). Further rounds of the
   deficit are drawn until min(n_OS, N) distinct valuations are held,
   N = Π|𝔻_v|; when N ≤ 2·n_OS the valuations are instead taken from a
   seeded permutation, which has the same law. Q_bind reaches Spark as
   one Arrow-backed DataFrame with a ``__pick`` column (the pick order);
   θ_join predicates are Spark filters.
2. **Q_der** — a ground head is decided by the σ_t(Q(D)) count alone; a
   head with variables is anti-joined with σ_t(Q(D)).
3. **Q_sample** — left-outer joins with the body relations add the goal
   annotations g1…gm, and the cut keeps the first n_S survivors in pick
   order. Draws are exchangeable, so these are a uniform n_S-subset of
   the survivors (Theorem 1).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql.types import LongType, StructField, StructType

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
from repro.sampling.oversample import (
    comparison_selectivity,
    min_oversample_size,
    p_prov_estimate,
)

#: Q_bind's pick-order column; the cut orders on it, then drops it.
PICK = "__pick"


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


def _domain_values(dom: DataFrame) -> list:
    """A variable's domain, collected once, ``None`` first then ascending."""
    return sorted((r[0] for r in dom.collect()), key=lambda v: (v is not None, v))


def draw_valuations(sizes: list[int], target: int, seed: int) -> np.ndarray:
    """Indices into the sorted domains of ``min(target, N)`` distinct
    valuations, N = Π ``sizes``, one row per valuation in pick order.

    Variable i draws i.i.d. uniform indices from ``default_rng([seed, i])``
    and a valuation is kept at its first appearance, in rounds of the
    deficit. Kept in pick order, the rows are a uniformly random ordered
    subset of the N valuations; when N ≤ 2·target the rounds would crawl
    through the coupon collector's tail, so the same law is drawn from a
    seeded permutation of all N, decoded mixed-radix.
    """
    m = len(sizes)
    n_all = math.prod(sizes)
    target = min(target, n_all)
    if n_all <= 2 * target:
        # stream [seed, m] is no variable's stream [seed, i], i < m
        order = np.random.default_rng([seed, m]).permutation(n_all)[:target]
        picks = np.empty((target, m), dtype=np.int64)
        for j in reversed(range(m)):
            order, picks[:, j] = np.divmod(order, sizes[j])
        return picks
    rngs = [np.random.default_rng([seed, i]) for i in range(m)]
    picks = np.empty((0, m), dtype=np.int64)
    while len(picks) < target:
        deficit = target - len(picks)
        draw = np.stack(
            [rng.integers(0, d, deficit) for rng, d in zip(rngs, sizes)], axis=1
        )
        picks = np.concatenate([picks, draw])
        _, first = np.unique(picks, axis=0, return_index=True)
        picks = picks[np.sort(first)]
    return picks


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

    # --- domains, collected once; their lengths size n_OS (Sec. 5.3) ---
    fields, values = [], {}
    for var in unified.unbound:
        dom = variable_domain(catalog, unified, var, domains)
        fields.append(StructField(var.name, dom.schema[0].dataType, True))
        values[var.name] = _domain_values(dom)
    dom_sizes = {name: len(vals) for name, vals in values.items()}
    n_all = math.prod(dom_sizes.values())
    sigma = filter_result_to_head(result, unified)
    matching = result.filter(sigma) if sigma is not None else result
    n_existing = matching.count()
    head_has_unbound = any(
        isinstance(a, Var) for a in unified.rule.head.args
    )
    if not head_has_unbound and n_existing > 0:
        # the (single) head this rule can produce exists → Whynot is
        # empty; return an empty (but correctly-schemed) sample
        empty = catalog.spark.createDataFrame([], StructType(fields))
        return RuleSample(
            unified, annotate_goals(catalog, unified, empty), n_s, 0, 0.0,
            n_all, 0.0,
        )
    if n_all == 0:
        raise ValueError("cannot sample from an empty domain")
    p_prov = p_prov_estimate(unified, n_existing, dom_sizes)
    _, var_var = split_comparisons(unified)
    sel = comparison_selectivity(var_var)
    if n_s / p_prov > max_n_os:
        n_os = max_n_os  # binomial target unreachable within the cap
    else:
        n_os = min_oversample_size(n_s, p_prov, p_success)
    n_os = min(max_n_os, max(n_s, int(n_os / max(sel, 1e-6)) + 1))

    # --- step 1: Q_bind drawn on the driver, θ_join filtered in Spark ---
    picks = draw_valuations(list(dom_sizes.values()), n_os, seed)
    cols = {
        name: np.asarray(vals, dtype=object)[picks[:, j]]
        for j, (name, vals) in enumerate(values.items())
    }
    cols[PICK] = np.arange(len(picks), dtype=np.int64)
    bind = catalog.spark.createDataFrame(
        pd.DataFrame(cols),
        StructType(fields + [StructField(PICK, LongType(), False)]),
    )
    for c in var_var:
        bind = bind.filter(comparison_column(c))

    # --- step 2: Q_der — drop derivations of existing answers; a ground
    # head reaching here is missing, so every valuation is kept ---
    der = anti_join_existing(bind, result, unified) if head_has_unbound else bind

    # --- step 3: Q_sample — goal annotations, cut to n_S in pick order ---
    annotated = annotate_goals(catalog, unified, der)
    sample = annotated.orderBy(PICK).limit(n_s).drop(PICK)

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
