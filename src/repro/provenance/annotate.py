"""Goal annotations and answer filtering (Sec. 5.2, steps 2 and 3).

``annotate_goals`` is the Spark rendering of Q_sample / Q_goals: a
derivation DataFrame (one column per unbound variable) is left-outer
joined with each body relation; the boolean goal column ``g{i}`` is T
iff a join partner exists (inverted for negated goals), exactly the
``if (isnull(h_i)) then F else T`` projection of the paper.

``anti_join_existing`` is Q_der: the anti-join that removes derivations
of *existing* answers, keeping only why-not provenance.
"""
from __future__ import annotations

from pyspark.sql import Column, DataFrame
from pyspark.sql import functions as F

from repro.core.ast import Const, Var
from repro.core.unify import UnifiedRule
from repro.engine.catalog import Catalog
from repro.engine.eval import atom_df


def goal_column_names(n_goals: int) -> list[str]:
    """Boolean goal-annotation columns ``g1 … gm`` of annotated derivations."""
    return [f"g{i + 1}" for i in range(n_goals)]


def annotate_goals(
    catalog: Catalog, unified: UnifiedRule, deriv: DataFrame
) -> DataFrame:
    """Append goal annotations ``g1 … gm`` to a derivation DataFrame.

    ``deriv`` must have one column per unbound variable of ``unified``;
    any other columns (such as the sampler's pick order) pass through
    after the goal columns. Relations are projected to the distinct
    bindings of the goal's variables before the outer join, so duplicate
    join partners cannot multiply derivation rows: each input row maps to
    exactly one output row.
    """
    out = deriv
    for i, atom in enumerate(unified.rule.body):
        gcol = f"g{i + 1}"
        positive_atom = atom if not atom.negated else atom.__class__(
            atom.pred, atom.args, negated=False
        )
        g = atom_df(catalog, positive_atom)
        if g.columns == ["__exists"]:
            exists = g.limit(1).count() > 0
            success = exists if not atom.negated else not exists
            out = out.withColumn(gcol, F.lit(success))
            continue
        marker = f"__h{i + 1}"
        renamed = g.select(
            *[F.col(v).alias(f"__g{i + 1}_{v}") for v in g.columns],
            F.lit(1).alias(marker),
        )
        cond: Column | None = None
        for v in g.columns:
            c = F.col(v) == F.col(f"__g{i + 1}_{v}")
            cond = c if cond is None else (cond & c)
        assert cond is not None
        out = out.join(renamed, on=cond, how="left_outer")
        success = F.col(marker).isNotNull()
        if atom.negated:
            success = ~success
        out = out.withColumn(gcol, success)
        out = out.drop(marker, *[f"__g{i + 1}_{v}" for v in g.columns])
    var_cols = [v.name for v in unified.unbound]
    extra = [c for c in deriv.columns if c not in var_cols]
    return out.select(*var_cols, *goal_column_names(unified.n_goals), *extra)


def filter_result_to_head(result: DataFrame, unified: UnifiedRule) -> Column | None:
    """σ_t condition: restrict query answers (cols h0…) to heads the
    unified rule can produce — constant head positions must match."""
    cond: Column | None = None
    for i, arg in enumerate(unified.rule.head.args):
        if isinstance(arg, Const):
            c = F.col(f"h{i}") == F.lit(arg.value)
            cond = c if cond is None else (cond & c)
    return cond


def anti_join_existing(
    deriv: DataFrame, result: DataFrame, unified: UnifiedRule
) -> DataFrame:
    """Q_der: drop derivations whose head is an existing answer.

    ``result`` is the query output with columns ``h0 … h{n-1}``.
    """
    sigma = filter_result_to_head(result, unified)
    matching = result.filter(sigma) if sigma is not None else result
    cond: Column | None = None
    for i, arg in enumerate(unified.rule.head.args):
        if isinstance(arg, Var):
            c = F.col(arg.name) == matching[f"h{i}"]
            cond = c if cond is None else (cond & c)
    if cond is None:
        # fully ground head: the answer either exists (no why-not
        # derivations at all) or is missing (keep everything)
        exists = matching.limit(1).count() > 0
        return deriv.limit(0) if exists else deriv
    return deriv.join(matching, on=cond, how="left_anti")
