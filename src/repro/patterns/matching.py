"""Completeness estimation by match counting (Sec. 7, Q_match).

Each LCA candidate is joined with the sample on equal goal annotations
and, per variable position, ``pattern IS NULL OR pattern = sample``; a
group-count per pattern yields |matches in S|, whose fraction of |S| is
an unbiased estimate of the pattern's completeness (Def. 7) as long as
the sample is unbiased (Theorem 1).

``summarize()`` counts matches on the driver over the collected sample
(``repro.patterns.kernel.match_counts``), with the kernel that also gives
the top-k search its match bitsets. The Spark ``match_counts`` and
``collect_patterns`` here are no longer called by the pipeline; they
remain only for the benchmark's traced replay, which checks them against
``match_reference``. Deleting them waits for a benchmark change that
points that replay at the kernel. ``match_reference`` is the test oracle
for both.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.patterns.pattern import Pattern


def match_counts(
    patterns: DataFrame,
    sample: DataFrame,
    var_cols: list[str],
    goal_cols: list[str],
) -> DataFrame:
    """Q_match: pattern columns + ``match_count`` over the sample, as a
    Spark plan (traced replay only; see the module docstring)."""
    renamed = patterns.select(
        *[F.col(v).alias(f"__p_{v}") for v in var_cols],
        *[F.col(g).alias(f"__p_{g}") for g in goal_cols],
    )
    cond = F.lit(True)
    for g in goal_cols:
        cond = cond & (F.col(f"__p_{g}") == F.col(g))
    for v in var_cols:
        cond = cond & (F.col(f"__p_{v}").isNull() | (F.col(f"__p_{v}") == F.col(v)))
    joined = renamed.join(sample, on=cond, how="inner")
    grouped = joined.groupBy(
        *[F.col(f"__p_{v}").alias(v) for v in var_cols],
        *[F.col(f"__p_{g}").alias(g) for g in goal_cols],
    ).agg(F.count(F.lit(1)).alias("match_count"))
    return grouped


def match_reference(
    patterns: list[tuple[tuple, tuple[bool, ...]]],
    rows: list[tuple[tuple, tuple[bool, ...]]],
) -> dict[tuple[tuple, tuple[bool, ...]], int]:
    """Pure-Python match counting — test oracle for Q_match and the
    driver-side kernel."""
    out: dict[tuple[tuple, tuple[bool, ...]], int] = {}
    for p_args, p_goals in patterns:
        n = sum(
            1
            for d_args, d_goals in rows
            if d_goals == p_goals
            and all(a is None or a == d for a, d in zip(p_args, d_args))
        )
        out[(p_args, p_goals)] = n
    return out


def collect_patterns(
    matched: DataFrame,
    rule_id: str,
    var_cols: list[str],
    goal_cols: list[str],
    sample_size: int,
    weight: float = 1.0,
) -> list[Pattern]:
    """Collect Q_match output into driver-side :class:`Pattern` objects.

    ``cp`` = weight · match_count / sample_size, where ``weight`` is the
    rule's estimated share of |PROV(Φ)| (1.0 for single-rule queries).
    """
    rows = matched.collect()
    out: list[Pattern] = []
    for r in rows:
        args = tuple(r[v] for v in var_cols)
        goals = tuple(bool(r[g]) for g in goal_cols)
        count = int(r["match_count"])
        cp = weight * count / sample_size if sample_size else 0.0
        out.append(
            Pattern(
                rule_id=rule_id,
                var_names=tuple(var_cols),
                args=args,
                goals=goals,
                cp=cp,
                count=count,
            )
        )
    return out
