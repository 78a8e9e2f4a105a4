"""Pattern candidate generation via the LCA heuristic (Sec. 6).

Q_lca self-joins the sample on equal goal annotations and generalizes
each pair of derivations: positions where the pair agrees keep the
constant, positions where it disagrees become a placeholder (NULL).
Every candidate therefore matches ≥ 2 sample derivations (≥ 1 for
self-pairs), and at most |S|² candidates are generated instead of the
O((|𝔻|+n)ⁿ·2^m) full pattern space.

``summarize()`` computes the LCA on the driver over the collected sample
(``repro.patterns.kernel.lca``). The Spark ``lca_candidates`` here is no
longer called by the pipeline; it remains only for the benchmark's
traced replay, which checks it against ``lca_reference``. Deleting it
waits for a benchmark change that points that replay at the kernel.
``lca_reference`` is the test oracle for both.
"""
from __future__ import annotations

from itertools import combinations_with_replacement

from pyspark.sql import DataFrame
from pyspark.sql import functions as F


def lca_candidates(
    sample: DataFrame, var_cols: list[str], goal_cols: list[str]
) -> DataFrame:
    """Q_lca: distinct LCA generalizations of all sample pairs, as a
    Spark plan (traced replay only; see the module docstring).

    Output schema matches the sample (variable columns become nullable;
    NULL encodes a placeholder).
    """
    a = sample.alias("a")
    b = sample.alias("b")
    cond = F.lit(True)
    for g in goal_cols:
        cond = cond & (F.col(f"a.{g}") == F.col(f"b.{g}"))
    joined = a.join(b, on=cond, how="inner")
    projections = [
        F.when(F.col(f"a.{v}") == F.col(f"b.{v}"), F.col(f"a.{v}")).alias(v)
        for v in var_cols
    ] + [F.col(f"a.{g}").alias(g) for g in goal_cols]
    return joined.select(*projections).distinct()


def lca_reference(
    rows: list[tuple[tuple, tuple[bool, ...]]]
) -> set[tuple[tuple, tuple[bool, ...]]]:
    """Pure-Python LCA over (args, goals) rows — test oracle for Q_lca
    and the driver-side kernel."""
    out: set[tuple[tuple, tuple[bool, ...]]] = set()
    for (a_args, a_goals), (b_args, b_goals) in combinations_with_replacement(
        rows, 2
    ):
        if a_goals != b_goals:
            continue
        merged = tuple(x if x == y else None for x, y in zip(a_args, b_args))
        out.add((merged, a_goals))
    return out
