"""Relational sampling operators (Sec. 5.2): SAMPLE_n and #_A.

The paper extends relational algebra with ``SAMPLE_n`` (uniform with
replacement) and ``#_A`` (row-id assignment, SQL ROW_NUMBER()). We
express both as Catalyst plans:

* ``with_row_ids`` — ROW_NUMBER() over a global window (domains are
  small relative to the data, so a single-partition window is fine).
* ``sample_with_replacement`` — a ``spark.range(n)`` of picks carrying
  ``floor(rand(seed)·d)`` indices, joined against the row-numbered
  input: exact uniform sampling with replacement, no driver round-trip.

``sample_whynot`` no longer calls either: it collects each domain once
and draws Q_bind on the driver (``repro.sampling.whynot``). Both operators
now serve only the benchmark's traced replay (``perfbench/traced.py``),
which still times the per-step Spark sampler; deleting them waits for a
benchmark change that points the replay at the driver-side draw.
"""
from __future__ import annotations

from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F


def with_row_ids(df: DataFrame, id_col: str = "id") -> DataFrame:
    """Append a dense 1-based row id column (the paper's #_A operator)."""
    w = Window.orderBy(F.monotonically_increasing_id())
    return df.withColumn(id_col, F.row_number().over(w))


def sample_with_replacement(
    df: DataFrame, n: int, seed: int, id_col: str = "id"
) -> DataFrame:
    """SAMPLE_n ∘ #_id: ``n`` uniform-with-replacement picks from ``df``.

    Output: the columns of ``df`` plus ``id_col`` numbering the picks
    1…n, so per-variable samples can be zipped by a natural join on the
    pick id (Q_bind of Sec. 5.2). Raises on an empty input — an empty
    variable domain means the rule has no derivations at all.
    """
    if n <= 0:
        raise ValueError(f"sample size must be positive, got {n}")
    d = df.count()
    if d == 0:
        raise ValueError("cannot sample from an empty domain")
    spark = df.sparkSession
    picks = spark.range(1, n + 1).select(
        F.col("id").alias(id_col),
        (F.floor(F.rand(seed) * d) + 1).cast("int").alias("__pick"),
    )
    dom = with_row_ids(df, "__pick")
    return picks.join(dom, on="__pick").drop("__pick")
