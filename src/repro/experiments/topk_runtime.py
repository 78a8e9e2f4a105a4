"""T8 (Fig. 8): runtime of top-k construction alone, varying k, with the
patterns of phases 1–3 provided as input."""
from __future__ import annotations

import time

from pyspark.sql import SparkSession

from repro.core.unify import WHY, WHYNOT, PQuestion
from repro.engine.catalog import Catalog
from repro.experiments.queries import QUERIES
from repro.summarize.pipeline import pattern_inputs, select_topk


def run_topk_runtime(
    spark: SparkSession,
    query: str,
    qtype: str,
    n: int,
    n_s: int,
    ks: list[int],
    seed: int = 0,
) -> list[dict]:
    """One row per k; pattern inputs are computed once and reused."""
    spec = QUERIES[query]
    db = spec.build_db(spark, n, seed)
    catalog = Catalog(spark, db)
    program = spec.program()
    t = (
        spec.why_ptuple(catalog, program)
        if qtype == WHY
        else spec.whynot_ptuple(catalog, program)
    )
    inputs = pattern_inputs(
        catalog, program, PQuestion(t, qtype), n_s=n_s, seed=seed
    )
    rows = []
    for k in ks:
        t0 = time.perf_counter()
        result = select_topk(inputs, k)
        elapsed = time.perf_counter() - t0
        rows.append(
            {
                "query": query,
                "qtype": qtype,
                "n_rows": n,
                "n_s": n_s,
                "n_patterns": len(inputs.patterns),
                "k": k,
                "t_topk": elapsed,
                "score": result.score,
                "proved_optimal": result.proved_optimal,
            }
        )
    return rows
