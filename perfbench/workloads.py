"""The benchmark's workloads: data, program and question, built from a seed.

Sizes follow the paper's Fig. 6 (r1 over LICENSE) and Fig. 9 (chain
joins). Each workload stresses a different part of ``summarize()``:

* ``whynot_r1`` -- few variables (5) and a large sample (n_S=1000): the
  sampler's domain sizing, Q_bind zip and goal annotation, then LCA, match
  and top-k over ~2.5K candidates.
* ``why_r1`` -- the sampler is never called; capture is one join, and
  LCA, match and top-k over the ~750 delivered derivations dominate. Its
  prediction for any sampler-only change is no change.
* ``whynot_chain6`` -- many variables (13) and goals (6) with a small
  sample (n_S=100): the sampler's per-variable fan-out and the fixed cost
  of ~200 Spark jobs dominate; patterns and top-k are trivial.

``BENCHMARK.json`` lists only the first two: a ``whynot_chain6`` run takes
about 75 s (17-20 s for the first call, then ~14 s per call), more than
the benchmark's time budget allows per run. Run it by name to measure the
sampler at many variables; its layers are all measured on ``whynot_r1``.
"""
from __future__ import annotations

from dataclasses import dataclass

from pyspark.sql import SparkSession
from pyspark.sql import functions as F

from repro.core.ast import Const, Program
from repro.core.unify import WHY, WHYNOT, PQuestion, PTuple, parse_ptuple
from repro.datasets.license import license_db, r1_program
from repro.datasets.synthetic_joins import chain_db, chain_query
from repro.engine.catalog import Catalog
from repro.engine.eval import evaluate
from repro.experiments.common import bind_first_answer

from metrics import WHY_R1, WHYNOT_CHAIN6, WHYNOT_R1

K = 3
CHAIN_JOINS = 6


@dataclass(frozen=True)
class Workload:
    name: str
    qtype: str
    rows: int  # rows of the primary relation (each chain relation)
    n_s: int


WORKLOADS = {
    WHYNOT_R1: Workload(WHYNOT_R1, WHYNOT, rows=10_000, n_s=1000),
    WHY_R1: Workload(WHY_R1, WHY, rows=100_000, n_s=1000),
    WHYNOT_CHAIN6: Workload(WHYNOT_CHAIN6, WHYNOT, rows=2000, n_s=100),
}

#: Sizes for the self-test: the same code paths on tiny data. A call
#: still runs its 16-200 Spark jobs, so it is not much faster.
TOY = {
    WHYNOT_R1: Workload(WHYNOT_R1, WHYNOT, rows=500, n_s=50),
    WHY_R1: Workload(WHY_R1, WHY, rows=2000, n_s=50),
    WHYNOT_CHAIN6: Workload(WHYNOT_CHAIN6, WHYNOT, rows=100, n_s=20),
}


@dataclass
class Inputs:
    catalog: Catalog
    program: Program
    question: PQuestion


def _missing_chain_head(catalog: Catalog, program: Program) -> int:
    """The smallest X0 value of C1 with no full chain, found in Spark:
    the domain of X0 anti-joined with Q(D), then ``min``. Q(D) never
    reaches the driver."""
    answers = evaluate(catalog, program).select(F.col("h0").alias("value"))
    row = (
        catalog.attribute_domain("C1", 0)
        .join(answers, on="value", how="left_anti")
        .agg(F.min("value").alias("v"))
        .first()
    )
    if row is None or row["v"] is None:
        raise ValueError("every X0 value of C1 has a full chain")
    return int(row["v"])


def build(spark: SparkSession, w: Workload, seed: int) -> Inputs:
    """Generate the data from ``seed`` and bind the workload's question."""
    if w.name == WHYNOT_CHAIN6:
        db = chain_db(spark, CHAIN_JOINS, n_rows=w.rows, key_domain=w.rows,
                      seed=seed)
        catalog, program = Catalog(spark, db), chain_query(CHAIN_JOINS)
        v = _missing_chain_head(catalog, program)
        t = PTuple(program.rules[0].head.pred, (Const(v),))
        return Inputs(catalog, program, PQuestion(t, WHYNOT))
    catalog = Catalog(spark, license_db(spark, n=w.rows, seed=seed))
    program = r1_program()
    if w.qtype == WHY:
        t = bind_first_answer(catalog, program, parse_ptuple("InvalidD(C)"), [0])
    else:
        t = parse_ptuple("InvalidD('city_0')")
    return Inputs(catalog, program, PQuestion(t, w.qtype))
