"""Catalyst LCA (Q_lca) and match counting (Q_match) vs the pure-Python
references, and vs the driver-side kernel that ``pattern_inputs`` runs."""
import pandas as pd
import pytest
from pyspark.sql import types as T

from repro.core.unify import WHY, WHYNOT, PQuestion, parse_ptuple, unify_program
from repro.datasets.airbnb import airbnb_program, s_airbnb
from repro.datasets.graph_r import graph_r, rex_program
from repro.datasets.movies import movies, r4_program
from repro.engine.catalog import Catalog
from repro.patterns.lca import lca_candidates, lca_reference
from repro.patterns.matching import collect_patterns, match_counts, match_reference
from repro.provenance.annotate import goal_column_names
from repro.summarize.pipeline import pattern_inputs


def _sample_df(spark, rows):
    pdf = pd.DataFrame(
        [
            {"X": a[0], "Z": a[1], "g1": g[0], "g2": g[1]}
            for a, g in rows
        ]
    )
    return spark.createDataFrame(pdf)


ROWS_A = [
    ((2, 1), (False, False)), ((2, 2), (False, False)),
    ((3, 1), (False, False)), ((2, 4), (True, False)),
    ((3, 4), (True, False)),
]

ROWS_B = [((i % 3, i % 2), (i % 2 == 0, True)) for i in range(9)]


class TestLcaSpark:
    @pytest.mark.parametrize("rows", [ROWS_A, ROWS_B], ids=["A", "B"])
    def test_matches_reference(self, spark, rows):
        df = _sample_df(spark, rows)
        out = lca_candidates(df, ["X", "Z"], ["g1", "g2"])
        got = {
            ((r["X"], r["Z"]), (r["g1"], r["g2"])) for r in out.collect()
        }
        assert got == lca_reference(sorted(set(rows), key=repr))

    def test_single_row_gives_itself(self, spark):
        df = _sample_df(spark, [((1, 2), (True, True))])
        out = lca_candidates(df, ["X", "Z"], ["g1", "g2"]).collect()
        assert [(r["X"], r["Z"]) for r in out] == [(1, 2)]

    def test_null_encodes_placeholder(self, spark):
        df = _sample_df(spark, [((1, 2), (True, True)), ((1, 3), (True, True))])
        out = lca_candidates(df, ["X", "Z"], ["g1", "g2"]).collect()
        pats = {(r["X"], r["Z"]) for r in out}
        assert (1, None) in pats


class TestMatchSpark:
    def test_counts_match_reference(self, spark):
        rows = sorted(set(ROWS_A), key=repr)
        df = _sample_df(spark, rows)
        lca = lca_candidates(df, ["X", "Z"], ["g1", "g2"])
        got_df = match_counts(lca, df, ["X", "Z"], ["g1", "g2"])
        got = {
            ((r["X"], r["Z"]), (r["g1"], r["g2"])): r["match_count"]
            for r in got_df.collect()
        }
        pats = sorted(lca_reference(rows), key=repr)
        want = match_reference(pats, rows)
        assert got == want

    def test_collect_patterns(self, spark):
        rows = sorted(set(ROWS_A), key=repr)
        df = _sample_df(spark, rows)
        lca = lca_candidates(df, ["X", "Z"], ["g1", "g2"])
        matched = match_counts(lca, df, ["X", "Z"], ["g1", "g2"])
        ps = collect_patterns(matched, "rex", ["X", "Z"], ["g1", "g2"], len(rows))
        assert all(p.rule_id == "rex" for p in ps)
        assert all(0 < p.cp <= 1 for p in ps)
        # the (X, Z)-(F,F) all-placeholder pattern covers the 3 F,F rows
        allp = [p for p in ps if p.args == (None, None) and p.goals == (False, False)]
        assert allp and allp[0].count == 3

    def test_collect_patterns_weight(self, spark):
        rows = sorted(set(ROWS_A), key=repr)
        df = _sample_df(spark, rows)
        lca = lca_candidates(df, ["X", "Z"], ["g1", "g2"])
        matched = match_counts(lca, df, ["X", "Z"], ["g1", "g2"])
        ps = collect_patterns(
            matched, "rex", ["X", "Z"], ["g1", "g2"], len(rows), weight=0.5
        )
        allp = [p for p in ps if p.args == (None, None) and p.goals == (False, False)]
        assert allp[0].cp == pytest.approx(0.5 * 3 / 5)


_SPARK_TYPES = {bool: T.BooleanType(), int: T.LongType(),
                float: T.DoubleType(), str: T.StringType()}


def _rows_df(spark, rows, var_cols, goal_cols):
    """A DataFrame of collected ``(args, goals)`` rows; a column's type is
    that of its first non-NULL value."""
    fields = []
    for j, v in enumerate(var_cols):
        kind = next((type(a[j]) for a, _ in rows if a[j] is not None), str)
        fields.append(T.StructField(v, _SPARK_TYPES[kind], True))
    fields += [T.StructField(g, T.BooleanType(), False) for g in goal_cols]
    data = [tuple(a) + tuple(g) for a, g in rows]
    return spark.createDataFrame(data, T.StructType(fields))


def _rex(spark):
    dom = spark.createDataFrame(pd.DataFrame({"v": [1, 2, 3, 4, 5, 6]}))
    return Catalog(spark, graph_r(spark)), rex_program(), {"X": dom, "Z": dom}


_EQUIVALENCE_CASES = {
    "rex_whynot_full": (
        _rex, "Qex(X, 4)", WHYNOT, {"use_full": True}),
    "rex_why": (_rex, "Qex(X, Y)", WHY, {}),
    "airbnb_whynot_full": (
        lambda spark: (Catalog(spark, s_airbnb(spark)), airbnb_program(), None),
        "AL(N, shared)", WHYNOT, {"use_full": True}),
    "airbnb_whynot_sampled": (
        lambda spark: (Catalog(spark, s_airbnb(spark)), airbnb_program(), None),
        "AL(N, shared)", WHYNOT, {"n_s": 200, "seed": 1}),
    "r4_why": (
        lambda spark: (Catalog(spark, movies(spark, n_movies=150, seed=0)),
                       r4_program(), None),
        "Players('jack black')", WHY, {"n_s": 100}),
    "r4_whynot": (
        lambda spark: (Catalog(spark, movies(spark, n_movies=150, seed=0)),
                       r4_program(), None),
        "Players('tom ford')", WHYNOT,
        {"n_s": 60, "seed": 0, "max_n_os": 100_000}),
}


@pytest.mark.parametrize("case", sorted(_EQUIVALENCE_CASES))
def test_pattern_inputs_equal_spark_lca_match(spark, case):
    """``pattern_inputs`` yields exactly the candidates, counts and cps of
    Q_lca + Q_match + ``collect_patterns`` on the same collected sample."""
    make, ptuple, qtype, kwargs = _EQUIVALENCE_CASES[case]
    catalog, program, domains = make(spark)
    t = parse_ptuple(ptuple)
    inputs = pattern_inputs(
        catalog, program, PQuestion(t, qtype), domains=domains, **kwargs
    )
    assert inputs.patterns
    rules = {u.rule_id: u for u in unify_program(program, t)}
    n_spark = 0
    for stats in inputs.per_rule:
        rule_id = stats["rule_id"]
        u = rules[rule_id]
        var_cols = [v.name for v in u.unbound]
        goal_cols = goal_column_names(u.n_goals)
        sample = inputs.store.rules[rule_id]
        rows = list(zip(sample.args, sample.goals))
        df = _rows_df(spark, rows, var_cols, goal_cols)
        lca = lca_candidates(df, var_cols, goal_cols)
        spark_ps = collect_patterns(
            match_counts(lca, df, var_cols, goal_cols), rule_id, var_cols,
            goal_cols, len(rows), weight=stats["weight"],
        )
        want = {(p.args, p.goals): (p.count, p.cp) for p in spark_ps}
        got = {
            (p.args, p.goals): (p.count, p.cp)
            for p in inputs.patterns if p.rule_id == rule_id
        }
        assert got == want
        assert stats["n_candidates"] == len(want)
        n_spark += len(want)
    assert inputs.n_candidates == n_spark == len(inputs.patterns)
