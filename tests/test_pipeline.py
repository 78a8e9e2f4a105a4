"""End-to-end summarization tests (the four phases glued together),
including the paper's worked Airbnb example."""
import pandas as pd
import pytest

from repro.core.unify import WHY, WHYNOT, PQuestion, parse_ptuple
from repro.datasets.airbnb import airbnb_program, s_airbnb
from repro.datasets.graph_r import graph_r, rex_program
from repro.datasets.license import license_db, r1_program
from repro.datasets.movies import movies, r4_program
from repro.engine.catalog import Catalog
from repro.sampling.whynot import sample_whynot
from repro.summarize.pipeline import (
    pattern_inputs,
    select_topk,
    summarize,
    summarize_why,
    summarize_whynot,
)


@pytest.fixture(scope="module")
def airbnb(spark):
    return Catalog(spark, s_airbnb(spark)), airbnb_program()


@pytest.fixture(scope="module")
def rex(spark):
    catalog = Catalog(spark, graph_r(spark))
    dom = spark.createDataFrame(pd.DataFrame({"v": [1, 2, 3, 4, 5, 6]}))
    return catalog, rex_program(), {"X": dom, "Z": dom}


class TestWhynotPipeline:
    def test_airbnb_full_recovers_p1(self, airbnb):
        # The paper's pattern p1 = r1(N, shared, I, apt, E, P)-(T,F)
        # (Fig. 2b) must appear among the LCA candidates over FULL
        # provenance, with exactly its 8 matching derivations (on
        # S-Airbnb the (F,F) group dominates, so p1 is a candidate, not
        # necessarily in the top-3; on F-Airbnb it covers ~12.8%).
        catalog, prog = airbnb
        q = PQuestion(parse_ptuple("AL(N, shared)"), WHYNOT)
        inputs = pattern_inputs(catalog, prog, q, use_full=True, seed=0)
        p1 = [
            p for p in inputs.patterns
            if p.goals == (True, False)
            and p.args == (None, None, "apt", None, None)
        ]
        assert len(p1) == 1
        assert p1[0].count == 8
        assert p1[0].cp == pytest.approx(8 / 2160)
        assert p1[0].info() == pytest.approx(0.2)

    def test_airbnb_sampled(self, airbnb):
        catalog, prog = airbnb
        s = summarize_whynot(
            catalog, prog, parse_ptuple("AL(N, shared)"), k=3, n_s=200, seed=1
        )
        assert len(s.patterns) == 3
        assert 0 < s.completeness <= 1
        assert 0 <= s.informativeness <= 1
        assert s.score > 0

    def test_timings_present(self, airbnb):
        catalog, prog = airbnb
        s = summarize_whynot(
            catalog, prog, parse_ptuple("AL(N, shared)"), k=2, n_s=50, seed=2
        )
        for key in ("sample", "pattern_gen", "metrics", "topk", "total"):
            assert s.timings[key] >= 0

    def test_rex_full_equals_known(self, rex):
        catalog, prog, domains = rex
        s = summarize_whynot(
            catalog, prog, parse_ptuple("Qex(X, 4)"), k=2, use_full=True,
            domains=domains,
        )
        # the dominant group (F,F) has 8/12 of the provenance; the top-2
        # summary must cover well over half of it
        assert s.completeness >= 0.5

    def test_existing_answer_empty_summary(self, rex):
        catalog, prog, domains = rex
        s = summarize_whynot(
            catalog, prog, parse_ptuple("Qex(1, 4)"), domains=domains,
            use_full=True,
        )
        assert s.patterns == ()
        assert s.completeness == 0.0

    def test_k1_is_single_pattern(self, airbnb):
        catalog, prog = airbnb
        s = summarize_whynot(
            catalog, prog, parse_ptuple("AL(N, shared)"), k=1, n_s=100, seed=3
        )
        assert len(s.patterns) == 1

    def test_completeness_grows_with_k(self, airbnb):
        catalog, prog = airbnb
        cps = []
        for k in (1, 3, 5):
            s = summarize_whynot(
                catalog, prog, parse_ptuple("AL(N, shared)"), k=k, n_s=200,
                seed=4,
            )
            cps.append(s.completeness)
        assert cps[0] <= cps[1] + 1e-9 <= cps[2] + 2e-9

    def test_pretty_output(self, airbnb):
        catalog, prog = airbnb
        s = summarize_whynot(
            catalog, prog, parse_ptuple("AL(N, shared)"), k=2, n_s=50, seed=5
        )
        text = s.pretty()
        assert "top-2 summary" in text and "r1(" in text


class TestWhyPipeline:
    def test_rex_why(self, rex):
        catalog, prog, _ = rex
        s = summarize_why(catalog, prog, parse_ptuple("Qex(X, Y)"), k=2)
        assert s.patterns
        # why derivations have all goals T
        assert all(all(g for g in p.goals) for p in s.patterns)

    def test_license_why(self, spark):
        db = license_db(spark, n=500, seed=0)
        catalog = Catalog(spark, db)
        prog = r1_program()
        s = summarize_why(catalog, prog, parse_ptuple("InvalidD(C)"), k=3, n_s=200)
        assert s.patterns
        assert s.completeness > 0

    def test_why_sampled_when_large(self, spark):
        db = license_db(spark, n=500, seed=0)
        catalog = Catalog(spark, db)
        prog = r1_program()
        s = summarize_why(
            catalog, prog, parse_ptuple("InvalidD(C)"), k=2, n_s=20
        )
        assert s.per_rule[0]["n_sample"] <= 20
        assert s.per_rule[0]["n_os"] is None  # no sampler ran

    def test_why_capture_leaves_nothing_cached(self, spark):
        # |Why| > n_S: the full why provenance is persisted to count it
        # and cut it, and must be unpersisted again
        catalog = Catalog(spark, license_db(spark, n=500, seed=0))
        prog = r1_program()
        cached = spark.sparkContext._jsc.getPersistentRDDs().size()
        s = summarize_why(
            catalog, prog, parse_ptuple("InvalidD(C)"), k=2, n_s=20
        )
        assert s.per_rule[0]["n_sample"] == 20
        assert spark.sparkContext._jsc.getPersistentRDDs().size() == cached


class TestMultiRule:
    def test_r4_union_whynot(self, spark):
        db = movies(spark, n_movies=150, seed=0)
        catalog = Catalog(spark, db)
        prog = r4_program()
        s = summarize_whynot(
            catalog, prog, parse_ptuple("Players('tom ford')"), k=3, n_s=60,
            seed=0, max_n_os=100_000,
        )
        assert len(s.per_rule) == 3  # one sample per union branch
        assert abs(sum(r["weight"] for r in s.per_rule) - 1.0) < 1e-9
        assert s.patterns
        # the sampler's statistics reach the trace unchanged
        sampled = {
            rs.rule_id: rs for rs in sample_whynot(
                catalog, prog, parse_ptuple("Players('tom ford')"), 60,
                seed=0, max_n_os=100_000,
            )
        }
        for r in s.per_rule:
            rs = sampled[r["rule_id"]]
            assert r["n_os"] == rs.n_os >= 60
            assert r["p_prov"] == rs.p_prov
            assert 0 < r["p_prov"] <= 1
            assert r["est_whynot_size"] == rs.est_whynot_size > 0
            assert r["n_sample"] == s.store.n_rows(r["rule_id"])
            assert 0 < r["n_sample"] <= 60

    def test_r4_union_why(self, spark):
        db = movies(spark, n_movies=150, seed=0)
        catalog = Catalog(spark, db)
        prog = r4_program()
        s = summarize_why(
            catalog, prog, parse_ptuple("Players('jack black')"), k=3, n_s=100
        )
        # the anchor movie guarantees jack black in all three branches
        assert s.patterns
        assert len(s.per_rule) == 3


class TestPatternInputs:
    def test_inputs_then_topk(self, airbnb):
        catalog, prog = airbnb
        q = PQuestion(parse_ptuple("AL(N, shared)"), WHYNOT)
        inputs = pattern_inputs(catalog, prog, q, n_s=100, seed=6)
        assert inputs.patterns and inputs.n_candidates >= len(inputs.patterns)
        r = select_topk(inputs, 3)
        assert len(r.patterns) == 3

    def test_estimates_close_to_store(self, airbnb):
        # pattern cp estimates (Q_match counts) must equal the exact
        # per-pattern completeness over the same sample
        catalog, prog = airbnb
        q = PQuestion(parse_ptuple("AL(N, shared)"), WHYNOT)
        inputs = pattern_inputs(catalog, prog, q, n_s=100, seed=7)
        for p in inputs.patterns[:20]:
            assert inputs.store.cp_of_pattern(p) == pytest.approx(p.cp)


class TestPartitionIndependence:
    @pytest.mark.parametrize(
        "qtype, question, n_s",
        [(WHY, "InvalidD(C)", 20), (WHYNOT, "InvalidD('city_0')", 100)],
    )
    def test_same_summary_under_1_and_64_partitions(
        self, spark, qtype, question, n_s
    ):
        catalog = Catalog(spark, license_db(spark, n=500, seed=0))
        q = PQuestion(parse_ptuple(question), qtype)
        key = "spark.sql.shuffle.partitions"
        old = spark.conf.get(key)
        out = []
        try:
            for partitions in ("1", "64"):
                spark.conf.set(key, partitions)
                s = summarize(catalog, r1_program(), q, k=3, n_s=n_s, seed=3)
                out.append((s.patterns, s.score, s.per_rule))
        finally:
            spark.conf.set(key, old)
        assert out[0][2][0]["n_sample"] == n_s  # the cut ran
        assert out[0] == out[1]
