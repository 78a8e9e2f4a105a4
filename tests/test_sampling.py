"""Tests for the batch why-not sampling pipeline (Sec. 5)."""
import math

import numpy as np
import pandas as pd
import pytest
from pyspark.sql.types import LongType, StringType

from repro.core.ast import Program, parse_rule
from repro.core.unify import parse_ptuple, unify_rule
from repro.datasets.airbnb import airbnb_program, s_airbnb
from repro.datasets.graph_r import graph_r, rex_program
from repro.engine.catalog import Catalog
from repro.provenance.whynot_full import whynot_full
from repro.sampling.ops import sample_with_replacement, with_row_ids
from repro.sampling.whynot import (
    draw_valuations,
    sample_whynot,
    sample_whynot_rule,
)
from repro.summarize.pipeline import summarize_whynot


@pytest.fixture(scope="module")
def rex(spark):
    catalog = Catalog(spark, graph_r(spark))
    prog = rex_program()
    dom = spark.createDataFrame(pd.DataFrame({"v": [1, 2, 3, 4, 5, 6]}))
    return catalog, prog, {"X": dom, "Z": dom}


@pytest.fixture(scope="module")
def airbnb(spark):
    return Catalog(spark, s_airbnb(spark)), airbnb_program()


class TestOps:
    def test_with_row_ids_dense(self, spark):
        df = spark.createDataFrame(pd.DataFrame({"v": list("abcde")}))
        ids = sorted(r["id"] for r in with_row_ids(df).collect())
        assert ids == [1, 2, 3, 4, 5]

    def test_sample_size(self, spark):
        df = spark.createDataFrame(pd.DataFrame({"v": [1, 2, 3]}))
        out = sample_with_replacement(df, 50, seed=3)
        assert out.count() == 50
        assert set(out.columns) == {"v", "id"}

    def test_sample_ids_are_picks(self, spark):
        df = spark.createDataFrame(pd.DataFrame({"v": [1, 2, 3]}))
        out = sample_with_replacement(df, 20, seed=3)
        assert sorted(r["id"] for r in out.collect()) == list(range(1, 21))

    def test_sample_values_from_domain(self, spark):
        df = spark.createDataFrame(pd.DataFrame({"v": [10, 20]}))
        vals = {r["v"] for r in sample_with_replacement(df, 30, seed=1).collect()}
        assert vals <= {10, 20}

    def test_sample_with_replacement_covers(self, spark):
        # 200 picks from a 3-value domain hit every value w.h.p.
        df = spark.createDataFrame(pd.DataFrame({"v": [1, 2, 3]}))
        vals = {r["v"] for r in sample_with_replacement(df, 200, seed=5).collect()}
        assert vals == {1, 2, 3}

    def test_empty_domain_raises(self, spark):
        df = spark.createDataFrame(pd.DataFrame({"v": [1]})).filter("v > 5")
        with pytest.raises(ValueError, match="empty"):
            sample_with_replacement(df, 5, seed=0)

    def test_nonpositive_n_raises(self, spark):
        df = spark.createDataFrame(pd.DataFrame({"v": [1]}))
        with pytest.raises(ValueError):
            sample_with_replacement(df, 0, seed=0)


class TestSampleWhynot:
    def test_sample_subset_of_whynot(self, rex):
        catalog, prog, domains = rex
        u = unify_rule(prog.rules[0], parse_ptuple("Qex(X, 4)"))
        rs = sample_whynot_rule(
            catalog, prog, u, n_s=30, seed=0, domains=domains
        )
        rows = {(r["X"], r["Z"], r["g1"], r["g2"]) for r in rs.sample.collect()}
        assert rows  # non-empty
        from repro.provenance.whynot_full import whynot_full

        (_, full_df), = whynot_full(
            catalog, prog, parse_ptuple("Qex(X, 4)"), domains
        )
        full = {
            (r["X"], r["Z"], r["g1"], r["g2"]) for r in full_df.collect()
        }
        assert rows <= full

    def test_large_sample_covers_everything(self, rex):
        # n_S >> |Whynot| (12): the distinct sampled derivations must
        # converge to the full set
        catalog, prog, domains = rex
        u = unify_rule(prog.rules[0], parse_ptuple("Qex(X, 4)"))
        rs = sample_whynot_rule(
            catalog, prog, u, n_s=500, seed=1, domains=domains
        )
        assert rs.sample.count() == 12

    def test_predicate_respected(self, rex):
        catalog, prog, domains = rex
        u = unify_rule(prog.rules[0], parse_ptuple("Qex(X, 4)"))
        rs = sample_whynot_rule(
            catalog, prog, u, n_s=50, seed=2, domains=domains
        )
        assert all(r["X"] < 4 for r in rs.sample.collect())

    def test_no_existing_answer_heads(self, rex):
        catalog, prog, domains = rex
        u = unify_rule(prog.rules[0], parse_ptuple("Qex(X, 4)"))
        rs = sample_whynot_rule(
            catalog, prog, u, n_s=50, seed=3, domains=domains
        )
        assert all(r["X"] != 1 for r in rs.sample.collect())

    def test_p_prov_and_n_os(self, rex):
        catalog, prog, domains = rex
        u = unify_rule(prog.rules[0], parse_ptuple("Qex(X, 4)"))
        rs = sample_whynot_rule(
            catalog, prog, u, n_s=10, seed=0, domains=domains
        )
        # one existing answer over the 3-value filtered X domain
        assert rs.p_prov == pytest.approx(1 - 1 / 3)
        assert rs.n_os >= 10
        assert rs.n_all_derivations == 18

    def test_airbnb_sampling(self, airbnb):
        catalog, prog = airbnb
        samples = sample_whynot(
            catalog, prog, parse_ptuple("AL(N, shared)"), n_s=100, seed=0
        )
        assert len(samples) == 1
        rs = samples[0]
        assert rs.p_prov == 1.0  # no existing shared answers
        assert 0 < rs.sample.count() <= 100
        cols = set(rs.sample.columns)
        assert cols == {"N", "I", "T", "E", "P", "g1", "g2"}

    def test_airbnb_annotations_consistent(self, airbnb):
        # every sampled derivation's annotations must match the full
        # enumeration (same derivation → same goal vector)
        catalog, prog = airbnb
        from repro.provenance.whynot_full import whynot_full

        (_, full_df), = whynot_full(catalog, prog, parse_ptuple("AL(N, shared)"))
        full = {
            (r["N"], r["I"], r["T"], r["E"], r["P"]): (r["g1"], r["g2"])
            for r in full_df.collect()
        }
        samples = sample_whynot(
            catalog, prog, parse_ptuple("AL(N, shared)"), n_s=50, seed=4
        )
        for r in samples[0].sample.collect():
            key = (r["N"], r["I"], r["T"], r["E"], r["P"])
            assert full[key] == (r["g1"], r["g2"])

    def test_deterministic_given_seed(self, airbnb):
        catalog, prog = airbnb
        t = parse_ptuple("AL(N, shared)")
        a = sample_whynot(catalog, prog, t, n_s=20, seed=9)[0].sample.collect()
        b = sample_whynot(catalog, prog, t, n_s=20, seed=9)[0].sample.collect()
        assert len(a) == 20
        assert list(map(tuple, a)) == list(map(tuple, b))

    def test_sampling_is_roughly_uniform(self, rex):
        # Theorem 1: each of the 12 why-not derivations should appear
        # with similar frequency across repeated small samples
        catalog, prog, domains = rex
        u = unify_rule(prog.rules[0], parse_ptuple("Qex(X, 4)"))
        counts: dict = {}
        for seed in range(12):
            rs = sample_whynot_rule(
                catalog, prog, u, n_s=4, seed=seed * 13, domains=domains
            )
            for r in rs.sample.collect():
                counts[(r["X"], r["Z"])] = counts.get((r["X"], r["Z"]), 0) + 1
        assert len(counts) >= 9  # most derivations were seen at least once


class TestDrawValuations:
    @pytest.mark.parametrize(
        "sizes, target",
        [([5, 7, 3], 20), ([2160], 1001), ([6, 6, 3, 5, 4], 1001),
         ([3, 3], 100), ([3, 2], 4), ([1], 9),
         ([10**7] * 3, 50)],  # N = 10^21 overflows int64
    )
    def test_distinct_in_range(self, sizes, target):
        picks = draw_valuations(sizes, target, seed=3)
        n_all = math.prod(sizes)
        assert picks.shape == (min(target, n_all), len(sizes))
        assert len({tuple(r) for r in picks.tolist()}) == len(picks)
        assert (picks >= 0).all() and (picks < np.array(sizes)).all()

    def test_all_valuations_when_space_is_small(self):
        picks = draw_valuations([3, 2], 50, seed=1)
        assert sorted(map(tuple, picks.tolist())) == [
            (i, j) for i in range(3) for j in range(2)
        ]

    def test_first_round_is_the_per_variable_streams(self):
        # no duplicate in 5 draws from 10^12 valuations: the picks are
        # exactly the i.i.d. draws of default_rng([seed, i])
        picks = draw_valuations([10**6, 10**6], 5, seed=4)
        for i in range(2):
            want = np.random.default_rng([4, i]).integers(0, 10**6, 5)
            assert picks[:, i].tolist() == want.tolist()

    def test_deterministic_and_seeded(self):
        a = draw_valuations([6, 6, 3, 5, 4], 1001, seed=7)
        assert (a == draw_valuations([6, 6, 3, 5, 4], 1001, seed=7)).all()
        assert not (a == draw_valuations([6, 6, 3, 5, 4], 1001, seed=8)).all()

    def test_no_variables(self):
        assert draw_valuations([], 10, seed=0).shape == (1, 0)

    def test_roughly_uniform(self):
        # every valuation of a 12-valuation space is about equally likely
        # to be among the first 3 picks
        counts = np.zeros((4, 3))
        for seed in range(1200):
            for i, j in draw_valuations([4, 3], 3, seed=seed).tolist():
                counts[i, j] += 1
        assert counts.min() > 0.6 * 300 and counts.max() < 1.4 * 300


def _edge_program():
    return Program((parse_rule("E(X, Y) :- R(X, Y).", rule_id="e"),))


class TestSamplerDomains:
    def test_int_domain_with_null_keeps_long_type(self, spark, rex):
        catalog, prog, domains = rex
        z = spark.createDataFrame([(v,) for v in (None, 1, 2, 3, 4, 5, 6)], "v long")
        u = unify_rule(prog.rules[0], parse_ptuple("Qex(X, 4)"))
        key = "spark.sql.execution.arrow.pyspark.fallback.enabled"
        old = spark.conf.get(key)
        spark.conf.set(key, "false")  # fail rather than leave the Arrow path
        try:
            rs = sample_whynot_rule(
                catalog, prog, u, n_s=100, seed=0,
                domains={"X": domains["X"], "Z": z},
            )
            rows = rs.sample.collect()
        finally:
            spark.conf.set(key, old)
        assert rs.sample.schema["Z"].dataType == LongType()
        assert rs.n_all_derivations == 21  # X ∈ {1, 2, 3} × 7 Z values
        zs = {r["Z"] for r in rows}
        assert None in zs and zs <= {None, 1, 2, 3, 4, 5, 6}
        # a NULL binding joins with nothing: both goals fail
        assert all(not r["g1"] and not r["g2"] for r in rows if r["Z"] is None)

    def test_string_and_int_domains(self, airbnb):
        catalog, prog = airbnb
        rs, = sample_whynot(
            catalog, prog, parse_ptuple("AL(N, shared)"), n_s=200, seed=2
        )
        schema = {f.name: f.dataType for f in rs.sample.schema.fields}
        assert schema["N"] == StringType() and schema["I"] == LongType()
        full = {
            tuple(r)[:5] for r in whynot_full(
                catalog, prog, parse_ptuple("AL(N, shared)")
            )[0][1].collect()
        }
        rows = [tuple(r)[:5] for r in rs.sample.collect()]
        assert len(rows) == 200 == len(set(rows))
        assert set(rows) <= full

    def test_empty_domain_raises(self, spark, rex):
        catalog, prog, domains = rex
        empty = spark.createDataFrame([], "v long")
        u = unify_rule(prog.rules[0], parse_ptuple("Qex(X, 4)"))
        with pytest.raises(ValueError, match="empty"):
            sample_whynot_rule(
                catalog, prog, u, n_s=5, seed=0,
                domains={"X": domains["X"], "Z": empty},
            )

    def test_no_unbound_variables(self, spark):
        catalog = Catalog(spark, graph_r(spark))
        prog = _edge_program()
        missing = sample_whynot_rule(
            catalog, prog, unify_rule(prog.rules[0], parse_ptuple("E(1, 3)")),
            n_s=10, seed=0,
        )
        assert missing.sample.columns == ["g1"]
        assert [tuple(r) for r in missing.sample.collect()] == [(False,)]
        assert missing.n_all_derivations == 1

    def test_theta_join_respected(self, rex):
        catalog, prog, domains = rex
        u = unify_rule(prog.rules[0], parse_ptuple("Qex(X, Y)"))
        rs = sample_whynot_rule(
            catalog, prog, u, n_s=40, seed=5,
            domains={**domains, "Y": domains["X"]},
        )
        rows = rs.sample.collect()
        assert 0 < len(rows) <= 40
        assert all(r["X"] < r["Y"] for r in rows)
        assert not {(r["X"], r["Y"]) for r in rows} & {(1, 3), (1, 4), (5, 6)}

    def test_existing_ground_head_is_empty(self, rex):
        catalog, prog, domains = rex
        for prog, question, doms in (
            (prog, "Qex(1, 4)", domains),  # one unbound variable, Z
            (_edge_program(), "E(1, 2)", None),  # none
        ):
            u = unify_rule(prog.rules[0], parse_ptuple(question))
            rs = sample_whynot_rule(catalog, prog, u, n_s=10, seed=0, domains=doms)
            assert rs.n_os == 0 and rs.est_whynot_size == 0.0
            want = [v.name for v in u.unbound] + ["g1", "g2"][: u.n_goals]
            assert rs.sample.columns == want
            assert rs.sample.count() == 0


class TestSampleSize:
    def test_airbnb_delivers_n_s(self, airbnb):
        # 2160 derivations, p_prov = 1: n_OS = 1001 distinct valuations
        # all survive, so the cut delivers exactly n_S
        catalog, prog = airbnb
        s = summarize_whynot(
            catalog, prog, parse_ptuple("AL(N, shared)"), k=3, n_s=1000,
            seed=1,
        )
        stats, = s.per_rule
        assert stats["n_os"] == 1001
        assert stats["n_sample"] == 1000
        assert stats["shortfall"] == 0

    def test_small_whynot_reports_shortfall(self, rex):
        catalog, prog, domains = rex
        s = summarize_whynot(
            catalog, prog, parse_ptuple("Qex(X, 4)"), k=2, n_s=30, seed=0,
            domains=domains,
        )
        stats, = s.per_rule
        assert stats["n_sample"] == 12  # all of Whynot
        assert stats["shortfall"] == 30 - 12
