"""Tests for the best-first top-k search (Sec. 8.2), validated against
brute force with exact-over-sample scoring on random instances."""
import random

import pytest

from repro.patterns.pattern import Pattern
from repro.summarize import topk
from repro.summarize.metrics import SampleStore, harmonic, info_of_set
from repro.summarize.pipeline import PatternInputs, select_topk
from repro.summarize.topk import topk_bestfirst, topk_exact
from tests.test_patterns_pure import mk


def _store(rule_id, rows, weight=1.0):
    store = SampleStore()
    store.add_rule(rule_id, rows, weight)
    return store


def _random_instance(seed, n_rows=40, arity=3, dom=4, rule_id="r"):
    """A random sample + its LCA patterns with exact cp estimates —
    the realistic search input (estimates consistent with the store)."""
    rng = random.Random(seed)
    rows = [
        (
            tuple(rng.randrange(dom) for _ in range(arity)),
            (rng.random() < 0.7, rng.random() < 0.5),
        )
        for _ in range(n_rows)
    ]
    from repro.patterns.lca import lca_reference
    from repro.patterns.matching import match_reference

    pats = sorted(lca_reference(rows), key=repr)
    counts = match_reference(pats, rows)
    patterns = [
        Pattern(
            rule_id=rule_id,
            var_names=tuple(f"V{i}" for i in range(arity)),
            args=args,
            goals=goals,
            cp=counts[(args, goals)] / len(rows),
            count=counts[(args, goals)],
        )
        for args, goals in pats
    ]
    return patterns, _store(rule_id, rows)


def _assert_exact(pats, k, store):
    bf = topk_bestfirst(pats, k, store)
    ex = topk_exact(pats, k, store)
    assert bf.proved_optimal
    assert len(bf.patterns) == min(k, len(pats))
    assert bf.score == store.score_of_set(bf.patterns)
    assert bf.score == pytest.approx(ex.score)


class TestBestFirst:
    def test_fewer_patterns_than_k(self):
        ps = [mk((1, None), cp=0.4)]
        store = _store("rex", [((1, 0), (False, False)), ((2, 0), (False, False))])
        r = topk_bestfirst(ps, 3, store)
        assert set(r.patterns) == set(ps)
        assert r.proved_optimal
        assert r.score == store.score_of_set(ps)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            topk_bestfirst([], 3, SampleStore())

    def test_returns_k_patterns(self):
        patterns, store = _random_instance(0)
        r = topk_bestfirst(patterns[:20], 3, store)
        assert len(r.patterns) == 3

    @pytest.mark.parametrize("seed", range(6))
    def test_true_score_within_bounds(self, seed):
        # the reported score is exact, so the bounds collapse onto it
        patterns, store = _random_instance(seed)
        r = topk_bestfirst(patterns[:15], 3, store)
        assert store.score_of_set(r.patterns) == r.score

    @pytest.mark.parametrize("seed", range(6))
    def test_close_to_exact_optimum(self, seed):
        # the search scores sets exactly, so it must match brute force
        patterns, store = _random_instance(seed, n_rows=25)
        pats = sorted(patterns, key=lambda p: (-p.cp, repr(p.args)))[:12]
        for k in (1, 2, 3):
            _assert_exact(pats, k, store)

    def test_two_rules_unequal_weights(self):
        pa, sa = _random_instance(8, n_rows=20)
        pb, sb = _random_instance(9, n_rows=30, arity=2, rule_id="s")
        store = SampleStore()
        for rule_id, weight, other in (("r", 0.7, sa), ("s", 0.3, sb)):
            rows = other.rules[rule_id]
            store.add_rule(rule_id, list(zip(rows.args, rows.goals)), weight)
        pats = pa[:8] + pb[:8]
        for k in (1, 2, 3):
            _assert_exact(pats, k, store)

    def test_k_one_picks_best_singleton(self):
        patterns, store = _random_instance(3)
        r = topk_bestfirst(patterns, 1, store)
        best = max(patterns, key=lambda p: store.score_of_set([p]))
        assert r.score == pytest.approx(store.score_of_set([best]))

    def test_pop_budget_falls_back(self, monkeypatch):
        monkeypatch.setattr(topk, "MAX_POPS", 5)
        patterns, store = _random_instance(4)
        r = topk_bestfirst(patterns, 3, store)
        assert r.pops == 5
        assert not r.proved_optimal
        assert len(r.patterns) == 3  # the best set found so far
        assert r.score == store.score_of_set(r.patterns)

    def test_disjoint_patterns_proved(self):
        # all-constant patterns: info 1.0 each, disjoint match sets
        sizes = {1: 6, 2: 6, 3: 4, 4: 2, 5: 1, 6: 1}
        rows = [((v, v), (False, False)) for v, c in sizes.items() for _ in range(c)]
        store = _store("rex", rows)
        ps = [mk((v, v), cp=sizes[v] / 20) for v in range(1, 6)]
        r = topk_bestfirst(ps, 3, store)
        assert r.proved_optimal
        assert {p.args for p in r.patterns} == {(1, 1), (2, 2), (3, 3)}
        assert r.score == pytest.approx(harmonic(0.8, 1.0))


class TestSelectTopk:
    def test_cap_is_independent_of_input_order(self):
        # 80 candidates with equal singleton scores: the 64-candidate cap
        # cuts through the tie
        rows = [((i, i % 3), (True,)) for i in range(80)]
        store = _store("r", rows)
        pats = [
            Pattern("r", ("A", "B"), (i, None), (True,), cp=1 / 80, count=1)
            for i in range(80)
        ]
        picks = set()
        for seed in range(5):
            perm = list(pats)
            random.Random(seed).shuffle(perm)
            r = select_topk(PatternInputs(perm, store, len(perm), {}, []), 3)
            picks.add(r.patterns)
        assert len(picks) == 1


class TestExact:
    def test_info_consistency(self):
        patterns, store = _random_instance(7, n_rows=20)
        ex = topk_exact(patterns[:8], 2, store)
        assert store.score_of_set(ex.patterns) == pytest.approx(ex.score)
        assert 0.0 <= info_of_set(ex.patterns) <= 1.0
