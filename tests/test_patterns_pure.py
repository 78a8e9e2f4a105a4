"""Driver-side pattern semantics: matching, informativeness, and the
pure-Python LCA/match references (Examples 7–9 of the paper)."""
import pytest

from repro.patterns.lca import lca_reference
from repro.patterns.matching import match_reference
from repro.patterns.pattern import Pattern, pattern_matches_derivation


def mk(args, goals=(False, False), rule_id="rex", cp=0.0, count=0):
    return Pattern(
        rule_id=rule_id,
        var_names=tuple(f"V{i}" for i in range(len(args))),
        args=tuple(args),
        goals=tuple(goals),
        cp=cp,
        count=count,
    )


class TestPattern:
    def test_args_mismatch_raises(self):
        with pytest.raises(ValueError):
            Pattern("r", ("X",), (1, 2), (True,))

    def test_n_constants(self):
        assert mk((None, 3)).n_constants() == 1
        assert mk((None, None)).n_constants() == 0
        assert mk((1, 2)).n_constants() == 2

    def test_info_airbnb_p1(self):
        # p1 = r1(N, shared, I, apt, E, P): unbound positions are
        # (N, I, T, E, P); one constant (apt) among 5 → info = 0.2 (Def. 8)
        p = mk((None, None, "apt", None, None), goals=(True, False))
        assert p.info() == pytest.approx(0.2)

    def test_info_all_placeholders(self):
        assert mk((None, None)).info() == 0.0

    def test_info_all_constants(self):
        assert mk((1, 2)).info() == 1.0

    def test_info_empty_args_convention(self):
        assert mk(()).info() == 1.0

    def test_pretty(self):
        p = mk((None, 3), goals=(True, False))
        assert p.pretty() == "rex(V0, 3)-(T,F)"

    def test_with_cp(self):
        p = mk((None, 3)).with_cp(0.5, 7)
        assert p.cp == 0.5 and p.count == 7

    def test_hashable(self):
        assert len({mk((None, 3)), mk((None, 3)), mk((3, None))}) == 2


class TestMatches:
    def test_example_d1_matches_p1(self):
        # Sec. 3.2: p1 ≼ d1 with matching goal annotations
        p = mk((None, None, "apt", None, None), goals=(True, False))
        d_args = ("central place", 8403, "apt", "east", 130)
        assert pattern_matches_derivation(p, d_args, (True, False))

    def test_goal_mismatch(self):
        p = mk((None, None, "apt", None, None), goals=(True, False))
        d_args = ("central place", 8403, "apt", "east", 130)
        assert not pattern_matches_derivation(p, d_args, (False, False))

    def test_constant_mismatch(self):
        p = mk((None, None, "apt", None, None), goals=(True, False))
        d_args = ("plum", 9211, "house", "adams", 40)
        assert not pattern_matches_derivation(p, d_args, (True, False))

    def test_all_placeholders_match_everything(self):
        p = mk((None, None))
        assert pattern_matches_derivation(p, (1, 2), (False, False))
        assert pattern_matches_derivation(p, ("a", "b"), (False, False))

    def test_example9_pattern_matches(self):
        # Ex. 9: p = rex(2, Z)-(F,F) matches d1, d2, d5, d6 of the
        # hypothetical provenance, not d3, d4 (goals (T,F))
        p = mk((2, None), goals=(False, False))
        prov = [
            ((2, 1), (False, False)), ((2, 2), (False, False)),
            ((2, 3), (True, False)), ((2, 4), (True, False)),
            ((2, 5), (False, False)), ((2, 6), (False, False)),
        ]
        matched = [d for d in prov if pattern_matches_derivation(p, *d)]
        assert len(matched) == 4


class TestLcaReference:
    def test_example8(self):
        # LCA of rex(2,1)-(F,F) and rex(2,2)-(F,F) is rex(2, Z)-(F,F)
        rows = [((2, 1), (False, False)), ((2, 2), (False, False))]
        out = lca_reference(rows)
        assert ((2, None), (False, False)) in out
        # self-pairs contribute the fully-constant patterns
        assert ((2, 1), (False, False)) in out
        assert ((2, 2), (False, False)) in out
        assert len(out) == 3

    def test_different_goals_not_paired(self):
        rows = [((2, 1), (False, False)), ((2, 2), (True, False))]
        out = lca_reference(rows)
        assert ((2, None), (False, False)) not in out
        assert ((2, None), (True, False)) not in out
        assert len(out) == 2  # only the two self-pairs

    def test_quadratic_bound(self):
        rows = [((i, i % 3), (False,)) for i in range(10)]
        out = lca_reference(rows)
        assert len(out) <= 10 * 11 // 2

    def test_empty(self):
        assert lca_reference([]) == set()


class TestMatchReference:
    def test_counts(self):
        rows = [
            ((2, 1), (False, False)), ((2, 2), (False, False)),
            ((3, 1), (False, False)), ((2, 4), (True, False)),
        ]
        pats = [((2, None), (False, False)), ((None, 1), (False, False)),
                ((None, None), (True, False))]
        out = match_reference(pats, rows)
        assert out[((2, None), (False, False))] == 2
        assert out[((None, 1), (False, False))] == 2
        assert out[((None, None), (True, False))] == 1

    def test_lca_patterns_match_generators(self):
        # every LCA pattern must match >= 1 derivation (its generators)
        rows = [((i % 4, i % 2, "x"), (i % 2 == 0,)) for i in range(12)]
        pats = lca_reference(rows)
        counts = match_reference(sorted(pats, key=repr), rows)
        assert all(c >= 1 for c in counts.values())
