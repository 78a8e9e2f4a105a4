"""The driver-side LCA + match kernel vs the pure-Python references
(no Spark)."""
import random

import numpy as np
import pytest

from repro.patterns import kernel
from repro.patterns.kernel import CodedRows, lca, match_counts
from repro.patterns.lca import lca_reference
from repro.patterns.matching import match_reference
from repro.patterns.pattern import Pattern, pattern_matches_derivation
from repro.summarize.metrics import SampleStore


def _rows(seed, n, m, values, goal_vectors):
    rng = random.Random(seed)
    return [
        (tuple(rng.choice(values) for _ in range(m)), rng.choice(goal_vectors))
        for _ in range(n)
    ]


GOALS_3 = [(True, True, False), (True, False, False), (False, True, True)]

CASES = {
    # several goal groups; the last goal of r(...) :- A, B, ¬C is negated
    "goal_groups": _rows(0, 60, 3, [1, 2, 3, 4], GOALS_3),
    "m0": _rows(1, 9, 0, [], GOALS_3),
    "none_mixed_dupes": _rows(2, 50, 4, [None, 1, 2, "a", "b"], GOALS_3[:2])
    + [((None, 1, "a", 2), GOALS_3[0])] * 3,
    "single_row": [((1, "x"), (True,))],
    "empty": [],
    "all_equal": [((5, 5), (False,))] * 7,
    # 300 rows: neither a multiple of LCA_BLOCK nor of the patched sizes
    "many_rows": _rows(3, 300, 3, [0, 1, 2, 3, "z"], GOALS_3),
}


def _kernel_counts(rows):
    coded = CodedRows(rows)
    cands = lca(coded.table)
    counts = match_counts(cands, coded.table)
    out = {coded.decode(row): n for row, n in zip(cands.tolist(), counts.tolist())}
    assert len(out) == len(cands)  # the candidates are distinct
    return out


@pytest.fixture(params=[None, (7, 50)], ids=["default_blocks", "small_blocks"])
def blocks(request, monkeypatch):
    if request.param:
        monkeypatch.setattr(kernel, "LCA_BLOCK", request.param[0])
        monkeypatch.setattr(kernel, "MATCH_CELLS", request.param[1])


@pytest.mark.parametrize("name", sorted(CASES))
def test_equals_references(name, blocks):
    rows = CASES[name]
    got = _kernel_counts(rows)
    assert set(got) == lca_reference(rows)
    assert got == match_reference(sorted(got, key=repr), rows)


@pytest.mark.parametrize("name", sorted(CASES))
def test_mask_equals_pattern_matches_derivation(name):
    rows = CASES[name]
    m = len(rows[0][0]) if rows else 0
    names = tuple(f"V{i}" for i in range(m))
    store = SampleStore()
    store.add_rule("r", rows, 1.0)
    patterns = [Pattern("r", names, a, g) for a, g in _kernel_counts(rows)]
    # constants and goal vectors that never occur in the sample
    patterns.append(Pattern("r", names, ("absent",) * m, (True, True, False)))
    patterns.append(Pattern("r", names, (None,) * m, (False, False, False)))
    for p in patterns:
        want = [pattern_matches_derivation(p, a, g) for a, g in rows]
        assert store._mask(p).tolist() == want


def test_none_is_placeholder_code():
    coded = CodedRows([((None, 1), (True,)), ((2, None), (True,))])
    assert coded.table.tolist() == [[1, 0, 1], [1, 1, 0]]
    assert coded.decode([1, 0, 1]) == ((None, 1), (True,))


def test_codes_first_appearance():
    coded = CodedRows([(("b", 9), (False,)), (("a", 9), (True,)), (("b", 8), (False,))])
    assert coded.table.tolist() == [[1, 1, 1], [2, 2, 1], [1, 1, 2]]
    assert coded.encode(("a", None), (True,)).tolist() == [2, 2, 0]
    assert coded.encode(("c", None), (True,)) is None
    assert coded.encode(("a", None), (True, True)) is None


def test_match_counts_empty_candidates():
    coded = CodedRows(CASES["goal_groups"])
    none = np.zeros((0, coded.table.shape[1]), dtype=np.int32)
    assert match_counts(none, coded.table).tolist() == []
