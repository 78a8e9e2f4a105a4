"""Top-k summary construction (Sec. 8.2), scored exactly over the sample.

``topk_bestfirst`` is a best-first branch-and-bound over sets of
candidate patterns. The paper bounds cp(S) from pattern generalization
and disjointness (Sec. 8.1) because its sample lives in the DBMS; here
the sample is on the driver, so every candidate's match set is a bitset
over the sample rows and cp of any set is exact: each sample row carries
the weight ``rule_weight / n_rule`` and cp(S) is the weight of the union
of the members' bitsets, as in :meth:`SampleStore.cp_of_set`.

Sets grow one candidate at a time in index order. A partial set of size
j is bounded by harmonic(min(1, cp(U) + the k−j largest marginal cps of
the remaining candidates), (Σinfo + the k−j largest remaining infos)/k);
marginal cps only shrink as the union grows, so the bound is admissible.
Complete sets are scored exactly. A greedy completion seeds the
incumbent, and every popped set is also completed greedily (a "dive") so
that a good incumbent exists even when the pop budget runs out. The
search proves optimality when no queued bound beats the incumbent.

``topk_exact`` (brute force over all k-subsets) is the test oracle.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import numpy as np

from repro.patterns.pattern import Pattern
from repro.summarize.metrics import SampleStore, harmonic

MAX_POPS = 20_000
_EPS = 1e-12


@dataclass
class SearchResult:
    """Outcome of a top-k search; ``score`` is exact over the sample."""

    patterns: tuple[Pattern, ...]
    score: float
    proved_optimal: bool
    pops: int


def _match_matrix(
    pats: Sequence[Pattern], store: SampleStore
) -> tuple[np.ndarray, np.ndarray]:
    """One row per candidate: its match bitset laid over all rules' sample
    rows side by side, as 0/1 floats; plus the per-column weights.

    Sample rows that every candidate matches alike are merged into one
    column carrying their summed weight, and rows no candidate matches are
    dropped: neither changes the cp of any set, and the search then works
    on a few dozen columns instead of n_S.
    """
    offsets, weights, start = {}, [], 0
    for rule_id, rows in store.rules.items():
        n = len(rows.args)
        offsets[rule_id] = start
        weights.append(np.full(n, rows.weight / n if n else 0.0))
        start += n
    matrix = np.zeros((len(pats), start))
    for i, p in enumerate(pats):
        lo = offsets[p.rule_id]
        mask = store._mask(p)
        matrix[i, lo:lo + len(mask)] = mask
    weight = np.concatenate(weights)
    matched = matrix.any(axis=0)
    columns, which = np.unique(matrix[:, matched].T, axis=0, return_inverse=True)
    return columns.T.copy(), np.bincount(which.ravel(), weights=weight[matched])


def _harmonic(cp: np.ndarray, info: np.ndarray) -> np.ndarray:
    """Vectorized :func:`harmonic` for cp, info ≥ 0."""
    return 2 * cp * info / np.maximum(cp + info, 1e-300)


def _suffix_top_sums(values: np.ndarray, r: int, later: np.ndarray) -> np.ndarray:
    """out[t] = sum of the r largest of values[t+1:] for values ≥ 0 (a
    suffix shorter than r sums what it has); ``later`` is the strict upper
    triangle of an n×n boolean matrix."""
    n = len(values)
    r = min(r, n)
    if r <= 0:
        return np.zeros(n)
    return np.partition(later * values, n - r, axis=1)[:, n - r:].sum(axis=1)


def topk_bestfirst(
    patterns: Sequence[Pattern], k: int, store: SampleStore
) -> SearchResult:
    """Best-first search for the top-k summary, scored exactly on ``store``.

    Gives up after ``MAX_POPS`` expanded sets and then returns the best
    complete set found so far with ``proved_optimal=False``.
    """
    pats = list(patterns)
    if not pats:
        raise ValueError("no patterns to summarize")
    if len(pats) <= k:
        return SearchResult(tuple(pats), store.score_of_set(pats), True, 0)
    n = len(pats)
    matrix, weight = _match_matrix(pats, store)
    total = float(weight.sum())
    info = np.array([p.info() for p in pats])
    later = np.triu(np.ones((n, n), dtype=bool), 1)
    # info_top[r][i]: the r largest infos among the candidates after i
    info_top = [_suffix_top_sums(info, r, later) for r in range(k)]

    best: tuple[int, ...] = ()
    best_score = -1.0

    def dive(chosen: list[int], uncovered: np.ndarray) -> None:
        """Complete a set greedily by exact score; keep it if it is best."""
        nonlocal best, best_score
        cp = total - float(weight @ uncovered)
        info_sum = float(info[chosen].sum())
        while len(chosen) < k:
            gain = matrix @ (weight * uncovered)
            scores = _harmonic(cp + gain, (info_sum + info) / (len(chosen) + 1))
            scores[chosen] = -1.0
            i = int(np.argmax(scores))
            chosen.append(i)
            cp += float(gain[i])
            info_sum += float(info[i])
            uncovered = uncovered * (1.0 - matrix[i])
        score = harmonic(cp, info_sum / k)
        if score > best_score + _EPS:
            best, best_score = tuple(sorted(chosen)), score

    # heap entries: (-upper bound, candidate index tuple)
    heap: list[tuple[float, tuple[int, ...]]] = [(-2.0, ())]
    pops = 0
    while heap and -heap[0][0] > best_score + _EPS and pops < MAX_POPS:
        _, cand = heapq.heappop(heap)
        pops += 1
        uncovered = np.prod(1.0 - matrix[list(cand)], axis=0)
        dive(list(cand), uncovered)
        first = cand[-1] + 1 if cand else 0
        r = k - len(cand) - 1  # members a child still needs after itself
        last = n - r  # a child must leave room to complete
        if r == 0 or first >= last:
            continue  # complete children: the dive already took the best
        cp = total - float(weight @ uncovered)
        info_sum = float(info[list(cand)].sum())
        gain = matrix[first:] @ (weight * uncovered)
        cp_ub = np.minimum(
            1.0, cp + gain + _suffix_top_sums(gain, r, later[first:, first:])
        )
        info_ub = (info_sum + info[first:] + info_top[r][first:]) / k
        ub = _harmonic(cp_ub, info_ub)[: last - first]
        for t in np.flatnonzero(ub > best_score + _EPS):
            heapq.heappush(heap, (-float(ub[t]), cand + (first + int(t),)))

    proved = not heap or -heap[0][0] <= best_score + _EPS
    chosen = tuple(pats[i] for i in best)
    return SearchResult(chosen, store.score_of_set(chosen), proved, pops)


def topk_exact(
    patterns: Sequence[Pattern], k: int, store: SampleStore
) -> SearchResult:
    """Brute-force argmax of the exact-over-sample score (test oracle)."""
    pats = list(patterns)
    kk = min(k, len(pats))
    best: tuple[Pattern, ...] | None = None
    best_score = float("-inf")
    for combo in combinations(pats, kk):
        s = store.score_of_set(combo)
        if s > best_score:
            best, best_score = combo, s
    assert best is not None
    return SearchResult(best, best_score, True, 0)
