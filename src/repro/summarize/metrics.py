"""Quality metrics for summaries (Sec. 3.4) evaluated over the sample.

The score of a summary S is the harmonic mean of completeness cp(S) and
informativeness info(S). cp(S) needs the size of the *union* of match
sets; :class:`SampleStore` holds the per-rule sample derivations on the
driver and computes that union exactly over the sample with cached
per-pattern match bitsets, from the same match kernel that counts the
LCA candidates' matches (``repro.patterns.kernel``). For multi-rule (UCQ)
questions each rule's sample is weighted by the rule's (estimated) share
of |PROV(Φ)|.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from repro.patterns.kernel import CodedRows, matches
from repro.patterns.pattern import Pattern


def harmonic(cp: float, info: float) -> float:
    """sc(S) = 2·cp·info / (cp + info); 0 when both are 0."""
    if cp + info == 0:
        return 0.0
    return 2.0 * cp * info / (cp + info)


def info_of_set(patterns: Iterable[Pattern]) -> float:
    """info(S): average informativeness of the member patterns."""
    ps = list(patterns)
    if not ps:
        return 0.0
    return sum(p.info() for p in ps) / len(ps)


@dataclass
class _RuleRows:
    args: list[tuple]
    goals: list[tuple[bool, ...]]
    weight: float
    coded: CodedRows


@dataclass
class SampleStore:
    """Driver-side sample of PROV(Φ), grouped by rule, with rule weights
    summing to 1 (a single-rule question has weight 1.0)."""

    rules: dict[str, _RuleRows] = field(default_factory=dict)
    _mask_cache: dict[Pattern, np.ndarray] = field(default_factory=dict, repr=False)

    def add_rule(
        self,
        rule_id: str,
        rows: Sequence[tuple[tuple, tuple[bool, ...]]],
        weight: float,
    ) -> None:
        self.rules[rule_id] = _RuleRows(
            args=[r[0] for r in rows],
            goals=[r[1] for r in rows],
            weight=weight,
            coded=CodedRows(rows),
        )

    def normalize_weights(self) -> None:
        total = sum(r.weight for r in self.rules.values())
        if total > 0:
            for r in self.rules.values():
                r.weight /= total

    def n_rows(self, rule_id: str) -> int:
        return len(self.rules[rule_id].args)

    def _mask(self, p: Pattern) -> np.ndarray:
        """Boolean vector over the pattern's rule-sample: which sample
        derivations match p (cached — the expensive part of cp(S))."""
        cached = self._mask_cache.get(p)
        if cached is None:
            coded = self.rules[p.rule_id].coded
            row = coded.encode(p.args, p.goals)
            if row is None:
                cached = np.zeros(len(coded.table), dtype=bool)
            else:
                cached = matches(row[None, :], coded.table)[0]
            self._mask_cache[p] = cached
        return cached

    def cp_of_pattern(self, p: Pattern) -> float:
        rows = self.rules[p.rule_id]
        n = len(rows.args)
        if n == 0:
            return 0.0
        return rows.weight * float(self._mask(p).sum()) / n

    def cp_of_set(self, patterns: Iterable[Pattern]) -> float:
        """cp(S) over the sample: per rule, the fraction of sample
        derivations matched by ≥ 1 pattern, weighted by rule share."""
        by_rule: dict[str, list[Pattern]] = {}
        for p in patterns:
            by_rule.setdefault(p.rule_id, []).append(p)
        total = 0.0
        for rule_id, ps in by_rule.items():
            rows = self.rules[rule_id]
            n = len(rows.args)
            if n == 0:
                continue
            union = np.zeros(n, dtype=bool)
            for p in ps:
                union |= self._mask(p)
            total += rows.weight * float(union.sum()) / n
        return total

    def score_of_set(self, patterns: Iterable[Pattern]) -> float:
        ps = list(patterns)
        return harmonic(self.cp_of_set(ps), info_of_set(ps))
