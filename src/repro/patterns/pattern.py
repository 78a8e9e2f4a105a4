"""Driver-side derivation patterns (Def. 4) and the match relation.

A pattern fixes, for each *unbound* variable of a unified rule r_t, a
constant or a placeholder (encoded ``None``, mirroring the NULL encoding
of the LCA query — LCA never emits repeated placeholders, so placeholder
identity carries no information) plus the goal-annotation vector.

The positions bound by the question's p-tuple t are constants in every
pattern and cancel out of the informativeness formula of Def. 8:
info(p) = (C(p) − C(t)) / (arity(p) − C(t)) = (#constants among unbound
positions) / (#unbound positions).
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence


@dataclass(frozen=True)
class Pattern:
    """A derivation pattern for one rule, with its estimated completeness.

    ``args`` aligns with ``var_names`` (the unbound variables of the
    unified rule, paper order); ``None`` is a placeholder. ``cp`` is the
    sampling estimate of Def. 7, ``count`` the number of matching sample
    derivations it is based on.
    """

    rule_id: str
    var_names: tuple[str, ...]
    args: tuple
    goals: tuple[bool, ...]
    cp: float = 0.0
    count: int = 0

    def __post_init__(self) -> None:
        if len(self.args) != len(self.var_names):
            raise ValueError("args and var_names must align")

    def n_constants(self) -> int:
        return sum(1 for a in self.args if a is not None)

    def info(self) -> float:
        """Informativeness (Def. 8) — fraction of unbound positions fixed
        to constants. A fully-bound question (no unbound positions) has
        no placeholders to fill; its only pattern is maximally
        informative by convention (info = 1)."""
        if not self.args:
            return 1.0
        return self.n_constants() / len(self.args)

    def with_cp(self, cp: float, count: int) -> "Pattern":
        return replace(self, cp=cp, count=count)

    def pretty(self) -> str:
        """Human-readable form, e.g. ``r1(N, apt)-(T,F)``."""
        args = ", ".join(
            v if a is None else repr(a) for v, a in zip(self.var_names, self.args)
        )
        gs = ",".join("T" if g else "F" for g in self.goals)
        return f"{self.rule_id}({args})-({gs})"


def pattern_matches_derivation(
    p: Pattern, deriv_args: Sequence, deriv_goals: Sequence[bool]
) -> bool:
    """p ≼ d (Def. 5): placeholders match anything, constants must agree,
    goal annotations must be identical."""
    if tuple(deriv_goals) != p.goals:
        return False
    return all(a is None or a == d for a, d in zip(p.args, deriv_args))

