"""Driver-side LCA (Sec. 6) and match counting (Sec. 7) over a coded sample.

The sample of one rule has at most n_S rows and is already on the
driver, so the LCA generalization and the match counts run here in NumPy
instead of as the paper's Q_lca / Q_match SQL (kept as the Spark
``lca_candidates`` / ``match_counts`` for the traced replay).

:class:`CodedRows` integer-codes a rule's rows once into one ``int32``
table: column 0 holds the goal vector's code, column ``1 + j`` the code
of variable ``j``. Codes count from 1 in order of first appearance; code
0 is the placeholder. A ``None`` value also gets code 0, exactly as SQL
NULL behaves in Q_lca / Q_match: two NULLs generalize to a placeholder,
and a NULL matches only a placeholder.

On that table the LCA of two rows with equal goals is
``where(a == b, a, 0)``, and a candidate matches a row when their goal
codes are equal and, at every variable, the candidate holds 0 or the
row's code.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

#: Rows of a goal group generalized against all later rows at once.
LCA_BLOCK = 128
#: Candidate × row cells compared at once when counting matches.
MATCH_CELLS = 1 << 22


class CodedRows:
    """One rule's sample rows ``(args, goals)`` as an integer table."""

    def __init__(self, rows: Sequence[tuple[tuple, tuple[bool, ...]]]):
        m = len(rows[0][0]) if rows else 0
        self._goal_index: dict[tuple, int] = {}
        self._index: list[dict] = [{None: 0} for _ in range(m)]
        coded = []
        for args, goals in rows:
            coded.append(self._goal_index.setdefault(
                tuple(goals), len(self._goal_index) + 1
            ))
            for index, value in zip(self._index, args):
                coded.append(index.setdefault(value, len(index)))
        self.table = np.array(coded, dtype=np.int32).reshape(len(rows), 1 + m)
        self._goal_values = list(self._goal_index)
        self._values = [list(index) for index in self._index]

    def encode(self, args: tuple, goals: tuple[bool, ...]) -> np.ndarray | None:
        """The table row of a pattern (``None`` args are placeholders), or
        ``None`` when its goal vector or a constant never occurs in the
        sample, so it matches no row."""
        code = self._goal_index.get(tuple(goals))
        row = [code]
        for index, value in zip(self._index, args):
            row.append(index.get(value))
        if None in row:
            return None
        return np.array(row, dtype=np.int32)

    def decode(self, row: Sequence[int]) -> tuple[tuple, tuple[bool, ...]]:
        """``(args, goals)`` of a table row; code 0 decodes to ``None``."""
        goals = self._goal_values[row[0] - 1]
        return tuple(vs[c] for vs, c in zip(self._values, row[1:])), goals


def _unique_rows(a: np.ndarray) -> np.ndarray:
    """Distinct rows of a 2-D array, by sorting each row as one byte string."""
    a = np.ascontiguousarray(a)
    rows = a.view(np.dtype((np.void, a.dtype.itemsize * a.shape[1])))
    return np.unique(rows).view(a.dtype).reshape(-1, a.shape[1])


def lca(table: np.ndarray) -> np.ndarray:
    """Distinct LCA generalizations of all pairs of rows with equal goals
    (self-pairs included), as table rows."""
    found = [table[:0]]
    for goal in np.unique(table[:, 0]):
        group = _unique_rows(table[table[:, 0] == goal])
        for start in range(0, len(group), LCA_BLOCK):
            a = group[start:start + LCA_BLOCK, None, :]
            b = group[None, start:, :]
            pairs = np.where(a == b, a, 0).reshape(-1, table.shape[1])
            found.append(_unique_rows(pairs))
    return _unique_rows(np.concatenate(found))


def matches(candidates: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``out[i, r]``: candidate ``i`` matches row ``r``."""
    out = candidates[:, None, 0] == rows[None, :, 0]
    for j in range(1, candidates.shape[1]):
        c = candidates[:, j, None]
        out &= (c == 0) | (c == rows[None, :, j])
    return out


def match_counts(candidates: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Number of table rows each candidate matches, counted per goal group
    in blocks of at most ``MATCH_CELLS`` candidate × row cells."""
    counts = np.zeros(len(candidates), dtype=np.int64)
    for goal in np.unique(candidates[:, 0]):
        which = np.flatnonzero(candidates[:, 0] == goal)
        rows = table[table[:, 0] == goal]
        step = max(1, MATCH_CELLS // max(1, len(rows)))
        for start in range(0, len(which), step):
            block = which[start:start + step]
            counts[block] = matches(candidates[block], rows).sum(axis=1)
    return counts
