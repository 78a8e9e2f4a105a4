"""Derivation patterns: candidates (LCA), matching, driver-side objects."""
from repro.patterns.lca import lca_candidates, lca_reference  # noqa: F401
from repro.patterns.matching import (  # noqa: F401
    collect_patterns,
    match_counts,
    match_reference,
)
from repro.patterns.pattern import (  # noqa: F401
    Pattern,
    pattern_matches_derivation,
)
