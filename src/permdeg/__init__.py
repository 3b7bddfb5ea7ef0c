"""Permutation groups, stabilizer chains, minimal degree and exact count checks."""

from .perm import (
    CycleParseError,
    DegreeMismatchError,
    Permutation,
    format_cycles,
    parse_cycles,
    prime_order_witness,
)
from .groups import (
    CapExceeded,
    PermutationGroup,
    StabilizerChain,
    build_chain,
    conjugation_closure,
)
from .mindeg import MinDegResult, minimal_degree, minimal_degree_backtrack, minimal_degree_exhaustive
from . import catalog, verify

__version__ = "0.1.0"

__all__ = [
    "CapExceeded",
    "CycleParseError",
    "DegreeMismatchError",
    "MinDegResult",
    "Permutation",
    "PermutationGroup",
    "StabilizerChain",
    "build_chain",
    "catalog",
    "conjugation_closure",
    "format_cycles",
    "minimal_degree",
    "minimal_degree_backtrack",
    "minimal_degree_exhaustive",
    "parse_cycles",
    "prime_order_witness",
    "verify",
]
