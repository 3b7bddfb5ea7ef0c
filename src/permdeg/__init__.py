"""Permutation groups, stabilizer chains, minimal degree and exact count checks.

``permdeg.verify`` is imported on first use, so commands that never verify
anything do not pay for it.
"""

import importlib

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
from . import catalog

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


def __getattr__(name):
    # PEP 562 hook, reached once: the import binds permdeg.verify.  A
    # ``from . import verify`` here would re-enter the hook and recurse.
    if name == "verify":
        return importlib.import_module(".verify", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
