"""Minimal degree search: a stabilizer-prefix backtrack, with an exhaustive
scan kept as its reference oracle.

The minimal degree of a nontrivial group is the least number of points moved
by a nonidentity element, equivalently n minus the largest number of points
such an element fixes.  ``minimal_degree`` always runs the backtrack; the
exhaustive scan is called directly (tests, ``mindeg --method exhaustive``).
``minimal_degree`` searches once per group and keeps the result only while
the group lives, in a ``weakref.WeakKeyDictionary`` here, so ``groups``
holds no minimal-degree state.
"""

from __future__ import annotations

import weakref
from collections import namedtuple

from .groups import DEFAULT_CAP, CapExceeded, PermutationGroup
from .perm import Permutation

# m, a nonidentity witness moving exactly m points, the method that found
# it, and the elements or search nodes visited and the nodes pruned
MinDegResult = namedtuple("MinDegResult",
                          "m witness method elements_visited nodes_pruned")


def minimal_degree_exhaustive(group: PermutationGroup,
                              order_cap: int = DEFAULT_CAP) -> MinDegResult:
    """Scan every nonidentity element; the witness is the lexicographically
    least image sequence among those of minimal support."""
    order = group.order
    if order <= 1:
        raise ValueError("minimal degree is undefined for the trivial group")
    if order > order_cap:
        raise CapExceeded(f"group order {order} exceeds exhaustive cap {order_cap}")
    best: tuple[int, tuple[int, ...]] | None = None
    visited = 0
    for g in group.elements():
        visited += 1
        moved = g.moved_count()
        if moved == 0:
            continue
        key = (moved, g.images)
        if best is None or key < best:
            best = key
    if best is None:
        raise RuntimeError(f"{group.label}: no nonidentity element in a group of order {order}")
    return MinDegResult(best[0], Permutation(best[1]), "exhaustive", visited, 0)


def _fixed_closure(group: PermutationGroup) -> frozenset[int]:
    gens = group.generators
    return frozenset(a for a in range(group.degree)
                     if all(g.images[a] == a for g in gens))


def _nontrivial_orbit_reps(group: PermutationGroup) -> list[int]:
    return sorted(min(orb) for orb in group.orbit_partition() if len(orb) > 1)


def minimal_degree_backtrack(group: PermutationGroup) -> MinDegResult:
    """Maximize the fixed-point count of a nonidentity element.

    Depth-first search over sets of points forced to stay fixed: a node is a
    pointwise stabilizer, and the search descends only while it is
    nontrivial, since a nonidentity element fixing k points exists exactly
    when some k-point pointwise stabilizer is nontrivial.  Extension
    candidates are one representative per stabilizer orbit (conjugating by a
    stabilizer element carries completions of one choice onto the other).
    ``nodes_pruned`` counts children skipped because their stabilizer is
    trivial or their fixed-point closure was already seen.  The node with the
    largest fixed-point closure gives m = n - max fix exactly; any
    nonidentity element of its stabilizer is a witness of support exactly m.
    """
    if group.order <= 1:
        raise ValueError("minimal degree is undefined for the trivial group")
    n = group.degree
    visited = 0
    pruned = 0

    root_fix = _fixed_closure(group)
    best_fix = root_fix
    best_stab = group
    seen: set[frozenset[int]] = {root_fix}
    stack: list[tuple[PermutationGroup, frozenset[int]]] = [(group, root_fix)]

    while stack:
        stab, fix_set = stack.pop()
        visited += 1
        if len(fix_set) > len(best_fix):
            best_fix = fix_set
            best_stab = stab
        for rep in reversed(_nontrivial_orbit_reps(stab)):
            child = stab.pointwise_stabilizer([rep])
            if child.order == 1:
                pruned += 1
                continue
            child_fix = _fixed_closure(child)
            if child_fix in seen:
                pruned += 1
                continue
            seen.add(child_fix)
            stack.append((child, child_fix))

    # the root has a nonidentity generator (its order is above 1), and every
    # other node is generated by strong generators, none of them the identity
    witness = min((g for g in best_stab.generators if not g.is_identity()),
                  key=lambda g: g.images)
    m = n - len(best_fix)
    if witness.moved_count() != m:
        raise RuntimeError(f"{group.label}: witness moves {witness.moved_count()} "
                           f"points, expected {m}")
    return MinDegResult(m, witness, "backtrack", visited, pruned)


# group -> its backtrack result, dropped with the group
_results: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def minimal_degree(group: PermutationGroup) -> MinDegResult:
    """The backtrack result, searched once per group."""
    result = _results.get(group)
    if result is None:
        result = _results[group] = minimal_degree_backtrack(group)
    return result
