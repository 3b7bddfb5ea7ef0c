"""Differential checks of the stabilizer-chain queries against sympy.

sympy is not a dependency of permdeg; these tests run only where
``sympy.combinatorics`` imports.  sympy composes permutations left to right
like permdeg, so generators pass over as plain image lists.
"""

import random

import pytest

combinatorics = pytest.importorskip("sympy.combinatorics")

from permdeg.groups import PermutationGroup
from permdeg.perm import Permutation


def _generator(rng: random.Random, n: int) -> Permutation:
    # a random permutation of a random subset, so that intransitive and
    # small groups occur as well as the symmetric and alternating groups
    points = rng.sample(range(n), rng.randint(2, n))
    targets = points[:]
    rng.shuffle(targets)
    images = list(range(n))
    for a, b in zip(points, targets):
        images[a] = b
    return Permutation(images)


def _seeded_groups(seed: int, count: int):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(2, 9)
        gens = [_generator(rng, n) for _ in range(rng.randint(2, 3))]
        ours = PermutationGroup(gens, n)
        theirs = combinatorics.PermutationGroup(
            [combinatorics.Permutation(list(g.images)) for g in gens])
        yield rng, n, ours, theirs


def test_order_membership_and_orbits_match_sympy():
    for rng, n, ours, theirs in _seeded_groups(11, 40):
        assert ours.order == theirs.order()
        assert set(ours.orbit_partition()) == {frozenset(o) for o in theirs.orbits()}
        for _ in range(10):
            p = Permutation(rng.sample(range(n), n))
            assert ours.contains(p) == theirs.contains(combinatorics.Permutation(list(p.images)))
            q = ours.random_element(rng)
            assert theirs.contains(combinatorics.Permutation(list(q.images)))


def test_pointwise_stabilizers_match_sympy():
    for rng, n, ours, theirs in _seeded_groups(12, 40):
        for _ in range(4):
            points = rng.sample(range(n), rng.randint(1, min(3, n)))
            assert (ours.pointwise_stabilizer(points).order
                    == theirs.pointwise_stabilizer(points).order())


def test_transporter_exists_exactly_on_sympy_tuple_orbit():
    for rng, n, ours, theirs in _seeded_groups(13, 40):
        for _ in range(4):
            k = rng.randint(1, min(3, n))
            src = tuple(rng.sample(range(n), k))
            # sympy takes a list here and reports the orbit of one point as
            # bare points
            reachable = {r if isinstance(r, tuple) else (r,)
                         for r in theirs.orbit(list(src), action="tuples")}
            for dst in (tuple(rng.sample(range(n), k)), rng.choice(sorted(reachable))):
                t = ours.transporter(src, dst)
                assert (t is not None) == (dst in reachable)
                if t is not None:
                    assert ours.contains(t)
                    assert tuple(t.images[a] for a in src) == dst
