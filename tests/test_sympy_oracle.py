"""Differential checks of the stabilizer-chain queries against sympy.

sympy is not a dependency of permdeg; these tests run only where
``sympy.combinatorics`` imports.  sympy composes permutations left to right
like permdeg, so generators pass over as plain image lists.
"""

import random

import pytest

combinatorics = pytest.importorskip("sympy.combinatorics")

from permdeg.groups import PermutationGroup
from permdeg.perm import Permutation, parse_cycles


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


def test_trace_closure_sizes_match_sympy_centralizers():
    # every E that the counting traces read has |H : C_H(v)| elements, H
    # the pointwise stabilizer of the trace's own alpha (double) or alpha
    # and beta (triple, quadruple) and v its seed (u, or the relocated v),
    # by sympy's own stabilizer and centralizer, whether the trace closed E
    # or read it from an orbit an earlier trace closed
    from permdeg import catalog, verify

    checked = 0
    for name in ("M11", "M12", "M23", "M24", "PGL2_13", "PSL2_13"):
        group = catalog.parse_group_name(name)
        n = group.degree
        full = combinatorics.PermutationGroup(
            [combinatorics.Permutation(list(g.images)) for g in group.generators])
        for seed in range(4):
            for theorem in ("double", "triple", "quadruple"):
                report = verify.TRACES[theorem](group, rng=random.Random(seed) if seed else None)
                if not report.applicable:
                    continue
                w = report.witnesses
                alpha, beta = int(w["alpha"]) - 1, int(w["beta"]) - 1
                pts = [alpha] if theorem == "double" else [alpha, beta]
                v = parse_cycles(w["u" if theorem == "double" else "v"], n)
                h = full.pointwise_stabilizer(pts)
                centralizer = h.centralizer(combinatorics.Permutation(list(v.images)))
                assert report.sizes["orbit"] == h.order() // centralizer.order(), (
                    name, seed, theorem)
                checked += 1
    # all three traces on the Mathieu groups, the double and triple traces
    # on PGL2_13, and the double trace on PSL2_13
    assert checked == 60


@pytest.mark.parametrize("name", ["M11", "M12", "M23", "M24", "PGL2_13", "PSL2_13"])
def test_stabilizer_generators_generate_sympy_pointwise_stabilizer(name):
    # the level pairs, which the traces and the counts suite carry onto
    # their points, fix the () chain's first k base points and generate a
    # group of the order of G_(base[:k]), by sympy's own pointwise stabilizer
    from permdeg import catalog

    group = catalog.parse_group_name(name)
    full = combinatorics.PermutationGroup(
        [combinatorics.Permutation(list(g.images)) for g in group.generators])
    base = list(group.chain().base)
    for k in (1, 2):
        pair = group._level_pair(k)
        assert all(g.images[a] == a for g in pair for a in base[:k]), (k, pair)
        generated = combinatorics.PermutationGroup(
            [combinatorics.Permutation(list(g.images)) for g in pair])
        order = group.pointwise_stabilizer(base[:k]).order
        assert generated.order() == order == full.pointwise_stabilizer(base[:k]).order(), k


@pytest.mark.parametrize("name", ["S5", "S6", "S7", "S8", "A5", "A6", "A7", "A8", "M11",
                                  "M12", "M23", "M24", "PGL2_13", "PSL2_13"])
def test_catalog_orders_and_transitivity_match_sympy(name):
    from permdeg import catalog

    group = catalog.parse_group_name(name)
    theirs = combinatorics.PermutationGroup(
        [combinatorics.Permutation(list(g.images)) for g in group.generators])
    assert group.order == theirs.order()
    if name != "M24":
        assert group.transitivity_degree() == theirs.transitivity_degree
        return
    # sympy's transitivity_degree takes about 10 s on M24, so count the
    # leading k whose stabilizer of the points 0..k-1 is transitive on the rest
    n = group.degree
    t = 0
    while t < n and len(theirs.pointwise_stabilizer(list(range(t))).orbit(t)) == n - t:
        t += 1
    assert group.transitivity_degree() == t == 5


@pytest.mark.parametrize("name", ["M11", "M12", "M23", "M24", "PGL2_13", "PSL2_13", "PSL2_31"])
def test_pair_orbit_sizes_match_sympy(name):
    # the counts suite labels ordered pairs (diagonal included) by their
    # orbits under the level-k pair of the () chain; those orbits must be
    # the ones sympy finds under the pointwise stabilizer of the chain's
    # first k base points
    from permdeg import catalog, verify

    group = catalog.parse_group_name(name)
    n = group.degree
    full = combinatorics.PermutationGroup(
        [combinatorics.Permutation(list(g.images)) for g in group.generators])
    base = group.chain().base
    for k in (1, 2):
        _, ours = verify._pair_labels([g.images for g in group._level_pair(k)], n)
        stabilizer = full.pointwise_stabilizer(list(base[:k]))
        unvisited = {(a, c) for a in range(n) for c in range(n)}
        theirs = []
        while unvisited:
            orbit = stabilizer.orbit(min(unvisited), action="tuples")
            theirs.append(len(orbit))
            unvisited -= orbit
        assert sorted(ours) == sorted(theirs), k
