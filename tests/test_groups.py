import functools
import pickle
import random
from itertools import islice, permutations

import pytest
from hypothesis import given, strategies as st

from permdeg.groups import (
    CapExceeded,
    PermutationGroup,
    build_chain,
    conjugation_closure,
)
from permdeg.perm import DegreeMismatchError, Permutation, parse_cycles
from permdeg import catalog, groups
from permdeg.mindeg import minimal_degree
from permdeg.verify import double_transitive_trace

from brute import (all_tuples, build_chain_eager, build_chain_tuples, conjugation_bfs,
                   mobius_group, mulclose, tuple_orbit_transitivity)


def sym4():
    return PermutationGroup([parse_cycles("(1,2)", 4), parse_cycles("(1,2,3,4)", 4)], 4, "S4")


def cyclic(n):
    return PermutationGroup([parse_cycles("(" + ",".join(map(str, range(1, n + 1))) + ")", n)], n, f"C{n}")


def operand_type(degree):
    # chains and closures hold byte strings up to 256 points, image tuples above
    return bytes if degree <= 256 else tuple


def images_of(orbit):
    # a closure's elements as image tuples, in order
    return tuple(map(tuple, orbit))


def assert_chain_equals(got, expected):
    """A library chain against an oracle's (``build_chain_tuples`` or
    ``build_chain_eager``): the same base and strong generators, and per
    level the same point, orbit and representatives in the same transversal
    insertion order, which random draws and the golden digests read; every
    representative is an operand of the chain's width."""
    kind = operand_type(got.degree)
    assert got.degree == expected.degree
    assert got.base == expected.base
    assert got.strong_gens == expected.strong_gens
    assert len(got.levels) == len(expected.levels)
    for level, twin in zip(got.levels, expected.levels):
        assert level.point == twin.point and level.orbit == twin.orbit
        assert ([(b, tuple(rep)) for b, rep in level.transversal.items()]
                == [(b, tuple(rep)) for b, rep in twin.transversal.items()])
        assert all(type(rep) is kind for rep in level.transversal.values())


def test_chain_order_s4():
    assert sym4().order == 24


def test_chain_trivial_group():
    assert PermutationGroup([], 5).order == 1
    assert build_chain([], 5, (0, 1, 2)).order() == 1


def test_chain_order_matches_closure_m11():
    g = catalog.builtin("mathieu", 11)
    assert g.order == len(mulclose(list(g.generators), 11))


def test_membership_against_parity_oracle():
    a5 = catalog.builtin("alternating", 5)
    for images in permutations(range(5)):
        p = Permutation(images)
        parity = sum(len(c) - 1 for c in p.cycles()) % 2
        assert a5.contains(p) == (parity == 0)


def test_membership_of_generators_and_words():
    g = catalog.builtin("mathieu", 11)
    rng = random.Random(3)
    for gen in g.generators:
        assert g.contains(gen)
    for _ in range(50):
        word = g.generators[rng.randrange(2)] * g.generators[rng.randrange(2)]
        assert g.contains(word)


def test_degree_defaults_to_the_first_generator():
    g = PermutationGroup([parse_cycles("(1,2,3)", 5)])
    assert g.degree == 5 and g.order == 3


def test_membership_degree_mismatch():
    with pytest.raises(DegreeMismatchError):
        sym4().contains(parse_cycles("(1,2)", 5))


def test_enumerate_s3():
    g = PermutationGroup([parse_cycles("(1,2)", 3), parse_cycles("(1,2,3)", 3)], 3)
    elems = set(g.elements())
    assert len(elems) == 6


def test_enumerate_c4_exact():
    g = cyclic(4)
    expected = {parse_cycles(s, 4) for s in ["()", "(1,2,3,4)", "(1,3)(2,4)", "(1,4,3,2)"]}
    assert set(g.elements()) == expected


@pytest.mark.parametrize("name,param", [("symmetric", 6), ("alternating", 6),
                                        ("pgl2", 7), ("mathieu", 11),
                                        ("mathieu", 12)])
def test_enumerate_count_equals_order(name, param):
    g = catalog.builtin(name, param)
    seen = set(g.elements())
    assert len(seen) == g.order


def test_enumerate_partition_by_top_transversal():
    # splitting along the top-level transversal reproduces the element set
    g = sym4()
    chain = g.chain()
    top = chain.levels[0]
    stab = g.pointwise_stabilizer([top.point])
    pieces = set()
    for point in sorted(top.transversal):
        rep = Permutation(top.transversal[point])
        pieces |= {h * rep for h in stab.elements()}
    assert pieces == set(g.elements())
    assert len(pieces) == g.order


def test_random_nonmembers_rejected():
    g = catalog.builtin("alternating", 5)
    rng = random.Random(4)
    count = 0
    while count < 100:
        p = Permutation(rng.sample(range(5), 5))
        parity = sum(len(c) - 1 for c in p.cycles()) % 2
        if parity == 1:
            assert not g.contains(p)
            count += 1


def test_orbit_examples():
    assert cyclic(4).orbit(0) == frozenset({0, 1, 2, 3})
    assert PermutationGroup([], 5).orbit(2) == frozenset({2})
    g = catalog.builtin("dihedral", 6)
    assert g.order % len(g.orbit(0)) == 0


def test_pointwise_stabilizer_s4():
    g = sym4()
    stab = g.pointwise_stabilizer([0])
    assert stab.order == 6
    assert all(h.images[0] == 0 for h in stab.generators)


def test_pointwise_stabilizer_m11():
    g = catalog.builtin("mathieu", 11)
    stab = g.pointwise_stabilizer([0, 1])
    assert stab.order == 72
    assert all(h.images[0] == 0 and h.images[1] == 1 for h in stab.generators)


def test_pointwise_stabilizer_empty_returns_self():
    g = sym4()
    assert g.pointwise_stabilizer([]) is g


def test_pointwise_stabilizer_index_product():
    g = catalog.builtin("mathieu", 12)
    pts = (0, 1, 2)
    stab = g.pointwise_stabilizer(pts)
    chain = g.chain(pts)
    images = 1
    for level in chain.levels[:3]:
        images *= len(level.transversal)
    assert g.order == stab.order * images


def test_transporter_s4():
    g = sym4()
    t = g.transporter((0, 1), (2, 3))
    assert t is not None
    assert t.images[0] == 2 and t.images[1] == 3
    assert g.contains(t)


def test_transporter_c3_cases():
    g = cyclic(3)
    t = g.transporter((0,), (1,))
    assert t == parse_cycles("(1,2,3)", 3)
    assert g.transporter((0, 1), (0, 2)) is None
    assert g.transporter((), ()) == Permutation.identity(3)


def test_transporter_validation():
    g = sym4()
    with pytest.raises(ValueError):
        g.transporter((0, 0), (1, 2))
    with pytest.raises(ValueError):
        g.transporter((0,), (1, 2))
    with pytest.raises(ValueError):
        g.transporter((0,), (9,))


@pytest.mark.parametrize("name,param", [("symmetric", 4), ("cyclic", 4),
                                        ("dihedral", 4), ("alternating", 5),
                                        ("pgl2", 7)])
def test_transporter_matches_transitivity(name, param):
    g = catalog.builtin(name, param)
    t = g.transitivity_degree()
    n = g.degree
    src = tuple(range(t))
    for dst in all_tuples(n, t):
        found = g.transporter(src, dst)
        assert found is not None
        assert tuple(found.images[s] for s in src) == dst
    if t < n:
        src_next = tuple(range(t + 1))
        missing = [dst for dst in all_tuples(n, t + 1)
                   if g.transporter(src_next, dst) is None]
        assert missing


def random_generating_set(seed):
    """A seeded group of degree 1-8 with up to three generators, each a
    random permutation of all points or of a leading block of them, so
    trivial and intransitive groups turn up as well as transitive ones."""
    rng = random.Random(seed)
    n = rng.randint(1, 8)
    gens = []
    for _ in range(rng.randint(0, 3)):
        block = rng.choice((rng.randint(1, n), n, n))
        images = list(range(n))
        head = images[:block]
        rng.shuffle(head)
        gens.append(Permutation(head + images[block:]))
    return PermutationGroup(gens, n, f"random{seed}")


@pytest.mark.parametrize("name,param,expected", [
    ("symmetric", 4, 4), ("alternating", 5, 3), ("cyclic", 4, 1),
    ("dihedral", 4, 1), ("pgl2", 7, 3), ("psl2", 7, 2),
    *[("random", seed, None) for seed in range(60)],
])
def test_transitivity_degree_against_tuple_orbits(name, param, expected):
    # random generating sets are checked against the tuple closure alone
    g = random_generating_set(param) if name == "random" else catalog.builtin(name, param)
    found = tuple_orbit_transitivity(list(g.generators), g.degree)
    assert g.transitivity_degree() == found
    if expected is not None:
        assert found == expected


def test_transitivity_identity_group():
    assert PermutationGroup([], 5).transitivity_degree() == 0
    assert PermutationGroup([], 1).transitivity_degree() == 1


@pytest.mark.parametrize("make", [lambda: PermutationGroup([], 1),
                                  lambda: catalog.builtin("symmetric", 1)],
                         ids=["trivial-1", "symmetric-1"])
def test_degree_one_queries_return_tuples(make):
    # products at degree 1 must stay 1-tuples: an itemgetter of one index
    # returns a bare entry; a chain based on (0,) has a level to sift through
    group = make()
    ident = Permutation([0])
    chain = build_chain([], 1, (0,))
    assert chain.base == (0,) and chain.levels[0].transversal == {0: b"\x00"}
    assert chain.contains(ident) and group.chain((0,)).contains(ident)
    assert group.contains(ident)
    assert [p.images for p in chain.elements()] == [(0,)]
    assert [p.images for p in group.elements()] == [(0,)]
    assert group.random_element(random.Random(0)).images == (0,)
    words = iter(functools.partial(random.Random(0).getrandbits, 32), None)
    assert groups._random_product(chain.levels, 1, words) == b"\x00"
    assert group.transporter((0,), (0,)).images == (0,)
    orbit = conjugation_closure(group.generators, ident)
    assert orbit == (b"\x00",)
    assert conjugation_closure([ident], ident) == (b"\x00",)


def test_conjugate_orbit_four_cycles():
    g = sym4()
    stab = g.pointwise_stabilizer([0])
    u = parse_cycles("(1,2,3,4)", 4)
    orbit = conjugation_closure(stab.generators, u)
    assert type(orbit) is tuple and all(type(x) is bytes for x in orbit)
    assert tuple(orbit[0]) == u.images
    # oracle: conjugate by each of the six stabilizer elements
    expected = {u.conjugate(h).images for h in stab.elements()}
    assert set(images_of(orbit)) == expected
    assert len(orbit) == 6


def test_conjugate_orbit_three_cycles_through_point():
    g = sym4()
    stab = g.pointwise_stabilizer([0])
    u = parse_cycles("(1,2,3)", 4)
    orbit = conjugation_closure(stab.generators, u)
    assert len(orbit) == 6
    for x in map(Permutation, orbit):
        assert 0 in x.support()
        assert x.moved_count() == 3
    assert stab.order % len(orbit) == 0


def test_conjugate_orbit_trivial_stabilizer():
    g = PermutationGroup([], 5)
    u = parse_cycles("(1,2,3)", 5)
    assert conjugation_closure(g.generators, u) == (bytes(u.images),)


def test_conjugation_closure_cap():
    g = catalog.builtin("symmetric", 6)
    with pytest.raises(CapExceeded):
        conjugation_closure(g.generators, parse_cycles("(1,2)", 6), cap=3)


def _relabelled(perms, offset, degree):
    # each permutation of 0..m-1 carried onto the points offset..offset+m-1
    # of ``degree`` points, fixing the rest
    out = []
    for p in perms:
        images = list(range(degree))
        for a, b in enumerate(p.images):
            images[offset + a] = offset + b
        out.append(Permutation(images))
    return out


def _m11_on_top(degree):
    # M11 moved onto the top 11 points, and a seed that also swaps point 0
    # with the top point, so the orbit moves the largest points there are
    m11 = catalog.builtin("mathieu", 11)
    gens = _relabelled(m11.generators, degree - 11, degree)
    (u,) = _relabelled([m11.random_element(random.Random(3))], degree - 11, degree)
    swap = list(range(degree))
    swap[0], swap[-1] = swap[-1], swap[0]
    return gens, u * Permutation(swap)


def _trace_stabilizer(name, seed):
    # the double trace's closure: its witness u under the stabilizer of alpha
    g = catalog.parse_group_name(name)
    w = double_transitive_trace(g, rng=random.Random(seed)).witnesses
    return (g.pointwise_stabilizer([int(w["alpha"]) - 1]).generators,
            parse_cycles(w["u"], g.degree))


CLOSURE_CASES = {
    "degree-1": lambda: ([Permutation.identity(1)], Permutation.identity(1)),
    "degree-1-no-generators": lambda: ([], Permutation.identity(1)),
    "degree-2": lambda: ([parse_cycles("(1,2)", 2)], parse_cycles("(1,2)", 2)),
    "degree-2-identity": lambda: ([parse_cycles("(1,2)", 2)], Permutation.identity(2)),
    "M12-trace": lambda: _trace_stabilizer("M12", 1),
    "M24-trace": lambda: _trace_stabilizer("M24", 2),
    # bytes up to 256 points, where the padding after x is empty; image
    # tuples through perm.compose above
    "degree-256": lambda: _m11_on_top(256),
    "degree-257": lambda: _m11_on_top(257),
    "degree-300": lambda: _m11_on_top(300),
}


@pytest.mark.parametrize("case", CLOSURE_CASES)
def test_conjugation_closure_matches_plain_bfs(case):
    gens, seed = CLOSURE_CASES[case]()
    expected = conjugation_bfs(gens, seed)
    assert expected[0] == seed.images
    orbit = conjugation_closure(gens, seed)
    assert images_of(orbit) == expected
    assert all(type(x) is operand_type(seed.degree) for x in orbit)
    assert conjugation_closure(gens, seed, cap=len(expected)) == orbit
    for cap in (0, len(expected) - 1):
        with pytest.raises(CapExceeded):
            conjugation_closure(gens, seed, cap=cap)


def test_conjugate_orbit_matches_full_stabilizer_enumeration():
    g = catalog.builtin("pgl2", 7)
    rng = random.Random(6)
    for _ in range(5):
        u = g.random_element(rng)
        while u.is_identity():
            u = g.random_element(rng)
        delta = rng.sample(sorted(u.support()), 1)
        stab = g.pointwise_stabilizer(delta)
        closure = set(images_of(conjugation_closure(stab.generators, u)))
        enumerated = {u.conjugate(h).images for h in stab.elements()}
        assert closure == enumerated


def test_conjugate_orbit_invariants_seeded():
    g = catalog.builtin("mathieu", 11)
    rng = random.Random(7)
    for _ in range(5):
        u = g.random_element(rng)
        while u.is_identity():
            u = g.random_element(rng)
        size = rng.randint(1, 2)
        delta = frozenset(rng.sample(sorted(u.support()), size))
        stab = g.pointwise_stabilizer(delta)
        orbit = conjugation_closure(stab.generators, u)
        m = u.moved_count()
        assert u.images in set(images_of(orbit))
        for x in map(Permutation, orbit):
            assert x.moved_count() == m
            assert delta <= x.support()
        assert stab.order % len(orbit) == 0


def test_chain_determinism():
    gens = [parse_cycles("(1,2,3,4,5)", 5), parse_cycles("(1,2)", 5)]
    a = build_chain(gens, 5)
    b = build_chain(gens, 5)
    assert a.base == b.base
    assert a.strong_gens == b.strong_gens
    for la, lb in zip(a.levels, b.levels):
        assert la.transversal == lb.transversal


@pytest.mark.parametrize("name", ["S6", "M11", "M12", "PGL2_13"])
def test_chain_invariants_and_immutability(name):
    g = catalog.parse_group_name(name)
    rng = random.Random(3)
    for prefix in ((), (0,), (3, 1), tuple(range(g.degree))):
        chain = g.chain(prefix)
        for level in chain.levels:
            assert level.orbit == tuple(sorted(level.transversal))
            for point, rep in level.transversal.items():
                assert type(rep) is bytes and rep[level.point] == point
        assert chain.order() == g.order
        # membership, transporters and draws read the chain and never change it
        before = pickle.dumps(chain)
        for _ in range(5):
            x = g.random_element(rng)
            assert g.contains(x) and chain.contains(x)
            dst = tuple(x.images[p] for p in prefix)
            t = g.transporter(prefix, dst)
            assert t is not None and tuple(t.images[p] for p in prefix) == dst
        assert pickle.dumps(chain) == before, prefix


def test_random_element_membership():
    g = catalog.builtin("mathieu", 11)
    rng = random.Random(5)
    for _ in range(20):
        assert g.contains(g.random_element(rng))


def test_base_prefix_respected():
    g = catalog.builtin("symmetric", 5)
    chain = g.chain((3, 1))
    assert chain.base[:2] == (3, 1)
    assert chain.order() == 120


def test_pointwise_stabilizer_orders_against_brute_force():
    for name, param in (("pgl2", 7), ("dihedral", 6)):
        g = catalog.builtin(name, param)
        elems = mulclose(list(g.generators), g.degree)
        rng = random.Random(1)
        for _ in range(10):
            pts = rng.sample(range(g.degree), rng.randint(0, 3))
            stab = g.pointwise_stabilizer(pts)
            brute = sum(1 for e in elems if all(e.images[p] == p for p in pts))
            assert stab.order == brute, (g.label, pts)


def test_random_generated_groups_against_closure():
    # the strongest chain oracle: order and membership versus raw closure
    rng = random.Random(8)
    for _ in range(30):
        gens = [Permutation(rng.sample(range(7), 7)) for _ in range(2)]
        g = PermutationGroup(gens, 7)
        elems = mulclose(gens, 7)
        assert g.order == len(elems)
        for _ in range(20):
            p = Permutation(rng.sample(range(7), 7))
            assert g.contains(p) == (p in elems)
        for p in list(elems)[:20]:
            assert g.contains(p)


def test_transporter_against_brute_force():
    g = catalog.builtin("pgl2", 7)
    elems = list(mulclose(list(g.generators), 8))
    rng = random.Random(2)
    for _ in range(300):
        k = rng.randint(0, 4)
        src = tuple(rng.sample(range(8), k))
        dst = tuple(rng.sample(range(8), k))
        got = g.transporter(src, dst)
        brute = next((e for e in elems
                      if all(e.images[s] == d for s, d in zip(src, dst))), None)
        assert (got is None) == (brute is None), (src, dst)
        if got is not None:
            assert tuple(got.images[s] for s in src) == dst
            assert g.contains(got)


@pytest.mark.parametrize("name", ["S7", "M11", "M12", "M23", "PGL2_13"])
def test_known_order_chain_equals_full_build(name):
    # reaching the verified order proves every level complete, so stopping
    # there leaves the chain a full build returns, byte for byte
    g = catalog.parse_group_name(name)
    for prefix in ((), (5,), (4, 0, 2)):
        full = build_chain(g.generators, g.degree, prefix)
        known = build_chain(g.generators, g.degree, prefix, order=g.order)
        assert pickle.dumps(known) == pickle.dumps(full), prefix


@pytest.mark.parametrize("name", ["S7", "M11", "M12", "M23", "M24", "PGL2_13"])
def test_chain_matches_the_image_tuple_construction(name):
    # composing on byte strings keeps every base, strong generator and
    # representative, and the insertion order of every transversal
    g = catalog.parse_group_name(name)
    for prefix in ((), (5,), (4, 0, 2)):
        for order in (None, g.order):
            expected = build_chain_tuples(g.generators, g.degree, prefix, order=order)
            assert_chain_equals(build_chain(g.generators, g.degree, prefix, order=order),
                                expected)


def assert_builds_like_the_eager_construction(gens, degree, prefix, order):
    # both raise the same ValueError, or both return the same chain
    try:
        expected = build_chain_eager(gens, degree, prefix, order=order)
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            build_chain(gens, degree, prefix, order=order)
        assert str(raised.value) == str(exc)
        return
    assert_chain_equals(build_chain(gens, degree, prefix, order=order), expected)


@pytest.mark.parametrize("name", ["S6", "A7", "M11", "M12", "M23", "M24", "PGL2_13",
                                  "PSL2_31"])
def test_chain_equals_the_eager_construction(name):
    # deferred rebuilds leave every level as rebuilding levels 0..k after
    # each install does; S6 has no point 7, so its third prefix is (5, 2)
    g = catalog.parse_group_name(name)
    for prefix in ((), (0,), (3, 1), (5, 2, 7), (1, 0, 4, 2, 3)):
        prefix = tuple(pt for pt in prefix if pt < g.degree)
        for order in (None, g.order):
            assert_builds_like_the_eager_construction(g.generators, g.degree, prefix, order)


def test_chain_equals_the_eager_construction_on_image_tuples():
    # above 256 points every product runs on image tuples
    g = mobius_group(257)
    for prefix in ((3, 100), (257, 0)):
        for order in (None, g.order):
            assert_builds_like_the_eager_construction(g.generators, g.degree, prefix, order)


@given(st.integers(1, 10).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.permutations(range(n)).map(Permutation), min_size=1, max_size=4),
    st.lists(st.integers(0, n - 1), max_size=n),
    st.integers(0, 3))))
def test_random_chains_equal_the_eager_construction(case):
    # cut 0 builds in full, 1 stops at the order, 2 and 3 pass a smaller
    # order, which raises or cuts both builds short at the same level
    n, gens, prefix, cut = case
    order = None if cut == 0 else build_chain_eager(gens, n).order() // cut
    assert_builds_like_the_eager_construction(gens, n, prefix, order)


@pytest.mark.parametrize("degree", [1, 2, 256, 257, 300])
def test_chain_on_either_side_of_256_points(degree):
    # up to 256 points a chain is built on byte strings, above on image
    # tuples; M11 on the top points puts the largest points into every
    # product, and S1 and S2 are the smallest groups there are
    if degree <= 2:
        group = catalog.builtin("symmetric", degree)
        moved, order, t = list(range(degree)), degree, degree
    else:
        group = PermutationGroup(_m11_on_top(degree)[0], degree)
        moved, order, t = list(range(degree - 11, degree)), 7920, 0
    for prefix in ((), (degree - 1,), (moved[-1], 0, moved[0])):
        for known in (None, order):
            expected = build_chain_tuples(group.generators, degree, prefix, order=known)
            assert_chain_equals(build_chain(group.generators, degree, prefix, order=known),
                                expected)
    assert group.order == order
    assert group.transitivity_degree() == t
    rng = random.Random(degree)
    k = min(4, len(moved))
    for _ in range(5):
        x, y = group.random_element(rng), group.random_element(rng)
        assert group.contains(x) and group.contains(x * y)
        dst = tuple(rng.sample(moved, k))
        found = group.transporter(moved[:k], dst)
        assert tuple(found.images[a] for a in moved[:k]) == dst
        assert group.contains(found)
    if degree > 2:
        # 4-transitive on the 11 points it moves, and on nothing else
        assert [len(level.orbit) for level in group.chain().levels[:4]] == [11, 10, 9, 8]
        assert group.transporter((moved[0],), (0,)) is None
        for a, b in ((moved[0], moved[1]), (0, moved[0])):
            swap = list(range(degree))
            swap[a], swap[b] = b, a
            assert not group.contains(Permutation(swap))


def _boundary_permutations(group, rng):
    """Every kind of Permutation the chain readers hand out: draws,
    transporters, enumerated elements, rebased stabilizer generators, the
    level pairs the traces and the counts suite carry, strong generators
    and the minimal-degree witness."""
    n = group.degree
    moved = sorted({a for g in group.generators for a in g.support()}) or [0]
    found = [group.random_element(rng) for _ in range(3)]
    found += [group.transporter(moved[:2], tuple(x.images[a] for a in moved[:2]))
              for x in found]
    found += list(islice(group.elements(), 20))
    for points in ([moved[0]], moved[:2], [n - 1], [0]):
        found += group.pointwise_stabilizer(points).generators
    for k in (1, 2):
        found += group._level_pair(k)
    found += group.chain().strong_gens
    if group.order > 1:
        found.append(minimal_degree(group).witness)
    return found


@pytest.mark.parametrize("degree", [1, 2, 24, 256, 257, 300])
def test_readers_hand_out_image_tuples(degree):
    # chains hold byte strings up to 256 points, but every Permutation that
    # leaves them holds an image tuple of ints, equal to its validated twin
    if degree <= 2:
        group = catalog.builtin("symmetric", degree)
    elif degree == 24:
        group = catalog.builtin("mathieu", 24)
    else:
        group = PermutationGroup(_m11_on_top(degree)[0], degree)
    for p in _boundary_permutations(group, random.Random(degree)):
        assert type(p.images) is tuple and {type(a) for a in p.images} == {int}
        twin = Permutation(p.images)
        assert p == twin and hash(p) == hash(twin) and p.degree == degree
        assert group.contains(p)


@pytest.mark.parametrize("name", ["S7", "M11", "M12"])
def test_known_order_too_small_raises(name):
    # order - 1 has a prime factor above the degree, so no product of orbit
    # lengths can equal it and the build must pass it, with the product the
    # eager construction passes it with
    g = catalog.parse_group_name(name)
    for prefix in ((), (3, 1)):
        with pytest.raises(ValueError, match="above the given order"):
            build_chain(g.generators, g.degree, prefix, order=g.order - 1)
        assert_builds_like_the_eager_construction(g.generators, g.degree, prefix,
                                                  g.order - 1)


def test_known_order_of_a_proper_subgroup_builds_in_full():
    g = catalog.builtin("mathieu", 11)
    chain = build_chain(g.generators[:1], 11, order=g.order)
    assert chain.order() == 11


def test_stabilizer_order_needs_no_chain(monkeypatch):
    plain = groups.build_chain
    builds = []

    def counted(*args, **kwargs):
        builds.append(args)
        return plain(*args, **kwargs)

    for name, pts in (("M12", (0,)), ("M12", (3, 7)), ("M23", (1, 2, 5)),
                      ("PGL2_13", (0, 13))):
        g = catalog.parse_group_name(name)
        stab = g.pointwise_stabilizer(pts)
        monkeypatch.setattr(groups, "build_chain", counted)
        order = stab.order
        monkeypatch.setattr(groups, "build_chain", plain)
        assert builds == [], name
        assert order == build_chain(stab.generators, g.degree).order(), (name, pts)


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("name", ["PGL2_7", "M11", "M12", "PSL2_13"])
def test_stabilizer_generators_close_the_same_orbits(name, k):
    g = catalog.parse_group_name(name)
    rng = random.Random(4 + k)
    for _ in range(3):
        u = g.random_element(rng)
        while u.is_identity():
            u = g.random_element(rng)
        delta = rng.sample(sorted(u.support()), k)
        stab = g.pointwise_stabilizer(delta)
        # G_(delta) = g^-1 G_(b) g, g = c^-1 the walk from the base points b
        # to delta
        carry = Permutation(tuple(groups._to_base(g, delta, ())[0])).inverse()
        gens = [h.conjugate(carry) for h in g._level_pair(k)]
        assert PermutationGroup(gens, g.degree).order == stab.order
        assert (set(images_of(conjugation_closure(gens, u)))
                == {u.conjugate(h).images for h in stab.elements()})


def test_stabilizer_generators_fallbacks():
    # the point stabilizers of C2^4 are C2^3, which no pair generates, so
    # the strong generators fixing the first base point stand in for the
    # level pair; a point outside that base point's orbit is not carried
    g = PermutationGroup([parse_cycles(f"({a},{a + 1})", 8) for a in (1, 3, 5, 7)], 8)
    chain = g.chain()
    assert chain.base == (0, 2, 4, 6)
    pair = g._level_pair(1)
    assert pair == tuple(s for s in chain.strong_gens if s.images[0] == 0)
    assert len(pair) == 3
    swap = parse_cycles("(1,2)", 8)
    c, _, points = groups._to_base(g, [1], ())
    assert tuple(c) == swap.images and tuple(points) == (0,)
    with pytest.raises(RuntimeError, match=r"does not carry its base to \[2\]"):
        groups._to_base(g, [2], ())
    carried = [s.conjugate(swap) for s in pair]
    stab = g.pointwise_stabilizer([1])
    assert PermutationGroup(carried, 8).order == stab.order
    assert (PermutationGroup(carried, 8).orbit_partition()
            == PermutationGroup(stab.generators, 8).orbit_partition())
    for u in g.elements():
        assert (set(conjugation_closure(carried, u))
                == set(conjugation_closure(stab.generators, u)))


def test_stabilizer_generators_read_no_chain_of_their_points():
    # the traces' frame and the counts suite's frame carry their points
    # onto the () chain's base points and build no chain based on them
    from permdeg.verify import count_identity_suite

    g = catalog.parse_group_name("M12")
    g.chain()
    before = set(g._chains)
    u = g.generators[0]
    for points in ([3], [3, 7], [11, 0]):
        groups._base_orbit(g, points, len(points), u, u)
        groups._to_base(g, points, (u,))
    count_identity_suite(g, 60, 1)
    assert set(g._chains) == before
    assert len(g._level_pair(2)) == 2


def test_validation_reads_one_chain(monkeypatch):
    # order and transitivity degree both read the group's () chain, so
    # building and validating a Mathieu group runs Schreier-Sims once
    plain = groups.build_chain
    builds = []

    def counted(*args, **kwargs):
        builds.append(args)
        return plain(*args, **kwargs)

    monkeypatch.setattr(catalog, "_cache", {})
    monkeypatch.setattr(groups, "build_chain", counted)
    g = catalog.builtin("mathieu", 24)
    assert g.transitivity_degree() == 5
    assert len(builds) == 1


@pytest.mark.parametrize("n, top", [(5, 128), (256, 128), (257, 1 << 15), (300, 1 << 15)])
def test_column_lanes_compare_sums_below_a_bound(n, top):
    # lanes of w bytes: 1 up to 256 points, 2 above; below() reads the
    # lanes of a sum that lie under the bound, for bounds up to the top bit
    # of a lane, and refuses a bound past it, where the bias would borrow
    rng = random.Random(n)
    wrap = groups._width(n)[1]
    members = [wrap(rng.sample(range(n), n)) for _ in range(40)]
    columns = groups._Columns(groups._flat(members, n), n)
    # a sum of n - 1 indicators, the most a lane holds without carrying
    total = sum(columns.moves(a) for a in range(n - 1))
    moved = [sum(x[a] != a for a in range(n - 1)) for x in members]
    for bound in sorted(b for b in {0, 1, n // 3, n - 1, n, top} if b <= top):
        lanes = columns.below(total, bound)
        assert [(lanes >> (8 * (top.bit_length() // 8) * i)) & 1 for i in range(40)] == [
            int(k < bound) for k in moved], bound
    with pytest.raises(ValueError, match="lane bound"):
        columns.below(total, top + 1)
    with pytest.raises(ValueError, match="lane bound"):
        columns.below(total, -1)
