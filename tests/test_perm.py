import random

import pytest
from hypothesis import example, given, strategies as st

from permdeg.perm import (
    CycleParseError,
    DegreeMismatchError,
    Permutation,
    compose,
    format_cycles,
    parse_cycles,
    prime_order_witness,
)

from brute import image_chase_commutator

perms8 = st.permutations(range(8)).map(Permutation)


def test_parse_identity():
    p = parse_cycles("()", 4)
    assert p == Permutation.identity(4)


def test_parse_three_cycle():
    assert parse_cycles("(1,2,3)", 5).images == (1, 2, 0, 3, 4)


def test_parse_errors():
    with pytest.raises(CycleParseError):
        parse_cycles("(1,2)(1,3)", 3)   # repeated point
    with pytest.raises(CycleParseError):
        parse_cycles("(1,5)", 4)        # out of range
    with pytest.raises(CycleParseError):
        parse_cycles("(0,1)", 4)        # 1-based notation only
    with pytest.raises(CycleParseError):
        parse_cycles("1,2,3", 4)
    with pytest.raises(CycleParseError):
        parse_cycles("(1,2", 4)
    with pytest.raises(CycleParseError):
        parse_cycles("", 4)
    with pytest.raises(CycleParseError):
        parse_cycles("()", 0)


def test_parse_accepts_spacing():
    assert parse_cycles(" (1, 2) (3,4) ", 5) == parse_cycles("(1,2)(3,4)", 5)


def test_format_identity():
    assert format_cycles(Permutation.identity(4)) == "()"


def test_format_three_cycle():
    assert format_cycles(Permutation([1, 2, 0, 3, 4])) == "(1,2,3)"


def test_format_canonical_order():
    assert format_cycles(parse_cycles("(4,5)(2,1)", 6)) == "(1,2)(4,5)"


def test_parse_format_round_trip_seeded():
    rng = random.Random(0)
    for _ in range(1000):
        images = list(range(8))
        rng.shuffle(images)
        p = Permutation(images)
        assert parse_cycles(format_cycles(p), 8) == p


def test_bad_image_sequence():
    with pytest.raises(ValueError):
        Permutation([0, 0, 1])


def test_non_integer_entries_rejected():
    # 1.0 and 0.0 sort like a bijection but cannot index an image tuple
    with pytest.raises(ValueError):
        Permutation([1.0, 0.0])
    with pytest.raises(ValueError):
        Permutation(["1", "0"])


def test_degree_zero_rejected():
    # compose has no image tuple of length 0 to return, so products of
    # degree-0 permutations would fail; the constructor refuses them, with
    # the message PermutationGroup and parse_cycles give for degree 0
    for make in (lambda: Permutation([]), lambda: Permutation.identity(0)):
        with pytest.raises(ValueError, match="^degree must be at least 1$"):
            make()


def test_bool_entries_stored_as_int():
    p = Permutation([True, False])
    assert p.images == (1, 0)
    assert all(type(a) is int for a in p.images)
    assert p * p == Permutation.identity(2)


def test_compose_convention():
    p = parse_cycles("(1,2,3)", 5)
    q = parse_cycles("(3,4,5)", 5)
    # 2 -> 3 under p, then 3 -> 4 under q (1-based)
    assert (p * q).apply(1) == 3


def test_compose_degree_one():
    # an itemgetter of one index returns a bare entry, not a 1-tuple
    assert compose((0,), (0,)) == (0,)
    assert (Permutation([0]) * Permutation([0])).images == (0,)


@given(st.integers(1, 30).flatmap(lambda n: st.tuples(
    st.permutations(range(n)), st.permutations(range(n)),
    st.lists(st.integers(0, n - 1), min_size=1, max_size=n))))
@example(([0], [0], [0]))
@example(([1, 0], [1, 0], [1]))
def test_compose_chases_images(case):
    # first is any nonempty sequence of points of then, of length 1 to n,
    # as the targets groups._to_base carries above 256 points are; one
    # point takes the degree-1 path
    p, q, first = case
    p, q = tuple(p), tuple(q)
    assert compose(p, q) == tuple(q[a] for a in p)
    assert compose(first, q) == tuple(q[a] for a in first)


def test_compose_identity_and_inverse():
    p = parse_cycles("(1,4)(2,5,3)", 5)
    e = Permutation.identity(5)
    assert p * e == p
    assert p * p.inverse() == e
    assert p.inverse().inverse() == p


def test_compose_degree_mismatch():
    with pytest.raises(DegreeMismatchError):
        parse_cycles("(1,2)", 3) * parse_cycles("(1,2)", 4)
    with pytest.raises(DegreeMismatchError):
        parse_cycles("(1,2)", 3).conjugate(parse_cycles("(1,2)", 4))
    with pytest.raises(DegreeMismatchError):
        parse_cycles("(1,2)", 4).commutator(parse_cycles("(1,2)", 3))


def test_inverse_examples():
    assert parse_cycles("(1,2,3)", 3).inverse() == parse_cycles("(1,3,2)", 3)
    e = Permutation.identity(6)
    assert e.inverse() == e


def test_conjugate_relabels_transposition():
    u = parse_cycles("(1,2)", 3)
    g = parse_cycles("(1,3)", 3)
    assert u.conjugate(g) == parse_cycles("(2,3)", 3)
    assert u.conjugate(Permutation.identity(3)) == u


@pytest.mark.parametrize("degree", [1, 2, 8, 257])
def test_conjugate_is_the_product_through_the_inverse(degree):
    # degree 1 is compose's one-entry case, 257 points lie past byte width;
    # p^g maps a^g to (a^p)^g, which names each entry once
    rng = random.Random(degree)
    for _ in range(20):
        p = Permutation(rng.sample(range(degree), degree))
        g = Permutation(rng.sample(range(degree), degree))
        conjugated = p.conjugate(g)
        assert conjugated == g.inverse() * p * g
        assert all(conjugated.images[g.images[a]] == g.images[p.images[a]]
                   for a in range(degree))
        assert type(conjugated.images) is tuple


def test_conjugate_support_relabeling_seeded():
    rng = random.Random(1)
    for _ in range(1000):
        u = Permutation(rng.sample(range(8), 8))
        g = Permutation(rng.sample(range(8), 8))
        expected = frozenset(g.images[a] for a in u.support())
        assert u.conjugate(g).support() == expected


def test_commutator_hand_example():
    u = parse_cycles("(1,2,3)", 5)
    v = parse_cycles("(3,4,5)", 5)
    c = u.commutator(v)
    assert c == parse_cycles("(2,3,5)", 5)
    assert c == image_chase_commutator(u, v)


def test_commutator_self_is_identity():
    u = parse_cycles("(1,5,2)", 6)
    assert u.commutator(u).is_identity()


def test_commutator_disjoint_supports():
    u = parse_cycles("(1,2)", 6)
    v = parse_cycles("(4,5,6)", 6)
    assert u.commutator(v).is_identity()


def test_support_fix_examples():
    e = Permutation.identity(4)
    assert (e.support(), e.fixed()) == (frozenset(), frozenset({0, 1, 2, 3}))
    p = parse_cycles("(1,2,3)", 5)
    assert (p.support(), p.fixed()) == (frozenset({0, 1, 2}), frozenset({3, 4}))


def test_order_and_power():
    p = parse_cycles("(1,2)(3,4,5)", 5)
    assert p.order() == 6
    assert (p ** 6).is_identity()
    assert p ** -1 == p.inverse()
    assert Permutation.identity(3).order() == 1


def test_prime_order_witness_smallest_prime():
    p = parse_cycles("(1,2)(3,4,5)", 5)
    w = prime_order_witness(p)
    assert w == parse_cycles("(1,2)", 5)
    assert w.order() == 2


def test_prime_order_witness_identity_rejected():
    with pytest.raises(ValueError):
        prime_order_witness(Permutation.identity(4))


def test_prime_order_witness_support_seeded():
    rng = random.Random(2)
    checked = 0
    while checked < 1000:
        p = Permutation(rng.sample(range(10), 10))
        if p.is_identity():
            continue
        w = prime_order_witness(p)
        assert not w.is_identity()
        assert w.support() <= p.support()
        checked += 1


@given(perms8, perms8)
def test_product_is_bijection(p, q):
    assert sorted((p * q).images) == list(range(8))


@given(perms8, perms8, st.integers(-20, 20))
def test_derived_permutations_pass_the_public_check(p, q, k):
    # products, inverses, conjugates, commutators and powers skip the
    # constructor's bijection check; rebuilding each one through it must
    # succeed and give the same permutation
    for r in (p * q, p.inverse(), p.conjugate(q), p.commutator(q), p ** k):
        assert sorted(r.images) == list(range(8))
        assert all(type(a) is int for a in r.images)
        assert Permutation(r.images) == r


@given(perms8, perms8)
def test_product_support_union(p, q):
    assert (p * q).support() <= p.support() | q.support()


@given(perms8, perms8)
def test_commutator_antisymmetry(p, q):
    assert q.commutator(p) == p.commutator(q).inverse()


@given(perms8, perms8)
def test_commutator_support_laws(u, v):
    delta = u.support() & v.support()
    supp_c = u.commutator(v).support()
    into_u = {a for a in range(8) if u.images[a] in delta}
    into_v = {a for a in range(8) if v.images[a] in delta}
    assert supp_c <= delta | into_u | into_v
    img_u = {u.images[d] for d in delta}
    img_v = {v.images[d] for d in delta}
    assert len(supp_c) <= 3 * len(delta) - len(delta & img_u) - len(delta & img_v)
    crossings = (delta
                 | {a for a in u.fixed() if v.images[a] in delta}
                 | {a for a in v.fixed() if u.images[a] in delta})
    assert supp_c <= crossings


@given(perms8)
def test_power_order_identity(p):
    assert (p ** p.order()).is_identity()
