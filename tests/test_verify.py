import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from permdeg import catalog, groups
from permdeg.groups import PermutationGroup, _width, conjugation_closure
from permdeg.mindeg import minimal_degree
from permdeg.perm import Permutation, parse_cycles
from permdeg.verify import (
    _LAWS,
    CLAUSES,
    CountCheck,
    PreconditionError,
    TraceReport,
    _clause_plan,
    _clause_shares,
    _draw_tallies,
    _law_facts,
    _pair_labels,
    _pair_tallies,
    commutator_cancellation_bound,
    commutator_law_suite,
    conjugate_orbit_count_checks,
    count_identity_suite,
    mathieu_bound_table,
    relation_balance_checks,
)

from brute import (DOUBLY_TRANSITIVE, ProductAction, clause_shares,
                   commutator_law_suite_by_tuples, count_identity_suite_by_configuration,
                   distinct_pair_action, flag_int, image_chase_commutator,
                   invariant_relation_counts, law_facts, mulclose, mobius_group, pair_orbits,
                   pair_relation_oracle, relabelled)

perms8 = st.permutations(range(8)).map(Permutation)


def by_label(checks):
    return {c.label: c for c in checks}


def operand_facts(u, v):
    """The suite's law facts of two permutations, as operands of their degree."""
    wrap = _width(u.degree)[1]
    return _law_facts(wrap(u.images), wrap(v.images))


def commutator_law_checks(u, v):
    """The four support laws of one pair (u, v), read through the suite's
    own kernel: containment, size bound, fixed crossings and the
    informational forward-images containment; each law holds exactly when
    its observed value is at most its limit."""
    rows = operand_facts(u, v)[0]
    return [CountCheck(label, "<=", observed, Fraction(limit), observed <= limit, informational)
            for (label, informational), (observed, limit) in zip(_LAWS, rows[:4])]


def test_commutator_laws_worked_example():
    u = parse_cycles("(1,2,3)", 5)
    v = parse_cycles("(3,4,5)", 5)
    checks = by_label(commutator_law_checks(u, v))
    assert checks["commutator-support-containment"].passed
    bound = checks["commutator-support-size-bound"]
    assert bound.observed == 3 and bound.formula == 3 and bound.passed
    assert checks["commutator-support-fixed-crossings"].passed
    forward = checks["commutator-support-containment-forward-images (informational)"]
    assert forward.informational


def test_commutator_laws_disjoint_supports():
    u = parse_cycles("(1,2)", 6)
    v = parse_cycles("(4,5)", 6)
    assert all(c.passed for c in commutator_law_checks(u, v))


def test_commutator_laws_equal_elements():
    u = parse_cycles("(1,2,3,4)", 6)
    checks = by_label(commutator_law_checks(u, u))
    bound = checks["commutator-support-size-bound"]
    assert bound.observed == 0
    assert bound.formula == 4  # 3m - 2m with delta the full support
    assert bound.passed


def test_cancellation_bound_tight_example():
    u = parse_cycles("(1,2,3)", 5)
    v = parse_cycles("(3,4,5)", 5)
    check = commutator_cancellation_bound(u, v, {0}, {0, 1})
    assert check.observed == 3
    assert check.formula == 3
    assert check.passed


def test_cancellation_bound_empty_sets():
    u = parse_cycles("(1,2,3)", 6)
    v = parse_cycles("(2,4,5)", 6)
    check = commutator_cancellation_bound(u, v, (), ())
    assert check.formula == 2 * len(u.support())
    assert check.passed


def test_cancellation_bound_precondition_errors():
    u = parse_cycles("(1,2,3)", 5)
    v = parse_cycles("(3,4,5)", 5)
    with pytest.raises(PreconditionError):
        commutator_cancellation_bound(u, v, {2}, set())  # 3 is moved by [u,v]
    with pytest.raises(PreconditionError):
        commutator_cancellation_bound(u, v, set(), {3})  # 4 outside supp(u)


def test_invariant_relation_counts_c2_diagonal():
    swap = parse_cycles("(1,2)", 2)
    action = ProductAction(2, 2, ((swap, swap),))
    checks = invariant_relation_counts(action, {(0, 0), (1, 1)})
    assert all(c.passed for c in checks)
    balance = by_label(checks)["count-mass-balance"]
    assert balance.observed == 2 and balance.formula == 2


def test_invariant_relation_counts_s3_pairs():
    gens = [parse_cycles("(1,2)", 3), parse_cycles("(1,2,3)", 3)]
    pairs, images = distinct_pair_action(gens, 3)
    action = ProductAction(3, 6, tuple(zip(gens, images)))
    relation = {(pair[0], i) for i, pair in enumerate(pairs)}
    assert len(relation) == 6
    checks = by_label(invariant_relation_counts(action, relation))
    assert checks["count-mass-balance"].observed == 2 * 3
    assert checks["count-mass-balance"].formula == 1 * 6
    assert all(c.passed for c in checks.values())


def test_invariant_relation_counts_empty_relation():
    swap = parse_cycles("(1,2)", 2)
    action = ProductAction(2, 2, ((swap, swap),))
    assert all(c.passed for c in invariant_relation_counts(action, set()))


def test_invariant_relation_rejects_noninvariant():
    swap = parse_cycles("(1,2)", 2)
    action = ProductAction(2, 2, ((swap, swap),))
    with pytest.raises(PreconditionError):
        invariant_relation_counts(action, {(0, 0)})


def test_invariant_relation_rejects_intransitive():
    ident = Permutation.identity(2)
    action = ProductAction(2, 2, ((ident, ident),))
    with pytest.raises(PreconditionError):
        invariant_relation_counts(action, {(0, 0), (1, 1)})


def test_conjugate_orbit_counts_s4_worked_examples():
    g = catalog.builtin("symmetric", 4)
    u = parse_cycles("(1,2,3)", 4)
    # delta = {1}, gamma = 4, second = 2 in 1-based labels
    results = dict(zip(CLAUSES, conjugate_orbit_count_checks(g, u, {0}, 3, 1)))
    fixes = results["fixes-gamma"]
    assert fixes.observed == 2 and fixes.formula == Fraction(6 * 1, 3)
    pair = results["fixes-gamma-moves-second"]
    assert pair.observed == 2 and pair.passed
    # gamma = 2, second = 3: transported count is 1 = 6 (m-2) / ((n-1)(n-2))
    transported = dict(zip(CLAUSES, conjugate_orbit_count_checks(g, u, {0}, 1, 2)))[
        "gamma-to-second"]
    assert transported.observed == 1 and transported.passed
    # oracle: recount over the orbit by hand
    stab = g.pointwise_stabilizer([0])
    orbit = conjugation_closure(stab.generators, u)
    assert len(orbit) == 6
    assert sum(1 for x in orbit if x[1] == 2) == 1


def test_conjugate_orbit_counts_applicability():
    g = catalog.builtin("psl2", 7)   # t = 2
    u = parse_cycles("(1,2,4)(3,6,5)", 8)
    assert g.contains(u)
    results = dict(zip(CLAUSES, conjugate_orbit_count_checks(g, u, {0}, 7, 2)))
    assert results["fixes-gamma"] is not None
    assert results["fixes-gamma-moves-second"] is None  # needs t >= 3
    assert results["gamma-to-second"] is None
    assert results["gamma-into-delta"] is not None
    for r in results.values():
        if r is not None:
            assert r.passed


def test_conjugate_orbit_counts_degree_two():
    # only the three clauses that apply build a formula; the pair clause's
    # (n-d)(n-d-1) denominator is zero here
    g = catalog.builtin("symmetric", 2)
    results = conjugate_orbit_count_checks(g, parse_cycles("(1,2)", 2), {0}, 1)
    assert len(results) == len(CLAUSES)
    assert [c for c, r in zip(CLAUSES, results) if r is not None] == [
        "fixes-gamma", "moves-gamma", "gamma-into-delta"]
    assert [r.label for r in results if r is not None] == [
        "fixes-gamma", "moves-gamma", "gamma-into-delta"]
    assert [r.observed for r in results if r is not None] == [0, 1, 1]
    assert all(r.passed for r in results if r is not None)


@pytest.mark.parametrize("name", ["S4", "M11"])
def test_conjugate_orbit_counts_without_a_second_point(name):
    # t = 4 makes all five clauses apply at |delta| = 1 once a second point
    # is drawn; without it the two clauses that read one are inapplicable,
    # and the other three still count E by their definitions
    g = catalog.parse_group_name(name)
    n = g.degree
    assert g.transitivity_degree() == 4
    rng = random.Random(name)
    for _ in range(4):
        u = g.random_element(rng)
        while u.is_identity():
            u = g.random_element(rng)
        delta = {rng.choice(sorted(u.support()))}
        gamma, second = rng.sample([a for a in range(n) if a not in delta], 2)
        orbit = conjugation_closure(g.pointwise_stabilizer(delta).generators, u)
        alone = conjugate_orbit_count_checks(g, u, delta, gamma)
        paired = conjugate_orbit_count_checks(g, u, delta, gamma, second)
        assert len(alone) == len(paired) == len(CLAUSES)
        alone, paired = dict(zip(CLAUSES, alone)), dict(zip(CLAUSES, paired))
        assert [c for c, r in alone.items() if r is None] == [
            "fixes-gamma-moves-second", "gamma-to-second"]
        assert all(r is not None for r in paired.values())
        direct = {"fixes-gamma": sum(1 for x in orbit if x[gamma] == gamma),
                  "moves-gamma": sum(1 for x in orbit if x[gamma] != gamma),
                  "gamma-into-delta": sum(1 for x in orbit if x[gamma] in delta)}
        for clause, observed in direct.items():
            assert alone[clause] == paired[clause]
            assert alone[clause].observed == observed and alone[clause].passed


def test_conjugate_orbit_counts_validation():
    g = catalog.builtin("symmetric", 4)
    u = parse_cycles("(1,2,3)", 4)
    with pytest.raises(PreconditionError):
        conjugate_orbit_count_checks(g, u, {3}, 0)   # delta outside supp(u)
    with pytest.raises(ValueError):
        conjugate_orbit_count_checks(g, u, {0}, 0)   # gamma inside delta
    with pytest.raises(ValueError):
        conjugate_orbit_count_checks(g, u, {0}, 1, 1)  # second equals gamma


def test_conjugate_orbit_counts_non_member_rejected():
    g = catalog.builtin("alternating", 4)
    with pytest.raises(PreconditionError):
        conjugate_orbit_count_checks(g, parse_cycles("(1,2)", 4), {0}, 2)


def test_commutator_law_suite_clean():
    g = catalog.builtin("alternating", 5)
    checks = commutator_law_suite(g, samples=400, seed=11)
    for c in checks:
        if not c.informational:
            assert c.passed, c.label


def test_commutator_law_suite_repeatable():
    g = catalog.builtin("symmetric", 5)
    assert commutator_law_suite(g, 200, 3) == commutator_law_suite(g, 200, 3)


def test_count_identity_suite_exact():
    for name, param in [("symmetric", 5), ("pgl2", 7)]:
        g = catalog.builtin(name, param)
        checks, inapplicable = count_identity_suite(g, samples=200, seed=5)
        assert checks
        for c in checks:
            assert c.passed, (g.label, c.label)
        assert not inapplicable


def test_count_identity_suite_gating():
    checks, inapplicable = count_identity_suite(catalog.builtin("cyclic", 6), samples=40, seed=0)
    assert checks == []
    assert set(inapplicable) == set(CLAUSES)


def test_count_identity_suite_repeatable():
    g = catalog.builtin("symmetric", 5)
    a = count_identity_suite(g, 100, 9)
    b = count_identity_suite(g, 100, 9)
    assert a == b


def test_relation_balance_checks():
    checks = relation_balance_checks(catalog.builtin("symmetric", 4))
    assert all(c.passed for c in checks)
    with pytest.raises(PreconditionError):
        relation_balance_checks(catalog.builtin("cyclic", 5))


@pytest.mark.parametrize("name", DOUBLY_TRANSITIVE)
def test_relation_balance_checks_match_the_general_api(name):
    # the direct count gives the checks, observed and formula values of the
    # general invariant-relation counts over the induced pair action
    group = catalog.parse_group_name(name)
    for copy in (group, relabelled(group)):
        assert relation_balance_checks(copy) == pair_relation_oracle(copy)


def test_commutator_laws_exhaustive_sym5():
    # all ordered pairs, with the largest admissible cancellation sets
    g = catalog.builtin("symmetric", 5)
    elements = list(g.elements())
    for u in elements:
        for v in elements:
            for check in commutator_law_checks(u, v):
                if not check.informational:
                    assert check.passed, (u, v, check.label)
            c = u.commutator(v)
            w = (v * u) * v.inverse()
            full_fixed = c.fixed() & u.support()
            full_shifted = w.support() & u.support()
            assert commutator_cancellation_bound(u, v, full_fixed, full_shifted).passed


@pytest.mark.parametrize("name,param", [("symmetric", 5), ("pgl2", 5)])
def test_count_identities_exhaustive_sweep(name, param):
    # every nonidentity u, every delta of size 1 or 2, every (gamma, second)
    from itertools import combinations

    g = catalog.builtin(name, param)
    t = g.transitivity_degree()
    n = g.degree
    checked = 0
    for u in g.elements():
        if u.is_identity():
            continue
        supp = sorted(u.support())
        for size in (1, 2):
            for delta_points in combinations(supp, size):
                delta = frozenset(delta_points)
                stab = g.pointwise_stabilizer(delta)
                orbit = conjugation_closure(stab.generators, u)
                rest = [a for a in range(n) if a not in delta]
                for gamma in rest:
                    for second in rest:
                        if second == gamma:
                            continue
                        for clause, res in zip(CLAUSES, conjugate_orbit_count_checks(
                                g, u, delta, gamma, second,
                                orbit=orbit, transitivity=t), strict=True):
                            if res is not None:
                                checked += 1
                                assert res.passed, (u, sorted(delta),
                                                    gamma, second, clause)
    assert checked > 10_000


def test_seeded_random_subsets_hit_cancellation_preconditions():
    # the suite's sampled overlap sets always satisfy the hypotheses
    g = catalog.builtin("symmetric", 6)
    rng = random.Random(0)
    for _ in range(200):
        u = g.random_element(rng)
        v = g.random_element(rng)
        c = u.commutator(v)
        w = (v * u) * v.inverse()
        fixed_pool = sorted(c.fixed() & u.support())
        shifted_pool = sorted(w.support() & u.support())
        check = commutator_cancellation_bound(u, v, fixed_pool, shifted_pool)
        assert check.passed


def test_commutator_law_suite_rejects_nonpositive_samples():
    g = catalog.builtin("mathieu", 11)
    for samples in (0, -5):
        with pytest.raises(ValueError):
            commutator_law_suite(g, samples=samples)


def test_count_identity_suite_rejects_nonpositive_samples():
    g = catalog.builtin("mathieu", 11)
    for samples in (0, -5):
        with pytest.raises(ValueError):
            count_identity_suite(g, samples=samples)


@given(perms8, perms8, st.integers(0, 8), st.integers(0, 8))
def test_law_kernel_matches_set_arithmetic(u, v, fixed_draw, shifted_draw):
    # the five laws recomputed from an image-chased commutator and plain sets
    n = u.degree
    c = image_chase_commutator(u, v)
    supp_c = c.support()
    supp_u = u.support()
    delta = supp_u & v.support()
    img_u = {u.images[d] for d in delta}
    img_v = {v.images[d] for d in delta}
    into = delta | {a for a in range(n) if u.images[a] in delta or v.images[a] in delta}
    crossings = (delta | {a for a in u.fixed() if v.images[a] in delta}
                 | {a for a in v.fixed() if u.images[a] in delta})
    v_inv = {b: a for a, b in enumerate(v.images)}
    w_support = {a for a in range(n) if v_inv[u.images[v.images[a]]] != a}
    fixed_pool = sorted(c.fixed() & supp_u)
    shifted_pool = sorted(w_support & supp_u)
    f = min(fixed_draw, len(fixed_pool))
    s = min(shifted_draw, len(shifted_pool))
    expected = [
        supp_c <= into,
        len(supp_c) <= 3 * len(delta) - len(delta & img_u) - len(delta & img_v),
        supp_c <= crossings,
        supp_c <= delta | img_u | img_v,
        len(supp_c) <= 2 * len(supp_u) - f - s,
    ]
    rows, fixed_flags, shifted_flags = operand_facts(u, v)
    assert (fixed_flags, shifted_flags) == (flag_int(fixed_pool), flag_int(shifted_pool))
    assert rows[4] == (len(supp_c), 2 * len(supp_u))
    rows[4] = len(supp_c), 2 * len(supp_u) - f - s
    assert [observed <= limit for observed, limit in rows] == expected


def _law_pairs(rng, n):
    """Pairs of image tuples for the law facts: random permutations, the
    identity, u with itself and with u^-1, and permutations of random
    point sets of several sizes, whose supports overlap in part, so that
    the fixed and shifted pools and the forward-images misses are nonempty
    on some pair."""

    def on(size):
        points = rng.sample(range(n), size)
        images = list(range(n))
        for a, b in zip(points, rng.sample(points, size)):
            images[a] = b
        return tuple(images)

    ident = tuple(range(n))
    pairs = []
    for size in sorted({2, 3, n // 3, n // 2, n}):
        for _ in range(6):
            u, v = on(size), on(rng.choice([2, 3, size, n]))
            inverse = [0] * n
            for a, b in enumerate(u):
                inverse[b] = a
            pairs += [(u, v), (v, u), (u, u), (u, tuple(inverse)), (u, ident), (ident, u)]
    return pairs


@pytest.mark.parametrize("n", [5, 24, 256, 257, 300])
def test_law_facts_match_the_loop_over_points(n):
    # byte strings up to 256 points, image tuples above; the containment
    # and fixed-crossings laws hold for every pair of permutations, so
    # their misses stay 0, and every other fact is nonzero on some pair
    rng = random.Random(n)
    wrap = _width(n)[1]
    seen = set()
    for u, v in _law_pairs(rng, n):
        facts = _law_facts(wrap(u), wrap(v))
        assert facts == law_facts(u, v), (n, u, v)
        rows, fixed_pool, shifted_pool = facts
        # the three containments have limit 0, and both size bounds
        # observe |supp([u,v])|
        assert [rows[i][1] for i in (0, 2, 3)] == [0, 0, 0] and rows[1][0] == rows[4][0]
        values = (rows[4][1], rows[4][0], rows[0][0], rows[2][0], rows[3][0], rows[1][1],
                  fixed_pool, shifted_pool)
        seen |= {i for i, value in enumerate(values) if value}
    assert seen == {0, 1, 4, 5, 6, 7}


@pytest.mark.parametrize("name", ["S8", "M11", "M12", "M23", "M24", "PSL2_31", "PGL2_257"])
def test_commutator_law_suite_matches_the_tuple_oracle(name):
    # the same seeded draws, the oracle's by rng.choice and rng.sample
    group = mobius_group(257) if name == "PGL2_257" else catalog.parse_group_name(name)
    if name == "PGL2_257":
        assert (group.degree, group.order) == (258, 257 * (257 ** 2 - 1))
    samples = 100 if group.degree > 256 else 500
    for seed in (0, 1, 7):
        assert (commutator_law_suite(group, samples, seed)
                == commutator_law_suite_by_tuples(group, samples, seed)), (name, seed)


@pytest.mark.parametrize("name,param", [("symmetric", 6), ("mathieu", 11), ("pgl2", 7)])
def test_clause_columns_match_direct_scans(name, param):
    # E built by brute force: every element fixing delta, by closure of the
    # whole group, conjugating u; the oracle's counts over columns gamma and
    # second of the closure (x[gamma], x[second] for x in E) must match
    # direct scans
    g = catalog.builtin(name, param)
    n = g.degree
    t = g.transitivity_degree()
    elements = sorted(mulclose(g.generators, n))
    rng = random.Random(name)
    for _ in range(6):
        u = rng.choice(elements[1:])
        delta = frozenset(rng.sample(sorted(u.support()), rng.choice((1, 2))))
        fixing = [h for h in elements if all(h.images[a] == a for a in delta)]
        orbit_set = {u.conjugate(h) for h in fixing}
        orbit = conjugation_closure(g.pointwise_stabilizer(delta).generators, u)
        assert {Permutation(x) for x in orbit} == orbit_set
        assert len(orbit) == len(orbit_set)
        rest = [a for a in range(n) if a not in delta]
        for _ in range(5):
            gamma, second = rng.sample(rest, 2)
            direct = [
                sum(1 for x in orbit_set if x.images[gamma] == gamma),
                sum(1 for x in orbit_set if x.images[gamma] != gamma),
                sum(1 for x in orbit_set
                    if x.images[gamma] == gamma and x.images[second] != second),
                sum(1 for x in orbit_set if x.images[gamma] in delta),
                sum(1 for x in orbit_set if x.images[gamma] == second),
            ]
            # transitivity n makes every clause apply at |delta| = 1
            counts = [None if res is None else res.observed
                      for res in conjugate_orbit_count_checks(g, u, delta, gamma, second,
                                                              orbit=orbit, transitivity=n)]
            assert sum(c is not None for c in counts) == (5 if len(delta) == 1 else 3)
            assert [c for c in counts if c is not None] == [
                d for c, d in zip(counts, direct) if c is not None]
            for res, observed in zip(conjugate_orbit_count_checks(g, u, delta, gamma, second,
                                                                  transitivity=t), direct,
                                     strict=True):
                if res is not None:
                    assert res.observed == observed


def _proper_subgroup_gens(gens, n):
    """The longest prefix of gens that generates a proper subgroup of <gens>."""
    order = PermutationGroup(gens, n).order
    for k in range(len(gens) - 1, -1, -1):
        if PermutationGroup(gens[:k], n).order < order:
            return gens[:k]
    raise ValueError("the trivial group has no proper subgroup")


@pytest.mark.parametrize("name,param", [("symmetric", 6), ("alternating", 7), ("mathieu", 11),
                                        ("mathieu", 12), ("psl2", 13), ("pgl2", 7)])
def test_pair_orbit_shares_match_closure_counts(name, param):
    # share x |E| must equal the count over the enumerated orbit E, both for
    # the true stabilizer of delta and for a proper subgroup of it, where
    # the clause formulas fail; a kernel that echoed the formulas would not
    # pass, and the final assertion makes sure some formula did fail
    g = catalog.builtin(name, param)
    n = g.degree
    rng = random.Random(f"{name}-{param}")
    formula_failures = 0
    for _ in range(6):
        u = g.random_element(rng)
        while u.is_identity():
            u = g.random_element(rng)
        delta = frozenset(rng.sample(sorted(u.support()), rng.choice((1, 2))))
        stab_gens = g.pointwise_stabilizer(delta).generators
        rest = [a for a in range(n) if a not in delta]
        # transitivity n makes every clause apply, whatever the group
        plan = _clause_plan(n, u.moved_count(), len(delta), n)
        for gens in (stab_gens, _proper_subgroup_gens(stab_gens, n)):
            orbit = conjugation_closure(gens, u)
            orbits = _pair_tallies(*_pair_labels([h.images for h in gens], n), u.images)
            assert sum(orbits.size) == n * n
            assert sum(orbits.arrows) == n
            assert sum(orbits.fixed) == (n - u.moved_count()) ** 2
            for _ in range(5):
                gamma, second = rng.sample(rest, 2)
                shares = _clause_shares(plan, orbits, delta, gamma, second)
                results = conjugate_orbit_count_checks(g, u, delta, gamma, second,
                                                       orbit=orbit, transitivity=n)
                for clause, res, share, formula in zip(CLAUSES, results, shares, plan,
                                                       strict=True):
                    assert (res is not None) == (share is not None)
                    if share is None:
                        continue
                    assert share * len(orbit) == res.observed, (u, delta, clause)
                    assert (share == formula) == res.passed
                    formula_failures += not res.passed
    assert formula_failures > 0


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", ["S3", "S4", "S6", "A7", "M11", "M12", "PSL2_13", "PGL2_7",
                                  "PSL2_31", "M24"])
def test_count_suite_matches_the_per_configuration_route(name, seed):
    # the suite labels pairs once per |delta| and carries each configuration
    # onto the base; the oracle labels them afresh under every delta's own
    # stabilizer and reads every draw on its own
    g = catalog.parse_group_name(name)
    assert count_identity_suite(g, 200, seed) == count_identity_suite_by_configuration(g, 200, seed)


@pytest.mark.parametrize("name", ["S6", "A7", "M11", "M12", "PSL2_13", "PGL2_7"])
def test_draw_tallies_match_per_draw_verdicts_where_formulas_fail(name):
    # under a proper subgroup of the stabilizer of delta some draws fail
    # their formulas and others pass, so judging a clause once per orbit
    # key must give each draw the verdict it gets on its own
    g = catalog.parse_group_name(name)
    n = g.degree
    rng = random.Random(f"tallies-{name}")
    formula_failures = 0
    for _ in range(4):
        u = g.random_element(rng)
        while u.is_identity():
            u = g.random_element(rng)
        delta = sorted(rng.sample(sorted(u.support()), rng.choice((1, 2))))
        gens = _proper_subgroup_gens(g.pointwise_stabilizer(delta).generators, n)
        images = [h.images for h in gens]
        rest = [a for a in range(n) if a not in delta]
        draws = [tuple(rng.sample(rest, 2)) for _ in range(40)]
        plan = _clause_plan(n, u.moved_count(), len(delta), n)
        direct = pair_orbits(images, u.images)
        expected = [[0, 0] for _ in plan]
        for gamma, second in draws:
            shares = clause_shares(plan, direct, delta, gamma, second)
            for formula, share, tally in zip(plan, shares, expected):
                if share is not None:
                    tally[0] += 1
                    tally[1] += share != formula
        orbits = _pair_tallies(*_pair_labels(images, n), u.images)
        totals = [[0, 0] for _ in plan]
        _draw_tallies(plan, orbits, delta, draws, totals)
        assert totals == expected
        formula_failures += sum(failed for _, failed in expected)
    assert formula_failures > 0


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("name", ["M11", "M12", "PSL2_13", "M24"])
def test_carried_pair_labels_match_the_stabilizer_orbits(name, k):
    g = catalog.parse_group_name(name)
    n = g.degree
    rng = random.Random(f"{name}-{k}")
    for _ in range(4):
        u = g.random_element(rng)
        while u.is_identity():
            u = g.random_element(rng)
        delta = sorted(rng.sample(sorted(u.support()), k))
        c, (u_carried,), delta_carried = groups._to_base(g, delta, (u,))
        assert tuple(delta_carried) == g.chain().base[:k]
        pair = g._level_pair(k)
        carried = _pair_tallies(*_pair_labels([h.images for h in pair], n), u_carried)
        direct = pair_orbits([h.images for h in g.pointwise_stabilizer(delta).generators],
                             u.images)
        # read through c = g^-1, the base frame's labels partition the pairs
        # as the stabilizer of delta does, orbit for orbit
        match = {}
        for a in range(n):
            for b in range(n):
                theirs = carried.label[c[a] * n + c[b]]
                assert match.setdefault(direct.label[a * n + b], theirs) == theirs
        assert sorted(match.values()) == list(range(len(carried.size)))
        for k_direct, k_carried in match.items():
            assert direct.size[k_direct] == carried.size[k_carried]
            assert direct.arrows[k_direct] == carried.arrows[k_carried]
            assert direct.fixed[k_direct] == carried.fixed[k_carried]


def test_count_suite_labels_pairs_once_per_delta_size(monkeypatch):
    import permdeg.verify as verify

    labelled = []
    frames = []
    plain_labels = verify._pair_labels
    plain_frame = verify._to_base

    def counted_labels(gens, n):
        labelled.append(len(gens))
        return plain_labels(gens, n)

    def recorded_frame(group, delta, xs):
        frames.append(len(delta))
        return plain_frame(group, delta, xs)

    monkeypatch.setattr(verify, "_pair_labels", counted_labels)
    monkeypatch.setattr(verify, "_to_base", recorded_frame)
    # PGL2_31 is sharply 3-transitive, so delta takes one or two points
    g = catalog.parse_group_name("PGL2_31")
    count_identity_suite(g, 400, 0)
    assert len(frames) == 20
    assert sorted(set(frames)) == [1, 2]
    assert len(labelled) == len(set(frames))


def test_base_frame_raises_where_the_walk_fails():
    # C2^4 does not carry its first base point 0 to 2, so the suite's carry
    # of (u, delta) and the traces' frame both raise and keep nothing; 1
    # lies in 0's orbit and is carried
    g = PermutationGroup([parse_cycles(f"({a},{a + 1})", 8) for a in (1, 3, 5, 7)], 8)
    u = parse_cycles("(1,2)(3,4)", 8)
    with pytest.raises(RuntimeError, match=r"does not carry its base to \[2\]"):
        groups._to_base(g, [2], (u,))
    with pytest.raises(RuntimeError, match=r"does not carry its base to \[2\]"):
        groups._base_orbit(g, (2,), 1, u, u)
    assert g not in groups._orbits
    c, (u_carried,), delta_carried = groups._to_base(g, [1], (u,))
    assert c[1] == 0 and tuple(u_carried) == u.images and tuple(delta_carried) == (0,)


def test_record_types_are_fixed_and_reports_own_their_containers():
    check = CountCheck("label", "=", 1, Fraction(1), True)
    assert check.informational is False
    records = [(check, "passed"), (minimal_degree(catalog.parse_group_name("S5")), "m"),
               (mathieu_bound_table()[0], "check")]
    for record, name in records:
        # the field exists, so the raise is the record's, not a misspelling's
        assert name in record._fields
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    first, second = (TraceReport("double", "S5", 5, 5) for _ in range(2))
    assert first.m is None and first.applicable is False
    for name in ("checks", "sizes", "witnesses", "derived"):
        assert getattr(first, name) is not getattr(second, name), name
        assert not getattr(first, name), name
