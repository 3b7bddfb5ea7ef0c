import random
from fractions import Fraction

import pytest

from brute import commute, image_chase_commutator, save_generator_file, trace_tallies_by_element
from permdeg import catalog, verify
from permdeg.groups import _flat, _width, conjugation_closure
from permdeg.perm import Permutation, parse_cycles
from permdeg.verify import (
    TraceReport,
    _conclude,
    _ge,
    _le,
    all_pass,
    double_transitive_trace,
    jordan_bound_trace,
    mathieu_bound_table,
    quadruple_transitive_trace,
    triple_transitive_trace,
)


def by_label(report):
    return {c.label: c for c in report.checks}


def test_jordan_m12_tight():
    report = jordan_bound_trace(catalog.builtin("mathieu", 12))
    assert report.applicable and report.degenerate is None
    assert report.derived["case"] == 1 and report.derived["prime"] == 2
    assert (report.m, report.t) == (8, 5)
    bound = {c.label: c for c in report.checks}["jordan-bound"]
    assert bound.observed == 8 and bound.formula == 8   # tight: m = 2t - 2
    assert all_pass(report.checks)
    assert report.conclusion_holds


def test_jordan_m24_case1():
    report = jordan_bound_trace(catalog.builtin("mathieu", 24))
    assert report.applicable and report.degenerate is None
    assert report.derived["case"] == 1
    assert all_pass(report.checks)


def test_jordan_m11_degenerate_but_bound_holds():
    report = jordan_bound_trace(catalog.builtin("mathieu", 11))
    assert report.applicable
    assert report.degenerate is not None         # t multiple of p: image pinned
    assert report.derived["remainder"] == report.derived["prime"] - 1
    assert report.conclusion_holds               # 8 >= 2*4 - 2 = 6
    assert all_pass(report.checks)


def test_jordan_psl27_case2_constructive():
    report = jordan_bound_trace(catalog.builtin("psl2", 7))
    assert report.applicable and report.degenerate is None
    derived = report.derived
    assert derived["case"] == 2 and derived["prime"] == 3 and derived["remainder"] == 1
    assert "v" in report.witnesses
    assert all_pass(report.checks)


def test_jordan_inapplicable_for_alternating_containers():
    trace = jordan_bound_trace(catalog.builtin("symmetric", 7))
    assert not trace.applicable
    assert trace.m == 2
    assert trace.conclusion_holds is None


def test_jordan_trivial_group():
    from permdeg.groups import PermutationGroup
    trace = jordan_bound_trace(PermutationGroup([], 5))
    assert not trace.applicable


def test_double_trace_identity_cross_multiplied():
    for name in ("PGL2_7", "PSL2_7", "M11", "M12"):
        report = double_transitive_trace(catalog.parse_group_name(name))
        assert report.applicable and all_pass(report.checks), name
        # |F| (n-1) == |E| (n-m) re-verified from the recorded sizes
        size_e = report.sizes["orbit"]
        size_f = report.sizes["fixing"]
        assert size_f * (report.n - 1) == size_e * (report.n - report.m), name


def test_double_trace_m11_closing_bound():
    report = double_transitive_trace(catalog.builtin("mathieu", 11))
    bound = by_label(report)["degree-bound"]
    assert bound.observed == 11
    assert bound.formula == Fraction(166, 5)   # 4m + 6/(m-3) at m = 8
    assert report.conclusion_holds


class _Avoiding:
    """A stand-in group for ``_closing_bound``: it avoids the alternating group."""

    def contains_alternating(self):
        return False


@pytest.mark.parametrize("k, slack, label", [(4, 6, "quarter-bound"), (3, 4, "third-bound")])
def test_closing_threshold_is_the_least_n_the_bound_implies(k, slack, label):
    # the trace states k m >= n exactly from some n on; over the integer
    # grid, n <= k m + slack/(m - 3) (cross-multiplied) implies k m >= n
    # from that n on, and not at the n below it
    def states(n):
        report = TraceReport("closing", "G", n, 2)
        report.m = 4
        checks = []
        verify._closing_bound(_Avoiding(), report, checks, k, slack, label)
        return label in [c.label for c in checks]

    stated = [n for n in range(8, 600) if states(n)]
    threshold = stated[0]
    assert stated == list(range(threshold, 600))

    def bounded(n, m):
        return (n - k * m) * (m - 3) <= slack

    assert all(k * m >= n for n in range(threshold, 600) for m in range(4, n) if bounded(n, m))
    below = threshold - 1
    assert [m for m in range(4, below) if bounded(below, m) and k * m < below]


@pytest.mark.parametrize("outcomes", [(True,), (False,), (True, True), (True, False),
                                      (False, True), (False, False)])
def test_conclusion_holds_only_when_every_closing_check_passes(outcomes):
    # the real traces pass every closing check, so a conclusion step that
    # needed only one of them would go unseen there; a failed check made
    # before the conclusion does not enter it
    earlier = _ge("earlier", 0, 1)
    report = TraceReport("double", "G", 5, 2)
    checks = [earlier]
    conclusion = [_le(f"closing-{i}", 0 if ok else 2, 1) for i, ok in enumerate(outcomes)]
    _conclude(report, checks, conclusion)
    assert checks == [earlier, *conclusion]
    assert report.conclusion_holds is all(outcomes)


def test_double_trace_symmetric_gates_conclusion():
    report = double_transitive_trace(catalog.builtin("symmetric", 5))
    assert report.applicable
    assert report.derived["contains_alternating"] is True
    assert report.conclusion_holds is None
    assert by_label(report)["fixing-count-identity"].passed
    assert "degree-bound" not in by_label(report)


def test_double_trace_inapplicable_low_transitivity():
    report = double_transitive_trace(catalog.builtin("cyclic", 6))
    assert not report.applicable


def test_triple_trace_identity_cross_multiplied():
    for name in ("PGL2_7", "M11", "M12"):
        report = triple_transitive_trace(catalog.parse_group_name(name))
        assert report.applicable and all_pass(report.checks), name
        size_e = report.sizes["orbit"]
        pairs = report.sizes["overlap_pairs"]
        lhs = pairs * (report.n - 2)
        rhs = size_e * ((report.n - 2) + (report.m - 1) * (report.m - 2))
        assert lhs == rhs, name


def test_triple_trace_m23_third_bound():
    report = triple_transitive_trace(catalog.builtin("mathieu", 23))
    checks = by_label(report)
    assert checks["third-bound"].observed == 48   # 3m with m = 16
    assert checks["third-bound"].passed
    assert report.conclusion_holds


def test_triple_trace_needs_three_transitivity():
    assert not triple_transitive_trace(catalog.builtin("psl2", 7)).applicable


def test_quadruple_trace_m11_shifted_form():
    report = quadruple_transitive_trace(catalog.builtin("mathieu", 11))
    assert report.applicable and all_pass(report.checks)
    assert report.derived["m_shift"] == 5
    assert report.derived["n_shift"] == 8
    assert report.derived["vertex"] == Fraction(103, 10)
    assert report.derived["slack_poly"] == 3409
    checks = by_label(report)
    assert checks["shifted-threshold-bound"].passed
    assert checks["degree-window"].observed == 8
    assert report.conclusion_holds


def test_quadruple_trace_m24_window():
    report = quadruple_transitive_trace(catalog.builtin("mathieu", 24))
    checks = by_label(report)
    assert checks["degree-window"].observed == 21
    assert checks["degree-window"].formula == 32
    assert checks["minimal-degree-at-least-six"].passed
    assert all_pass(report.checks)


def test_quadruple_trace_gates_alternating():
    report = quadruple_transitive_trace(catalog.builtin("symmetric", 8))
    assert not report.applicable


def test_traces_deterministic():
    g = catalog.builtin("mathieu", 11)
    a = triple_transitive_trace(g)
    b = triple_transitive_trace(g)
    assert a.checks == b.checks
    assert a.witnesses == b.witnesses


def test_traces_random_choice_mode():
    g = catalog.builtin("mathieu", 11)
    for seed in range(3):
        rng = random.Random(seed)
        report = double_transitive_trace(g, rng=rng)
        assert all_pass(report.checks), seed
        rng = random.Random(seed)
        report = triple_transitive_trace(g, rng=rng)
        assert all_pass(report.checks), seed
        rng = random.Random(seed)
        report = quadruple_transitive_trace(g, rng=rng)
        assert all_pass(report.checks), seed
        rng = random.Random(seed)
        trace = jordan_bound_trace(g, rng=rng)
        assert all_pass(trace.checks), seed


def test_jordan_report_dicts():
    report = jordan_bound_trace(catalog.builtin("mathieu", 12))
    assert report.name == "jordan"
    assert report.derived["case"] == 1
    assert "u" in report.witnesses and "v" in report.witnesses


def test_mathieu_bound_table_rows():
    rows = mathieu_bound_table()
    got = [(r.n, r.m, r.bound) for r in rows]
    assert got == [(11, 8, 6), (12, 8, 6), (23, 16, 10), (24, 16, 11)]
    # each row states m >= bound once, as the check the table writes
    assert [r.check for r in rows] == [_ge("minimal-degree-meets-bound", r.m, r.bound)
                                       for r in rows]
    assert all(r.check.passed for r in rows)
    assert [r.t for r in rows] == [4, 5, 4, 5]


def test_every_trace_on_every_mathieu_group():
    from permdeg.verify import TRACES

    for k in (11, 12, 23, 24):
        g = catalog.builtin("mathieu", k)
        for name, build in TRACES.items():
            result = build(g)
            assert result.applicable, (k, name)
            assert all_pass(result.checks), (k, name)


def test_every_trace_returns_a_trace_report():
    from permdeg.groups import PermutationGroup
    from permdeg.verify import TRACES, TraceReport

    groups = [catalog.builtin("mathieu", 11), catalog.builtin("symmetric", 7),
              catalog.parse_group_name("C6"), PermutationGroup([], 5)]
    for g in groups:
        for name, build in TRACES.items():
            report = build(g)
            assert type(report) is TraceReport, (g.label, name)
            assert report.name == name, (g.label, name)
            if not report.applicable:
                assert report.checks == [], (g.label, name)


def test_jordan_psl2_11_odd_prime_case2():
    report = jordan_bound_trace(catalog.builtin("psl2", 11))
    derived = report.derived
    assert derived["case"] == 2 and derived["prime"] == 5 and derived["remainder"] == 1
    assert report.degenerate is None
    assert all_pass(report.checks)


def test_jordan_psl2_13_degenerate_shift():
    report = jordan_bound_trace(catalog.builtin("psl2", 13))
    assert report.derived["case"] == 2 and report.derived["prime"] == 2
    assert report.degenerate is not None
    assert report.conclusion_holds    # 12 >= 2*2 - 2


def test_traces_on_file_loaded_group(tmp_path):
    from permdeg.catalog import load_generator_file

    path = tmp_path / "m11.perm"
    save_generator_file(catalog.builtin("mathieu", 11), path)
    loaded = load_generator_file(path)
    report = quadruple_transitive_trace(loaded)
    assert report.applicable and all_pass(report.checks)
    assert report.m == 8


COUNTING_TRACES = {"double": double_transitive_trace, "triple": triple_transitive_trace,
                   "quadruple": quadruple_transitive_trace}


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("name", ["M11", "M12", "PGL2_7", "PGL2_13"])
def test_counting_trace_sizes_recounted(name, seed):
    # E is rebuilt from the report's own witnesses over every generator of
    # the stabilizer, and each size is recounted with plain set arithmetic
    # and image-chased commutators
    g = catalog.parse_group_name(name)
    n = g.degree
    for theorem, build in COUNTING_TRACES.items():
        report = build(g, rng=random.Random(seed) if seed else None)
        if not report.applicable:
            continue
        assert report.degenerate is None, (name, seed, theorem)
        w = report.witnesses
        u = parse_cycles(w["u"], n)
        alpha, beta = int(w["alpha"]) - 1, int(w["beta"]) - 1
        if theorem == "double":
            stab = g.pointwise_stabilizer([alpha])
            orbit = conjugation_closure(stab.generators, u)
        else:
            stab = g.pointwise_stabilizer([alpha, beta])
            orbit = conjugation_closure(stab.generators, parse_cycles(w["v"], n))
        orbit = [Permutation(x) for x in orbit]
        supp_u = u.support()
        moved = [x.support() for x in orbit]
        checks = by_label(report)
        if theorem == "double":
            fixers = [s for s in moved if beta not in s]
            middle = supp_u - {alpha, beta}
            expected = {"orbit": len(orbit), "fixing": len(fixers),
                        "overlap_pairs": sum(len(supp_u & s) for s in fixers),
                        "middle_points": len(middle)}
            assert checks["overlap-pairs-partition"].formula == len(fixers) + sum(
                1 for s in fixers for a in middle if a in s)
            assert checks["fixer-noncommuting"].observed == sum(
                1 for x, s in zip(orbit, moved)
                if beta not in s and image_chase_commutator(u, x).is_identity())
        else:
            expected = {"orbit": len(orbit),
                        "overlap_pairs": sum(len(supp_u & s) for s in moved),
                        "commutator_pairs": sum(image_chase_commutator(u, x).moved_count()
                                                for x in orbit)}
        if theorem == "triple":
            u_inv = u.inverse()
            expected["doubled_pairs"] = sum(1 for s in moved for a in supp_u & s
                                            if u_inv.apply(a) in s)
            assert checks["overlap-pairs-partition"].formula == len(orbit) + sum(
                1 for s in moved for a in supp_u - {alpha} if a in s)
            for label, point in (("edge-mover-count-back", u_inv.apply(alpha)),
                                 ("edge-mover-count-forward", u.apply(alpha))):
                assert checks[label].observed == sum(1 for s in moved if point in s)
        if theorem == "quadruple":
            carried = [{a for a in u.fixed() & s if x.apply(a) in supp_u}
                       for x, s in zip(orbit, moved)]
            arrows = [{a for a in supp_u - s if u.apply(a) in s} for s in moved]
            expected["carried_pairs"] = sum(map(len, carried))
            expected["arrow_pairs"] = sum(map(len, arrows))
            outside = sum(len(image_chase_commutator(u, x).support()
                              - ((supp_u & s) | c | r))
                          for x, s, c, r in zip(orbit, moved, carried, arrows))
            assert checks["support-split-containment"].observed == outside == 0
        assert report.sizes == expected, (name, seed, theorem)


def test_commute_reads_only_the_support_of_u():
    # every ordered pair of S4 (commuting ones included) against the
    # image-chased commutator
    elements = list(catalog.parse_group_name("S4").elements())
    commuting = 0
    for u in elements:
        support = sorted(u.support())
        for x in elements:
            expected = image_chase_commutator(u, x).is_identity()
            assert commute(u.images, x.images, support) == expected, (u, x)
            commuting += expected
    assert 0 < commuting < len(elements) ** 2


def _member_list(rng, u, alpha, beta):
    """Members for the column tallies that are no conjugation orbit: the
    identity, u and its square (all commuting with u), random permutations,
    random ones fixing beta or alpha, and cycles on the first s points of
    supp(u) other than beta, for s around m/3, around 128 + m/3 (where the
    top bit of a one-byte lane is set) and across its range, so that every
    count the traces compare with 0 is nonzero on some member."""
    n = len(u)
    support = [a for a in range(n) if u[a] != a and a != beta]
    members = [tuple(range(n)), u, tuple(u[b] for b in u)]
    for fixing in (None, beta, alpha, None):
        for _ in range(12):
            x = list(range(n))
            rng.shuffle(x)
            if fixing is not None:
                i = x.index(fixing)
                x[i], x[fixing] = x[fixing], fixing
            members.append(tuple(x))
    third = -(-(len(support) + 1) // 3)
    for s in {2, third - 1, third, third + 1, 128, 127 + third, len(support) // 2,
              len(support)}:
        if 2 <= s <= len(support):
            x = list(range(n))
            cycle = support[:s]
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                x[a] = b
            members.append(tuple(x))
    return members


def _tallies(theorem, u, alpha, beta, members):
    """The column tallies of ``theorem`` over ``members``, joined into one
    flat operand as the traces read them; the double trace reads only the
    members that fix beta."""
    n = len(u)
    if theorem == "double":
        return verify._double_tallies(u, _flat([x for x in members if x[beta] == beta], n))
    return getattr(verify, f"_{theorem}_tallies")(u, alpha, beta, _flat(members, n))


@pytest.mark.parametrize("theorem", ["double", "triple", "quadruple"])
@pytest.mark.parametrize("n", [5, 24, 256, 257, 300])
def test_column_tallies_match_the_loop_over_members(theorem, n):
    # random witnesses u with a fixed point, each against a member list with
    # repeats, in the operand type of the degree; the double trace reads
    # beta = alpha^u, the triple trace a fixed point of u as beta
    rng = random.Random(n)
    wrap = _width(n)[1]
    seen = set()
    for _ in range(4):
        u = list(range(n))
        rng.shuffle(u)
        fixed = rng.randrange(n)
        i = u.index(fixed)
        u[i], u[fixed] = u[fixed], fixed
        u = tuple(u)
        alpha = rng.choice([a for a in range(n) if u[a] != a])
        beta = fixed if theorem == "triple" else u[alpha]
        members = [wrap(x) for x in _member_list(rng, u, alpha, beta)]
        members += members[:3]
        expected = trace_tallies_by_element(theorem, u, alpha, beta, members)
        assert _tallies(theorem, u, alpha, beta, members) == expected, (theorem, n)
        seen |= {i for i, value in enumerate(expected) if value}
        # no members at all
        assert (_tallies(theorem, u, alpha, beta, [])
                == trace_tallies_by_element(theorem, u, alpha, beta, []))
    # every tally is nonzero somewhere, but the split containment, which
    # holds for every pair of permutations
    assert seen == set(range(len(expected))) - ({6} if theorem == "quadruple" else set())
