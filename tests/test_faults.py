"""Seeded faults injected into the verifier: each must flip the checks that
read the corrupted value, and the CLI must then exit 1.  A fault in a
construction step that the argument guarantees must raise RuntimeError
instead, which the CLI reports as a fault, exit 4."""

import random
import re

import pytest

from permdeg import catalog, groups, verify
from permdeg.cli import EXIT_FAULT, main
from permdeg.groups import PermutationGroup, StabilizerChain
from permdeg.perm import compose


@pytest.mark.parametrize("name", ["M11", "M12", "PGL2_13", "PSL2_31"])
def test_counts_suite_fails_on_a_miscounted_arrow(monkeypatch, name):
    # one extra arrow in the orbit of the diagonal pair (n-1, n-1): the
    # orbit of (gamma, gamma) for every draw, so the clauses that read
    # arrows(O)/|O| at (gamma, gamma) see a share off by 1/|O|
    tallies = verify._pair_tallies

    def faulty(label, size, u):
        orbits = tallies(label, size, u)
        n = orbits.degree
        orbits.arrows[label[(n - 1) * n + n - 1]] += 1
        return orbits

    monkeypatch.setattr(verify, "_pair_tallies", faulty)
    group = catalog.parse_group_name(name)
    checks, _ = verify.count_identity_suite(group, 200)
    failed = {c.label.split(" [")[0] for c in checks if not c.passed}
    assert {"fixes-gamma", "moves-gamma"} <= failed
    # fixes-gamma-moves-second reads the same diagonal share, and applies
    # only where t >= 3 (PSL2_31 has t = 2)
    if group.transitivity_degree() >= 3:
        assert "fixes-gamma-moves-second" in failed
    # the delta and second-point clauses read off-diagonal orbits only
    assert not failed & {"gamma-into-delta", "gamma-to-second"}
    assert main(["verify", f"catalog:{name}", "counts", "--samples", "200"]) == 1


# one extra arrow in an off-diagonal orbit of the carried frame, where delta
# sits on the first base points b and x, y are the least points outside
# b[:2]: the orbit of (x, b0) is read by gamma-into-delta alone, and that of
# (x, y) by gamma-to-second alone (PSL2_31 has t = 2, so gamma-to-second
# never applies there)
@pytest.mark.parametrize("clause, name", [
    (clause, name) for clause in ("gamma-into-delta", "gamma-to-second")
    for name in ("M11", "M12", "PGL2_13", "PSL2_31", "M24")
    if (clause, name) != ("gamma-to-second", "PSL2_31")])
def test_counts_suite_fails_on_an_off_diagonal_arrow(monkeypatch, clause, name):
    group = catalog.parse_group_name(name)
    base = group.chain().base
    x, y = [a for a in range(group.degree) if a not in base[:2]][:2]
    pair = x * group.degree + (base[0] if clause == "gamma-into-delta" else y)
    tallies = verify._pair_tallies

    def faulty(label, size, u):
        orbits = tallies(label, size, u)
        orbits.arrows[label[pair]] += 1
        return orbits

    monkeypatch.setattr(verify, "_pair_tallies", faulty)
    checks, _ = verify.count_identity_suite(group, 200)
    assert {c.label.split(" [")[0] for c in checks if not c.passed} == {clause}
    assert main(["verify", f"catalog:{name}", "counts", "--samples", "200"]) == 1


# a commutator support that also lists a point both factors fix: that point
# lies outside every containment set, and it breaks a size bound wherever a
# sample meets that bound exactly
EXTRA_FIXED_POINT = {"commutator-support-containment",
                     "commutator-support-fixed-crossings",
                     "commutator-support-size-bound"}


@pytest.mark.parametrize("name, tight", [
    ("S5", True), ("S8", True), ("M11", False), ("M12", True), ("M24", False)])
def test_laws_suite_fails_on_an_extra_fixed_point(monkeypatch, name, tight):
    flags = verify._commutator_flags

    def faulty(u, x):
        # the flag byte of point a is bit 8a of the int
        both_fixed = [a for a in range(len(u)) if u[a] == a and x[a] == a]
        return flags(u, x) | sum(1 << 8 * a for a in both_fixed[:1])

    monkeypatch.setattr(verify, "_commutator_flags", faulty)
    checks = verify.commutator_law_suite(catalog.parse_group_name(name), 300, seed=1)
    failed = {c.label.split(" [")[0] for c in checks
              if not c.passed and not c.informational}
    tight_labels = {"commutator-support-cancellation-bound"} if tight else set()
    assert failed == EXTRA_FIXED_POINT | tight_labels
    assert main(["verify", f"catalog:{name}", "laws", "--samples", "300",
                 "--seed", "1"]) == 1


# the count identities over E fail when the closure loses its last element or
# gains a non-conjugate; the quadruple trace needs a 4-transitive group,
# which PGL2_13 is not
E_IDENTITIES = {
    "double": {"fixing-count-identity"},
    "triple": {"edge-mover-count-back", "edge-mover-count-forward",
               "overlap-pairs-identity"},
    "quadruple": {"overlap-pairs-identity"},
}


def _failed_trace_checks(name, theorem):
    report = verify.TRACES[theorem](catalog.parse_group_name(name), rng=random.Random(1))
    return {c.label for c in report.checks if not c.passed and not c.informational}


@pytest.mark.parametrize("name, theorem", [
    (name, theorem) for name in ("M11", "M12", "PGL2_13") for theorem in E_IDENTITIES
    if (name, theorem) != ("PGL2_13", "quadruple")])
def test_traces_fail_on_a_dropped_conjugate(monkeypatch, name, theorem):
    closure = groups.conjugation_closure

    def faulty(*args):
        return closure(*args)[:-1]

    monkeypatch.setattr(groups, "conjugation_closure", faulty)
    assert E_IDENTITIES[theorem] <= _failed_trace_checks(name, theorem)
    assert main(["trace", f"catalog:{name}", theorem, "--seed", "1"]) == 1


# a kept orbit (groups._base_orbit) that lost its last member: the next
# trace with the same seed reads it, closing nothing, and fails the count
# identities over E as a closure that drops a conjugate does
@pytest.mark.parametrize("name, theorem", [
    (name, theorem) for name in ("M11", "M12", "PGL2_13") for theorem in E_IDENTITIES
    if (name, theorem) != ("PGL2_13", "quadruple")])
def test_traces_fail_on_a_kept_orbit_missing_a_member(monkeypatch, name, theorem):
    group = catalog.parse_group_name(name)
    assert _failed_trace_checks(name, theorem) == set()
    (orbits,) = groups._orbits[group].values()
    (orbit,) = orbits
    orbits[0] = orbit[:-group.degree]
    monkeypatch.setattr(groups, "conjugation_closure", None)
    assert E_IDENTITIES[theorem] <= _failed_trace_checks(name, theorem)
    assert main(["trace", f"catalog:{name}", theorem, "--seed", "1"]) == 1


def _add_non_conjugate(monkeypatch):
    # a product of two adjacent elements of E that moves a different number
    # of points from the seed, so it is conjugate to no element of E; it is
    # appended as the operand type of E (a byte string up to 256 points)
    closure = groups.conjugation_closure

    def faulty(gens, seed, *args):
        orbit = closure(gens, seed, *args)
        m = seed.moved_count()
        products = (compose(x, y) for x, y in zip(orbit, orbit[1:]))
        return orbit + (type(orbit[0])(next(z for z in products
                                            if sum(a != b for a, b in enumerate(z)) != m)),)

    monkeypatch.setattr(groups, "conjugation_closure", faulty)


# at seed 1 no such product exists in the PGL2_13 triple trace's E
@pytest.mark.parametrize("name, theorem", [
    (name, theorem) for name in ("M11", "M12", "PGL2_13") for theorem in E_IDENTITIES
    if name != "PGL2_13" or theorem == "double"])
def test_traces_fail_on_a_non_conjugate(monkeypatch, name, theorem):
    _add_non_conjugate(monkeypatch)
    assert E_IDENTITIES[theorem] <= _failed_trace_checks(name, theorem)
    assert main(["trace", f"catalog:{name}", theorem, "--seed", "1"]) == 1


# the identity added to E, as E's operand type: it fixes every point, so it
# commutes with the witness, shares no support with it, and fixes both
# points of the quadruple trace's stabilizer; it breaks the checks that
# read each member of E, and the identities over E
IDENTITY_ADDED = {
    "double": {"fixer-noncommuting", "overlap-lower-third", "overlap-pairs-partition"},
    "triple": {"orbit-noncommuting"},
    "quadruple": {"orbit-noncommuting", "orbit-stabilizer-structure"},
}


@pytest.mark.parametrize("name, theorem", [
    (name, theorem) for name in ("M11", "M12", "M23", "M24", "PGL2_13")
    for theorem in IDENTITY_ADDED if (name, theorem) != ("PGL2_13", "quadruple")])
def test_traces_fail_on_an_added_identity(monkeypatch, name, theorem):
    closure = groups.conjugation_closure

    def faulty(gens, seed, *args):
        orbit = closure(gens, seed, *args)
        return orbit + (type(orbit[0])(range(seed.degree)),)

    monkeypatch.setattr(groups, "conjugation_closure", faulty)
    assert IDENTITY_ADDED[theorem] <= _failed_trace_checks(name, theorem)
    assert main(["trace", f"catalog:{name}", theorem, "--seed", "1"]) == 1


# one extra mover at an edge point of the triple trace, u^-1(alpha) for
# "back" or u(alpha) for "forward": the edge count read there fails, the
# other passes, and the partition over supp(u) - {alpha} fails with it.  The
# two points differ only where u is no involution, as the 3-cycle witnesses
# of the alternating groups are
@pytest.mark.parametrize("edge", ["back", "forward"])
@pytest.mark.parametrize("name", ["A5", "A6", "A7"])
def test_triple_trace_reads_each_edge_count_at_its_own_point(monkeypatch, name, edge):
    tallies = verify._triple_tallies

    def faulty(ui, alpha, beta, orbit):
        *counts, movers = tallies(ui, alpha, beta, orbit)
        back = next(a for a in range(len(ui)) if ui[a] == alpha)
        assert back != ui[alpha]
        movers = list(movers)
        movers[back if edge == "back" else ui[alpha]] += 1
        return (*counts, movers)

    monkeypatch.setattr(verify, "_triple_tallies", faulty)
    assert _failed_trace_checks(name, "triple") == {f"edge-mover-count-{edge}",
                                                    "overlap-pairs-partition"}
    assert main(["trace", f"catalog:{name}", "triple", "--seed", "1"]) == 1


def _assert_fault(capsys, argv, message, before=""):
    # the CLI reports a RuntimeError as a fault: its message on stderr,
    # nothing on stdout past ``before``, what the suites that finished
    # first printed, and exit 4, not 1 (a failed check) or 2 (bad input)
    capsys.readouterr()
    assert main(argv) == EXIT_FAULT == 4
    out, err = capsys.readouterr()
    (line,) = err.splitlines()
    assert out == before and line.startswith("error: ")
    assert re.search(message, line[len("error: "):])


# a membership sift that rejects every element: the counts suite checks
# the configurations it draws, so u outside the group is a fault of the
# suite, not an input error (the laws suite never asks for membership)
@pytest.mark.parametrize("name", ["M11", "PGL2_13"])
def test_counts_suite_raises_on_a_faulty_membership_sift(monkeypatch, capsys, name):
    monkeypatch.setattr(StabilizerChain, "contains", lambda self, p: False)
    message = f"^{name}: u is not a member of the group$"
    with pytest.raises(RuntimeError, match=message):
        verify.count_identity_suite(catalog.parse_group_name(name), 20)
    _assert_fault(capsys, ["verify", f"catalog:{name}", "counts", "--samples", "20"], message)
    assert main(["verify", f"catalog:{name}", "laws", "--samples", "20"]) == 0
    laws = capsys.readouterr().out
    assert laws.startswith(f"suite laws on {name}:\n")
    _assert_fault(capsys, ["verify", f"catalog:{name}", "all", "--samples", "20"], message,
                  before=laws)


# a transporter that misses its target, or finds none, where t-transitivity
# guarantees one: the jordan trace must raise rather than report a
# degenerate construction (M11 and PSL2_13 stop at the shifted-image exit
# before they ask for v); the triple and quadruple traces carry u back along
# a transporter of one pair to another, which double transitivity
# guarantees, and must raise where it finds none
TRANSPORTER_FAULTS = {
    "cancellation hypotheses failed": lambda transporter: lambda self, src, dst: (
        transporter(self, src, dst) * transporter(self, (dst[0],), (dst[-1],))),
    "no element maps": lambda transporter: lambda self, src, dst: None,
}


@pytest.mark.parametrize("name, message, theorem", [
    pytest.param(name, message, "jordan", id=f"{name}-{message}")
    for name in ("M12", "M24", "PGL2_13") for message in TRANSPORTER_FAULTS] + [
    pytest.param(name, "no element maps", theorem, id=f"{name}-no element maps-{theorem}")
    for name in ("M12", "M24") for theorem in ("triple", "quadruple")])
def test_jordan_trace_raises_on_a_faulty_transporter(monkeypatch, capsys, name, message,
                                                     theorem):
    monkeypatch.setattr(PermutationGroup, "transporter",
                        TRANSPORTER_FAULTS[message](PermutationGroup.transporter))
    with pytest.raises(RuntimeError, match=message):
        verify.TRACES[theorem](catalog.parse_group_name(name), rng=random.Random(1))
    _assert_fault(capsys, ["trace", f"catalog:{name}", theorem, "--seed", "1"], message)


# a minimal degree one above the true m, with the same witness: every
# trace reads m off the witness, and _trace_witness raises before any check
# reads it (the quadruple trace needs a 4-transitive group, which PGL2_13
# is not); the pinned Mathieu values catch it in the table
def _wrong_minimal_degree(monkeypatch):
    exact = verify.minimal_degree

    def faulty(group):
        result = exact(group)
        return result._replace(m=result.m + 1)

    monkeypatch.setattr(verify, "minimal_degree", faulty)


@pytest.mark.parametrize("name, theorem", [
    (name, theorem) for name in ("M11", "M12", "M24", "PGL2_13")
    for theorem in sorted(verify.TRACES) if (name, theorem) != ("PGL2_13", "quadruple")])
def test_traces_raise_on_a_wrong_minimal_degree(monkeypatch, capsys, name, theorem):
    group = catalog.parse_group_name(name)
    m = verify.minimal_degree(group).m
    _wrong_minimal_degree(monkeypatch)
    message = f"^{group.label}: prime-order witness moves {m} points, expected {m + 1}$"
    with pytest.raises(RuntimeError, match=message):
        verify.TRACES[theorem](group, rng=random.Random(1))
    _assert_fault(capsys, ["trace", f"catalog:{name}", theorem, "--seed", "1"], message)


def test_table_raises_on_a_wrong_minimal_degree(monkeypatch, capsys):
    # a pinned value that the computation misses is a fault, not a usage
    # error, so the CLI must not map it to exit 2
    _wrong_minimal_degree(monkeypatch)
    message = "^M11: computed minimal degree 9, expected 8$"
    with pytest.raises(RuntimeError, match=message):
        verify.mathieu_bound_table()
    _assert_fault(capsys, ["table"], message)


# a builtin whose computed order or transitivity degree misses its pin: the
# group is rebuilt, not read from the catalog's cache, and its validation is
# a fault of the computation, not an input error, so the CLI exits 4
@pytest.mark.parametrize("pins, message", [
    (catalog.MATHIEU_ORDER, "^M11: computed order 7920, expected 7921$"),
    (catalog.MATHIEU_TRANSITIVITY, "^M11: computed transitivity degree 4, expected 5$"),
], ids=["order", "transitivity"])
def test_catalog_raises_on_a_missed_pin(monkeypatch, capsys, pins, message):
    monkeypatch.setitem(pins, 11, pins[11] + 1)
    monkeypatch.setattr(catalog, "_cache", {})
    with pytest.raises(RuntimeError, match=message):
        catalog.parse_group_name("M11")
    _assert_fault(capsys, ["info", "catalog:M11"], message)


# an alternating-group probe that misses A_n in S7 and A7: their witnesses
# move 2 and 3 points, and a primitive group with a transposition or a
# 3-cycle contains A_n (Jordan), so the counting traces must raise before
# they close a bound on m - 3 or pick a third support point
@pytest.mark.parametrize("theorem", ["double", "triple", "quadruple"])
@pytest.mark.parametrize("name, m", [("S7", 2), ("A7", 3)])
def test_counting_traces_raise_on_a_missed_alternating_group(monkeypatch, capsys, name, m,
                                                             theorem):
    monkeypatch.setattr(PermutationGroup, "contains_alternating", lambda self: False)
    message = (f"^{name}: the witness moves {m} points, but the group reportedly avoids "
               "the alternating group$")
    with pytest.raises(RuntimeError, match=message):
        verify.TRACES[theorem](catalog.parse_group_name(name))
    _assert_fault(capsys, ["trace", f"catalog:{name}", theorem], message)


# a membership sift that rejects every element: the commutator [u,v] of two
# group elements then reads as lying outside the group (M11 and PSL2_13 stop
# at the shifted-image exit before they build it)
MEMBERSHIP = {"jordan": {"commutator-in-group"}}


@pytest.mark.parametrize("name", ["M12", "M24", "PGL2_13"])
def test_jordan_trace_fails_on_a_faulty_membership_sift(monkeypatch, name):
    monkeypatch.setattr(StabilizerChain, "contains", lambda self, p: False)
    assert MEMBERSHIP["jordan"] <= _failed_trace_checks(name, "jordan")
    assert main(["trace", f"catalog:{name}", "jordan", "--seed", "1"]) == 1


# past the count identities, the non-conjugate added to E breaks the
# relocation and partition counts of the triple trace and the carried-pair
# bound of the quadruple trace, on M11 and M12 at seed 1
NON_CONJUGATE_ALSO = {
    "triple": {"orbit-relocation-structure", "overlap-pairs-partition"},
    "quadruple": {"carried-pairs-upper"},
}


@pytest.mark.parametrize("name, theorem", [
    (name, theorem) for name in ("M11", "M12") for theorem in NON_CONJUGATE_ALSO])
def test_non_conjugate_breaks_the_structure_checks(monkeypatch, name, theorem):
    _add_non_conjugate(monkeypatch)
    assert NON_CONJUGATE_ALSO[theorem] <= _failed_trace_checks(name, theorem)


# the checks no seeded fault flips, keyed by (suite, label), each with the
# reason; a conclusion of the theorem can fail only if the theorem is false
_SLACK = "inequality with slack that one element more or less in E does not cross"
_FROM_N_M = ("theorem step from n and m alone; a wrong m raises in _trace_witness "
             "before any check reads it")
_ANY_PAIR = "holds for every pair of permutations; only a fault in the split rule flips it"
NO_FAULT = {
    ("jordan", "witness-support-exceeds-transitivity"):
        "conclusion about the minimal degree, from m and t alone",
    ("jordan", "pinned-size"): "N whole cycles of a prime-order u hold Np points",
    ("jordan", "commutator-nontrivial"):
        "v moves alpha off u's cycle; a transporter that fails raises instead",
    ("jordan", "commutator-support-cancellation-bound"):
        "lemma for every pair meeting its hypotheses, whose failure raises",
    ("jordan", "commutator-support-at-least-minimal"):
        "m is the least support of a nonidentity element, which [u,v] is",
    ("jordan", "jordan-bound"): "theorem conclusion m >= 2t - 2, from m and t alone",
    ("double", "degree-bound"): _FROM_N_M,
    ("double", "overlap-pairs-lower"): _SLACK,
    ("double", "overlap-pairs-upper"): _SLACK,
    ("triple", "degree-bound"): _FROM_N_M,
    ("triple", "commutator-pairs-lower"): _SLACK,
    ("triple", "commutator-pairs-upper"): _SLACK,
    ("triple", "doubled-overlap-lower"): _SLACK,
    ("quadruple", "support-split-containment"): _ANY_PAIR,
    ("quadruple", "pair-count-split"): _ANY_PAIR,
    ("quadruple", "commutator-pairs-lower"): _SLACK,
    ("quadruple", "arrow-pairs-upper"): _SLACK,
    ("quadruple", "assembled-degree-inequality"): _FROM_N_M,
    ("quadruple", "shifted-threshold-bound"): _FROM_N_M,
    ("quadruple", "minimal-degree-at-least-six"): _FROM_N_M,
    ("quadruple", "degree-window"): _FROM_N_M,
    ("pair-relation", "row-count-uniform"): "every point starts n - 1 distinct pairs in any group",
    ("pair-relation", "column-count-uniform"): "every distinct pair has one first entry",
    ("pair-relation", "count-mass-balance"): "n(n - 1) pairs counted both ways in any group",
}


def test_every_check_is_flipped_or_listed_unreachable():
    # each check label of the four traces on M12 at seed 1, and of the
    # pair-relation suite, is flipped by a seeded fault above or named in
    # NO_FAULT, so a check that can never fire cannot be added unseen
    faulted = {(theorem, label)
               for table in (E_IDENTITIES, MEMBERSHIP, NON_CONJUGATE_ALSO, IDENTITY_ADDED)
               for theorem, labels in table.items() for label in labels}
    group = catalog.parse_group_name("M12")
    found = {("pair-relation", c.label) for c in verify.relation_balance_checks(group)}
    for theorem, trace in verify.TRACES.items():
        report = trace(group, rng=random.Random(1))
        found |= {(theorem, c.label) for c in report.checks if not c.informational}
    assert not faulted & NO_FAULT.keys()
    assert found - faulted - NO_FAULT.keys() == set()
    assert NO_FAULT.keys() <= found
