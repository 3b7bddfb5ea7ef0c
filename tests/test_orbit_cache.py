"""The conjugation orbits the counting traces keep per group
(``groups._base_orbit``): a trace that reads an orbit an earlier trace
closed reports what a trace on a freshly built group reports, and what the
per-member loop of ``brute`` counts over the closure under the trace's own
stabilizer."""

import random

import pytest

from brute import mobius_group, save_generator_file, trace_tallies_by_element
from permdeg import catalog, groups, verify
from permdeg.cli import main
from permdeg.groups import PermutationGroup, _member, conjugation_closure
from permdeg.perm import parse_cycles

COUNTING = ("double", "triple", "quadruple")


def _fields(report):
    return {name: getattr(report, name) for name in verify.TraceReport.__slots__}


def _trace(group, theorem, seed):
    return verify.TRACES[theorem](group, rng=random.Random(seed) if seed else None)


def _cold(group, theorem, seed):
    # the trace on ``group`` with no orbit kept for it
    groups._orbits.pop(group, None)
    return _trace(group, theorem, seed)


def _brute_tallies(group, theorem, report):
    """The tallies the trace reads, counted member by member over E closed
    directly under the stabilizer of the report's own points."""
    n = group.degree
    w = report.witnesses
    u = parse_cycles(w["u"], n)
    alpha, beta = int(w["alpha"]) - 1, int(w["beta"]) - 1
    pts = [alpha] if theorem == "double" else [alpha, beta]
    seed = u if theorem == "double" else parse_cycles(w["v"], n)
    orbit = conjugation_closure(group.pointwise_stabilizer(pts).generators, seed)
    return len(orbit), trace_tallies_by_element(theorem, u.images, alpha, beta, orbit)


def _report_tallies(theorem, report):
    """What the report states of the same tallies: its sizes and observed
    counts, and the mover counts its checks read."""
    checks = {c.label: c for c in report.checks}
    sizes = report.sizes
    if theorem == "double":
        return (sizes["fixing"], checks["fixer-noncommuting"].observed,
                checks["overlap-lower-third"].observed, sizes["overlap_pairs"],
                checks["overlap-pairs-partition"].formula)
    if theorem == "triple":
        return (checks["orbit-relocation-structure"].observed,
                checks["orbit-noncommuting"].observed, sizes["commutator_pairs"],
                sizes["overlap_pairs"], sizes["doubled_pairs"],
                checks["edge-mover-count-back"].observed,
                checks["edge-mover-count-forward"].observed,
                checks["overlap-pairs-partition"].formula)
    return (checks["orbit-stabilizer-structure"].observed,
            checks["orbit-noncommuting"].observed,
            checks["support-split-containment"].observed, sizes["commutator_pairs"],
            sizes["overlap_pairs"], sizes["carried_pairs"], sizes["arrow_pairs"])


def _expected_tallies(theorem, brute, size, ui, alpha, beta):
    if theorem == "double":
        fixing, commuting, thin, pair_total, movers = brute
        middle = [a for a, c in enumerate(ui) if c != a and a not in (alpha, beta)]
        return fixing, commuting, thin, pair_total, fixing + sum(movers[a] for a in middle)
    if theorem == "triple":
        misplaced, commuting, commutator_total, overlap_total, doubled_total, movers = brute
        support = [a for a, c in enumerate(ui) if c != a and a != alpha]
        return (misplaced, commuting, commutator_total, overlap_total, doubled_total,
                movers[ui.index(alpha)], movers[ui[alpha]],
                size + sum(movers[a] for a in support))
    (structure, commuting, commutator_total, overlap_total, carried_total, arrows_total,
     containment) = brute
    return (structure, commuting, containment, commutator_total, overlap_total,
            carried_total, arrows_total)


@pytest.mark.parametrize("name", ["M11", "M12", "M23", "M24", "PGL2_13", "PSL2_13", "S7"])
def test_warm_reports_match_cold_and_brute_tallies(name):
    group = catalog.parse_group_name(name)
    fresh = PermutationGroup(group.generators, group.degree, label=group.label)
    n = group.degree
    for seed in range(6):
        for theorem in COUNTING:
            report = _trace(group, theorem, seed)
            assert _fields(report) == _fields(_cold(fresh, theorem, seed)), (seed, theorem)
            if not report.applicable:
                continue
            size, brute = _brute_tallies(group, theorem, report)
            w = report.witnesses
            ui = parse_cycles(w["u"], n).images
            alpha, beta = int(w["alpha"]) - 1, int(w["beta"]) - 1
            assert report.sizes["orbit"] == size, (seed, theorem)
            expected = _expected_tallies(theorem, brute, size, ui, alpha, beta)
            assert _report_tallies(theorem, report) == expected, (seed, theorem)


def test_s2_double_trace_keeps_its_orbit(capsys):
    # S2's () chain has one level, and the double trace carries two points,
    # alpha and beta; the walk stops past the last level, where the
    # stabilizer is trivial, so S2 keeps its orbit as every group does
    group = catalog.parse_group_name("S2")
    assert len(group.chain().levels) == 1
    assert main(["trace", "catalog:S2", "double"]) == 0
    capsys.readouterr()
    assert {k: len(orbits) for k, orbits in groups._orbits[group].items()} == {1: 1}
    report = _trace(group, "double", 0)
    assert report.applicable and verify.all_pass(report.checks)
    size, brute = _brute_tallies(group, "double", report)
    w = report.witnesses
    ui = parse_cycles(w["u"], 2).images
    alpha, beta = int(w["alpha"]) - 1, int(w["beta"]) - 1
    assert report.sizes["orbit"] == size
    assert _report_tallies("double", report) == _expected_tallies(
        "double", brute, size, ui, alpha, beta)


def test_each_group_keeps_one_orbit_per_witness_class():
    # the witnesses of every seed are conjugates of one prime-order element;
    # carried onto the base points, the double trace's seeds share one orbit
    # under G_(b0), and the triple and quadruple traces' one orbit each under
    # G_(b0, b1), so 3 closures serve the 51 traces of each group
    built = []
    closure = groups.conjugation_closure

    def counted(gens, seed, cap):
        built.append(seed)
        return closure(gens, seed, cap)

    for name in ("M12", "M23", "M24"):
        group = catalog.parse_group_name(name)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(groups, "conjugation_closure", counted)
            for seed in range(1, 18):
                for theorem in COUNTING:
                    assert verify.all_pass(_trace(group, theorem, seed).checks)
        assert {k: len(orbits) for k, orbits in groups._orbits[group].items()} == {1: 1, 2: 2}
    assert len(built) == 9


def test_cap_holds_on_a_kept_orbit(capsys, monkeypatch):
    # a cap below |E| raises CapExceeded on an orbit read from the cache as
    # on a fresh closure: exit 3, with the same message
    argv = ["trace", "catalog:M24", "double", "--seed", "2", "--cap", "100"]
    assert main(argv) == 3
    cold = [line for line in capsys.readouterr().err.splitlines()
            if not line.startswith("elapsed:")]
    assert main(["trace", "catalog:M24", "double", "--seed", "1"]) == 0
    capsys.readouterr()
    monkeypatch.setattr(groups, "conjugation_closure", None)  # a hit closes nothing
    assert main(argv) == 3
    warm = [line for line in capsys.readouterr().err.splitlines()
            if not line.startswith("elapsed:")]
    assert warm == cold == ["error: conjugation orbit exceeds cap 100"]
    # at |E| itself the cap holds
    size = len(groups._orbits[catalog.parse_group_name("M24")][1][0]) // 24
    assert main(argv[:-1] + [str(size)]) == 0


def test_wide_orbits_are_kept_and_read(tmp_path):
    # PGL2_257 acts on 258 points, where an orbit is one flat tuple; the
    # second seed of each trace reads the orbit the first one closed
    path = tmp_path / "PGL2_257.perm"
    save_generator_file(mobius_group(257), path)
    group = catalog.load_generator_file(path)
    built = []
    closure = groups.conjugation_closure

    def counted(gens, seed, cap):
        built.append(seed)
        return closure(gens, seed, cap)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(groups, "conjugation_closure", counted)
        warm = {(theorem, seed): _fields(_trace(group, theorem, seed))
                for theorem in ("double", "triple") for seed in (1, 2)}
    assert len(built) == 2
    assert all(isinstance(orbit, tuple) for orbits in groups._orbits[group].values()
               for orbit in orbits)
    for theorem, seed in [("double", 2), ("triple", 2)]:
        assert warm[theorem, seed] == _fields(_cold(group, theorem, seed)), (theorem, seed)
    assert all(report["applicable"] and verify.all_pass(report["checks"])
               for report in warm.values())


@pytest.mark.parametrize("degree", [3, 300])
def test_member_counts_only_whole_members(degree):
    # (0, 2, 1) starts at entry 2 of [(1, 2, 0), (2, 1, 0)] joined, across
    # the two members, and is a member only once it is added; the points
    # past 3 are fixed
    wrap = groups._width(degree)[1]
    rest = tuple(range(3, degree))

    def op(*images):
        return wrap(images + rest)

    flat = groups._flat([op(1, 2, 0), op(2, 1, 0)], degree)
    if degree == 3:
        assert flat.find(op(0, 2, 1)) == 2
    assert _member(flat, op(1, 2, 0)) and _member(flat, op(2, 1, 0))
    assert not _member(flat, op(0, 2, 1)) and not _member(flat, op(0, 1, 2))
    flat = groups._flat([op(1, 2, 0), op(2, 1, 0), op(0, 2, 1)], degree)
    assert _member(flat, op(0, 2, 1))
    assert not _member(groups._flat([], degree), op(0, 1, 2))
