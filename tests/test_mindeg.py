import pytest

from permdeg import catalog, mindeg
from permdeg.cli import main
from permdeg.groups import CapExceeded, PermutationGroup, StabilizerChain
from permdeg.mindeg import minimal_degree, minimal_degree_backtrack, minimal_degree_exhaustive
from permdeg.perm import Permutation, parse_cycles, prime_order_witness

from brute import (DOUBLY_TRANSITIVE, brute_minimal_degree, mulclose, relabelled,
                   transitive_minimal_degree)


def small_catalog():
    """Catalog groups of order at most 1e5: the oracle-equivalence pool."""
    groups = []
    groups += [catalog.builtin("symmetric", n) for n in range(2, 9)]
    groups += [catalog.builtin("alternating", n) for n in range(3, 9)]
    groups += [catalog.builtin("cyclic", n) for n in range(2, 13)]
    groups += [catalog.builtin("dihedral", n) for n in range(3, 13)]
    groups += [catalog.builtin("pgl2", q) for q in (3, 5, 7)]
    groups += [catalog.builtin("psl2", q) for q in (3, 5, 7)]
    groups += [catalog.builtin("mathieu", 11), catalog.builtin("mathieu", 12)]
    assert all(g.order <= 100_000 for g in groups)
    return groups


@pytest.mark.parametrize("name,param,expected", [
    ("symmetric", 5, 2), ("alternating", 5, 3), ("dihedral", 4, 2), ("cyclic", 5, 5),
])
def test_exhaustive_small_groups(name, param, expected):
    g = catalog.builtin(name, param)
    result = minimal_degree_exhaustive(g)
    assert result.m == expected
    assert result.method == "exhaustive"
    assert result.elements_visited == g.order


def test_exhaustive_witness_is_lex_least():
    g = catalog.builtin("symmetric", 5)
    result = minimal_degree_exhaustive(g)
    elems = mulclose(list(g.generators), 5)
    best = min((p.images for p in elems if p.moved_count() == result.m))
    assert result.witness.images == best


def test_exhaustive_matches_brute_closure():
    for name, param in [("dihedral", 6), ("pgl2", 5), ("alternating", 6)]:
        g = catalog.builtin(name, param)
        elems = mulclose(list(g.generators), g.degree)
        assert minimal_degree_exhaustive(g).m == brute_minimal_degree(elems)


def test_backtrack_agrees_on_small_catalog():
    for g in small_catalog():
        exh = minimal_degree_exhaustive(g)
        back = minimal_degree_backtrack(g)
        assert back.m == exh.m, g.label
        assert back.witness.moved_count() == exh.witness.moved_count()


def test_witness_invariants():
    for g in (catalog.builtin("mathieu", 11), catalog.builtin("dihedral", 7)):
        for result in (minimal_degree_exhaustive(g), minimal_degree_backtrack(g)):
            assert not result.witness.is_identity()
            assert result.witness.moved_count() == result.m
            assert g.contains(result.witness)


def test_prime_order_witness_attains_minimum():
    for g in (catalog.builtin("mathieu", 11), catalog.builtin("pgl2", 7)):
        result = minimal_degree(g)
        w = prime_order_witness(result.witness)
        assert not w.is_identity()
        assert w.support() <= result.witness.support()
        assert w.moved_count() == result.m


def test_relabeling_invariance():
    g = catalog.builtin("mathieu", 11)
    relabel = parse_cycles("(1,11,4)(2,9)(3,8,6,5)", 11)
    conjugated = PermutationGroup([h.conjugate(relabel) for h in g.generators], 11, "M11r")
    assert minimal_degree_backtrack(conjugated).m == minimal_degree_backtrack(g).m


def test_mathieu_small_exhaustive():
    assert minimal_degree_exhaustive(catalog.builtin("mathieu", 11)).m == 8
    assert minimal_degree_exhaustive(catalog.builtin("mathieu", 12)).m == 8


def test_backtrack_counters_present():
    # the search is deterministic, so its work counters repeat exactly
    pinned = {11: (4, 1), 12: (5, 1), 23: (7, 7), 24: (8, 7)}
    for k, counters in pinned.items():
        result = minimal_degree_backtrack(catalog.builtin("mathieu", k))
        assert (result.elements_visited, result.nodes_pruned) == counters, k


def test_auto_dispatch_and_cache():
    # minimal_degree always backtracks, whatever the order, and caches the result
    g = catalog.builtin("symmetric", 6)
    first = minimal_degree(g)
    assert first.method == "backtrack"
    assert first.m == 2
    assert minimal_degree(g) is first

    m23 = catalog.builtin("mathieu", 23)
    result = minimal_degree(m23)
    assert result.method == "backtrack"
    assert result.m == 16
    assert minimal_degree(m23) is result


def test_production_paths_never_enumerate_elements(monkeypatch, capsys):
    def refuse(self):
        raise AssertionError("element enumeration on a production path")

    monkeypatch.setattr(StabilizerChain, "elements", refuse)
    monkeypatch.setattr(catalog, "_cache", {})
    assert minimal_degree(catalog.builtin("symmetric", 8)).m == 2
    assert minimal_degree(catalog.builtin("mathieu", 12)).m == 8
    assert main(["info", "catalog:S9"]) == 0
    assert main(["table"]) == 0
    assert "m=2 (backtrack)" in capsys.readouterr().out


def test_trivial_group_rejected():
    trivial = PermutationGroup([], 4)
    with pytest.raises(ValueError):
        minimal_degree_exhaustive(trivial)
    with pytest.raises(ValueError):
        minimal_degree_backtrack(trivial)


def test_exhaustive_cap():
    g = catalog.builtin("symmetric", 8)
    with pytest.raises(CapExceeded):
        minimal_degree_exhaustive(g, order_cap=1000)


def test_global_fixed_points_counted():
    # embedded S3 fixing two extra points: minimal support still 2
    g = PermutationGroup([parse_cycles("(1,2)", 5), parse_cycles("(1,2,3)", 5)], 5)
    assert minimal_degree_backtrack(g).m == 2
    assert minimal_degree_exhaustive(g).m == 2


def _gate_on_stabilizers(group):
    # the production minimal degree against the point-stabilizer oracle
    assert minimal_degree(group).m == transitive_minimal_degree(group), group.label


@pytest.mark.parametrize("name", DOUBLY_TRANSITIVE)
def test_minimal_degree_matches_the_stabilizer_oracle(name):
    group = catalog.parse_group_name(name)
    _gate_on_stabilizers(group)
    _gate_on_stabilizers(relabelled(group))


def test_stabilizer_oracle_fails_a_backtrack_one_too_high(monkeypatch):
    backtrack = mindeg.minimal_degree_backtrack

    def faulty(group):
        result = backtrack(group)
        return result._replace(m=result.m + 1)

    monkeypatch.setattr(mindeg, "minimal_degree_backtrack", faulty)
    # relabelled copies carry no cached result from an earlier test
    for name in ("S5", "PSL2_31", "M11", "M24"):
        with pytest.raises(AssertionError):
            _gate_on_stabilizers(relabelled(catalog.parse_group_name(name)))
