"""Acceptance criteria, one test each, printing one PASS/FAIL line per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they pass.
"""

import math
import time
from pathlib import Path

from permdeg import catalog
from permdeg.cli import main
from permdeg.groups import PermutationGroup
from permdeg.mindeg import minimal_degree, minimal_degree_backtrack, minimal_degree_exhaustive
from permdeg.verify import (
    CLAUSES,
    all_pass,
    commutator_law_suite,
    count_identity_suite,
    double_transitive_trace,
    jordan_bound_trace,
    mathieu_bound_table,
    quadruple_transitive_trace,
    triple_transitive_trace,
)


def report(num, name, ok, detail=""):
    suffix = f" [{detail}]" if detail else ""
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'}{suffix}", flush=True)


def small_catalog():
    groups = []
    groups += [catalog.builtin("symmetric", n) for n in range(2, 9)]
    groups += [catalog.builtin("alternating", n) for n in range(3, 9)]
    groups += [catalog.builtin("cyclic", n) for n in range(2, 13)]
    groups += [catalog.builtin("dihedral", n) for n in range(3, 13)]
    groups += [catalog.builtin("pgl2", q) for q in (3, 5, 7)]
    groups += [catalog.builtin("psl2", q) for q in (3, 5, 7)]
    groups += [catalog.builtin("mathieu", 11), catalog.builtin("mathieu", 12)]
    return [g for g in groups if g.order <= 100_000]


def test_criterion_1_mathieu_minimal_degrees():
    results = {}
    timings = {}
    for k, method in ((11, "exhaustive"), (12, "exhaustive"),
                      (23, "backtrack"), (24, "backtrack")):
        g = catalog.builtin("mathieu", k)
        start = time.monotonic()
        if method == "exhaustive":
            res = minimal_degree_exhaustive(g)
        else:
            res = minimal_degree_backtrack(g)
        timings[k] = time.monotonic() - start
        results[k] = res.m
    budget_ok = (timings[11] < 60 and timings[12] < 60
                 and timings[23] < 600 and timings[24] < 600)
    values_ok = results == {11: 8, 12: 8, 23: 16, 24: 16}
    ok = budget_ok and values_ok
    report(1, "mathieu minimal degrees", ok,
           f"m={results} times={ {k: round(v, 2) for k, v in timings.items()} }")
    assert values_ok, results
    assert budget_ok, timings


def test_criterion_2_bound_table():
    rows = mathieu_bound_table()
    bounds = [r.bound for r in rows]
    formula = [max(6, math.ceil((r.n - 3) / 2)) for r in rows]
    ok = (bounds == [6, 6, 10, 11] and bounds == formula
          and all(r.check.passed for r in rows))
    report(2, "degree/bound table", ok, f"bounds={bounds}")
    assert ok, rows


def test_criterion_3_transitivity_degrees():
    got = {k: catalog.builtin("mathieu", k).transitivity_degree()
           for k in (11, 12, 23, 24)}
    ok = got == {11: 4, 12: 5, 23: 4, 24: 5}
    report(3, "mathieu transitivity degrees", ok, f"t={got}")
    assert ok, got


def test_criterion_4_count_identities_exact():
    specs = [("symmetric", 6), ("alternating", 7), ("pgl2", 7),
             ("mathieu", 11), ("mathieu", 12)]
    start = time.monotonic()
    failures = {}
    for name, param in specs:
        g = catalog.builtin(name, param)
        checks, inapplicable = count_identity_suite(g, samples=1000, seed=0)
        failures[g.label] = sum(c.observed for c in checks)
        assert not inapplicable, (g.label, inapplicable)
        assert len(checks) == len(CLAUSES), g.label
    elapsed = time.monotonic() - start
    ok = all(v == 0 for v in failures.values()) and elapsed < 300
    report(4, "orbit count identities", ok,
           f"failures={failures} elapsed={elapsed:.1f}s")
    assert all(v == 0 for v in failures.values()), failures
    assert elapsed < 300, elapsed


def test_criterion_5_commutator_laws():
    start = time.monotonic()
    failures = {}
    for name, param in (("symmetric", 8), ("alternating", 9)):
        g = catalog.builtin(name, param)
        checks = commutator_law_suite(g, samples=10_000, seed=0)
        failures[g.label] = sum(c.observed for c in checks if not c.informational)
    elapsed = time.monotonic() - start
    ok = all(v == 0 for v in failures.values()) and elapsed < 30
    report(5, "commutator support laws", ok,
           f"failures={failures} elapsed={elapsed:.1f}s")
    assert all(v == 0 for v in failures.values()), failures
    assert elapsed < 30, elapsed


def test_criterion_6_trace_equalities_and_bounds():
    problems = []
    for name in ("PGL2_7", "M11", "M12"):
        g = catalog.parse_group_name(name)
        double = double_transitive_trace(g)
        if double.sizes["fixing"] * (double.n - 1) != double.sizes["orbit"] * (double.n - double.m):
            problems.append(f"{name}: fixing-count identity")
        if not all_pass(double.checks):
            problems.append(f"{name}: double trace")
        triple = triple_transitive_trace(g)
        lhs = triple.sizes["overlap_pairs"] * (triple.n - 2)
        rhs = triple.sizes["orbit"] * ((triple.n - 2) + (triple.m - 1) * (triple.m - 2))
        if lhs != rhs:
            problems.append(f"{name}: overlap-pairs identity")
        if not all_pass(triple.checks):
            problems.append(f"{name}: triple trace")

    quad11 = quadruple_transitive_trace(catalog.builtin("mathieu", 11))
    if not (quad11.derived["m_shift"] == 5 and quad11.derived["slack_poly"] == 3409
            and all_pass(quad11.checks)):
        problems.append("M11: quadruple shifted form")

    triple23 = triple_transitive_trace(catalog.builtin("mathieu", 23))
    third = {c.label: c for c in triple23.checks}.get("third-bound")
    if third is None or not third.passed or third.observed != 48:
        problems.append("M23: third bound")

    quad24 = quadruple_transitive_trace(catalog.builtin("mathieu", 24))
    window = {c.label: c for c in quad24.checks}["degree-window"]
    if not (window.passed and window.observed == 21 and window.formula == 32):
        problems.append("M24: degree window")

    jordan12 = jordan_bound_trace(catalog.builtin("mathieu", 12))
    bound = {c.label: c for c in jordan12.checks}["jordan-bound"]
    if not (bound.passed and bound.observed == 8 and bound.formula == 8):
        problems.append("M12: jordan bound tightness")

    ok = not problems
    report(6, "trace equalities and bounds", ok, "; ".join(problems) or "all exact")
    assert ok, problems


def test_criterion_7_backtrack_exhaustive_equivalence():
    mismatches = []
    for g in small_catalog():
        fresh = PermutationGroup(g.generators, g.degree, g.label)
        exh = minimal_degree_exhaustive(fresh)
        back = minimal_degree_backtrack(fresh)
        if exh.m != back.m or back.witness.moved_count() != exh.m:
            mismatches.append((g.label, exh.m, back.m))
    ok = not mismatches
    report(7, "backtrack equals exhaustive", ok,
           f"{len(small_catalog())} groups" if ok else str(mismatches))
    assert ok, mismatches


def test_criterion_8_alternating_exclusion():
    ground_truth = {
        "S6": True, "A6": True, "S3": True, "A4": True,
        "C3": True, "C2": True, "D3": True,          # coincide with Sym/Alt
        "C6": False, "D4": False, "D6": False,
        "PGL2_3": True, "PSL2_3": True,              # the degree-4 coincidences
        "PGL2_5": False, "PSL2_5": False, "PGL2_7": False, "PSL2_7": False,
        "M11": False, "M12": False, "M23": False, "M24": False,
    }
    probe_errors = []
    for label, expected in ground_truth.items():
        if catalog.parse_group_name(label).contains_alternating() != expected:
            probe_errors.append(label)

    # the minimal-degree floor applies to the doubly transitive catalog groups
    floor_errors = []
    doubly = [catalog.builtin("pgl2", q) for q in (5, 7, 11)]
    doubly += [catalog.builtin("psl2", q) for q in (5, 7, 11)]
    doubly += [catalog.builtin("mathieu", k) for k in (11, 12, 23, 24)]
    for g in doubly:
        if g.contains_alternating():
            continue
        m = minimal_degree(g).m
        if m < 4:
            floor_errors.append((g.label, m))
    ok = not probe_errors and not floor_errors
    report(8, "alternating exclusion floor", ok,
           f"probe_errors={probe_errors} floor_errors={floor_errors}")
    assert ok, (probe_errors, floor_errors)


def test_criterion_9_json_determinism(tmp_path):
    paths = {}
    for jobs in (1, 8):
        path = tmp_path / f"jobs{jobs}.json"
        code = main(["verify", "catalog:S6", "all", "--seed", "7",
                     "--jobs", str(jobs), "--json", str(path)])
        assert code == 0
        paths[jobs] = path.read_bytes()
    same_s6 = paths[1] == paths[8]

    for jobs in (1, 8):
        path = tmp_path / f"m11-jobs{jobs}.json"
        code = main(["verify", "catalog:M11", "counts", "--samples", "300",
                     "--seed", "7", "--jobs", str(jobs), "--json", str(path)])
        assert code == 0
        paths[f"m11-{jobs}"] = path.read_bytes()
    same_m11 = paths["m11-1"] == paths["m11-8"]

    # also across separate interpreter processes
    import os
    import subprocess
    import sys
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    blobs = []
    for jobs in ("1", "8"):
        path = tmp_path / f"proc{jobs}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "permdeg.cli", "verify", "catalog:S6", "all",
             "--seed", "7", "--jobs", jobs, "--json", str(path)],
            env=env, capture_output=True)
        assert proc.returncode == 0, proc.stderr
        blobs.append(path.read_bytes())
    same_proc = blobs[0] == blobs[1] == paths[1]

    ok = same_s6 and same_m11 and same_proc
    report(9, "byte-identical reports across jobs", ok)
    assert ok
