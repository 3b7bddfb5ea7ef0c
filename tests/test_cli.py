import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from permdeg import catalog, mindeg
from permdeg.cli import build_parser, main
from permdeg.groups import PermutationGroup
from permdeg.mindeg import minimal_degree_backtrack
from permdeg.perm import Permutation
from permdeg.verify import TRACES

from brute import save_generator_file


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_info_s5(capsys):
    code, out = run(capsys, "info", "catalog:S5")
    assert code == 0
    assert "order=120" in out and "t=5" in out and "m=2" in out


def test_info_m12(capsys):
    code, out = run(capsys, "info", "catalog:M12")
    assert code == 0
    assert "order=95040" in out and "t=5" in out and "m=8" in out


def test_info_missing_file(capsys):
    code, _ = run(capsys, "info", "file:does-not-exist.perm")
    assert code == 2


def test_bad_group_spec(capsys):
    code, _ = run(capsys, "info", "catalog:Q8")
    assert code == 2
    code, _ = run(capsys, "info", "S5")
    assert code == 2
    code, _ = run(capsys, "info", "catalog:PGL2_")
    assert code == 2


@pytest.mark.parametrize("name", ["S0", "A0", "C0"])
def test_zero_point_family_is_a_usage_error(capsys, name):
    code = main(["info", f"catalog:{name}"])
    out, err = capsys.readouterr()
    assert (code, out, err) == (2, "", "error: degree must be at least 1\n")


def test_bad_subcommand(capsys):
    assert main(["frobnicate"]) == 2


def test_verify_laws(capsys):
    code, out = run(capsys, "verify", "catalog:S6", "laws", "--samples", "200")
    assert code == 0
    assert "commutator-support-containment" in out


def test_verify_counts_inapplicable(capsys):
    code, out = run(capsys, "verify", "catalog:C6", "counts", "--samples", "40")
    assert code == 0
    assert "inapplicable" in out


def test_verify_counts_m24_ignores_cap(tmp_path, capsys):
    # the counts suite enumerates no orbit, so a small --cap cannot stop it
    path = tmp_path / "m24.json"
    code, out = run(capsys, "verify", "catalog:M24", "counts", "--samples", "20",
                    "--seed", "3", "--cap", "3000", "--json", str(path))
    assert code == 0
    assert "FAIL" not in out
    suites = json.loads(path.read_text())["suites"]
    checks = [c for suite in suites for c in suite["checks"]]
    assert len(checks) == 8 and all(c["pass"] for c in checks)


def test_verify_laws_rejects_nonpositive_samples(capsys):
    for samples in ("-5", "0"):
        code, out = run(capsys, "verify", "catalog:M11", "laws", "--samples", samples)
        assert code == 2
        assert "PASS" not in out


def test_verify_counts_rejects_nonpositive_samples(capsys):
    for samples in ("0", "-1"):
        code, out = run(capsys, "verify", "catalog:M11", "counts", "--samples", samples)
        assert code == 2
        assert "inapplicable" not in out


def test_trace_gated(capsys):
    code, out = run(capsys, "trace", "catalog:S6", "double")
    assert code == 0
    assert "fixing-count-identity" in out


def test_trace_quadruple_m11(capsys):
    code, out = run(capsys, "trace", "catalog:M11", "quadruple")
    assert code == 0
    assert "conclusion holds: True" in out


def test_trace_jordan_degenerate_warns(capsys):
    code, out = run(capsys, "trace", "catalog:M11", "jordan")
    assert code == 0
    assert "degenerate" in out


def test_trace_seeded_random_choices(capsys):
    for seed in ("1", "2"):
        code, out = run(capsys, "trace", "catalog:M11", "triple", "--seed", seed)
        assert code == 0
        assert "FAIL" not in out


def test_table(capsys):
    code, out = run(capsys, "table")
    assert code == 0
    assert "M11: n=11 t=4 m=8 bound=6" in out
    assert "M12: n=12 t=5 m=8 bound=6" in out
    assert "M23: n=23 t=4 m=16 bound=10" in out
    assert "M24: n=24 t=5 m=16 bound=11" in out


def test_verify_searches_for_m_only_for_the_json_header(capsys, monkeypatch, tmp_path):
    # m appears only in the --json header, so verify without --json runs
    # no minimal-degree search; each run loads a fresh group from the file,
    # so mindeg's per-group results cannot hide a search
    searched = []

    def backtrack(group):
        searched.append(group.label)
        return minimal_degree_backtrack(group)

    monkeypatch.setattr(mindeg, "minimal_degree_backtrack", backtrack)
    path = tmp_path / "s5.perm"
    save_generator_file(catalog.parse_group_name("S5"), path)
    argv = ("verify", f"file:{path}", "laws", "--samples", "20")
    code, _ = run(capsys, *argv)
    assert code == 0 and searched == []
    report = tmp_path / "s5.json"
    code, _ = run(capsys, *argv, "--json", str(report))
    assert code == 0 and searched == ["s5"]
    assert json.loads(report.read_text())["m"] == 2


def test_table_exits_by_the_checks_it_writes(capsys, monkeypatch, tmp_path):
    # the exit code and the --json pass flags read the check each row
    # carries, and the table states m >= bound nowhere else: here each
    # row's check is the opposite of its own m >= bound
    import permdeg.verify as verify

    def row(label, m, bound, passed):
        check = verify.CountCheck("minimal-degree-meets-bound", ">=", m, bound, passed)
        return verify.DegreeBoundRow(label, 9, 2, m, bound, check)

    rows = [row("X", 5, 4, False), row("Y", 3, 4, True)]
    monkeypatch.setattr(verify, "mathieu_bound_table", lambda: rows)
    path = tmp_path / "table.json"
    code, _ = run(capsys, "table", "--json", str(path))
    flags = [check["pass"] for suite in json.loads(path.read_text())["suites"]
             for check in suite["checks"]]
    assert flags == [False, True] and code == 1
    rows[0] = row("X", 3, 4, True)
    code, _ = run(capsys, "table", "--json", str(path))
    assert code == 0


@pytest.mark.parametrize("argv", [
    ("info", "catalog:M11"),
    ("mindeg", "catalog:M11"),
    ("verify", "catalog:S6", "laws", "--samples", "20"),
    ("trace", "catalog:M11", "double"),
    ("table",),
])
def test_unwritable_json_path_is_a_usage_error(tmp_path, capsys, argv):
    # the report is written after the command prints, so stdout is the
    # command's own; the failed write exits 2 with one error line and no
    # elapsed line
    code = main([*argv, "--json", str(tmp_path)])
    out, err = capsys.readouterr()
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1 and "elapsed:" not in err
    assert main(list(argv)) == 0
    assert capsys.readouterr().out == out != ""


def test_mindeg_methods_agree(capsys):
    code, out1 = run(capsys, "mindeg", "catalog:M11", "--method", "exhaustive")
    assert code == 0 and "m=8" in out1
    code, out2 = run(capsys, "mindeg", "catalog:M11", "--method", "backtrack")
    assert code == 0 and "m=8" in out2


def test_mindeg_cap_exit(capsys):
    code, _ = run(capsys, "mindeg", "catalog:S8", "--method", "exhaustive",
                  "--cap", "1000")
    assert code == 3


@pytest.mark.parametrize("argv", [
    ("trace", "catalog:M11", "double", "--cap", "-3"),
    ("trace", "catalog:M11", "quadruple", "--cap", "0"),
    ("mindeg", "catalog:S5", "--method", "exhaustive", "--cap", "-1"),
    ("info", "catalog:S5", "--cap", "0"),
])
def test_cap_below_one_is_a_usage_error(capsys, argv):
    code, out = run(capsys, *argv)
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("argv", [
    ("verify", "catalog:S6", "all", "--samples", "10", "--jobs", "0"),
    ("verify", "catalog:M11", "laws", "--jobs", "-3"),
    ("trace", "catalog:M11", "double", "--jobs", "0"),
    ("info", "catalog:S5", "--jobs", "-1"),
])
def test_jobs_below_one_is_a_usage_error(capsys, argv):
    # --jobs has no effect, but it is still an input: below 1 it exits 2,
    # as --samples and --cap do
    code = main(list(argv))
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert "argument --jobs: must be at least 1" in err


@pytest.mark.parametrize("argv", [
    ("trace", "catalog:M11", "sextuple"),
    ("info", "catalog:M11", "--jobs", "0"),
    ("verify", "catalog:M11", "laws", "--samples", "0", "--seed", "1", "--cap", "5"),
])
def test_usage_errors_read_no_terminal_width(capsys, monkeypatch, argv):
    # argparse wraps usage text to COLUMNS unless its formatter fixes a width
    errors = set()
    for columns in ("30", "80", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        assert main(list(argv)) == 2
        errors.add(capsys.readouterr().err)
    assert len(errors) == 1 and "usage: permdeg" in errors.pop()


def test_mindeg_unknown_method_rejected(capsys):
    # auto meant backtrack, the default, and is no longer a choice
    for method in ("guess", "auto"):
        code, _ = run(capsys, "mindeg", "catalog:C4", "--method", method)
        assert code == 2, method


def test_json_report_schema(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, _ = run(capsys, "verify", "catalog:S5", "all", "--samples", "100",
                  "--seed", "7", "--json", str(path))
    assert code == 0
    report = json.loads(path.read_text())
    assert report["schema"] == 1
    assert report["group"] == "S5"
    assert report["n"] == 5
    assert report["order"] == "120"
    assert report["t"] == 5
    assert report["m"] == 2
    assert report["seed"] == 7
    assert report["elapsed_ms"] == 0
    for suite in report["suites"]:
        assert set(suite) >= {"name", "checks", "applicable"}
        for check in suite["checks"]:
            assert set(check) == {"label", "relation", "observed", "formula", "pass"}


def test_json_deterministic_across_jobs(tmp_path, capsys):
    p1 = tmp_path / "r1.json"
    p8 = tmp_path / "r8.json"
    run(capsys, "verify", "catalog:S6", "all", "--samples", "200", "--seed", "7",
        "--jobs", "1", "--json", str(p1))
    run(capsys, "verify", "catalog:S6", "all", "--samples", "200", "--seed", "7",
        "--jobs", "8", "--json", str(p8))
    assert p1.read_bytes() == p8.read_bytes()


def test_json_deterministic_across_runs(tmp_path, capsys):
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    run(capsys, "trace", "catalog:M11", "triple", "--json", str(p1))
    run(capsys, "trace", "catalog:M11", "triple", "--json", str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_seeded_traces_ignore_filled_stabilizer_pairs(tmp_path, capsys, monkeypatch):
    # the carried stabilizer pairs are drawn from a private rng, so a seeded
    # trace writes the same bytes on a fresh group as on one whose pairs an
    # earlier counts suite already drew
    theorems = ("triple", "quadruple")

    def trace(theorem, tag):
        path = tmp_path / f"{tag}-{theorem}.json"
        code, _ = run(capsys, "trace", "catalog:M12", theorem, "--seed", "3",
                      "--json", str(path))
        assert code == 0
        return path.read_bytes()

    fresh = []
    for theorem in theorems:
        monkeypatch.setattr(catalog, "_cache", {})
        fresh.append(trace(theorem, "fresh"))
    monkeypatch.setattr(catalog, "_cache", {})
    code, _ = run(capsys, "verify", "catalog:M12", "counts", "--samples", "200", "--seed", "5")
    assert code == 0
    assert set(catalog.parse_group_name("M12")._pairs) == {1, 2}
    assert [trace(theorem, "filled") for theorem in theorems] == fresh


def test_reused_parser_matches_fresh_processes(tmp_path, capsys):
    # one process parses every main call with the same parser; no option of
    # one call may leak into the next (info must report the default seed 0)
    commands = [("trace", "catalog:M11", "triple", "--seed", "1", "--cap", "5000"),
                ("info", "catalog:M11")]
    reused = []
    for i, argv in enumerate(commands):
        path = tmp_path / f"reused{i}.json"
        code, out = run(capsys, *argv, "--json", str(path))
        reused.append((code, out, path.read_bytes()))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    fresh = []
    for i, argv in enumerate(commands):
        path = tmp_path / f"fresh{i}.json"
        done = subprocess.run([sys.executable, "-m", "permdeg.cli", *argv, "--json", str(path)],
                              capture_output=True, text=True, env=env)
        fresh.append((done.returncode, done.stdout, path.read_bytes()))
    assert reused == fresh
    assert json.loads(reused[1][2])["seed"] == 0


def test_trace_choices_match_the_trace_builders():
    # the parser lists the trace names itself so that building it imports
    # no verify; this keeps the list equal to the builders verify offers
    subparsers = next(action for action in build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    theorem = next(action for action in subparsers.choices["trace"]._actions
                   if action.dest == "theorem")
    assert tuple(theorem.choices) == tuple(sorted(TRACES))


def test_file_group_round_trip(tmp_path, capsys):
    path = tmp_path / "s4.perm"
    path.write_text("degree 4\n(1,2)\n(1,2,3,4)\n")
    code, out = run(capsys, "info", f"file:{path}")
    assert code == 0
    assert "order=24" in out


def test_info_above_256_points(tmp_path, capsys):
    # M11 on the top 11 of 300 points, where a byte cannot hold a point:
    # its order and minimal degree are M11's, and it fixes the other 289
    # points, so it is not transitive (t = 0)
    m11 = catalog.builtin("mathieu", 11)
    gens = []
    for g in m11.generators:
        images = list(range(300))
        images[289:] = [289 + b for b in g.images]
        gens.append(Permutation(images))
    path = tmp_path / "m11-300.perm"
    save_generator_file(PermutationGroup(gens, 300), path)
    report = tmp_path / "report.json"
    code, out = run(capsys, "info", f"file:{path}", "--json", str(report))
    assert code == 0
    assert "n=300 order=7920 t=0 m=8" in out
    assert {key: json.loads(report.read_text())[key] for key in ("n", "order", "t", "m")} == {
        "n": 300, "order": "7920", "t": 0, "m": 8}


def test_trivial_group_reports_null_m(tmp_path, capsys):
    path = tmp_path / "c1.json"
    code, out = run(capsys, "info", "catalog:C1", "--json", str(path))
    assert code == 0
    assert "undefined" in out
    assert json.loads(path.read_text())["m"] is None
    code, _ = run(capsys, "verify", "catalog:C1", "all", "--samples", "10")
    assert code == 0
