"""Checks on the library source itself."""

import ast
import subprocess
import sys
from pathlib import Path

import permdeg

SOURCES = sorted(Path(permdeg.__file__).parent.glob("*.py"))


def test_library_has_no_assert_statements():
    # python -O strips assert, so invariants must be raised errors
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert SOURCES and found == []


def test_benchmark_tracer_installs(tmp_path):
    # the traced benchmark run rebinds library names by getattr and measures
    # their arguments and results (the closure's generator count, a chain's
    # levels); a rename, deletion or signature change in permdeg would
    # otherwise surface only under --trace 1, so every traced theorem runs too
    theorems = ("jordan", "double", "triple", "quadruple")
    reports = [tmp_path / f"{theorem}.json" for theorem in theorems]
    code = ('import sys; sys.path[:0] = ["bench", "src"]; import tracer; '
            'tracer.install(tracer.Tracer()); from permdeg import cli; '
            f'sys.exit(max(cli.main(["trace", "catalog:M12", theorem, "--seed", "1", '
            f'"--json", path]) for theorem, path in {list(zip(theorems, map(str, reports)))!r}))')
    root = Path(__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-c", code], cwd=root,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert all(report.stat().st_size > 0 for report in reports)


def test_library_reads_no_shared_rng():
    # random.choice and the other module-level functions read the global
    # rng, which any caller may reseed or advance, so seeded bytes would
    # depend on the caller; only seeded random.Random instances are allowed
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "random":
                found.append(f"{path.name}:{node.lineno}")
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and isinstance(node.func.value, ast.Name) and node.func.value.id == "random"
                  and not (node.func.attr == "Random" and len(node.args) == 1
                           and not node.keywords)):
                found.append(f"{path.name}:{node.lineno}")
    assert SOURCES and found == []
