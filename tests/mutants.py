"""The committed mutation catalogue: small faults planted in the library,
each of which the tier-1 tests must catch.

Each entry of ``MUTANTS`` replaces one exact snippet of one module under
``src/permdeg`` with a faulty variant.  ``tests/test_source.py`` checks on
every tier-1 run that each snippet still occurs exactly once in its module,
so an edit that moves the code away from a mutant shows up at once; the
mutant is then restated against the new code, not dropped.

The runner below is not part of tier-1 (a mutant can cost a full tier-1
run) and pytest does not collect this file.  Run it from the repository
root with the standard library only:

    python tests/mutants.py                  # every mutant
    python tests/mutants.py below-no-or ...  # the named ones

It copies ``src/``, ``tests/``, ``conftest.py``, ``bench/`` and
``BENCHMARK.json`` into a temporary directory per mutant (``conftest.py``
puts the checkout's own ``src/`` first on ``sys.path``, so pointing
``PYTHONPATH`` at a mutated copy would test the unmutated code), applies the
mutant there and runs ``pytest -x -q`` on the copy, never touching the
working tree; the test that looks for the snippets is deselected, since a
mutated copy lacks its snippet by design.  It first runs the unmutated
copy, which must pass, and stops each mutant's run after three times that
first run: a mutant that makes Schreier-Sims loop would otherwise run until
``conftest.py``'s per-phase limit.  A run that fails or times out kills its
mutant.  The last line is the score, killed / (mutants - listed
equivalents).
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "bench", "conftest.py", "BENCHMARK.json")
# fails on every mutated copy by design, since the snippet is gone there
SNIPPET_TEST = "tests/test_source.py::test_every_mutant_snippet_occurs_once_in_its_module"

# module is a file name under src/permdeg; snippet occurs there exactly once
Mutant = namedtuple("Mutant", "name module snippet replacement reason")

MUTANTS = [
    # the column tallies of the traces (groups._Columns and its readers)
    Mutant("thin-bound-up", "verify.py",
           "thin = fixers.below(sum(moved), -(-m // 3))",
           "thin = fixers.below(sum(moved), -(-m // 3) + 1)",
           "a fixer sharing exactly ceil(m/3) support points with u counts as thin"),
    Mutant("thin-bound-down", "verify.py",
           "thin = fixers.below(sum(moved), -(-m // 3))",
           "thin = fixers.below(sum(moved), -(-m // 3) - 1)",
           "a fixer sharing ceil(m/3) - 1 support points with u is not counted as thin"),
    Mutant("commutator-moves-column-a", "groups.py",
           "self._lanes(_flags(self._columns[u[a]], after[a::n]))",
           "self._lanes(_flags(self._columns[a], after[a::n]))",
           "[u,x] is read as moving a where x[a] != u[x[a]], not x[u[a]] != u[x[a]]"),
    Mutant("below-no-or", "groups.py",
           "+ (top - bound) * self._ones | lanes) & tops",
           "+ (top - bound) * self._ones) & tops",
           "a lane whose value reaches the top bit alone reads as below the bound"),
    Mutant("one-byte-lanes", "groups.py",
           "self._lane = w = max(1, ((degree - 1).bit_length() + 7) // 8)",
           "self._lane = w = 1",
           "above 256 points a sum of lanes carries from one lane into the next"),
    # the counts oracle and the pair-orbit tallies
    Mutant("in-dset-flip", "verify.py",
           "lambda x: x[gamma] in dset,",
           "lambda x: x[gamma] not in dset,",
           "gamma-into-delta counts the conjugates that map gamma outside delta"),
    Mutant("arrows-reversed", "verify.py",
           "arrows[label[a * n + u[a]]] += 1",
           "arrows[label[u[a] * n + a]] += 1",
           "u's arrows are tallied as (a^u, a), the arrows of u^-1"),
    # Schreier-Sims: a wrong-side inverse representative never strips a
    # residue to the identity, so validating S7 loops without end
    Mutant("wrong-side-inverse", "groups.py",
           "inv[b] = mul(s_inv, rep_inv) + tail",
           "inv[b] = mul(rep_inv[:degree], s_inv + tail) + tail",
           "rep(b)^-1 is taken as rep(a)^-1 s^-1, the inverse of s rep(a)"),
    # one conclusion step, one constructor per relation, one inverse loop
    Mutant("conclusion-any", "verify.py",
           "report.conclusion_holds = all(c.passed for c in conclusion)",
           "report.conclusion_holds = any(c.passed for c in conclusion)",
           "a trace concludes its bound when one of its closing checks passes"),
    Mutant("triple-edge-forward", "verify.py",
           "movers[ui.index(alpha)]",
           "movers[ui[alpha]]",
           "edge-mover-count-back reads the movers of alpha^u, not of alpha^(u^-1)"),
    Mutant("cancellation-adds-fixed", "verify.py",
           "limit - len(fixed_overlap) - len(shifted_overlap)",
           "limit + len(fixed_overlap) - len(shifted_overlap)",
           "the cancellation limit grows with |F| instead of shrinking"),
    Mutant("eq-drops-informational", "verify.py",
           "Fraction(observed) == value, informational)",
           "Fraction(observed) == value)",
           "the forward-images law of the laws suite is asserted, not reported"),
    Mutant("tuple-inverse-identity", "groups.py",
           "return Permutation._trusted(x).inverse().images",
           "return x",
           "above 256 points an operand's inverse is the operand itself"),
    Mutant("mindeg-no-cache", "mindeg.py",
           "result = _results[group] = minimal_degree_backtrack(group)",
           "result = minimal_degree_backtrack(group)",
           "minimal_degree searches again on every call for the same group"),
    # the shared point contract
    Mutant("points-not-indexed", "perm.py",
           "inside = 0 <= operator.index(pt) < degree",
           "inside = 0 <= pt < degree",
           "a float point such as 1.5 passes the contract and fails later with a TypeError"),
]

# name -> why no test can tell the mutant from the library; an equivalent
# mutant is kept in the table so that the reason stays with its snippet
EQUIVALENT: dict[str, str] = {}


def _copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc", ".pytest_cache")
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, dest / name, ignore=ignore)
        elif source.exists():
            shutil.copy2(source, dest / name)


def _run(mutant: Mutant | None, timeout: float | None) -> tuple[str, float, str]:
    """('passed' | 'failed' | 'timeout', seconds, first failing test) of
    ``pytest -x -q`` on a fresh copy of the tree with ``mutant`` applied
    (None for no mutant)."""
    with tempfile.TemporaryDirectory(prefix="permdeg-mutant-") as tmp:
        copy = Path(tmp)
        _copy_tree(copy)
        if mutant is not None:
            path = copy / "src" / "permdeg" / mutant.module
            text = path.read_text(encoding="utf-8")
            if text.count(mutant.snippet) != 1:
                raise SystemExit(f"{mutant.name}: snippet does not occur exactly once "
                                 f"in {mutant.module}")
            path.write_text(text.replace(mutant.snippet, mutant.replacement), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        start = time.perf_counter()
        try:
            done = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q",
                                   "-p", "no:cacheprovider", "--deselect", SNIPPET_TEST,
                                   "tests"],
                                  cwd=copy, env=env, capture_output=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            return "timeout", time.perf_counter() - start, ""
        seconds = time.perf_counter() - start
        failed = [line.split()[1] for line in done.stdout.decode().splitlines()
                  if line.startswith(("FAILED ", "ERROR "))]
        return ("passed" if done.returncode == 0 else "failed"), seconds, "".join(failed[:1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run the mutation catalogue.")
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    args = parser.parse_args(argv)
    known = {m.name: m for m in MUTANTS}
    unknown = [name for name in args.names if name not in known]
    if unknown:
        parser.error(f"unknown mutants: {', '.join(unknown)}")
    chosen = [known[name] for name in args.names] or MUTANTS

    outcome, seconds, _ = _run(None, None)
    print(f"unmutated: {outcome} in {seconds:.1f} s", flush=True)
    if outcome != "passed":
        print("the unmutated copy must pass before mutants can be judged")
        return 2
    timeout = 3 * seconds

    killed = survived = 0
    for mutant in chosen:
        outcome, seconds, first = _run(mutant, timeout)
        if outcome == "passed":
            verdict = "equivalent" if mutant.name in EQUIVALENT else "SURVIVED"
            survived += mutant.name not in EQUIVALENT
        else:
            verdict = f"killed ({outcome})"
            killed += 1
        print(f"{mutant.name:28} {verdict:18} {seconds:6.1f} s  {mutant.module}: {mutant.reason}",
              flush=True)
        if first:
            print(f"{'':28} by {first}", flush=True)
    judged = killed + survived
    print(f"killed {killed}, survived {survived}, score {killed}/{judged}")
    return 0 if survived == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
