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
           "thin = fixers.below(sum(moved), -(-len(support) // 3))",
           "thin = fixers.below(sum(moved), -(-len(support) // 3) + 1)",
           "a fixer sharing exactly ceil(m/3) support points with u counts as thin"),
    Mutant("thin-bound-down", "verify.py",
           "thin = fixers.below(sum(moved), -(-len(support) // 3))",
           "thin = fixers.below(sum(moved), -(-len(support) // 3) - 1)",
           "a fixer sharing ceil(m/3) - 1 support points with u is not counted as thin"),
    Mutant("commutator-moves-column-a", "groups.py",
           "self._lanes(_flags(self._columns[u[a]], after[a::n]))",
           "self._lanes(_flags(self._columns[a], after[a::n]))",
           "[u,x] is read as moving a where x[a] != u[x[a]], not x[u[a]] != u[x[a]]"),
    Mutant("moves-no-xor", "groups.py",
           "return self._ones ^ self.maps_into(a, (a,))",
           "return self.maps_into(a, (a,))",
           "a column's moved lanes are the members that fix the point"),
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
    # Schreier-Sims installs operands, with the one operand inverse _inverse
    Mutant("install-inverse-is-generator", "groups.py",
           "entry = (g + tail, _inverse(g))",
           "entry = (g + tail, g)",
           "a strong generator's inverse entry is the generator itself, so the inverse "
           "representatives are wrong and Schreier-Sims runs past the time limit"),
    # deferred orbit rebuilds: a level whose group did not grow is rebuilt
    # when it is read, and every pass stops at the orbit size it knows
    Mutant("no-final-flush", "groups.py",
           "    for j in range(stale):\n        rebuild_orbit(j)\n",
           "",
           "levels still stale when the loop ends keep tables built from an older "
           "generator list"),
    Mutant("no-eager-grown-levels", "groups.py",
           "        for j in range(stale, i + 1):\n            rebuild_orbit(j)\n",
           "",
           "the levels a residue lands on or passes through keep the orbits they "
           "had before it"),
    Mutant("short-orbit-bound", "groups.py",
           "if i < stale else degree - i",
           "if i < stale else degree - i - 1",
           "a pass stops one point short of the largest orbit a level can have"),
    Mutant("stale-one-more", "groups.py",
           "stale = i + 1",
           "stale = i + 2",
           "the level above the residue's is deferred, and its orbit may have grown"),
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
    Mutant("seen-never", "mindeg.py",
           "if child_fix in seen:",
           "if False:",
           "the backtrack searches a fixed-point closure again each time a child "
           "reaches it"),
    Mutant("alternating-strict", "groups.py",
           "return self.order >= factorial(self.degree) // 2",
           "return self.order > factorial(self.degree) // 2",
           "an alternating group reads as avoiding itself, so A7's double trace "
           "raises on its 3-cycle witness"),
    Mutant("mindeg-no-cache", "mindeg.py",
           "result = _results[group] = minimal_degree_backtrack(group)",
           "result = minimal_degree_backtrack(group)",
           "minimal_degree searches again on every call for the same group"),
    # the shared point contract
    Mutant("points-not-indexed", "perm.py",
           "a = operator.index(pt)",
           "a = pt",
           "a float point such as 1.5 passes the contract and fails later with a TypeError"),
    Mutant("points-as-given", "perm.py",
           "ints.append(a)",
           "ints.append(pt)",
           "a point that only defines __index__ reaches the sites as the caller's object"),
    # one statement of each bound, tally and record
    Mutant("assembled-drops-arrows", "verify.py",
           "(overlap + carried + arrows) / size",
           "(overlap + carried) / size",
           "the assembled quadruple inequality leaves out the arrow pairs' bound"),
    Mutant("moves-at-every-point", "verify.py",
           "moved = [columns.moves(a) if c != a else 0 for a, c in enumerate(ui)]",
           "moved = [columns.moves(a) for a, c in enumerate(ui)]",
           "the column tallies count the members that move the fixed points of u"),
    Mutant("conjugate-wrong-side", "perm.py",
           "compose(compose(g.inverse().images, self.images), g.images)",
           "compose(compose(g.images, self.images), g.inverse().images)",
           "p.conjugate(g) returns g p g^-1, not g^-1 p g"),
    Mutant("table-check-le", "verify.py",
           '_ge("minimal-degree-meets-bound"',
           '_le("minimal-degree-meets-bound"',
           "the table rows check m <= bound, not m >= bound, and the table exits by "
           "those checks"),
    # one report path: main exits by every check the report carries
    Mutant("exit-by-last-suite", "cli.py",
           "for _, held, _, _ in suites for",
           "for _, held, _, _ in suites[-1:] for",
           "a command exits by its last suite's checks only, so verify counts passes "
           "when pair-relation does"),
    Mutant("exit-counts-informational", "cli.py",
           "if not all_pass(checks):",
           "if not all(c.passed for c in checks):",
           "an informational check that fails, such as the forward-images law, fails "
           "the command"),
    # the counts suite's pair orbits and its oracle
    Mutant("fixed-read-as-arrows", "verify.py",
           "stays - share(fixed, second)",
           "stays - share(arrows, second)",
           "fixes-gamma-moves-second reads u's arrows at (gamma, second), not its fixed pairs"),
    Mutant("oracle-second-fixed", "verify.py",
           "x[gamma] == gamma and x[second] != second,",
           "x[gamma] == gamma and x[second] == second,",
           "the oracle counts the conjugates fixing second, not moving it"),
    Mutant("second-rule-keeps-clause-2", "verify.py",
           "shares[2] = shares[4] = None",
           "shares[4] = None",
           "without a second point the oracle still judges fixes-gamma-moves-second"),
    Mutant("draw-key-without-second", "verify.py",
           "key = (label[row + gamma], label[row + second])",
           "key = (label[row + gamma],)",
           "draws that differ only in the orbit of (gamma, second) are judged as one"),
    # chain readers hand out image tuples
    Mutant("transporter-keeps-operand", "groups.py",
           "else Permutation._trusted(tuple(g))",
           "else Permutation._trusted(g)",
           "a transporter up to 256 points wraps a byte string, not an image tuple"),
    # the commutator laws on flag-byte ints
    Mutant("crossings-swapped", "verify.py",
           "into_v & ~moved_u | into_u & ~moved_v",
           "into_u & ~moved_u | into_v & ~moved_v",
           "the fixed crossings pair each factor's fixed points with its own carried points"),
    Mutant("forward-through-v", "verify.py",
           "mul(_inverse(v), table)",
           "mul(v, table)",
           "the forward image D^v is gathered through v, not v^-1"),
    Mutant("shifted-pool-at-u", "verify.py",
           "moved_at_v = mul(v,",
           "moved_at_v = mul(u,",
           "the shifted pool reads supp(u) at the images of u, not of v"),
    Mutant("fixed-pool-outside-delta", "verify.py",
           "moved_u & ~comm,",
           "moved_u & ~delta,",
           "the fixed pool is supp(u) outside D, not supp(u) fixed by [u,v]"),
    Mutant("size-bound-into-u-twice", "verify.py",
           "- (delta & into_v).bit_count()",
           "- (delta & into_u).bit_count()",
           "the size bound subtracts the points u carries into D twice"),
    Mutant("commutator-v-v", "verify.py",
           "mul(v, u + tail)",
           "mul(v, v + tail)",
           "supp([u,v]) compares a^(u v) with a^(v v)"),
    Mutant("bytes-inverse-identity", "groups.py",
           "return bytes.maketrans(x, _width(len(x))[2])[:len(x)]",
           "return x",
           "up to 256 points an operand's inverse is the operand itself"),
    Mutant("tuple-flags-self", "groups.py",
           "return bytes(map(ne, first, second))",
           "return bytes(map(ne, first, first))",
           "above 256 points every flag byte reads 0"),
    Mutant("pool-flag-off-by-one", "verify.py",
           "not fixed_pool >> 8 * a & 1",
           "not fixed_pool >> 8 * a + 1 & 1",
           "F is checked against the bit above each point's flag"),
    Mutant("draw-range-too-long", "groups.py",
           "for pool in range(k, k - size, -1):",
           "for pool in range(k + 1, k + 1 - size, -1):",
           "the replay of the laws suite's F and S draws reads a pool one point "
           "longer than it holds"),
    Mutant("cancellation-supp-v", "verify.py",
           "(size, 2 * moved_u.bit_count())",
           "(size, 2 * moved_v.bit_count())",
           "the cancellation limit is taken as 2|supp(v)|"),
    # seeded draws read off 32-bit words (groups._random_product, _sample_size,
    # _bulk_words)
    Mutant("words-big-endian", "groups.py",
           'f"<{_CHUNK}I"',
           'f">{_CHUNK}I"',
           "a chunk's words are unpacked big-endian, so the laws suite draws other "
           "elements than random.Random's words give"),
    Mutant("no-rejection", "groups.py",
           "        while r >= size:\n            r = next(words) >> shift",
           "        if r >= size:\n            r = next(words) >> shift",
           "a transversal pick redraws once at most, so it can index past the orbit "
           "and reads fewer words than rng.choice"),
    Mutant("shift-off-by-one", "groups.py",
           "shift = 32 - size.bit_length()",
           "shift = 31 - size.bit_length()",
           "a transversal pick keeps one bit more than rng.choice's words give it"),
    Mutant("sample-set-threshold", "groups.py",
           "if k <= setsize:",
           "if k < setsize:",
           "a pool exactly as long as the set threshold is replayed by the set branch"),
    # the conjugation orbits kept per group (groups._base_orbit, _member)
    Mutant("carry-by-g", "groups.py",
           "c = _inverse(g)",
           "c = g",
           "the traces' seed, u and points and the counts suite's u, delta and draws "
           "are carried by g, not by g^-1"),
    Mutant("member-unaligned", "groups.py",
           "while at > 0 and at % n:",
           "while False:",
           "an operand found across two members of a kept orbit counts as a member"),
    Mutant("orbits-without-k", "groups.py",
           ".setdefault(k, [])",
           ".setdefault(0, [])",
           "orbits under the one- and two-point stabilizers share one list"),
    Mutant("hit-skips-cap", "groups.py",
           "if len(flat) > cap * n:",
           "if False:",
           "a kept orbit is read past --cap, where a fresh closure raises"),
    Mutant("fixers-not-first", "groups.py",
           "members = sorted(members, key=lambda x: x[b] != b)",
           "members = list(members)",
           "the double trace slices its fixers of beta off an orbit kept in closure order"),
    Mutant("hit-on-any-orbit", "groups.py",
           "if _member(flat, w):",
           "if True:",
           "a trace reads the first orbit kept at its k, whatever its seed"),
    # one carry step onto the base points (groups._to_base) and the oracle
    # that closes under the rebased stabilizer instead
    Mutant("to-base-returns-none", "groups.py",
           'raise RuntimeError(f"{group.label} does not carry its base to {list(targets)}")',
           "return None",
           "a walk that fails hands its callers None to unpack, a TypeError, instead of "
           "the RuntimeError the CLI reports"),
    Mutant("walk-past-last-level", "groups.py",
           "g = _walk(group.chain().levels, targets, ident)",
           "levels = group.chain().levels\n"
           "    g = None if len(levels) < len(targets) else _walk(levels, targets, ident)",
           "targets past the chain's last level fail the walk, which S2's double trace meets"),
    Mutant("draws-not-carried", "verify.py",
           "[(c[gamma], c[second]) for gamma, second in draws]",
           "draws",
           "the counts suite reads its draws in the group's own points against pair "
           "labels, u and delta carried onto the base points"),
    Mutant("oracle-proper-subgroup", "verify.py",
           "conjugation_closure(group.pointwise_stabilizer(dset).generators, u, cap)",
           "conjugation_closure(group.pointwise_stabilizer(dset).generators[:1], u, cap)",
           "the oracle closes E under the subgroup its first stabilizer generator generates"),
    # the one reader of a chain's stabilizer facts
    Mutant("fixing-prefix-one-short", "groups.py",
           "prefix = chain.base[:k]",
           "prefix = chain.base[:k - 1]",
           "a stabilizer's generators are the strong generators fixing one base point "
           "fewer than it fixes"),
    # catalog short names from one prefix table
    Mutant("family-table-swap", "catalog.py",
           '"S": "symmetric"',
           '"S": "alternating"',
           "S<n> builds the alternating group"),
    # the chains a group keeps: its () chain and the last rebased one
    Mutant("rebased-kept-all", "groups.py",
           "        kept = self._rebased\n"
           "        if kept is None or kept[0] != key:\n",
           '        kept = self.__dict__.setdefault("_every", {}).get(key)\n'
           "        if kept is None:\n"
           "            kept = self._every[key] = (key, build_chain(self.generators, self.degree,\n"
           "                                                        key, order=self.order))\n"
           "        if kept is None or kept[0] != key:\n",
           "every rebased chain is kept for the group's life, so a session grows by a "
           "chain per trace"),
    Mutant("rebased-never-kept", "groups.py",
           "        kept = self._rebased\n",
           "        kept = None\n",
           "no rebased chain is read again, so a trace builds its pair's chain twice"),
    Mutant("rebased-slot-ignores-key", "groups.py",
           "if kept is None or kept[0] != key:",
           "if kept is None:",
           "the kept rebased chain is returned for any base prefix"),
    # the closing thresholds, derived from (k, slack)
    Mutant("threshold-short-range", "verify.py",
           "for j in range(4, slack + 4)",
           "for j in range(4, slack + 3)",
           "k m >= n is stated from n = 34 in the double trace and n = 20 in the triple"),
    Mutant("threshold-at-largest", "verify.py",
           "if n > max(k * j",
           "if n >= max(k * j",
           "k m >= n is stated from n = 37 in the double trace and n = 22 in the triple"),
    Mutant("double-slack", "verify.py",
           '_closing_bound(group, report, checks, 4, 6, "quarter-bound")',
           '_closing_bound(group, report, checks, 4, 5, "quarter-bound")',
           "the double trace closes with n <= 4m + 5/(m - 3)"),
    Mutant("triple-slack", "verify.py",
           '_closing_bound(group, report, checks, 3, 4, "third-bound")',
           '_closing_bound(group, report, checks, 3, 5, "third-bound")',
           "the triple trace closes with n <= 3m + 5/(m - 3)"),
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
        # "FAILED <id> - <message>", where a parametrized id may hold spaces
        failed = [line.split(" ", 1)[1].split(" - ", 1)[0]
                  for line in done.stdout.decode().splitlines()
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
