"""Pinned bytes of every CLI output on a fixed list of commands.

For each command of ``commands`` the table ``byte_digests.txt`` holds the
exit code and the sha256 of three outputs: stdout and stderr, each without
its ``elapsed:`` line, and the ``--json`` report ("-" where none is
written).  The list runs in one process, in order, so warm chains, kept
trace orbits and cached minimal degrees are read as a long session reads
them; ``tests/conftest.py`` empties the kept orbits only between tests,
so one test runs the whole list.  ``test_golden.py`` pins the report
digests of a shorter list on its own.

A table row moves only with a deliberate change of a base, a transversal
representative, a seeded draw, a witness, a message or the report layout.
Such a change regenerates the table from the repository root with

    python tests/test_bytes.py --write

and names every moved row, and why it moved, in CHANGES.md.
"""

import hashlib
import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

TABLE = Path(__file__).with_name("byte_digests.txt")

GROUPS = ("S2", "S3", "S4", "S5", "S6", "S7", "S8", "A4", "A5", "A6", "A7", "C6",
          "PSL2_7", "PGL2_7", "M11", "M12", "M23", "M24", "PGL2_13", "PSL2_13",
          "PSL2_31", "PGL2_31")
THEOREMS = ("jordan", "double", "triple", "quadruple")
SEEDS = ("0", "1", "7", "12")


def commands(wide: str) -> list[tuple[str, ...]]:
    """The command list; ``wide`` is the path of a generator file of
    PGL(2, 257) on 258 points, named ``PGL2_257.perm``, the one input above
    256 points."""
    out = []
    for name in GROUPS:
        spec = f"catalog:{name}"
        out += [("trace", spec, theorem, "--seed", seed) for seed in SEEDS for theorem in THEOREMS]
        out += [("trace", spec, "double", "--seed", "1", "--cap", "100"),
                ("verify", spec, "all", "--samples", "120"),
                ("verify", spec, "counts", "--samples", "200", "--seed", "3"),
                ("info", spec),
                ("mindeg", spec)]
    out += [("table",),
            # usage errors: a spec without its prefix, a name the catalog lacks,
            # and three that argparse reports, a theorem it lacks, an option
            # info does not take, and verify's --jobs below 1
            ("info", "S5"),
            ("info", "catalog:Q8"),
            ("trace", "catalog:M11", "sextuple"),
            ("info", "catalog:M11", "--jobs", "0"),
            ("verify", "catalog:M11", "laws", "--jobs", "0")]
    spec = f"file:{wide}"
    out += [("info", spec),
            ("mindeg", spec),
            ("trace", spec, "jordan"),
            ("trace", spec, "double", "--seed", "1"),
            ("trace", spec, "triple", "--seed", "1"),
            ("trace", spec, "quadruple"),
            ("verify", spec, "laws", "--samples", "200"),
            ("verify", spec, "counts", "--samples", "40")]
    return out


def _digest(text: str) -> str:
    kept = [line for line in text.splitlines(keepends=True) if not line.startswith("elapsed:")]
    return hashlib.sha256("".join(kept).encode()).hexdigest()


def run_all(directory: Path) -> list[str]:
    """One table row per command, run in order in this process, with every
    file written under ``directory``: ``exit stdout stderr json argv...``,
    where the file spec is written ``file:PGL2_257.perm``."""
    from brute import mobius_group, save_generator_file
    from permdeg.cli import main

    wide = directory / "PGL2_257.perm"
    save_generator_file(mobius_group(257), wide)
    report = directory / "report.json"
    rows = []
    for argv in commands(str(wide)):
        report.unlink(missing_ok=True)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main([*argv, "--json", str(report)])
        written = hashlib.sha256(report.read_bytes()).hexdigest() if report.exists() else "-"
        shown = " ".join(argv).replace(str(wide), wide.name)
        rows.append(f"{code} {_digest(out.getvalue())} {_digest(err.getvalue())} {written} {shown}")
    return rows


def test_every_command_keeps_its_bytes(tmp_path):
    expected = TABLE.read_text(encoding="ascii").splitlines()
    observed = run_all(tmp_path)
    moved = [(want, got) for want, got in zip(expected, observed) if want != got]
    assert (len(observed), moved) == (len(expected), [])


if __name__ == "__main__":
    import tempfile

    root = Path(__file__).resolve().parents[1]
    sys.path[:0] = [str(root / "src"), str(root / "tests")]
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_bytes.py --write")
    with tempfile.TemporaryDirectory() as scratch:
        TABLE.write_text("\n".join(run_all(Path(scratch))) + "\n", encoding="ascii")
