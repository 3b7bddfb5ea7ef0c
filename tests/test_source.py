"""Checks on the library source itself."""

import ast
import subprocess
import sys
import tokenize
from pathlib import Path

import permdeg

SOURCES = sorted(Path(permdeg.__file__).parent.glob("*.py"))
ROOT = Path(__file__).resolve().parents[1]


def _fresh(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a new interpreter with the library on its path."""
    return subprocess.run([sys.executable, "-c", f'import sys; sys.path[:0] = ["src"]; {code}'],
                          cwd=ROOT, capture_output=True, text=True)


def test_library_has_no_assert_statements():
    # python -O strips assert, so invariants must be raised errors
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert SOURCES and found == []


def _is_image_product(node: ast.AST) -> bool:
    """Whether ``node`` collects ``x[t]`` (or ``x[y[t]]``) for each t of one
    sequence into a list or a tuple: the shape of a product of image
    tuples, as a list comprehension or a generator passed to ``tuple``."""
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "tuple" and len(node.args) == 1
            and isinstance(node.args[0], ast.GeneratorExp)):
        node = node.args[0]
    elif not isinstance(node, ast.ListComp):
        return False
    if len(node.generators) != 1:
        return False
    loop = node.generators[0]
    if not isinstance(loop.target, ast.Name) or loop.ifs:
        return False
    index = node.elt
    if not isinstance(index, ast.Subscript):
        return False
    while isinstance(index, ast.Subscript):
        index = index.slice
    return isinstance(index, ast.Name) and index.id == loop.target.id


# CPython 3.11's parser doubles its token array past 8,192 tokens, which
# raises the peak memory of every cold compile of the module
TOKEN_BUDGET = 8192


def _token_count(path: Path) -> int:
    """Tokens of a source file, without comments, non-logical newlines and
    the encoding marker."""
    skipped = {tokenize.COMMENT, tokenize.NL, tokenize.ENCODING}
    with open(path, "rb") as handle:
        return sum(1 for tok in tokenize.tokenize(handle.readline) if tok.type not in skipped)


def test_library_modules_stay_below_the_token_budget():
    counts = {path.name: _token_count(path) for path in SOURCES}
    assert SOURCES and {name: n for name, n in counts.items() if n >= TOKEN_BUDGET} == {}


def test_library_composes_through_one_kernel():
    # image tuples are composed by perm.compose, and groups composes byte
    # strings by bytes.translate up to 256 points and calls perm.compose
    # above; a comprehension product beside them is a second, slower path
    found = {f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if _is_image_product(node)}
    assert SOURCES and found == set()


def test_groups_reads_compose_only_through_the_width_switch():
    # groups composes on the operand _width picks, byte strings up to 256
    # points; perm.compose called on a byte string boxes every entry, so a
    # chain reader that calls it directly falls back to the slower path
    tree = ast.parse((Path(permdeg.__file__).parent / "groups.py").read_text(encoding="utf-8"))
    (width,) = [node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "_width"]
    inside = {id(node) for node in ast.walk(width)}
    uses = [node for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id == "compose"]
    assert uses and [node.lineno for node in uses if id(node) not in inside] == []


def test_verify_calls_compose_only_to_carry_a_configuration():
    # verify reads its laws and traces straight off the operands, byte
    # strings from a closure among them; perm.compose boxes every entry of
    # a byte string, so verify carries a configuration onto the base points
    # through groups._to_base, which composes on the _width operand, and
    # neither imports nor calls compose itself
    tree = ast.parse((Path(permdeg.__file__).parent / "verify.py").read_text(encoding="utf-8"))
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert "_to_base" in names & imported and "compose" not in names | imported


def test_compose_is_read_only_through_the_width_switch():
    # every module outside perm composes on the operand groups._width picks,
    # byte strings up to 256 points; perm.compose called on a byte string
    # boxes every entry, so outside perm the name compose appears only
    # inside _width and in the import groups reads it through
    name_field = {ast.alias: "name", ast.Name: "id", ast.Attribute: "attr"}
    found = []
    for path in SOURCES:
        if path.name == "perm.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = set()
        if path.name == "groups.py":
            (width,) = [top for top in tree.body
                        if isinstance(top, ast.FunctionDef) and top.name == "_width"]
            imports = [top for top in tree.body if isinstance(top, ast.ImportFrom)]
            allowed = {id(node) for top in [width, *imports] for node in ast.walk(top)}
        found += [f"{path.name}:{getattr(node, 'lineno', '?')}" for node in ast.walk(tree)
                  if getattr(node, name_field.get(type(node), ""), None) == "compose"
                  and id(node) not in allowed]
    assert len(SOURCES) > 1 and found == []


def test_verify_has_no_loop_statement_over_an_orbit():
    # the traces tally a closure's orbit E by column, one lane int per point
    # (groups._Columns), not by a Python loop over its members: such a loop
    # costs a bytecode round per member and per point
    tree = ast.parse((Path(permdeg.__file__).parent / "verify.py").read_text(encoding="utf-8"))
    found = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.For) and isinstance(node.iter, ast.Name)
             and node.iter.id == "orbit"]
    assert found == []


def test_itemgetter_lives_only_in_perm():
    # perm.compose is the one getter kernel; an itemgetter imported or read
    # anywhere else is a second product path beside it
    name_field = {ast.alias: "name", ast.Name: "id", ast.Attribute: "attr"}
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES if path.name != "perm.py"
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if getattr(node, name_field.get(type(node), ""), None) == "itemgetter"]
    assert SOURCES and found == []


def test_point_and_degree_checks_live_only_in_perm():
    # perm._check_points and perm._check_degree state the input contract
    # once; any of their messages anywhere else is an inline copy of a check
    messages = ("outside 0..", "degree mismatch", "is not an integer")
    found = [f"{path.name}:{lineno}"
             for path in SOURCES if path.name != "perm.py"
             for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
             if any(message in line for message in messages)]
    perm_text = (Path(permdeg.__file__).parent / "perm.py").read_text(encoding="utf-8")
    assert SOURCES and found == []
    assert [perm_text.count(message) for message in messages] == [1, 1, 1]


def test_cli_reports_and_exits_only_in_main():
    # main writes every --json report and picks every exit code from the
    # checks it wrote; a handler naming any of these would be a second copy
    # of the envelope or of the exit rule
    tree = ast.parse((Path(permdeg.__file__).parent / "cli.py").read_text(encoding="utf-8"))
    (main,) = [node for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name == "main"]
    inside = {id(node) for node in ast.walk(main)}
    watched = {"EXIT_CHECK_FAILED", "all_pass", "dumps", "write_text"}
    name_field = {ast.alias: "name", ast.Name: "id", ast.Attribute: "attr"}
    named = [(node, name) for node in ast.walk(tree)
             if (name := getattr(node, name_field.get(type(node), ""), None)) in watched
             and not isinstance(getattr(node, "ctx", None), ast.Store)]
    assert {name for node, name in named if id(node) in inside} == watched
    assert [f"{name}:{node.lineno}" for node, name in named if id(node) not in inside] == []


def test_groups_imports_nothing_from_mindeg():
    # mindeg keeps its own result cache, so the group type does not depend
    # on the search built on it
    tree = ast.parse((Path(permdeg.__file__).parent / "groups.py").read_text(encoding="utf-8"))
    found = [node.lineno for node in ast.walk(tree)
             if (isinstance(node, ast.ImportFrom) and "mindeg" in (node.module or ""))
             or (isinstance(node, ast.Import)
                 and any("mindeg" in alias.name for alias in node.names))
             or (isinstance(node, (ast.Name, ast.Attribute))
                 and "mindeg" in getattr(node, "id", getattr(node, "attr", "")))]
    assert found == []


def test_every_mutant_snippet_occurs_once_in_its_module():
    # tests/mutants.py plants each mutant by replacing its snippet; a snippet
    # that is gone or repeated would leave the catalogue testing nothing
    from mutants import MUTANTS

    library = Path(permdeg.__file__).parent
    counts = {m.name: (library / m.module).read_text(encoding="utf-8").count(m.snippet)
              for m in MUTANTS}
    assert len(counts) == len(MUTANTS) >= 12
    assert counts == dict.fromkeys(counts, 1)
    assert all(m.replacement != m.snippet for m in MUTANTS)


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
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
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


def test_library_does_not_import_dataclasses():
    # dataclasses pulls in inspect, ast, dis and tokenize, about 10 ms of
    # every cold start; the record types are namedtuples and slotted classes
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "dataclasses" for name in names):
                found.append(f"{path.name}:{node.lineno}")
    assert SOURCES and found == []


def test_library_does_not_import_typing_namedtuple():
    # the records are collections.namedtuples; typing.NamedTuple would be a
    # second record idiom beside them
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if (isinstance(node, ast.ImportFrom) and node.module == "typing"
                 and any(alias.name == "NamedTuple" for alias in node.names))
             or (isinstance(node, ast.Attribute) and node.attr == "NamedTuple")]
    assert SOURCES and found == []


def test_info_and_mindeg_leave_verify_unloaded(tmp_path):
    # the cold commands that never verify anything must not import verify,
    # dataclasses or fractions; only modules the run itself added count, so
    # a site hook that preloads one of them does not matter
    report = str(tmp_path / "report.json")
    done = _fresh(
        "before = set(sys.modules); from permdeg import cli; "
        f"codes = [cli.main(['info', 'catalog:M11', '--json', {report!r}]), "
        f"cli.main(['mindeg', 'catalog:M11', '--json', {report!r}])]; "
        "added = set(sys.modules) - before; "
        "print(codes, sorted(added & {'permdeg.verify', 'dataclasses', 'fractions'}))")
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[0, 0] []"


def test_verify_loads_on_first_use():
    done = _fresh("import permdeg; assert 'permdeg.verify' not in sys.modules; "
                  "print(sorted(permdeg.verify.TRACES)); "
                  "print(sys.modules['permdeg.verify'] is permdeg.verify)")
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["['double', 'jordan', 'quadruple', 'triple']", "True"]
    done = _fresh("from permdeg import *; print(verify.__name__)")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "permdeg.verify"
    done = _fresh("import permdeg; permdeg.no_such_name")
    assert "AttributeError" in done.stderr and "no_such_name" in done.stderr
