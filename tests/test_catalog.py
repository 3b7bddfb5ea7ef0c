import pytest

from permdeg import catalog
from permdeg.catalog import (
    GeneratorFileError,
    builtin,
    load_generator_file,
    parse_group_name,
)
from permdeg.cli import main
from permdeg.perm import parse_cycles

from brute import save_generator_file, tuple_orbit_transitivity


@pytest.mark.parametrize("name,param,order,tdeg", [
    ("symmetric", 4, 24, 4),
    ("symmetric", 1, 1, 1),
    ("alternating", 5, 60, 3),
    ("cyclic", 6, 6, 1),
    ("dihedral", 4, 8, 1),
    ("pgl2", 7, 336, 3),
    ("psl2", 7, 168, 2),
    ("pgl2", 3, 24, 4),
    ("psl2", 5, 60, 2),
])
def test_builtin_validation_triple(name, param, order, tdeg):
    g = builtin(name, param)
    assert g.order == order
    assert g.transitivity_degree() == tdeg


def test_pgl2_7_is_sharply_triply_transitive():
    g = builtin("pgl2", 7)
    assert g.order == 8 * 7 * 6
    assert tuple_orbit_transitivity(list(g.generators), 8) == 3


@pytest.mark.parametrize("k,order,tdeg", [
    (11, 7920, 4), (12, 95040, 5), (23, 10200960, 4), (24, 244823040, 5),
])
def test_mathieu_fixtures(k, order, tdeg):
    g = builtin("mathieu", k)
    assert g.degree == k
    assert g.order == order
    assert g.transitivity_degree() == tdeg


def test_builtin_cache_shares_instances():
    assert builtin("mathieu", 11) is builtin("mathieu", 11)


def test_builtin_errors():
    with pytest.raises(ValueError):
        builtin("sporadic", 11)
    with pytest.raises(ValueError):
        builtin("mathieu", 13)
    with pytest.raises(ValueError):
        builtin("pgl2", 9)       # not prime
    with pytest.raises(ValueError):
        builtin("pgl2", 2)       # even
    with pytest.raises(ValueError):
        builtin("pgl2", 37)      # too large
    with pytest.raises(ValueError):
        builtin("dihedral", 2)


@pytest.mark.parametrize("family", ["symmetric", "alternating", "cyclic"])
@pytest.mark.parametrize("n", [0, -1, -5])
def test_families_below_one_point_raise_the_group_degree_error(family, n):
    # PermutationGroup states the degree check once; a negative n must not
    # reach factorial() first
    with pytest.raises(ValueError, match="^degree must be at least 1$"):
        builtin(family, n)


def test_parse_group_name():
    assert parse_group_name("S5").order == 120
    assert parse_group_name("a6").order == 360
    assert parse_group_name("C6").order == 6
    assert parse_group_name("D4").order == 8
    assert parse_group_name("M11").order == 7920
    assert parse_group_name("PGL2_7").order == 336
    assert parse_group_name("psl2_7").order == 168
    with pytest.raises(ValueError):
        parse_group_name("Q8")


def test_perm_file_round_trip(tmp_path):
    g = builtin("mathieu", 11)
    path = tmp_path / "m11.perm"
    save_generator_file(g, path)
    assert path.read_text(encoding="ascii") == (
        "degree 11\n(1,2,3,4,5,6,7,8,9,10,11)\n(3,7,11,8)(4,10,5,6)\n")
    loaded = load_generator_file(path)
    assert loaded.degree == 11
    assert loaded.generators == g.generators


def test_perm_file_example(tmp_path):
    path = tmp_path / "s4.perm"
    path.write_text("degree 4\n(1,2)\n(1,2,3,4)\n")
    g = load_generator_file(path)
    assert g.order == 24


def test_perm_file_comments_and_blanks(tmp_path):
    path = tmp_path / "g.perm"
    path.write_text("# a comment\n\ndegree 4  # trailing comment\n(1,2)  # swap\n\n")
    g = load_generator_file(path)
    assert g.degree == 4
    assert g.generators == (parse_cycles("(1,2)", 4),)


def test_perm_file_degree_mismatch_line(tmp_path):
    path = tmp_path / "bad.perm"
    path.write_text("degree 4\n(1,5)\n")
    with pytest.raises(GeneratorFileError) as err:
        load_generator_file(path)
    assert err.value.line == 2


def test_perm_file_missing_header(tmp_path):
    path = tmp_path / "empty.perm"
    path.write_text("# nothing\n")
    with pytest.raises(GeneratorFileError):
        load_generator_file(path)


def test_perm_file_degree_zero(tmp_path, capsys):
    path = tmp_path / "zero.perm"
    path.write_text("degree 0\n")
    with pytest.raises(GeneratorFileError, match="^line 1: degree must be at least 1$"):
        load_generator_file(path)
    assert main(["info", f"file:{path}"]) == 2
    assert "degree must be at least 1" in capsys.readouterr().err


def test_perm_file_bad_header(tmp_path):
    path = tmp_path / "hdr.perm"
    path.write_text("points 4\n(1,2)\n")
    with pytest.raises(GeneratorFileError) as err:
        load_generator_file(path)
    assert err.value.line == 1
