"""Built-in group constructions and the .perm generator-file format.

Every builtin is validated at construction against its expected degree,
order and transitivity degree; a computed value that misses its pin is a
fault in the computation, a ``RuntimeError``, not an input error.  The
Mathieu fixtures are additionally pinned to expected minimal degrees,
checked downstream by the table builder.
"""

from __future__ import annotations

from math import factorial
from pathlib import Path

from .groups import PermutationGroup
from .perm import CycleParseError, Permutation, parse_cycles


class GeneratorFileError(ValueError):
    """A .perm file with bad syntax or inconsistent degree; carries the line."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


MATHIEU_GENERATORS = {
    11: ("(1,2,3,4,5,6,7,8,9,10,11)",
         "(3,7,11,8)(4,10,5,6)"),
    12: ("(1,2,3,4,5,6,7,8,9,10,11)",
         "(3,7,11,8)(4,10,5,6)",
         "(1,12)(2,11)(3,6)(4,8)(5,9)(7,10)"),
    23: ("(1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20,21,22,23)",
         "(3,17,10,7,9)(5,4,13,14,19)(11,12,23,8,18)(21,16,15,20,22)"),
    24: ("(1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20,21,22,23)",
         "(3,17,10,7,9)(5,4,13,14,19)(11,12,23,8,18)(21,16,15,20,22)",
         "(1,24)(2,23)(3,12)(4,16)(5,18)(6,10)(7,20)(8,14)(9,21)(11,17)(13,22)(15,19)"),
}

MATHIEU_ORDER = {11: 7920, 12: 95040, 23: 10200960, 24: 244823040}
MATHIEU_TRANSITIVITY = {11: 4, 12: 5, 23: 4, 24: 5}

# Integration contract for the degree/bound table: minimal degrees the
# downstream searches must reproduce.
MATHIEU_MINIMAL_DEGREE = {11: 8, 12: 8, 23: 16, 24: 16}

_SMALL_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


def _validated(group: PermutationGroup, order: int, tdeg: int | None) -> PermutationGroup:
    if group.order != order:
        raise RuntimeError(f"{group.label}: computed order {group.order}, expected {order}")
    if tdeg is not None and group.transitivity_degree() != tdeg:
        raise RuntimeError(f"{group.label}: computed transitivity degree "
                           f"{group.transitivity_degree()}, expected {tdeg}")
    return group


def _rotation(n: int, first: int) -> Permutation:
    """The cycle (first, first + 1, ..., n - 1) on the points 0..n-1."""
    return Permutation([*range(first), *range(first + 1, n), first])


def symmetric_group(n: int) -> PermutationGroup:
    gens = []
    if n >= 2:
        gens.append(Permutation([1, 0, *range(2, n)]))
    if n >= 3:
        gens.append(_rotation(n, 0))
    return _validated(PermutationGroup(gens, n, f"S{n}"), factorial(n), n)


def alternating_group(n: int) -> PermutationGroup:
    gens = []
    if n >= 3:
        gens.append(Permutation([1, 2, 0, *range(3, n)]))
    if n >= 4:
        # the rotation of all n points is even for odd n; of the last n - 1 for even n
        gens.append(_rotation(n, 1 - n % 2))
    # the group checks the degree before factorial() sees a negative n
    group = PermutationGroup(gens, n, f"A{n}")
    return _validated(group, max(1, factorial(n) // 2), n - 2 if n >= 3 else None)


def cyclic_group(n: int) -> PermutationGroup:
    gens = [_rotation(n, 0)] if n >= 2 else []
    tdeg = {1: 1, 2: 2}.get(n, 1)  # the rotation group is all of Sym(n) for n <= 2
    return _validated(PermutationGroup(gens, n, f"C{n}"), n, tdeg)


def dihedral_group(n: int) -> PermutationGroup:
    if n < 3:
        raise ValueError("dihedral group needs at least 3 points")
    flip = Permutation([0] + [n - i for i in range(1, n)])
    tdeg = 3 if n == 3 else 1  # the triangle's dihedral group is all of Sym(3)
    return _validated(PermutationGroup([_rotation(n, 0), flip], n, f"D{n}"), 2 * n, tdeg)


def _require_mobius_field(q: int) -> None:
    if q not in _SMALL_PRIMES:
        raise ValueError(f"parameter must be an odd prime at most 31, got {q}")


def _mobius_permutation(q: int, a: int, b: int, c: int, d: int) -> Permutation:
    """x -> (ax + b)/(cx + d) on 0..q-1 with the extra point q playing infinity."""
    infinity = q
    imgs = []
    for x in range(q):
        num = (a * x + b) % q
        den = (c * x + d) % q
        imgs.append(infinity if den == 0 else num * pow(den, -1, q) % q)
    imgs.append(infinity if c == 0 else a * pow(c, -1, q) % q)
    return Permutation(imgs)


def _primitive_root(q: int) -> int:
    # q is an odd prime (_require_mobius_field), so some g returns
    for g in range(2, q):
        seen = set()
        value = 1
        for _ in range(q - 1):
            value = value * g % q
            seen.add(value)
        if len(seen) == q - 1:
            return g


def projective_general_group(q: int) -> PermutationGroup:
    """Fractional-linear action on the projective line: points 0..q-1 then infinity."""
    _require_mobius_field(q)
    g = _primitive_root(q)
    gens = [
        _mobius_permutation(q, 1, 1, 0, 1),   # x -> x + 1
        _mobius_permutation(q, g, 0, 0, 1),   # x -> gx
        _mobius_permutation(q, 0, 1, 1, 0),   # x -> 1/x
    ]
    group = PermutationGroup(gens, q + 1, f"PGL2_{q}")
    tdeg = 4 if q == 3 else 3  # degree 4 makes the sharply 3-transitive group all of Sym(4)
    return _validated(group, q * (q * q - 1), tdeg)


def projective_special_group(q: int) -> PermutationGroup:
    _require_mobius_field(q)
    gens = [
        _mobius_permutation(q, 1, 1, 0, 1),       # x -> x + 1
        _mobius_permutation(q, 0, -1 % q, 1, 0),  # x -> -1/x
    ]
    group = PermutationGroup(gens, q + 1, f"PSL2_{q}")
    return _validated(group, q * (q * q - 1) // 2, 2)


def mathieu_group(k: int) -> PermutationGroup:
    if k not in MATHIEU_GENERATORS:
        raise ValueError(f"no Mathieu fixture of degree {k}")
    gens = [parse_cycles(text, k) for text in MATHIEU_GENERATORS[k]]
    group = PermutationGroup(gens, k, f"M{k}")
    return _validated(group, MATHIEU_ORDER[k], MATHIEU_TRANSITIVITY[k])


_BUILDERS = {
    "symmetric": symmetric_group,
    "alternating": alternating_group,
    "cyclic": cyclic_group,
    "dihedral": dihedral_group,
    "pgl2": projective_general_group,
    "psl2": projective_special_group,
    "mathieu": mathieu_group,
}

# a short name is one of these prefixes followed by ASCII digits, the parameter
_SHORT_NAMES = {"S": "symmetric", "A": "alternating", "C": "cyclic", "D": "dihedral",
                "M": "mathieu", "PGL2_": "pgl2", "PSL2_": "psl2"}

_cache: dict[tuple[str, int], PermutationGroup] = {}


def builtin(name: str, param: int) -> PermutationGroup:
    """A validated builtin group; repeated requests share one instance."""
    key = (name.lower(), param)
    if key not in _cache:
        builder = _BUILDERS.get(key[0])
        if builder is None:
            raise ValueError(f"unknown builtin group family {name!r}")
        _cache[key] = builder(param)
    return _cache[key]


def parse_group_name(name: str) -> PermutationGroup:
    """Resolve short names: S5, A6, C6, D4, M11, PGL2_7, PSL2_7."""
    text = name.strip().upper()
    prefix = text.rstrip("0123456789")
    if prefix not in _SHORT_NAMES or prefix == text:
        raise ValueError(f"unrecognized group name {name!r}")
    return builtin(_SHORT_NAMES[prefix], int(text[len(prefix):]))


def load_generator_file(path: str | Path) -> PermutationGroup:
    """Read a .perm file: header line ``degree <n>``, then one permutation per
    line in 1-based cycle notation; ``#`` starts a comment, blanks are skipped."""
    path = Path(path)
    degree = None
    gens = []
    with open(path, encoding="ascii") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if degree is None:
                parts = line.split()
                if len(parts) != 2 or parts[0] != "degree" or not parts[1].isdigit():
                    raise GeneratorFileError(f"expected 'degree <n>', got {line!r}", lineno)
                degree = int(parts[1])
                if degree < 1:
                    raise GeneratorFileError("degree must be at least 1", lineno)
                continue
            try:
                gens.append(parse_cycles(line, degree))
            except CycleParseError as exc:
                raise GeneratorFileError(str(exc), lineno) from exc
    if degree is None:
        raise GeneratorFileError("missing 'degree <n>' header", 1)
    return PermutationGroup(gens, degree, label=path.stem)

