"""Permutations of {0, ..., n-1} acting on the right.

``p.apply(a)`` is the image of the point ``a`` under ``p``, and products
compose left to right: ``(p * q).apply(a) == q.apply(p.apply(a))``.  All
text I/O uses 1-based disjoint-cycle notation such as ``(1,2,3)(4,5)``;
internally a permutation is an immutable 0-based image tuple, on every
path, including those that ``groups`` computes on byte strings.

``compose(first, then)`` is the library's only product of image tuples
(``groups`` keeps its chains and closures as byte strings up to 256 points
and composes them by ``bytes.translate``, and calls it above): entry a of
the result is ``then[first[a]]``, so ``first`` acts first, the order ``*``
uses.  It is ``operator.itemgetter(*first)`` applied to ``then``, so the
tuple is built in C.  An itemgetter of one index returns a bare entry,
so a degree-1 product is made into a 1-tuple by hand.

A permutation is validated once, when it is constructed from outside data:
the public constructor checks that the entries are integers forming a
bijection of 0..n-1 for some n >= 1.  Products, inverses, conjugates and
powers of validated permutations are bijections by construction, so they
wrap their image tuples without repeating that check.

Everything else takes points of 0..n-1 and operands of one degree n.
``_check_points`` and ``_check_degree`` are that contract's only checks:
a point that ``operator.index`` rejects or that lies outside the range
raises ValueError, and an operand of another degree raises
DegreeMismatchError, also a ValueError.
"""

from __future__ import annotations

import operator
import re
from math import lcm
from operator import itemgetter
from typing import Iterable, Sequence


class CycleParseError(ValueError):
    """Malformed or inconsistent disjoint-cycle text."""


class DegreeMismatchError(ValueError):
    """Operands act on different numbers of points."""


def compose(first: Sequence[int], then: Sequence[int]) -> tuple[int, ...]:
    """``then[first[a]]`` for each index a of ``first``, as a tuple: the
    image tuple of ``first`` followed by ``then`` when both are image
    tuples of one degree.  ``first`` is any nonempty sequence of points of
    ``then``, so it also carries a few points along ``then``, as
    ``groups._to_base`` carries its targets above 256 points."""
    if len(first) == 1:
        return (then[first[0]],)
    return itemgetter(*first)(then)


def _check_points(points: Iterable[int], degree: int) -> list[int]:
    """The points as plain ints, as ``operator.index`` reads them; raise
    ValueError at the first point that it rejects, as ``Permutation`` does
    for its entries, or that lies outside range(degree)."""
    ints = []
    for pt in points:
        try:
            a = operator.index(pt)
        except TypeError:
            raise ValueError(f"point {pt!r} is not an integer") from None
        if not 0 <= a < degree:
            raise ValueError(f"point {pt} outside 0..{degree - 1}")
        ints.append(a)
    return ints


def _check_degree(perms: Iterable[Permutation], degree: int) -> None:
    """Raise DegreeMismatchError at the first permutation not of ``degree``."""
    for p in perms:
        if p.degree != degree:
            raise DegreeMismatchError(f"degree mismatch: {p.degree} vs {degree}")


class Permutation:
    """An immutable bijection of {0, ..., n-1} stored as its image tuple."""

    __slots__ = ("images",)

    def __init__(self, images):
        imgs = tuple(images)
        try:
            imgs = tuple(map(operator.index, imgs))
        except TypeError:
            raise ValueError("image entries must be integers") from None
        if not imgs:
            raise ValueError("degree must be at least 1")
        if sorted(imgs) != list(range(len(imgs))):
            raise ValueError("image sequence is not a bijection of 0..n-1")
        self.images = imgs

    @classmethod
    def _trusted(cls, images: tuple[int, ...]) -> "Permutation":
        """Wrap an image tuple already known to be a bijection of plain ints,
        such as a product of validated permutations; nothing is checked."""
        p = object.__new__(cls)
        p.images = images
        return p

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls(range(degree))

    @property
    def degree(self) -> int:
        return len(self.images)

    def apply(self, point: int) -> int:
        return self.images[point]

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Left-to-right product: apply ``self`` first, then ``other``."""
        _check_degree((self,), other.degree)
        return Permutation._trusted(compose(self.images, other.images))

    def inverse(self) -> "Permutation":
        imgs = [0] * len(self.images)
        for a, b in enumerate(self.images):
            imgs[b] = a
        return Permutation._trusted(tuple(imgs))

    def conjugate(self, g: "Permutation") -> "Permutation":
        """Return g^-1 * self * g; the support is carried along g."""
        _check_degree((self,), g.degree)
        return Permutation._trusted(compose(compose(g.inverse().images, self.images), g.images))

    def commutator(self, other: "Permutation") -> "Permutation":
        """Return self * other * self^-1 * other^-1 (left-to-right)."""
        return (self * other) * (other * self).inverse()

    def __pow__(self, k: int) -> "Permutation":
        imgs = list(range(len(self.images)))
        for cyc in self.cycles():
            length = len(cyc)
            shift = k % length
            for i, a in enumerate(cyc):
                imgs[a] = cyc[(i + shift) % length]
        return Permutation._trusted(tuple(imgs))

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each starting at its least point, sorted by it."""
        n = len(self.images)
        seen = [False] * n
        out = []
        for a in range(n):
            if seen[a]:
                continue
            seen[a] = True
            b = self.images[a]
            if b == a:
                continue
            cyc = [a]
            while b != a:
                seen[b] = True
                cyc.append(b)
                b = self.images[b]
            out.append(tuple(cyc))
        return out

    def order(self) -> int:
        return lcm(*(len(c) for c in self.cycles())) if self.images else 1

    def support(self) -> frozenset[int]:
        return frozenset(a for a, b in enumerate(self.images) if a != b)

    def fixed(self) -> frozenset[int]:
        return frozenset(a for a, b in enumerate(self.images) if a == b)

    def moved_count(self) -> int:
        return sum(1 for a, b in enumerate(self.images) if a != b)

    def is_identity(self) -> bool:
        return self.images == tuple(range(len(self.images)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Permutation):
            return NotImplemented
        return self.images == other.images

    def __lt__(self, other: "Permutation") -> bool:
        return self.images < other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Permutation({format_cycles(self)!r}, degree={self.degree})"

    def __str__(self) -> str:
        return format_cycles(self)


_CYCLE_TOKEN = re.compile(r"\(([0-9,\s]*)\)")
_CYCLE_SHAPE = re.compile(r"(?:\s*\([0-9,\s]*\))+\s*")


def parse_cycles(text: str, degree: int) -> Permutation:
    """Parse 1-based disjoint cycles, e.g. ``(1,2,3)(4,5)``; ``()`` is the identity.

    Points not mentioned are fixed.  Repeated points, points outside
    1..degree and malformed syntax raise CycleParseError.
    """
    if degree < 1:
        raise CycleParseError("degree must be at least 1")
    compact = text.strip()
    if not compact or not _CYCLE_SHAPE.fullmatch(compact):
        raise CycleParseError(f"malformed cycle notation: {text!r}")
    imgs = list(range(degree))
    seen: set[int] = set()
    for match in _CYCLE_TOKEN.finditer(compact):
        body = match.group(1).strip()
        if not body:
            continue
        points = []
        for part in body.split(","):
            part = part.strip()
            if not part.isdigit():
                raise CycleParseError(f"bad cycle entry {part!r} in {text!r}")
            value = int(part)
            if not 1 <= value <= degree:
                raise CycleParseError(f"point {value} outside 1..{degree}")
            z = value - 1
            if z in seen:
                raise CycleParseError(f"point {value} repeated across cycles")
            seen.add(z)
            points.append(z)
        for i, a in enumerate(points):
            imgs[a] = points[(i + 1) % len(points)]
    return Permutation(imgs)


def format_cycles(p: Permutation) -> str:
    """Canonical 1-based cycle string: cycles sorted by least point, least first."""
    cycs = p.cycles()
    if not cycs:
        return "()"
    return "".join("(" + ",".join(str(a + 1) for a in c) + ")" for c in cycs)


def _smallest_prime_factor(n: int) -> int:
    if n % 2 == 0:
        return 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return d
        d += 2
    return n


def prime_order_witness(p: Permutation) -> Permutation:
    """A power of ``p`` of prime order, using the smallest prime dividing ord(p).

    The result is nonidentity and its support is contained in supp(p).
    """
    o = p.order()
    if o == 1:
        raise ValueError("the identity has no prime-order power")
    q = _smallest_prime_factor(o)
    return p ** (o // q)
