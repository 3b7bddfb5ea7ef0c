"""Stabilizer chains and the group queries built on them.

A chain fixes a base of points one level at a time.  Level i stores the
orbit of its base point under the subgroup fixing all earlier base points,
together with a transversal of coset representatives; the product of the
orbit sizes is the group order, and factoring a permutation through the
transversals (sifting) decides membership.  Construction is deterministic:
generators, orbit points and Schreier generators are always processed in a
fixed order, so bases, transversals and every derived witness are
reproducible for a given generating sequence.  Once a group's order is
verified, later chains of the group stop as soon as their orbit lengths
multiply to it, and come out the same as a full build.  A level whose
group did not grow rebuilds its transversal only when it is next read, or
once at the end.  A group keeps its ``()`` chain and only its last
rebased chain, so a session does not grow with each trace's points.

Every product here goes through one width switch, ``_width``: byte
strings that ``bytes.translate`` composes in C up to 256 points, image
tuples through ``perm.compose`` above, with one body either way.  That
operand is the one representation inside the module: a finished chain's
transversal representatives and a closure's orbit elements are operands,
and so are the products of the chain readers (the transversal walk that
membership sifts and transporters take, random draws and element
enumeration).  Schreier-Sims installs every generator and residue as an
operand and wraps its strong generators as ``Permutation``s once, when the
chain is done.  A ``Permutation`` always holds an image tuple, so a reader
calls ``tuple`` once, where it wraps its result; a caller that reads a
random draw as an operand, as the laws suite does, wraps none.
Random draws read 32-bit Mersenne Twister words, as ``random.Random``
draws do (``_random_product``): one ``getrandbits(32)`` call per word
where an rng is shared with other calls, and a chunk at a time
(``_bulk_words``) where the rng is private to one reader, each chunk one
``getrandbits`` int unpacked as little-endian 32-bit words;
``_sample_size`` replays the words a ``random.sample`` size reads.
``_flags`` and ``_inverse`` give per-point flag bytes and inverses of
operands of either width.

``_Columns`` reads a closure's orbit E one point at a time: E joined into
one flat operand (``_flat``) and sliced with step n, and each per-point
predicate one int with a lane per member, so the traces tally E with a few
bitwise operations and ``int.bit_count``, with no Python loop over its
members.

``_to_base`` is the one carry into the frame of the ``()`` chain's first
k base points b.  The stabilizer of any k points is G_(b) conjugated by
the element g that walks the chain from b to the points, so c = g^-1
carries an orbit under one onto an orbit under the other; ``_to_base``
returns c, the given permutations x as the operands of x^c and the points
carried by c.  Its readers are the counts suite (``verify``) and
``_base_orbit``, which closes the orbits the counting traces read once per
group.  Every tally of a trace is unchanged when its orbit, its witness
and its points are all carried alike, so each trace is read in the frame
of b, and ``_orbits`` keeps, per group and k, every orbit under G_(b)
closed so far as one flat operand: a trace whose carried seed is a
member of one reads it instead of closing its own.
"""

from __future__ import annotations

import itertools
import random
import struct
import weakref
from collections import namedtuple
from functools import cache, partial
from math import ceil, factorial, log, prod
from operator import ne
from typing import Callable, Iterable, Iterator, Sequence

from .perm import Permutation, _check_degree, _check_points, compose

# pairs drawn per stabilizer level before falling back to its strong
# generators; the catalog groups' one- and two-point stabilizers need at
# most six
_PAIR_DRAWS = 8


# words per ``getrandbits`` call of ``_bulk_words``
_CHUNK = 1024


# the element bound of conjugation closures and exhaustive scans where the
# caller (or ``--cap``) sets none
DEFAULT_CAP = 10_000_000


class CapExceeded(RuntimeError):
    """A configured orbit or enumeration cap was exceeded."""


# one level: its base point, the transversal (orbit point b -> an element
# carrying the base point to b, as the operand ``_width`` picks: a byte
# string up to 256 points, an image tuple above) and the orbit in ascending
# order
ChainLevel = namedtuple("ChainLevel", "point transversal orbit")


class StabilizerChain:
    """What ``build_chain`` computed; nothing changes it afterwards."""

    def __init__(self, degree: int, levels: list[ChainLevel], strong_gens: tuple[Permutation, ...]):
        self.degree = degree
        self.levels = levels
        self.strong_gens = strong_gens

    @property
    def base(self) -> tuple[int, ...]:
        return tuple(level.point for level in self.levels)

    def order(self) -> int:
        return prod(len(level.transversal) for level in self.levels)

    def contains(self, p: Permutation) -> bool:
        """Sift ``p`` through the transversals; it belongs to the group exactly
        when the residue is the identity.  The sift is the walk from ``p``
        onto the chain's own base points, which sifts p^-1 (see ``_walk``),
        and p^-1 lies in the group exactly when p does."""
        _check_degree((p,), self.degree)
        _, wrap, ident, _ = _width(self.degree)
        return _walk(self.levels, self.base, wrap(p.images)) == ident

    def elements(self) -> Iterator[Permutation]:
        """Yield each group element exactly once, one transversal choice per level."""
        levels = self.levels
        mul, _, ident, tail = _width(self.degree)

        def walk(i: int, right: Sequence[int]) -> Iterator[Permutation]:
            if i == len(levels):
                yield Permutation._trusted(tuple(right))
                return
            transversal = levels[i].transversal
            table = right + tail
            for point in levels[i].orbit:
                yield from walk(i + 1, mul(transversal[point], table))

        return walk(0, ident)


def build_chain(generators: Iterable[Permutation], degree: int,
                base_prefix: Sequence[int] = (), *,
                order: int | None = None) -> StabilizerChain:
    """Deterministic Schreier-Sims construction.

    The base starts with ``base_prefix`` (kept even where redundant) and is
    extended with the smallest moved point whenever a strong generator fixes
    every current base point.  Residues of Schreier generators are sifted
    through the deeper levels and installed at every level whose base prefix
    they fix, so each level's generator list is exactly the strong generators
    fixing its prefix; an installation strictly enlarges the fundamental
    orbit at the first base point it moves, which bounds the work.

    Products run on the operands ``_width`` picks once per chain: byte
    strings up to 256 points, image tuples above.  The left operand of every
    product is a plain n-point string, and the right operand is padded to a
    256-byte ``translate`` table: transversal representatives and residues
    are plain, strong generators and inverse representatives are padded.
    Above 256 points the padding is empty.  Each generator is wrapped once
    and each residue installed as it is, with ``_inverse`` of it as its
    inverse entry; the strong generators become ``Permutation``s only in
    the finished chain.  While the construction runs, each level keeps the
    inverse of every transversal representative, built in the same
    breadth-first pass, so stripping never inverts a permutation; the
    finished chain keeps only the representatives, and every base point
    maps to the one identity operand of the degree.

    A residue found at level i lies in level i's group, so installing it at
    level k grows no group of levels 0..i: their tables are rebuilt only
    just before ``first_residue`` reads them, or at the end, from the same
    generator list as rebuilding levels 0..k after each install would read
    last, so the chain comes out the same.  A breadth-first pass stops at
    the known orbit size (the old one there, n - i at any other level i).

    With ``order``, the construction stops as soon as the orbit lengths
    multiply to it.  Each level's group lies inside the true stabilizer of
    its base prefix, so the product never exceeds the group order, and
    reaching it proves every level complete: every remaining Schreier
    generator would strip to the identity, and the chain is the one a full
    build returns.  A product above ``order`` raises ValueError; a
    generating set that never reaches it (a proper subgroup, or an order
    that is too large) is built in full, so ``chain.order()`` tells the
    caller which.  A too small order that some intermediate product happens
    to equal would cut the chain short unseen, so ``order`` must come from a
    verified chain, never from an expected value.
    """
    generators = tuple(generators)
    _check_degree(generators, degree)
    base_prefix = _check_points(base_prefix, degree)
    mul, wrap, ident, tail = _width(degree)
    gens = [wrap(g.images) for g in generators if not g.is_identity()]
    ident_table = ident + tail
    base: list[int] = []
    # per level: (padded generator, plain inverse) of its strong generators
    gen_lists: list[list[tuple[Sequence[int], Sequence[int]]]] = []
    transversals: list[dict[int, Sequence[int]]] = []
    inverses: list[dict[int, Sequence[int]]] = []
    strong: list[Sequence[int]] = []

    def add_level(pt: int) -> None:
        base.append(pt)
        gen_lists.append([])
        transversals.append({pt: ident})
        inverses.append({pt: ident_table})

    for pt in base_prefix:
        if pt not in base:
            add_level(pt)

    def rebuild_orbit(i: int) -> None:
        # rep(b) = rep(a) * s and rep(b)^-1 = s^-1 * rep(a)^-1 when b = a^s;
        # the pass stops at a size the orbit cannot pass: a stale level's old
        # size, or n - i
        size = len(transversals[i]) if i < stale else degree - i
        transversals[i] = table = {base[i]: ident}
        inverses[i] = inv = {base[i]: ident_table}
        queue = [base[i]]
        for a in queue:
            rep = table[a]
            rep_inv = inv[a]
            for s, s_inv in gen_lists[i]:
                b = s[a]
                if b not in table:
                    table[b] = mul(rep, s)
                    inv[b] = mul(s_inv, rep_inv) + tail
                    if len(table) == size:
                        return
                    queue.append(b)

    def strip(g: Sequence[int], start: int) -> Sequence[int]:
        for j in range(start, len(base)):
            rep_inv = inverses[j].get(g[base[j]])
            if rep_inv is None:
                break
            g = mul(g, rep_inv)
        return g

    def install(g: Sequence[int]) -> int:
        # register the operand g at every level whose base prefix it fixes:
        # levels 0..k, k the first base level g moves (a new one if none)
        k = 0
        while k < len(base) and g[base[k]] == base[k]:
            k += 1
        if k == len(base):
            add_level(min(a for a in range(degree) if g[a] != a))
        entry = (g + tail, _inverse(g))
        for j in range(k + 1):
            gen_lists[j].append(entry)
        strong.append(g)
        return k

    def first_residue(i: int) -> Sequence[int] | None:
        # the first Schreier generator rep(a) * s * rep(a^s)^-1 at level i
        # that does not strip to the identity through the deeper levels
        table = transversals[i]
        inv = inverses[i]
        for a in sorted(table):
            rep = table[a]
            for s, _ in gen_lists[i]:
                back = inv[s[a]]
                schreier = mul(mul(rep, s), back)
                if schreier == ident:
                    continue
                residue = strip(schreier, i + 1)
                if residue != ident:
                    return residue
        return None

    def reached() -> bool:
        if order is None:
            return False
        size = prod(len(table) for table in transversals)
        if size > order:
            raise ValueError(f"orbit lengths multiply to {size}, above the given order {order}")
        return size == order

    # levels below ``stale`` keep their orbits as sets but not their tables
    stale = 0
    for g in gens:
        install(g)
    for i in range(len(base)):
        rebuild_orbit(i)

    i = len(base) - 1
    while i >= 0 and not reached():
        if i < stale:
            rebuild_orbit(i)
            stale = i
        residue = first_residue(i)
        if residue is None:
            i -= 1
            continue
        stale = i + 1
        i = install(residue)
        for j in range(stale, i + 1):
            rebuild_orbit(j)
    for j in range(stale):
        rebuild_orbit(j)

    levels = [ChainLevel(pt, table, tuple(sorted(table)))
              for pt, table in zip(base, transversals)]
    return StabilizerChain(degree, levels, tuple(Permutation._trusted(tuple(g)) for g in strong))


class PermutationGroup:
    """A permutation group given by generators, with cached chain-backed queries.

    Instances are immutable after construction; chains and the order are
    lazily computed and cached, and every query is safe to share between
    readers.  It keeps the ``()`` chain for life and only the last rebased
    chain, one (key, chain) pair replaced in one assignment: a trace reads
    its own points' chain twice in a row and seldom an older one again.
    """

    def __init__(self, generators: Iterable[Permutation], degree: int | None = None,
                 label: str = "G"):
        gens = tuple(generators)
        if degree is None:
            if not gens:
                raise ValueError("degree is required for an empty generating set")
            degree = gens[0].degree
        if degree < 1:
            raise ValueError("degree must be at least 1")
        _check_degree(gens, degree)
        self.degree = degree
        self.generators = gens
        self.label = label
        self._root: StabilizerChain | None = None
        self._rebased: tuple[tuple[int, ...], StabilizerChain] | None = None
        self._pairs: dict[int, tuple[Permutation, ...]] = {}
        self._order: int | None = None

    def __repr__(self) -> str:
        return f"PermutationGroup({self.label!r}, degree={self.degree}, gens={len(self.generators)})"

    def chain(self, base_prefix: Sequence[int] = ()) -> StabilizerChain:
        """The chain whose base starts with ``base_prefix``.  A rebased chain
        stops at the order the ``()`` chain verified, and so does the ``()``
        chain of a stabilizer whose order its parent's chain fixed.  A new
        rebased key's chain replaces the kept one."""
        key = tuple(base_prefix)
        if not key:
            if self._root is None:
                self._root = build_chain(self.generators, self.degree, order=self._order)
            return self._root
        kept = self._rebased
        if kept is None or kept[0] != key:
            kept = self._rebased = (key, build_chain(self.generators, self.degree, key,
                                                     order=self.order))
        return kept[1]

    @property
    def order(self) -> int:
        if self._order is None:
            self._order = self.chain().order()
        return self._order

    def contains(self, p: Permutation) -> bool:
        return self.chain().contains(p)

    def elements(self) -> Iterator[Permutation]:
        return self.chain().elements()

    def random_element(self, rng) -> Permutation:
        """A uniform random element, from one transversal choice per level;
        see ``_random_product``, whose operand it turns into an image tuple.
        Its words come from one ``rng.getrandbits(32)`` call each, so it
        leaves rng where ``rng.choice`` per level would, and the caller's
        own later draws from rng read the same words as before."""
        words = iter(partial(rng.getrandbits, 32), None)
        return Permutation._trusted(tuple(_random_product(self.chain().levels, self.degree, words)))

    def orbit(self, point: int) -> frozenset[int]:
        queue = _check_points((point,), self.degree)
        seen = set(queue)
        qi = 0
        while qi < len(queue):
            a = queue[qi]
            qi += 1
            for g in self.generators:
                b = g.images[a]
                if b not in seen:
                    seen.add(b)
                    queue.append(b)
        return frozenset(seen)

    def orbit_partition(self) -> list[frozenset[int]]:
        out = []
        remaining = set(range(self.degree))
        while remaining:
            orb = self.orbit(min(remaining))
            out.append(orb)
            remaining -= orb
        return out

    def pointwise_stabilizer(self, points: Iterable[int]) -> "PermutationGroup":
        """The subgroup fixing every listed point: ``_prefix_stabilizer`` of
        a chain rebased on them."""
        pts = tuple(sorted(set(_check_points(points, self.degree))))
        return self._prefix_stabilizer(self.chain(pts), len(pts)) if pts else self

    def _prefix_stabilizer(self, chain: StabilizerChain, k: int) -> "PermutationGroup":
        """The subgroup fixing the first k base points of ``chain``, a chain of
        this group: its strong generators fixing them, with the order of its levels past k."""
        prefix = chain.base[:k]
        child = PermutationGroup([g for g in chain.strong_gens
                                  if all(g.images[p] == p for p in prefix)],
                                 self.degree, label=f"{self.label}_stab")
        child._order = prod(len(level.orbit) for level in chain.levels[k:])
        return child

    def _level_pair(self, k: int) -> tuple[Permutation, ...]:
        """Generators of G_(b), b the ``()`` chain's first k base points,
        kept per k: the first random pair, drawn from the levels past k with
        the bulk words of a private ``random.Random(0)``, that generates it,
        as a random pair does with high probability (Seress, *Permutation
        Group Algorithms*, CUP 2003), else the strong generators fixing b."""
        pair = self._pairs.get(k)
        if pair is None:
            chain = self.chain()
            levels = chain.levels[k:]
            stabilizer = self._prefix_stabilizer(chain, k)
            order = stabilizer.order
            words = _bulk_words(random.Random(0))
            for _ in range(_PAIR_DRAWS):
                pair = tuple(Permutation._trusted(tuple(_random_product(levels, self.degree, words)))
                             for _ in range(2))
                if build_chain(pair, self.degree, order=order).order() == order:
                    break
            else:
                pair = stabilizer.generators
            self._pairs[k] = pair
        return pair

    def transporter(self, src: Sequence[int], dst: Sequence[int]) -> Permutation | None:
        """An element mapping src[i] to dst[i] for all i, or None.

        The set of solutions is a coset, so walking the transversals of a
        chain based on ``src`` decides existence level by level without
        backtracking; the first representative at each level makes the
        answer deterministic.
        """
        src = tuple(_check_points(src, self.degree))
        dst = tuple(_check_points(dst, self.degree))
        if len(src) != len(dst):
            raise ValueError("transporter tuples must have equal length")
        if len(set(src)) != len(src) or len(set(dst)) != len(dst):
            raise ValueError("transporter tuples must have distinct entries")
        g = _walk(self.chain(src).levels, dst, _width(self.degree)[2])
        return None if g is None else Permutation._trusted(tuple(g))

    def transitivity_degree(self) -> int:
        """Largest t with the group transitive on ordered t-tuples of distinct
        points, read off the ``()`` chain: the number of leading levels whose
        orbit is every point not yet in the base.  Past the base the
        stabilizer is trivial, which is transitive on the one point left
        when all n - 1 levels are full (and on the lone point when n = 1)."""
        levels = self.chain().levels
        n = self.degree
        t = 0
        while t < len(levels) and len(levels[t].orbit) == n - t:
            t += 1
        return t + 1 if t == n - 1 else t

    def contains_alternating(self) -> bool:
        """Whether the group contains every even permutation of its points:
        whether its order is at least n!/2, since a subgroup of index at
        most 2 in Sym(n) is Sym(n) or Alt(n)."""
        return self.order >= factorial(self.degree) // 2


@cache
def _width(degree: int) -> tuple[Callable, type, Sequence[int], Sequence[int]]:
    """(mul, wrap, ident, tail) for products on ``degree`` points: byte
    strings that ``bytes.translate`` composes up to 256 points, image tuples
    through ``perm.compose`` above.  ``mul(first, table)`` acts with
    ``first`` first, ``wrap`` turns image tuples into operands, ``ident`` is
    the identity operand and ``tail`` pads a right operand to a 256-byte
    ``translate`` table (empty above 256).  Each degree's four are built
    once: a draw needs them once per element, and every chain of the degree
    shares the one ``ident``."""
    if degree <= 256:
        return bytes.translate, bytes, bytes(range(degree)), bytes(range(degree, 256))
    return compose, tuple, tuple(range(degree)), ()


# zero bytes to 0 and the rest to 1: a lanewise XOR to 0/1 lanes
_NONZERO = bytes(1) + bytes([1]) * 255


def _flags(first: Sequence[int], second: Sequence[int]) -> bytes:
    """One byte per index a of two operands of one width, 1 where
    first[a] != second[a] and 0 elsewhere: byte strings XORed as ints,
    image tuples compared entry by entry."""
    if isinstance(first, bytes):
        xor = int.from_bytes(first, "little") ^ int.from_bytes(second, "little")
        return xor.to_bytes(len(first), "little").translate(_NONZERO)
    return bytes(map(ne, first, second))


def _inverse(x: Sequence[int]) -> Sequence[int]:
    """The inverse of the operand x, in x's width.  For a byte string it is
    ``bytes.maketrans(x, ident)``, the table that sends x[a] to a, cut to
    the degree."""
    if isinstance(x, bytes):
        return bytes.maketrans(x, _width(len(x))[2])[:len(x)]
    return Permutation._trusted(x).inverse().images


def _flat(members: Iterable[Sequence[int]], degree: int) -> Sequence[int]:
    """The operands ``members`` of ``degree`` points joined into one flat
    operand: ``b"".join`` up to 256 points, one flat tuple above."""
    return b"".join(members) if degree <= 256 else tuple(itertools.chain.from_iterable(members))


class _Columns:
    """The members of a list E of operands of one degree, joined into one
    flat operand (``_flat``), read one point at a time.

    Column a holds x[a] for each x in E: the flat operand sliced with step
    n.  A predicate of the members at one point is one int with a lane per
    member, E[i] in the lane at byte w i, each lane 0 or 1.  A lane is w
    bytes wide, 1 up to 256 points and enough that n - 1 fits above, so a
    sum of up to n - 1 such ints never carries from one lane into the next.
    A tally over E is then the ``int.bit_count`` of a few ANDs, ORs and
    XORs of these ints, with no per-member work in Python.
    """

    __slots__ = ("size", "degree", "_flat", "_columns", "_lane", "_ones")

    def __init__(self, flat: Sequence[int], degree: int):
        self.size = k = len(flat) // degree
        self.degree = degree
        self._flat = flat
        self._columns = [flat[a::degree] for a in range(degree)]
        self._lane = w = max(1, ((degree - 1).bit_length() + 7) // 8)
        self._ones = int.from_bytes((b"\1" + bytes(w - 1)) * k, "little")

    def _lanes(self, flags: bytes) -> int:
        """The lane int of one 0/1 byte per member."""
        w = self._lane
        if w > 1:
            spread = bytearray(len(flags) * w)
            spread[::w] = flags
            flags = spread
        return int.from_bytes(flags, "little")

    def moves(self, a: int) -> int:
        """Lanes 1 where x[a] != a."""
        return self._ones ^ self.maps_into(a, (a,))

    def maps_into(self, a: int, points: Iterable[int]) -> int:
        """Lanes 1 where x[a] lies in ``points``."""
        if not self.size:
            # above 256 points mul is perm.compose, which needs a nonempty first
            return 0
        mul, wrap, _, tail = _width(self.degree)
        flags = bytearray(self.degree)
        for b in points:
            flags[b] = 1
        return self._lanes(bytes(mul(self._columns[a], wrap(flags) + tail)))

    def commutator_moves(self, u: Sequence[int]) -> list[int]:
        """For each point a, lanes 1 where [u,x] moves a, read off the
        operands as x[u[a]] != u[x[a]]; u is an image tuple."""
        n = self.degree
        if not self.size:
            return [0] * n
        mul, wrap, _, tail = _width(n)
        after = mul(self._flat, wrap(u) + tail)
        return [self._lanes(_flags(self._columns[u[a]], after[a::n])) for a in range(n)]

    def below(self, lanes: int, bound: int) -> int:
        """Lanes 1 where ``lanes``, a sum of lane ints, is below ``bound``.

        The top bit of each lane is set where its value reaches 2^(8w-1),
        or where its low bits plus the bias 2^(8w-1) - bound do, which
        never carries out of the lane; ``bound`` must lie in 0..2^(8w-1).
        """
        top = 1 << (8 * self._lane - 1)
        if not 0 <= bound <= top:
            raise ValueError(f"lane bound {bound} exceeds {top} or is negative")
        tops = self._ones * top
        reached = ((lanes & (tops - self._ones)) + (top - bound) * self._ones | lanes) & tops
        return (tops ^ reached) >> (8 * self._lane - 1)


def _walk(levels: Sequence[ChainLevel], targets: Sequence[int],
          start: Sequence[int]) -> Sequence[int] | None:
    """rep_k * ... * rep_1 * start, where start and the result are operands
    of the chain's width (see ``_width``) and rep_i is the representative
    of levels[i] whose product with the walk so far carries that level's
    base point to targets[i]; None when some level's orbit misses its
    target.  Targets past the last level are not walked.  From the
    identity, the result carries the base point of levels[i] to targets[i]
    for every i it walks.

    As a sift, acc is the inverse of the residue r of start^-1, so no
    representative is ever inverted: the next one must carry its base
    point to target^r = ``acc.index(target)``, and dividing r by it turns
    acc into rep * acc.
    """
    mul, _, _, tail = _width(len(start))
    acc = start
    for level, target in zip(levels, targets):
        rep = level.transversal.get(acc.index(target))
        if rep is None:
            return None
        acc = mul(rep, acc + tail)
    return acc


def _random_product(levels: Sequence[ChainLevel], degree: int,
                    words: Iterator[int]) -> Sequence[int]:
    """A uniform random element of the group the chain ``levels`` describe,
    from one transversal point per level, in level order, as the operand
    ``_width`` picks, composed with no ``Permutation``.  A level's point is
    ``orbit[r]``: r is the top ``len(orbit).bit_length()`` bits of the next
    32-bit word of ``words``, read again while r >= len(orbit).  That is
    how ``rng.choice(orbit)`` reads ``rng.getrandbits(32)`` words
    (``Random._randbelow``).  An orbit of 2**32 points or more raises
    ``ValueError``."""
    mul, _, g, tail = _width(degree)
    for level in levels:
        orbit = level.orbit
        size = len(orbit)
        shift = 32 - size.bit_length()
        if shift < 0:
            raise ValueError(f"an orbit of {size} points is too long to draw from 32-bit words")
        r = next(words) >> shift
        while r >= size:
            r = next(words) >> shift
        g = mul(level.transversal[orbit[r]], g + tail)
    return g


def _bulk_words(rng: random.Random) -> Iterator[int]:
    """rng's 32-bit words in the order ``rng.getrandbits(32)`` returns
    them, read ``_CHUNK`` at a time: ``rng.getrandbits(32 * _CHUNK)``
    fills its int from the least significant word up.  It reads ahead, so
    only an rng that nothing else reads may hand out its words this way.
    A chunk's int is written little-endian and read back as ``_CHUNK``
    little-endian unsigned 32-bit words, on any machine."""
    unpack = struct.Struct(f"<{_CHUNK}I").unpack

    def read(_) -> tuple[int, ...]:
        return unpack(rng.getrandbits(32 * _CHUNK).to_bytes(4 * _CHUNK, "little"))

    return itertools.chain.from_iterable(map(read, itertools.repeat(None)))


def _sample_size(words: Iterator[int], k: int) -> int:
    """``len(rng.sample(range(k), rng.randint(0, k)))``, taking the words
    those calls read off ``words`` and building no list: both branches of
    ``Random.sample`` are replayed, a pool that shrinks by one per draw
    and, past ``setsize``, redraws until an index is new."""
    shift = 32 - (k + 1).bit_length()
    size = next(words) >> shift
    while size > k:
        size = next(words) >> shift
    setsize = 21 if size <= 5 else 21 + 4 ** ceil(log(size * 3, 4))
    if k <= setsize:
        for pool in range(k, k - size, -1):
            shift = 32 - pool.bit_length()
            while next(words) >> shift >= pool:
                pass
    else:
        shift = 32 - k.bit_length()
        seen = set()
        for _ in range(size):
            j = next(words) >> shift
            while j >= k or j in seen:
                j = next(words) >> shift
            seen.add(j)
    return size


def conjugation_closure(gens: Sequence[Permutation], seed: Permutation,
                        cap: int = DEFAULT_CAP) -> tuple[Sequence[int], ...]:
    """The orbit of ``seed`` under conjugation by the group the given
    generators generate, in breadth-first order, starting with the seed.
    Each element is the operand ``_width`` picks, which the readers index
    as they would an image tuple: a byte string up to 256 points, an image
    tuple above.

    Raises CapExceeded when the orbit would exceed ``cap`` elements.

    g^-1 x g maps g(a) to g(x(a)), i.e. b to g[x[g^-1[b]]].  x padded to
    a table is shared by every generator, g^-1 read through it gives
    x[g^-1[b]], and g's padded table maps that to y.
    """
    _check_degree(gens, seed.degree)
    if cap < 1:
        # the seed alone already exceeds the cap
        raise CapExceeded(f"conjugation orbit exceeds cap {cap}")
    mul, wrap, _, tail = _width(seed.degree)
    pairs = [(_inverse(x), x + tail) for x in (wrap(g.images) for g in gens)]
    out = [wrap(seed.images)]
    seen = set(out)
    for x in out:
        table = x + tail
        for inv, g_table in pairs:
            y = mul(mul(inv, table), g_table)
            if y not in seen:
                if len(seen) >= cap:
                    raise CapExceeded(f"conjugation orbit exceeds cap {cap}")
                seen.add(y)
                out.append(y)
    return tuple(out)


# group -> {k: [E, ...]}: the orbits ``_base_orbit`` closed under
# conjugation by the ``()`` chain's level-k stabilizer G_(b), b its first k
# base points, each one flat operand (``_flat``); dropped with the group
_orbits: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _member(flat: Sequence[int], x: Sequence[int]) -> bool:
    """Whether the operand x is one of the members of ``flat``, operands of
    n = len(x) points joined (``_flat``).  Up to 256 points ``bytes.find``
    looks for x, and a hit counts only at a multiple of n, where a member
    starts: x can also turn up across the end of one member and the start
    of the next.  Above, the members whose column-0 entry is x[0] are
    compared whole."""
    n = len(x)
    if isinstance(flat, bytes):
        at = flat.find(x)
        while at > 0 and at % n:
            at = flat.find(x, at + 1)
        return at >= 0
    column = flat[::n]
    at = -1
    try:
        while True:
            at = column.index(x[0], at + 1)
            if flat[at * n:at * n + n] == x:
                return True
    except ValueError:
        return False


def _to_base(group: PermutationGroup, targets: Sequence[int], xs: Iterable[Permutation]
             ) -> tuple[Sequence[int], list[Sequence[int]], Sequence[int]]:
    """(c, xs', targets'): the one carry into the frame of the ``()``
    chain's base points b.  g walks the chain's transversals from b to the
    distinct points ``targets``, carrying b_i to targets[i], so that
    G_(targets[:k]) = g^-1 G_(b[:k]) g for every k (Seress, *Permutation
    Group Algorithms*, CUP 2003, on conjugating a base), and c = g^-1.
    Each permutation x of ``xs`` is carried to the operand of x^c = g x c,
    which maps a^c to x[a]^c, and the targets to their images under c, so
    the walked targets[i] land on b_i.  Past the chain's last level the
    stabilizer of b, and so that of the targets walked, is trivial, so the
    targets past it are not walked.  Raises RuntimeError where the group
    does not carry b to the targets."""
    mul, wrap, ident, tail = _width(group.degree)
    g = _walk(group.chain().levels, targets, ident)
    if g is None:
        raise RuntimeError(f"{group.label} does not carry its base to {list(targets)}")
    c = _inverse(g)
    table = c + tail
    return c, [mul(mul(g, wrap(x.images) + tail), table) for x in xs], mul(wrap(targets), table)


def _base_orbit(group: PermutationGroup, targets: Sequence[int], k: int, seed: Permutation,
                u: Permutation, cap: int = DEFAULT_CAP
                ) -> tuple[Sequence[int], tuple[int, ...], tuple[int, ...]]:
    """(E', u', targets'): E the orbit of ``seed`` under conjugation by H,
    the pointwise stabilizer of targets[:k], and u and the distinct points
    ``targets``, all carried by ``_to_base``'s c into the frame of the
    ``()`` chain's base points b; E' is one flat operand, u' an image tuple.

    With g and c as there, H = g^-1 G_(b) g, so each x in E is carried to
    x^c, a conjugate of w = seed^c under G_(b).  Every tally of E against u and the targets is
    unchanged when all of them are carried, so each orbit is closed once
    per group and k: ``_orbits`` keeps every orbit closed here, and a later
    w that is a member of one of them reads that one, in the order it was
    kept in.  Where ``targets`` go past k, a new orbit keeps the members
    that fix the carried targets[k] first, so a reader slices those fixers
    off its front.  A kept orbit holds ``cap`` as a fresh closure does: more
    than ``cap`` members raise CapExceeded.
    """
    n = group.degree
    _, (w, ui), points = _to_base(group, targets, (seed, u))
    ui, points = tuple(ui), tuple(points)
    orbits = _orbits.setdefault(group, {}).setdefault(k, [])
    for flat in orbits:
        if _member(flat, w):
            if len(flat) > cap * n:
                raise CapExceeded(f"conjugation orbit exceeds cap {cap}")
            return flat, ui, points
    members = conjugation_closure(group._level_pair(k), Permutation._trusted(tuple(w)), cap)
    if k < len(targets):
        b = points[k]
        members = sorted(members, key=lambda x: x[b] != b)
    orbits.append(_flat(members, n))
    return orbits[-1], ui, points
