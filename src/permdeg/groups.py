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
multiply to it, and come out the same as a full build.

Every product here goes through one width switch, ``_width``: byte
strings that ``bytes.translate`` composes in C up to 256 points, image
tuples through ``perm.compose`` above, with one body either way.  That
operand is the one representation inside the module: a finished chain's
transversal representatives and a closure's orbit elements are operands,
and so are the products of the chain readers (the transversal walk that
membership sifts and transporters take, random draws and element
enumeration).  A ``Permutation`` always holds an image tuple, so a reader
calls ``tuple`` once, where it wraps its result; a caller that reads a
random draw as an operand, as the laws suite does, wraps none.
``_flags`` and ``_inverse`` give per-point flag bytes and inverses of
operands of either width.

``_Columns`` reads a closure's orbit E one point at a time: E joined into
one flat operand and sliced with step n, and each per-point predicate one
int with a lane per member, so the traces tally E with a few bitwise
operations and ``int.bit_count``, with no Python loop over its members.
"""

from __future__ import annotations

import itertools
import random
from functools import cache
from math import factorial, prod
from operator import ne
from typing import Callable, Iterable, Iterator, Sequence

from .perm import Permutation, _check_degree, _check_points, compose

# pairs drawn per stabilizer level before falling back to its strong
# generators; the catalog groups' one- and two-point stabilizers need at
# most six
_PAIR_DRAWS = 8


# the element bound of conjugation closures and exhaustive scans where the
# caller (or ``--cap``) sets none
DEFAULT_CAP = 10_000_000


class CapExceeded(RuntimeError):
    """A configured orbit or enumeration cap was exceeded."""


class ChainLevel:
    """One level: its base point, the transversal (orbit point b -> an
    element carrying the base point to b, as the operand ``_width`` picks:
    a byte string up to 256 points, an image tuple above) and the orbit in
    ascending order."""

    __slots__ = ("point", "transversal", "orbit")

    def __init__(self, point: int, transversal: dict[int, Sequence[int]],
                 orbit: tuple[int, ...]):
        self.point = point
        self.transversal = transversal
        self.orbit = orbit


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
    Above 256 points the padding is empty.  While the construction runs,
    each level keeps the inverse of every transversal representative, built
    in the same breadth-first pass, so stripping never inverts a
    permutation; the finished chain keeps only the representatives, as the
    plain operands the pass built, and every base point maps to the one
    identity operand of the degree.

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
    _check_points(base_prefix, degree)
    gens = [g for g in generators if not g.is_identity()]

    mul, wrap, ident, tail = _width(degree)
    ident_table = ident + tail
    base: list[int] = []
    # per level: (padded generator, plain inverse) of its strong generators
    gen_lists: list[list[tuple[Sequence[int], Sequence[int]]]] = []
    transversals: list[dict[int, Sequence[int]]] = []
    inverses: list[dict[int, Sequence[int]]] = []
    strong: list[Permutation] = []

    def add_level(pt: int) -> None:
        base.append(pt)
        gen_lists.append([])
        transversals.append({pt: ident})
        inverses.append({pt: ident_table})

    for pt in base_prefix:
        if pt not in base:
            add_level(pt)

    def rebuild_orbit(i: int) -> None:
        # rep(b) = rep(a) * s and rep(b)^-1 = s^-1 * rep(a)^-1 when b = a^s
        table = {base[i]: ident}
        inv = {base[i]: ident_table}
        queue = [base[i]]
        for a in queue:
            rep = table[a]
            rep_inv = inv[a]
            for s, s_inv in gen_lists[i]:
                b = s[a]
                if b not in table:
                    table[b] = mul(rep, s)
                    inv[b] = mul(s_inv, rep_inv) + tail
                    queue.append(b)
        transversals[i] = table
        inverses[i] = inv

    def strip(g: Sequence[int], start: int) -> Sequence[int]:
        for j in range(start, len(base)):
            rep_inv = inverses[j].get(g[base[j]])
            if rep_inv is None:
                break
            g = mul(g, rep_inv)
        return g

    def install(g: Permutation) -> int:
        # register g at every level whose base prefix it fixes: levels 0..k,
        # where k is the first base level g moves (new base point if none)
        images = g.images
        k = 0
        while k < len(base) and images[base[k]] == base[k]:
            k += 1
        if k == len(base):
            add_level(min(a for a in range(degree) if images[a] != a))
        entry = (wrap(images) + tail, wrap(g.inverse().images))
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

    for g in gens:
        install(g)
    for i in range(len(base)):
        rebuild_orbit(i)

    i = len(base) - 1
    while i >= 0 and not reached():
        residue = first_residue(i)
        if residue is None:
            i -= 1
            continue
        i = install(Permutation._trusted(tuple(residue)))
        for j in range(i + 1):
            rebuild_orbit(j)

    levels = [ChainLevel(pt, table, tuple(sorted(table)))
              for pt, table in zip(base, transversals)]
    return StabilizerChain(degree, levels, tuple(strong))


class PermutationGroup:
    """A permutation group given by generators, with cached chain-backed queries.

    Instances are immutable after construction; chains and the order are
    lazily computed and cached, and every query is safe to share between
    readers.
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
        self._chains: dict[tuple[int, ...], StabilizerChain] = {}
        self._pairs: dict[int, tuple[Permutation, ...]] = {}
        self._order: int | None = None

    def __repr__(self) -> str:
        return f"PermutationGroup({self.label!r}, degree={self.degree}, gens={len(self.generators)})"

    def chain(self, base_prefix: Sequence[int] = ()) -> StabilizerChain:
        """The chain whose base starts with ``base_prefix``.  A rebased chain
        stops at the order the ``()`` chain verified, and so does the ``()``
        chain of a stabilizer whose order its parent's chain fixed."""
        key = tuple(base_prefix)
        chain = self._chains.get(key)
        if chain is None:
            order = self.order if key else self._order
            chain = build_chain(self.generators, self.degree, key, order=order)
            self._chains[key] = chain
        return chain

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
        see ``_random_product``, whose operand it turns into an image tuple."""
        return Permutation._trusted(tuple(_random_product(self.chain().levels, self.degree, rng)))

    def orbit(self, point: int) -> frozenset[int]:
        _check_points((point,), self.degree)
        seen = {point}
        queue = [point]
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
        """The subgroup fixing every listed point, via a chain rebased on them.

        Its generators are the strong generators fixing the points, and its
        order is the product of the rebased chain's levels past them."""
        pts = tuple(sorted(set(points)))
        if not pts:
            return self
        _check_points(pts, self.degree)
        chain = self.chain(pts)
        sub = [g for g in chain.strong_gens
               if all(g.images[p] == p for p in pts)]
        child = PermutationGroup(sub, self.degree, label=f"{self.label}_stab")
        child._order = prod(len(level.transversal) for level in chain.levels[len(pts):])
        return child

    def stabilizer_generators(self, points: Iterable[int]) -> tuple[Permutation, ...]:
        """Generators of the pointwise stabilizer of ``points``, usually two,
        read off the ``()`` chain without building a chain based on them.

        With b the first k = |points| base points of the ``()`` chain, the
        element g that walks that chain's transversals from b to the sorted
        points (as ``transporter`` walks a rebased chain) conjugates one
        stabilizer onto the other: G_(points) = g^-1 G_(b) g (Seress,
        *Permutation Group Algorithms*, CUP 2003, on conjugating a base).
        So one generating set of G_(b), kept per k, serves every k-set of
        points.  It is the first pair of random elements of G_(b) (drawn
        from the chain's levels past k by a private ``random.Random(0)``)
        whose chain, stopped at the order those levels verified, reaches
        it.  A random pair generates such a group with high probability
        (Seress, ibid., on random generation; Dixon, Math. Z. 110, 1969,
        for symmetric groups; Liebeck and Shalev, Geom. Dedicata 56, 1995,
        for simple groups), so few pairs are drawn.  If no pair of
        ``_PAIR_DRAWS`` draws generates G_(b), which then needs more than
        two generators, the strong generators fixing b stand in for it.
        If the walk fails, because the group does not carry b to the
        points, the generators are those of ``pointwise_stabilizer``.  The
        group they generate is the stabilizer in every case, and no
        caller's rng is ever read.
        """
        pts = tuple(sorted(set(points)))
        _check_points(pts, self.degree)
        carried = self._carry_base(pts)
        if carried is None:
            return self.pointwise_stabilizer(pts).generators
        g, pair = carried
        return tuple(x.conjugate(g) for x in pair)

    def _carry_base(self, pts: Sequence[int]) -> tuple[Permutation, tuple[Permutation, ...]] | None:
        """(g, gens) for the sorted points ``pts``: g walks the ``()``
        chain's transversals from its first k = len(pts) base points b to
        ``pts``, and gens generate G_(b), so G_(pts) = g^-1 G_(b) g.  None
        when the walk fails, because the group does not carry b to ``pts``."""
        g = _walk(self.chain().levels, pts, _width(self.degree)[2])
        return None if g is None else (Permutation._trusted(tuple(g)),
                                       self._level_pair(len(pts)))

    def _level_pair(self, k: int) -> tuple[Permutation, ...]:
        """Generators of the ``()`` chain's level-k stabilizer: the first
        random pair that generates it, else its strong generators."""
        pair = self._pairs.get(k)
        if pair is None:
            chain = self.chain()
            levels = chain.levels[k:]
            order = prod(len(level.orbit) for level in levels)
            rng = random.Random(0)
            for _ in range(_PAIR_DRAWS):
                pair = tuple(Permutation._trusted(tuple(_random_product(levels, self.degree, rng)))
                             for _ in range(2))
                if build_chain(pair, self.degree, order=order).order() == order:
                    break
            else:
                prefix = chain.base[:k]
                pair = tuple(g for g in chain.strong_gens
                             if all(g.images[p] == p for p in prefix))
            self._pairs[k] = pair
        return pair

    def transporter(self, src: Sequence[int], dst: Sequence[int]) -> Permutation | None:
        """An element mapping src[i] to dst[i] for all i, or None.

        The set of solutions is a coset, so walking the transversals of a
        chain based on ``src`` decides existence level by level without
        backtracking; the first representative at each level makes the
        answer deterministic.
        """
        src = tuple(src)
        dst = tuple(dst)
        if len(src) != len(dst):
            raise ValueError("transporter tuples must have equal length")
        if len(set(src)) != len(src) or len(set(dst)) != len(dst):
            raise ValueError("transporter tuples must have distinct entries")
        _check_points(src + dst, self.degree)
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
        """Whether the group contains every even permutation of its points.

        Probe: order at least n!/2 plus membership of a 3-cycle (the only
        subgroups that large are the full symmetric and alternating groups).
        """
        n = self.degree
        if n <= 2:
            return True
        if self.order < factorial(n) // 2:
            return False
        probe = Permutation([1, 2, 0] + list(range(3, n)))
        return self.contains(probe)


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


class _Columns:
    """The operands of one degree in a list E (as ``conjugation_closure``
    returns it), read one point at a time.

    Column a holds x[a] for each x in E: E joined into one flat operand
    (``b"".join`` up to 256 points, a flat tuple above) and sliced with step
    n.  A predicate of the members at one point is one int with a lane per
    member, E[i] in the lane at byte w i, each lane 0 or 1.  A lane is w
    bytes wide, 1 up to 256 points and enough that n - 1 fits above, so a
    sum of up to n - 1 such ints never carries from one lane into the next.
    A tally over E is then the ``int.bit_count`` of a few ANDs, ORs and
    XORs of these ints, with no per-member work in Python.
    """

    __slots__ = ("size", "degree", "_flat", "_columns", "_lane", "_ones")

    def __init__(self, members: Sequence[Sequence[int]], degree: int):
        self.size = k = len(members)
        self.degree = degree
        narrow = degree <= 256
        self._flat = b"".join(members) if narrow else tuple(itertools.chain.from_iterable(members))
        self._columns = [self._flat[a::degree] for a in range(degree)]
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
        return self._lanes(_flags(self._columns[a], _width(self.degree)[1]((a,)) * self.size))

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
    target or there are fewer levels than targets.  From the identity, the
    result carries the base point of levels[i] to targets[i] for every i.

    As a sift, acc is the inverse of the residue r of start^-1, so no
    representative is ever inverted: the next one must carry its base
    point to target^r = ``acc.index(target)``, and dividing r by it turns
    acc into rep * acc.
    """
    if len(levels) < len(targets):
        return None
    mul, _, _, tail = _width(len(start))
    acc = start
    for level, target in zip(levels, targets):
        rep = level.transversal.get(acc.index(target))
        if rep is None:
            return None
        acc = mul(rep, acc + tail)
    return acc


def _random_product(levels: Sequence[ChainLevel], degree: int, rng) -> Sequence[int]:
    """A uniform random element of the group the chain ``levels`` describe,
    from one ``rng.choice`` of a transversal point per level, in level
    order.  It is the operand ``_width`` picks, a byte string up to 256
    points and an image tuple above, composed with no ``Permutation``."""
    mul, _, g, tail = _width(degree)
    for level in levels:
        rep = level.transversal[rng.choice(level.orbit)]
        g = mul(rep, g + tail)
    return g


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
    pairs = [(wrap(g.inverse().images), wrap(g.images) + tail) for g in gens]
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

