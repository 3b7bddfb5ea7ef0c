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

Schreier-Sims and the conjugation closure compose through one width
switch, ``_width``: byte strings that ``bytes.translate`` composes in C up
to 256 points, image tuples through ``perm.compose`` above, with one body
either way.  A finished chain holds image tuples, and a closure returns its
orbit as image tuples, which is all their readers scan.  Every other
product goes through ``perm.compose``: random draws and the one transversal
walk that both membership sifts and transporters take.
"""

from __future__ import annotations

import random
from math import factorial, prod
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

from .perm import DegreeMismatchError, Permutation, compose

if TYPE_CHECKING:
    from .mindeg import MinDegResult


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
    """One level: its base point, the transversal (orbit point b -> the image
    tuple of an element carrying the base point to b) and the orbit in
    ascending order."""

    __slots__ = ("point", "transversal", "orbit")

    def __init__(self, point: int, transversal: dict[int, tuple[int, ...]],
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
        if p.degree != self.degree:
            raise DegreeMismatchError(f"degree mismatch: {p.degree} vs {self.degree}")
        return _walk(self.levels, self.base, p.images) == tuple(range(self.degree))

    def elements(self) -> Iterator[Permutation]:
        """Yield each group element exactly once, one transversal choice per level."""
        levels = self.levels

        def walk(i: int, right: tuple[int, ...]) -> Iterator[Permutation]:
            if i == len(levels):
                yield Permutation._trusted(right)
                return
            transversal = levels[i].transversal
            for point in levels[i].orbit:
                yield from walk(i + 1, compose(transversal[point], right))

        return walk(0, tuple(range(self.degree)))


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
    permutation; the finished chain keeps only the representatives, as
    image tuples.

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
    gens = []
    for g in generators:
        if g.degree != degree:
            raise DegreeMismatchError(f"generator degree {g.degree}, expected {degree}")
        if not g.is_identity():
            gens.append(g)

    mul, wrap, tail = _width(degree)
    ident = wrap(range(degree))
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
        if not 0 <= pt < degree:
            raise ValueError(f"base point {pt} outside 0..{degree - 1}")
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

    # one identity tuple, shared by every level's base point
    ident_images = tuple(ident)
    levels = []
    for pt, table in zip(base, transversals):
        transversal = {b: tuple(rep) for b, rep in table.items()}
        transversal[pt] = ident_images
        levels.append(ChainLevel(pt, transversal, tuple(sorted(transversal))))
    return StabilizerChain(degree, levels, tuple(strong))


class PermutationGroup:
    """A permutation group given by generators, with cached chain-backed queries.

    Instances are immutable after construction; chains, the order and
    minimal-degree results are lazily computed and cached, and every query
    is safe to share between readers.
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
        for g in gens:
            if g.degree != degree:
                raise DegreeMismatchError(f"generator degree {g.degree}, expected {degree}")
        self.degree = degree
        self.generators = gens
        self.label = label
        self._chains: dict[tuple[int, ...], StabilizerChain] = {}
        self._pairs: dict[int, tuple[Permutation, ...]] = {}
        self._order: int | None = None
        self.mindeg: MinDegResult | None = None  # set by mindeg.minimal_degree

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
        the product is composed on image tuples and wrapped once."""
        return _random_product(self.chain().levels, self.degree, rng)

    def orbit(self, point: int) -> frozenset[int]:
        if not 0 <= point < self.degree:
            raise ValueError(f"point {point} outside 0..{self.degree - 1}")
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
        for pt in pts:
            if not 0 <= pt < self.degree:
                raise ValueError(f"point {pt} outside 0..{self.degree - 1}")
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
        for pt in pts:
            if not 0 <= pt < self.degree:
                raise ValueError(f"point {pt} outside 0..{self.degree - 1}")
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
        g = _walk(self.chain().levels, pts, tuple(range(self.degree)))
        return None if g is None else (Permutation._trusted(g), self._level_pair(len(pts)))

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
                pair = tuple(_random_product(levels, self.degree, rng) for _ in range(2))
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
        for pt in (*src, *dst):
            if not 0 <= pt < self.degree:
                raise ValueError(f"point {pt} outside 0..{self.degree - 1}")
        g = _walk(self.chain(src).levels, dst, tuple(range(self.degree)))
        return None if g is None else Permutation._trusted(g)

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


def _width(degree: int) -> tuple[Callable, type, Sequence[int]]:
    """(mul, wrap, tail) for products on ``degree`` points: byte strings
    that ``bytes.translate`` composes up to 256 points, image tuples through
    ``perm.compose`` above.  ``mul(first, table)`` acts with ``first``
    first, ``wrap`` turns image tuples into operands, and ``tail`` pads a
    right operand to a 256-byte ``translate`` table (empty above 256)."""
    if degree <= 256:
        return bytes.translate, bytes, bytes(range(degree, 256))
    return compose, tuple, ()


def _walk(levels: Sequence[ChainLevel], targets: Sequence[int],
          start: tuple[int, ...]) -> tuple[int, ...] | None:
    """rep_k * ... * rep_1 * start as an image tuple, where rep_i is the
    representative of levels[i] whose product with the walk so far carries
    that level's base point to targets[i]; None when some level's orbit
    misses its target or there are fewer levels than targets.  From the
    identity, the result carries the base point of levels[i] to targets[i]
    for every i.

    As a sift, acc is the inverse of the residue r of start^-1, so no
    representative is ever inverted: the next one must carry its base
    point to target^r = ``acc.index(target)``, and dividing r by it turns
    acc into rep * acc.
    """
    if len(levels) < len(targets):
        return None
    acc = start
    for level, target in zip(levels, targets):
        rep = level.transversal.get(acc.index(target))
        if rep is None:
            return None
        acc = compose(rep, acc)
    return acc


def _random_product(levels: Sequence[ChainLevel], degree: int, rng) -> Permutation:
    """A uniform random element of the group the chain ``levels`` describe,
    from one transversal choice per level, composed on image tuples."""
    g = tuple(range(degree))
    for level in levels:
        rep = level.transversal[rng.choice(level.orbit)]
        g = compose(rep, g)
    return Permutation._trusted(g)


def conjugation_closure(gens: Sequence[Permutation], seed: Permutation,
                        cap: int = DEFAULT_CAP) -> tuple[tuple[int, ...], ...]:
    """The orbit of ``seed`` under conjugation by the group the given
    generators generate, as image tuples in breadth-first order, starting
    with ``seed.images``.

    Raises CapExceeded when the orbit would exceed ``cap`` elements.

    g^-1 x g maps g(a) to g(x(a)), i.e. b to g[x[g^-1[b]]].  The pass runs
    on the operands ``_width`` picks (byte strings up to 256 points, image
    tuples above): x padded to a table is shared by every generator, g^-1
    read through it gives x[g^-1[b]], and g's padded table maps that to y.
    """
    for g in gens:
        if g.degree != seed.degree:
            raise DegreeMismatchError(f"degree mismatch: {g.degree} vs {seed.degree}")
    if cap < 1:
        # the seed alone already exceeds the cap
        raise CapExceeded(f"conjugation orbit exceeds cap {cap}")
    mul, wrap, tail = _width(seed.degree)
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
    # the set's table is freed before the tuples are built, lowering the peak
    seen = None
    return tuple(map(tuple, out))

