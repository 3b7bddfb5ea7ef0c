"""Independent brute-force oracles used to pin expected values in tests,
and the test fixtures they run on.

Everything here recomputes results from first principles (closures, full
enumerations, image chasing) so the library's chain-based answers are checked
against a second route.
"""

import random
from collections import namedtuple
from fractions import Fraction
from itertools import permutations
from math import prod
from pathlib import Path
from typing import Iterable, Sequence

from permdeg.groups import ChainLevel, PermutationGroup, StabilizerChain, _width
from permdeg.perm import (DegreeMismatchError, Permutation, _check_degree, _check_points,
                          compose, format_cycles)
from permdeg.verify import (_LAWS, CLAUSES, CountCheck, PreconditionError,
                            _check_configuration, _clause_plan, _eq, _sorted_checks)

# the catalog groups with t >= 2: S_n for 2 <= n <= 9, A_n for 4 <= n <= 9,
# C2, D3, PGL2_q and PSL2_q for each odd prime q <= 31, and the Mathieu groups
DOUBLY_TRANSITIVE = (
    *(f"S{n}" for n in range(2, 10)), *(f"A{n}" for n in range(4, 10)), "C2", "D3",
    *(f"{family}_{q}" for family in ("PGL2", "PSL2")
      for q in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)),
    "M11", "M12", "M23", "M24",
)


def relabelled(group):
    """A copy of ``group`` whose generators are conjugated by one fixed
    random permutation of its points, so its chains have another base."""
    points = list(range(group.degree))
    random.Random(0).shuffle(points)
    relabel = Permutation(points)
    return PermutationGroup([g.conjugate(relabel) for g in group.generators],
                            group.degree, f"{group.label}r")


def save_generator_file(group, path):
    """Write ``group`` as a .perm file that ``catalog.load_generator_file``
    reads back: the degree header, then one generator per line in 1-based
    cycle notation."""
    lines = [f"degree {group.degree}"]
    lines.extend(format_cycles(g) for g in group.generators)
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def mulclose(gens, degree, cap=2_000_000):
    """Breadth-first closure of a generating set under products.

    Each product x g is composed here by chasing images, a to g(x(a)), and
    checked by the public constructor; it never goes through
    ``Permutation.__mul__``, so the closure shares no code with the product
    kernel (``permdeg.perm.compose``) it is used to check.
    """
    ident = Permutation.identity(degree)
    seen = {ident}
    queue = [ident]
    qi = 0
    while qi < len(queue):
        x = queue[qi]
        qi += 1
        for g in gens:
            y = Permutation([g.images[a] for a in x.images])
            if y not in seen:
                if len(seen) >= cap:
                    raise RuntimeError("closure cap exceeded")
                seen.add(y)
                queue.append(y)
    return seen


def conjugation_bfs(gens, seed):
    """The conjugates of ``seed`` under the group ``gens`` generate, as image
    tuples in breadth-first order from ``seed``: each element x yields
    x.conjugate(g) for the generators g in order.

    It works on ``Permutation`` objects throughout and shares no code with
    ``permdeg.groups.conjugation_closure``, which it is used to check.
    """
    seen = {seed}
    queue = [seed]
    for x in queue:
        for g in gens:
            y = x.conjugate(g)
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return tuple(x.images for x in queue)


def build_chain_tuples(generators: Iterable[Permutation], degree: int,
                       base_prefix: Sequence[int] = (), *,
                       order: int | None = None) -> StabilizerChain:
    """``permdeg.groups.build_chain`` on image tuples alone: every product
    goes through ``perm.compose`` at every degree, where the library
    composes on byte strings up to 256 points.  Both must return chains that
    pickle to the same bytes.

    Deterministic Schreier-Sims construction.

    The base starts with ``base_prefix`` (kept even where redundant) and is
    extended with the smallest moved point whenever a strong generator fixes
    every current base point.  Residues of Schreier generators are sifted
    through the deeper levels and installed at every level whose base prefix
    they fix, so each level's generator list is exactly the strong generators
    fixing its prefix; an installation strictly enlarges the fundamental
    orbit at the first base point it moves, which bounds the work.

    The construction runs on image tuples.  While it runs, each level keeps
    the inverse of every transversal representative, built in the same
    breadth-first pass, so stripping never inverts a permutation; the
    finished chain keeps only the representatives, as image tuples.

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

    ident = tuple(range(degree))
    base: list[int] = []
    # per level: (generator images, inverse images) of its strong generators
    gen_lists: list[list[tuple[tuple[int, ...], tuple[int, ...]]]] = []
    transversals: list[dict[int, tuple[int, ...]]] = []
    inverses: list[dict[int, tuple[int, ...]]] = []
    strong: list[Permutation] = []

    def add_level(pt: int) -> None:
        base.append(pt)
        gen_lists.append([])
        transversals.append({pt: ident})
        inverses.append({pt: ident})

    for pt in base_prefix:
        if not 0 <= pt < degree:
            raise ValueError(f"base point {pt} outside 0..{degree - 1}")
        if pt not in base:
            add_level(pt)

    def rebuild_orbit(i: int) -> None:
        # rep(b) = rep(a) * s and rep(b)^-1 = s^-1 * rep(a)^-1 when b = a^s
        table = {base[i]: ident}
        inv = {base[i]: ident}
        queue = [base[i]]
        for a in queue:
            rep = table[a]
            rep_inv = inv[a]
            for s, s_inv in gen_lists[i]:
                b = s[a]
                if b not in table:
                    table[b] = compose(rep, s)
                    inv[b] = compose(s_inv, rep_inv)
                    queue.append(b)
        transversals[i] = table
        inverses[i] = inv

    def strip(g: tuple[int, ...], start: int) -> tuple[int, ...]:
        for j in range(start, len(base)):
            rep_inv = inverses[j].get(g[base[j]])
            if rep_inv is None:
                break
            g = compose(g, rep_inv)
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
        entry = (images, g.inverse().images)
        for j in range(k + 1):
            gen_lists[j].append(entry)
        strong.append(g)
        return k

    def first_residue(i: int) -> tuple[int, ...] | None:
        # the first Schreier generator rep(a) * s * rep(a^s)^-1 at level i
        # that does not strip to the identity through the deeper levels
        table = transversals[i]
        inv = inverses[i]
        for a in sorted(table):
            rep = table[a]
            for s, _ in gen_lists[i]:
                back = inv[s[a]]
                schreier = compose(compose(rep, s), back)
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
        i = install(Permutation._trusted(residue))
        for j in range(i + 1):
            rebuild_orbit(j)

    levels = [ChainLevel(base[i], transversals[i], tuple(sorted(transversals[i])))
              for i in range(len(base))]
    return StabilizerChain(degree, levels, tuple(strong))


def build_chain_eager(generators: Iterable[Permutation], degree: int,
                      base_prefix: Sequence[int] = (), *,
                      order: int | None = None) -> StabilizerChain:
    """``permdeg.groups.build_chain`` as it was before it deferred orbit
    rebuilds: every install rebuilds the transversals of levels 0..k, where
    k is the level the residue lands on, and every breadth-first pass runs
    to its end.  The library must return the same chain on every input:
    base, strong generators, and per level the same orbit and the same
    representatives in the same insertion order."""
    generators = tuple(generators)
    _check_degree(generators, degree)
    base_prefix = _check_points(base_prefix, degree)
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


def brute_minimal_degree(elements):
    return min(g.moved_count() for g in elements if not g.is_identity())


def transitive_minimal_degree(group):
    """The minimal degree of a transitive group, from point stabilizers alone.

    For k <= t, G is transitive on ordered k-tuples of distinct points, so an
    element fixing at least k points is conjugate into G_(b), the pointwise
    stabilizer of the ``()`` chain's first k base points b.  With m_k the
    least support of a nonidentity element of G_(b): if m_k <= n - k, every
    element moving at most n - k points has a conjugate in G_(b), and every
    other element moves more than n - k, so m = m_k (Wielandt, *Finite
    Permutation Groups*, 1964).  k runs down from t and stops at the first k
    that settles it; G_(b) is enumerated by ``mulclose``, so this shares no
    code with the backtrack search it checks.
    """
    t = group.transitivity_degree()
    if t < 1 or group.order <= 1:
        raise ValueError("needs a nontrivial transitive group")
    n = group.degree
    base = group.chain().base
    for k in range(min(t, len(base)), -1, -1):
        stabilizer = group.pointwise_stabilizer(base[:k])
        supports = [g.moved_count()
                    for g in mulclose(stabilizer.generators, n) if not g.is_identity()]
        if supports and min(supports) <= n - k:
            return min(supports)
    raise RuntimeError(f"{group.label}: no nonidentity element found")


def image_chase_commutator(u, v):
    """[u,v] computed point by point through the four factors."""
    ui = {a: b for a, b in enumerate(u.images)}
    vi = {a: b for a, b in enumerate(v.images)}
    ui_inv = {b: a for a, b in ui.items()}
    vi_inv = {b: a for a, b in vi.items()}
    return Permutation([vi_inv[ui_inv[vi[ui[a]]]] for a in range(u.degree)])


def tuple_orbit_transitivity(gens, degree):
    """Largest t with one orbit on ordered distinct t-tuples, by closure."""
    if degree == 0:
        return 0
    t = 0
    for length in range(1, degree + 1):
        start = tuple(range(length))
        seen = {start}
        queue = [start]
        qi = 0
        while qi < len(queue):
            tup = queue[qi]
            qi += 1
            for g in gens:
                image = tuple(g.images[a] for a in tup)
                if image not in seen:
                    seen.add(image)
                    queue.append(image)
        total = 1
        for i in range(length):
            total *= degree - i
        if len(seen) == total:
            t = length
        else:
            break
    return t


def all_tuples(degree, length):
    return list(permutations(range(degree), length))


# one group acting on two index sets: per generator, a pair of permutations
# of degrees left_degree and right_degree
ProductAction = namedtuple("ProductAction", "left_degree right_degree generator_pairs")


def distinct_pair_action(gens: Sequence[Permutation], degree: int):
    """The induced action on ordered distinct pairs; returns (pairs, images)."""
    pairs = [(a, b) for a in range(degree) for b in range(degree) if a != b]
    index = {pair: i for i, pair in enumerate(pairs)}
    # induced by bijections, so each image is a bijection of the pairs
    images = [Permutation._trusted(tuple(index[(g.images[a], g.images[b])] for (a, b) in pairs))
              for g in gens]
    return pairs, images


def invariant_relation_counts(action: ProductAction,
                              relation: Iterable[tuple[int, int]]) -> list[CountCheck]:
    """Row and column counts of an invariant relation are constant and balance.

    For a relation R between two transitive index sets, invariance under the
    simultaneous action makes every row count equal some M, every column
    count equal some M', and M |left| = M' |right| = |R|.
    """
    rel = set(relation)
    n1, n2 = action.left_degree, action.right_degree
    for gl, gr in action.generator_pairs:
        if gl.degree != n1 or gr.degree != n2:
            raise DegreeMismatchError("generator pair degrees do not match the action")
    lefts = [gl for gl, _ in action.generator_pairs]
    rights = [gr for _, gr in action.generator_pairs]
    for side, degree, perms in (("left", n1, lefts), ("right", n2, rights)):
        if len(PermutationGroup(perms, degree).orbit(0)) != degree:
            raise PreconditionError(f"action is not transitive on the {side} set")
    for (a, b) in rel:
        if not (0 <= a < n1 and 0 <= b < n2):
            raise ValueError(f"relation pair ({a}, {b}) out of range")
        for gl, gr in action.generator_pairs:
            if (gl.images[a], gr.images[b]) not in rel:
                raise PreconditionError("relation is not invariant under the product action")
    rows = [0] * n1
    cols = [0] * n2
    for (a, b) in rel:
        rows[a] += 1
        cols[b] += 1
    return [
        _eq("row-count-uniform", len(set(rows)), 1),
        _eq("column-count-uniform", len(set(cols)), 1),
        _eq("count-mass-balance", rows[0] * n1, cols[0] * n2),
    ]


def pair_relation_oracle(group):
    """``verify.relation_balance_checks`` through the general API: the
    relation "the point is the pair's first entry" between the points and
    the induced action on ordered distinct pairs."""
    pairs, images = distinct_pair_action(group.generators, group.degree)
    action = ProductAction(group.degree, len(pairs), tuple(zip(group.generators, images)))
    return invariant_relation_counts(action, {(pair[0], i) for i, pair in enumerate(pairs)})


PairOrbits = namedtuple("PairOrbits", "degree label size arrows fixed")


def pair_orbits(gens, u):
    """Label all n^2 ordered pairs with their orbit under the group the image
    tuples ``gens`` generate, breadth first, and tally u's arrows (a, a^u)
    and pairs of fixed points per orbit."""
    n = len(u)
    label = [-1] * (n * n)
    size = []
    for start in range(n * n):
        if label[start] >= 0:
            continue
        k = len(size)
        label[start] = k
        queue = [start]
        for pair in queue:
            a, c = divmod(pair, n)
            for g in gens:
                image = g[a] * n + g[c]
                if label[image] < 0:
                    label[image] = k
                    queue.append(image)
        size.append(len(queue))
    arrows = [0] * len(size)
    for a in range(n):
        arrows[label[a * n + u[a]]] += 1
    fixed = [0] * len(size)
    points = [a for a in range(n) if u[a] == a]
    for a in points:
        for c in points:
            fixed[label[a * n + c]] += 1
    return PairOrbits(n, label, size, arrows, fixed)


def clause_shares(plan, orbits, dset, gamma, second):
    """Each clause's share of E for one (gamma, second) draw, every share
    built afresh from the pair orbits of the stabilizer of delta itself;
    None where the clause does not apply."""
    degree, label, size, arrows, fixed = orbits
    row = gamma * degree

    def share(tally, b):
        k = label[row + b]
        return Fraction(tally[k], size[k])

    counters = (
        lambda: share(arrows, gamma),
        lambda: 1 - share(arrows, gamma),
        lambda: share(arrows, gamma) - share(fixed, second),
        lambda: sum(share(arrows, b) for b in dset),
        lambda: share(arrows, second),
    )
    # fixes-gamma-moves-second and gamma-to-second read a second point
    needs_second = (False, False, True, False, True)
    return [share_of() if formula is not None and (second is not None or not needs) else None
            for formula, needs, share_of in zip(plan, needs_second, counters)]


def count_identity_suite_by_configuration(group, samples, seed):
    """``verify.count_identity_suite`` by the direct route: the same seeded
    configurations and draws, but each configuration labels the pairs
    afresh under generators of the stabilizer of its own delta, and every
    draw reads its shares one by one."""
    rng = random.Random(seed)
    n = group.degree
    t = group.transitivity_degree()
    max_delta = min(2, t - 1, n - 2)
    if group.order <= 1 or max_delta < 1:
        return [], list(CLAUSES)
    per_config = 20
    config_count = (samples + per_config - 1) // per_config
    batches = []
    for index in range(config_count):
        u = group.random_element(rng)
        while u.is_identity():
            u = group.random_element(rng)
        pool = sorted(u.support())
        dsize = rng.randint(1, min(max_delta, len(pool)))
        delta = tuple(sorted(rng.sample(pool, dsize)))
        remaining = min(per_config, samples - index * per_config)
        rest = [a for a in range(n) if a not in delta]
        draws = []
        for _ in range(remaining):
            gamma = rng.choice(rest)
            others = [b for b in rest if b != gamma]
            second = rng.choice(others) if others else None
            draws.append((gamma, second))
        batches.append((u, delta, draws))
    totals = [[0, 0] for _ in CLAUSES]
    for u, delta, draws in batches:
        dset = frozenset(delta)
        _check_configuration(group, u, dset, draws)
        orbits = pair_orbits([g.images for g in group.pointwise_stabilizer(delta).generators],
                             u.images)
        plan = _clause_plan(n, u.moved_count(), len(dset), t)
        for gamma, second in draws:
            shares = clause_shares(plan, orbits, dset, gamma, second)
            for formula, share, tally in zip(plan, shares, totals):
                if share is not None:
                    tally[0] += 1
                    if share != formula:
                        tally[1] += 1
    checks = []
    inapplicable = []
    total_draws = sum(len(draws) for _, _, draws in batches)
    for clause, (applied, failed) in zip(CLAUSES, totals):
        if applied == 0:
            inapplicable.append(clause)
            continue
        checks.append(CountCheck(f"{clause} [{applied}/{total_draws} applicable]",
                                 "=", failed, Fraction(0), failed == 0))
    return _sorted_checks(checks), inapplicable


def commute(u, x, support):
    """Whether u and x commute, from image tuples (or closure elements) and
    supp(u).

    u x and x u agree everywhere once they agree on supp(u): x then maps
    supp(u) into, hence onto, itself, and so the fixed points of u onto
    themselves.  The scan stops at the first point where they differ.
    """
    return all(x[u[a]] == u[x[a]] for a in support)


def trace_tallies_by_element(theorem, ui, alpha, beta, orbit):
    """The tallies the ``double``, ``triple`` or ``quadruple`` trace reads
    off its orbit, by one loop over the members and, per member, over the
    points: the same tuple as ``verify._double_tallies`` (which takes no
    alpha), ``verify._triple_tallies`` or ``verify._quadruple_tallies``."""
    n = len(ui)
    support = [a for a in range(n) if ui[a] != a]
    m = len(support)
    if theorem == "double":
        fixing = commuting = thin = pair_total = 0
        movers = [0] * n     # per point: the fixers that move it
        for xi in orbit:
            if xi[beta] != beta:
                continue
            fixing += 1
            commuting += commute(ui, xi, support)
            overlap = 0
            for a in support:
                if xi[a] != a:
                    overlap += 1
                    movers[a] += 1
            thin += 3 * overlap < m
            pair_total += overlap
        return fixing, commuting, thin, pair_total, movers
    if theorem == "triple":
        u_inv = [0] * n
        for a, b in enumerate(ui):
            u_inv[b] = a
        misplaced = commuting = commutator_total = overlap_total = doubled_total = 0
        movers = [0] * n     # per point: the conjugates that move it
        for xi in orbit:
            misplaced += xi[alpha] != beta
            commutator_size = sum(1 for a in range(n) if xi[ui[a]] != ui[xi[a]])
            commuting += commutator_size == 0
            commutator_total += commutator_size
            for a in support:
                if xi[a] != a:
                    overlap_total += 1
                    movers[a] += 1
                    b = u_inv[a]
                    if xi[b] != b:
                        doubled_total += 1
        return misplaced, commuting, commutator_total, overlap_total, doubled_total, movers
    structure_violations = commuting = commutator_total = 0
    overlap_total = carried_total = arrows_total = containment_violations = 0
    for xi in orbit:
        structure_violations += xi[alpha] != alpha or xi[beta] == beta
        commutator_size = 0
        for a in range(n):
            b, c = xi[a], ui[a]
            # split: a is an overlap point, a carried fixed point or an arrow
            if c == a:
                split = b != a and ui[b] != b
                carried_total += split
            elif b != a:
                split = True
                overlap_total += 1
            else:
                split = xi[c] != c
                arrows_total += split
            if xi[c] != ui[b]:      # a^(u x) != a^(x u): [u,x] moves a
                commutator_size += 1
                containment_violations += not split
        commuting += commutator_size == 0
        commutator_total += commutator_size
    return (structure_violations, commuting, commutator_total, overlap_total, carried_total,
            arrows_total, containment_violations)


def mobius_group(q):
    """PGL(2, q) for a prime q, on the projective line 0..q-1 with q
    standing for infinity: generated by x -> x + 1, x -> r x for a
    primitive root r, and x -> 1/x."""
    root = next(r for r in range(2, q) if len({pow(r, k, q) for k in range(1, q)}) == q - 1)
    shift = [(x + 1) % q for x in range(q)] + [q]
    scale = [root * x % q for x in range(q)] + [q]
    flip = [q] + [pow(x, -1, q) for x in range(1, q)] + [0]
    return PermutationGroup([Permutation(g) for g in (shift, scale, flip)], q + 1,
                            f"PGL2_{q}")


def commutator_support(u, x):
    """supp([u,x]) in ascending order, from image tuples (x may be an
    element of a closure, read by index the same way).

    [u,x] = (u x)(x u)^-1 fixes a exactly when a^(u x) = x[u[a]] and
    a^(x u) = u[x[a]] agree, so the operands decide the support with no
    product and no inverse.
    """
    return [a for a in range(len(u)) if x[u[a]] != u[x[a]]]


def flag_int(points):
    """The flag int of a set of points: byte a is 1 where a is in it."""
    return sum(1 << 8 * a for a in points)


def cancellation_pools(u, v):
    """The points of supp(u) fixed by [u,v] and those moved by v u v^-1,
    each in ascending order, from two image tuples."""
    support = [a for a in range(len(u)) if u[a] != a]
    comm = set(commutator_support(u, v))
    # v u v^-1 moves a exactly when u moves a^v
    return [a for a in support if a not in comm], [a for a in support if u[v[a]] != v[a]]


def law_facts(u, v):
    """``verify._law_facts`` by one Python pass per predicate over the
    points of two image tuples, with sets for D and its forward images."""
    support = [a for a in range(len(u)) if u[a] != a]
    comm = commutator_support(u, v)
    delta = {a for a in support if v[a] != a}
    outside = [a for a in comm if a not in delta]
    forward = delta.union({u[d] for d in delta}, {v[d] for d in delta})
    size_bound = (3 * len(delta) - sum(1 for d in delta if u[d] in delta)
                  - sum(1 for d in delta if v[d] in delta))
    rows = [
        (sum(1 for a in outside if u[a] not in delta and v[a] not in delta), 0),
        (len(comm), size_bound),
        (sum(1 for a in outside
             if not (u[a] == a and v[a] in delta) and not (v[a] == a and u[a] in delta)), 0),
        (sum(1 for a in outside if a not in forward), 0),
        (len(comm), 2 * len(support)),
    ]
    fixed_pool, shifted_pool = cancellation_pools(u, v)
    return rows, flag_int(fixed_pool), flag_int(shifted_pool)


def random_images_by_choice(levels, degree, rng):
    """A random element of the group the chain ``levels`` describe, as an
    image tuple: one ``rng.choice`` of a transversal point per level, each
    representative acting before the product so far."""
    g = tuple(range(degree))
    for level in levels:
        g = tuple(g[b] for b in level.transversal[rng.choice(level.orbit)])
    return g


def commutator_law_suite_by_tuples(group, samples, seed):
    """``verify.commutator_law_suite`` on image tuples: the same seeded
    draws, made by ``rng.choice`` over ``group.chain().levels`` and by
    ``rng.sample`` on the pools' points, with each pair's rows from
    ``law_facts``.  It shares no draw code with the suite."""
    rng = random.Random(seed)
    levels = group.chain().levels
    failures = [0] * len(_LAWS)
    for _ in range(samples):
        u = random_images_by_choice(levels, group.degree, rng)
        v = random_images_by_choice(levels, group.degree, rng)
        rows = law_facts(u, v)[0]
        fixed_pool, shifted_pool = cancellation_pools(u, v)
        fixed = len(rng.sample(fixed_pool, rng.randint(0, len(fixed_pool))))
        shifted = len(rng.sample(shifted_pool, rng.randint(0, len(shifted_pool))))
        observed, limit = rows[4]
        rows[4] = observed, limit - fixed - shifted
        for i, (observed, limit) in enumerate(rows):
            failures[i] += observed > limit
    return _sorted_checks([CountCheck(f"{label} [{samples} samples]", "=", failed, Fraction(0),
                                      failed == 0, informational)
                           for (label, informational), failed in zip(_LAWS, failures)])
