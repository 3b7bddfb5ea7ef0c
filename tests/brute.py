"""Independent brute-force oracles used to pin expected values in tests.

Everything here recomputes results from first principles (closures, full
enumerations, image chasing) so the library's chain-based answers are checked
against a second route.
"""

import random
from collections import namedtuple
from fractions import Fraction
from itertools import permutations

from permdeg.perm import Permutation
from permdeg.verify import (CLAUSES, CountCheck, _check_configuration, _clause_plan,
                            _sorted_checks)


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


def brute_minimal_degree(elements):
    return min(g.moved_count() for g in elements if not g.is_identity())


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
    return [share_of() if applies and (second is not None or not needs_second) else None
            for (_, applies, needs_second, _), share_of in zip(plan, counters)]


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
        orbits = pair_orbits([g.images for g in group.stabilizer_generators(delta)],
                             u.images)
        plan = _clause_plan(n, u.moved_count(), len(dset), t, 1)
        for gamma, second in draws:
            shares = clause_shares(plan, orbits, dset, gamma, second)
            for (_, _, _, formula), share, tally in zip(plan, shares, totals):
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
