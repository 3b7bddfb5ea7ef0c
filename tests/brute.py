"""Independent brute-force oracles used to pin expected values in tests.

Everything here recomputes results from first principles (closures, full
enumerations, image chasing) so the library's chain-based answers are checked
against a second route.
"""

from itertools import permutations

from permdeg.perm import Permutation


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
