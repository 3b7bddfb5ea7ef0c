"""Exact verification of commutator-support laws and conjugation-orbit counts.

Every comparison is exact: integers or rationals against closed-form
rational values, set containments by membership.  In
``conjugate_orbit_count_checks`` and the traces, a check with relation "="
passes only when the count taken over the enumerated orbit equals the
formula value exactly, which in particular forces that value to be an
integer; the oracle counts each clause by its definition, the members x
of E whose images x[gamma] (and x[second]) satisfy it.

The trace builders replay the counting arguments that bound the minimal
degree m of a t-transitive group of degree n: the classical 2t-2 bound, and
the three bounds for doubly, triply and quadruply transitive groups that
close with n <= 4m + 6/(m-3), n <= 3m + 4/(m-3) and n - 3 <= 2m.  The three
counting traces tally their orbit E by column (``groups._Columns``): each
per-point predicate over E is one int with a lane per member, and each
tally the ``int.bit_count`` of a few ANDs, ORs and XORs of those ints.
They read E, their witness and their points carried into the frame of the
``()`` chain's base points (``groups._base_orbit``), where every tally is
the same and each orbit is closed once per group and kept; the report
names the witnesses in the group's own points.  The public
``conjugation_closure`` and the oracle ``conjugate_orbit_count_checks``
keep nothing.

A laws sample draws u and v as chain operands (byte strings up to 256
points, image tuples above) and reads every law off a few per-point
flag ints: supp(u), supp(v), supp([u,v]), D = supp(u) & supp(v), the
points u and v carry into D, and the forward images of D, each one int
with a byte per point, and each fact the ``int.bit_count`` of their ANDs
and ORs; the two cancellation pools are two more such ints, of which a
sample reads only the ``int.bit_count``.  A counts configuration (u,
delta) is checked once and never enumerates its orbit E.  One
breadth-first pass per k = |delta| in a suite call labels the ordered
pairs of points with their orbits under G_(b), the stabilizer of the
``()`` chain's first k base points b.  Each configuration is carried
onto b by the carry the traces use (``groups._to_base``): with g the
walk from b to delta, c = g^-1 takes delta to b, u becomes the chain
operand of g u c, and every point of delta and of a (gamma, second) draw
its image under c.  Each clause of a draw is then an exact ratio read off
one or two pair orbits, judged once per distinct orbit key.
"""

from __future__ import annotations

import random
from collections import namedtuple
from fractions import Fraction
from functools import reduce
from operator import or_
from typing import Iterable, Sequence

from .groups import (DEFAULT_CAP, PermutationGroup, _base_orbit, _bulk_words, _Columns, _flags,
                     _inverse, _random_product, _sample_size, _to_base, _width,
                     conjugation_closure)
from .mindeg import minimal_degree
from .perm import Permutation, _check_degree, _check_points, format_cycles, prime_order_witness


class PreconditionError(ValueError):
    """An input set violates the hypothesis of the check it was passed to."""


# relation is "=", "<=" or ">="; observed is an int and formula a
# Fraction; an informational check never fails a suite
CountCheck = namedtuple("CountCheck",
                        "label relation observed formula passed informational",
                        defaults=(False,))


def _eq(label: str, observed: int, formula, informational: bool = False) -> CountCheck:
    value = Fraction(formula)
    return CountCheck(label, "=", observed, value, Fraction(observed) == value, informational)


def _le(label: str, observed: int, bound) -> CountCheck:
    value = Fraction(bound)
    return CountCheck(label, "<=", observed, value, Fraction(observed) <= value)


def _ge(label: str, observed: int, bound) -> CountCheck:
    value = Fraction(bound)
    return CountCheck(label, ">=", observed, value, Fraction(observed) >= value)


# ---------------------------------------------------------------------------
# commutator support laws


def _commutator_flags(u: Sequence[int], v: Sequence[int]) -> int:
    """supp([u,v]) as one int with a byte per point a, 1 where [u,v] moves
    a, for two operands of one width (see ``groups._width``).

    [u,v] = (u v)(v u)^-1 fixes a exactly when a^(u v) = v[u[a]] and
    a^(v u) = u[v[a]] agree, so two gathers decide the support with no
    inverse.
    """
    mul, _, _, tail = _width(len(u))
    return int.from_bytes(_flags(mul(u, v + tail), mul(v, u + tail)), "little")


# (label, informational) of each law, in the order of the rows _law_facts
# returns; the last is the cancellation bound.  The forward-images
# containment belongs to the opposite composition order, so it is reported
# but never asserted
_LAWS = (
    ("commutator-support-containment", False),
    ("commutator-support-size-bound", False),
    ("commutator-support-fixed-crossings", False),
    ("commutator-support-containment-forward-images (informational)", True),
    ("commutator-support-cancellation-bound", False),
)


def _law_facts(u: Sequence[int], v: Sequence[int]) -> tuple[list[tuple[int, int]], int, int]:
    """(rows, fixed_pool, shifted_pool) for one pair of operands of one
    width (see ``groups._width``), each fact computed once.  rows holds an
    (observed, limit) pair per entry of _LAWS, and a law holds exactly when
    observed <= limit; the cancellation row is taken at F = S = {}, so its
    limit is 2|supp(u)|, less |F| + |S| for the caller's sets.  The pools
    are the points F and S are taken from: supp(u) fixed by [u,v], and
    supp(u) moved by v u v^-1.

    With D = supp(u) & supp(v), supp([u,v]) is checked against D with the
    points u or v carries into D, against D with the fixed points of one
    factor carried into D by the other, and against D with its forward
    images D^u and D^v.  Each per-point predicate, the two pools among
    them, is one int with a byte per point, 1 where it holds, and each
    fact the ``int.bit_count`` of a few ANDs and ORs of them, with no
    Python loop over the points.  A predicate read at the images of an
    operand x is a gather: x composed with the predicate's bytes as a
    table, so D at x^-1 marks the forward image D^x."""
    n = len(u)
    mul, wrap, ident, tail = _width(n)
    moved_u = int.from_bytes(_flags(u, ident), "little")
    moved_v = int.from_bytes(_flags(v, ident), "little")
    comm = _commutator_flags(u, v)
    delta = moved_u & moved_v
    table = wrap(delta.to_bytes(n, "little")) + tail
    into_u = int.from_bytes(mul(u, table), "little")
    into_v = int.from_bytes(mul(v, table), "little")
    forward = (delta | int.from_bytes(mul(_inverse(u), table), "little")
               | int.from_bytes(mul(_inverse(v), table), "little"))
    # v u v^-1 moves a exactly when u moves a^v
    moved_at_v = mul(v, wrap(moved_u.to_bytes(n, "little")) + tail)
    outside = comm & ~delta
    size = comm.bit_count()
    return ([((outside & ~(into_u | into_v)).bit_count(), 0),
             (size, 3 * delta.bit_count() - (delta & into_u).bit_count()
              - (delta & into_v).bit_count()),
             ((outside & ~(into_v & ~moved_u | into_u & ~moved_v)).bit_count(), 0),
             ((outside & ~forward).bit_count(), 0),
             (size, 2 * moved_u.bit_count())],
            moved_u & ~comm, moved_u & int.from_bytes(moved_at_v, "little"))


def commutator_cancellation_bound(u: Permutation, v: Permutation,
                                  fixed_overlap: Iterable[int],
                                  shifted_overlap: Iterable[int]) -> CountCheck:
    """|supp([u,v])| <= 2|supp(u)| - |F| - |S|.

    F must consist of points of supp(u) fixed by [u,v]; S of points of
    supp(u) also moved by v u v^-1.  Violated hypotheses raise
    PreconditionError rather than producing a failed check.
    """
    _check_degree((u,), v.degree)
    fixed_overlap = frozenset(_check_points(fixed_overlap, v.degree))
    shifted_overlap = frozenset(_check_points(shifted_overlap, v.degree))
    wrap = _width(v.degree)[1]
    rows, fixed_pool, shifted_pool = _law_facts(wrap(u.images), wrap(v.images))
    # the flag byte of point a is bit 8a of a pool
    bad = sorted(a for a in fixed_overlap if not fixed_pool >> 8 * a & 1)
    if bad:
        raise PreconditionError(f"points {bad} are not commutator-fixed points of supp(u)")
    bad = sorted(a for a in shifted_overlap if not shifted_pool >> 8 * a & 1)
    if bad:
        raise PreconditionError(f"points {bad} are not shared support of u and its v-conjugate")
    observed, limit = rows[4]
    return _le(_LAWS[4][0], observed, limit - len(fixed_overlap) - len(shifted_overlap))


# ---------------------------------------------------------------------------
# conjugation-orbit counting identities


CLAUSES = ("fixes-gamma", "moves-gamma", "fixes-gamma-moves-second",
           "gamma-into-delta", "gamma-to-second")


def conjugate_orbit_count_checks(group: PermutationGroup, u: Permutation,
                                 delta: Iterable[int], gamma: int,
                                 second: int | None = None, *,
                                 orbit: Sequence[Sequence[int]] | None = None,
                                 transitivity: int | None = None,
                                 cap: int = DEFAULT_CAP) -> list[CountCheck | None]:
    """Exact counts over E = {g^-1 u g : g fixing delta pointwise}.

    Each clause (see ``_clause_plan``) counts the x in E whose images
    x[gamma], and x[second] where it reads a second point, satisfy its
    definition, against |E| times its share.  Returns one check per clause
    in ``CLAUSES`` order, and None, never a failure, for an inapplicable
    clause, including those that need a second point when ``second`` is
    None.  This is the enumeration route: it builds E, bounded by ``cap``.
    A caller that already holds E passes it as ``orbit``, as
    ``conjugation_closure`` returns it: byte strings up to 256 points,
    image tuples above, read by index either way.
    ``count_identity_suite`` tests the same clauses without building E.
    """
    dset = frozenset(delta)
    (gamma, second), = _check_configuration(group, u, dset, [(gamma, second)])
    t = group.transitivity_degree() if transitivity is None else transitivity
    if orbit is None:
        orbit = conjugation_closure(group.pointwise_stabilizer(dset).generators, u, cap)
    shares = _clause_plan(group.degree, u.moved_count(), len(dset), t)
    if second is None:
        # the two clauses that read second^x or compare with second
        shares[2] = shares[4] = None
    holds = (
        lambda x: x[gamma] == gamma,
        lambda x: x[gamma] != gamma,
        lambda x: x[gamma] == gamma and x[second] != second,
        lambda x: x[gamma] in dset,
        lambda x: x[gamma] == second,
    )
    return [None if share is None else _eq(name, sum(map(clause, orbit)), len(orbit) * share)
            for name, share, clause in zip(CLAUSES, shares, holds)]


def _check_configuration(group: PermutationGroup, u: Permutation, dset: frozenset[int],
                         draws: Sequence[tuple[int, int | None]]) -> list[tuple[int, int | None]]:
    """The draws, their points as plain ints; raise unless delta consists
    of moved points of u, every (gamma, second) draw lies outside delta and
    inside the point range, and u is a member of the group.  u and delta
    are checked once for all the draws."""
    if not dset <= u.support():
        raise PreconditionError("delta must consist of moved points of u")
    ints = iter(_check_points([pt for draw in draws for pt in draw if pt is not None],
                              group.degree))
    draws = [(next(ints), second if second is None else next(ints)) for _, second in draws]
    for gamma, second in draws:
        if gamma in dset:
            raise ValueError("gamma must lie outside delta")
        if second is not None and (second in dset or second == gamma):
            raise ValueError("second must be distinct from gamma and lie outside delta")
    if not group.contains(u):
        raise PreconditionError("u is not a member of the group")
    return draws


def _clause_plan(n: int, m: int, d: int, t: int) -> list[Fraction | None]:
    """Each clause's share of E for one (u, delta) configuration, in
    ``CLAUSES`` order; None where the clause does not apply.

    With n the degree, m = |supp(u)|, d = |delta| and t the transitivity
    degree of the ambient group, a clause states that the x in E meeting
    its definition number |E| times its share:

      clause                   x in E with        applies when    share
      fixes-gamma              gamma^x = gamma    d <= t-1        (n-m) / (n-d)
      moves-gamma              gamma^x != gamma   d <= t-1        (m-d) / (n-d)
      fixes-gamma-moves-second gamma^x = gamma,   d <= t-2        (n-m)(m-d) / ((n-d)(n-d-1))
                               second^x != second
      gamma-into-delta         gamma^x in delta   d == 1          1 / (n-1)
      gamma-to-second          gamma^x = second   d == 1, t >= 3  (m-2) / ((n-1)(n-2))
    """

    def share(applies, numerator, denominator):
        return Fraction(numerator, denominator) if applies else None

    return [
        share(d <= t - 1, n - m, n - d),
        share(d <= t - 1, m - d, n - d),
        share(d <= t - 2, (n - m) * (m - d), (n - d) * (n - d - 1)),
        share(d == 1, 1, n - 1),
        share(d == 1 and t >= 3, m - 2, (n - 1) * (n - 2)),
    ]


# the orbits O of a group H on ordered pairs of points, with what one
# element u puts into each: the degree n, the orbit index of the pair (a, c)
# at a * n + c, and per orbit |O|, #{a : (a, a^u) in O} and
# #{(a, c) in O : u fixes a and c}
_PairOrbits = namedtuple("_PairOrbits", "degree label size arrows fixed")


def _pair_labels(gens: Sequence[tuple[int, ...]], n: int) -> tuple[list[int], list[int]]:
    """Label all n^2 ordered pairs with their orbit under the group the image
    tuples ``gens`` generate, breadth first: the orbit index of (a, c) at
    a * n + c, and the orbit sizes."""
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
    return label, size


def _pair_tallies(label: list[int], size: list[int], u: tuple[int, ...]) -> _PairOrbits:
    """Tally u's arrows and pairs of fixed points per labelled orbit, in
    O(n + (n - m)^2) for m = |supp(u)|."""
    n = len(u)
    arrows = [0] * len(size)
    for a in range(n):
        arrows[label[a * n + u[a]]] += 1
    fixed = [0] * len(size)
    points = [a for a in range(n) if u[a] == a]
    for a in points:
        row = a * n
        for c in points:
            fixed[label[row + c]] += 1
    return _PairOrbits(n, label, size, arrows, fixed)


def _clause_shares(plan: list[Fraction | None], orbits: _PairOrbits, dset: Iterable[int],
                   gamma: int, second: int) -> list[Fraction | None]:
    """Each clause's count over E divided by |E|, for one (gamma, second)
    draw, read off the pair orbits of H; None where ``plan`` has none.

    x = u^h maps gamma to b exactly when (gamma, b)^(h^-1) is an arrow
    (a, a^u) of u, and each pair of the orbit O of (gamma, b) is reached by
    |H|/|O| elements h, while each x in E comes from |H|/|E| of them; so
    #{x in E : gamma^x = b} / |E| is arrows(O) / |O|, and likewise the
    share of E fixing gamma and second is fixed(O) / |O| for the orbit O of
    (gamma, second).
    """
    degree, label, size, arrows, fixed = orbits
    row = gamma * degree

    def share(tally: list[int], b: int) -> Fraction:
        k = label[row + b]
        return Fraction(tally[k], size[k])

    stays = share(arrows, gamma)
    counters = (
        lambda: stays,
        lambda: 1 - stays,
        lambda: stays - share(fixed, second),
        lambda: sum(share(arrows, b) for b in dset),
        lambda: share(arrows, second),
    )
    return [None if formula is None else share_of()
            for formula, share_of in zip(plan, counters)]


def _draw_tallies(plan: list[Fraction | None], orbits: _PairOrbits, dset: Sequence[int],
                  draws: Iterable[tuple[int, int]], totals: list[list[int]]) -> None:
    """Add to ``totals``, per clause, [applied, failed] over the (gamma,
    second) draws of one configuration.

    A draw's shares depend on it only through its orbit key, the orbits of
    (gamma, gamma) and (gamma, second): the orbit of (gamma, d) for d in
    delta is the orbit of gamma read at d, because H fixes d.  So each
    clause is judged once per distinct key and counted once per draw.
    """
    degree, label = orbits.degree, orbits.label
    keyed: dict[tuple[int, int], list] = {}
    for gamma, second in draws:
        row = gamma * degree
        key = (label[row + gamma], label[row + second])
        keyed.setdefault(key, [gamma, second, 0])[2] += 1
    for gamma, second, count in keyed.values():
        shares = _clause_shares(plan, orbits, dset, gamma, second)
        for formula, share, total in zip(plan, shares, totals):
            if formula is not None:
                total[0] += count
                total[1] += count * (share != formula)


# ---------------------------------------------------------------------------
# bound traces


class TraceReport:
    """The result of every trace builder.  An inapplicable trace has no
    checks.  Only the jordan trace can be degenerate: when t is a multiple
    of the witness's prime order p (or when the bound it replays is false),
    ``degenerate`` names the construction step that cannot exist.  A step
    the argument guarantees raises RuntimeError if it fails."""

    __slots__ = ("name", "group_label", "n", "t", "m", "applicable", "degenerate",
                 "witnesses", "sizes", "derived", "checks", "conclusion_holds")

    def __init__(self, name: str, group_label: str, n: int, t: int):
        self.name = name
        self.group_label = group_label
        self.n = n
        self.t = t
        self.m = None
        self.applicable = False
        self.degenerate = None
        # fresh containers per report: the builders fill them in place
        self.witnesses = {}
        self.sizes = {}
        self.derived = {}
        self.checks = []
        self.conclusion_holds = None


def all_pass(checks: Iterable[CountCheck]) -> bool:
    """Whether every non-informational check passed."""
    return all(c.passed for c in checks if not c.informational)


def _trace_witness(group: PermutationGroup, rng=None) -> Permutation:
    """Deterministic minimal-support witness reduced to prime order; with an
    rng, additionally conjugated by a random group element (same support size)."""
    result = minimal_degree(group)
    u = prime_order_witness(result.witness)
    if u.moved_count() != result.m:
        raise RuntimeError(f"{group.label}: prime-order witness moves "
                           f"{u.moved_count()} points, expected {result.m}")
    if rng is not None:
        u = u.conjugate(group.random_element(rng))
    return u


def _pick(rng, points: Sequence[int]) -> int:
    """The first of ``points``, or with an rng a random one."""
    return points[0] if rng is None else rng.choice(points)


def _counting_setup(name: str, group: PermutationGroup, rng, min_t: int,
                    avoid_alternating: bool = False):
    """(report, u, support, alpha) for a counting trace: the report applies
    to a nontrivial, at least ``min_t``-transitive group (avoiding the
    alternating group if asked) and then names the witness u; support is
    supp(u) ascending and alpha a point of it.  u and alpha are None when
    the trace does not apply.

    min_t >= 2 makes the group primitive, and a primitive group with a
    transposition or a 3-cycle contains the alternating group (Jordan), so
    m <= 3 where the group avoids it is a fault and raises RuntimeError.
    """
    t = group.transitivity_degree()
    report = TraceReport(name, group.label, group.degree, t)
    if (group.order <= 1 or t < min_t
            or (avoid_alternating and group.contains_alternating())):
        return report, None, [], None
    report.applicable = True
    u = _trace_witness(group, rng)
    report.m = u.moved_count()
    if report.m <= 3 and not group.contains_alternating():
        raise RuntimeError(f"{group.label}: the witness moves {report.m} points, but the "
                           "group reportedly avoids the alternating group")
    report.witnesses["u"] = format_cycles(u)
    support = sorted(u.support())
    return report, u, support, _pick(rng, support)


def _sorted_checks(checks: list[CountCheck]) -> list[CountCheck]:
    return sorted(checks, key=lambda c: c.label)


def _relocated_orbit(report: TraceReport, group: PermutationGroup, u: Permutation,
                     pair: tuple[int, int], targets: tuple[int, int], rng, cap: int):
    """Carry u back along an element h that maps ``pair`` to ``targets`` and
    close the result under the pointwise stabilizer H of the pair.

    v = u^(h^-1) fixes pair[i] exactly when u fixes targets[i].  Records v,
    h and the pair as alpha and beta in the report's witnesses and returns
    (E, u', pair'): E the conjugates of v under H, with u and the pair
    carried into its frame, as ``groups._base_orbit`` returns them.
    Both traces that call it need a doubly transitive group, so h exists
    for any two pairs of distinct points.  Building E builds no chain based
    on the pair and reads no rng.  With an rng, h is first multiplied on
    the left by a random element of H, which moves v within E; it is drawn
    from ``pointwise_stabilizer(pair)``, whose rebased chain fixes the
    element each seeded draw picks.
    """
    h = group.transporter(pair, targets)
    if h is None:
        raise RuntimeError(f"{group.label}: no element maps {pair} to {targets}")
    if rng is not None:
        h = group.pointwise_stabilizer(pair).random_element(rng) * h
    v = u.conjugate(h.inverse())
    report.witnesses.update(v=format_cycles(v), h=format_cycles(h), alpha=str(pair[0] + 1),
                            beta=str(pair[1] + 1))
    return _base_orbit(group, pair, 2, v, u, cap)


def _conclude(report: TraceReport, checks: list[CountCheck],
              conclusion: list[CountCheck]) -> None:
    """Append a trace's conclusion to its checks; it holds when all of it passed."""
    checks.extend(conclusion)
    report.conclusion_holds = all(c.passed for c in conclusion)


def _closing_bound(group: PermutationGroup, report: TraceReport, checks: list[CountCheck],
                   k: int, slack: int, label: str) -> None:
    """The conclusion n <= k m + slack/(m - 3) of a trace, and k m >= n once
    n reaches the threshold from which the first implies the second; only
    for groups avoiding the alternating group.  An n above k m meets the
    first only where m - 3 <= slack, at most k m + slack // (m - 3), so the
    threshold is one past the largest such n."""
    alt = group.contains_alternating()
    report.derived["contains_alternating"] = alt
    if alt:
        return
    # m > 3 here: _counting_setup raises otherwise
    n, m = report.n, report.m
    conclusion = [_le("degree-bound", n, k * m + Fraction(slack, m - 3))]
    if n > max(k * j + slack // (j - 3) for j in range(4, slack + 4)):
        conclusion.append(_ge(label, k * m, n))
    _conclude(report, checks, conclusion)


def jordan_bound_trace(group: PermutationGroup, *, rng=None) -> TraceReport:
    """Replay the commutator construction behind the bound m >= 2t - 2.

    The witness u is reduced to prime order p and t - 1 = Np + r.  A set of
    N whole p-cycles of u is pinned pointwise; a transporter v then either
    relocates a moved point onto a fixed point (r = 0) or shifts it one step
    along its own cycle while the previous r cycle points stay pinned
    (r != 0).  Either way [u,v] is a nonidentity group element whose support
    the cancellation bound caps at 2m - 2t + 2, forcing m >= 2t - 2.

    The trace is flagged degenerate, and only the numeric bound is checked,
    when the shifted image is itself pinned, which happens exactly when t is
    a multiple of p, or when u has at most N cycles, which happens only if
    the bound is false.  Otherwise t-transitivity guarantees v and the
    cancellation hypotheses, so their failure raises RuntimeError.
    ``derived`` holds p, N, r and the case (None until reached), ``sizes``
    the pinned sets and ``witnesses`` u and v.
    """
    n = group.degree
    t = group.transitivity_degree()
    report = TraceReport("jordan", group.label, n, t)
    report.sizes = {"pinned": 0, "pinned_extended": 0}
    report.derived = dict.fromkeys(("prime", "pinned_cycles", "remainder", "case"))
    if group.order <= 1 or t < 2:
        return report
    report.m = minimal_degree(group).m
    if report.m <= 3:
        return report
    report.applicable = True
    u = _trace_witness(group, rng)
    m = u.moved_count()
    p = u.order()
    blocks, r = divmod(t - 1, p)
    report.witnesses["u"] = format_cycles(u)
    report.derived.update(prime=p, pinned_cycles=blocks, remainder=r)
    checks = [_ge("witness-support-exceeds-transitivity", m, t + 1)]

    def finish(reason: str | None = None) -> TraceReport:
        report.degenerate = reason
        _conclude(report, checks, [_ge("jordan-bound", m, 2 * t - 2)])
        report.checks = _sorted_checks(checks)
        return report

    # every cycle has length p, so u has m/p cycles: at most N only if m < t
    cycles = u.cycles()
    if len(cycles) <= blocks:
        return finish("witness cycle structure cannot supply the pinned cycles")
    phi = frozenset(a for cyc in cycles[:blocks] for a in cyc)
    report.sizes["pinned"] = len(phi)
    checks.append(_eq("pinned-size", len(phi), t - 1 - r))
    support = sorted(u.support())
    alpha = _pick(rng, [a for a in support if a not in phi])

    if r == 0:
        # t >= 2 and n >= 3: G_a is nontrivial, so the witness fixes a point
        report.derived["case"] = 1
        target = _pick(rng, sorted(u.fixed()))
        pinned = fixed_overlap = shifted_overlap = phi
    else:
        # the r < p points walked back lie on alpha's own cycle, outside phi
        report.derived["case"] = 2
        back = [(u ** -k).images[alpha] for k in range(1, r + 1)]
        pinned = phi.union(back)
        report.sizes["pinned_extended"] = len(pinned)
        checks.append(_eq("pinned-extended-size", len(pinned), t - 1))
        target = u.images[alpha]
        if target in pinned:
            return finish("the shifted image is itself pinned, so no relocating "
                          "element can exist")
        fixed_overlap = pinned - {back[0]}
        shifted_overlap = pinned | {alpha}
    # at most t distinct points per side, so t-transitivity supplies v
    src = (*sorted(pinned), alpha)
    dst = (*src[:-1], target)
    v = group.transporter(src, dst)
    if v is None:
        raise RuntimeError(f"{group.label}: no element maps {src} to {dst}")
    report.witnesses["v"] = format_cycles(v)

    c = u.commutator(v)
    checks.append(_ge("commutator-nontrivial", c.moved_count(), 1))
    checks.append(_eq("commutator-in-group", 0 if group.contains(c) else 1, 0))
    try:
        checks.append(commutator_cancellation_bound(u, v, fixed_overlap, shifted_overlap))
    except PreconditionError as exc:
        # v fixes the pinned points and maps alpha to target: the hypotheses
        raise RuntimeError(f"{group.label}: cancellation hypotheses failed: {exc}") from exc
    checks.append(_ge("commutator-support-at-least-minimal", c.moved_count(), m))
    return finish()


def _columns(ui: Sequence[int], members: Sequence[int]):
    """(columns, support, moved, movers, commutators, commuting) of
    ``members``, a closure's orbit or part of it joined into one flat
    operand (``groups._flat``), for the witness u with image tuple ``ui``:
    their ``_Columns``; supp(u) ascending; per point a, the lanes of the x
    that move a and how many there are (both 0 at the fixed points of u);
    per point, the lanes where [u,x] moves it; and how many x commute with
    u."""
    columns = _Columns(members, len(ui))
    moved = [columns.moves(a) if c != a else 0 for a, c in enumerate(ui)]
    commutators = columns.commutator_moves(ui)
    return (columns, [a for a, c in enumerate(ui) if c != a], moved,
            [lanes.bit_count() for lanes in moved], commutators,
            columns.size - reduce(or_, commutators, 0).bit_count())


def _double_tallies(ui: Sequence[int], fixers: Sequence[int]):
    """(fixing, commuting, thin, pair_total, movers) over ``fixers``, the
    members x of E that fix beta = alpha^u joined into one flat operand,
    for the witness with image tuple ``ui``: how many there are, commute
    with u, and move fewer than m/3 points of supp(u), their overlaps with
    supp(u) summed, and per point of supp(u) how many move it (0 at the
    fixed points of u)."""
    fixers, support, moved, movers, _, commuting = _columns(ui, fixers)
    # each fixer fixes beta, a point of supp(u), so its overlap is at most n - 1
    thin = fixers.below(sum(moved), -(-len(support) // 3)).bit_count()
    return fixers.size, commuting, thin, sum(movers), movers


def _triple_tallies(ui: Sequence[int], alpha: int, beta: int, orbit: Sequence[int]):
    """(misplaced, commuting, commutator_total, overlap_total, doubled_total,
    movers) over the members x of ``orbit``, joined into one flat operand:
    the x that do not map alpha to beta, the x that commute with u,
    |supp([u,x])| summed, |supp(u) & supp(x)| summed, the points a of those
    overlaps whose preimage under u x also moves, and per point of supp(u)
    the x that move it (0 at the fixed points of u)."""
    members, _, moved, movers, commutators, commuting = _columns(ui, orbit)
    return (members.size - members.maps_into(alpha, (beta,)).bit_count(),
            commuting,
            sum(lanes.bit_count() for lanes in commutators),
            sum(movers),
            # each doubled point a counted at its preimage c, which u permutes
            # within supp(u): x moves c and c^u = a
            sum((lanes & moved[a]).bit_count() for lanes, a in zip(moved, ui)),
            movers)


def _quadruple_tallies(ui: Sequence[int], alpha: int, beta: int, orbit: Sequence[int]):
    """(structure_violations, commuting, commutator_total, overlap_total,
    carried_total, arrows_total, containment_violations) over the members x
    of ``orbit``, joined into one flat operand.

    Each point a splits as an overlap point (u and x move it), a carried
    fixed point (u fixes a, and x carries it into supp(u)) or an arrow (x
    fixes a in supp(u) and moves a^u); [u,x] must move only split points.
    alpha and beta = alpha^u lie in supp(u), where ``moved`` is read.
    """
    members, support, moved, movers, commutators, commuting = _columns(ui, orbit)
    overlap_total = carried_total = arrows_total = containment_violations = 0
    for a, c in enumerate(ui):
        if c == a:
            # x[a] in supp(u) already puts x[a] != a
            split = members.maps_into(a, support)
            carried_total += split.bit_count()
        else:
            arrows = moved[c] & ~moved[a]
            overlap_total += movers[a]
            arrows_total += arrows.bit_count()
            split = moved[a] | arrows
        containment_violations += (commutators[a] & ~split).bit_count()
    return (members.size - (moved[beta] & ~moved[alpha]).bit_count(), commuting,
            sum(lanes.bit_count() for lanes in commutators),
            overlap_total, carried_total, arrows_total, containment_violations)


def double_transitive_trace(group: PermutationGroup, *, rng=None,
                            cap: int = DEFAULT_CAP) -> TraceReport:
    """Counting trace for doubly transitive groups.

    Over E, the conjugates of the witness u under a point stabilizer, the
    members fixing beta = alpha^u number |E|(n-m)/(n-1) exactly; none of
    them commutes with u, so each shares at least m/3 support with u, and
    summing the overlaps against the exact moved-point count squeezes n
    below 4m + 6/(m-3) whenever the group avoids the alternating group.
    """
    report, u, support, alpha = _counting_setup("double", group, rng, 2)
    if not report.applicable:
        return report
    n, m = report.n, report.m
    beta = u.images[alpha]
    report.witnesses.update(alpha=str(alpha + 1), beta=str(beta + 1))
    # from here on E, u and the points are read in E's frame, where E keeps
    # its fixers of beta first
    orbit, ui, (alpha, beta) = _base_orbit(group, (alpha, beta), 1, u, u, cap)
    size = len(orbit) // n
    fixing, commuting, thin, pair_total, movers = _double_tallies(
        ui, orbit[:orbit[beta::n].count(beta) * n])
    middle = [a for a, c in enumerate(ui) if c != a and a != alpha and a != beta]

    checks = [
        _eq("fixing-count-identity", fixing, Fraction(size * (n - m), n - 1)),
        _eq("fixer-noncommuting", commuting, 0),
        _eq("overlap-lower-third", thin, 0),
        _eq("overlap-pairs-partition", pair_total,
            fixing + sum(movers[g] for g in middle)),
        _ge("overlap-pairs-lower", pair_total, Fraction(fixing * m, 3)),
        _le("overlap-pairs-upper", pair_total,
            fixing + Fraction((m - 2) * (m - 1) * size, n - 1)),
    ]
    _closing_bound(group, report, checks, 4, 6, "quarter-bound")
    report.sizes = {"orbit": size, "fixing": fixing,
                    "overlap_pairs": pair_total, "middle_points": len(middle)}
    report.checks = _sorted_checks(checks)
    return report


def triple_transitive_trace(group: PermutationGroup, *, rng=None,
                            cap: int = DEFAULT_CAP) -> TraceReport:
    """Counting trace for triply transitive groups.

    The witness u is conjugated so that v carries a support point alpha onto
    a fixed point beta of u; the conjugates E of v under the two-point
    stabilizer all fail to commute with u.  The overlap pairs satisfy
    |F| = |E| (1 + (m-1)(m-2)/(n-2)) exactly, two moved-edge counts put
    2|E|(m-2)/(n-2) pairs into the doubled overlap, and the commutator
    supports are wedged between m|E| and 3|F| - |G|, closing with
    n <= 3m + 4/(m-3).
    """
    report, u, support, alpha = _counting_setup("triple", group, rng, 3)
    if not report.applicable:
        return report
    # t >= 3 makes G_alpha nontrivial, so the minimal-degree witness fixes a point
    beta = _pick(rng, sorted(u.fixed()))
    n, m = report.n, report.m
    # from here on E, u and the points are read in E's frame
    orbit, ui, (alpha, beta) = _relocated_orbit(report, group, u, (alpha, beta),
                                                (alpha, u.images[alpha]), rng, cap)
    support = [a for a, c in enumerate(ui) if c != a]
    size = len(orbit) // n
    (misplaced, commuting, commutator_total, overlap_total, doubled_total,
     movers) = _triple_tallies(ui, alpha, beta, orbit)

    edge_formula = Fraction(size * (m - 2), n - 2)
    checks = [
        _eq("orbit-relocation-structure", misplaced, 0),
        _eq("orbit-noncommuting", commuting, 0),
        _ge("commutator-pairs-lower", commutator_total, size * m),
        _le("commutator-pairs-upper", commutator_total, 3 * overlap_total - doubled_total),
        _eq("overlap-pairs-identity", overlap_total,
            size + Fraction(size * (m - 1) * (m - 2), n - 2)),
        _eq("overlap-pairs-partition", overlap_total,
            size + sum(movers[g] for g in support if g != alpha)),
        _eq("edge-mover-count-back", movers[ui.index(alpha)], edge_formula),
        _eq("edge-mover-count-forward", movers[ui[alpha]], edge_formula),
        _ge("doubled-overlap-lower", doubled_total, 2 * edge_formula),
    ]
    _closing_bound(group, report, checks, 3, 4, "third-bound")
    report.sizes = {"orbit": size, "overlap_pairs": overlap_total,
                    "doubled_pairs": doubled_total,
                    "commutator_pairs": commutator_total}
    report.checks = _sorted_checks(checks)
    return report


def quadruple_transitive_trace(group: PermutationGroup, *, rng=None,
                               cap: int = DEFAULT_CAP) -> TraceReport:
    """Counting trace for quadruply transitive groups avoiding the alternating
    group, closing with m >= 6 and n - 3 <= 2m.

    The witness u is conjugated into v fixing alpha but moving beta = alpha^u;
    over the conjugates E of v under the two-point stabilizer, the supports
    of the commutators [u,x] split into overlap pairs, fixed points of u
    carried into the overlap, and fixed points of x whose u-image lies in the
    overlap.  The three families are counted or bounded exactly, and the
    assembled inequality is settled in integers through the square-completed
    form (2MN - (3(M+1)^2 - M))^2 <= M^4 + 14M^3 + 35M^2 + 30M + 9 with
    M = m - 3 and N = n - 3, whenever the left factor is nonnegative.
    """
    report, u, support, alpha = _counting_setup("quadruple", group, rng, 4,
                                                 avoid_alternating=True)
    if not report.applicable:
        return report
    beta = u.images[alpha]
    # u fixes a point, and m > 2: with a transposition the group would be symmetric
    fix_target = _pick(rng, sorted(u.fixed()))
    mid_target = _pick(rng, [a for a in support if a != alpha and a != beta])
    # from here on E, u and the points are read in E's frame
    orbit, ui, (alpha, beta) = _relocated_orbit(report, group, u, (alpha, beta),
                                                (fix_target, mid_target), rng, cap)
    n, m = report.n, report.m
    size = len(orbit) // n

    (structure_violations, commuting, commutator_total, overlap_total, carried_total,
     arrows_total, containment_violations) = _quadruple_tallies(ui, alpha, beta, orbit)

    # the overlap pairs' exact count and the carried and arrow pairs' upper
    # bounds: m |E| <= commutator pairs <= their sum, so m <= sum / |E|
    overlap = size + Fraction(size * (m - 1) * (m - 2), n - 2)
    carried = Fraction(size * (n - m), n - 2) * (Fraction((m - 2) ** 2, n - 3) + 1)
    arrows = size * (1 + Fraction((n - m) * (m - 2) ** 2, (n - 2) * (n - 3)))
    checks = [
        _eq("orbit-stabilizer-structure", structure_violations, 0),
        _eq("orbit-noncommuting", commuting, 0),
        _eq("support-split-containment", containment_violations, 0),
        _ge("commutator-pairs-lower", commutator_total, size * m),
        _le("pair-count-split", commutator_total,
            overlap_total + carried_total + arrows_total),
        _eq("overlap-pairs-identity", overlap_total, overlap),
        _le("carried-pairs-upper", carried_total, carried),
        _le("arrow-pairs-upper", arrows_total, arrows),
        _le("assembled-degree-inequality", m, (overlap + carried + arrows) / size),
    ]

    m_shift, n_shift = m - 3, n - 3
    poly = m_shift ** 4 + 14 * m_shift ** 3 + 35 * m_shift ** 2 + 30 * m_shift + 9
    # the left factor is 0 at the vertex n_shift = offset / (2 m_shift)
    offset = 3 * (m_shift + 1) ** 2 - m_shift
    left = 2 * m_shift * n_shift - offset
    checks.append(_le("shifted-threshold-bound", max(left, 0) ** 2, poly))
    report.derived = {"m_shift": m_shift, "n_shift": n_shift,
                      "vertex": Fraction(offset, 2 * m_shift),
                      "slack_poly": poly, "contains_alternating": False}

    _conclude(report, checks, [_ge("minimal-degree-at-least-six", m, 6),
                               _le("degree-window", n - 3, 2 * m)])
    report.sizes = {"orbit": size, "overlap_pairs": overlap_total,
                    "carried_pairs": carried_total, "arrow_pairs": arrows_total,
                    "commutator_pairs": commutator_total}
    report.checks = _sorted_checks(checks)
    return report


TRACES = {
    "jordan": jordan_bound_trace,
    "double": double_transitive_trace,
    "triple": triple_transitive_trace,
    "quadruple": quadruple_transitive_trace,
}


# check is the row's minimal-degree-meets-bound check, m >= bound
DegreeBoundRow = namedtuple("DegreeBoundRow", "label n t m bound check")


def mathieu_bound_table() -> list[DegreeBoundRow]:
    """The degree/bound table for the Mathieu fixtures.

    The quadruply-transitive bound max(6, ceil((n-3)/2)) is tabulated against
    the computed minimal degree, and each row carries the check m >= bound
    that ``permdeg table`` reports and exits by; a mismatch with the pinned
    expected minimal degree is a fault in the computation, not in any
    input, and raises RuntimeError.
    """
    from . import catalog

    rows = []
    for k in (11, 12, 23, 24):
        g = catalog.builtin("mathieu", k)
        result = minimal_degree(g)
        bound = max(6, (g.degree - 2) // 2)
        expected = catalog.MATHIEU_MINIMAL_DEGREE[k]
        if result.m != expected:
            raise RuntimeError(f"{g.label}: computed minimal degree {result.m}, "
                               f"expected {expected}")
        rows.append(DegreeBoundRow(g.label, g.degree, g.transitivity_degree(),
                                   result.m, bound,
                                   _ge("minimal-degree-meets-bound", result.m, bound)))
    return rows


# ---------------------------------------------------------------------------
# sampled suites


def commutator_law_suite(group: PermutationGroup, samples: int = 1000,
                         seed: int = 0) -> list[CountCheck]:
    """Aggregate the commutator support laws over seeded random pairs.

    Returns one check per law counting failing samples; the forward-image
    containment is tallied but stays informational.  The suite owns its
    ``random.Random(seed)`` and reads its words in bulk (``_bulk_words``).
    u and v are drawn from them as the operands of the group's degree, as
    ``group.random_element`` would draw them, and F and S as random subsets
    of the cancellation pools, as ``random.sample`` would draw them from a
    pool.  Only the sizes of F and S are kept, so ``_sample_size`` replays
    their draws and builds no subset.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    words = _bulk_words(random.Random(seed))
    levels = group.chain().levels
    n = group.degree
    failures = [0] * len(_LAWS)
    for _ in range(samples):
        u = _random_product(levels, n, words)
        v = _random_product(levels, n, words)
        rows, fixed, shifted = _law_facts(u, v)
        observed, limit = rows[4]
        rows[4] = observed, (limit - _sample_size(words, fixed.bit_count())
                             - _sample_size(words, shifted.bit_count()))
        for i, (observed, limit) in enumerate(rows):
            if observed > limit:
                failures[i] += 1
    checks = [_eq(f"{label} [{samples} samples]", failed, 0, informational)
              for (label, informational), failed in zip(_LAWS, failures)]
    return _sorted_checks(checks)


def count_identity_suite(group: PermutationGroup, samples: int = 1000,
                         seed: int = 0) -> tuple[list[CountCheck], list[str]]:
    """Aggregate the conjugation-orbit counting identities over seeded samples.

    One pass per (u, delta) configuration draws u, delta (|delta| <= 2)
    and up to 20 (gamma, second) draws, then checks the configuration once
    and judges its draws; checking and judging read no seeded rng.  A
    clause states that its count over E = {u^h : h in H}, H the pointwise
    stabilizer of delta, equals |E| times a rational formula f.  The suite
    never builds E: it tests the equivalent identity count / |E| = f by
    double counting over the orbits of H on ordered pairs of points,

      #{x in E : gamma^x = b} / |E| = #{a : (a, a^u) in O} / |O|,
        O the H-orbit of (gamma, b),
      #{x in E : x fixes gamma and second} / |E|
        = #{(a, c) in O : u fixes a and c} / |O|,  O the H-orbit of (gamma, second),

    in exact rationals, however large E is.  The stabilizers of all
    k-sets delta are conjugate to the stabilizer G_(b) of the ``()``
    chain's first k base points, so the n^2 pairs are labelled once per k
    under G_(b) (``group._level_pair(k)``), and ``groups._to_base`` carries
    u and delta into that frame by the c that takes delta to b; each draw
    is carried by c as well.  A configuration then costs O(n + (n - m)^2) to
    tally u's arrows and pairs of fixed points per labelled orbit, and each
    clause is judged once per distinct orbit key of its draws.  Returns the
    aggregated checks plus the clauses that were never applicable.  A
    configuration the suite drew that fails its own check is a fault and
    raises RuntimeError.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    rng = random.Random(seed)
    n = group.degree
    t = group.transitivity_degree()
    max_delta = min(2, t - 1, n - 2)
    if group.order <= 1 or max_delta < 1:
        return [], list(CLAUSES)

    totals = [[0, 0] for _ in CLAUSES]  # applied, failed
    labels = {}  # |delta| -> pair labels under the () chain's level-|delta| stabilizer
    per_config = 20
    for start in range(0, samples, per_config):
        u = group.random_element(rng)
        while u.is_identity():
            u = group.random_element(rng)
        pool = sorted(u.support())
        dsize = rng.randint(1, min(max_delta, len(pool)))
        delta = tuple(sorted(rng.sample(pool, dsize)))
        rest = [a for a in range(n) if a not in delta]
        draws = []
        for _ in range(min(per_config, samples - start)):
            gamma = rng.choice(rest)
            i = rest.index(gamma)
            # |delta| <= n - 2 leaves gamma another point outside delta
            draws.append((gamma, rng.choice(rest[:i] + rest[i + 1:])))
        try:
            _check_configuration(group, u, frozenset(delta), draws)
        except ValueError as exc:
            raise RuntimeError(f"{group.label}: {exc}") from exc
        c, (u_carried,), delta_carried = _to_base(group, delta, (u,))
        table = labels.get(dsize)
        if table is None:
            pair = group._level_pair(dsize)
            table = labels[dsize] = _pair_labels([h.images for h in pair], n)
        orbits = _pair_tallies(*table, u_carried)
        plan = _clause_plan(n, u.moved_count(), dsize, t)
        _draw_tallies(plan, orbits, delta_carried,
                      [(c[gamma], c[second]) for gamma, second in draws], totals)

    checks = []
    inapplicable = []
    for clause, (applied, failed) in zip(CLAUSES, totals):
        if applied == 0:
            inapplicable.append(clause)
            continue
        checks.append(_eq(f"{clause} [{applied}/{samples} applicable]", failed, 0))
    return _sorted_checks(checks), inapplicable


def relation_balance_checks(group: PermutationGroup) -> list[CountCheck]:
    """Double counting on points against ordered distinct pairs, a point
    related to the pairs it starts; needs t >= 2.

    A doubly transitive group is transitive on the n points and on the
    n(n - 1) pairs, and it preserves the relation, so every point starts
    the same number of pairs, every pair has the same number of related
    points, and the two counts balance against the sizes of the two sides.
    The suite restates an identity: whatever the group, each of the n rows
    is n - 1 and each of the n(n - 1) columns is 1, so its three values are
    read off n.
    """
    if group.transitivity_degree() < 2:
        raise PreconditionError("the pair action needs a doubly transitive group")
    n = group.degree
    return [
        _eq("row-count-uniform", 1, 1),
        _eq("column-count-uniform", 1, 1),
        _eq("count-mass-balance", (n - 1) * n, n * (n - 1)),
    ]
