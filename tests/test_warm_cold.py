"""Warm equals cold: a group answers each call as a freshly built copy of it
does, whatever calls it answered before.

A group holds state across calls: its ``()`` chain and last rebased chain,
its level pairs per k, the conjugation orbits ``groups._orbits`` keeps for
it and the minimal-degree result ``mindeg`` keeps for it.  The byte table
runs one fixed order of commands; the state machine below runs orders that
nobody chose on a copy of a catalog group that lives for a whole program,
and compares every result with the same call on a new copy."""

import random

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, rule

from permdeg import catalog, verify
from permdeg.groups import PermutationGroup
from permdeg.mindeg import minimal_degree

NAMES = ("M11", "M12", "PSL2_13", "PGL2_7", "S6", "A7")


def _copy(name):
    """A new group on the catalog group's generators, sharing no state."""
    group = catalog.parse_group_name(name)
    return PermutationGroup(group.generators, group.degree, label=group.label)


def _chain_facts(chain):
    return chain.base, chain.levels, chain.strong_gens


class WarmEqualsCold(RuleBasedStateMachine):
    """Each program keeps one group; each rule makes one call on it and the
    same call on a fresh copy, and the two results must be equal.  All
    state is kept per group, so one group per program meets the most of
    its own earlier calls: M11 and M12 keep two orbits at k = 2 (the triple
    and the quadruple trace) and PSL2_13 two at k = 1 (seed 3's double
    trace and the rest).  Half of the four rules run a trace, and the
    other two each pick one of their calls, so a program draws a trace
    more often than one rule per call would."""

    @initialize(name=st.sampled_from(NAMES))
    def build(self, name):
        self.name = name
        self.warm = _copy(name)

    def _agree(self, call):
        assert call(self.warm) == call(_copy(self.name))

    def _points(self, data, size):
        return data.draw(st.lists(st.integers(0, self.warm.degree - 1),
                                  min_size=size, max_size=size, unique=True))

    def _trace(self, theorem, seed):
        def fields(group):
            rng = None if seed is None else random.Random(seed)
            report = verify.TRACES[theorem](group, rng=rng)
            return {slot: getattr(report, slot) for slot in verify.TraceReport.__slots__}

        self._agree(fields)

    @rule(theorem=st.sampled_from(sorted(verify.TRACES)), seed=st.integers(1, 6))
    def seeded_trace(self, theorem, seed):
        self._trace(theorem, seed)

    @rule(theorem=st.sampled_from(sorted(verify.TRACES)))
    def unseeded_trace(self, theorem):
        self._trace(theorem, None)

    @rule(suite=st.sampled_from(["laws", "counts", "minimal_degree"]), seed=st.integers(0, 3))
    def suite(self, suite, seed):
        if suite == "minimal_degree":
            self._agree(minimal_degree)
            return
        run = verify.commutator_law_suite if suite == "laws" else verify.count_identity_suite
        self._agree(lambda group: run(group, 20, seed))

    @rule(reader=st.sampled_from(["pointwise_stabilizer", "transporter", "chain"]),
          size=st.integers(0, 3), data=st.data())
    def read_chain(self, reader, size, data):
        points = self._points(data, size)
        if reader == "transporter":
            targets = self._points(data, size)
            self._agree(lambda group: group.transporter(points, targets))
        elif reader == "chain":
            self._agree(lambda group: _chain_facts(group.chain(points)))
        else:
            def stabilizer(group):
                sub = group.pointwise_stabilizer(points)
                return sub.generators, sub.order, _chain_facts(sub.chain())

            self._agree(stabilizer)


# each call costs a few ms on each side, so a passing run takes about 1.5 s
WarmEqualsCold.TestCase.settings = settings(max_examples=60, stateful_step_count=20,
                                            derandomize=True, database=None, deadline=None)
TestWarmEqualsCold = WarmEqualsCold.TestCase
