"""The input contract of every group query: points lie in 0..n-1 and every
operand acts on the group's n points.  Each site that takes points or
operands from a caller raises the one message of ``perm._check_points``
or ``perm._check_degree``; ``tests/test_source.py`` keeps those messages
out of every other module, so a site that raises one calls the helper."""

import re

import pytest

from permdeg import catalog, verify
from permdeg.groups import PermutationGroup, build_chain, conjugation_closure
from permdeg.perm import DegreeMismatchError, Permutation, parse_cycles

FIVE = parse_cycles("(1,2,3,4,5)", 5)
FOUR = parse_cycles("(1,2)", 4)


def s5():
    return catalog.parse_group_name("S5")


class Index:
    """A point that only ``operator.index`` reads: it has no int equality,
    hash or order of its own."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value

    def __repr__(self):
        return f"Index({self.value})"


# (site, call, exception type, message); S5 acts on 0..4
SITES = [
    ("Permutation.__mul__", lambda: FIVE * FOUR, DegreeMismatchError, "degree mismatch: 5 vs 4"),
    ("Permutation.conjugate", lambda: FIVE.conjugate(FOUR), DegreeMismatchError,
     "degree mismatch: 5 vs 4"),
    ("StabilizerChain.contains", lambda: s5().chain().contains(FOUR), DegreeMismatchError,
     "degree mismatch: 4 vs 5"),
    # build_chain drops identity generators, but not before their degree is checked
    ("build_chain generators", lambda: build_chain([FIVE, Permutation.identity(4)], 5),
     DegreeMismatchError, "degree mismatch: 4 vs 5"),
    ("PermutationGroup.__init__", lambda: PermutationGroup([FIVE, FOUR], 5),
     DegreeMismatchError, "degree mismatch: 4 vs 5"),
    ("conjugation_closure", lambda: conjugation_closure([FIVE, FOUR], FIVE),
     DegreeMismatchError, "degree mismatch: 4 vs 5"),
    ("commutator_cancellation_bound",
     lambda: verify.commutator_cancellation_bound(FIVE, FOUR, (), ()),
     DegreeMismatchError, "degree mismatch: 5 vs 4"),
    ("commutator_cancellation_bound F",
     lambda: verify.commutator_cancellation_bound(FIVE, FIVE, [7], ()), ValueError,
     "point 7 outside 0..4"),
    ("commutator_cancellation_bound S",
     lambda: verify.commutator_cancellation_bound(FIVE, FIVE, (), [-1]), ValueError,
     "point -1 outside 0..4"),
    ("build_chain base_prefix", lambda: build_chain([FIVE], 5, (0, 5)), ValueError,
     "point 5 outside 0..4"),
    ("PermutationGroup.orbit", lambda: s5().orbit(-1), ValueError, "point -1 outside 0..4"),
    ("pointwise_stabilizer", lambda: s5().pointwise_stabilizer([1, 7]), ValueError,
     "point 7 outside 0..4"),
    ("transporter", lambda: s5().transporter((0, 1), (2, 5)), ValueError,
     "point 5 outside 0..4"),
    ("_check_configuration gamma",
     lambda: verify.conjugate_orbit_count_checks(s5(), FIVE, [0], 5), ValueError,
     "point 5 outside 0..4"),
    ("_check_configuration second",
     lambda: verify.conjugate_orbit_count_checks(s5(), FIVE, [0], 1, 9), ValueError,
     "point 9 outside 0..4"),
    # a point is what operator.index accepts, as for a Permutation's entries
    ("PermutationGroup.orbit float", lambda: s5().orbit(1.5), ValueError,
     "point 1.5 is not an integer"),
    ("pointwise_stabilizer float", lambda: s5().pointwise_stabilizer([1.5]), ValueError,
     "point 1.5 is not an integer"),
    ("transporter float", lambda: s5().transporter((0,), (1.5,)), ValueError,
     "point 1.5 is not an integer"),
    ("build_chain base_prefix float", lambda: build_chain([FIVE], 5, [1.5]), ValueError,
     "point 1.5 is not an integer"),
    ("_check_configuration gamma float",
     lambda: verify.conjugate_orbit_count_checks(s5(), FIVE, [0], gamma=1.5), ValueError,
     "point 1.5 is not an integer"),
    ("commutator_cancellation_bound F float",
     lambda: verify.commutator_cancellation_bound(FIVE, FIVE, [1.5], []), ValueError,
     "point 1.5 is not an integer"),
    ("pointwise_stabilizer string", lambda: s5().pointwise_stabilizer(["1"]), ValueError,
     "point '1' is not an integer"),
    # an object that only defines __index__ is a point too, and is named as given
    ("PermutationGroup.orbit index", lambda: s5().orbit(Index(5)), ValueError,
     "point Index(5) outside 0..4"),
    ("transporter index", lambda: s5().transporter((Index(0),), (Index(7),)), ValueError,
     "point Index(7) outside 0..4"),
]


@pytest.mark.parametrize("call, kind, message", [site[1:] for site in SITES],
                         ids=[site[0] for site in SITES])
def test_every_site_raises_the_shared_contract_error(call, kind, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as caught:
        call()
    assert type(caught.value) is kind


# (site, call with Index points, the same call with ints): each site reads
# the plain ints that perm._check_points returns, not the caller's objects
INDEX_SITES = [
    ("PermutationGroup.orbit", lambda: s5().orbit(Index(1)), lambda: s5().orbit(1)),
    ("pointwise_stabilizer",
     lambda: s5().pointwise_stabilizer([Index(0), Index(3)]).generators,
     lambda: s5().pointwise_stabilizer([0, 3]).generators),
    ("transporter", lambda: s5().transporter((Index(0), Index(1)), (Index(3), Index(4))),
     lambda: s5().transporter((0, 1), (3, 4))),
    ("build_chain base_prefix", lambda: build_chain([FIVE], 5, [Index(2)]).base,
     lambda: build_chain([FIVE], 5, [2]).base),
    ("_check_configuration",
     lambda: verify.conjugate_orbit_count_checks(s5(), FIVE, [0], Index(1), Index(2)),
     lambda: verify.conjugate_orbit_count_checks(s5(), FIVE, [0], 1, 2)),
    ("commutator_cancellation_bound",
     lambda: verify.commutator_cancellation_bound(FIVE, FIVE, [Index(0)], [Index(1), Index(1)]),
     lambda: verify.commutator_cancellation_bound(FIVE, FIVE, [0], [1])),
]


@pytest.mark.parametrize("call, plain", [site[1:] for site in INDEX_SITES],
                         ids=[site[0] for site in INDEX_SITES])
def test_every_site_reads_points_as_plain_ints(call, plain):
    assert call() == plain()


def test_points_that_operator_index_accepts_pass_the_contract():
    # bool is an int to operator.index, as it is for a Permutation's entries
    group = s5()
    assert group.orbit(True) == group.orbit(1)
    assert group.pointwise_stabilizer([False]).order == 24
    assert group.transporter((False,), (True,)).apply(0) == 1


@pytest.mark.parametrize("degree, message", [
    (None, "degree is required for an empty generating set"),
    (0, "degree must be at least 1"),
])
def test_an_empty_group_needs_a_positive_degree(degree, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        PermutationGroup([], degree)
