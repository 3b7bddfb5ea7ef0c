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
    ("stabilizer_generators", lambda: s5().stabilizer_generators([5]), ValueError,
     "point 5 outside 0..4"),
    ("transporter", lambda: s5().transporter((0, 1), (2, 5)), ValueError,
     "point 5 outside 0..4"),
    ("_check_configuration gamma",
     lambda: verify.conjugate_orbit_count_checks(s5(), FIVE, [0], 5), ValueError,
     "point 5 outside 0..4"),
    ("_check_configuration second",
     lambda: verify.conjugate_orbit_count_checks(s5(), FIVE, [0], 1, 9), ValueError,
     "point 9 outside 0..4"),
]


@pytest.mark.parametrize("call, kind, message", [site[1:] for site in SITES],
                         ids=[site[0] for site in SITES])
def test_every_site_raises_the_shared_contract_error(call, kind, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as caught:
        call()
    assert type(caught.value) is kind


@pytest.mark.parametrize("degree, message", [
    (None, "degree is required for an empty generating set"),
    (0, "degree must be at least 1"),
])
def test_an_empty_group_needs_a_positive_degree(degree, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        PermutationGroup([], degree)
