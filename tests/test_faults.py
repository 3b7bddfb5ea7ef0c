"""Seeded faults injected into the verifier: each must flip the checks that
read the corrupted value, and the CLI must then exit 1."""

import random

import pytest

from permdeg import catalog, verify
from permdeg.cli import main


@pytest.mark.parametrize("name", ["M11", "M12", "PGL2_13", "PSL2_31"])
def test_counts_suite_fails_on_a_miscounted_arrow(monkeypatch, name):
    # one extra arrow in the orbit of the diagonal pair (n-1, n-1): the
    # orbit of (gamma, gamma) for every draw, so the clauses that read
    # arrows(O)/|O| at (gamma, gamma) see a share off by 1/|O|
    tallies = verify._pair_tallies

    def faulty(label, size, u):
        orbits = tallies(label, size, u)
        n = orbits.degree
        orbits.arrows[label[(n - 1) * n + n - 1]] += 1
        return orbits

    monkeypatch.setattr(verify, "_pair_tallies", faulty)
    checks, _ = verify.count_identity_suite(catalog.parse_group_name(name), 200)
    failed = {c.label.split(" [")[0] for c in checks if not c.passed}
    assert {"fixes-gamma", "moves-gamma"} <= failed
    # the delta and second-point clauses read off-diagonal orbits only
    assert not failed & {"gamma-into-delta", "gamma-to-second"}
    assert main(["verify", f"catalog:{name}", "counts", "--samples", "200"]) == 1


# the count identities over E fail when the closure loses its last element;
# the quadruple trace needs a 4-transitive group, which PGL2_13 is not
DROPPED_CONJUGATE = {
    "double": {"fixing-count-identity"},
    "triple": {"edge-mover-count-back", "edge-mover-count-forward",
               "overlap-pairs-identity"},
    "quadruple": {"overlap-pairs-identity"},
}


@pytest.mark.parametrize("name, theorem", [
    (name, theorem) for name in ("M11", "M12", "PGL2_13") for theorem in DROPPED_CONJUGATE
    if (name, theorem) != ("PGL2_13", "quadruple")])
def test_traces_fail_on_a_dropped_conjugate(monkeypatch, name, theorem):
    closure = verify.conjugation_closure

    def faulty(*args):
        return closure(*args)[:-1]

    monkeypatch.setattr(verify, "conjugation_closure", faulty)
    report = verify.TRACES[theorem](catalog.parse_group_name(name), rng=random.Random(1))
    failed = {c.label for c in report.checks if not c.passed and not c.informational}
    assert DROPPED_CONJUGATE[theorem] <= failed
    assert main(["trace", f"catalog:{name}", theorem, "--seed", "1"]) == 1
