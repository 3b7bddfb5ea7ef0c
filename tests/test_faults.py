"""Seeded faults injected into the verifier: each must flip the checks that
read the corrupted value, and the CLI must then exit 1."""

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
