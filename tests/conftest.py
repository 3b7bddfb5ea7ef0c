import pytest

from permdeg import groups


@pytest.fixture(autouse=True)
def _cold_trace_orbits():
    # the traces keep each conjugation orbit they close per group, and the
    # catalog keeps its groups for the whole run, so an orbit closed by one
    # test (a faulty one among them) would otherwise be read by the next
    groups._orbits.clear()
