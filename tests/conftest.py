import pytest


@pytest.fixture(scope="session")
def selftest_report() -> dict:
    """The full acceptance report, built once for the tests that read all of it."""
    from qpii import acceptance

    return acceptance.run_all()
