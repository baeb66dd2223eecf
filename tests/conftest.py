import pytest

from diagram_gram.verify import run_all_checks


@pytest.fixture(scope="session")
def checks_k3():
    """`run_all_checks(3)`, the suite `verify --k 3` runs.

    It takes seconds, so it runs once per session; `test_verify.py` and
    the acceptance criteria read their checks from this one run.
    """
    return run_all_checks(3)
