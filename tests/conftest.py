from functools import lru_cache

import pytest

from diagram_gram import semisimplicity
from diagram_gram.verify import run_all_checks

# the library caches no result, since each CLI call asks for each once; the
# tests that ask for one product many times share this memo
_global_poly = lru_cache(maxsize=None)(semisimplicity.global_poly)


@pytest.fixture(scope="session")
def checks_k3():
    """`run_all_checks(3)`, the suite `verify --k 3` runs.

    It takes seconds, so it runs once per session; `test_verify.py` and
    the acceptance criteria read their checks from this one run.
    """
    return run_all_checks(3)


@pytest.fixture
def memo_global_poly(monkeypatch):
    """`global_poly`, memoised for the session, and patched in where
    `verdict` reads it, so the verdict stays the code under test."""
    monkeypatch.setattr(semisimplicity, "global_poly", _global_poly)
    return _global_poly
