from functools import lru_cache

import pytest

from uqb2 import isoclass
from uqb2.cyclotomic import field_init
from uqb2.pbw import PBWAlgebra


@lru_cache(maxsize=None)
def _context(m):
    return field_init(m)


@lru_cache(maxsize=None)
def _algebra(m):
    return PBWAlgebra(_context(m))


@pytest.fixture(scope="session")
def context_factory():
    """Cached field contexts keyed by m (shared across the whole run)."""
    return _context


@pytest.fixture(scope="session")
def algebra_factory():
    """Cached PBW engines keyed by m (memo tables shared across tests)."""
    return _algebra


@pytest.fixture
def system_rows_calls(monkeypatch):
    """The arguments of every ``isoclass._system_rows`` call, the exact
    intertwiner system in all d*d entries of T."""
    calls = []
    system_rows = isoclass._system_rows
    monkeypatch.setattr(isoclass, "_system_rows",
                        lambda *args: calls.append(args) or system_rows(*args))
    return calls
