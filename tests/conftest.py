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
def exact_spin_calls(monkeypatch):
    """The module pairs of every run of ``isoclass._spin_intertwiner`` over
    the field (``p`` None), the exact isomorphism test."""
    calls = []
    spin = isoclass._spin_intertwiner

    def counted(r1, r2, p=None):
        if p is None:
            calls.append((r1, r2))
        return spin(r1, r2, p)

    monkeypatch.setattr(isoclass, "_spin_intertwiner", counted)
    return calls
