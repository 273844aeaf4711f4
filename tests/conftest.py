"""Fixtures shared by the test modules."""

import pytest

from qdialogue import analysis


#: bound at import, so that they are cleared even while a test patches one
_WALK_CACHES = (analysis._walk, analysis._outcome_tallies, analysis._session_table)


def _clear_walk_caches():
    for cache in _WALK_CACHES:
        cache.cache_clear()


@pytest.fixture
def fresh_walk():
    """Empty the caches of the exact walk (``_walk``), of the outcome-tally
    table (``_outcome_tallies``) and of the samplers' session table built on
    them (``_session_table``), before and after a test, so that a test which
    patches a walk primitive or the walk walks again under its patch and
    leaves nothing patched behind.  The fixture's value empties them again
    when called."""
    _clear_walk_caches()
    yield _clear_walk_caches
    _clear_walk_caches()
