"""Fixtures shared by the test modules."""

import pytest

from qdialogue import analysis


#: every cache of ``analysis``, bound at import, so that they are cleared even
#: while a test patches one
_ANALYSIS_CACHES = tuple(value for value in vars(analysis).values()
                         if hasattr(value, "cache_clear"))


def _clear_analysis_caches():
    for cache in _ANALYSIS_CACHES:
        cache.cache_clear()


@pytest.fixture
def fresh_walk():
    """Empty every cache of ``analysis`` (the exact walk ``_walk``, the
    outcome-tally table ``_outcome_tallies``, the one exact fold
    ``_detection_fold`` and the sampler's ``_session_table`` built on them,
    among others) before and after a test, so that a test which
    patches a walk primitive or the walk walks and folds again under its
    patch and leaves nothing patched behind.  The fixture's value empties
    them again when called."""
    _clear_analysis_caches()
    yield _clear_analysis_caches
    _clear_analysis_caches()
