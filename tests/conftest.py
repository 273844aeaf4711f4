"""Fixtures shared by the test modules."""

import importlib
import pkgutil

import pytest

import qdialogue

#: every cache of every ``qdialogue`` module, bound at import, so that they
#: are cleared even while a test patches one
_CACHES = tuple(dict.fromkeys(
    value
    for info in pkgutil.iter_modules(qdialogue.__path__)
    for value in vars(importlib.import_module(f"qdialogue.{info.name}")).values()
    if hasattr(value, "cache_clear")))


def _clear_caches():
    for cache in _CACHES:
        cache.cache_clear()


@pytest.fixture
def fresh_walk():
    """Empty every cache of every ``qdialogue`` module (the exact walk
    ``exactstate._walk``, the outcome-tally table
    ``exactstate._outcome_tallies``, the one exact fold
    ``analysis._detection_fold`` and the sampler's
    ``sampling._session_table`` built on them, among others) before and
    after a test, so that a test which patches a walk primitive or the walk
    walks and folds again under its patch and leaves nothing patched
    behind.  The fixture's value empties them again when called."""
    _clear_caches()
    yield _clear_caches
    _clear_caches()
