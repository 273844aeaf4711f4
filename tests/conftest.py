"""Fixtures shared by the test modules."""

import pytest

from qdialogue import analysis


def _clear_walk_caches():
    for cache in (analysis._walk, analysis._decode_errors, analysis._round_tree,
                  analysis._session_table):
        cache.cache_clear()


@pytest.fixture
def fresh_round_tree():
    """Empty the exact walk's cache, the decode-error table's and those of
    the samplers' tree and session table built on them, before and after a
    test, so that a test which patches a walk primitive walks again under
    its patch and leaves nothing patched behind.  The fixture's value
    empties them again when called."""
    _clear_walk_caches()
    yield _clear_walk_caches
    _clear_walk_caches()
