"""Fixtures shared by the test modules."""

import pytest

from qdialogue import analysis


@pytest.fixture
def fresh_round_tree():
    """Empty the samplers' tree cache and the session table cache built on
    it before and after a test, so that a test which patches the exact walk
    builds its own tree and leaves none behind."""
    analysis._round_tree.cache_clear()
    analysis._session_table.cache_clear()
    yield
    analysis._round_tree.cache_clear()
    analysis._session_table.cache_clear()
