"""Shared fixtures."""

import pytest

import minrel.ranks


@pytest.fixture
def sort_counter(monkeypatch):
    """Counts calls of ``ranks.fractional_ranks``, the one sort: ``sort_counter["count"]``."""
    calls = {"count": 0}
    original = minrel.ranks.fractional_ranks

    def counting(values):
        calls["count"] += 1
        return original(values)

    monkeypatch.setattr(minrel.ranks, "fractional_ranks", counting)
    return calls
