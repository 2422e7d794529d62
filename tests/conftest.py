"""Shared fixtures."""

import pytest

import minrel.ranks


@pytest.fixture
def sort_counter(monkeypatch):
    """Counts calls of ``ranks.fractional_ranks``, the one sort, and the rows they rank.

    ``sort_counter["count"]`` counts the calls, ``sort_counter["rows"]`` the
    columns sorted: one per row of a batch.
    """
    calls = {"count": 0, "rows": 0}
    original = minrel.ranks.fractional_ranks

    def counting(values):
        calls["count"] += 1
        calls["rows"] += values.size // values.shape[-1]
        return original(values)

    monkeypatch.setattr(minrel.ranks, "fractional_ranks", counting)
    return calls
