"""Shared fixtures."""

import threading

import pytest

import minrel.matrix
import minrel.ranks


@pytest.fixture
def sort_counter(monkeypatch) -> list:
    """The rows each call of ``ranks.fractional_ranks``, the one sort, ranks, one entry per call.

    ``len(sort_counter)`` counts the calls and ``sum(sort_counter)`` the
    columns sorted, one per row of a batch. A call appends, which no other
    thread's call can lose, so a walk's calls on its threads all count.
    """
    calls = []
    original = minrel.ranks.fractional_ranks

    def counting(values):
        calls.append(values.size // values.shape[-1])
        return original(values)

    monkeypatch.setattr(minrel.ranks, "fractional_ranks", counting)
    return calls


def force_threads(monkeypatch, cpus: int) -> None:
    """Deal every walk's items to min(``cpus``, items) threads, however small its work."""
    monkeypatch.setattr(minrel.ranks, "_THREAD_WORK", 1)
    monkeypatch.setattr(minrel.ranks, "_available_cpus", lambda: cpus)


@pytest.fixture
def walks(monkeypatch):
    """The two ways a test body runs in turn: ``for _ in walks:``.

    First every walk as it is, then on 2 threads over one row per rank block
    and per kernel block, however small its work.
    """

    def modes():
        yield "serial"
        force_threads(monkeypatch, 2)
        monkeypatch.setattr(minrel.ranks, "_BLOCK_BYTES", 8)
        monkeypatch.setattr(minrel.matrix, "_SCRATCH_BYTES", 8)
        yield "threads"

    return modes()


@pytest.fixture
def started(monkeypatch) -> list:
    """Every thread a walk starts; the calling thread runs a share of its own besides."""
    threads = []

    class Recorded(threading.Thread):
        def start(self):
            threads.append(self)
            super().start()

    monkeypatch.setattr(minrel.ranks, "Thread", Recorded)
    return threads
