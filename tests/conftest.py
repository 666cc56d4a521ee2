"""Fixtures for the two paths of `params.run_pair`: worker thread and inline."""

import pytest

from vuglab import params


@pytest.fixture
def pair_worker(monkeypatch):
    """`run_pair` hands its second task to the worker thread above the cell
    gate whatever the CPU count. The test starts with no worker, so
    `params._worker` tells whether one was used; it is shut down afterwards."""
    monkeypatch.setattr(params, "pair_threads", lambda: 2)
    monkeypatch.setattr(params, "_worker", None)
    yield
    if params._worker is not None:
        params._worker.shutdown()


@pytest.fixture
def both_paths(monkeypatch, pair_worker):
    """`run(fn)` calls fn once with the worker thread in use, then once with
    every pair forced inline, and returns both results."""

    def run(fn):
        threaded = fn()
        assert params._worker is not None, "no pair ran on the worker thread"
        with monkeypatch.context() as inline:
            inline.setattr(params, "_THREAD_CELL_MIN", float("inf"))
            return threaded, fn()

    return run
