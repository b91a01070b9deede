"""Shared fixtures: every test starts and ends without pooled trial workers."""

import multiprocessing

import pytest

from beamsim import experiments


@pytest.fixture(autouse=True)
def fresh_trial_workers():
    """Reap the pooled trial workers before and after each test, so a test
    that monkeypatches ``run_trials`` (or anything a trial calls) reaches
    workers forked after its patch."""
    experiments._close_workers()
    yield
    experiments._close_workers()


@pytest.fixture(scope="session", autouse=True)
def no_trial_worker_left_at_the_end():
    yield
    assert experiments._workers == []
    assert multiprocessing.active_children() == []
