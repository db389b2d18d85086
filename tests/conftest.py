"""Shared fixtures for the test suite."""

import threading

import numpy as np
import pytest


def pytest_sessionfinish(session, exitstatus):
    """No test may leak a *non-daemon* thread past the session.

    Thread workers abandoned at a hang deadline are daemons (tracked by
    ``repro.robust.supervisor.abandoned_threads``); those cannot block
    interpreter exit.  A leaked non-daemon thread would —
    so its presence here is a bug, not noise.
    """
    main = threading.main_thread()
    leaked = [
        t
        for t in threading.enumerate()
        if t is not main and t.is_alive() and not t.daemon
    ]
    if leaked:
        names = ", ".join(t.name for t in leaked)
        raise pytest.UsageError(
            f"non-daemon thread(s) leaked past the test session: {names}"
        )


@pytest.fixture(autouse=True)
def join_abandoned_threads():
    """Every test joins the thread workers it abandoned.

    An abandoned worker exits once its hung call returns; joining it in
    teardown keeps one test's stragglers out of the next test's view of
    the :func:`~repro.robust.supervisor.abandoned_threads` ledger.
    """
    from repro.robust.supervisor import abandoned_threads

    before = set(abandoned_threads())
    yield
    for t in abandoned_threads():
        if t not in before:
            t.join(timeout=30.0)


@pytest.fixture
def injector_guard():
    """Restore the fault injector afterwards; restoring, not clearing, keeps
    env-driven injection (the CI fault-injection job) for later tests."""
    from repro.robust.faults import active_injector, set_injector

    prev = active_injector()
    yield
    set_injector(prev)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def small_cloud(rng):
    """A small random particle cloud with mixed-sign charges."""
    pts = rng.random((300, 3))
    q = rng.uniform(-1.0, 1.0, 300)
    return pts, q


@pytest.fixture
def positive_cloud(rng):
    """A small cloud with strictly positive charges (uniform density)."""
    pts = rng.random((400, 3))
    q = rng.uniform(0.5, 1.5, 400)
    return pts, q
