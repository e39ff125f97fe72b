"""Checks that every test must pass, and the helpers test modules share."""

import threading

import pytest

from momentfuse import image, metrics


@pytest.fixture(autouse=True)
def leaves_no_thread_or_source_term_scope():
    """Fail a test that leaves a thread running or a source-term scope set."""
    threads = threading.active_count()
    yield
    assert threading.active_count() == threads
    assert metrics._SOURCE_TERMS.get() is None


@pytest.fixture
def use_workers(monkeypatch):
    """A function that caps `image._pooled` at the given number of threads."""

    def use(workers):
        monkeypatch.setattr(image, "_worker_count", lambda tasks: min(tasks, workers))

    return use
