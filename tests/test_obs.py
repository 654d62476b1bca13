"""Tests for :mod:`repro.obs`: where a count lands, and where it does not."""

import threading

import pytest

from repro import obs


def test_nothing_is_counted_without_an_open_tally():
    obs.count("orphan", 5)
    with obs.counting() as tally:
        pass
    assert tally == {}


def test_counts_land_in_the_open_tally():
    with obs.counting() as tally:
        obs.count("a")
        obs.count("a", 2)
        obs.count("b", 0)
    assert tally == {"a": 3, "b": 0}


def test_only_the_innermost_tally_counts():
    with obs.counting() as outer:
        obs.count("a")
        with obs.counting() as inner:
            obs.count("a", 10)
        obs.count("a")
    assert inner == {"a": 10}
    assert outer == {"a": 2}


def test_the_tally_is_reset_after_an_exception():
    with obs.counting() as outer:
        with pytest.raises(RuntimeError):
            with obs.counting() as inner:
                obs.count("a")
                raise RuntimeError("boom")
        obs.count("b")
    assert inner == {"a": 1}
    assert outer == {"b": 1}
    obs.count("c")
    assert "c" not in outer


def test_threads_keep_their_tallies_apart():
    started = threading.Barrier(2)
    tallies = {}

    def work(name, amount):
        with obs.counting() as tally:
            started.wait(10.0)
            for _ in range(1000):
                obs.count(name, amount)
            started.wait(10.0)
        tallies[name] = tally

    threads = [threading.Thread(target=work, args=args) for args in (("x", 1), ("y", 2))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert tallies == {"x": {"x": 1000}, "y": {"y": 2000}}


def test_a_new_thread_starts_with_no_tally():
    """A pool thread does not count into the tally of the thread that made it."""
    with obs.counting() as caller:
        thread = threading.Thread(target=obs.count, args=("a",))
        thread.start()
        thread.join()
    assert caller == {}
