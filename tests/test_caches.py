"""Thread safety of the bounded process-wide memo tables.

Several executor threads of one ``repro serve`` process fill the same memo
dicts; every insert goes through :func:`repro.caches.bounded_put`, whose
eviction must neither raise nor let a table outgrow its bound.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.caches import bounded_put
from repro.dualgraph.adversary import SchedulerDeltaCache

THREADS = 8
MAXSIZE = 4
PUTS_PER_THREAD = 1000


def _hammer(put) -> list:
    """Run ``put(thread, i)`` from THREADS threads at once; return the errors."""
    errors: list = []
    start = threading.Barrier(THREADS)

    def worker(thread: int) -> None:
        start.wait()
        try:
            for i in range(PUTS_PER_THREAD):
                put(thread, i)
        except Exception as exc:  # pragma: no cover - the failure being tested
            errors.append(exc)

    interval = sys.getswitchinterval()
    # Switch threads as often as possible so evictions interleave.
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(t,)) for t in range(THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    return errors


def test_concurrent_bounded_puts_hold_the_bound():
    table: dict = {}
    sizes: list = []

    def put(thread: int, i: int) -> None:
        bounded_put(table, (thread, i), i, MAXSIZE)
        sizes.append(len(table))

    assert _hammer(put) == []
    assert len(table) <= MAXSIZE
    assert max(sizes) <= MAXSIZE


def test_concurrent_delta_cache_stores_hold_the_bound():
    cache = SchedulerDeltaCache(maxsize=MAXSIZE)

    def put(thread: int, i: int) -> None:
        cache.store(("scheduler", thread), i, (i,))

    assert _hammer(put) == []
    assert len(cache._table) <= MAXSIZE


def test_bounded_put_evicts_oldest_first_and_overwrites_in_place():
    table: dict = {}
    for key in "abcd":
        bounded_put(table, key, key.upper(), 3)
    assert list(table) == ["b", "c", "d"]
    bounded_put(table, "c", "overwritten", 3)
    assert list(table) == ["b", "c", "d"] and table["c"] == "overwritten"
    bounded_put(table, "e", "E", None)
    assert list(table) == ["b", "c", "d", "e"]
