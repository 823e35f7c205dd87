"""Bounded FIFO memo tables shared across threads.

The engine and the schedulers keep process-wide memo dicts (the scheduled-edge
mask memo, the scheduler delta tables, the seed-cohort decode cache).  A
``repro serve`` process runs suites on several executor threads at once, so
two threads can reach a full table together; evicting with an unlocked
``del table[next(iter(table))]`` then lets both pick the same oldest key, and
the second ``del`` raises ``KeyError``.  Every insert into such a table goes
through :func:`bounded_put`, which evicts and inserts under one lock.  Reads
stay lock-free: a ``dict.get`` racing an eviction just sees a miss.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Hashable, Optional

_LOCK = threading.Lock()


def bounded_put(
    table: Dict[Hashable, Any], key: Hashable, value: Any, maxsize: Optional[int]
) -> None:
    """Insert ``key -> value``, first evicting the oldest entries so that
    ``len(table)`` stays at most ``maxsize`` (``None`` means unbounded).

    Re-inserting a present key overwrites it in place and evicts nothing.
    """
    with _LOCK:
        if maxsize is not None and key not in table:
            while table and len(table) >= maxsize:
                table.pop(next(iter(table)), None)
        table[key] = value
