"""The Decay broadcast strategy (Bar-Yehuda, Goldreich, Itai 1992).

Decay is the canonical fixed-schedule strategy referenced in the paper's
introduction: an active node cycles deterministically through geometrically
decreasing broadcast probabilities ``1/2, 1/4, ..., 1/Δ``.  The intuition is
that for each receiver, one of these probabilities matches the local
contention -- which works in the static radio model but is exactly what an
oblivious dual graph link scheduler can defeat by raising contention when the
schedule picks high probabilities and starving the receiver when it picks low
ones (see :class:`repro.dualgraph.adversary.AntiScheduleAdversary` and
experiment E6).
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

from repro.baselines.base import BaselineBroadcastProcess
from repro.simulation.process import ProcessContext


def decay_schedule(delta: int) -> List[float]:
    """The probability cycle ``[1/2, 1/4, ..., 1/2^{ceil(log2 Δ)}]``."""
    if delta < 1:
        raise ValueError("Delta must be at least 1")
    length = max(1, math.ceil(math.log2(max(delta, 2))))
    return [2.0 ** (-(i + 1)) for i in range(length)]


class DecayProcess(BaselineBroadcastProcess):
    """A node running Decay for local broadcast.

    Parameters
    ----------
    ctx:
        The process context; the schedule length is ``ceil(log2 Δ)``.
    num_cycles:
        How many full probability cycles to run per message before
        acknowledging.  The classic analysis uses ``O(log(1/ε))`` cycles to
        drive the per-receiver failure probability below ε (in the static
        model); experiments vary it.
    """

    def __init__(self, ctx: ProcessContext, num_cycles: int = 8) -> None:
        if num_cycles < 1:
            raise ValueError("num_cycles must be at least 1")
        self._schedule = decay_schedule(ctx.delta)
        super().__init__(ctx, active_rounds=num_cycles * len(self._schedule))
        self.num_cycles = int(num_cycles)

    @property
    def schedule(self) -> List[float]:
        """The per-round probability cycle used by this node."""
        return list(self._schedule)

    @property
    def cycle_length(self) -> int:
        return len(self._schedule)

    def transmission_probability(self, active_round_index: int) -> float:
        position = (active_round_index - 1) % len(self._schedule)
        return self._schedule[position]

    def probability_cycle(self) -> Optional[Tuple[float, ...]]:
        if type(self) is not DecayProcess:
            return None
        return tuple(self._schedule)
