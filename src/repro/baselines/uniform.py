"""Uniform fixed-probability broadcast.

The simplest fixed strategy: while active, transmit with one constant
probability ``p`` every round.  With ``p = Θ(1/Δ)`` this is the textbook
symmetry-breaking strategy for known contention; like Decay it is oblivious to
the link scheduler and therefore a useful baseline for experiment E6 and the
lower-bound context experiment E7.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.baselines.base import BaselineBroadcastProcess
from repro.simulation.process import ProcessContext


class UniformProcess(BaselineBroadcastProcess):
    """A node broadcasting with a single fixed probability while active.

    Parameters
    ----------
    probability:
        The per-round broadcast probability; defaults to ``1/Δ``.
    active_rounds:
        Rounds to stay active per message before acknowledging; defaults to
        ``4 * Δ`` (enough for the expected ``Δ`` successes needed in a clique
        plus slack).
    """

    def __init__(
        self,
        ctx: ProcessContext,
        probability: float = None,
        active_rounds: int = None,
    ) -> None:
        if probability is None:
            probability = 1.0 / max(ctx.delta, 1)
        if not 0.0 < probability <= 1.0:
            raise ValueError(f"probability must be in (0, 1], got {probability}")
        if active_rounds is None:
            active_rounds = 4 * max(ctx.delta, 1)
        super().__init__(ctx, active_rounds=active_rounds)
        self.probability = float(probability)

    def transmission_probability(self, active_round_index: int) -> float:
        return self.probability

    def probability_cycle(self) -> Optional[Tuple[float, ...]]:
        if type(self) is not UniformProcess:
            return None
        return (self.probability,)
