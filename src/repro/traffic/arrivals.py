"""Deterministic, seed-derived arrival processes for queue-backed workloads.

An :class:`ArrivalProcess` decides, per round, how many new messages each
source vertex wants to enqueue.  Randomized processes draw their bits from
:class:`~repro.core.seedbits.SeedBitStream` -- one independent stream per
source vertex, seeded by a SHA-256 derivation of ``(seed, vertex)`` -- so the
whole arrival sequence is a pure function of the spec-level seed, identical
across engine lanes, worker processes, and platforms.

Three views exist on every process:

* :meth:`ArrivalProcess.arrivals_for_round` -- the realized arrivals.  Rounds
  must be consumed **in order** (the environment does; streams advance one
  fixed-width draw per source per round), which is what keeps the realization
  deterministic regardless of which engine lane runs the round loop.
  Streamed processes decode a window of rounds per source in one stream read
  (the same bits, in the same order, as one draw per round) and serve later
  rounds from that schedule;
* :meth:`ArrivalProcess.next_arrival` -- a peek at the next round with an
  arrival at an idle vertex, which lets the queued environment skip the
  rounds in between.  It consumes nothing: every round is still realized by
  :meth:`~ArrivalProcess.arrivals_for_round`, in order.
* :meth:`ArrivalProcess.expected_rate` -- the *a-priori* per-round arrival
  rate forecast for one vertex.  This consumes no stream bits; traffic-aware
  schedulers (:mod:`repro.traffic.schedulers`) use it to size their slot
  frames before the run starts, mirroring how TASA derives a slot schedule
  from declared traffic demands rather than observed queues.
"""

from __future__ import annotations

import hashlib
import sys
from abc import ABC, abstractmethod
from array import array
from bisect import bisect_left
from typing import Any, Container, Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

from repro.core.seedbits import SeedBitStream

Vertex = Hashable

#: Width of one Bernoulli draw: 16 bits compared against ``rate * 2**16``.
_RATE_BITS = 16
_RATE_SCALE = 1 << _RATE_BITS
#: Rounds a streamed source decodes per stream read: one ``consume_int`` of
#: ``_RATE_BITS * _WINDOW`` bits yields the same draws as ``_WINDOW`` reads of
#: ``_RATE_BITS`` (streams are MSB-first), split by an ``array("H")``.
_WINDOW = 64
_SWAP_DRAWS = sys.byteorder == "little"
#: Initial seed bits per per-vertex stream; exhaustion extends via the
#: stream's deterministic SHA-256 extension blocks.
_STREAM_KAPPA = 256


def derive_stream_seed(seed: int, vertex: Vertex, salt: str = "arrival") -> int:
    """A per-vertex stream seed from the process seed, via SHA-256.

    Hashing ``repr(vertex)`` keeps the derivation independent of Python's
    randomized object hashing, so streams agree across processes.  The full
    256-bit digest is returned so it fills a κ=256 :class:`SeedBitStream`
    completely -- a narrower value would leave the stream's leading bits all
    zero and bias every early Bernoulli draw toward firing.
    """
    digest = hashlib.sha256(
        f"traffic-{salt}|{int(seed)}|{vertex!r}".encode()
    ).digest()
    return int.from_bytes(digest, "big")


def _threshold(rate: float) -> int:
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"arrival rate must be in [0, 1], got {rate!r}")
    return int(round(rate * _RATE_SCALE))


class ArrivalProcess(ABC):
    """Base class: per-round arrival counts for an ordered set of sources."""

    def __init__(self, sources: Sequence[Vertex], sinks: Sequence[Vertex], seed: int) -> None:
        self._sources: Tuple[Vertex, ...] = tuple(sources)
        self._sinks: Tuple[Vertex, ...] = tuple(sinks)
        self._seed = int(seed)
        self._next_round = 1

    @property
    def sources(self) -> Tuple[Vertex, ...]:
        """The vertices that may generate traffic, in submission order."""
        return self._sources

    @property
    def sinks(self) -> Tuple[Vertex, ...]:
        """Designated collection points (used by convergecast and schedulers)."""
        return self._sinks

    @property
    def seed(self) -> int:
        return self._seed

    def arrivals_for_round(self, round_number: int) -> List[Tuple[Vertex, int]]:
        """Realized ``(vertex, count)`` arrivals for one round.

        Rounds must be consumed sequentially starting at 1 -- each call
        advances the per-vertex bit streams by exactly one draw, which is the
        discipline that makes the realization a pure function of the seed.
        """
        if round_number != self._next_round:
            raise ValueError(
                f"arrival rounds must be consumed in order: expected round "
                f"{self._next_round}, got {round_number}"
            )
        self._next_round += 1
        return self._arrivals(round_number)

    def next_arrival(self, round_number: int, busy: Container[Vertex]) -> Optional[int]:
        """A round at or before the first round ``>= round_number`` with an
        arrival at a vertex not in ``busy``, or ``None`` when no round has one.

        ``round_number`` is a round not consumed yet.  The answer is a peek:
        it realizes nothing, and :meth:`arrivals_for_round` still has to be
        called for every round in order, the skipped ones included.  This
        default, ``round_number``, never lets a caller skip.
        """
        return round_number

    @abstractmethod
    def _arrivals(self, round_number: int) -> List[Tuple[Vertex, int]]:
        """Subclass hook: the round's ``(vertex, count)`` pairs, sources order."""

    @abstractmethod
    def expected_rate(self, vertex: Vertex) -> float:
        """A-priori expected arrivals per round at ``vertex`` (no stream use)."""


class _StreamedArrivals(ArrivalProcess):
    """Shared machinery for processes that draw one Bernoulli bit per source
    per round: a source has an arrival when its 16-bit draw is below
    ``rate * 2**16``.

    Draws are decoded ahead, :data:`_WINDOW` rounds per source per stream
    read, into a round -> ``[(vertex, 1), ...]`` schedule in source order;
    rounds are served from it in order, and peeks read it without consuming.
    """

    def __init__(self, sources, sinks, seed, rate: float) -> None:
        super().__init__(sources, sinks, seed)
        self._rate = float(rate)
        self._cut = _threshold(self._rate)
        self._streams: Dict[Vertex, SeedBitStream] = {
            vertex: SeedBitStream(derive_stream_seed(seed, vertex), _STREAM_KAPPA)
            for vertex in self._sources
        }
        self._schedule: Dict[int, List[Tuple[Vertex, int]]] = {}
        #: Every decoded round with an arrival, ascending.
        self._arrival_rounds: List[int] = []
        #: The last decoded round.
        self._decoded = 0

    def _decode_to(self, round_number: int) -> None:
        """Decode whole windows until ``round_number`` is decoded."""
        cut = self._cut
        while self._decoded < round_number:
            first = self._decoded + 1
            window: Dict[int, List[Tuple[Vertex, int]]] = {}
            # Every stream advances every round, arrival or not: the
            # realization at one vertex never depends on which other vertices
            # exist.
            for vertex in self._sources:
                raw = self._streams[vertex].consume_int(_RATE_BITS * _WINDOW)
                draws = array("H", raw.to_bytes(2 * _WINDOW, "big"))
                if _SWAP_DRAWS:
                    draws.byteswap()
                arrival = (vertex, 1)
                for offset in [i for i, draw in enumerate(draws) if draw < cut]:
                    window.setdefault(first + offset, []).append(arrival)
            self._schedule.update(window)
            self._arrival_rounds.extend(sorted(window))
            self._decoded += _WINDOW

    def _arrivals(self, round_number: int) -> List[Tuple[Vertex, int]]:
        if round_number > self._decoded:
            self._decode_to(round_number)
        return self._schedule.pop(round_number, [])

    def next_arrival(self, round_number: int, busy: Container[Vertex]) -> Optional[int]:
        """The first decoded round ``>= round_number`` with an arrival at a
        vertex not in ``busy``, else the first round past the decoded window
        (``None`` only at rate 0)."""
        if not self._cut:
            return None
        self._decode_to(round_number)
        schedule = self._schedule
        rounds = self._arrival_rounds
        for i in range(bisect_left(rounds, round_number), len(rounds)):
            arrival_round = rounds[i]
            for vertex, _ in schedule.get(arrival_round, ()):
                if vertex not in busy:
                    return arrival_round
        return self._decoded + 1

    def expected_rate(self, vertex: Vertex) -> float:
        return self._rate if vertex in self._streams else 0.0


class PoissonArrivals(_StreamedArrivals):
    """Bernoulli thinning of the round clock -- the discrete Poisson analogue.

    Each source independently generates one message per round with
    probability ``rate``; inter-arrival gaps are geometric, the discrete
    limit of exponential inter-arrival times.
    """

    def __init__(self, sources, sinks, seed, rate: float = 0.1) -> None:
        super().__init__(sources, sinks, seed, rate)


class _PhasedArrivals(ArrivalProcess):
    """``count`` messages per source every ``period`` rounds, at a per-source
    phase offset (a stable hash of its identity with ``stagger``, else 0)."""

    def __init__(self, sources, sinks, seed, period: int, count: int, stagger: bool) -> None:
        super().__init__(sources, sinks, seed)
        self._period = int(period)
        self._count = int(count)
        self._offsets: Dict[Vertex, int] = {
            v: derive_stream_seed(seed, v, salt="offset") % self._period if stagger else 0
            for v in self._sources
        }

    def _arrivals(self, round_number: int) -> List[Tuple[Vertex, int]]:
        phase = (round_number - 1) % self._period
        return [(v, self._count) for v in self._sources if self._offsets[v] == phase]

    def next_arrival(self, round_number: int, busy: Container[Vertex]) -> Optional[int]:
        period = self._period
        phase = (round_number - 1) % period
        gaps = [
            (offset - phase) % period for v, offset in self._offsets.items() if v not in busy
        ]
        return round_number + min(gaps) if gaps else None

    def expected_rate(self, vertex: Vertex) -> float:
        return self._count / self._period if vertex in self._offsets else 0.0


class PeriodicArrivals(_PhasedArrivals):
    """One message per source every ``period`` rounds, optionally staggered.

    With ``stagger`` (the default) each source's phase offset is a stable
    hash of its identity, spreading submissions across the period instead of
    synchronizing every queue.
    """

    def __init__(self, sources, sinks, seed, period: int = 10, stagger: bool = True) -> None:
        if period < 1:
            raise ValueError("period must be at least 1 round")
        super().__init__(sources, sinks, seed, period, 1, stagger)


class BurstyArrivals(_PhasedArrivals):
    """``burst`` messages land at once every ``period`` rounds (backlog bursts).

    Unlike :class:`~repro.simulation.environment.BurstyEnvironment` (which
    drops attempts while a node is busy), the queued environment retains the
    whole burst as backlog, so burst size directly probes queue drain rates.
    """

    def __init__(
        self, sources, sinks, seed, burst: int = 4, period: int = 20, stagger: bool = True
    ) -> None:
        if period < 1:
            raise ValueError("period must be at least 1 round")
        if burst < 1:
            raise ValueError("burst must be at least 1 message")
        super().__init__(sources, sinks, seed, period, burst, stagger)


class ConvergecastArrivals(_StreamedArrivals):
    """Poisson-like arrivals at every source *except* the sinks.

    The convergecast workload of sensor-network data collection: leaves
    generate, sinks only receive.  Requires at least one sink.
    """

    def __init__(self, sources, sinks, seed, rate: float = 0.1) -> None:
        if not sinks:
            raise ValueError("convergecast arrivals need at least one sink")
        sink_set = set(sinks)
        generating = [v for v in sources if v not in sink_set]
        super().__init__(generating, sinks, seed, rate)


#: Arrival kind name -> class, the namespace :class:`ArrivalSpec` names.
ARRIVAL_KINDS = {
    "poisson": PoissonArrivals,
    "periodic": PeriodicArrivals,
    "bursty": BurstyArrivals,
    "convergecast": ConvergecastArrivals,
}


def build_arrival_process(
    name: str,
    args: Mapping[str, Any],
    *,
    sources: Sequence[Vertex],
    sinks: Sequence[Vertex],
    seed: int,
) -> ArrivalProcess:
    """Instantiate a registered arrival kind from its spec name and args."""
    try:
        cls = ARRIVAL_KINDS[name]
    except KeyError:
        raise KeyError(
            f"unknown arrival kind {name!r}; known kinds: {sorted(ARRIVAL_KINDS)}"
        ) from None
    return cls(sources, sinks, seed, **dict(args))
