"""The ``Seed(δ, ε)`` specification checker (Section 3.1).

The specification has two non-probabilistic conditions checked per execution
and two probabilistic conditions checked across executions:

1. **Well-formedness** -- every vertex outputs exactly one ``decide``.
2. **Consistency** -- two decisions naming the same owner name the same seed.
3. **Agreement** -- for each vertex ``u``, the number of distinct owners
   decided in ``N_G'(u) ∪ {u}`` is at most δ; must hold with probability at
   least 1 − ε over executions.
4. **Independence** -- conditioned on the owner mapping, seed values are
   independent and uniform over the seed domain.

:func:`check_seed_execution` evaluates conditions 1-3 on one trace and reports
per-vertex agreement counts so callers can estimate the condition-3 error rate
empirically across many traces.  Condition 4 is distributional;
:func:`owner_seed_pairs` extracts the data that the statistical tests (and the
E1 benchmark) feed into frequency checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Mapping, Optional, Tuple

from repro.dualgraph.graph import DualGraph
from repro.simulation.metrics import unique_seed_owner_counts
from repro.simulation.trace import ExecutionTrace

Vertex = Hashable


@dataclass
class SeedSpecReport:
    """Result of checking one execution against ``Seed(δ, ε)``.

    Attributes
    ----------
    delta_bound:
        The δ against which agreement was checked.
    well_formedness_violations:
        Human-readable description of vertices with zero or multiple decides.
    consistency_violations:
        Owners that appear with two or more distinct seed values.
    agreement_counts:
        Per-vertex number of distinct owners decided in the closed G'
        neighborhood.
    agreement_violations:
        Vertices whose count exceeds δ.
    """

    delta_bound: int
    well_formedness_violations: List[str] = field(default_factory=list)
    consistency_violations: List[str] = field(default_factory=list)
    agreement_counts: Dict[Vertex, int] = field(default_factory=dict)
    agreement_violations: List[Vertex] = field(default_factory=list)

    @property
    def well_formed(self) -> bool:
        return not self.well_formedness_violations

    @property
    def consistent(self) -> bool:
        return not self.consistency_violations

    @property
    def agreement_ok(self) -> bool:
        return not self.agreement_violations

    @property
    def ok(self) -> bool:
        """All checked (non-probabilistic and per-execution agreement) conditions hold."""
        return self.well_formed and self.consistent and self.agreement_ok

    @property
    def max_agreement_count(self) -> int:
        """The largest neighborhood owner count observed (0 if no decisions)."""
        if not self.agreement_counts:
            return 0
        return max(self.agreement_counts.values())

    def agreement_failure_fraction(self) -> float:
        """Fraction of vertices violating the δ bound in this execution."""
        if not self.agreement_counts:
            return 0.0
        return len(self.agreement_violations) / len(self.agreement_counts)


def check_seed_execution(
    trace: ExecutionTrace,
    graph: DualGraph,
    delta_bound: int,
    restrict_to: Optional[List[Vertex]] = None,
) -> SeedSpecReport:
    """Check one execution trace against the ``Seed(δ, ε)`` conditions 1-3.

    Parameters
    ----------
    delta_bound:
        The δ to check the agreement condition against (typically
        ``SeedParams.delta_bound`` or an empirical target).
    restrict_to:
        Optionally check well-formedness/agreement only for these vertices
        (used when only part of the network runs the algorithm).
    """
    return seed_spec_report(
        trace, graph, delta_bound, unique_seed_owner_counts(trace, graph), restrict_to
    )


def seed_spec_report(
    trace: ExecutionTrace,
    graph: DualGraph,
    delta_bound: int,
    owner_counts: Mapping[Vertex, int],
    restrict_to: Optional[List[Vertex]] = None,
) -> SeedSpecReport:
    """:func:`check_seed_execution` on ``owner_counts``, the trace's
    :func:`repro.simulation.metrics.unique_seed_owner_counts` (so a caller
    that already has them counts once)."""
    report = SeedSpecReport(delta_bound=delta_bound)
    vertices = list(restrict_to) if restrict_to is not None else sorted(graph.vertices, key=repr)
    decides = trace.decides_by_vertex()

    # 1. Well-formedness: exactly one decide per vertex.
    for u in vertices:
        events = decides.get(u, [])
        if len(events) == 0:
            report.well_formedness_violations.append(f"vertex {u!r} never decided")
        elif len(events) > 1:
            report.well_formedness_violations.append(
                f"vertex {u!r} decided {len(events)} times"
            )

    # 2. Consistency: one seed value per owner.
    seeds_per_owner: Dict[Hashable, set] = {}
    for events in decides.values():
        for ev in events:
            seeds_per_owner.setdefault(ev.owner, set()).add(ev.seed)
    for owner, seeds in sorted(seeds_per_owner.items(), key=lambda kv: repr(kv[0])):
        if len(seeds) > 1:
            report.consistency_violations.append(
                f"owner {owner!r} appears with {len(seeds)} distinct seeds"
            )

    # 3. Agreement: distinct owners in each closed G' neighborhood.
    report.agreement_counts = {u: owner_counts[u] for u in vertices}
    report.agreement_violations = [u for u in vertices if owner_counts[u] > delta_bound]
    return report


def owner_seed_pairs(trace: ExecutionTrace) -> List[Tuple[Hashable, int]]:
    """The distinct ``(owner, seed)`` pairs decided in an execution.

    By the consistency condition each owner maps to one seed; the list is the
    raw material for the independence/uniformity statistics (condition 4):
    across many executions, each owner's seed should look uniform over the
    seed domain and independent across owners.
    """
    pairs = {}
    for ev in trace.decide_outputs:
        pairs.setdefault(ev.owner, ev.seed)
    return sorted(pairs.items(), key=lambda kv: repr(kv[0]))


def decide_latency_rounds(trace: ExecutionTrace) -> Dict[Vertex, int]:
    """Round in which each vertex committed (for the Theorem 3.1 runtime claim)."""
    latencies: Dict[Vertex, int] = {}
    for ev in trace.decide_outputs:
        if ev.vertex not in latencies or ev.round_number < latencies[ev.vertex]:
            latencies[ev.vertex] = ev.round_number
    return latencies
