"""Property-based tests (hypothesis) for the core algorithms and checkers."""

import random
from types import SimpleNamespace
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import seed_groups
from repro.core.constants import ParamMode
from repro.core.params import LBParams, SeedParams
from repro.core.seed_agreement import SeedAgreementProcess
from repro.core.seed_groups import LocalBroadcastBatchDriver, _SeedCohort
from repro.core.seed_spec import check_seed_execution
from repro.core.seedbits import SeedBitStream
from repro.dualgraph.adversary import IIDScheduler
from repro.dualgraph.generators import random_geographic_network
from repro.simulation.engine import Simulator
from repro.simulation.process import ProcessContext


# ----------------------------------------------------------------------
# SeedBitStream properties
# ----------------------------------------------------------------------
class TestSeedBitStreamProperties:
    @given(st.integers(min_value=0, max_value=2 ** 64 - 1), st.lists(st.integers(1, 12), min_size=1, max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_same_seed_same_bits_regardless_of_chunking(self, seed, widths):
        a = SeedBitStream(seed, kappa=64)
        b = SeedBitStream(seed, kappa=64)
        bits_a = []
        for width in widths:
            bits_a.extend(a.consume_bits(width))
        bits_b = b.consume_bits(sum(widths))
        assert bits_a == bits_b

    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_initial_bits_reconstruct_the_seed(self, seed):
        stream = SeedBitStream(seed, kappa=32)
        assert stream.consume_int(32) == seed

    @given(st.integers(min_value=0, max_value=2 ** 16 - 1),
           st.integers(min_value=1, max_value=10),
           st.integers(min_value=1, max_value=8))
    @settings(max_examples=60, deadline=None)
    def test_uniform_index_always_in_range(self, seed, modulus, width):
        stream = SeedBitStream(seed, kappa=16)
        for _ in range(5):
            assert 0 <= stream.consume_uniform_index(modulus, width) < modulus

    @given(st.integers(min_value=0, max_value=2 ** 16 - 1), st.integers(min_value=1, max_value=500))
    @settings(max_examples=40, deadline=None)
    def test_bits_consumed_accounting(self, seed, total):
        stream = SeedBitStream(seed, kappa=16)
        stream.consume_bits(total)
        assert stream.bits_consumed == total


# ----------------------------------------------------------------------
# batched body schedule: flush arithmetic vs per-round stepping
# ----------------------------------------------------------------------
class TestBodyFlushProperties:
    @given(
        st.integers(min_value=0, max_value=2 ** 64 - 1),
        st.integers(min_value=0, max_value=400),
        st.sampled_from([2, 4, 8, 16, 64]),
        st.sampled_from([0.05, 0.2, 0.5]),
        st.integers(min_value=1, max_value=60),
        st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_flush_matches_round_by_round_stream(
        self, seed, start_cursor, delta, epsilon, rounds, data
    ):
        """The cursor skip and participant count the batch driver derives
        from a cohort's sparse decoded schedule equal what a stream stepped
        round by round with ``LocalBroadcastProcess.transmit``'s draws
        consumed, for a fresh decode and for a decode-cache hit alike."""
        params = LBParams.small_for_testing(delta=delta, epsilon=epsilon)
        elapsed = data.draw(st.integers(min_value=0, max_value=rounds))
        shadow = SeedBitStream(seed, params.kappa)
        shadow.skip(start_cursor)
        participants = []
        for served in range(elapsed):
            if shadow.consume_all_zero(params.participant_bits):
                b_index = shadow.consume_uniform_index(
                    params.log_delta, params.b_selection_bits
                )
                participants.append((served, b_index + 1))
        expected_cursor = shadow.bits_consumed
        next_bits = shadow.consume_int(64)

        with mock.patch.dict(seed_groups._DECODE_CACHE, clear=True):
            decoded = []
            for _ in ("fresh", "cached"):
                stream = SeedBitStream(seed, params.kappa)
                stream.skip(start_cursor)
                member = SimpleNamespace(
                    _seed_stream=stream,
                    stats_body_rounds_sending=0,
                    stats_participant_rounds=0,
                    stats_max_bits_consumed=start_cursor,
                )
                cohort = _SeedCohort(seed, start_cursor)
                cohort.members.append(member)
                cohort.bulk_decode(params, rounds)
                decoded.append(cohort.active)
                driver = LocalBroadcastBatchDriver(params)
                driver._cohorts = [cohort]
                driver._body_rounds_elapsed = elapsed
                driver.flush_kernel_state()

                assert cohort.active[: len(participants)] == participants
                assert stream.bits_consumed == expected_cursor
                assert stream.consume_int(64) == next_bits
                assert member.stats_participant_rounds == len(participants)
                assert member.stats_body_rounds_sending == elapsed
                assert member.stats_max_bits_consumed == expected_cursor
            assert len(seed_groups._DECODE_CACHE) == 1
            assert decoded[1] is decoded[0]


# ----------------------------------------------------------------------
# parameter calculus properties
# ----------------------------------------------------------------------
class TestParamProperties:
    @given(st.floats(min_value=0.01, max_value=0.4), st.integers(min_value=1, max_value=256))
    @settings(max_examples=60, deadline=None)
    def test_seed_params_always_well_formed(self, epsilon, delta):
        params = SeedParams.derive(epsilon, delta)
        assert params.num_phases >= 1
        assert params.phase_length >= 1
        assert 0 < params.leader_broadcast_probability <= 1
        assert params.total_rounds == params.num_phases * params.phase_length
        probabilities = [
            params.leader_election_probability(h) for h in range(1, params.num_phases + 1)
        ]
        assert all(0 < p <= 0.5 for p in probabilities)
        assert probabilities == sorted(probabilities)

    @given(st.floats(min_value=0.01, max_value=0.4),
           st.integers(min_value=1, max_value=64),
           st.integers(min_value=0, max_value=64))
    @settings(max_examples=60, deadline=None)
    def test_lb_params_always_well_formed(self, epsilon, delta, extra):
        params = LBParams.derive(epsilon, delta=delta, delta_prime=delta + extra)
        assert params.phase_length == params.ts + params.tprog
        assert params.tack_rounds >= params.tprog_rounds >= 1
        assert params.kappa >= params.tprog * (
            params.participant_bits + params.b_selection_bits
        )
        assert 0 < params.participant_probability <= 0.5
        # Round/phase arithmetic is consistent.
        for round_number in (1, params.phase_length, params.phase_length + 1):
            phase, offset = params.phase_position(round_number)
            assert 1 <= offset <= params.phase_length
            assert params.is_preamble(offset) != params.is_body(offset)

    @given(st.floats(min_value=0.01, max_value=0.4), st.integers(min_value=2, max_value=64))
    @settings(max_examples=30, deadline=None)
    def test_paper_mode_never_shorter_than_simulation_mode(self, epsilon, delta):
        paper = SeedParams.derive(epsilon, delta, mode=ParamMode.PAPER)
        simulation = SeedParams.derive(epsilon, delta, mode=ParamMode.SIMULATION)
        assert paper.total_rounds >= simulation.total_rounds


# ----------------------------------------------------------------------
# SeedAlg end-to-end properties on random networks
# ----------------------------------------------------------------------
class TestSeedAlgProperties:
    @given(
        st.integers(min_value=4, max_value=14),
        st.integers(min_value=0, max_value=10 ** 6),
        st.floats(min_value=0.1, max_value=0.3),
    )
    @settings(max_examples=15, deadline=None)
    def test_well_formedness_and_consistency_for_arbitrary_networks(self, n, seed, epsilon):
        graph, _ = random_geographic_network(n, side=3.0, rng=seed)
        params = SeedParams.derive(epsilon, delta=graph.max_reliable_degree,
                                   phase_length_override=5)
        master = random.Random(seed)
        delta, delta_prime = graph.degree_bounds()
        processes = {}
        for vertex in sorted(graph.vertices):
            ctx = ProcessContext(vertex=vertex, delta=delta, delta_prime=delta_prime,
                                 rng=random.Random(master.getrandbits(64)))
            processes[vertex] = SeedAgreementProcess(ctx, params)
        simulator = Simulator(
            graph, processes, scheduler=IIDScheduler(graph, probability=0.5, seed=seed)
        )
        trace = simulator.run(params.total_rounds)
        report = check_seed_execution(trace, graph, delta_bound=graph.n + 1)
        # Well-formedness and consistency are non-probabilistic: they must hold
        # for every network, every seed, every epsilon.
        assert report.well_formed, report.well_formedness_violations
        assert report.consistent, report.consistency_violations
        # Every decided owner is a real vertex.
        for event in trace.decide_outputs:
            assert event.owner in graph.vertices
