"""Tests for the seed-reuse variant of LBAlg (the Section 4.2 remark).

Running seed agreement less frequently must not break any deterministic
property of the service; it only changes how many rounds are spent in
preambles.  These tests check the reuse mechanics at the process level and
the end-to-end spec compliance of reusing runs.
"""

import random

import pytest

from repro import (
    IIDScheduler,
    LBParams,
    SaturatingEnvironment,
    Simulator,
    SingleShotEnvironment,
    check_lb_execution,
    make_lb_processes,
    random_geographic_network,
)
from repro.core.local_broadcast import LocalBroadcastProcess
from repro.core.messages import Message
from repro.core.seed_agreement import SeedFrame
from repro.simulation.metrics import progress_report
from repro.simulation.process import ProcessContext


@pytest.fixture
def params():
    return LBParams.small_for_testing(delta=8, delta_prime=16, tprog=12, tack_phases=2,
                                      seed_phase_length=4)


def make_process(params, reuse, seed=0):
    ctx = ProcessContext(vertex=0, delta=params.delta, delta_prime=params.delta_prime,
                         rng=random.Random(seed))
    return LocalBroadcastProcess(ctx, params, seed_reuse_phases=reuse)


def drive(process, params, start, end):
    transmitted = {}
    for round_number in range(start, end + 1):
        frame = process.transmit(round_number)
        if frame is not None:
            transmitted[round_number] = frame
        process.on_receive(round_number, None)
    return transmitted


class TestReuseMechanics:
    @pytest.mark.parametrize("reuse", [0, -1, 2.5, True, "2"])
    def test_reuse_factor_validation(self, params, reuse):
        # int() would silently truncate 2.5 to 2 (a different run under the
        # manifest's fingerprint); bool and str are not reuse factors either.
        with pytest.raises(ValueError, match="seed_reuse_phases must be an integer of at least 1"):
            make_process(params, reuse=reuse)

    def test_default_is_fresh_seed_every_phase(self, params):
        process = make_process(params, reuse=1)
        assert process.seed_reuse_phases == 1

    def test_preamble_of_reused_phase_is_silent(self, params):
        process = make_process(params, reuse=2, seed=5)
        # Phase 1: normal preamble (the seed subroutine may transmit).
        drive(process, params, 1, params.phase_length)
        # Phase 2: reused seed -- no seed frames may be transmitted during the
        # preamble rounds.
        transmitted = drive(
            process, params, params.phase_length + 1, params.phase_length + params.ts
        )
        assert not any(isinstance(f, SeedFrame) for f in transmitted.values())

    def test_reused_phase_keeps_the_committed_seed(self, params):
        process = make_process(params, reuse=3, seed=7)
        drive(process, params, 1, params.phase_length)
        first = process.committed_phase_seed
        drive(process, params, params.phase_length + 1, 2 * params.phase_length)
        assert process.committed_phase_seed == first

    def test_fresh_seed_run_happens_again_after_reuse_window(self, params):
        process = make_process(params, reuse=2, seed=9)
        # Phases 1 (fresh), 2 (reuse), 3 (fresh again): during phase 3's
        # preamble the subroutine exists again.
        drive(process, params, 1, 2 * params.phase_length)
        process.transmit(2 * params.phase_length + 1)
        assert process._seed_subroutine is not None

    def test_bit_stream_continues_across_reused_phases(self, params):
        process = make_process(params, reuse=2, seed=11)
        process.on_input(1, Message(origin=0, sequence=0))
        drive(process, params, 1, 2 * params.phase_length)
        # Two phases of body rounds consumed from a single stream: more bits
        # than one phase alone could consume, and possibly beyond kappa
        # (allowed -- the stream extends deterministically).
        assert process.stats_max_bits_consumed > params.tprog * params.participant_bits // 2


class TestReuseEndToEnd:
    @pytest.fixture
    def network(self):
        return random_geographic_network(14, side=3.2, rng=13, require_connected=True)

    @pytest.mark.parametrize("reuse", [1, 2, 4])
    def test_deterministic_conditions_hold_for_every_reuse_factor(self, network, reuse):
        graph, _ = network
        delta, delta_prime = graph.degree_bounds()
        params = LBParams.small_for_testing(
            delta=delta, delta_prime=delta_prime, tprog=60, tack_phases=3, seed_phase_length=6
        )
        simulator = Simulator(
            graph,
            make_lb_processes(graph, params, random.Random(1), seed_reuse_phases=reuse),
            scheduler=IIDScheduler(graph, probability=0.5, seed=1),
            environment=SingleShotEnvironment(senders=[0, 1]),
        )
        trace = simulator.run(params.tack_rounds)
        report = check_lb_execution(trace, graph, params.tack_rounds, params.tprog_rounds,
                                    check_progress=False)
        assert report.timely_ack_ok, report.timely_ack_violations
        assert report.validity_ok, report.validity_violations

    def test_reuse_does_not_collapse_progress(self, network):
        graph, _ = network
        delta, delta_prime = graph.degree_bounds()
        params = LBParams.derive(0.2, delta=delta, delta_prime=delta_prime)
        simulator = Simulator(
            graph,
            make_lb_processes(graph, params, random.Random(2), seed_reuse_phases=3),
            scheduler=IIDScheduler(graph, probability=0.5, seed=2),
            environment=SaturatingEnvironment(senders=[0]),
        )
        trace = simulator.run(5 * params.phase_length)
        report = progress_report(trace, graph, window=params.tprog_rounds)
        assert report.num_applicable > 0
        assert report.failure_rate <= params.epsilon + 0.2
