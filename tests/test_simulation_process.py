"""Unit tests for the process automaton interface."""

import random

import pytest

from repro.core.events import RecvOutput
from repro.core.messages import make_message
from repro.simulation.process import Process, ProcessContext, SilentProcess


class TestProcessContext:
    def test_process_id_defaults_to_vertex(self):
        ctx = ProcessContext(vertex=7, delta=3, delta_prime=5)
        assert ctx.process_id == 7

    def test_explicit_process_id(self):
        ctx = ProcessContext(vertex=7, delta=3, delta_prime=5, process_id="p7")
        assert ctx.process_id == "p7"

    def test_rejects_bad_delta(self):
        with pytest.raises(ValueError):
            ProcessContext(vertex=0, delta=0, delta_prime=2)

    def test_rejects_delta_prime_below_delta(self):
        with pytest.raises(ValueError):
            ProcessContext(vertex=0, delta=4, delta_prime=3)

    def test_rejects_r_below_one(self):
        with pytest.raises(ValueError):
            ProcessContext(vertex=0, delta=2, delta_prime=2, r=0.5)

    def test_rng_is_usable(self):
        ctx = ProcessContext(vertex=0, delta=2, delta_prime=2, rng=random.Random(1))
        assert 0.0 <= ctx.rng.random() < 1.0


class TestProcessBase:
    def test_silent_process_never_transmits(self):
        ctx = ProcessContext(vertex=0, delta=2, delta_prime=2)
        process = SilentProcess(ctx)
        for round_number in range(1, 10):
            assert process.transmit(round_number) is None

    def test_emit_and_drain_outputs(self):
        ctx = ProcessContext(vertex=0, delta=2, delta_prime=2)
        process = SilentProcess(ctx)
        event = RecvOutput(vertex=0, message=make_message(1), round_number=3)
        process.emit(event)
        assert process.drain_outputs() == [event]
        # Draining clears the buffer.
        assert process.drain_outputs() == []

    def test_convenience_properties(self):
        ctx = ProcessContext(vertex="v", delta=2, delta_prime=2, process_id="pid")
        process = SilentProcess(ctx)
        assert process.vertex == "v"
        assert process.process_id == "pid"
        assert process.rng is ctx.rng

    def test_default_hooks_are_noops(self):
        ctx = ProcessContext(vertex=0, delta=2, delta_prime=2)
        process = SilentProcess(ctx)
        process.on_input(1, make_message(0))
        process.on_receive(1, None)
        assert process.drain_outputs() == []

    def test_abstract_base_cannot_be_instantiated(self):
        ctx = ProcessContext(vertex=0, delta=2, delta_prime=2)
        with pytest.raises(TypeError):
            Process(ctx)

    def test_repr_mentions_vertex(self):
        ctx = ProcessContext(vertex=42, delta=2, delta_prime=2)
        assert "42" in repr(SilentProcess(ctx))
