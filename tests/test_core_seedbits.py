"""Unit tests for the shared seed bit streams."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.seedbits import SeedBitStream


class TestConstruction:
    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError):
            SeedBitStream(-1, kappa=8)

    def test_rejects_zero_kappa(self):
        with pytest.raises(ValueError):
            SeedBitStream(0, kappa=0)

    def test_rejects_seed_wider_than_kappa(self):
        with pytest.raises(ValueError):
            SeedBitStream(seed=0b10000, kappa=4)

    def test_accepts_seed_exactly_kappa_bits(self):
        stream = SeedBitStream(seed=0b1111, kappa=4)
        assert stream.consume_bits(4) == [1, 1, 1, 1]


class TestConsumption:
    def test_initial_bits_are_the_seed_msb_first(self):
        stream = SeedBitStream(seed=0b1011, kappa=4)
        assert stream.consume_bits(4) == [1, 0, 1, 1]

    def test_leading_zeros_are_preserved(self):
        stream = SeedBitStream(seed=0b0011, kappa=6)
        assert stream.consume_bits(6) == [0, 0, 0, 0, 1, 1]

    def test_consume_int(self):
        stream = SeedBitStream(seed=0b101101, kappa=6)
        assert stream.consume_int(3) == 0b101
        assert stream.consume_int(3) == 0b101

    def test_consume_all_zero(self):
        stream = SeedBitStream(seed=0b000111, kappa=6)
        assert stream.consume_all_zero(3) is True
        assert stream.consume_all_zero(3) is False

    def test_consume_zero_bits(self):
        stream = SeedBitStream(seed=5, kappa=8)
        assert stream.consume_bits(0) == []
        assert stream.consume_int(0) == 0
        assert stream.bits_consumed == 0

    def test_negative_count_rejected(self):
        stream = SeedBitStream(seed=5, kappa=8)
        with pytest.raises(ValueError):
            stream.consume_bits(-1)

    def test_bits_consumed_tracks_cursor(self):
        stream = SeedBitStream(seed=0, kappa=16)
        stream.consume_bits(3)
        stream.consume_int(5)
        assert stream.bits_consumed == 8

    def test_consume_uniform_index_in_range(self):
        stream = SeedBitStream(seed=0b111111111111, kappa=12)
        for _ in range(4):
            value = stream.consume_uniform_index(modulus=3, width=3)
            assert 0 <= value < 3

    def test_consume_uniform_index_validation(self):
        stream = SeedBitStream(seed=0, kappa=8)
        with pytest.raises(ValueError):
            stream.consume_uniform_index(modulus=0, width=3)


class TestSharedDeterminism:
    def test_equal_seeds_give_identical_streams(self):
        a = SeedBitStream(seed=0xDEADBEEF, kappa=32)
        b = SeedBitStream(seed=0xDEADBEEF, kappa=32)
        for width in (1, 3, 7, 13, 32):
            assert a.consume_int(width) == b.consume_int(width)

    def test_different_seeds_eventually_differ(self):
        a = SeedBitStream(seed=1, kappa=32)
        b = SeedBitStream(seed=2, kappa=32)
        assert a.consume_bits(32) != b.consume_bits(32)

    def test_interleaved_consumption_patterns_agree(self):
        """Two nodes sharing a seed may consume in different call granularity
        but must still see the same bit sequence overall."""
        a = SeedBitStream(seed=0b1011001110001111, kappa=16)
        b = SeedBitStream(seed=0b1011001110001111, kappa=16)
        bits_a = a.consume_bits(6) + a.consume_bits(10)
        bits_b = []
        for _ in range(16):
            bits_b.extend(b.consume_bits(1))
        assert bits_a == bits_b


class TestExtension:
    def test_extension_is_deterministic(self):
        a = SeedBitStream(seed=7, kappa=8)
        b = SeedBitStream(seed=7, kappa=8)
        assert a.consume_bits(100) == b.consume_bits(100)
        assert a.exhausted_initial_seed
        assert a.extension_blocks_used >= 1

    def test_no_extension_within_kappa(self):
        stream = SeedBitStream(seed=7, kappa=64)
        stream.consume_bits(64)
        assert not stream.exhausted_initial_seed
        assert stream.extension_blocks_used == 0

    def test_extension_differs_across_seeds(self):
        a = SeedBitStream(seed=1, kappa=4)
        b = SeedBitStream(seed=2, kappa=4)
        a.consume_bits(4)
        b.consume_bits(4)
        assert a.consume_bits(64) != b.consume_bits(64)

    def test_repr(self):
        stream = SeedBitStream(seed=7, kappa=8)
        stream.consume_bits(3)
        text = repr(stream)
        assert "kappa=8" in text and "consumed=3" in text


class _BlockAtATimeStream:
    """Oracle: the stream keeping its whole history and extending one block
    per missing 256 bits, as the extension rule reads literally."""

    def __init__(self, seed, kappa):
        self.seed, self.kappa = seed, kappa
        self.acc, self.total, self.cursor, self.blocks = seed, kappa, 0, 0

    def consume_int(self, count):
        end = self.cursor + count
        while end > self.total:
            self.blocks += 1
            payload = self.seed.to_bytes((self.kappa + 7) // 8 or 1, "big") + b"|"
            digest = hashlib.sha256(payload + str(self.blocks).encode()).digest()
            self.acc = (self.acc << 256) | int.from_bytes(digest, "big")
            self.total += 256
        self.cursor = end
        return (self.acc >> (self.total - end)) & ((1 << count) - 1)

    def skip(self, count):
        self.cursor += count


_STREAM_OPS = st.lists(
    st.tuples(st.sampled_from(["consume", "skip"]), st.integers(0, 700)), max_size=12
)


class TestBatchedExtension:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**20 - 1), kappa=st.integers(20, 300), ops=_STREAM_OPS)
    def test_matches_block_at_a_time_extension(self, seed, kappa, ops):
        stream = SeedBitStream(seed, kappa)
        oracle = _BlockAtATimeStream(seed, kappa)
        for op, count in ops:
            if op == "consume":
                assert stream.consume_int(count) == oracle.consume_int(count)
            else:
                stream.skip(count)
                oracle.skip(count)
            assert stream.bits_consumed == oracle.cursor
            assert stream.extension_blocks_used == oracle.blocks
            assert stream.exhausted_initial_seed == (oracle.cursor > kappa)

    def test_skip_past_the_generated_end_then_consume(self):
        stream = SeedBitStream(seed=5, kappa=8)
        oracle = _BlockAtATimeStream(5, 8)
        for target in (stream, oracle):
            target.skip(1000)
        assert stream.consume_int(40) == oracle.consume_int(40)
        assert stream.extension_blocks_used == oracle.blocks == 5


class TestStatisticalSanity:
    def test_extension_bits_are_roughly_balanced(self):
        """Hash-extension bits should be close to 50/50 zeros and ones."""
        stream = SeedBitStream(seed=12345, kappa=16)
        stream.consume_bits(16)  # exhaust the initial seed
        bits = stream.consume_bits(4096)
        ones = sum(bits)
        assert 1800 < ones < 2300
