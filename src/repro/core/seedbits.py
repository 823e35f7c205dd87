"""Shared pseudo-random bit streams derived from committed seeds.

In LBAlg every node that committed to the same seed must make the *same*
"shared" random choices during a phase body (participant decisions and the
``b`` probability-selection), while its actual broadcast coin flips remain
private.  :class:`SeedBitStream` realizes the shared part: it deterministically
expands a seed value into a stream of bits, so two streams built from equal
seeds always agree bit-for-bit, and streams built from independently chosen
seeds look independent (Lemmas B.17 / B.18).

The initial κ bits are exactly the committed seed (the paper draws seeds from
``S_κ = {0,1}^κ``); if an execution somehow consumes more than κ bits the
stream keeps going by hashing ``seed || block_index``, which preserves the
"same seed ⇒ same bits" property that the algorithm depends on.

The stream is stored as a single Python integer holding only the generated
bits not yet consumed (MSB-first) plus a cursor, so :meth:`consume_int` is a
shift-and-mask over a few hundred bits rather than a list slice, and one
extension appends every missing block with one shift -- no per-bit list of
ints is ever materialized, and consumed history is never shifted again.
"""

from __future__ import annotations

import hashlib
from typing import List


class SeedBitStream:
    """A deterministic bit stream expanded from an integer seed.

    Parameters
    ----------
    seed:
        The committed seed value, a non-negative integer interpreted as a
        κ-bit string (most significant bit first).
    kappa:
        The nominal seed length in bits.  Values of ``seed`` with more than
        κ significant bits are rejected to catch calculus errors early.
    """

    _BLOCK_BITS = 256  # one SHA-256 digest per extension block

    __slots__ = ("_seed", "_kappa", "_acc", "_total_bits", "_cursor", "_extension_blocks")

    def __init__(self, seed: int, kappa: int) -> None:
        if kappa < 1:
            raise ValueError(f"kappa must be positive, got {kappa}")
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
        if seed.bit_length() > kappa:
            raise ValueError(
                f"seed has {seed.bit_length()} bits but the seed domain is only {kappa} bits wide"
            )
        self._seed = seed
        self._kappa = kappa
        # The accumulator holds the generated bits from the cursor to
        # `_total_bits` MSB-first: at first the seed itself, later extension
        # blocks appended at the low end.  Its logical width is
        # `_total_bits - _cursor` (leading zeros included); consumed bits are
        # dropped.
        self._acc = seed
        self._total_bits = kappa
        self._cursor = 0
        self._extension_blocks = 0

    # ------------------------------------------------------------------
    # consumption
    # ------------------------------------------------------------------
    def consume_int(self, count: int) -> int:
        """Consume ``count`` bits and return them as an integer in [0, 2^count)."""
        if count < 0:
            raise ValueError("cannot consume a negative number of bits")
        end = self._cursor + count
        if end > self._total_bits:
            self._extend(end)
        self._cursor = end
        rest = self._total_bits - end
        value = self._acc >> rest
        self._acc &= (1 << rest) - 1
        return value

    def consume_bits(self, count: int) -> List[int]:
        """Consume ``count`` bits and return them as a list of 0/1 ints."""
        value = self.consume_int(count)
        return [(value >> (count - 1 - i)) & 1 for i in range(count)]

    def consume_all_zero(self, count: int) -> bool:
        """Consume ``count`` bits and report whether they were all zero.

        This is the exact form of the participant decision in LBAlg: an event
        of probability ``2^{-count}``.
        """
        return self.consume_int(count) == 0

    def skip(self, count: int) -> None:
        """Advance the cursor ``count`` bits without materializing their value.

        Used by the batched body-round path: when another stream with the same
        seed and cursor has already computed a shared decision, cohort members
        only need their cursors moved in lockstep.  Extension is deferred --
        :meth:`consume_int` extends lazily when the cursor runs past the
        generated bits, and extension blocks are a pure function of the seed,
        so skipped-over bits are identical to consumed ones.
        """
        if count < 0:
            raise ValueError("cannot skip a negative number of bits")
        cursor = self._cursor = self._cursor + count
        rest = self._total_bits - cursor
        self._acc = self._acc & ((1 << rest) - 1) if rest > 0 else 0

    def consume_uniform_index(self, modulus: int, width: int) -> int:
        """Consume ``width`` bits and map them into ``[0, modulus)``.

        The paper assumes Δ is a power of two so that ``log Δ`` values fit
        exactly in ``log log Δ`` bits.  For general Δ we consume the given
        width and reduce modulo ``modulus``; the induced distribution is
        uniform when ``modulus`` divides ``2^width`` and within a factor of
        two of uniform otherwise, which only perturbs constants.
        """
        if modulus < 1:
            raise ValueError("modulus must be positive")
        return self.consume_int(width) % modulus

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    @property
    def seed(self) -> int:
        return self._seed

    @property
    def kappa(self) -> int:
        return self._kappa

    @property
    def bits_consumed(self) -> int:
        return self._cursor

    @property
    def exhausted_initial_seed(self) -> bool:
        """True iff consumption went beyond the κ initial seed bits."""
        return self._cursor > self._kappa

    @property
    def extension_blocks_used(self) -> int:
        """How many hash-extension blocks were needed (0 in well-sized runs)."""
        return self._extension_blocks

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _extend(self, end: int) -> None:
        """Append every deterministic extension block up to bit ``end``.

        Block ``k`` (1-based) is ``sha256(seed || "|" || k)``.  Blocks that
        lie wholly before the cursor (skipped over, never read) are counted
        but not hashed, so the stream is as if extended one block at a time.
        """
        block_bits = self._BLOCK_BITS
        kappa = self._kappa
        cursor = self._cursor
        have = self._extension_blocks
        need = -(-(end - kappa) // block_bits)
        first = max(have + 1, (cursor - kappa) // block_bits + 1)
        prefix = self._seed.to_bytes((kappa + 7) // 8 or 1, "big") + b"|"
        fresh = int.from_bytes(
            b"".join(
                hashlib.sha256(prefix + str(index).encode()).digest()
                for index in range(first, need + 1)
            ),
            "big",
        )
        # With first > have + 1 the old accumulator lies before the cursor
        # (skip() already cleared it).
        total = kappa + need * block_bits
        acc = (self._acc << ((need - first + 1) * block_bits)) | fresh
        self._acc = acc & ((1 << (total - cursor)) - 1)
        self._total_bits = total
        self._extension_blocks = need

    def __repr__(self) -> str:
        return (
            f"SeedBitStream(kappa={self._kappa}, consumed={self._cursor}, "
            f"extensions={self._extension_blocks})"
        )
