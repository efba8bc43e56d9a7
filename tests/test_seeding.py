"""Seed-discipline helpers: every accepted rng form; ``None`` is refused."""

from __future__ import annotations

import numpy as np
import pytest

from repro.seeding import ensure_rng


class TestEnsureRng:
    def test_generator_passes_through_unchanged(self):
        rng = np.random.default_rng(5)
        assert ensure_rng(rng, "test.api") is rng

    def test_int_seed_is_deterministic(self):
        a = ensure_rng(123, "test.api")
        b = ensure_rng(123, "test.api")
        assert a.integers(1 << 30) == b.integers(1 << 30)

    def test_seed_sequence_accepted(self):
        seq = np.random.SeedSequence(7)
        a = ensure_rng(seq, "test.api")
        b = ensure_rng(np.random.SeedSequence(7), "test.api")
        assert a.integers(1 << 30) == b.integers(1 << 30)

    def test_bit_generator_wrapped_without_reseeding(self):
        # A BitGenerator must be adopted as-is: its stream position is
        # preserved, not restarted from some derived seed.
        reference = np.random.Generator(np.random.PCG64(99))
        reference.integers(1 << 30, size=3)  # advance the stream

        bitgen = np.random.PCG64(99)
        np.random.Generator(bitgen).integers(1 << 30, size=3)
        wrapped = ensure_rng(bitgen, "test.api")
        assert isinstance(wrapped, np.random.Generator)
        assert wrapped.bit_generator is bitgen
        assert wrapped.integers(1 << 30) == reference.integers(1 << 30)

    def test_none_raises_naming_the_api(self):
        with pytest.raises(TypeError, match="repro.some.api"):
            ensure_rng(None, "repro.some.api")
