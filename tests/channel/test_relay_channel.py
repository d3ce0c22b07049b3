"""Tests for the amplify-and-forward rescaling of a received waveform."""

import numpy as np
import pytest

from repro.channel.relay import amplify_and_forward
from repro.exceptions import ChannelError
from repro.modulation.msk import MSKModulator
from repro.signal.samples import ComplexSignal
from repro.utils.bits import random_bits


def _factor(signal, transmit_power=1.0):
    return abs(amplify_and_forward(signal, transmit_power).samples[-1] / signal.samples[-1])


class TestAmplifyAndForward:
    def test_output_power_matches_budget(self):
        sig = ComplexSignal(0.1 * np.ones(1000, dtype=complex))
        out = amplify_and_forward(sig, transmit_power=1.0)
        assert np.mean(np.abs(out.samples) ** 2) == pytest.approx(1.0, rel=1e-6)

    def test_amplifies_weak_and_attenuates_strong(self):
        assert _factor(ComplexSignal(0.1 * np.ones(100, dtype=complex))) > 1.0
        assert _factor(ComplexSignal(10 * np.ones(100, dtype=complex))) < 1.0

    def test_shape_preserved(self):
        """Amplification is a pure scaling: the waveform shape is untouched."""
        sig = MSKModulator().modulate(random_bits(64, np.random.default_rng(0)))
        out = amplify_and_forward(sig, transmit_power=2.0)
        ratio = out.samples / sig.samples
        assert np.allclose(ratio, ratio[0])

    def test_ignores_leading_silence_when_measuring(self):
        burst = ComplexSignal(np.concatenate([np.zeros(500), 0.5 * np.ones(100)]).astype(complex))
        # The active-sample measurement sees power 0.25, so the gain is 2.
        assert _factor(burst) == pytest.approx(2.0, rel=1e-6)

    def test_zero_power_budget_rejected(self):
        with pytest.raises(ChannelError):
            amplify_and_forward(ComplexSignal(np.ones(4, dtype=complex)), transmit_power=0.0)

    def test_empty_signal_rejected(self):
        with pytest.raises(ChannelError):
            amplify_and_forward(ComplexSignal.silence(0), transmit_power=1.0)

    def test_all_zero_signal_rejected(self):
        with pytest.raises(ChannelError, match="all-zero signal"):
            amplify_and_forward(ComplexSignal.silence(10), transmit_power=1.0)
