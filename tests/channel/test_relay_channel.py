"""Tests for the amplify-and-forward relay channel stage."""

import numpy as np
import pytest

from repro.channel.relay import AmplifyAndForwardRelayChannel
from repro.exceptions import ChannelError
from repro.modulation.msk import MSKModulator
from repro.signal.samples import ComplexSignal
from repro.utils.bits import random_bits


class TestAmplifyAndForward:
    def test_output_power_matches_budget(self):
        sig = ComplexSignal(0.1 * np.ones(1000, dtype=complex))
        out = AmplifyAndForwardRelayChannel(transmit_power=1.0).apply(sig)
        assert out.average_power == pytest.approx(1.0, rel=1e-6)

    def test_amplifies_weak_and_attenuates_strong(self):
        relay = AmplifyAndForwardRelayChannel(transmit_power=1.0)
        weak = ComplexSignal(0.1 * np.ones(100, dtype=complex))
        strong = ComplexSignal(10 * np.ones(100, dtype=complex))
        assert relay.amplification_factor(weak) > 1.0
        assert relay.amplification_factor(strong) < 1.0

    def test_shape_preserved(self):
        """Amplification is a pure scaling: the waveform shape is untouched."""
        sig = MSKModulator().modulate(random_bits(64, np.random.default_rng(0)))
        out = AmplifyAndForwardRelayChannel(transmit_power=2.0).apply(sig)
        ratio = out.samples / sig.samples
        assert np.allclose(ratio, ratio[0])

    def test_ignores_leading_silence_when_measuring(self):
        burst = ComplexSignal(np.concatenate([np.zeros(500), 0.5 * np.ones(100)]).astype(complex))
        relay = AmplifyAndForwardRelayChannel(transmit_power=1.0)
        factor = relay.amplification_factor(burst)
        # The active-sample measurement sees power 0.25, so the gain is 2.
        assert factor == pytest.approx(2.0, rel=1e-6)

    def test_full_average_measurement_differs(self):
        burst = ComplexSignal(np.concatenate([np.zeros(300), np.ones(100)]).astype(complex))
        lenient = AmplifyAndForwardRelayChannel(transmit_power=1.0, measure_over_active_samples=False)
        strict = AmplifyAndForwardRelayChannel(transmit_power=1.0, measure_over_active_samples=True)
        assert lenient.amplification_factor(burst) > strict.amplification_factor(burst)

    def test_zero_power_budget_rejected(self):
        with pytest.raises(ChannelError):
            AmplifyAndForwardRelayChannel(transmit_power=0.0)

    def test_empty_signal_rejected(self):
        with pytest.raises(ChannelError):
            AmplifyAndForwardRelayChannel(transmit_power=1.0).apply(ComplexSignal.empty())

    def test_all_zero_signal_rejected(self):
        with pytest.raises(ChannelError):
            AmplifyAndForwardRelayChannel(transmit_power=1.0).apply(ComplexSignal.silence(10))

    def test_all_zero_signal_rejected_by_full_average(self):
        relay = AmplifyAndForwardRelayChannel(transmit_power=1.0, measure_over_active_samples=False)
        with pytest.raises(ChannelError, match="all-zero signal"):
            relay.apply(ComplexSignal.silence(10))
