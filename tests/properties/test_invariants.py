"""Property-based tests of the library's core invariants (hypothesis)."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.anc.lemma import phase_solutions
from repro.coding.crc import CRC16
from repro.framing.frame import Deframer, Framer
from repro.framing.header import Header
from repro.framing.packet import Packet
from repro.modulation.msk import MSKDemodulator, MSKModulator
from repro.scrambler.whitening import Scrambler
from repro.utils.angles import wrap_angle
from repro.utils.bits import _int_from_bits, bits_from_int
from repro.utils.cdf import EmpiricalCDF

bit_lists = st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=256)


class TestModulationInvariants:
    @given(bits=bit_lists)
    @settings(max_examples=50, deadline=None)
    def test_msk_roundtrip_is_identity(self, bits):
        data = np.array(bits, dtype=np.uint8)
        signal = MSKModulator().modulate(data)
        decoded = MSKDemodulator().demodulate(signal)
        assert np.array_equal(decoded, data)

    @given(bits=bit_lists, attenuation=st.floats(0.05, 2.0), phase=st.floats(-np.pi, np.pi))
    @settings(max_examples=50, deadline=None)
    def test_msk_invariant_to_flat_channel(self, bits, attenuation, phase):
        """Eq. 1: differential demodulation cancels h and gamma exactly."""
        data = np.array(bits, dtype=np.uint8)
        signal = MSKModulator().modulate(data).scaled(attenuation * np.exp(1j * phase))
        decoded = MSKDemodulator().demodulate(signal)
        assert np.array_equal(decoded, data)

    @given(bits=bit_lists)
    @settings(max_examples=30, deadline=None)
    def test_msk_constant_envelope(self, bits):
        signal = MSKModulator(amplitude=1.3).modulate(np.array(bits, dtype=np.uint8))
        assert np.allclose(np.abs(signal.samples), 1.3)


class TestLemmaInvariants:
    @given(
        amplitude_a=st.floats(0.1, 2.0),
        amplitude_b=st.floats(0.1, 2.0),
        theta=st.floats(-np.pi, np.pi),
        phi=st.floats(-np.pi, np.pi),
    )
    @settings(max_examples=200, deadline=None)
    def test_lemma_solutions_reconstruct_observation(self, amplitude_a, amplitude_b, theta, phi):
        """Both Lemma 6.1 branches regenerate the observed sample exactly."""
        y = amplitude_a * np.exp(1j * theta) + amplitude_b * np.exp(1j * phi)
        # The lemma is singular under (near-)complete destructive
        # cancellation — a zero observation has no recoverable phases.
        assume(abs(y) > 1e-3)
        solutions = phase_solutions(np.array([y]), amplitude_a, amplitude_b)
        for branch in (1, 2):
            rebuilt = amplitude_a * np.exp(1j * getattr(solutions, f"theta{branch}")[0]) + (
                amplitude_b * np.exp(1j * getattr(solutions, f"phi{branch}")[0])
            )
            assert abs(rebuilt - y) < 1e-7

    @given(
        amplitude_a=st.floats(0.1, 2.0),
        amplitude_b=st.floats(0.1, 2.0),
        theta=st.floats(-np.pi, np.pi),
        phi=st.floats(-np.pi, np.pi),
    )
    @settings(max_examples=200, deadline=None)
    def test_true_phase_pair_is_among_solutions(self, amplitude_a, amplitude_b, theta, phi):
        y = amplitude_a * np.exp(1j * theta) + amplitude_b * np.exp(1j * phi)
        # Lemma 6.1 is singular under (near-)complete destructive
        # cancellation: a zero observation carries no phase information,
        # so no finite solution pair can be expected to match.
        assume(abs(y) > 1e-3)
        solutions = phase_solutions(np.array([y]), amplitude_a, amplitude_b)
        close1 = abs(wrap_angle(solutions.theta1[0] - theta)) < 1e-5 and abs(
            wrap_angle(solutions.phi1[0] - phi)
        ) < 1e-5
        close2 = abs(wrap_angle(solutions.theta2[0] - theta)) < 1e-5 and abs(
            wrap_angle(solutions.phi2[0] - phi)
        ) < 1e-5
        assert close1 or close2


class TestCodingInvariants:
    @given(bits=bit_lists)
    @settings(max_examples=50, deadline=None)
    def test_crc_roundtrip(self, bits):
        data = np.array(bits, dtype=np.uint8)
        assert CRC16.verify(CRC16.append(data))

    @given(bits=bit_lists)
    @settings(max_examples=50, deadline=None)
    def test_scrambler_involution(self, bits):
        scrambler = Scrambler()
        data = np.array(bits, dtype=np.uint8)
        assert np.array_equal(scrambler.scramble(scrambler.scramble(data)), data)


class TestFramingInvariants:
    @given(
        source=st.integers(0, 255),
        destination=st.integers(0, 255),
        sequence=st.integers(0, 65535),
    )
    @settings(max_examples=100, deadline=None)
    def test_header_roundtrip(self, source, destination, sequence):
        header = Header(source, destination, sequence)
        assert Header.from_bits(header.to_bits()) == header

    @given(
        payload=st.lists(st.integers(0, 1), min_size=0, max_size=128),
        source=st.integers(0, 255),
        destination=st.integers(0, 255),
        sequence=st.integers(0, 65535),
    )
    @settings(max_examples=50, deadline=None)
    def test_frame_roundtrip_forward_and_backward(self, payload, source, destination, sequence):
        packet = Packet(source, destination, sequence, np.array(payload, dtype=np.uint8))
        framer, deframer = Framer(), Deframer()
        frame = framer.build(packet)
        forward = deframer.parse(frame.bits)
        backward = deframer.parse_backward(frame.bits[::-1])
        assert forward.delivered and backward.delivered
        assert np.array_equal(forward.packet.payload, packet.payload)
        assert np.array_equal(backward.packet.payload, packet.payload)


class TestUtilityInvariants:
    @given(value=st.integers(0, 2 ** 16 - 1), width=st.just(16))
    @settings(max_examples=50, deadline=None)
    def test_int_bits_roundtrip(self, value, width):
        assert _int_from_bits(bits_from_int(value, width)) == value

    @given(angle=st.floats(-100.0, 100.0))
    @settings(max_examples=100, deadline=None)
    def test_wrap_angle_range_and_equivalence(self, angle):
        wrapped = wrap_angle(angle)
        assert -np.pi < wrapped <= np.pi + 1e-12
        assert np.isclose(np.exp(1j * wrapped), np.exp(1j * angle), atol=1e-9)

    @given(samples=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_cdf_monotone_and_bounded(self, samples):
        cdf = EmpiricalCDF.from_samples(samples)
        points = sorted(samples)
        values = [cdf.evaluate(p) for p in points]
        assert values == sorted(values)
        assert values[-1] == pytest.approx(1.0)
