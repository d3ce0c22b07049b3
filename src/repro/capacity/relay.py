"""Derived quantities of the amplify-and-forward relay analysis (Appendix C).

These helpers expose the intermediate quantities of the Theorem 8.1
derivation — the relay's power-constrained amplification factor and the
effective SNR Alice sees after cancelling her own signal — so that tests
can check the published bound against the explicit link-level
computation rather than trusting a single closed-form line.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import CapacityError


def amplification_factor(
    transmit_power: float,
    gain_alice_relay: float = 1.0,
    gain_bob_relay: float = 1.0,
    noise_power: float = 1.0,
) -> float:
    """The relay's amplitude gain ``A = sqrt(P / (P h_AR^2 + P h_BR^2 + N))``.

    Chosen so the relay's *output* power equals its budget ``P`` when it
    rebroadcasts the sum of the two received signals plus its own noise.
    """
    if transmit_power <= 0:
        raise CapacityError("transmit power must be positive")
    if noise_power <= 0:
        raise CapacityError("noise power must be positive")
    received = transmit_power * (gain_alice_relay ** 2 + gain_bob_relay ** 2) + noise_power
    return float(np.sqrt(transmit_power / received))


def relay_received_snr(
    transmit_power: float,
    gain: float = 1.0,
    noise_power: float = 1.0,
) -> float:
    """Per-sender SNR of the uplink as seen at the relay."""
    if transmit_power <= 0 or noise_power <= 0:
        raise CapacityError("powers must be positive")
    return float(transmit_power * gain ** 2 / noise_power)


def anc_receiver_snr(
    transmit_power: float,
    gain_relay_alice: float = 1.0,
    gain_bob_relay: float = 1.0,
    gain_alice_relay: float = 1.0,
    noise_power: float = 1.0,
) -> float:
    """Effective SNR at Alice after she cancels her own signal (Eq. 25).

    ``SNR_Alice = A^2 P h_RA^2 h_BR^2 / (A^2 h_RA^2 N + N)`` with the
    amplification factor ``A`` fixed by the relay's power constraint.  With
    unit gains and unit noise this reduces to ``SNR^2 / (3 SNR + 1)`` —
    the expression inside Theorem 8.1's logarithm — which the unit tests
    verify.
    """
    if transmit_power <= 0 or noise_power <= 0:
        raise CapacityError("powers must be positive")
    factor = amplification_factor(
        transmit_power,
        gain_alice_relay=gain_alice_relay,
        gain_bob_relay=gain_bob_relay,
        noise_power=noise_power,
    )
    signal = factor ** 2 * transmit_power * gain_relay_alice ** 2 * gain_bob_relay ** 2
    noise = factor ** 2 * gain_relay_alice ** 2 * noise_power + noise_power
    return float(signal / noise)
