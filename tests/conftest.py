"""Shared pytest fixtures for the ANC reproduction test suite."""

from __future__ import annotations

import fnmatch
import multiprocessing
from pathlib import Path

import numpy as np
import pytest

from repro.channel.link import Link
from repro.framing.frame import Deframer, Framer
from repro.framing.packet import Packet
from repro.modulation.msk import MSKDemodulator, MSKModulator
from repro.network.topologies import ChannelConditions, alice_bob_topology

REQUIREMENTS = Path(__file__).resolve().parent.parent / "requirements.txt"


def numpy_pin_note(version: str = np.__version__) -> str:
    """What a byte-pinned fixture mismatch says about the numpy pin.

    The golden renders and the trial, sim and link grids pin bytes drawn
    from numpy ``Generator`` streams, which NEP 19 lets change between
    numpy feature releases; ``requirements.txt`` pins the minor they were
    written under.  The note names that pin and ``version`` (the running
    numpy by default), so a mismatch under another numpy reads as such.
    """
    pin = next(
        line.strip() for line in REQUIREMENTS.read_text().splitlines()
        if line.startswith("numpy==")
    )
    if fnmatch.fnmatch(version, pin.split("==", 1)[1]):
        return f"numpy {version} satisfies the {pin} pin of requirements.txt"
    return (
        f"numpy {version} is outside the {pin} pin of requirements.txt, and a "
        "numpy feature release may change Generator streams (NEP 19): rerun "
        "under the pinned numpy before reading this as a regression"
    )


@pytest.fixture(autouse=True)
def no_leaked_workers():
    """Fail a test that leaves worker processes running.

    An engine with ``workers > 1`` keeps its process pool until it is
    closed; a test that forgets to close it would leave the pool's
    workers alive for the rest of the session.
    """
    yield
    leaked = multiprocessing.active_children()
    assert not leaked, (
        f"the test left {len(leaked)} worker process(es) running; "
        "close its ExperimentEngine (use it in a with block)"
    )


@pytest.fixture(scope="session")
def numpy_pin():
    """:func:`numpy_pin_note`, for the messages of byte-pinned asserts."""
    return numpy_pin_note


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic random generator for reproducible tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def framer() -> Framer:
    """A framer with the default pilot and scrambler."""
    return Framer()


@pytest.fixture
def deframer() -> Deframer:
    """A deframer matching the default framer."""
    return Deframer()


@pytest.fixture
def msk_modulator() -> MSKModulator:
    """Unit-amplitude MSK modulator."""
    return MSKModulator(amplitude=1.0)


@pytest.fixture
def msk_demodulator() -> MSKDemodulator:
    """Differential MSK demodulator at one sample per symbol."""
    return MSKDemodulator()


@pytest.fixture
def small_packet(rng) -> Packet:
    """A small random packet for framing / decoding tests."""
    return Packet.random(source=1, destination=2, sequence=7, payload_bits=128, rng=rng)


@pytest.fixture
def clean_link() -> Link:
    """A noiseless flat link with moderate attenuation and phase."""
    return Link(attenuation=0.8, phase_shift=0.7)


@pytest.fixture
def noisy_link() -> Link:
    """A flat link with a realistic noise floor and a small CFO."""
    return Link(attenuation=0.8, phase_shift=-1.2, frequency_offset=0.02, noise_power=1e-3)


@pytest.fixture
def alice_bob_topo(rng):
    """An Alice-Bob topology drawn at 30 dB SNR."""
    return alice_bob_topology(ChannelConditions(snr_db=30.0), rng)
