"""``Link.distort`` and ``superpose`` pinned bit-exact over a grid of links.

``link_grid.json`` was written by the stage-by-stage channel model (one
object each for the CFO, flat, fading, delay and noise stages) before it
was folded into :meth:`Link.distort`.  For each of the 1,296 links below
it holds the SHA-256 digest of the distorted waveform and the next raw
draw of the generator afterwards, and the same pair for the received
waveform (distortion plus receiver noise).  Both the output bytes and the
random-stream consumption must match, operation for operation.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from repro.channel.interference import superpose
from repro.channel.link import Link
from repro.signal.samples import ComplexSignal

FIXTURE = Path(__file__).with_name("link_grid.json")

GAINS = (  # (attenuation, phase_shift, noise_power)
    (1.0, 0.0, 0.0),
    (0.6, 1.1, 0.01),
    (0.35, -2.4, 0.2),
)
SENDER_CFOS = (0.0, 0.04, -0.025)
PATH_CFOS = (0.0, 0.013)
PHASE_DRIFTS = (0.0, 0.006)
FADINGS = (  # (fading, fading_mode, fading_doppler, fading_k_db)
    ("none", "block", 0.0, 6.0),
    ("rayleigh", "block", 0.0, 6.0),
    ("rician", "block", 0.0, 6.0),
    ("none", "drift", 0.02, 6.0),
    ("rayleigh", "drift", 0.02, 6.0),
    ("rician", "drift", 0.05, -3.0),
)
DELAYS = (0, 5)
LENGTHS = (0, 1, 900)


def grid():
    """Every ``(Link, signal length)`` case, in fixture order."""
    for gain, sender_cfo, path_cfo, drift, fading, delay, length in itertools.product(
        GAINS, SENDER_CFOS, PATH_CFOS, PHASE_DRIFTS, FADINGS, DELAYS, LENGTHS
    ):
        attenuation, phase_shift, noise_power = gain
        kind, mode, doppler, k_db = fading
        link = Link(
            attenuation=attenuation,
            phase_shift=phase_shift,
            propagation_delay=delay,
            noise_power=noise_power,
            frequency_offset=path_cfo,
            phase_drift=drift,
            sender_cfo=sender_cfo,
            fading=kind,
            fading_k_db=k_db,
            fading_mode=mode,
            fading_doppler=doppler,
            fading_los_phase=0.7,
        )
        yield link, length


def signal(length: int) -> ComplexSignal:
    """A fixed complex Gaussian test waveform of ``length`` samples."""
    rng = np.random.default_rng(2007)
    return ComplexSignal(rng.normal(size=length) + 1j * rng.normal(size=length))


def record(received: ComplexSignal, rng: np.random.Generator):
    """``[sha256 of the samples, next raw draw of rng]`` for one case."""
    digest = hashlib.sha256(np.ascontiguousarray(received.samples).tobytes()).hexdigest()
    return [digest, int(rng.bit_generator.random_raw())]


def distorted(link: Link, length: int, index: int):
    """The fixture record of ``link.distort`` for case ``index``."""
    rng = np.random.default_rng(index)
    return record(link.distort(signal(length), rng), rng)


def received(link: Link, length: int, index: int):
    """The fixture record of one transmission heard over ``link`` for case ``index``."""
    rng = np.random.default_rng(index)
    return record(superpose([(signal(length), link, 0)], link.noise_power, rng, 0), rng)


@pytest.fixture(scope="module")
def fixture():
    return json.loads(FIXTURE.read_text())


def test_grid_size(fixture):
    assert len(list(grid())) == len(fixture["distort"]) == len(fixture["received"]) == 1296
    assert sum(len(cases(fading)) for fading in FADINGS) == 1296


def cases(fading):
    """The ``(index, link, length)`` cases of one fading declaration."""
    kind, mode, doppler, _ = fading
    return [
        (index, link, length)
        for index, (link, length) in enumerate(grid())
        if (link.fading, link.fading_mode, link.fading_doppler) == (kind, mode, doppler)
    ]


FADING_IDS = [f"{kind}-{mode}" for kind, mode, _, _ in FADINGS]


@pytest.mark.parametrize("fading", FADINGS, ids=FADING_IDS)
def test_distort_matches_fixture(fixture, fading, numpy_pin):
    mismatches = [
        index
        for index, link, length in cases(fading)
        if distorted(link, length, index) != fixture["distort"][index]
    ]
    assert mismatches == [], numpy_pin()


@pytest.mark.parametrize("fading", FADINGS, ids=FADING_IDS)
def test_received_matches_fixture(fixture, fading, numpy_pin):
    mismatches = [
        index
        for index, link, length in cases(fading)
        if received(link, length, index) != fixture["received"][index]
    ]
    assert mismatches == [], numpy_pin()
