"""The receive pipeline and the topology builders pinned bit-exact over a grid.

``receive_grid.json`` holds two tables.

``receive``: for each seeded reception below, what
:meth:`ReceivePipeline.receive` concluded — ``outcome``,
``failure_reason``, ``crc_ok``, and the SHA-256 digests of
``decoded_bits`` and of the packet payload (``null`` when absent).  The
grid covers an empty waveform, noise only, clean packets (intact, with a
flipped payload bit and with a flipped header bit), collisions whose
first or second frame is known (forward and backward ANC decoding) and
collisions of two unknown frames, at three SNRs and four seeds.

``links``: for :func:`alice_bob_topology`, :func:`x_topology`,
:func:`chain_topology`, :func:`generate_random_mesh` and
:func:`generate_geometric_mesh` at three SNRs and four seeds, the SHA-256
digest of every drawn link (its fields with exact float reprs, and
whether it is routable), every node's noise floor and the placement,
plus the next raw draw of the generator afterwards.

Regenerate (only when a change is meant to move numbers) with::

    PYTHONPATH=src python tests/anc/test_receive_grid.py --write
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.anc.pipeline import ReceivePipeline
from repro.channel.interference import superpose
from repro.channel.link import Link
from repro.framing.buffer import SentPacketBuffer
from repro.framing.frame import Framer
from repro.framing.packet import Packet
from repro.modulation.msk import MSKModulator
from repro.network.generator import generate_geometric_mesh, generate_random_mesh
from repro.network.topologies import (
    ChannelConditions,
    alice_bob_topology,
    chain_topology,
    x_topology,
)
from repro.signal.samples import ComplexSignal

FIXTURE = Path(__file__).with_name("receive_grid.json")

PAYLOAD = 192
SNRS_DB = (12.0, 20.0, 30.0)
SEEDS = (0, 1, 2, 3)
KINDS = (
    "empty",
    "no_energy",
    "clean",
    "clean_payload_flip",
    "clean_header_flip",
    "anc_forward",
    "anc_backward",
    "unknown_pair",
)
BUILDERS = {
    "alice_bob": alice_bob_topology,
    "x": x_topology,
    "chain": chain_topology,
    "random_mesh": generate_random_mesh,
    "geometric_mesh": generate_geometric_mesh,
}


def _sha(array) -> str | None:
    if array is None:
        return None
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def _framed(rng, source, destination, sequence, flip=None):
    """A random packet, its frame and its waveform (one bit flipped on the air)."""
    frame = Framer().build(Packet.random(source, destination, sequence, PAYLOAD, rng))
    bits = frame.bits.copy()
    if flip is not None:
        bits[flip] ^= 1
    return frame, MSKModulator().modulate(bits)


def _link(rng, attenuation, cfo):
    return Link(
        attenuation=attenuation,
        phase_shift=float(rng.uniform(-np.pi, np.pi)),
        frequency_offset=cfo,
    )


def reception(kind: str, snr_db: float, seed: int):
    """The ``(pipeline, waveform)`` of one grid case."""
    rng = np.random.default_rng([seed, int(snr_db), KINDS.index(kind)])
    noise = 0.8 ** 2 / 10 ** (snr_db / 10)
    buffer = SentPacketBuffer()
    pipeline = ReceivePipeline(
        noise_power=noise, expected_payload_bits=PAYLOAD, known_frames=buffer
    )
    if kind == "empty":
        return pipeline, ComplexSignal.silence(0)
    if kind == "no_energy":
        return pipeline, superpose([], noise, rng, 600)
    if kind.startswith("clean"):
        layout = Framer().layout_for(PAYLOAD)
        flip = {
            "clean": None,
            "clean_payload_flip": layout.payload_start + 10,
            "clean_header_flip": layout.header_start + 5,
        }[kind]
        _, wave = _framed(rng, 1, 2, seed, flip)
        link = _link(rng, 0.8, 0.02)
        return pipeline, superpose([(wave, link, 20)], noise, rng, len(wave) + 40)
    frame_a, wave_a = _framed(rng, 1, 2, seed)
    frame_b, wave_b = _framed(rng, 2, 1, 100 + seed)
    if kind == "anc_forward":
        buffer.store(frame_a)
    elif kind == "anc_backward":
        buffer.store(frame_b)
    offset = int(rng.integers(120, 200))
    link_a = _link(rng, 0.9, 0.03)
    link_b = _link(rng, 0.75, -0.025)
    length = max(len(wave_a), offset + len(wave_b)) + 32
    return pipeline, superpose([(wave_a, link_a, 0), (wave_b, link_b, offset)], noise, rng, length)


def receive_record(kind: str, snr_db: float, seed: int) -> dict:
    """The fixture record of one reception."""
    pipeline, waveform = reception(kind, snr_db, seed)
    result = pipeline.receive(waveform)
    return {
        "outcome": result.outcome.value,
        "failure_reason": result.failure_reason,
        "crc_ok": result.crc_ok,
        "decoded_bits": _sha(result.decoded_bits),
        "payload": _sha(None if result.packet is None else result.packet.payload),
    }


#: Link fields the fixture was recorded with that the channel model has
#: since dropped, at the one value every drawn link had, so the recorded
#: digests keep pinning every surviving field.
RETIRED_LINK_FIELDS = {"propagation_delay": repr(0)}


def links_record(builder: str, snr_db: float, seed: int) -> list:
    """``[sha256 of the drawn topology, next raw draw]`` of one builder case."""
    rng = np.random.default_rng(seed)
    topology = BUILDERS[builder](ChannelConditions(snr_db=snr_db), rng)
    drawn = {
        "noise": [[node, repr(topology.noise_power(node))] for node in topology.nodes],
        "links": [
            [
                source,
                destination,
                topology.is_routable(source, destination),
                {
                    **RETIRED_LINK_FIELDS,
                    **{
                        name: repr(value)
                        for name, value in dataclasses.asdict(
                            topology.link(source, destination)
                        ).items()
                    },
                },
            ]
            for source, destination in topology.edges()
        ],
        "positions": None
        if topology.positions is None
        else {str(node): [repr(x), repr(y)] for node, (x, y) in topology.positions.items()},
    }
    digest = hashlib.sha256(json.dumps(drawn, sort_keys=True).encode()).hexdigest()
    return [digest, int(rng.bit_generator.random_raw())]


RECEIVE_CASES = [
    (f"{kind}/snr{snr_db:g}/seed{seed}", kind, snr_db, seed)
    for kind in KINDS
    for snr_db in SNRS_DB
    for seed in SEEDS
]
LINK_CASES = [
    (f"{builder}/snr{snr_db:g}/seed{seed}", builder, snr_db, seed)
    for builder in BUILDERS
    for snr_db in SNRS_DB
    for seed in SEEDS
]


def write() -> None:
    """Record every case (run from the repository root)."""
    fixture = {
        "receive": {case_id: receive_record(*args) for case_id, *args in RECEIVE_CASES},
        "links": {case_id: links_record(*args) for case_id, *args in LINK_CASES},
    }
    FIXTURE.write_text(json.dumps(fixture, indent=1) + "\n")


@pytest.fixture(scope="module")
def fixture():
    return json.loads(FIXTURE.read_text())


def test_grid_covers_the_fixture(fixture):
    assert [case_id for case_id, *_ in RECEIVE_CASES] == list(fixture["receive"])
    assert [case_id for case_id, *_ in LINK_CASES] == list(fixture["links"])


def test_grid_reaches_every_outcome(fixture):
    outcomes = {record["outcome"] for record in fixture["receive"].values()}
    assert outcomes == {"no_signal", "clean_decoded", "anc_decoded", "needs_relay", "failed"}
    reasons = {record["failure_reason"] for record in fixture["receive"].values()}
    assert {"empty waveform", "no energy", "payload crc", "header did not validate"} <= reasons


@pytest.mark.parametrize("kind", KINDS)
def test_receive_matches_fixture(fixture, kind, numpy_pin):
    mismatches = [
        case_id
        for case_id, case_kind, snr_db, seed in RECEIVE_CASES
        if case_kind == kind and receive_record(kind, snr_db, seed) != fixture["receive"][case_id]
    ]
    assert mismatches == [], numpy_pin()


@pytest.mark.parametrize("builder", list(BUILDERS))
def test_links_match_fixture(fixture, builder, numpy_pin):
    mismatches = [
        case_id
        for case_id, case_builder, snr_db, seed in LINK_CASES
        if case_builder == builder and links_record(builder, snr_db, seed) != fixture["links"][case_id]
    ]
    assert mismatches == [], numpy_pin()


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    write()
