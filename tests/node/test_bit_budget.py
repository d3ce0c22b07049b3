"""How often the PHY checks bits: once per traced stage that takes bits, nowhere else.

Bits are checked where they enter the library (``Packet``, the public
helpers) and by each stage perfbench times that takes a bit array:
``Scrambler.scramble``, ``CRC16.compute``/``verify``, ``Deframer.parse``/
``parse_backward``, ``MSKModulator.modulate`` and
``InterferenceDecoder.decode``.  Arrays the library built itself (a
packet's payload, a header, demodulated bits, the known frame) go to the
private cores unchecked, so the number of ``checked_bit_array`` calls
equals the number of those stage entries.
"""

from __future__ import annotations

import collections
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import repro.utils.bits
import repro.utils.validation
from repro.anc.decoder import InterferenceDecoder
from repro.anc.pipeline import ReceiveOutcome
from repro.coding.crc import _BitwiseCRC
from repro.framing.frame import Deframer
from repro.framing.packet import Packet
from repro.modulation.msk import MSKModulator
from repro.node.node import Node, NodeConfig, _on_air
from repro.scrambler.whitening import Scrambler

_spec = importlib.util.spec_from_file_location(
    "bit_budget_grid", Path(__file__).parents[1] / "anc" / "test_receive_grid.py"
)
receive_grid = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(receive_grid)

#: The traced stages that take a bit array, each checking it once.
STAGES = (
    (Scrambler, "scramble"),
    (_BitwiseCRC, "compute"),
    (_BitwiseCRC, "verify"),
    (Deframer, "parse"),
    (Deframer, "parse_backward"),
    (MSKModulator, "modulate"),
    (InterferenceDecoder, "decode"),
)

CASES = [
    (kind, snr_db, seed)
    for kind in receive_grid.KINDS
    for snr_db in receive_grid.SNRS_DB
    for seed in receive_grid.SEEDS
]


@pytest.fixture
def counts(monkeypatch):
    """Calls of ``checked_bit_array`` (``"checks"``) and of each stage."""
    tally = collections.Counter()
    checked = repro.utils.bits.checked_bit_array

    def counted_check(bits, name):
        tally["checks"] += 1
        return checked(bits, name)

    monkeypatch.setattr(repro.utils.bits, "checked_bit_array", counted_check)
    monkeypatch.setattr(repro.utils.validation, "checked_bit_array", counted_check)
    for owner, name in STAGES:
        key = f"{owner.__name__}.{name}"

        def counted(*args, _method=getattr(owner, name), _key=key, **kwargs):
            tally[_key] += 1
            return _method(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    return tally


def stage_entries(tally) -> int:
    return sum(count for key, count in tally.items() if key != "checks")


@pytest.fixture
def packet():
    return Packet.random(1, 2, 0, 192, np.random.default_rng(5))


def test_random_packet_adopts_its_payload(counts):
    Packet.random(1, 2, 0, 192, np.random.default_rng(5))
    assert counts["checks"] == 0


def test_memo_miss_transmit_checks_in_scramble_and_modulate(counts, packet):
    _on_air.cache_clear()
    node = Node(1, NodeConfig(payload_bits=192))
    counts.clear()
    node.transmit(packet)
    # Framer.build: the header is coded from bytes and the CRC goes on the
    # packet's payload unchecked; only the scrambler checks.  Then modulate.
    assert counts["checks"] == 2
    assert counts["Scrambler.scramble"] == 1
    assert counts["MSKModulator.modulate"] == 1
    assert stage_entries(counts) == 2
    _on_air.cache_clear()


def test_memo_hit_transmit_checks_nothing(counts, packet):
    _on_air.cache_clear()
    node = Node(1, NodeConfig(payload_bits=192))
    node.transmit(packet)
    counts.clear()
    node.transmit(packet)
    assert counts["checks"] == 0
    _on_air.cache_clear()


@pytest.mark.parametrize("kind, snr_db, seed", CASES)
def test_one_check_per_stage_entered(counts, kind, snr_db, seed):
    pipeline, waveform = receive_grid.reception(kind, snr_db, seed)
    counts.clear()
    result = pipeline.receive(waveform)
    assert counts["checks"] == stage_entries(counts)
    if result.outcome is ReceiveOutcome.CLEAN_DECODED and counts["Deframer.parse"] == 1:
        # parse, its descramble and its CRC verify; the pilot search and
        # the header decode read the demodulated bits unchecked.
        assert counts["checks"] == 3
    elif result.outcome is ReceiveOutcome.ANC_DECODED:
        # decode (the known frame), then parse, descramble and verify.
        assert counts["checks"] == 4
        assert counts["InterferenceDecoder.decode"] == 1


def test_cases_reach_both_decoded_outcomes_with_one_parse(counts):
    seen = set()
    for case in CASES:
        pipeline, waveform = receive_grid.reception(*case)
        counts.clear()
        outcome = pipeline.receive(waveform).outcome
        if counts["Deframer.parse"] == 1:
            seen.add(outcome)
    assert {ReceiveOutcome.CLEAN_DECODED, ReceiveOutcome.ANC_DECODED} <= seen
