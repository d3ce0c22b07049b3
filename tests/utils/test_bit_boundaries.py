"""Every public entry point that takes bits rejects a non-bit value.

The PHY checks bits once per stage and hands the checked array to its
internal helpers unchecked, so this pins that no public boundary lost
its check along the way: each entry point below must refuse 256, -1,
0.7 and 1.9 (checked before any cast to ``uint8``) and a ``uint8`` 2.
"""

import numpy as np
import pytest

from repro.coding.crc import CRC16, check_and_strip_crc
from repro.exceptions import ConfigurationError
from repro.framing.frame import Deframer
from repro.framing.header import Header
from repro.framing.packet import Packet
from repro.framing.pilot import PilotSequence, find_all_pilots, find_pilot
from repro.modulation.msk import MSKModulator, expected_phase_differences
from repro.scrambler.whitening import Scrambler

BAD_BITS = [[0, 1, bad] for bad in (256, -1, 0.7, 1.9)] + [np.array([0, 1, 2], dtype=np.uint8)]

ENTRY_POINTS = {
    "Packet": lambda bits: Packet(0, 1, 2, bits),
    "Header.from_bits": Header.from_bits,
    "Deframer.parse": Deframer().parse,
    "Deframer.parse_backward": Deframer().parse_backward,
    "Deframer.extract_payload_region": Deframer().extract_payload_region,
    "Scrambler.scramble": Scrambler().scramble,
    "CRC16.compute": CRC16.compute,
    "CRC16.verify": CRC16.verify,
    "CRC16.append": CRC16.append,
    "check_and_strip_crc": check_and_strip_crc,
    "find_pilot": lambda bits: find_pilot(bits, PilotSequence()),
    "find_all_pilots": lambda bits: find_all_pilots(bits, PilotSequence()),
    "MSKModulator.modulate": MSKModulator().modulate,
    "expected_phase_differences": expected_phase_differences,
}


@pytest.mark.parametrize("bits", BAD_BITS, ids=["256", "-1", "0.7", "1.9", "uint8-2"])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_public_bit_entry_point_rejects_non_bits(entry, bits):
    with pytest.raises(ConfigurationError, match="0s and 1s"):
        ENTRY_POINTS[entry](bits)
