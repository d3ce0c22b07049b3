"""Every public entry point that takes bits rejects a non-bit value.

The PHY checks bits where they enter and once per traced stage, and
hands arrays it built itself to private cores unchecked, so this pins
that no public boundary lost its check along the way: each entry point
below must refuse 256, -1, 0.7 and 1.9 (checked before any cast to
``uint8``) and a ``uint8`` 2.
"""

import numpy as np
import pytest

from repro.anc.alignment import align_known_frame
from repro.anc.decoder import InterferenceDecoder, SubtractionDecoder
from repro.coding.crc import CRC16
from repro.coding.fec import FECPipeline, IdentityCode
from repro.exceptions import ConfigurationError, HeaderError
from repro.framing.frame import Deframer
from repro.framing.header import Header
from repro.framing.packet import Packet
from repro.modulation.msk import MSKModulator
from repro.scrambler.whitening import Scrambler
from repro.signal.samples import ComplexSignal
from repro.utils.validation import ensure_bit_array

BAD_BITS = [[0, 1, bad] for bad in (256, -1, 0.7, 1.9)] + [np.array([0, 1, 2], dtype=np.uint8)]

ENTRY_POINTS = {
    "Packet": lambda bits: Packet(0, 1, 2, bits),
    "Header.from_bits": Header.from_bits,
    "Deframer.parse": Deframer().parse,
    "Deframer.parse_backward": Deframer().parse_backward,
    "Scrambler.scramble": Scrambler().scramble,
    "CRC16.compute": CRC16.compute,
    "CRC16.verify": CRC16.verify,
    "CRC16.append": CRC16.append,
    "IdentityCode.encode": IdentityCode().encode,
    "IdentityCode.decode": IdentityCode().decode,
    "FECPipeline.encode": FECPipeline([IdentityCode()]).encode,
    "FECPipeline.decode": FECPipeline([IdentityCode()]).decode,
    "ensure_bit_array": ensure_bit_array,
    "MSKModulator.modulate": MSKModulator().modulate,
    "align_known_frame": align_known_frame,
    "InterferenceDecoder.decode(known_bits)": lambda bits: InterferenceDecoder().decode(
        ComplexSignal(np.ones(64, dtype=complex)),
        known_bits=bits,
        known_offset=0,
        unknown_offset=8,
        unknown_n_bits=16,
    ),
    "SubtractionDecoder.decode(known_bits)": lambda bits: SubtractionDecoder().decode(
        ComplexSignal(np.ones(64, dtype=complex)),
        known_bits=bits,
        known_offset=0,
        unknown_offset=8,
        unknown_n_bits=16,
    ),
}


@pytest.mark.parametrize("bits", BAD_BITS, ids=["256", "-1", "0.7", "1.9", "uint8-2"])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_public_bit_entry_point_rejects_non_bits(entry, bits):
    with pytest.raises(ConfigurationError, match="0s and 1s"):
        ENTRY_POINTS[entry](bits)


def test_from_bits_raises_header_error_for_a_bad_header():
    bits = Header(1, 2, 3).to_bits()
    bits[7] ^= 1
    with pytest.raises(HeaderError, match="CRC"):
        Header.from_bits(bits)
    with pytest.raises(HeaderError, match="must be"):
        Header.from_bits(bits[:-1])


def test_random_packet_rejects_a_negative_identifier():
    rng = np.random.default_rng(0)
    for ids in ((-1, 0, 0), (0, -1, 0), (0, 0, -1)):
        with pytest.raises(ConfigurationError, match="non-negative"):
            Packet.random(*ids, 8, rng)
