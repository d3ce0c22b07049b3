"""Error-control coding.

ANC-decoded packets have a small residual bit error rate (2-4 % in the
paper's testbed), which the system absorbs with extra error-correcting
redundancy — the ~8 % overhead charged against ANC's throughput in §11.4.
This package provides the CRC-16 that detects errors in frame headers and
payloads, and the :class:`FECPipeline` interface that chains block codes
and reports their aggregate redundancy.
"""

from repro.coding.crc import CRC16
from repro.coding.fec import FECPipeline, IdentityCode, BlockCode

__all__ = [
    "BlockCode",
    "CRC16",
    "FECPipeline",
    "IdentityCode",
]
