"""MSK modulation and demodulation.

The paper's prototype uses MSK (a form of continuous-phase / differential
phase-shift keying) because it has constant envelope, a trivially robust
differential demodulator, and is what GSM uses (§4, §6).  The ANC decoder
works on the MSK phase differences, so MSK is the one scheme this package
implements, at one complex sample per symbol.
"""

from repro.modulation.msk import MSKDemodulator, MSKModulator

__all__ = [
    "MSKDemodulator",
    "MSKModulator",
]
