"""Error detection and correction substrates.

This subpackage implements, from scratch, every code SuDoku and its
baselines rely on:

* :mod:`repro.coding.bitvec` -- bit-vector helpers over Python integers.
* :mod:`repro.coding.parity` -- the XOR fold behind RAID-style region
  parity.
* :mod:`repro.coding.crc` -- a generic cyclic-redundancy-check engine and the
  CRC-31 instance SuDoku attaches to every cache line.
* :mod:`repro.coding.hamming` -- Hamming SEC / SEC-DED codes (the per-line
  "ECC-1" of the paper).
* :mod:`repro.coding.gf2m` -- binary extension-field arithmetic.
* :mod:`repro.coding.bch` -- t-error-correcting BCH codes (the "ECC-k"
  baselines, including the paper's ECC-6 comparison point).
"""

from repro.coding.bitvec import (
    BitVector,
    bit_positions,
    flip_bits,
    hamming_distance,
    popcount,
    random_bits,
    random_error_vector,
)
from repro.coding.crc import CRC, CRC31_SUDOKU, crc31
from repro.coding.gf2m import GF2m
from repro.coding.hamming import HammingSEC, HammingSECDED
from repro.coding.bch import BCH
from repro.coding.parity import xor_reduce
from repro.coding.interleave import BitInterleaver
from repro.coding.crcdistance import (
    min_weight_multiple_bound,
    verify_low_weight_detection,
)

__all__ = [
    "BitVector",
    "bit_positions",
    "flip_bits",
    "hamming_distance",
    "popcount",
    "random_bits",
    "random_error_vector",
    "CRC",
    "CRC31_SUDOKU",
    "crc31",
    "GF2m",
    "HammingSEC",
    "HammingSECDED",
    "BCH",
    "xor_reduce",
    "BitInterleaver",
    "min_weight_multiple_bound",
    "verify_low_weight_detection",
]
