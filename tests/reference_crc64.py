"""Byte-at-a-time reference for the block verification hash.

CRC-64/ECMA-182 (polynomial 0x42F0E1EBA9EA3693, MSB first, zero initial
value, no final XOR) over the block's bits packed MSB first into bytes, the
last byte zero-padded. A 256-entry table gives the register's update for
each byte. ``verification_hash`` must return the same value for every
block; the tests compare the two.
"""
import numpy as np

POLY = 0x42F0E1EBA9EA3693
MASK = 0xFFFFFFFFFFFFFFFF


def _byte_table() -> list[int]:
    table = []
    for i in range(256):
        crc = i << 56
        for _ in range(8):
            crc = ((crc << 1) ^ POLY) if crc & (1 << 63) else (crc << 1)
            crc &= MASK
        table.append(crc)
    return table


def reference_crc64(bits) -> int:
    table = _byte_table()
    crc = 0
    for byte in np.packbits(np.asarray(bits, np.uint8)).tobytes():
        crc = table[((crc >> 56) ^ byte) & 0xFF] ^ ((crc << 8) & MASK)
    return crc
