"""Raw-key post-processing: bit mapping, reconciliation, privacy amplification.

Symbols map to bits through a binary-reflected Gray code so adjacent-slot
timing errors flip a single bit. Reconciliation is one-way: the reference
side discloses an LDPC syndrome plus a 64-bit verification hash per block;
the other side decodes. Privacy amplification is a seeded Toeplitz hash
over GF(2), applied to the concatenation of verified blocks.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import ReconciliationError
from .ldpc import LdpcCode, SUPPORTED_RATES, decode_syndrome, make_code, syndrome

VERIFICATION_HASH_BITS = 64


def gray_encode_symbols(symbols: np.ndarray, n_bits: int) -> np.ndarray:
    """Symbols -> bit array (uint8), Gray-coded, MSB first per symbol."""
    symbols = np.asarray(symbols, np.int64)
    if symbols.size and (symbols.min() < 0 or symbols.max() >= (1 << n_bits)):
        raise ValueError("symbol out of range")
    g = symbols ^ (symbols >> 1)
    shifts = np.arange(n_bits - 1, -1, -1)
    return ((g[:, None] >> shifts) & 1).astype(np.uint8).ravel()


def binary_entropy(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def efficiency(disclosed_bits: int, n: int, measured_ber: float) -> float:
    """Fraction of the Slepian-Wolf limit retained: (1 - m/n) / (1 - h(p))."""
    if not 0.0 < measured_ber < 0.5:
        raise ValueError("measured_ber must be in (0, 0.5)")
    beta = (1.0 - disclosed_bits / n) / (1.0 - binary_entropy(measured_ber))
    return min(beta, 1.0)


# CRC-64/ECMA-182: MSB first, zero initial value, no final XOR
_CRC64_POLY = 0x42F0E1EBA9EA3693


@lru_cache(maxsize=4)
def _crc64_bit_table(n_bits: int) -> np.ndarray:
    """CRC of each single-bit block of ``n_bits`` bits, zero-padded to bytes.

    The CRC is linear over GF(2), so a block's CRC is the XOR of the entries
    of its set bits. The last bit's CRC is the polynomial; each bit before it
    is followed by one more zero bit, which shifts the register once more.
    """
    table = np.empty(-(-n_bits // 8) * 8, np.uint64)
    crc = _CRC64_POLY
    for i in range(table.size - 1, -1, -1):
        table[i] = crc
        crc = ((crc << 1) ^ _CRC64_POLY if crc >> 63 else crc << 1) & 0xFFFFFFFFFFFFFFFF
    table.setflags(write=False)  # shared by every caller through the cache
    return table[:n_bits]


def verification_hash(bits: np.ndarray) -> int:
    """CRC-64/ECMA-182 of a bit block, packed MSB first into zero-padded bytes."""
    bits = np.asarray(bits, np.uint8).ravel()
    return int(np.bitwise_xor.reduce(_crc64_bit_table(bits.size)[bits != 0]))


def select_rate(measured_ber: float, min_overhead: float = 1.25,
                rates: tuple[float, ...] = SUPPORTED_RATES) -> float:
    """Largest design rate whose syndrome overhead stays decodable.

    Requires (1 - rate) >= min_overhead * h(p); falls back to the lowest
    supported rate when nothing qualifies.
    """
    h = binary_entropy(measured_ber)
    feasible = [r for r in rates if (1.0 - r) >= min_overhead * h]
    return max(feasible) if feasible else min(rates)


@dataclass
class BlockResult:
    success: bool
    verified: bool
    iterations: int
    corrected: np.ndarray | None


@dataclass
class ReconciliationOutcome:
    """Bookkeeping for a whole reconciliation pass."""

    code_rate: float
    block_length: int
    corrected_blocks: int
    failed_blocks: int
    disclosed_bits_total: int
    efficiency_beta: float
    measured_ber: float
    residual_error_flags: list[bool] = field(default_factory=list)
    blocks: list[BlockResult] = field(default_factory=list)

    @property
    def n_blocks(self) -> int:
        return self.corrected_blocks + self.failed_blocks

    @property
    def success_fraction(self) -> float:
        return self.corrected_blocks / self.n_blocks if self.n_blocks else 0.0

    def corrected_bits(self) -> np.ndarray:
        good = [b.corrected for b in self.blocks if b.success and b.verified]
        return np.concatenate(good) if good else np.empty(0, np.uint8)

    def to_dict(self) -> dict:
        return {"code_rate": self.code_rate, "block_length": self.block_length,
                "corrected_blocks": self.corrected_blocks,
                "failed_blocks": self.failed_blocks,
                "disclosed_bits_total": self.disclosed_bits_total,
                "efficiency_beta": self.efficiency_beta,
                "measured_ber": self.measured_ber}


def reconcile(bob_bits: np.ndarray, alice_syndrome: np.ndarray, code: LdpcCode,
              crossover_prior: float, max_iters: int = 60, *,
              alice_check: int) -> BlockResult:
    """Decode one block toward the disclosed syndrome.

    Success requires an exact syndrome match; the result is flagged
    ``verified`` when it also matches ``alice_check``, the 64-bit
    verification hash of the reference block.
    """
    corrected, iters = decode_syndrome(bob_bits, alice_syndrome, code,
                                       crossover_prior, max_iters)
    if corrected is None:
        return BlockResult(False, False, iters, None)
    return BlockResult(True, verification_hash(corrected) == alice_check, iters,
                       corrected)


def reconcile_key(alice_bits: np.ndarray, bob_bits: np.ndarray, *,
                  block_length: int = 16384, max_iters: int = 60,
                  min_overhead: float = 1.25,
                  code_seed: int = 1) -> ReconciliationOutcome:
    """Block-wise one-way reconciliation of Bob's bits against Alice's.

    The trailing partial block is dropped. The measured bit error rate picks
    the code rate; disclosed information per block is the syndrome plus the
    64-bit verification hash.
    """
    alice_bits = np.asarray(alice_bits, np.uint8)
    bob_bits = np.asarray(bob_bits, np.uint8)
    if alice_bits.size != bob_bits.size:
        raise ReconciliationError("key halves differ in length")
    n_blocks = alice_bits.size // block_length
    if n_blocks == 0:
        return ReconciliationOutcome(0.0, block_length, 0, 0, 0, 0.0, 0.0)

    used = n_blocks * block_length
    ber = float(np.count_nonzero(alice_bits[:used] != bob_bits[:used])) / used
    ber_prior = min(max(ber, 1e-4), 0.4999)
    code_rate = select_rate(ber_prior, min_overhead)
    code = make_code(block_length, code_rate, code_seed)

    outcome = ReconciliationOutcome(
        code_rate, block_length, 0, 0, 0,
        efficiency_beta=0.0, measured_ber=ber)
    for i in range(n_blocks):
        sl = slice(i * block_length, (i + 1) * block_length)
        a, b = alice_bits[sl], bob_bits[sl]
        res = reconcile(b, syndrome(a, code), code, ber_prior, max_iters,
                        alice_check=verification_hash(a))
        outcome.blocks.append(res)
        outcome.disclosed_bits_total += code.m + VERIFICATION_HASH_BITS
        if res.success and res.verified:
            outcome.corrected_blocks += 1
            outcome.residual_error_flags.append(bool(np.any(res.corrected != a)))
        else:
            outcome.failed_blocks += 1
    per_block_disclosed = code.m + VERIFICATION_HASH_BITS
    outcome.efficiency_beta = efficiency(per_block_disclosed, block_length, ber_prior)
    return outcome


def _smooth_length(n: int) -> int:
    """Smallest 2**a * 3**b * 5**c >= n, a length the FFT factors well."""
    best, p5 = 1 << (n - 1).bit_length(), 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def privacy_amplify(bits: np.ndarray, out_len: int, seed: int) -> np.ndarray:
    """Toeplitz-hash compression over GF(2), deterministic in the seed.

    The out_len x n Toeplitz matrix is defined by n + out_len - 1 seeded
    bits; the product is computed as a binary convolution via FFT (exact:
    coefficient counts stay far below 2**53).
    """
    bits = np.asarray(bits, np.uint8)
    n = bits.size
    if out_len > n:
        raise ValueError("output longer than input")
    if out_len == 0:
        return np.empty(0, np.uint8)
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(n, out_len)))
    diag = rng.integers(0, 2, n + out_len - 1).astype(np.float64)
    # T[i, j] = diag[i - j + n - 1], so row i of T @ x is conv(diag, x)[n - 1 + i];
    # the linear convolution ends at 2n + out_len - 3, so at a circular length
    # of n + out_len - 1 or more no wrapped term reaches the kept entries
    size = _smooth_length(n + out_len - 1)
    fa = np.fft.rfft(diag, size)
    fb = np.fft.rfft(bits.astype(np.float64), size)
    conv = np.fft.irfft(fa * fb, size)
    counts = np.rint(conv[n - 1: n - 1 + out_len]).astype(np.int64)
    return (counts & 1).astype(np.uint8)


def secret_length(n_coincidences: int, delta_i: float,
                  outcome: ReconciliationOutcome | None = None) -> int:
    """Final key length: surviving coincidences times secret bits each.

    ``delta_i`` already carries the reconciliation-efficiency penalty;
    block failures remove their share of coincidences.
    """
    if delta_i < 0:
        raise ValueError("delta_i must be >= 0")
    surviving = n_coincidences
    if outcome is not None and outcome.n_blocks:
        surviving = n_coincidences * outcome.success_fraction
    return int(math.floor(surviving * delta_i))
