import dataclasses
import math

import numpy as np
import pytest

from doqkd.errors import ConfigError, ReconciliationError
from doqkd.ldpc import SUPPORTED_RATES, make_code, syndrome
from doqkd.postproc import (ReconciliationOutcome, binary_entropy, efficiency,
                            gray_encode_symbols, privacy_amplify, reconcile,
                            reconcile_key, secret_length, select_rate,
                            verification_hash)
from doqkd.simulate import paper_default_config

from reference_crc64 import reference_crc64


def gray_decode_bits(bits: np.ndarray, n_bits: int) -> np.ndarray:
    """Inverse of ``gray_encode_symbols``: the round-trip oracle."""
    bits = np.asarray(bits, np.uint8)
    shifts = np.arange(n_bits - 1, -1, -1)
    g = (bits.reshape(-1, n_bits).astype(np.int64) << shifts).sum(axis=1)
    b = g.copy()
    shift = 1
    while shift < n_bits:
        b ^= b >> shift
        shift <<= 1
    return b


class TestGrayCode:
    def test_n2_pattern(self):
        bits = gray_encode_symbols(np.array([0, 1, 2, 3]), 2).reshape(4, 2)
        assert [tuple(r) for r in bits.tolist()] == [(0, 0), (0, 1), (1, 1), (1, 0)]

    def test_roundtrip_all_symbols(self):
        for n_bits in range(1, 9):
            syms = np.arange(1 << n_bits)
            back = gray_decode_bits(gray_encode_symbols(syms, n_bits), n_bits)
            np.testing.assert_array_equal(back, syms)

    def test_adjacent_slots_flip_one_bit(self):
        bits = gray_encode_symbols(np.arange(16), 4).reshape(16, 4)
        for k in range(15):
            assert int(np.count_nonzero(bits[k] != bits[k + 1])) == 1

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            gray_encode_symbols(np.array([4]), 2)


class TestEfficiency:
    def test_shannon_limit(self):
        p = 0.07
        m = binary_entropy(p) * 10000
        assert efficiency(int(m), 10000, p) == pytest.approx(1.0, abs=0.001)

    def test_paper_operating_point(self):
        # m/n = 0.358 at p = 0.05 retains ~90% of the limit
        assert efficiency(int(0.358 * 16384), 16384, 0.05) == pytest.approx(0.900,
                                                                            abs=0.002)

    def test_full_disclosure_zero(self):
        assert efficiency(9999, 10000, 0.05) == pytest.approx(0.0, abs=0.001)

    def test_bad_ber(self):
        with pytest.raises(ValueError):
            efficiency(100, 1000, 0.0)


class TestSelectRate:
    def test_low_error_picks_high_rate(self):
        assert select_rate(0.001) == 0.8

    def test_five_percent_operating_point(self):
        r = select_rate(0.05, min_overhead=1.25)
        assert r == 0.625

    def test_session_bit_error_picks_075(self):
        assert select_rate(0.026, min_overhead=1.25) == 0.75

    def test_hopeless_falls_to_lowest(self):
        assert select_rate(0.45) == 0.5


@pytest.fixture(scope="module")
def code():
    return make_code(4096, 0.625, 2)


class TestReconcile:
    def test_zero_errors_untouched(self, code):
        rng = np.random.default_rng(0)
        x = rng.integers(0, 2, code.n).astype(np.uint8)
        res = reconcile(x, syndrome(x, code), code, 0.05,
                        alice_check=verification_hash(x))
        assert res.success and res.verified and res.iterations == 0
        np.testing.assert_array_equal(res.corrected, x)

    def test_corrects_errors_and_verifies(self, code):
        rng = np.random.default_rng(1)
        x = rng.integers(0, 2, code.n).astype(np.uint8)
        y = x ^ (rng.random(code.n) < 0.04).astype(np.uint8)
        res = reconcile(y, syndrome(x, code), code, 0.04,
                        alice_check=verification_hash(x))
        assert res.success and res.verified
        np.testing.assert_array_equal(res.corrected, x)

    def test_wrong_hash_flags_unverified(self, code):
        rng = np.random.default_rng(2)
        x = rng.integers(0, 2, code.n).astype(np.uint8)
        res = reconcile(x, syndrome(x, code), code, 0.05, alice_check=12345)
        assert res.success and not res.verified

    def test_reconcile_key_end_to_end(self):
        rng = np.random.default_rng(3)
        n = 4096
        alice = rng.integers(0, 2, 3 * n + 100).astype(np.uint8)
        bob = alice ^ (rng.random(alice.size) < 0.02).astype(np.uint8)
        out = reconcile_key(alice, bob, block_length=n, code_seed=2)
        assert out.n_blocks == 3  # partial tail dropped
        assert out.corrected_blocks == 3
        assert not any(out.residual_error_flags)
        np.testing.assert_array_equal(out.corrected_bits(), alice[:3 * n])
        per_block = int(round((1 - out.code_rate) * n)) + 64
        assert out.disclosed_bits_total == 3 * per_block
        assert out.efficiency_beta <= 1.0

    @pytest.mark.parametrize("rate", SUPPORTED_RATES)
    def test_reconcile_key_at_smallest_accepted_block(self, rate):
        cfg = paper_default_config()

        def accepted(n):
            try:
                dataclasses.replace(cfg, block_length=n)
            except ConfigError:
                return False
            return True

        n = next(n for n in range(1, 1024) if accepted(n))
        rng = np.random.default_rng(4)
        alice = rng.integers(0, 2, 20 * n).astype(np.uint8)
        bob = alice ^ (rng.random(alice.size) < 0.01).astype(np.uint8)
        ber = np.count_nonzero(alice != bob) / alice.size
        # the overhead at which select_rate just picks this rate
        overhead = (1.0 - rate) / binary_entropy(ber) * (1.0 - 1e-9)
        out = reconcile_key(alice, bob, block_length=n, min_overhead=overhead)
        assert out.code_rate == rate and out.n_blocks == 20
        assert 0.0 < out.efficiency_beta <= 1.0

    def test_length_mismatch(self):
        with pytest.raises(ReconciliationError):
            reconcile_key(np.zeros(10, np.uint8), np.zeros(9, np.uint8))


class TestVerificationHash:
    def test_deterministic_and_sensitive(self):
        rng = np.random.default_rng(4)
        bits = rng.integers(0, 2, 1000).astype(np.uint8)
        h1 = verification_hash(bits)
        assert h1 == verification_hash(bits.copy())
        bits[500] ^= 1
        assert verification_hash(bits) != h1
        assert 0 <= h1 < 2**64

    @pytest.mark.parametrize("crc", [verification_hash, reference_crc64])
    def test_catalogue_check_value(self, crc):
        # CRC-64/ECMA-182's check value: the CRC of the ASCII bytes "123456789"
        bits = np.unpackbits(np.frombuffer(b"123456789", np.uint8))
        assert crc(bits) == 0x6C40DF5F0B497347

    # the empty block, lengths that end inside a byte (the last one is
    # zero-padded), and whole 16,384-bit reconciliation blocks
    @pytest.mark.parametrize("n_bits", [0, 1, 7, 8, 9, 63, 65, 1001, 16383, 16384])
    def test_matches_byte_table_oracle(self, n_bits):
        rng = np.random.default_rng(n_bits)
        for bits in (rng.integers(0, 2, n_bits).astype(np.uint8),
                     np.ones(n_bits, np.uint8), np.zeros(n_bits, np.uint8)):
            assert verification_hash(bits) == reference_crc64(bits)


class TestPrivacyAmplify:
    def test_empty_output(self):
        assert privacy_amplify(np.ones(10, np.uint8), 0, 1).size == 0

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        bits = rng.integers(0, 2, 5000).astype(np.uint8)
        a = privacy_amplify(bits, 2000, 99)
        b = privacy_amplify(bits, 2000, 99)
        np.testing.assert_array_equal(a, b)
        c = privacy_amplify(bits, 2000, 100)
        assert not np.array_equal(a, c)

    def test_output_longer_than_input_rejected(self):
        with pytest.raises(ValueError):
            privacy_amplify(np.ones(5, np.uint8), 6, 1)

    # the convolution's length is the smallest 5-smooth one >= n + out_len - 1:
    # 419 -> 432; 1 and 300 (out_len == 1) are 5-smooth themselves; 513
    # (out_len == n, odd) and 301 (odd n) are one above 512 and 300
    @pytest.mark.parametrize("n, out_len", [(300, 120), (1, 1), (300, 1),
                                            (257, 257), (201, 101), (250, 7)])
    def test_matches_dense_toeplitz_oracle(self, n, out_len):
        # same seeded diagonal, explicit GF(2) matrix multiply
        rng_bits = np.random.default_rng(6)
        seed = 7
        bits = rng_bits.integers(0, 2, n).astype(np.uint8)
        got = privacy_amplify(bits, out_len, seed)
        rng = np.random.default_rng(np.random.SeedSequence(seed,
                                                           spawn_key=(n, out_len)))
        diag = rng.integers(0, 2, n + out_len - 1)
        t = np.zeros((out_len, n), np.int64)
        for i in range(out_len):
            for j in range(n):
                t[i, j] = diag[i - j + n - 1]
        expect = (t @ bits) % 2
        np.testing.assert_array_equal(got, expect.astype(np.uint8))

    def test_bias_and_serial_correlation(self):
        # hash a counter ensemble; output bits should be balanced and
        # serially uncorrelated
        rng = np.random.default_rng(8)
        outs = []
        base = rng.integers(0, 2, 4096).astype(np.uint8)
        for k in range(256):
            x = base.copy()
            x[:12] = [(k >> i) & 1 for i in range(12)]
            outs.append(privacy_amplify(x, 1024, 42))
        bits = np.concatenate(outs).astype(np.float64)
        bias = abs(bits.mean() - 0.5)
        serial = abs(np.corrcoef(bits[:-1], bits[1:])[0, 1])
        assert bias < 1e-2
        assert serial < 1e-2

    def test_input_bit_flip_avalanche(self):
        rng = np.random.default_rng(9)
        bits = rng.integers(0, 2, 4096).astype(np.uint8)
        ref = privacy_amplify(bits, 1024, 3)
        fractions = []
        for j in rng.integers(0, 4096, 12):
            mod = bits.copy()
            mod[j] ^= 1
            out = privacy_amplify(mod, 1024, 3)
            fractions.append(np.mean(out != ref))
        assert all(0.4 < f < 0.6 for f in fractions)


class TestSecretLength:
    def test_zero_delta(self):
        assert secret_length(1000, 0.0) == 0

    def test_zero_coincidences(self):
        assert secret_length(0, 2.9) == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            secret_length(10, -0.1)

    def test_paper_rate_arithmetic(self):
        # 37.75k coincidences/s at 2.92 bpc is ~110 kbps before block loss;
        # a ~94% block survival reproduces the quoted ~104 kbps
        seconds = 5
        outcome = ReconciliationOutcome(0.75, 16384, corrected_blocks=1887,
                                        failed_blocks=113, disclosed_bits_total=0,
                                        efficiency_beta=0.9, measured_ber=0.026)
        n_coinc = 37750 * seconds
        bits = secret_length(n_coinc, 2.92, outcome)
        rate = bits / seconds
        assert rate == pytest.approx(104e3, rel=0.01)
        assert secret_length(n_coinc, 2.92) == pytest.approx(110.2e3 * seconds,
                                                             rel=0.01)
