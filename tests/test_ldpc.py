from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

from doqkd import ldpc
from doqkd.errors import ReconciliationError
from doqkd.ldpc import (DEGREE_PROFILES, LdpcCode, SUPPORTED_RATES,
                        decode_syndrome, make_code, peg_construct, syndrome)
from reference_decoder import reference_decode, reference_syndrome
from reference_peg import reference_peg


def dense(code):
    """The parity-check matrix as a dense uint8 array."""
    h = np.zeros((code.m, code.n), np.uint8)
    h[code.edge_chk, code.edge_var] = 1
    return h


@pytest.fixture(scope="module")
def small_code():
    return peg_construct(1024, 384, 3, DEGREE_PROFILES[0.625])


class TestConstruction:
    def test_invariants(self, small_code):
        col_w = np.bincount(small_code.edge_var, minlength=small_code.n)
        assert col_w.min() >= 2
        assert small_code.m < small_code.n
        assert np.bincount(small_code.edge_chk, minlength=small_code.m).min() >= 1

    def test_deterministic(self):
        a = peg_construct(512, 192, 9, DEGREE_PROFILES[0.625])
        b = peg_construct(512, 192, 9, DEGREE_PROFILES[0.625])
        np.testing.assert_array_equal(a.edge_chk, b.edge_chk)

    def test_seed_changes_structure(self):
        a = peg_construct(512, 192, 1, DEGREE_PROFILES[0.625])
        b = peg_construct(512, 192, 2, DEGREE_PROFILES[0.625])
        assert not np.array_equal(a.edge_chk, b.edge_chk)

    def test_no_four_cycles(self, small_code):
        h = dense(small_code).astype(np.int64)
        g = h @ h.T
        np.fill_diagonal(g, 0)
        assert (g < 2).all()

    def test_degree_two_chain_is_acyclic(self, small_code):
        # no codeword can live purely on degree-2 variables
        vdeg = np.bincount(small_code.edge_var, minlength=small_code.n)
        deg2 = np.nonzero(vdeg == 2)[0]
        pairs = set()
        for v in deg2:
            cs = tuple(sorted(small_code.edge_chk[small_code.edge_var == v].tolist()))
            assert cs not in pairs
            pairs.add(cs)

    def test_unsupported_rate(self):
        with pytest.raises(ReconciliationError):
            make_code(1024, 0.9)

    def test_design_rate(self, small_code):
        assert small_code.rate == pytest.approx(0.625)

    # small expansion caps make the level-3 search skip, and its frontier
    # size land on the cap, in codes small enough to build twice per example
    @given(n=st.integers(8, 320), rate=st.sampled_from(SUPPORTED_RATES),
           seed=st.integers(0, 2**32 - 1), cap=st.integers(0, 64))
    @example(n=96, rate=0.625, seed=1, cap=ldpc.EXPAND_CAP)
    @example(n=12, rate=0.625, seed=1, cap=ldpc.EXPAND_CAP)
    def test_matches_reference(self, n, rate, seed, cap):
        m = int(round(n * (1.0 - rate)))
        profile = DEGREE_PROFILES[rate]
        with mock.patch.object(ldpc, "EXPAND_CAP", cap):
            try:
                edge_var, edge_chk = reference_peg(n, m, seed, profile, cap)
            except ValueError:
                with pytest.raises(ValueError):
                    peg_construct(n, m, seed, profile)
                return
            code = peg_construct(n, m, seed, profile)
        np.testing.assert_array_equal(code.edge_var, edge_var)
        np.testing.assert_array_equal(code.edge_chk, edge_chk)


class TestSyndrome:
    def test_zero_block(self, small_code):
        assert not syndrome(np.zeros(small_code.n, np.uint8), small_code).any()

    def test_single_flip_is_column(self, small_code):
        h = dense(small_code)
        bits = np.zeros(small_code.n, np.uint8)
        bits[37] = 1
        np.testing.assert_array_equal(syndrome(bits, small_code), h[:, 37])

    def test_matches_dense_gf2_oracle(self, small_code):
        rng = np.random.default_rng(0)
        h = dense(small_code).astype(np.int64)
        for _ in range(5):
            bits = rng.integers(0, 2, small_code.n).astype(np.uint8)
            expect = (h @ bits) % 2
            np.testing.assert_array_equal(syndrome(bits, small_code), expect)

    def test_length_mismatch(self, small_code):
        with pytest.raises(ReconciliationError):
            syndrome(np.zeros(10, np.uint8), small_code)


class TestDecode:
    def test_zero_errors_zero_iterations(self, small_code):
        rng = np.random.default_rng(1)
        x = rng.integers(0, 2, small_code.n).astype(np.uint8)
        dec, it = decode_syndrome(x, syndrome(x, small_code), small_code, 0.05)
        assert it == 0
        np.testing.assert_array_equal(dec, x)

    def test_corrects_and_syndrome_exact(self, small_code):
        rng = np.random.default_rng(2)
        x = rng.integers(0, 2, small_code.n).astype(np.uint8)
        y = x ^ (rng.random(small_code.n) < 0.03).astype(np.uint8)
        s = syndrome(x, small_code)
        dec, it = decode_syndrome(y, s, small_code, 0.03)
        assert dec is not None
        np.testing.assert_array_equal(syndrome(dec, small_code), s)

    def test_overwhelming_noise_fails_cleanly(self, small_code):
        rng = np.random.default_rng(3)
        x = rng.integers(0, 2, small_code.n).astype(np.uint8)
        y = rng.integers(0, 2, small_code.n).astype(np.uint8)
        dec, it = decode_syndrome(y, syndrome(x, small_code), small_code,
                                  0.4, max_iters=8)
        assert dec is None and it == 8

    def test_bad_prior(self, small_code):
        with pytest.raises(ReconciliationError):
            decode_syndrome(np.zeros(small_code.n, np.uint8),
                            np.zeros(small_code.m, np.uint8), small_code, 0.7)

    def test_one_percent_rate07_block_success(self):
        # decoder-simulation oracle: >= 99% success over 100 blocks
        code = make_code(16384, 0.70, 1)
        rng = np.random.default_rng(4)
        ok = 0
        for _ in range(100):
            x = rng.integers(0, 2, code.n).astype(np.uint8)
            y = x ^ (rng.random(code.n) < 0.01).astype(np.uint8)
            dec, _ = decode_syndrome(y, syndrome(x, code), code, 0.01)
            ok += int(dec is not None and np.array_equal(dec, x))
        assert ok >= 99

    # small PEG codes at every rate, or the 2048-bit make_code block at n=2048,
    # with edges in construction order or shuffled (PEG lists them sorted by
    # variable); the decoder must repeat the edge-order loop of the oracle
    @given(n=st.integers(64, 320), rate=st.sampled_from(SUPPORTED_RATES),
           code_seed=st.integers(0, 2**32 - 1), block_seed=st.integers(0, 2**32 - 1),
           prior=(st.floats(0.0, 0.5, exclude_min=True, exclude_max=True)
                  | st.floats(0.01, 0.2)),
           errors=st.integers(1, 8), max_iters=st.integers(1, 60),
           shuffle=st.booleans())
    @example(n=256, rate=0.625, code_seed=1, block_seed=1, prior=0.05,
             errors=0, max_iters=60, shuffle=False)  # zero errors: no iteration
    @example(n=256, rate=0.625, code_seed=1, block_seed=1, prior=0.3,
             errors=128, max_iters=5, shuffle=False)  # fails at max_iters
    @example(n=2048, rate=0.7, code_seed=1, block_seed=7, prior=0.03,
             errors=61, max_iters=60, shuffle=False)
    # adjacent priors at which the iteration count steps (4 to 5, 5 to 4):
    # the outcome there turns on the rounding of every sum, so it tells
    # apart two decoders that add in different orders, the first a
    # variable's changes within a group, the second a check's edges
    @example(n=272, rate=0.75, code_seed=4264295185, block_seed=807028964,
             prior=0.04339607920622349, errors=8, max_iters=60, shuffle=False)
    @example(n=272, rate=0.75, code_seed=4264295185, block_seed=807028964,
             prior=0.043396079206223494, errors=8, max_iters=60, shuffle=False)
    @example(n=142, rate=0.65, code_seed=1117377922, block_seed=644512513,
             prior=0.03957439301147302, errors=6, max_iters=60, shuffle=False)
    @example(n=142, rate=0.65, code_seed=1117377922, block_seed=644512513,
             prior=0.03957439301147303, errors=6, max_iters=60, shuffle=False)
    # the same for the flooding schedule that preceded it (3 to 4, 4 to 5)
    @example(n=273, rate=0.65, code_seed=394775965, block_seed=1438311637,
             prior=0.07641675231443497, errors=5, max_iters=60, shuffle=False)
    @example(n=273, rate=0.65, code_seed=394775965, block_seed=1438311637,
             prior=0.07641675231443498, errors=5, max_iters=60, shuffle=False)
    @example(n=272, rate=0.75, code_seed=4264295185, block_seed=807028964,
             prior=0.02473069041738773, errors=8, max_iters=60, shuffle=False)
    @example(n=272, rate=0.75, code_seed=4264295185, block_seed=807028964,
             prior=0.024730690417387735, errors=8, max_iters=60, shuffle=False)
    # a tiny prior: totals reach about +-200, far past the oracle's clip
    # of +-40 before tanh, which binds on hundreds of edges
    @example(n=256, rate=0.5, code_seed=1, block_seed=2, prior=1e-4,
             errors=3, max_iters=60, shuffle=False)
    def test_matches_reference(self, n, rate, code_seed, block_seed, prior,
                               errors, max_iters, shuffle):
        m = int(round(n * (1.0 - rate)))
        if n == 2048:
            code = make_code(n, rate)
        else:
            try:
                code = peg_construct(n, m, code_seed, DEGREE_PROFILES[rate])
            except ValueError:
                assume(False)
        rng = np.random.default_rng(block_seed)
        if shuffle:
            order = rng.permutation(code.n_edges)
            code = LdpcCode(n, m, code.seed, code.edge_var[order], code.edge_chk[order])
        x = rng.integers(0, 2, n).astype(np.uint8)
        y = x.copy()
        y[rng.permutation(n)[:errors]] ^= 1
        s = reference_syndrome(x, code)
        np.testing.assert_array_equal(syndrome(x, code), s)
        got, got_it = decode_syndrome(y, s, code, prior, max_iters)
        want, want_it = reference_decode(y, s, code, prior, max_iters)
        assert got_it == want_it
        if want is None:
            assert got is None
        else:
            np.testing.assert_array_equal(got, want)
        if not errors:
            assert got_it == 0

    def test_layered_verifies_no_fewer_blocks(self):
        # seeded binary symmetric channel: 200 blocks of 2,048 bits per
        # (rate, bit error rate); the floors are the verified counts of the
        # flooding schedule that preceded the layered one, measured with
        # this generator
        floors = {(0.625, 0.05): 184, (0.70, 0.034): 193,
                  (0.75, 0.027): 186, (0.80, 0.021): 161}
        verified = {}
        for rate, p in floors:
            code = make_code(2048, rate)
            rng = np.random.default_rng(2048)
            verified[rate, p] = 0
            for _ in range(200):
                x = rng.integers(0, 2, code.n).astype(np.uint8)
                y = x ^ (rng.random(code.n) < p).astype(np.uint8)
                dec, _ = decode_syndrome(y, syndrome(x, code), code, p)
                verified[rate, p] += dec is not None and np.array_equal(dec, x)
        assert all(verified[case] >= floor for case, floor in floors.items()), verified


class TestNumpyFacts:
    """The floating-point facts that let the decoder leave out the oracle's
    clips that cannot bind, checked on this numpy build: its SIMD loops
    treat an array's main body and its tail separately, so every length
    from 1 to 64 is tried as well as long arrays."""

    @staticmethod
    def lengths(x):
        return [x] + [x[:k] for k in range(1, 65)]

    def test_tanh_saturates_from_20(self):
        y = np.concatenate([np.linspace(20.0, 40.0, 200_001),
                            np.geomspace(40.0, 1e308, 1001), [np.inf]])
        for part in self.lengths(y):
            assert (np.tanh(part) == 1.0).all()
            assert (np.tanh(-part) == -1.0).all()

    def test_arctanh_is_odd(self):
        top = 1.0 - ldpc._TANH_EPS
        x = np.concatenate([np.linspace(0.0, top, 1_000_001),
                            top - np.arange(10_000) * np.spacing(top),
                            np.geomspace(1e-300, 1e-3, 10_000)])
        for part in self.lengths(x):
            assert np.arctanh(-part).tobytes() == (-np.arctanh(part)).tobytes()

    def test_largest_message_is_inside_the_clip(self):
        assert 2.0 * np.arctanh(1.0 - ldpc._TANH_EPS) < ldpc.LLR_MAX


def test_supported_rates_cover_spec_set():
    for r in (0.5, 0.6, 0.7, 0.75, 0.8):
        assert r in SUPPORTED_RATES
