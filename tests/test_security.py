import math
import warnings

import numpy as np
import pytest

import doqkd as dq
from doqkd.errors import EstimationError
from doqkd.security import (Baseline, FourBasisHistograms, SecurityReport, Tfcm,
                            _peak_moments, estimate_tfcm, excess_noise,
                            gaussian_entropy_g, holevo_bound,
                            mutual_information, secret_fraction, shannon_info)
from doqkd.timetags import CoincidenceHistogram


def gaussian_hist(sigma, n=100000, bin_width=30, half_range=3840, floor_rate=0.0,
                  seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(0, sigma, n)
    edges = np.arange(-half_range, half_range + bin_width, bin_width)
    counts, _ = np.histogram(x, edges)
    if floor_rate:
        counts = counts + rng.poisson(floor_rate, counts.size)
    return CoincidenceHistogram(bin_width, -half_range, half_range,
                                counts.astype(np.int64), 1.0)


def synthetic_tfcm(var_t, var_wa, var_wb, cov_ww):
    m = np.zeros((4, 4))
    m[0, 0] = m[2, 2] = var_t / 2
    m[1, 1] = var_wa
    m[3, 3] = var_wb
    m[1, 3] = m[3, 1] = cov_ww
    return Tfcm(m, {"tt": 1e5, "tf": 1e5, "ft": 1e5, "ff": 1e5})


BETA = 2.2958067590909887e-09


def make_pair(sigma_t0=63.7, sigma_omega=1.64e11, sigma_w0=1.07e10,
              xi_t=0.0, xi_w=0.0):
    base = synthetic_tfcm(sigma_t0**2, sigma_omega**2, sigma_omega**2 + sigma_w0**2,
                          -(sigma_omega**2) + 0.5 * sigma_w0**2)
    cur = synthetic_tfcm(sigma_t0**2 * (1 + xi_t), sigma_omega**2,
                         sigma_omega**2 + sigma_w0**2 * (1 + xi_w),
                         -(sigma_omega**2) + 0.5 * sigma_w0**2 * (1 + xi_w))
    return cur, Baseline(base)


class TestHistogramMoments:
    def test_gaussian_variance(self):
        sigma = 63.7
        m = _peak_moments(gaussian_hist(sigma, floor_rate=20), linear_floor=False)
        assert m.variance_ps2 == pytest.approx(sigma**2, rel=0.03)
        assert abs(m.mean_ps) < 3.0

    def test_narrow_range_rejected(self):
        # peak is resolvable but +/-3 FWHM spans the whole range
        h = gaussian_hist(150.0, half_range=990, bin_width=30)
        with pytest.raises(EstimationError):
            _peak_moments(h, linear_floor=False)


class TestEstimateTfcm:
    def test_degenerate_spectrum(self, fast_cfg):
        import dataclasses
        from doqkd.session import analyze_security
        cfg = dq.paper_default_config()
        cfg.duration_s = 0.3
        cfg.baseline_duration_s = 0.3
        cfg.source = dataclasses.replace(cfg.source, spectral_sigma_rad_s=0.0,
                                         correlation_break_sigma_rad_s=0.0)
        cfg.channel = dataclasses.replace(cfg.channel, eve_freq_sigma_rad_s=0.0)
        tags = dq.simulate_session(cfg)
        _, tfcm = analyze_security(tags, cfg)
        # all spectral entries negligible vs the physical detuning scale
        scale = (1.64e11) ** 2
        assert abs(tfcm.matrix[1, 1]) < 0.01 * scale
        assert abs(tfcm.matrix[3, 3]) < 0.01 * scale
        assert abs(tfcm.matrix[1, 3]) < 0.01 * scale

    def test_insufficient_counts(self, session25):
        h = session25["hists"]
        tiny = FourBasisHistograms(
            tt=CoincidenceHistogram(h.tt.bin_width, h.tt.offset_min,
                                    h.tt.offset_max,
                                    (h.tt.counts // 1000).astype(np.int64), 1.0),
            tf=h.tf, ft=h.ft, ff=h.ff)
        with pytest.raises(EstimationError):
            estimate_tfcm(tiny, BETA)

    def test_zero_beta_rejected(self, session25):
        with pytest.raises(EstimationError):
            estimate_tfcm(session25["hists"], 0.0)

    def test_output_symmetric_psd(self, session25):
        tfcm = session25["tfcm"]
        np.testing.assert_allclose(tfcm.matrix, tfcm.matrix.T)
        assert tfcm.is_psd()


class TestExcessNoise:
    def test_noiseless(self):
        assert excess_noise(4.0, 4.0) == 0.0

    def test_arithmetic(self):
        assert excess_noise(1.21, 1.0) == pytest.approx(0.21)

    def test_bad_baseline(self):
        with pytest.raises(EstimationError):
            excess_noise(1.0, 0.0)


class TestMutualInformation:
    def test_noiseless_uniform_16ary(self):
        rng = np.random.default_rng(0)
        a = rng.integers(0, 16, 100_000)
        assert mutual_information(a, a, 16) == pytest.approx(4.0, abs=0.01)

    def test_symmetric_channel_analytic(self):
        # 16-ary, symbol error eps spread uniformly over the 15 wrong symbols
        rng = np.random.default_rng(1)
        eps = 0.0495
        n = 400_000
        a = rng.integers(0, 16, n)
        b = a.copy()
        err = rng.random(n) < eps
        b[err] = (a[err] + rng.integers(1, 16, err.sum())) % 16
        h = -eps * math.log2(eps) - (1 - eps) * math.log2(1 - eps)
        expect = 4.0 - h - eps * math.log2(15)
        assert expect == pytest.approx(3.5223, abs=0.001)
        assert mutual_information(a, b, 16) == pytest.approx(expect, abs=0.02)

    def test_independent_keys_near_zero(self):
        rng = np.random.default_rng(2)
        a = rng.integers(0, 16, 200_000)
        b = rng.integers(0, 16, 200_000)
        bias_bound = 16 * 16 / (2 * 200_000 * math.log(2))
        assert 0 <= mutual_information(a, b, 16) < 3 * bias_bound + 0.001

    def test_upper_bound_n_bits(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            a = rng.integers(0, 8, 5000)
            b = np.where(rng.random(5000) < 0.1, rng.integers(0, 8, 5000), a)
            assert mutual_information(a, b, 8) <= 3.0 + 1e-9

    def test_shannon_info_guards(self, session25):
        from doqkd.sifting import FrameFormat, SiftResult
        frames = np.arange(10)
        small = SiftResult(np.zeros(10, np.int64), np.zeros(10, np.int64),
                           frames, frames, np.zeros(10, np.uint8), frames, 0,
                           FrameFormat(2, 2, 50))
        with pytest.raises(EstimationError):
            shannon_info(small)


class TestHolevoBound:
    def test_baseline_is_exactly_zero(self):
        cur, base = make_pair()
        assert holevo_bound(cur, base) == 0.0

    def test_monotone_in_freq_noise(self):
        chis = []
        for xi_w in (0.0, 0.1, 0.3, 0.6, 1.0):
            cur, base = make_pair(xi_w=xi_w, xi_t=0.02)
            chis.append(holevo_bound(cur, base))
        assert all(b > a for a, b in zip(chis, chis[1:]))

    def test_larger_noise_larger_chi(self):
        c1, b1 = make_pair(xi_w=0.1)
        c2, b2 = make_pair(xi_w=0.3)
        assert holevo_bound(c2, b2) > holevo_bound(c1, b1)

    def test_clamp_warns(self):
        cur, base = make_pair(xi_t=-0.2, xi_w=-0.2)
        with pytest.warns(RuntimeWarning):
            chi = holevo_bound(cur, base)
        assert chi >= 0.0

    def test_non_psd_rejected(self):
        bad = synthetic_tfcm(4000.0, 1e22, 1e22, -2e22)
        _, base = make_pair()
        with pytest.raises(EstimationError):
            holevo_bound(bad, base)

    def test_bad_baseline_rejected(self):
        cur, _ = make_pair()
        flat = synthetic_tfcm(4000.0, 0.0, 0.0, 0.0)
        with pytest.raises(EstimationError):
            holevo_bound(cur, Baseline(flat))

    def test_g_function(self):
        assert gaussian_entropy_g(1.0) == 0.0
        x = 1.5
        expect = ((x + 1) / 2) * math.log2((x + 1) / 2) \
            - ((x - 1) / 2) * math.log2((x - 1) / 2)
        assert gaussian_entropy_g(x) == pytest.approx(expect)


class TestSecretFraction:
    def test_paper_point(self):
        di, no_key = secret_fraction(3.48, 0.211, 0.90)
        assert not no_key
        assert di == pytest.approx(2.921, abs=1e-6)

    def test_lossless_limit(self):
        di, _ = secret_fraction(2.5, 0.0, 1.0)
        assert di == 2.5

    def test_negative_clipped_with_flag(self):
        di, no_key = secret_fraction(0.2, 0.211, 0.9)
        assert di == 0.0 and no_key

    def test_exact_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            i_ab = float(rng.uniform(0.5, 6))
            chi = float(rng.uniform(0, 0.4))
            beta = float(rng.uniform(0.5, 1.0))
            di, no_key = secret_fraction(i_ab, chi, beta)
            if not no_key:
                assert abs(di - (beta * i_ab - chi)) < 1e-12

    def test_bad_beta(self):
        with pytest.raises(ValueError):
            secret_fraction(1.0, 0.1, 0.0)


def test_security_report_keys():
    rep = SecurityReport(0.1, 0.2, 3.5, 0.2, 0.9, 2.95, False, 3.6)
    d = rep.to_dict()
    assert set(d) == {"xi_t", "xi_w", "i_ab_bpc", "chi_ae_bpc", "beta",
                      "delta_i_bpc", "no_key", "i_ab_gaussian_bpc"}
