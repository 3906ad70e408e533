"""Closed-form calibration of the bundled scenario (``paper_default.json``).

``calibrate`` fits the free simulator parameters to target observables of
the paper: the time/time and cross-basis coincidence widths, the singles
rate ratios, and the effective rate and CAR at the key-generation bin
width. ``tests/test_simulate.py`` checks that the bundled config is this
fit, so the file stays tied to the targets; ``calibrate().save(path)``
regenerates it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from doqkd.errors import DoqkdError
from doqkd.sifting import FrameFormat
from doqkd.simulate import (CHANNELS, ChannelModel, DetectorModel,
                            DispersiveBasis, SimConfig, SourceModel)
from doqkd.timetags import Channel

FWHM_PER_SIGMA = 2.0 * math.sqrt(2.0 * math.log(2.0))


class CalibrationError(DoqkdError):
    """Calibration targets are unattainable (e.g. cross-basis width below time-basis width)."""


@dataclass(frozen=True)
class CalibrationTargets:
    """Observables the calibrated default scenario must reproduce.

    Singles rates enter as ratios between channels; the absolute scale is
    set by the effective coincidence rate and CAR at the reference bin
    width, measured on the key (non-security) fraction of events.
    """

    tt_fwhm_ps: float = 150.0
    cross_fwhm_ps: float = 900.0
    singles_rates_hz: tuple[float, float, float, float] = (554e3, 321e3, 315e3, 245e3)
    effective_rate_hz: float = 30e3
    effective_car: float = 200.0
    car_bin_ps: int = 160
    baseline_ff_tt_variance_ratio: float = 1.10
    excess_time_noise: float = 0.03
    excess_freq_noise: float = 0.135


def _std_normal_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def jitter_sigma_for_fwhm(tt_fwhm_ps: float) -> float:
    """Per-detector Gaussian jitter giving a two-detector peak of given FWHM."""
    return tt_fwhm_ps / FWHM_PER_SIGMA / math.sqrt(2.0)


def dispersion_spread_ps(tt_fwhm_ps: float, cross_fwhm_ps: float) -> float:
    """Dispersion-induced arrival spread (1 sigma) from quadrature subtraction."""
    if cross_fwhm_ps < tt_fwhm_ps:
        raise CalibrationError("cross-basis width below time-basis width")
    return math.sqrt(cross_fwhm_ps**2 - tt_fwhm_ps**2) / FWHM_PER_SIGMA


def calibrate(targets: CalibrationTargets = CalibrationTargets(),
              *,
              dispersion_ps_per_nm: float = 1800.0,
              wavelength_nm: float = 1550.0,
              transmission: tuple[float, float] = (1.0, 0.4),
              dark_rate_hz: float = 100.0,
              security_fraction: float = 0.3,
              format: FrameFormat = FrameFormat(4, 3, 160),
              hist_range_ps: int = 3840,
              duration_s: float = 5.0,
              seed: int = 20260808) -> SimConfig:
    """Fit the free simulator parameters to the target observables.

    The temporal/spectral spreads follow from closed-form Gaussian algebra.
    Pair rate and per-channel efficiencies follow from the singles-rate
    ratios and the (effective rate, CAR) pair at the reference bin width.
    """
    basis = DispersiveBasis.from_dispersion(dispersion_ps_per_nm, wavelength_nm)
    sigma_delta = targets.tt_fwhm_ps / FWHM_PER_SIGMA
    jitter = jitter_sigma_for_fwhm(targets.tt_fwhm_ps)
    spread = dispersion_spread_ps(targets.tt_fwhm_ps, targets.cross_fwhm_ps)
    spectral = spread / basis.beta_d_ps_per_rad_s
    corr_break = math.sqrt(max(targets.baseline_ff_tt_variance_ratio - 1.0, 0.0)) \
        * sigma_delta / basis.beta_d_ps_per_rad_s
    eve_t = math.sqrt(targets.excess_time_noise) * sigma_delta
    eve_w = math.sqrt(targets.excess_freq_noise) * corr_break

    # absolute rate scale from (effective rate, CAR) on the key fraction
    kf = 1.0 - security_fraction
    tau_s = targets.car_bin_ps * 1e-12
    frame_ps = format.frame_width_ps
    excl_ps = 3.0 * targets.tt_fwhm_ps
    # frame-keyed splitting decorrelates tag pairs that straddle a frame
    # boundary; the accidental floor seen on the key subset decays linearly
    # with offset accordingly
    mean_abs_offset = 0.5 * (excl_ps + hist_range_ps)
    g = kf - kf * (1.0 - kf) * min(mean_abs_offset / frame_ps, 1.0)
    f_peak = _std_normal_cdf(targets.car_bin_ps / sigma_delta) - 0.5
    rho = targets.effective_rate_hz / (targets.effective_car * tau_s * g)
    coinc = (targets.effective_rate_hz / kf - rho * tau_s) / f_peak
    if coinc <= 0:
        raise CalibrationError("CAR/effective-rate targets leave no true coincidences")

    s = targets.singles_rates_hz
    r_t1 = math.sqrt(rho * s[0] / s[2])
    r_t2 = rho / r_t1
    rates = {Channel.T1: r_t1, Channel.F1: r_t1 * s[1] / s[0],
             Channel.T2: r_t2, Channel.F2: r_t2 * s[3] / s[2]}
    pair_rate = rho / coinc
    trans = {Channel.T1: transmission[0], Channel.F1: transmission[0],
             Channel.T2: transmission[1], Channel.F2: transmission[1]}
    eta = {}
    for c in CHANNELS:
        eta[c] = rates[c] / pair_rate / (trans[c] * 0.5)
        if not 0.0 < eta[c] <= 1.0:
            raise CalibrationError(f"required efficiency for {c.name} is {eta[c]:.3f}; "
                                   "targets unattainable")

    return SimConfig(
        source=SourceModel(pair_rate, spectral, 0.0, corr_break),
        channel=ChannelModel(transmission[0], transmission[1], 0.0, 0, eve_t, eve_w),
        detectors={c: DetectorModel(eta[c], jitter, dark_rate_hz) for c in CHANNELS},
        basis=basis, duration_s=duration_s, seed=seed,
        wavelength_nm=wavelength_nm, security_fraction=security_fraction,
        format=format, hist_range_ps=hist_range_ps,
    )
