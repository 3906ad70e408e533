"""Covariance-matrix security analysis.

Four coincidence histograms (time/time, time/freq, freq/time, freq/freq)
yield background-subtracted second moments. Differencing against the
time/time width isolates the spectral marginals and the two-party spectral
correlation, filling a 4x4 time-frequency covariance matrix over
(t_A, w_A, t_B, w_B) in (ps, rad/s) units.

The eavesdropper bound treats the back-to-back reference run as a pure
two-mode squeezed state (the no-intrusion convention: the bound is exactly
zero there). Measured excess correlation noise perturbs that state; the
bound is the Holevo quantity of the purifying environment given the
sender's arrival-time measurement, computed from symplectic eigenvalues.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from .errors import EstimationError
from .timetags import CoincidenceHistogram, accidental_floor, fwhm as _fwhm


@dataclass(frozen=True)
class PeakMoments:
    """Background-subtracted moments of one coincidence peak."""

    mean_ps: float
    variance_ps2: float
    weight: float       # corrected counts inside the window
    floor_per_bin: float
    fwhm_ps: float


def _peak_moments(h: CoincidenceHistogram, linear_floor: bool) -> PeakMoments:
    """Mean/variance of the peak after accidental-floor subtraction.

    Moments are restricted to +/- 3x FWHM around the peak to suppress
    accidental-tail bias. The floor is the mean of the outside bins, or with
    ``linear_floor`` a least-squares line in |offset| extrapolated under the
    peak. The line is for histograms whose both streams passed the
    frame-keyed security split: that split decorrelates pairs straddling a
    frame boundary, so their accidental floor decays with offset and a flat
    subtraction would bias the variance. For unsplit floors the flat mean
    avoids amplifying far-tail noise through extrapolation. Corrected
    counts are not clipped, keeping the moments unbiased under floor noise;
    Sheppard's correction removes the binning variance.
    """
    width = _fwhm(h)
    counts = h.counts.astype(float)
    peak = int(np.argmax(counts))
    floor_level, outside = accidental_floor(counts, peak,
                                            int(3.0 * width // h.bin_width))
    if floor_level is None:
        raise EstimationError("histogram range too narrow for floor estimation")
    inside = ~outside
    centers = h.bin_centers()
    if linear_floor:
        dist = np.abs(centers - centers[peak])
        coeffs = np.polyfit(dist[outside], counts[outside], 1)
        floor_in = np.polyval(coeffs, dist[inside])
        floor_level = float(np.polyval(coeffs, 0.0))
    else:
        floor_in = floor_level
    corr = counts[inside] - floor_in
    weight = corr.sum()
    if weight <= 0:
        raise EstimationError("no counts above the accidental floor")
    x = centers[inside]
    mean = float((corr * x).sum() / weight)
    var = float((corr * (x - mean) ** 2).sum() / weight)
    var = max(var - h.bin_width**2 / 12.0, 1e-9)
    return PeakMoments(mean, var, float(weight), floor_level, width)


@dataclass(frozen=True)
class FourBasisHistograms:
    """Coincidence histograms of the four basis combinations."""

    tt: CoincidenceHistogram   # T1 x T2
    tf: CoincidenceHistogram   # T1 x F2
    ft: CoincidenceHistogram   # F1 x T2
    ff: CoincidenceHistogram   # F1 x F2


@dataclass
class Tfcm:
    """4x4 covariance matrix over (t_A, w_A, t_B, w_B) plus sample counts."""

    matrix: np.ndarray
    sample_counts: dict[str, float]
    regularized: bool = False

    def __post_init__(self):
        m = np.asarray(self.matrix, float)
        if m.shape != (4, 4) or not np.allclose(m, m.T, atol=1e-9 * max(1.0, np.abs(m).max())):
            raise ValueError("TFCM must be a symmetric 4x4 matrix")
        self.matrix = 0.5 * (m + m.T)

    @property
    def sigma_t_sq(self) -> float:
        """Var(t_A - t_B) in ps^2."""
        m = self.matrix
        return float(m[0, 0] + m[2, 2] - 2.0 * m[0, 2])

    @property
    def sigma_w_sq(self) -> float:
        """Var(w_A + w_B) in (rad/s)^2 — the spectral-correlation variance."""
        m = self.matrix
        return float(m[1, 1] + m[3, 3] + 2.0 * m[1, 3])

    @property
    def spectral_marginal_sq(self) -> float:
        m = self.matrix
        return float(0.5 * (m[1, 1] + m[3, 3]))

    def is_psd(self, tol: float = 1e-9) -> bool:
        # balance the ps^2 and (rad/s)^2 sectors before the eigenvalue test,
        # otherwise the frequency scale (~1e22) swamps the time block; floor
        # each sector scale so degenerate (near-zero) sectors stay finite
        m = self.matrix
        biggest = max(abs(np.diag(m)).max(), 1e-300)
        s_t = math.sqrt(max((m[0, 0] + m[2, 2]) / 2.0, 1e-12 * biggest))
        s_w = math.sqrt(max((m[1, 1] + m[3, 3]) / 2.0, 1e-12 * biggest))
        d = np.diag([1.0 / s_t, 1.0 / s_w, 1.0 / s_t, 1.0 / s_w])
        ev = np.linalg.eigvalsh(d @ m @ d)
        scale = max(abs(ev).max(), 1.0)
        return bool(ev.min() >= -tol * scale)


@dataclass(frozen=True)
class Baseline:
    """Reference covariances from a noiseless (back-to-back) run."""

    tfcm: Tfcm

    @property
    def sigma_t0_sq(self) -> float:
        return self.tfcm.sigma_t_sq

    @property
    def sigma_w0_sq(self) -> float:
        return self.tfcm.sigma_w_sq


def estimate_tfcm(hists: FourBasisHistograms, beta_d_ps_per_rad_s: float) -> Tfcm:
    """Moment-matching TFCM estimator from the four basis combinations.

    The time/time variance is taken directly; the freq/freq variance gives
    the spectral-correlation variance after removing the jitter part; the
    two cross combinations give the spectral marginals. Time-frequency cross
    covariances vanish by the source model's symmetry and are reported as
    zero. Equal detector jitter on both channels of a party is assumed when
    splitting the per-party time variances. Each combination needs at
    least 1000 corrected counts.
    """
    if beta_d_ps_per_rad_s == 0:
        raise EstimationError("beta_d must be nonzero")
    # tt pairs two frame-split streams (sloped floor); the others involve at
    # least one unsplit frequency stream, whose accidental floor is flat
    moms = {k: _peak_moments(getattr(hists, k), linear_floor=k == "tt")
            for k in ("tt", "tf", "ft", "ff")}
    for k, m in moms.items():
        if m.weight < 1e3:
            raise EstimationError(f"{k} combination has {m.weight:.0f} counts "
                                  "(< 1000)")
    b2 = beta_d_ps_per_rad_s**2
    var_tt = moms["tt"].variance_ps2
    sigma_w_sq = (moms["ff"].variance_ps2 - var_tt) / b2
    var_wb = (moms["tf"].variance_ps2 - var_tt) / b2
    var_wa = (moms["ft"].variance_ps2 - var_tt) / b2
    cov_ww = 0.5 * (sigma_w_sq - var_wa - var_wb)

    m = np.zeros((4, 4))
    m[0, 0] = m[2, 2] = var_tt / 2.0    # equal-jitter split of Var(t_A - t_B)
    m[1, 1] = var_wa
    m[3, 3] = var_wb
    m[1, 3] = m[3, 1] = cov_ww
    counts = {k: moms[k].weight for k in moms}

    tfcm = Tfcm(m, counts)
    if not tfcm.is_psd():
        # regularize per sector: the time (ps^2) and frequency ((rad/s)^2)
        # blocks differ by ~20 orders of magnitude, so a whole-matrix
        # eigenvalue clip would mix units and corrupt the time entries
        m = tfcm.matrix.copy()
        for idx in ((0, 2), (1, 3)):
            block = m[np.ix_(idx, idx)]
            ev, vec = np.linalg.eigh(block)
            m[np.ix_(idx, idx)] = vec @ np.diag(np.clip(ev, 0.0, None)) @ vec.T
        tfcm = Tfcm(0.5 * (m + m.T), counts, regularized=True)
    return tfcm


def excess_noise(current_variance: float, baseline_variance: float) -> float:
    """Fractional variance increase over the reference run."""
    if baseline_variance <= 0:
        raise EstimationError("baseline variance must be > 0")
    return current_variance / baseline_variance - 1.0


def gaussian_entropy_g(x: float) -> float:
    """g(x) = ((x+1)/2)log2((x+1)/2) - ((x-1)/2)log2((x-1)/2), g(1) = 0."""
    if x <= 1.0 + 1e-12:
        return 0.0
    a = (x + 1.0) / 2.0
    b = (x - 1.0) / 2.0
    return a * math.log2(a) - b * math.log2(b)


def _baseline_mode(baseline: Baseline) -> tuple[float, float]:
    """(u, v) of the pure two-mode squeezed state the baseline maps to.

    The squeezing u follows from the ratio of the spectral marginal to the
    spectral-correlation variance; v = (1 + u^2) / 2u.
    """
    st0, sw0 = baseline.sigma_t0_sq, baseline.sigma_w0_sq
    if st0 <= 0 or sw0 <= 0:
        raise EstimationError("baseline correlation variances must be > 0")
    ratio = baseline.tfcm.spectral_marginal_sq / sw0
    if 4.0 * ratio <= 1.0:
        raise EstimationError("baseline lacks spectral anti-correlation")
    u = 1.0 / math.sqrt(4.0 * ratio - 1.0)
    return u, (1.0 + u * u) / (2.0 * u)


def holevo_bound(tfcm: Tfcm, baseline: Baseline) -> float:
    """Eavesdropper information bound, bits per coincidence.

    The baseline maps to a pure two-mode squeezed state (see
    :func:`_baseline_mode`); measured excess time/frequency correlation noise
    perturbs the receiver mode. The bound is S(AB) - S(B|t_A): the entropy
    of the purifying environment minus its entropy given the sender's
    arrival-time (homodyne-like) measurement. Exactly zero when ``tfcm``
    equals the baseline.
    """
    if not tfcm.is_psd(tol=1e-7):
        raise EstimationError("TFCM is not positive semidefinite")
    u, v = _baseline_mode(baseline)
    c = math.sqrt(max(v * v - 1.0, 0.0))
    # dimensionless receiver-mode noise from the measured excess factors
    xi_t = excess_noise(tfcm.sigma_t_sq, baseline.sigma_t0_sq)
    xi_w = excess_noise(tfcm.sigma_w_sq, baseline.sigma_w0_sq)
    dt = xi_t * 2.0 * u
    dw = xi_w * 2.0 * u

    a2 = (v + dt) * (v + dw) - c * c
    tr = 1.0 + a2
    det = a2 + c * c * dt * dw
    disc = max(tr * tr - 4.0 * det, 0.0)
    lam1 = (tr + math.sqrt(disc)) / 2.0
    lam2 = (tr - math.sqrt(disc)) / 2.0

    def nu(lam: float) -> float:
        n = math.sqrt(max(lam, 0.0))
        if n < 1.0 - 1e-6:
            warnings.warn(f"symplectic eigenvalue {n:.6f} < 1 clamped (unphysical "
                          "estimate)", RuntimeWarning, stacklevel=2)
        return max(n, 1.0)

    s_ab = gaussian_entropy_g(nu(lam1)) + gaussian_entropy_g(nu(lam2))
    nu_cond = nu((1.0 / v + dt) * (v + dw))
    return max(s_ab - gaussian_entropy_g(nu_cond), 0.0)


def gaussian_time_information(tfcm: Tfcm, baseline: Baseline) -> float:
    """Diagnostic: Gaussian mutual information of the arrival-time sector."""
    u, v = _baseline_mode(baseline)
    dt = excess_noise(tfcm.sigma_t_sq, baseline.sigma_t0_sq) * 2.0 * u
    return 0.5 * math.log2(v * (v + dt) / max(1.0 + v * dt, 1e-300))


def mutual_information(key_a: np.ndarray, key_b: np.ndarray, n_symbols: int) -> float:
    """Plug-in empirical mutual information of the joint symbol distribution."""
    key_a = np.asarray(key_a, np.int64)
    key_b = np.asarray(key_b, np.int64)
    if key_a.size != key_b.size or key_a.size == 0:
        raise ValueError("keys must be nonempty and equal length")
    n = key_a.size
    joint = np.bincount(key_a * n_symbols + key_b,
                        minlength=n_symbols * n_symbols).reshape(n_symbols, n_symbols)
    p = joint / n
    pa = p.sum(axis=1)
    pb = p.sum(axis=0)
    nz = p > 0
    denom = np.outer(pa, pb)
    return float((p[nz] * np.log2(p[nz] / denom[nz])).sum())


def shannon_info(sift) -> float:
    """Empirical information per coincidence of a sifting result, in bits."""
    if sift.kept_frames < 1000:
        raise EstimationError("need >= 1e3 kept frames for a stable estimate")
    m = sift.fmt.slots_per_frame
    if len(np.unique(sift.key_a)) < 2 or len(np.unique(sift.key_b)) < 2:
        warnings.warn("degenerate key distribution; information is 0", RuntimeWarning,
                      stacklevel=2)
        return 0.0
    return mutual_information(sift.key_a, sift.key_b, m)


def secret_fraction(i_ab: float, chi_ae: float, beta: float) -> tuple[float, bool]:
    """Secret bits per coincidence: beta * I(A;B) - chi(A;E).

    Returns (delta_i, no_key). A non-positive balance yields (0.0, True).
    """
    if not 0.0 < beta <= 1.0:
        raise ValueError("beta must be in (0, 1]")
    raw = beta * i_ab - chi_ae
    if raw <= 0.0:
        return 0.0, True
    return raw, False


@dataclass
class SecurityReport:
    """Session-level security summary."""

    xi_t: float
    xi_w: float
    i_ab_bpc: float
    chi_ae_bpc: float
    beta: float
    delta_i_bpc: float
    no_key: bool
    i_ab_gaussian_bpc: float

    def to_dict(self) -> dict:
        return asdict(self)
