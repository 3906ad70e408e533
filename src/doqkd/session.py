"""End-to-end session orchestration, parameter sweeps, and format optimization.

The pipeline: simulate -> clock-align -> ``process_session``, which takes
aligned tags, simulated or recorded, through bin sifting of T1 and T2 with
their frame-keyed security frames left out -> empirical information ->
syndrome reconciliation on one worker thread, beside the security subset's
histograms and the covariance analysis against the baseline -> privacy
amplification. ``run_experiment`` and ``sweep`` both simulate the baseline
on a worker thread, one 0.25 s window at a time, while the calling thread
runs the session or the format grid; a run that fails stops its baseline
before the next window. Everything derives from the session seed, so
identical configurations produce byte-identical keys and (timing aside)
byte-identical reports, whichever of the overlapped steps ends first.
"""
from __future__ import annotations

import hashlib
import itertools
import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Callable, Iterable

import numpy as np

from .errors import DoqkdError, StageError
from .io import canonical_json
from .postproc import (ReconciliationOutcome, gray_encode_symbols,
                       privacy_amplify, reconcile_key, secret_length)
from .security import (Baseline, FourBasisHistograms, SecurityReport, Tfcm,
                       estimate_tfcm, excess_noise, gaussian_time_information,
                       holevo_bound, mutual_information, secret_fraction,
                       shannon_info)
# the benchmark's recorded workload and its tracer read split_security_fraction here
from .sifting import (FrameFormat, FrameNeighbours, match_bins, pack_symbols,
                      qber, run_sifting, security_mask, split_security_fraction)
from .simulate import (CHANNELS, SessionTags, SimConfig, simulate_session,
                       simulate_windows)
from .timetags import (Channel, CoincidenceHistogram, TagStream, coincidence_histogram,
                       effective_rates)

SPLIT_SEED_SALT = 0x53504C49
PA_SEED_SALT = 0x50414D50
CODE_SEED = 1          # the parity-check structure is public and shared
NOMINAL_BETA = 0.9     # used when a session is too short to reconcile


@contextmanager
def _stage(name: str):
    try:
        yield
    except StageError:
        raise
    except Exception as e:
        raise StageError(name, e) from e


def align_bob(tags: SessionTags, delay_ps: int) -> SessionTags:
    """Remove the known propagation delay from Bob's streams."""
    if delay_ps == 0:
        return tags
    def unshift(s: TagStream) -> TagStream:
        # tags before the delay (dark counts, jitter) would shift below zero
        return s.select(s.times >= delay_ps).shifted(-delay_ps)
    return SessionTags(tags.t1, tags.f1, unshift(tags.t2), unshift(tags.f2))


def histogram_summaries(hists: FourBasisHistograms) -> dict:
    """Per basis combination: FWHM, effective rate, CAR and peak offset."""
    out = {}
    for name in ("tt", "tf", "ft", "ff"):
        h = getattr(hists, name)
        try:
            er = effective_rates(h)
            out[name] = {
                "fwhm_ps": er.fwhm_ps,
                "effective_rate_hz": er.effective_coincidence_rate_hz,
                "effective_car": (er.effective_car if math.isfinite(er.effective_car)
                                  else None),
                "peak_offset_ps": er.peak_bin_offset,
            }
        except DoqkdError as e:
            out[name] = {"error": str(e)}
    return out


def split_seed(config: SimConfig) -> int:
    """Seed of the frame-keyed security/key split."""
    return config.seed ^ SPLIT_SEED_SALT


def security_subset(tags: SessionTags, config: SimConfig, fmt: FrameFormat
                    ) -> SessionTags:
    """The frame-keyed security part of both time-basis streams, with the
    unsplit frequency streams."""
    seed = split_seed(config)
    t1, t2 = (s.select(security_mask(s.times, config.security_fraction, seed, fmt))
              for s in (tags.t1, tags.t2))
    return SessionTags(t1, tags.f1, t2, tags.f2)


def analyze_security(tags: SessionTags, config: SimConfig,
                     fmt: FrameFormat | None = None) -> tuple[FourBasisHistograms, Tfcm]:
    """Security-subset four-basis histograms and the covariance estimate."""
    sec = security_subset(tags, config, fmt or config.format)
    return _estimate([(math.inf, sec)], config)


def security_figures(tfcm: Tfcm, baseline: Baseline) -> tuple[float, float, float]:
    """Excess time and frequency noise over the baseline, and chi(A;E)."""
    xi_t = excess_noise(tfcm.sigma_t_sq, baseline.sigma_t0_sq)
    xi_w = excess_noise(tfcm.sigma_w_sq, baseline.sigma_w0_sq)
    return xi_t, xi_w, holevo_bound(tfcm, baseline)


_PAIRS = {"tt": (Channel.T1, Channel.T2), "tf": (Channel.T1, Channel.F2),
          "ft": (Channel.F1, Channel.T2), "ff": (Channel.F1, Channel.F2)}


def four_basis_histograms(windows: Iterable[tuple[float, SessionTags]], bin_ps: int,
                          range_ps: int, acquisition_s: float) -> FourBasisHistograms:
    """Four-basis histograms of time-ordered windows ``(end_ps, tags)``,
    all later tags at or after ``end_ps``. An a-tag is binned once every
    b-tag it reaches has arrived, against the b-tags held back from as many
    windows as that needs, so the counts are those of the joined streams."""
    lo, hi = -range_ps, range_ps
    counts = {name: np.zeros((hi - lo) // bin_ps, np.int64) for name in _PAIRS}
    held = {c: np.empty(0, np.int64) for c in CHANNELS}
    for end, tags in itertools.chain(windows, [(math.inf, None)]):
        if tags is not None:
            held = {c: np.concatenate([h, tags.stream(c).times]) if h.size
                    else tags.stream(c).times for c, h in held.items()}
        del tags
        # a-tags (Alice's) below ``ready`` reach no later tag, and the a-tags
        # after them no b-tag below ``ready + lo``; bounds are kept in int64
        ready = min(end - hi, 2**63 - 1)
        cut = {c: int(np.searchsorted(h, max(ready + (lo if c >= Channel.T2 else 0), -2**63)))
               for c, h in held.items()}
        for name, (a, b) in _PAIRS.items():
            if cut[a]:
                counts[name] += coincidence_histogram(
                    TagStream(held[a][:cut[a]], a, 0), TagStream(held[b], b, 0),
                    bin_ps, (lo, hi), acquisition_s).counts
        held = {c: h[cut[c]:].copy() for c, h in held.items()}
    return FourBasisHistograms(**{name: CoincidenceHistogram(bin_ps, lo, hi, c, acquisition_s)
                                  for name, c in counts.items()})


def _estimate(windows: Iterable[tuple[float, SessionTags]], config: SimConfig
              ) -> tuple[FourBasisHistograms, Tfcm]:
    """Histograms and covariances of a security subset's windows."""
    hists = four_basis_histograms(windows, config.hist_bin_ps, config.hist_range_ps,
                                  config.duration_s)
    return hists, estimate_tfcm(hists, config.basis.beta_d_ps_per_rad_s)


class _Stopped(Exception):
    """A baseline was abandoned because the run it served failed."""


def _baseline(windows: Iterable[tuple[float, SessionTags]], config: SimConfig,
              stop: threading.Event | None = None) -> Baseline:
    """Covariances of ``config``'s back-to-back session from its windows, each
    split (keyed on the frame) and binned as ``config.baseline_config()``;
    once ``stop`` is set, ``_Stopped`` is raised before the next window."""
    bcfg = config.baseline_config()

    def split():  # holds no window while the next one is drawn
        for end, tags in windows:
            tags = [security_subset(tags, bcfg, bcfg.format)]
            yield end, tags.pop()
            if stop is not None and stop.is_set():
                raise _Stopped
    return Baseline(_estimate(split(), bcfg)[1])


def baseline_from_tags(tags: SessionTags, config: SimConfig) -> Baseline:
    """Covariances of ``config``'s recorded back-to-back session, split and
    binned under ``config.baseline_config()`` as that session was run."""
    return _baseline([(math.inf, tags)], config)


def compute_baseline(config: SimConfig, stop: threading.Event | None = None) -> Baseline:
    """Covariances of the simulated back-to-back session (no delay to
    remove), stopped before its next window once ``stop`` is set."""
    return _baseline(simulate_windows(config.baseline_config()), config, stop)


@contextmanager
def _beside_baseline(config: SimConfig):
    """Simulate ``config``'s baseline on a worker thread while the block runs.
    Yields the call that waits for its result and the event that stops it;
    the event is set when the block ends, so a failed run does not wait for
    the rest of the baseline."""
    stop = threading.Event()
    with ThreadPoolExecutor(1) as pool:
        future = pool.submit(compute_baseline, config, stop)
        try:
            yield future.result, stop
        finally:
            stop.set()


@dataclass
class SessionReport:
    """Machine-readable record of one end-to-end session."""

    config: dict
    singles_rates_hz: dict
    histograms: dict
    kept_frames: int
    discarded_bin_mismatch: int
    discarded_multi_event: int
    raw_rate_bps: float
    qber_symbol: float | None
    qber_bit: float | None
    security: SecurityReport
    reconciliation: ReconciliationOutcome
    secret_key_bits: int
    secret_rate_bps: float
    wall_clock_s: float
    secret_key: bytes = b""
    raw_key_a: bytes = b""          # packed sifted symbols, sender side
    raw_key_b: bytes = b""
    reconciled_key: bytes = b""     # packed corrected bitstream

    def to_dict(self, include_timing: bool = True) -> dict:
        d = {
            "config": self.config,
            "singles_rates_hz": self.singles_rates_hz,
            "histograms": self.histograms,
            "sift": {
                "kept_frames": self.kept_frames,
                "discarded_bin_mismatch": self.discarded_bin_mismatch,
                "discarded_multi_event": self.discarded_multi_event,
                "raw_rate_bps": self.raw_rate_bps,
                "qber_symbol": self.qber_symbol,
                "qber_bit": self.qber_bit,
            },
            "security": self.security.to_dict(),
            "reconciliation": self.reconciliation.to_dict(),
            "secret_key_bits": self.secret_key_bits,
            "secret_rate_bps": self.secret_rate_bps,
            "secret_key_sha256": hashlib.sha256(self.secret_key).hexdigest(),
        }
        if include_timing:
            d["wall_clock_s"] = self.wall_clock_s
        return d

    def canonical_bytes(self) -> bytes:
        """Deterministic serialization (volatile timing excluded)."""
        return canonical_json(self.to_dict(include_timing=False)).encode()


def _simulate(config: SimConfig) -> SessionTags:
    with _stage("simulate"):
        return align_bob(simulate_session(config), config.channel.propagation_delay_ps)


def run_experiment(config: SimConfig) -> SessionReport:
    """Simulate one session, with its baseline beside it on a worker thread,
    and post-process it with ``process_session``. A failure stops the
    baseline before its next window."""
    t_start = time.monotonic()
    with _beside_baseline(config) as (baseline, _):
        # the tags are passed unnamed, so the call holds their only reference
        report = process_session(_simulate(config), config, baseline)
    report.wall_clock_s = time.monotonic() - t_start
    return report


def process_session(tags: SessionTags, config: SimConfig,
                    baseline: Callable[[], Baseline]) -> SessionReport:
    """Turn one session's clock-aligned tags into a key and its report.

    T1 and T2 are sifted whole, with their security frames (hashed once)
    left out. One worker thread then decodes while this thread estimates
    the security subset's covariances and calls ``baseline``. A caller that
    keeps no reference to the tags frees T1 and T2 after sifting.
    """
    t_start = time.monotonic()
    fmt = config.format
    singles = tags.singles_rates_hz()

    with _stage("security"):
        t1, t2, seed = tags.t1, tags.t2, split_seed(config)
        masks = tuple(security_mask(s.times, config.security_fraction, seed, fmt) for s in (t1, t2))
        sec = SessionTags(t1.select(masks[0]), tags.f1, t2.select(masks[1]), tags.f2)
        del tags

    with _stage("sift"):
        sift = run_sifting(t1, t2, fmt, security=masks)
        raw_rate = fmt.n_bits * sift.kept_frames / config.duration_s
        if sift.kept_frames:
            qber_sym = qber(sift.key_a, sift.key_b)
            a_bits = gray_encode_symbols(sift.key_a, fmt.n_bits)
            b_bits = gray_encode_symbols(sift.key_b, fmt.n_bits)
            qber_bit = float(np.count_nonzero(a_bits != b_bits) / a_bits.size)
        else:
            qber_sym = qber_bit = None
            a_bits = b_bits = np.empty(0, np.uint8)

    with _stage("information"):
        i_ab = shannon_info(sift) if sift.kept_frames >= 1000 else (
            mutual_information(sift.key_a, sift.key_b, fmt.slots_per_frame)
            if sift.kept_frames else 0.0)

    # a security failure is reported over a decoding failure, as in turn
    del t1, t2, masks
    with ThreadPoolExecutor(1) as pool:
        reconciling = pool.submit(reconcile_key, a_bits, b_bits,
                                  block_length=config.block_length,
                                  max_iters=config.max_iterations,
                                  min_overhead=config.min_overhead,
                                  code_seed=CODE_SEED)
        with _stage("security"):
            hists, tfcm = _estimate([(math.inf, sec)], config)
            del sec
            reference = baseline()
            xi_t, xi_w, chi = security_figures(tfcm, reference)
            i_gauss = gaussian_time_information(tfcm, reference)
        with _stage("reconcile"):
            outcome = reconciling.result()
            beta = outcome.efficiency_beta if outcome.n_blocks else NOMINAL_BETA

    with _stage("amplify"):
        delta_i, no_key = secret_fraction(i_ab, chi, beta)
        coinc_in_blocks = outcome.n_blocks * config.block_length // fmt.n_bits
        sec_bits = secret_length(coinc_in_blocks, delta_i, outcome)
        reconciled = outcome.corrected_bits()
        sec_bits = min(sec_bits, reconciled.size)
        if no_key or sec_bits == 0:
            key_bytes = b""
            sec_bits = 0
        else:
            key_bits = privacy_amplify(reconciled, sec_bits,
                                       config.seed ^ PA_SEED_SALT)
            key_bytes = np.packbits(key_bits).tobytes()

    security = SecurityReport(xi_t, xi_w, i_ab, chi, beta,
                              delta_i if not no_key else 0.0, no_key,
                              i_ab_gaussian_bpc=i_gauss)
    return SessionReport(
        config=config.to_dict(),
        singles_rates_hz=singles,
        histograms=histogram_summaries(hists),
        kept_frames=sift.kept_frames,
        discarded_bin_mismatch=sift.discarded_bin_mismatch,
        discarded_multi_event=sift.discarded_multi_event,
        raw_rate_bps=raw_rate,
        qber_symbol=qber_sym,
        qber_bit=qber_bit,
        security=security,
        reconciliation=outcome,
        secret_key_bits=sec_bits,
        secret_rate_bps=sec_bits / config.duration_s,
        wall_clock_s=time.monotonic() - t_start,
        secret_key=key_bytes,
        raw_key_a=pack_symbols(sift.key_a, fmt.n_bits),
        raw_key_b=pack_symbols(sift.key_b, fmt.n_bits),
        reconciled_key=np.packbits(reconciled).tobytes() if reconciled.size else b"",
    )


# ---------------------------------------------------------------------------
# sweeps and optimization

DEFAULT_TAU_GRID = tuple(range(40, 401, 20))
DEFAULT_I_GRID = (3, 4, 5)
DEFAULT_N_GRID = (2, 3, 4, 5, 6)


@dataclass(frozen=True)
class SweepRow:
    n_bits: int
    bins_per_slot: int
    tau_ps: int
    raw_rate_bps: float
    qber: float | None
    delta_i_bpc: float | None
    secret_rate_bps: float | None
    status: str = "ok"


@dataclass
class SweepTable:
    rows: list[SweepRow] = field(default_factory=list)

    def __iter__(self):
        return iter(self.rows)

    def __len__(self):
        return len(self.rows)

    def select(self, n_bits: int | None = None, bins_per_slot: int | None = None
               ) -> list[SweepRow]:
        out = self.rows
        if n_bits is not None:
            out = [r for r in out if r.n_bits == n_bits]
        if bins_per_slot is not None:
            out = [r for r in out if r.bins_per_slot == bins_per_slot]
        return out

    def to_csv(self) -> str:
        lines = ["# n_bits,bins_per_slot,tau_ps,raw_rate_bps,qber,delta_i_bpc,"
                 "secret_rate_bps,status"]
        for r in self.rows:
            q = "" if r.qber is None else f"{r.qber:.6f}"
            di = "" if r.delta_i_bpc is None else f"{r.delta_i_bpc:.6f}"
            sr = "" if r.secret_rate_bps is None else f"{r.secret_rate_bps:.3f}"
            lines.append(f"{r.n_bits},{r.bins_per_slot},{r.tau_ps},"
                         f"{r.raw_rate_bps:.3f},{q},{di},{sr},{r.status}")
        return "\n".join(lines) + "\n"


def _key_offsets(neighbours: FrameNeighbours, config: SimConfig, fmt: FrameFormat
                 ) -> tuple[np.ndarray, np.ndarray]:
    """In-frame offsets of the key-side frames single on both sides; depends
    on ``fmt`` only through its frame width. The split is keyed on the frame,
    so the common frames are found unsplit, from the sweep's one search."""
    width = fmt.frame_width_ps
    common, off_a, off_b = neighbours.common_offsets(width)
    key = np.flatnonzero(~security_mask(common * width, config.security_fraction,
                                        split_seed(config), fmt))
    return off_a[key], off_b[key]


def _grid_point(fmt: FrameFormat, off_a: np.ndarray, off_b: np.ndarray,
                with_info: bool) -> tuple[int, float | None, float | None]:
    """One grid point's kept count, QBER and, with ``with_info`` and at least
    1000 kept frames, I_AB, from the key-side offsets of its frame width."""
    _, _, key_a, key_b = match_bins(off_a, off_b, fmt)
    kept = key_a.size
    if kept == 0:
        return 0, None, None
    i_ab = (mutual_information(key_a, key_b, fmt.slots_per_frame)
            if with_info and kept >= 1000 else None)
    return kept, qber(key_a, key_b), i_ab


def _sweep_row(fmt: FrameFormat, kept: int, q: float | None, i_ab: float | None,
               chi: float | None, duration_s: float) -> SweepRow:
    """One grid point's row; δI and the secret rate need I_AB and chi."""
    n, i_bins, tau = fmt.n_bits, fmt.bins_per_slot, fmt.bin_width_ps
    if kept == 0:
        return SweepRow(n, i_bins, tau, 0.0, None, None, None,
                        "aborted:no-kept-frames")
    di = sr = None
    if chi is not None and i_ab is not None:
        di, _ = secret_fraction(i_ab, chi, NOMINAL_BETA)
        sr = (kept / duration_s) * di
    return SweepRow(n, i_bins, tau, n * kept / duration_s, q, di, sr)


def sweep(config: SimConfig,
          tau_list: tuple[int, ...] = DEFAULT_TAU_GRID,
          i_list: tuple[int, ...] = DEFAULT_I_GRID,
          n_list: tuple[int, ...] = DEFAULT_N_GRID,
          tags: SessionTags | None = None) -> SweepTable:
    """Sift one simulated dataset over the whole format grid.

    Tags are generated once per seed, so curves isolate format effects from
    Monte-Carlo noise. One search places each T2 tag among the T1 tags and
    keeps those strictly closer than the grid's widest frame to a T1 tag
    (``FrameNeighbours``); each frame width finds its common frames by
    comparisons alone, and each point only splits their offsets into slot
    and bin. The secret-rate column combines per-point empirical information
    with the session-level eavesdropper bound at a nominal reconciliation
    efficiency: a planning figure, not a per-point reconciliation run. The
    grid runs on this thread while a worker simulates the baseline behind
    that bound, applied once the grid is done. A failure in the grid stops
    the baseline before its next window and is raised, as is a failure of
    the baseline other than a ``DoqkdError``; a ``DoqkdError`` from the
    session's estimate, the baseline or the bound leaves the rows without
    δI and secret rate.
    """
    if not tau_list or not i_list or not n_list:
        raise ValueError("sweep grids must be non-empty")
    formats = [FrameFormat(n, i_bins, tau)
               for n in n_list for i_bins in i_list for tau in tau_list]
    by_width: dict[int, list[int]] = {}
    for k, fmt in enumerate(formats):
        by_width.setdefault(fmt.frame_width_ps, []).append(k)
    points, chi = [None] * len(formats), None
    with _beside_baseline(config) as (baseline, stop):
        if tags is None:
            tags = align_bob(simulate_session(config), config.channel.propagation_delay_ps)
        try:
            estimate = analyze_security(tags, config)
        except DoqkdError:
            estimate = None
            stop.set()  # no bound without the session's estimate
        t1, t2, tags = tags.t1, tags.t2, None  # drops F1, F2
        neighbours = FrameNeighbours(t1, t2, max(by_width))
        del t1, t2
        for members in by_width.values():
            off_a, off_b = _key_offsets(neighbours, config, formats[members[0]])
            for k in members:
                points[k] = _grid_point(formats[k], off_a, off_b, estimate is not None)
        if estimate is not None:
            try:
                chi = holevo_bound(estimate[1], baseline())
            except DoqkdError:
                pass
    return SweepTable([_sweep_row(fmt, *point, chi, config.duration_s)
                       for fmt, point in zip(formats, points)])


@dataclass(frozen=True)
class OptimizeEntry:
    n_bits: int
    feasible: bool
    tau_ps: int | None = None
    bins_per_slot: int | None = None
    raw_rate_bps: float | None = None
    qber: float | None = None

    def to_dict(self) -> dict:
        return asdict(self)


def optimize(config: SimConfig, qber_cap: float = 0.05,
             n_list: tuple[int, ...] = DEFAULT_N_GRID,
             tau_list: tuple[int, ...] = DEFAULT_TAU_GRID,
             i_list: tuple[int, ...] = DEFAULT_I_GRID,
             table: SweepTable | None = None) -> list[OptimizeEntry]:
    """Per dimension, maximize raw rate subject to a QBER cap.

    Ties break deterministically toward smaller bin width, then fewer bins
    per slot. Dimensions without a feasible grid point are marked as such.
    """
    if not 0.0 < qber_cap < 0.5:
        raise ValueError("qber_cap must be in (0, 0.5)")
    if table is None:
        table = sweep(config, tau_list, i_list, n_list)
    out = []
    for n in n_list:
        rows = [r for r in table.select(n_bits=n)
                if r.status == "ok" and r.qber is not None and r.qber <= qber_cap]
        if not rows:
            out.append(OptimizeEntry(n, False))
            continue
        best = sorted(rows, key=lambda r: (-r.raw_rate_bps, r.tau_ps,
                                           r.bins_per_slot))[0]
        out.append(OptimizeEntry(n, True, best.tau_ps, best.bins_per_slot,
                                 best.raw_rate_bps, best.qber))
    return out
