"""Stochastic generator of entangled-pair detection streams.

Models a CW-pumped photon-pair source with anti-correlated spectral
detunings, lossy fiber arms, a 50:50 basis coupler per party, signed
dispersive elements forming the frequency bases, detector jitter/efficiency/
dark counts, and an optional eavesdropper hook that adds Gaussian time and
frequency noise on the receiver arm.

The session is generated in fixed canonical time chunks with per-chunk
derived seeds, so output is reproducible and independent of how the work is
batched. All randomness flows from the single 64-bit session seed.

Memory per chunk: one int8 outcome code per emitted pair and party (unseen,
time path or frequency path), drawn in cache-sized blocks; float64 columns
only for the pairs with a detection, about a quarter on the paper default.
``SimConfig`` bounds the expected pairs and dark counts per chunk at load.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass, replace
from importlib import resources
from pathlib import Path
from typing import Iterator

import numpy as np

from .errors import ConfigError
from .io import read_json, write_json
from .ldpc import SUPPORTED_RATES
from .postproc import VERIFICATION_HASH_BITS
from .sifting import FrameFormat
from .timetags import PS_PER_SECOND, Basis, Channel, Party, TagStream

SPEED_OF_LIGHT_NM_S = 2.99792458e17
CHUNK_PS = 250_000_000_000  # canonical generation chunk: 0.25 s

CHANNELS = (Channel.T1, Channel.F1, Channel.T2, Channel.F2)

_BLOCK = 1 << 16  # uniforms per draw: a 512 KiB buffer that stays in cache
_MAX_HIST_BINS = 1 << 20  # 2 * range_ps / bin_ps: 8 MiB of int64 counts
# expected pairs plus dark counts per chunk: 8x the paper default's 4.2M
# pairs, one int8 outcome code each per party
_MAX_CHUNK_EVENTS = 1 << 25
_FREQ, _TIME = 1, 2  # outcome codes; 0 is a photon that is not detected


def beta_from_dispersion(dispersion_ps_per_nm: float, wavelength_nm: float = 1550.0) -> float:
    """Group-delay coefficient in ps per rad/s for a dispersive element."""
    return dispersion_ps_per_nm * wavelength_nm**2 / (2.0 * math.pi * SPEED_OF_LIGHT_NM_S)


@dataclass(frozen=True)
class SourceModel:
    """Pair source: emission rate and joint spectral/temporal spreads.

    Detunings are anti-correlated (idler = -signal) up to an optional
    correlation-breaking spread modeling finite pump linewidth.
    """

    pair_rate_hz: float
    spectral_sigma_rad_s: float
    correlation_time_sigma_ps: float = 0.0
    correlation_break_sigma_rad_s: float = 0.0

    def __post_init__(self):
        if self.pair_rate_hz <= 0:
            raise ConfigError("pair_rate_hz must be > 0")
        if self.spectral_sigma_rad_s < 0 or self.correlation_time_sigma_ps < 0:
            raise ConfigError("spectral/temporal spreads must be >= 0")


@dataclass(frozen=True)
class ChannelModel:
    """Fiber arms and the receiver-side noise injection hook."""

    alice_transmission: float = 1.0
    bob_transmission: float = 1.0
    residual_dispersion_ps_per_nm: float = 0.0
    propagation_delay_ps: int = 0
    eve_time_sigma_ps: float = 0.0
    eve_freq_sigma_rad_s: float = 0.0

    def __post_init__(self):
        for p in (self.alice_transmission, self.bob_transmission):
            if not 0.0 < p <= 1.0:
                raise ConfigError("arm transmission must be in (0, 1]")


@dataclass(frozen=True)
class DetectorModel:
    efficiency: float
    jitter_sigma_ps: float
    dark_rate_hz: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.efficiency <= 1.0:
            raise ConfigError("efficiency must be in [0, 1]")
        if self.jitter_sigma_ps < 0 or self.dark_rate_hz < 0:
            raise ConfigError("jitter and dark rate must be >= 0")


@dataclass(frozen=True)
class DispersiveBasis:
    """Signed dispersive elements forming the frequency bases.

    Alice's element applies +beta_d * detuning to the arrival time, Bob's
    applies -beta_d * detuning (normal vs anomalous dispersion).
    """

    dispersion_ps_per_nm: float
    beta_d_ps_per_rad_s: float

    @classmethod
    def from_dispersion(cls, dispersion_ps_per_nm: float,
                        wavelength_nm: float = 1550.0) -> "DispersiveBasis":
        return cls(dispersion_ps_per_nm,
                   beta_from_dispersion(dispersion_ps_per_nm, wavelength_nm))

    def coefficient(self, party: Party) -> float:
        return self.beta_d_ps_per_rad_s if party == Party.ALICE else -self.beta_d_ps_per_rad_s


def dispersive_shift(detuning_rad_s: float, basis: DispersiveBasis, party: Party) -> float:
    """Arrival-time shift in ps for a photon of given detuning, per party."""
    return basis.coefficient(party) * detuning_rad_s


def _real(value):
    """A simcfg-v1 real field: a finite number; bools and other types are rejected."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not math.isfinite(value)):
        raise ConfigError(f"bad config value: expected a finite number, got {value!r}")
    return value


def _integer(value) -> int:
    """A simcfg-v1 integer field: a real field with an integral value."""
    if not float(_real(value)).is_integer():
        raise ConfigError(f"bad config value: expected an integer, got {value!r}")
    return int(value)


def _check_keys(d: dict, written: dict, where: str = "") -> None:
    """Reject a key that ``SimConfig.to_dict`` does not write at its place."""
    for key, value in d.items():
        if key not in written:
            raise ConfigError(f"unknown config key: {where}{key}")
        if isinstance(value, dict) and isinstance(written[key], dict):
            _check_keys(value, written[key], f"{where}{key}.")


def _section(d: dict, key: str) -> dict:
    """An optional simcfg-v1 object; absent means all its defaults."""
    value = d.get(key, {})
    if not isinstance(value, dict):
        raise ConfigError(f"bad config value: {key} must be an object, got {value!r}")
    return value


@dataclass
class SimConfig:
    """Full session configuration (simcfg-v1 on disk). ``format`` is one
    checked ``FrameFormat``, the frame structure every stage reads."""

    source: SourceModel
    channel: ChannelModel
    detectors: dict[Channel, DetectorModel]
    basis: DispersiveBasis
    duration_s: float
    seed: int
    wavelength_nm: float = 1550.0
    security_fraction: float = 0.3
    format: FrameFormat = FrameFormat(4, 3, 160)
    hist_bin_ps: int = 30
    hist_range_ps: int = 3840
    block_length: int = 16384
    max_iterations: int = 60
    min_overhead: float = 1.25
    baseline_duration_s: float | None = None

    def __post_init__(self):
        # whole picoseconds, at least one, that fit int64 timestamps
        for name, seconds in (("duration_s", self.duration_s),
                              ("baseline duration_s", self.baseline_duration_s)):
            if (seconds is not None
                    and not 1 / PS_PER_SECOND <= seconds < 2**63 / PS_PER_SECOND):
                raise ConfigError(f"{name} must be in [1 ps, 2**63 ps), got {seconds!r}")
        if not 0.0 < self.security_fraction < 1.0:
            raise ConfigError("security_fraction must be in (0, 1)")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed!r}")
        for name, value in (("histogram bin_ps", self.hist_bin_ps),
                            ("histogram range_ps", self.hist_range_ps),
                            ("max_iterations", self.max_iterations)):
            if value < 1:
                raise ConfigError(f"{name} must be >= 1, got {value!r}")
        # a block at the lowest rate must hold its syndrome, the hash and a key bit
        rate = min(SUPPORTED_RATES)
        if (self.block_length - round(self.block_length * (1.0 - rate))
                <= VERIFICATION_HASH_BITS):
            raise ConfigError(f"block_length {self.block_length!r} leaves no key bits: its "
                              f"rate-{rate} syndrome and {VERIFICATION_HASH_BITS}-bit hash fill it")
        # the histograms span [-range_ps, range_ps) in whole bins
        if 2 * self.hist_range_ps % self.hist_bin_ps:
            raise ConfigError(f"histogram range 2 * {self.hist_range_ps} ps is not "
                              f"a whole number of {self.hist_bin_ps} ps bins")
        # bounds the counts arrays before anything is read or simulated
        if 2 * self.hist_range_ps // self.hist_bin_ps > _MAX_HIST_BINS:
            raise ConfigError(f"histogram range 2 * {self.hist_range_ps} ps holds more "
                              f"than {_MAX_HIST_BINS} bins of {self.hist_bin_ps} ps")
        if not self.min_overhead > 0:
            raise ConfigError(f"min_overhead must be > 0, got {self.min_overhead!r}")
        if set(self.detectors) != set(CHANNELS):
            raise ConfigError("detectors must cover T1, F1, T2, F2")
        # bounds each chunk's draws before anything is simulated
        rate_hz = self.source.pair_rate_hz + sum(d.dark_rate_hz
                                                 for d in self.detectors.values())
        if not rate_hz * CHUNK_PS / PS_PER_SECOND <= _MAX_CHUNK_EVENTS:
            raise ConfigError(f"pair and dark-count rates of {rate_hz:g} Hz in all expect "
                              f"more than {_MAX_CHUNK_EVENTS} events per "
                              f"{CHUNK_PS / PS_PER_SECOND:g} s chunk")

    @property
    def duration_ps(self) -> int:
        return int(round(self.duration_s * PS_PER_SECOND))

    def to_dict(self) -> dict:
        return {
            "format_version": "simcfg-v1",
            "pair_rate_hz": self.source.pair_rate_hz,
            "spectral_sigma_rad_s": self.source.spectral_sigma_rad_s,
            "correlation_time_sigma_ps": self.source.correlation_time_sigma_ps,
            "correlation_break_sigma_rad_s": self.source.correlation_break_sigma_rad_s,
            "jitter_sigma_ps": {c.name: self.detectors[c].jitter_sigma_ps for c in CHANNELS},
            "dark_rate_hz": {c.name: self.detectors[c].dark_rate_hz for c in CHANNELS},
            "efficiency": {c.name: self.detectors[c].efficiency for c in CHANNELS},
            "transmission": {"alice": self.channel.alice_transmission,
                             "bob": self.channel.bob_transmission},
            "dispersion_ps_per_nm": self.basis.dispersion_ps_per_nm,
            "beta_d_ps_per_rad_s": self.basis.beta_d_ps_per_rad_s,
            "wavelength_nm": self.wavelength_nm,
            "propagation_delay_ps": self.channel.propagation_delay_ps,
            "residual_dispersion_ps_per_nm": self.channel.residual_dispersion_ps_per_nm,
            "eve_time_sigma_ps": self.channel.eve_time_sigma_ps,
            "eve_freq_sigma_rad_s": self.channel.eve_freq_sigma_rad_s,
            "duration_s": self.duration_s,
            "seed": self.seed,
            "security_fraction": self.security_fraction,
            "format": asdict(self.format),
            "histogram": {"bin_ps": self.hist_bin_ps, "range_ps": self.hist_range_ps},
            "reconciliation": {"block_length": self.block_length,
                               "max_iterations": self.max_iterations,
                               "min_overhead": self.min_overhead},
            "baseline": {"duration_s": self.baseline_duration_s or self.duration_s},
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SimConfig":
        if not isinstance(d, dict):
            raise ConfigError(f"a simcfg-v1 config is a JSON object, not {d!r}")
        if d.get("format_version", "simcfg-v1") != "simcfg-v1":
            raise ConfigError(f"format_version {d['format_version']!r} is not simcfg-v1")
        try:
            source = SourceModel(
                _real(d["pair_rate_hz"]), _real(d["spectral_sigma_rad_s"]),
                _real(d.get("correlation_time_sigma_ps", 0.0)),
                _real(d.get("correlation_break_sigma_rad_s", 0.0)))
            channel = ChannelModel(
                _real(d["transmission"]["alice"]), _real(d["transmission"]["bob"]),
                _real(d.get("residual_dispersion_ps_per_nm", 0.0)),
                _integer(d.get("propagation_delay_ps", 0)),
                _real(d.get("eve_time_sigma_ps", 0.0)),
                _real(d.get("eve_freq_sigma_rad_s", 0.0)))
            dark = _section(d, "dark_rate_hz")
            detectors = {
                c: DetectorModel(_real(d["efficiency"][c.name]),
                                 _real(d["jitter_sigma_ps"][c.name]),
                                 _real(dark.get(c.name, 0.0)))
                for c in CHANNELS}
            wavelength = _real(d.get("wavelength_nm", 1550.0))
            beta = d.get("beta_d_ps_per_rad_s")
            disp = _real(d.get("dispersion_ps_per_nm", 1800.0))
            basis = (DispersiveBasis(disp, _real(beta)) if beta is not None
                     else DispersiveBasis.from_dispersion(disp, wavelength))
            fmt = _section(d, "format")
            hist = _section(d, "histogram")
            rec = _section(d, "reconciliation")
            base = _section(d, "baseline").get("duration_s")
            cfg = cls(
                source, channel, detectors, basis,
                duration_s=_real(d["duration_s"]), seed=_integer(d["seed"]),
                wavelength_nm=wavelength,
                security_fraction=_real(d.get("security_fraction", 0.3)),
                format=FrameFormat(_integer(fmt.get("n_bits", 4)),
                                   _integer(fmt.get("bins_per_slot", 3)),
                                   _integer(fmt.get("bin_width_ps", 160))),
                hist_bin_ps=_integer(hist.get("bin_ps", 30)),
                hist_range_ps=_integer(hist.get("range_ps", 3840)),
                block_length=_integer(rec.get("block_length", 16384)),
                max_iterations=_integer(rec.get("max_iterations", 60)),
                min_overhead=float(_real(rec.get("min_overhead", 1.25))),
                baseline_duration_s=None if base is None else _real(base),
            )
        except KeyError as e:
            raise ConfigError(f"missing config key: {e}") from e
        except (TypeError, ValueError, OverflowError) as e:
            raise ConfigError(f"bad config value: {e}") from e
        _check_keys(d, cfg.to_dict())
        return cfg

    def save(self, path: str | Path) -> None:
        write_json(path, self.to_dict())

    @classmethod
    def load(cls, path: str | Path) -> "SimConfig":
        return cls.from_dict(read_json(path))

    def baseline_config(self) -> "SimConfig":
        """Back-to-back reference: no channel loss, no injected noise."""
        return replace(self, channel=ChannelModel(1.0, 1.0, 0.0, 0, 0.0, 0.0),
                       duration_s=self.baseline_duration_s or self.duration_s,
                       seed=(self.seed ^ 0x5EEDBA5E) & 0xFFFFFFFFFFFFFFFF)


def paper_default_config(**overrides) -> SimConfig:
    """The bundled reference scenario (calibrated defaults)."""
    import json
    with resources.files("doqkd").joinpath("configs/paper_default.json").open() as f:
        d = json.load(f)
    d.update(overrides)
    return SimConfig.from_dict(d)


@dataclass
class SessionTags:
    """The four detection streams of one session."""

    t1: TagStream
    f1: TagStream
    t2: TagStream
    f2: TagStream

    def stream(self, ch: Channel) -> TagStream:
        return getattr(self, ch.name.lower())

    @property
    def total_tags(self) -> int:
        return len(self.t1) + len(self.f1) + len(self.t2) + len(self.f2)

    def singles_rates_hz(self) -> dict[str, float]:
        return {c.name: self.stream(c).rate_hz for c in CHANNELS}


def _chunk_rng(seed: int, chunk: int, purpose: int = 0) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(purpose, chunk)))


def _outcomes(rng: np.random.Generator, n: int, p_time: float, p_freq: float) -> np.ndarray:
    """Codes of ``rng.random(n)``: ``_TIME`` below ``p_time``, ``_FREQ`` below
    ``p_time + p_freq``, else 0; the generator ends as that call leaves it."""
    codes = np.empty(n, np.int8)
    u, timed = np.empty(min(n, _BLOCK)), np.empty(min(n, _BLOCK), bool)
    for lo in range(0, n, _BLOCK):
        m = min(_BLOCK, n - lo)
        rng.random(out=u[:m])
        np.less(u[:m], p_time + p_freq, out=codes[lo:lo + m].view(bool))
        codes[lo:lo + m] += np.less(u[:m], p_time, out=timed[:m])
    return codes


def _stable_sort(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted ``values`` and ``np.argsort(values, kind="stable")``.

    The default sort is several times faster than the stable one but may
    leave equal values in any order; each run of equal values is put back
    in input order, which gives the stable permutation.
    """
    order = np.argsort(values)
    ordered = values[order]
    tie = ordered[1:] == ordered[:-1]
    if tie.any():
        in_run = np.zeros(order.size, bool)
        in_run[1:] = tie
        in_run[:-1] |= tie
        pos = np.flatnonzero(in_run)
        run = order[pos]
        order[pos] = run[np.lexsort((run, ordered[pos]))]
    return ordered, order


# column dtypes; the truth columns follow the times
_COLUMNS = {"times": np.int64, "pair_ids": np.int64, "detunings": float,
            "emit_times": np.int64}


def _party_parts(config: SimConfig, rng: np.random.Generator, party: Party,
                 codes: np.ndarray, omega: np.ndarray, emit: np.ndarray,
                 first_id: np.int64, parts: dict, truth: bool) -> None:
    """Append one party's detections of a chunk to ``parts``, per channel."""
    src, ch, det = config.source, config.channel, config.detectors
    bob = party == Party.BOB
    delay = ch.propagation_delay_ps if bob else 0
    beta_res = beta_from_dispersion(ch.residual_dispersion_ps_per_nm,
                                    config.wavelength_nm) if bob else 0.0
    if src.correlation_time_sigma_ps or (bob and (
            ch.eve_time_sigma_ps or ch.eve_freq_sigma_rad_s or beta_res)):
        # per-detection noise: the party's own times and physical detunings
        idx = np.flatnonzero(codes != 0)  # the party's detections among the kept pairs
        t, om = emit[idx], omega[idx]  # size-0 draws leave the generator as is
        if src.correlation_time_sigma_ps:
            t += rng.normal(0.0, src.correlation_time_sigma_ps, t.size)
        if bob:
            t += delay
            if ch.eve_time_sigma_ps:
                t += rng.normal(0.0, ch.eve_time_sigma_ps, t.size)
            if ch.eve_freq_sigma_rad_s:
                om += rng.normal(0.0, ch.eve_freq_sigma_rad_s, om.size)
            if beta_res:
                t += beta_res * om
        codes, delay = codes[idx], 0
    else:
        # none: each channel gathers straight from the pair columns
        idx, t, om = None, emit, omega
    for chan, code in zip(CHANNELS[2:] if bob else CHANNELS[:2], (_TIME, _FREQ)):
        pos = np.flatnonzero(codes == code)
        if not pos.size:
            continue
        tt = t[pos]
        tt += delay
        if chan.basis == Basis.FREQ:
            tt += dispersive_shift(om[pos], config.basis, party)
        tt += rng.normal(0.0, det[chan].jitter_sigma_ps, tt.size)
        times = np.rint(tt, out=tt).astype(np.int64)
        ok = (times >= 0) & (times < config.duration_ps)
        keep = slice(None) if ok.all() else ok
        part = dict(times=times[keep])
        if truth:
            pair = (pos if idx is None else idx[pos])[keep]
            part.update(pair_ids=first_id + pair, detunings=omega[pair],
                        emit_times=np.rint(emit[pair]).astype(np.int64))
        parts[chan].append(part)


def _simulate_chunk(config: SimConfig, chunk: int, truth: bool
                    ) -> dict[Channel, list[dict]]:
    """One canonical chunk's column dicts, per channel, in draw order."""
    src, ch, det = config.source, config.channel, config.detectors
    start = chunk * CHUNK_PS
    p_route = 0.5  # fair coupler
    surv = {c: (ch.alice_transmission if c in (Channel.T1, Channel.F1)
                else ch.bob_transmission) * det[c].efficiency for c in CHANNELS}

    # chunks always generate at full canonical width and truncate to the
    # session, so a session is a prefix of one infinite seeded tape
    width_ps = CHUNK_PS
    rng = _chunk_rng(config.seed, chunk)
    n_pairs = rng.poisson(src.pair_rate_hz * width_ps / PS_PER_SECOND)

    # Detection decisions first: most pairs are never seen. One uniform
    # per photon folds the 50:50 routing and the survival thinning; only
    # the pairs with a detection are kept, in draw order.
    c_a = _outcomes(rng, n_pairs, p_route * surv[Channel.T1], p_route * surv[Channel.F1])
    c_b = _outcomes(rng, n_pairs, p_route * surv[Channel.T2], p_route * surv[Channel.F2])
    kept = np.flatnonzero(np.logical_or(c_a, c_b))  # nonzero is 5x faster on bool
    c_a, c_b, k = c_a[kept], c_b[kept], kept.size
    del kept

    # start + u * width and (-omega_a) + break, in place
    emit = rng.random(k)
    emit *= width_ps
    emit += start
    omega_a = (rng.normal(0.0, src.spectral_sigma_rad_s, k)
               if src.spectral_sigma_rad_s else np.zeros(k))
    if src.correlation_break_sigma_rad_s:
        omega_b = rng.normal(0.0, src.correlation_break_sigma_rad_s, k)
        omega_b -= omega_a
    else:
        omega_b = -omega_a
    first_id = np.int64(chunk) << np.int64(36)
    parts: dict[Channel, list[dict]] = {c: [] for c in CHANNELS}
    _party_parts(config, rng, Party.ALICE, c_a, omega_a, emit, first_id, parts, truth)
    del c_a, omega_a
    _party_parts(config, rng, Party.BOB, c_b, omega_b, emit, first_id, parts, truth)
    del c_b, omega_b, emit

    # dark counts, uniform over the chunk
    rng_dark = _chunk_rng(config.seed, chunk, purpose=1)
    for chan in CHANNELS:
        rate = det[chan].dark_rate_hz
        n_d = rng_dark.poisson(rate * width_ps / PS_PER_SECOND) if rate > 0 else 0
        if n_d:
            times = start + np.sort(rng_dark.integers(0, width_ps, n_d))
            times = times[times < config.duration_ps].astype(np.int64)
            part = dict(times=times)
            if truth:
                part.update(pair_ids=np.full(len(times), -1, np.int64),
                            detunings=np.full(len(times), np.nan),
                            emit_times=np.zeros(len(times), np.int64))
            parts[chan].append(part)
    return parts


def _sorted(cols: dict) -> dict:
    """``cols`` in time order; stably so where truth columns show ties."""
    if len(cols) == 1:
        cols["times"].sort()
        return cols
    times, order = _stable_sort(cols["times"])
    return {key: times if key == "times" else col[order] for key, col in cols.items()}


def _merge(held: dict, parts: list[dict], released: int) -> dict:
    """``held``'s columns and a chunk's ``parts`` in the order of one stable
    sort of both; ``held`` is in it already, and at or after ``released``."""
    new = {key: np.concatenate([col[:0]] + [p[key] for p in parts])
           for key, col in held.items()}
    parts.clear()
    if new["times"].size and new["times"].min() < released:
        raise ConfigError(f"a tag lands more than one {CHUNK_PS} ps chunk before its "
                          "own chunk: the delay or jitter is too large")
    new = _sorted(new)
    # held's tags up to new's first come first and new's after held's last
    # come last; only the overlap between them is sorted again
    a, b = held["times"], new["times"]
    i = int(np.searchsorted(a, b[0], "right")) if b.size else a.size
    j = int(np.searchsorted(b, a[-1], "right")) if a.size else 0
    mid = _sorted({key: np.concatenate([held[key][i:], new[key][:j]]) for key in held})
    return {key: np.concatenate([held[key][:i], mid[key], new[key][j:]]) for key in held}


def _release(held: dict, bound: int, duration_ps: int) -> SessionTags:
    """The held tags below ``bound`` as one window; the rest stay held. Both
    sides are copies, so neither keeps the other alive."""
    streams = []
    for chan, cols in held.items():
        cut = int(np.searchsorted(cols["times"], bound))
        held[chan] = {key: col[cut:].copy() for key, col in cols.items()}
        streams.append(TagStream(cols.pop("times")[:cut].copy(), chan, duration_ps,
                                 **{key: col[:cut].copy() for key, col in cols.items()}))
    return SessionTags(*streams)


def simulate_windows(config: SimConfig, *, truth: bool = False
                     ) -> Iterator[tuple[int, SessionTags]]:
    """The session's streams as time-ordered windows ``(end_ps, tags)``.

    Once chunk c is drawn, the tags below ``c * CHUNK_PS`` form a window
    (the first is empty); the rest are held back, one chunk of lookahead.
    The last window ends at the session's end. Joined, the windows are
    ``simulate_session``'s streams, tie order included. A tag more than a
    chunk before its own chunk (a delay below -0.25 s, or a jitter near it)
    raises ``ConfigError``.
    """
    duration_ps = config.duration_ps
    keys = tuple(_COLUMNS)[:4 if truth else 1]
    held = {c: {key: np.empty(0, _COLUMNS[key]) for key in keys} for c in CHANNELS}
    for chunk in range(-(-duration_ps // CHUNK_PS)):
        parts = _simulate_chunk(config, chunk, truth)
        for chan in CHANNELS:  # the last window ended at the previous chunk's start
            held[chan] = _merge(held[chan], parts.pop(chan), (chunk - 1) * CHUNK_PS)
        yield chunk * CHUNK_PS, _release(held, chunk * CHUNK_PS, duration_ps)
    yield duration_ps, _release(held, duration_ps, duration_ps)


def simulate_session(config: SimConfig, *, truth: bool = False) -> SessionTags:
    """Generate the four tag streams for one session (its windows, joined).

    Streams carry timestamps only, unless ``truth`` is set: then
    photon-origin tags also carry truth annotations (pair id, emitted
    detuning, true emission time) and dark counts carry none. Timestamps
    do not depend on ``truth``. Fully reproducible from ``config.seed``.
    """
    windows = [window for _, window in simulate_windows(config, truth=truth)]
    parts = {chan: [w.stream(chan) for w in windows] for chan in CHANNELS}
    del windows
    streams = []
    for chan in CHANNELS:  # each channel's windows go as it is joined
        cols = {key: np.concatenate([getattr(w, key) for w in parts[chan]])
                for key in tuple(_COLUMNS)[:4 if truth else 1]}
        del parts[chan]
        streams.append(TagStream(cols.pop("times"), chan, config.duration_ps, **cols))
    return SessionTags(*streams)
