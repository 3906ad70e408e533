"""Time-tag data model and coincidence analytics.

Timestamps are signed 64-bit integer picoseconds since session start. All
operations here are pure functions on immutable inputs and are safe to call
concurrently on shared streams.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .errors import NoPeakError

PS_PER_SECOND = 1_000_000_000_000


class Party(IntEnum):
    ALICE = 0
    BOB = 1


class Basis(IntEnum):
    TIME = 0
    FREQ = 1


class Channel(IntEnum):
    """The four detector channels: time/frequency basis at Alice/Bob."""

    T1 = 0
    F1 = 1
    T2 = 2
    F2 = 3

    @property
    def basis(self) -> Basis:
        return Basis.TIME if self in (Channel.T1, Channel.T2) else Basis.FREQ


@dataclass
class TagStream:
    """A sorted sequence of detection events on one channel.

    ``times`` is an int64 array of picosecond timestamps, strictly sorted
    (ties allowed). The truth arrays are either None or full-length, with
    pair_id == -1 marking tags without annotation (dark counts). Only an
    empty stream may have ``channel is None``.
    """

    times: np.ndarray
    channel: Channel | None
    duration_ps: int
    pair_ids: np.ndarray | None = None
    detunings: np.ndarray | None = None
    emit_times: np.ndarray | None = None

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=np.int64)
        # shifted views compare in one bool a tag, not an int64 difference
        if np.any(self.times[1:] < self.times[:-1]):
            raise ValueError("tag timestamps must be sorted")
        if self.times.size and self.times[0] < 0:
            raise ValueError("timestamps must be >= 0 within a session")
        if self.channel is None and self.times.size:
            raise ValueError("a nonempty stream needs a channel")

    def __len__(self) -> int:
        return int(self.times.size)

    @property
    def basis(self) -> Basis | None:
        return self.channel.basis if self.channel is not None else None

    @property
    def duration_s(self) -> float:
        return self.duration_ps / PS_PER_SECOND

    @property
    def rate_hz(self) -> float:
        return len(self) / self.duration_s if self.duration_ps else 0.0

    def has_truth(self) -> bool:
        return self.pair_ids is not None

    def select(self, mask: np.ndarray) -> "TagStream":
        """New stream containing the masked subset of tags."""
        return TagStream(
            self.times[mask], self.channel, self.duration_ps,
            pair_ids=None if self.pair_ids is None else self.pair_ids[mask],
            detunings=None if self.detunings is None else self.detunings[mask],
            emit_times=None if self.emit_times is None else self.emit_times[mask],
        )

    def shifted(self, offset_ps: int) -> "TagStream":
        """New stream with all timestamps shifted by ``offset_ps``."""
        return TagStream(
            self.times + int(offset_ps), self.channel, self.duration_ps,
            pair_ids=self.pair_ids, detunings=self.detunings,
            emit_times=self.emit_times,
        )


@dataclass(frozen=True)
class CoincidenceHistogram:
    """Histogram of time differences t_b - t_a between two streams."""

    bin_width: int
    offset_min: int
    offset_max: int
    counts: np.ndarray
    acquisition_time_s: float

    def __post_init__(self):
        span = self.offset_max - self.offset_min
        if span <= 0 or span % self.bin_width != 0:
            raise ValueError("offset range must divide evenly into bins")
        if len(self.counts) != span // self.bin_width:
            raise ValueError("counts length does not match bin layout")

    @property
    def n_bins(self) -> int:
        return len(self.counts)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def bin_centers(self) -> np.ndarray:
        return (self.offset_min + self.bin_width * (np.arange(self.n_bins) + 0.5))

@dataclass(frozen=True)
class EffectiveRates:
    """Peak-bin coincidence rate and coincidence-to-accidental ratio."""

    effective_coincidence_rate_hz: float
    effective_car: float
    peak_bin_offset: int
    accidental_rate_hz: float
    fwhm_ps: float


def coincidence_histogram(a: TagStream, b: TagStream, bin_width: int,
                          offset_range: tuple[int, int],
                          acquisition_time_s: float | None = None) -> CoincidenceHistogram:
    """Histogram every (i, j) pair with t_b - t_a inside ``offset_range``.

    A sliding-window sweep: pairs are counted, not exclusively matched, so a
    tag may appear in several pairs. The range must divide evenly by
    ``bin_width``.
    """
    lo, hi = offset_range
    span = hi - lo
    if span <= 0 or span % bin_width != 0:
        raise ValueError("offset range must divide evenly by bin_width")
    n_bins = span // bin_width
    counts = np.zeros(n_bins, dtype=np.int64)

    ta = a.times
    tb = b.times
    # search the shorter stream into the longer: negated and reversed, b's
    # tags before a's keep every offset t_b - t_a and both streams sorted
    if ta.size > tb.size:
        ta, tb = -tb[::-1], -ta[::-1]
    # one search finds each a-tag's first b-tag at or after t_a + lo; the
    # windows then step forward together, each round dropping the a-tags
    # whose next b-tag is at or past t_a + hi. A window holds a handful of
    # tags, so few rounds run and each is smaller than the last. Rounds'
    # bin indices are counted together once they reach n_bins, so a wide
    # range's many small rounds do not each pay for the whole counts array.
    j = np.searchsorted(tb, ta + lo, side="left")
    pending: list[np.ndarray] = []
    n_pending = 0
    while j.size:
        live = j < len(tb)
        j, ta = j[live], ta[live]
        d = tb[j] - ta
        live = d < hi
        j, ta, d = j[live], ta[live], d[live]
        pending.append((d - lo) // bin_width)
        n_pending += d.size
        j += 1
        if n_pending >= n_bins or not j.size:
            counts += np.bincount(pending[0] if len(pending) == 1
                                  else np.concatenate(pending), minlength=n_bins)
            pending, n_pending = [], 0

    if acquisition_time_s is None:
        acquisition_time_s = max(a.duration_s, b.duration_s)
    return CoincidenceHistogram(bin_width, lo, hi, counts, acquisition_time_s)


def accidental_floor(counts: np.ndarray, peak: int, halfwidth: int
                     ) -> tuple[float | None, np.ndarray]:
    """Accidental floor of a histogram and the mask of the bins it averages.

    The floor is the mean of the bins more than ``halfwidth`` bins away from
    ``peak``; it is None when no bin lies that far out.
    """
    outside = np.ones(counts.size, bool)
    outside[max(0, peak - halfwidth):peak + halfwidth + 1] = False
    return (float(counts[outside].mean()) if outside.any() else None), outside


def fwhm(h: CoincidenceHistogram) -> float:
    """Full width at half maximum of the histogram peak, in ps.

    Linear interpolation between adjacent bin centers locates the two
    half-maximum crossings; the accidental floor is subtracted first.
    Raises NoPeakError when the maximum is below 5x the floor.
    """
    counts = h.counts.astype(float)
    peak = int(np.argmax(counts))
    # the floor excludes +/-3x a first-pass width around the peak: the run
    # of bins at or above half the raw maximum
    half = counts[peak] / 2.0
    left = right = peak
    while left > 0 and counts[left - 1] >= half:
        left -= 1
    while right < h.n_bins - 1 and counts[right + 1] >= half:
        right += 1
    floor, _ = accidental_floor(counts, peak, 3 * (right - left + 1))
    if floor is None:
        # a "peak" spanning the whole histogram leaves no floor bins; the
        # median then rejects flat histograms below
        floor = float(np.median(counts))
    if counts[peak] <= 0 or (floor > 0 and counts[peak] < 5.0 * floor):
        raise NoPeakError("histogram has no peak above the accidental floor")
    half = floor + (counts[peak] - floor) / 2.0

    def cross(direction: int) -> float:
        k = peak
        while 0 <= k + direction < h.n_bins and counts[k + direction] >= half:
            k += direction
        nxt = k + direction
        if not (0 <= nxt < h.n_bins):
            return float(k)  # clipped at histogram edge
        c0, c1 = counts[k], counts[nxt]
        frac = (c0 - half) / (c0 - c1) if c0 != c1 else 0.5
        return k + direction * frac

    width_bins = cross(+1) - cross(-1)
    return float(width_bins * h.bin_width)


def effective_rates(h: CoincidenceHistogram) -> EffectiveRates:
    """Peak-bin coincidence rate and effective CAR.

    The effective rate is the maximum-bin count divided by acquisition time.
    The CAR divides it by the mean accidental rate of bins outside the peak
    region (+/-3x FWHM around the peak). A zero accidental floor reports CAR
    as +inf.
    """
    width = fwhm(h)  # raises NoPeakError on flat input
    counts = h.counts.astype(float)
    peak = int(np.argmax(counts))
    floor, _ = accidental_floor(counts, peak,
                                max(math.ceil(3.0 * width / h.bin_width), 1))
    floor = floor or 0.0

    t = h.acquisition_time_s
    rate = counts[peak] / t
    acc_rate = floor / t
    car = rate / acc_rate if floor > 0 else math.inf
    offset = int(h.offset_min + h.bin_width * peak + h.bin_width // 2)
    return EffectiveRates(rate, car, offset, acc_rate, width)
