import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from doqkd.errors import NoPeakError
from doqkd.timetags import (Channel, CoincidenceHistogram, TagStream,
                            coincidence_histogram, effective_rates, fwhm)

from reference_histogram import reference_histogram


def stream(times, channel=Channel.T1, duration=None):
    times = np.asarray(times, np.int64)
    if duration is None:
        duration = int(times[-1]) + 1 if times.size else 0
    return TagStream(times, channel, duration)


class TestTagStream:
    def test_unsorted_input_rejected(self):
        with pytest.raises(ValueError):
            stream([5, 1])

    def test_sortedness_check_peak_memory(self):
        # every read, select and shift builds a TagStream: its sortedness
        # check may hold a bool a tag, not an int64 difference array
        times = np.arange(1_000_000, dtype=np.int64) * 7
        tracemalloc.start()
        try:
            TagStream(times, Channel.T1, int(times[-1]) + 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * times.size


class TestCoincidenceHistogram:
    def test_single_offset(self):
        h = coincidence_histogram(stream([0], duration=1000),
                                  stream([10], Channel.T2, duration=1000),
                                  30, (-300, 300))
        assert h.total == 1
        assert h.counts[(10 - (-300)) // 30] == 1

    def test_uncorrelated_floor_matches_analytic(self):
        rng = np.random.default_rng(3)
        dur_s = 2.0
        dur = int(dur_s * 1e12)
        r = 200e3
        a = stream(np.sort(rng.integers(0, dur, int(r * dur_s))), duration=dur)
        b = stream(np.sort(rng.integers(0, dur, int(r * dur_s))), Channel.T2,
                   duration=dur)
        h = coincidence_histogram(a, b, 100, (-10_000, 10_000))
        mean = h.counts.mean()
        expect = r * r * 100e-12 * dur_s
        sigma = math.sqrt(expect / h.n_bins)
        assert abs(mean - expect) < 5 * sigma

    def test_indivisible_range_rejected(self):
        with pytest.raises(ValueError):
            coincidence_histogram(stream([0]), stream([0], Channel.T2), 30, (-100, 100))

    def test_refinement_preserves_total(self):
        rng = np.random.default_rng(5)
        a = stream(np.sort(rng.integers(0, 10**8, 5000)), duration=10**8)
        b = stream(np.sort(rng.integers(0, 10**8, 5000)), Channel.T2, duration=10**8)
        fine = coincidence_histogram(a, b, 30, (-3000, 3000))
        coarse = coincidence_histogram(a, b, 60, (-3000, 3000))
        assert coarse.total == fine.total
        np.testing.assert_array_equal(coarse.counts, rebin(fine, 2).counts)


@st.composite
def histogram_cases(draw):
    """Two short streams over a narrow span (so ties are common), and a bin
    layout; b also holds tags exactly at t_a + lo and t_a + hi of some
    a-tags."""
    bin_width = draw(st.sampled_from([1, 2, 3, 7, 30]))
    lo = draw(st.integers(-60, 60))
    hi = lo + bin_width * draw(st.integers(1, 12))
    span = draw(st.sampled_from([20, 300]))
    ta = draw(st.lists(st.integers(0, span), max_size=40))
    tb = draw(st.lists(st.integers(0, span), max_size=40))
    if ta:
        edge = draw(st.lists(st.sampled_from(ta), max_size=6))
        tb += [t + lo for t in edge] + [t + hi for t in edge]
    return sorted(ta), sorted(t for t in tb if t >= 0), bin_width, lo, hi


class TestHistogramOracle:
    """The one-search kernel counts exactly the all-pairs offsets."""

    @given(histogram_cases())
    # ties on both sides, with offsets exactly at lo (counted) and hi (not)
    @example(([5, 5, 9], [2, 5, 5, 9, 9, 12], 3, -3, 3))
    @example(([], [1, 2], 1, -2, 2))
    @example(([1, 2], [], 1, -2, 2))
    # a longer than b, so the search runs from b into a: b-tags exactly at
    # t_a + lo (counted) and t_a + hi (not), with ties on both sides
    @example(([5, 5, 9, 9, 12, 20], [2, 9, 9, 12], 1, -3, 3))
    @example(([0, 0, 4, 4, 7, 10, 10], [2, 6, 6, 16], 2, 2, 6))
    def test_matches_all_pairs(self, case):
        ta, tb, bin_width, lo, hi = case
        h = coincidence_histogram(stream(ta), stream(tb, Channel.T2),
                                  bin_width, (lo, hi))
        np.testing.assert_array_equal(
            h.counts, reference_histogram(ta, tb, bin_width, lo, hi))

    def test_dense_windows(self):
        # about 120 b-tags per 1,200 ps window: the forward walk runs
        # for well over a hundred rounds
        rng = np.random.default_rng(17)
        ta = np.sort(rng.integers(0, 20_000, 2000))
        tb = np.sort(rng.integers(0, 20_000, 2000))
        h = coincidence_histogram(stream(ta), stream(tb, Channel.T2), 30,
                                  (-600, 600))
        assert h.total > 24 * ta.size
        np.testing.assert_array_equal(
            h.counts, reference_histogram(ta, tb, 30, -600, 600))


class TestWideRange:
    """Many rounds over a wide range: the rounds' bin indices are counted in
    few passes over the counts, not one pass each."""

    def test_many_rounds_over_a_million_bins(self, monkeypatch):
        rng = np.random.default_rng(23)
        ta, tb = (np.sort(rng.integers(0, 1 << 19, 300)) for _ in range(2))
        # 2**20 bins of 1 ps: every pair counts, in one round per b-tag
        lo, hi = -(1 << 19), 1 << 19
        passes, bincount = [], np.bincount

        def counted(x, *args, **kwargs):
            passes.append(x.size)
            return bincount(x, *args, **kwargs)

        monkeypatch.setattr(np, "bincount", counted)
        h = coincidence_histogram(stream(ta), stream(tb, Channel.T2), 1, (lo, hi))
        monkeypatch.undo()
        assert h.total == ta.size * tb.size
        assert len(passes) == 1
        np.testing.assert_array_equal(h.counts, reference_histogram(ta, tb, 1, lo, hi))


def rebin(h, factor):
    """Coarsen a histogram by an integer factor (the bin count must divide)."""
    return CoincidenceHistogram(h.bin_width * factor, h.offset_min, h.offset_max,
                                h.counts.reshape(-1, factor).sum(axis=1),
                                h.acquisition_time_s)


def gaussian_histogram(sigma, bin_width, amplitude=1e6, half_range=1000, floor=0.0):
    edges = np.arange(-half_range, half_range + bin_width, bin_width)
    centers = (edges[:-1] + edges[1:]) / 2
    counts = np.rint(amplitude * np.exp(-centers**2 / (2 * sigma**2)) + floor)
    return CoincidenceHistogram(bin_width, -half_range, half_range,
                                counts.astype(np.int64), 1.0)


class TestFwhm:
    def test_single_bin_spike(self):
        counts = np.zeros(21, np.int64)
        counts[10] = 1000
        h = CoincidenceHistogram(30, -315, 315, counts, 1.0)
        assert fwhm(h) == pytest.approx(30.0)

    def test_gaussian_analytic(self):
        h = gaussian_histogram(sigma=100.0, bin_width=10)
        expect = 2.0 * math.sqrt(2.0 * math.log(2.0)) * 100.0
        assert fwhm(h) == pytest.approx(expect, abs=10.0)

    def test_flat_histogram_rejected(self):
        h = CoincidenceHistogram(10, -100, 100, np.full(20, 50, np.int64), 1.0)
        with pytest.raises(NoPeakError):
            fwhm(h)

    def test_rebinned_consistency(self):
        h = gaussian_histogram(sigma=100.0, bin_width=10)
        assert abs(fwhm(rebin(h, 2)) - fwhm(h)) <= 20.0


class TestEffectiveRates:
    def test_definition_arithmetic(self):
        counts = np.full(201, 10, np.int64)
        counts[100] = 1000
        h = CoincidenceHistogram(160, -160 * 100 - 80, 160 * 101 - 80, counts, 5.0)
        er = effective_rates(h)
        assert er.effective_coincidence_rate_hz == pytest.approx(200.0)
        assert er.effective_car == pytest.approx(100.0, rel=0.01)

    def test_zero_floor_is_inf(self):
        counts = np.zeros(21, np.int64)
        counts[10] = 500
        h = CoincidenceHistogram(30, -315, 315, counts, 1.0)
        assert math.isinf(effective_rates(h).effective_car)

    def test_floor_scales_with_bin_width(self):
        rng = np.random.default_rng(11)
        dur = 10**9
        a = np.sort(rng.integers(0, dur, 20000))
        b = np.sort(rng.integers(0, dur, 20000))
        # plant a sharp peak so a peak exists
        b2 = np.sort(np.concatenate([b, a[:4000] + 5]))
        sa = stream(a, duration=dur)
        sb = stream(b2, Channel.T2, duration=dur)
        h1 = coincidence_histogram(sa, sb, 30, (-3840, 3840))
        h2 = coincidence_histogram(sa, sb, 60, (-3840, 3840))
        f1 = effective_rates(h1).accidental_rate_hz
        f2 = effective_rates(h2).accidental_rate_hz
        assert f2 == pytest.approx(2 * f1, rel=0.15)
