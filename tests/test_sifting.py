import dataclasses
import struct
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from doqkd.errors import ConfigError
from doqkd.sifting import (FrameFormat, FrameNeighbours, common_offsets,
                           match_bins, pack_symbols, qber, run_sifting,
                           security_mask, single_events,
                           split_security_fraction)
from doqkd.timetags import Channel, TagStream

from reference_sifting import reference_sift


def tstream(times, channel=Channel.T1, duration=None):
    times = np.asarray(times, np.int64)
    if duration is None:
        duration = int(times[-1]) + 1 if times.size else 0
    return TagStream(times, channel, duration)


def unpack_symbols(data: bytes, n_bits: int, count: int) -> np.ndarray:
    """Inverse of ``pack_symbols``: the round-trip oracle."""
    bits = np.unpackbits(np.frombuffer(data, np.uint8))[:count * n_bits]
    shifts = np.arange(n_bits - 1, -1, -1)
    return (bits.reshape(count, n_bits).astype(np.int64) << shifts).sum(axis=1)


# a sift-v1 BINS record: frame id and Bob's bin number
BINS_RECORD = np.dtype([("frame", "<i8"), ("bin", "u1")])


def parse_sift_v1(data: bytes) -> list:
    """(type, frames, bins) per message of writer-produced sift-v1 bytes;
    bins is None for FRAMES (type 1). Asserts every byte is consumed."""
    messages, off = [], 0
    while off < len(data):
        mtype, count = struct.unpack_from("<BI", data, off)
        off += 5
        if mtype == 1:
            messages.append((mtype, np.frombuffer(data, "<i8", count, off), None))
            off += 8 * count
        else:
            assert mtype == 2
            rec = np.frombuffer(data, BINS_RECORD, count, off)
            messages.append((mtype, rec["frame"], rec["bin"]))
            off += BINS_RECORD.itemsize * count
    assert off == len(data)
    return messages


def single_event_frames(tags, fmt):
    """Map frame -> (slot, bin) over the frames the sifting round keeps as
    single-event frames."""
    f, t, _ = single_events(tags, fmt.frame_width_ps)
    off = t - f * fmt.frame_width_ps
    b, _, s, _ = match_bins(off, off, fmt)
    return {int(fi): (int(si), int(bi)) for fi, si, bi in zip(f, s, b)}


def address(t, fmt):
    """(frame, slot, bin) of a lone tag at t, as the sifting round reads it."""
    frame_end = (t // fmt.frame_width_ps + 1) * fmt.frame_width_ps
    (frame, (slot, b)), = single_event_frames(tstream([t], duration=frame_end),
                                             fmt).items()
    return frame, slot, b


class TestFrameFormat:
    def test_derived_quantities(self):
        fmt = FrameFormat(4, 3, 160)
        assert fmt.slots_per_frame == 16
        assert fmt.slot_width_ps == 480
        assert fmt.frame_width_ps == 7680

    @pytest.mark.parametrize("n,i,tau", [(0, 3, 160), (4, 0, 160), (4, 3, 0)])
    def test_invalid(self, n, i, tau):
        with pytest.raises(ValueError):
            FrameFormat(n, i, tau)

    @pytest.mark.parametrize("i", [257, 300, 2**40])
    def test_bins_beyond_sift_v1_rejected(self, i):
        # Bob's bin numbers go on the wire as u8
        with pytest.raises(ConfigError, match="256"):
            FrameFormat(2, i, 10)

    def test_n_bits_beyond_the_joint_table_rejected(self):
        # the information estimate's joint table has 4**n_bits int64 cells
        assert FrameFormat(10, 3, 20).slots_per_frame == 1024
        with pytest.raises(ConfigError, match="joint table"):
            FrameFormat(11, 3, 20)

    def test_frame_wider_than_int64_rejected(self):
        with pytest.raises(ConfigError, match="int64"):
            FrameFormat(10, 256, 2**50)


class TestAssignAddress:
    def test_zero(self):
        assert address(0, FrameFormat(2, 3, 100)) == (0, 0, 0)

    def test_spec_example(self):
        assert address(10_000, FrameFormat(4, 3, 160)) == (1, 4, 2)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            address(-1, FrameFormat(1, 1, 1))

    def test_roundtrip_property(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            fmt = FrameFormat(int(rng.integers(1, 7)), int(rng.integers(1, 6)),
                              int(rng.integers(1, 400)))
            t = int(rng.integers(0, 10**10))
            frame, slot, b = address(t, fmt)
            lo = (frame * fmt.frame_width_ps + slot * fmt.slot_width_ps
                  + b * fmt.bin_width_ps)
            assert lo <= t < lo + fmt.bin_width_ps
            assert 0 <= slot < fmt.slots_per_frame
            assert 0 <= b < fmt.bins_per_slot


class TestSingleEventFrames:
    def test_each_single(self):
        fmt = FrameFormat(1, 2, 100)  # frame width 400
        out = single_event_frames(tstream([150, 500, 850], duration=1200), fmt)
        assert sorted(out) == [0, 1, 2]

    def test_multi_event_frame_absent(self):
        fmt = FrameFormat(1, 2, 100)
        out = single_event_frames(tstream([10, 20, 500], duration=800), fmt)
        assert sorted(out) == [1]

    def test_partial_final_frame_dropped(self):
        fmt = FrameFormat(1, 2, 100)
        out = single_event_frames(tstream([150, 450], duration=700), fmt)
        assert sorted(out) == [0]  # frame 1 incomplete (700 < 800)

    def test_matches_grouping_oracle(self):
        rng = np.random.default_rng(4)
        fmt = FrameFormat(3, 3, 50)
        times = np.sort(rng.integers(0, 10**8, 10**5))
        times = np.unique(times)
        s = tstream(times, duration=10**8)
        got = single_event_frames(s, fmt)

        groups = {}
        n_frames = s.duration_ps // fmt.frame_width_ps
        for t in times:
            f = int(t) // fmt.frame_width_ps
            if f < n_frames:
                groups.setdefault(f, []).append(int(t))
        expect = {f: v[0] for f, v in groups.items() if len(v) == 1}
        assert set(got) == set(expect)
        for f, (slot, b) in got.items():
            t = expect[f]
            rem = t - f * fmt.frame_width_ps
            assert slot == rem // fmt.slot_width_ps
            assert b == (rem % fmt.slot_width_ps) // fmt.bin_width_ps


INT64_MAX = 2**63 - 1
TOP_WIDTHS = [2**62, INT64_MAX - 1, INT64_MAX]


def neighbour_tags(times, channel, duration):
    return TagStream(np.array(sorted(times), np.int64), channel, duration)


class TestFrameNeighbours:
    """The many-widths form against ``single_events`` + ``common_offsets``
    on each width of a grid, arrays and dtypes alike, with a reach of the
    widest width or more."""

    @given(a=st.lists(st.integers(0, 120), max_size=40),
           b=st.lists(st.integers(0, 120), max_size=40),
           # the last-tag rule, part of the span, all of it
           dur_a=st.sampled_from([0, 60, 121]),
           dur_b=st.sampled_from([0, 60, 121]),
           widths=st.lists(st.integers(1, 150) | st.sampled_from(TOP_WIDTHS),
                           min_size=1, max_size=6, unique=True),
           extra=st.sampled_from([0, 1, 37, 2**62]))
    # ties within each stream, and Bob tags equal to Alice tags
    @example(a=[5, 5, 9, 20, 31, 31, 60], b=[5, 9, 9, 20, 31, 44], dur_a=0,
             dur_b=0, widths=[1, 2, 4, 10, 16], extra=0)
    # ties on both sides at width 1, which keeps only the Bob tags equal to
    # an Alice tag
    @example(a=[5, 5, 7, 8, 12], b=[5, 5, 6, 9, 12], dur_a=0, dur_b=0,
             widths=[1], extra=0)
    # two Alice tags in a Bob tag's frame, both before it or both after it
    @example(a=[1, 2, 14, 17, 25], b=[3, 13, 24], dur_a=0, dur_b=0,
             widths=[5, 10], extra=0)
    # a tag's next one in its stream opens the next frame
    @example(a=[3, 12], b=[4, 10], dur_a=0, dur_b=0, widths=[5, 10], extra=1)
    # an empty side
    @example(a=[], b=[3, 7, 40], dur_a=0, dur_b=121, widths=[1, 8], extra=0)
    @example(a=[3, 7, 40], b=[], dur_a=121, dur_b=0, widths=[1, 8], extra=0)
    @example(a=[], b=[], dur_a=0, dur_b=0, widths=[1], extra=0)
    # Bob's stream ends before Alice's, by duration and by its last tag;
    # then equal durations
    @example(a=[2, 11, 21, 33, 47], b=[3, 12, 22, 34, 46], dur_a=0, dur_b=25,
             widths=[5, 10, 12], extra=0)
    @example(a=[2, 11, 21, 33, 47], b=[3, 12, 22], dur_a=121, dur_b=0,
             widths=[5, 10, 12], extra=37)
    @example(a=[2, 11, 21, 33, 47], b=[3, 12, 22, 34, 46], dur_a=60,
             dur_b=60, widths=[5, 10, 12], extra=0)
    # a reach wider than the whole span keeps every Bob tag
    @example(a=[0, 7, 50], b=[20, 21, 60], dur_a=0, dur_b=0, widths=[8, 51],
             extra=2**62)
    # a frame wider than the session keeps none
    @example(a=[1, 50, 100], b=[2, 51, 101], dur_a=121, dur_b=121,
             widths=[122, 150, 2**62], extra=0)
    # times and widths at the top of int64: a frame's end does not fit, and
    # neighbours are missing on either side
    @example(a=[0, INT64_MAX - 3, INT64_MAX - 1], b=[1, INT64_MAX - 2, INT64_MAX],
             dur_a=0, dur_b=0, widths=[*TOP_WIDTHS, INT64_MAX - 2], extra=0)
    @example(a=[INT64_MAX], b=[INT64_MAX], dur_a=0, dur_b=0,
             widths=[INT64_MAX, INT64_MAX - 1], extra=0)
    @example(a=[INT64_MAX - 5, INT64_MAX - 1], b=[INT64_MAX - 4, INT64_MAX],
             dur_a=INT64_MAX, dur_b=INT64_MAX, widths=[1, 3, 7, *TOP_WIDTHS[1:]],
             extra=0)
    # tags at 0 and INT64_MAX: gaps of int64's full range, at and just under
    # the reach
    @example(a=[0, INT64_MAX], b=[0, INT64_MAX], dur_a=0, dur_b=0,
             widths=[INT64_MAX], extra=0)
    @example(a=[0], b=[INT64_MAX], dur_a=0, dur_b=0, widths=[INT64_MAX], extra=0)
    @example(a=[INT64_MAX], b=[1], dur_a=0, dur_b=0, widths=[INT64_MAX], extra=0)
    # a lone tag whose frame ends just past int64
    @example(a=[INT64_MAX - 1], b=[INT64_MAX - 1], dur_a=0, dur_b=0, widths=[2, 3],
             extra=0)
    def test_matches_single_events_and_common_offsets(self, a, b, dur_a, dur_b,
                                                      widths, extra):
        alice = neighbour_tags(a, Channel.T1, dur_a)
        bob = neighbour_tags(b, Channel.T2, dur_b)
        neighbours = FrameNeighbours(alice, bob, min(max(widths) + extra, INT64_MAX))
        for w in widths:
            fa, ta, _ = single_events(alice, w)
            fb, tb, _ = single_events(bob, w)
            want = common_offsets(fa, ta, fb, tb, w)
            got = neighbours.common_offsets(w)
            assert [(x.dtype, x.tolist()) for x in got] \
                == [(x.dtype, x.tolist()) for x in want], w

    def test_width_above_the_reach(self):
        neighbours = FrameNeighbours(neighbour_tags([1], Channel.T1, 0),
                                     neighbour_tags([2], Channel.T2, 0), 8)
        with pytest.raises(ValueError):
            neighbours.common_offsets(9)


class TestSplit:
    def test_bad_fraction(self):
        s = tstream([1, 2, 3])
        with pytest.raises(ValueError):
            split_security_fraction(s, 0.0, 1, FrameFormat(1, 1, 10))

    def test_vanishing_fraction_limit(self):
        rng = np.random.default_rng(0)
        s = tstream(np.sort(rng.integers(0, 10**9, 10**5)), duration=10**9)
        sec, key = split_security_fraction(s, 1e-12, 1, FrameFormat(4, 3, 160))
        assert len(sec) == 0 and len(key) == 10**5

    def test_binomial_mean(self):
        rng = np.random.default_rng(6)
        times = np.sort(rng.integers(0, 10**12, 10**6))
        s = tstream(times, duration=10**12)
        sec, key = split_security_fraction(s, 0.3, 99, FrameFormat(4, 3, 160))
        n = len(sec)
        sigma = np.sqrt(1e6 * 0.3 * 0.7)
        assert abs(n - 3.0e5) < 3 * sigma
        assert n + len(key) == 10**6

    def test_deterministic(self):
        s = tstream(np.arange(0, 10**6, 997), duration=10**6)
        fmt = FrameFormat(2, 2, 50)
        a = split_security_fraction(s, 0.3, 42, fmt)
        b = split_security_fraction(s, 0.3, 42, fmt)
        np.testing.assert_array_equal(a[0].times, b[0].times)

    def test_frame_keyed_consistency_across_parties(self):
        # tags in the same frame land on the same side for both parties
        fmt = FrameFormat(2, 2, 100)
        rng = np.random.default_rng(8)
        base = np.sort(rng.integers(0, 10**7, 2000))
        alice = tstream(base, Channel.T1, duration=10**7)
        bob = tstream(np.sort(base + rng.integers(0, 30, 2000)), Channel.T2,
                      duration=10**7)
        m_a = security_mask(alice.times, 0.3, 5, fmt)
        m_b = security_mask(bob.times, 0.3, 5, fmt)
        fa = alice.times // fmt.frame_width_ps
        fb = bob.times // fmt.frame_width_ps
        sec_frames_a = set(fa[m_a].tolist())
        key_frames_a = set(fa[~m_a].tolist())
        assert sec_frames_a.isdisjoint(key_frames_a)
        for f, sel in zip(fb.tolist(), m_b.tolist()):
            if f in sec_frames_a:
                assert sel
            elif f in key_frames_a:
                assert not sel


_SM_GAMMA, _SM_M1, _SM_M2 = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB


def allocating_mask(times, fraction, seed, fmt):
    """``security_mask`` as it read when each SplitMix64 step made new arrays."""
    def splitmix64(x):
        x = (x + np.uint64(_SM_GAMMA)).astype(np.uint64)
        x = (x ^ (x >> np.uint64(30))) * np.uint64(_SM_M1)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(_SM_M2)
        return x ^ (x >> np.uint64(31))
    frames = (times // fmt.frame_width_ps).astype(np.int64).view(np.uint64)
    salt = splitmix64(np.array([seed & 0xFFFFFFFFFFFFFFFF], np.uint64))[0]
    return splitmix64(frames ^ salt) < np.uint64(int(fraction * 2.0**64))




class TestSecurityMaskInPlace:
    @given(times=st.lists(st.integers(0, 10**4)
                          | st.integers(INT64_MAX - 10**4, INT64_MAX),
                          max_size=200).map(sorted),
           width=st.integers(1, 10**4) | st.integers(1, INT64_MAX),
           seed=st.integers(0, 2**64 - 1), fraction=st.floats(1e-9, 1 - 1e-9))
    @example(times=[0, INT64_MAX], width=INT64_MAX, seed=2**64 - 1, fraction=0.3)
    @example(times=[INT64_MAX - 1, INT64_MAX], width=1, seed=0, fraction=0.5)
    def test_matches_the_allocating_expression(self, times, width, seed, fraction):
        t = np.array(times, np.int64)
        fmt = SimpleNamespace(frame_width_ps=width)  # the mask reads only the width
        mask = security_mask(t, fraction, seed, fmt)
        assert mask.tobytes() == allocating_mask(t, fraction, seed, fmt).tobytes()
        assert t.tolist() == times  # the input is not hashed in place


class TestRunSifting:
    def test_hand_traced_example(self):
        fmt = FrameFormat(1, 2, 100)
        alice = tstream([150, 500, 850, 1250], duration=1600)
        bob = tstream([160, 460, 1650], Channel.T2, duration=1600)
        res = run_sifting(alice, bob, fmt)
        assert res.kept_frames == 1
        assert res.key_a.tolist() == [0]
        assert res.key_b.tolist() == [0]
        assert res.discarded_bin_mismatch == 1

    def test_identical_streams(self):
        rng = np.random.default_rng(10)
        times = np.unique(np.sort(rng.integers(0, 10**8, 20000)))
        fmt = FrameFormat(3, 3, 120)
        a = tstream(times, Channel.T1, duration=10**8)
        b = tstream(times.copy(), Channel.T2, duration=10**8)
        res = run_sifting(a, b, fmt)
        assert res.kept_frames == len(single_event_frames(a, fmt))
        assert qber(res.key_a, res.key_b) == 0.0

    def test_freq_basis_rejected(self):
        f = tstream([10], Channel.F1, duration=100)
        t = tstream([10], Channel.T2, duration=100)
        with pytest.raises(ValueError):
            run_sifting(f, t, FrameFormat(1, 1, 10))

    def test_lone_tags_at_int64_top(self):
        # the frame of the tags ends past int64; it is whole at duration 0
        t = [INT64_MAX - 1]
        res = run_sifting(tstream(t, duration=0), tstream(t, Channel.T2, duration=0),
                          FrameFormat(1, 1, 1))
        assert res.agreed_frames.tolist() == [(INT64_MAX - 1) // 2]
        assert res.key_a.tolist() == res.key_b.tolist() == [0]

    def test_no_slot_numbers_in_transcript(self):
        rng = np.random.default_rng(12)
        fmt = FrameFormat(3, 2, 80)
        a = tstream(np.unique(rng.integers(0, 10**7, 3000)), duration=10**7)
        b = tstream(np.unique(rng.integers(0, 10**7, 3000)), Channel.T2,
                    duration=10**7)
        res = run_sifting(a, b, fmt)
        # the bytes parse whole as frame ids and bin numbers: those are
        # the only per-event payloads
        messages = parse_sift_v1(res.transcript_bytes())
        assert [mtype for mtype, _, _ in messages] == [1, 2, 1]
        assert res.bins_b.dtype == np.uint8
        assert messages[1][2].max(initial=0) < fmt.bins_per_slot

    def test_global_frame_shift_invariance(self):
        rng = np.random.default_rng(14)
        fmt = FrameFormat(2, 3, 70)
        dur = 10**7
        shift = 100 * fmt.frame_width_ps
        ta = np.unique(rng.integers(0, dur, 4000))
        tb = np.unique(rng.integers(0, dur, 4000))
        r1 = run_sifting(tstream(ta, duration=dur),
                         tstream(tb, Channel.T2, duration=dur), fmt)
        r2 = run_sifting(tstream(ta + shift, duration=dur + shift),
                         tstream(tb + shift, Channel.T2, duration=dur + shift), fmt)
        np.testing.assert_array_equal(r1.key_a, r2.key_a)
        np.testing.assert_array_equal(r1.key_b, r2.key_b)

    def test_matches_reference_small(self):
        rng = np.random.default_rng(16)
        fmt = FrameFormat(2, 3, 90)
        a = tstream(np.unique(rng.integers(0, 10**6, 800)), duration=10**6)
        b = tstream(np.unique(rng.integers(0, 10**6, 700)), Channel.T2,
                    duration=10**6)
        res = run_sifting(a, b, fmt)
        ka, kb, kept, tbytes, multi = reference_sift(a, b, fmt)
        np.testing.assert_array_equal(res.key_a, ka)
        np.testing.assert_array_equal(res.key_b, kb)
        assert res.transcript_bytes() == tbytes
        assert res.discarded_multi_event == multi

    def test_result_length_mismatch_rejected(self):
        res = run_sifting(tstream([150], duration=400),
                          tstream([160], Channel.T2, duration=400),
                          FrameFormat(1, 2, 100))
        with pytest.raises(ValueError):
            dataclasses.replace(res, key_b=res.key_b[:0])


# at FrameFormat(1, 5, 1), seed 1 and fraction 0.5, frames 0, 6-9, 11, 12, 14,
# 16 and 17 go to security; frames 1-5, 10, 13, 15, 18 and 19 to the key
FILTER_A = [3, 3, 12, 12, 24, 31, 38, 41, 52, 61, 71, 75, 101, 111]
FILTER_B = [3, 12, 24, 24, 33, 41, 57, 61, 72, 103, 113]


class TestSecurityFilter:
    """``run_sifting`` given the security masks against ``run_sifting`` on
    the key parts that ``split_security_fraction`` leaves."""

    @given(a=st.lists(st.integers(0, 200), max_size=40),
           b=st.lists(st.integers(0, 200), max_size=40),
           # the last-tag rule, part of the span, all of it
           dur_a=st.sampled_from([0, 35, 100, 201]),
           dur_b=st.sampled_from([0, 35, 100, 201]),
           fmt=st.builds(FrameFormat, st.integers(1, 3), st.integers(1, 3),
                         st.integers(1, 8)),
           fraction=st.floats(0.01, 0.99), seed=st.integers(0, 2**64 - 1))
    # ties, multi-event frames on both sides of the split, bin mismatches
    @example(a=FILTER_A, b=FILTER_B, dur_a=0, dur_b=0, fmt=FrameFormat(1, 5, 1),
             fraction=0.5, seed=1)
    @example(a=FILTER_A, b=FILTER_B, dur_a=35, dur_b=201, fmt=FrameFormat(1, 5, 1),
             fraction=0.5, seed=1)
    # nearly every frame to the key, and to security
    @example(a=FILTER_A, b=FILTER_B, dur_a=0, dur_b=0, fmt=FrameFormat(1, 5, 1),
             fraction=0.01, seed=1)
    @example(a=FILTER_A, b=FILTER_B, dur_a=0, dur_b=0, fmt=FrameFormat(1, 5, 1),
             fraction=0.99, seed=1)
    # at duration 0 the last tag is a security tag, its frame partial or not
    @example(a=[12, 24, 61], b=[12, 24, 66], dur_a=0, dur_b=0,
             fmt=FrameFormat(1, 5, 1), fraction=0.5, seed=1)
    @example(a=[12, 44, 171], b=[13, 44, 178, 179], dur_a=0, dur_b=175,
             fmt=FrameFormat(1, 5, 1), fraction=0.5, seed=1)
    # an empty side
    @example(a=[], b=[12, 24, 61], dur_a=0, dur_b=0, fmt=FrameFormat(1, 5, 1),
             fraction=0.5, seed=1)
    @example(a=[12, 24, 61], b=[], dur_a=201, dur_b=0, fmt=FrameFormat(1, 5, 1),
             fraction=0.5, seed=1)
    def test_equals_sifting_the_key_parts(self, a, b, dur_a, dur_b, fmt, fraction,
                                          seed):
        alice = neighbour_tags(a, Channel.T1, dur_a)
        bob = neighbour_tags(b, Channel.T2, dur_b)
        masks = tuple(security_mask(s.times, fraction, seed, fmt) for s in (alice, bob))
        got = run_sifting(alice, bob, fmt, security=masks)
        want = run_sifting(*(split_security_fraction(s, fraction, seed, fmt)[1]
                             for s in (alice, bob)), fmt)
        assert got.transcript_bytes() == want.transcript_bytes()
        for k in ("key_a", "key_b"):
            assert getattr(got, k).tobytes() == getattr(want, k).tobytes()
            assert getattr(got, k).dtype == getattr(want, k).dtype
        for k in ("kept_frames", "discarded_bin_mismatch", "discarded_multi_event"):
            assert getattr(got, k) == getattr(want, k), k


class TestQber:
    def test_quarter(self):
        assert qber(np.array([0, 1, 1, 0]), np.array([0, 1, 0, 0])) == 0.25

    def test_identical(self):
        assert qber(np.arange(10), np.arange(10)) == 0.0

    def test_uniform_random_symbols(self):
        rng = np.random.default_rng(18)
        a = rng.integers(0, 16, 200_000)
        b = rng.integers(0, 16, 200_000)
        expect = 15.0 / 16.0
        assert qber(a, b) == pytest.approx(expect, abs=5 * np.sqrt(expect / 16 / 2e5))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            qber(np.array([]), np.array([]))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            qber(np.array([1]), np.array([1, 2]))


class TestPackedKeysAndTranscript:
    def test_pack_unpack_roundtrip(self):
        rng = np.random.default_rng(20)
        for n_bits in (1, 3, 4, 7):
            syms = rng.integers(0, 1 << n_bits, 101)
            data = pack_symbols(syms, n_bits)
            assert len(data) == (101 * n_bits + 7) // 8
            np.testing.assert_array_equal(unpack_symbols(data, n_bits, 101), syms)

    def test_pack_msb_first(self):
        # symbol 0b1011 with N=4 packs as the high nibble of byte 0
        assert pack_symbols(np.array([0b1011]), 4) == bytes([0b10110000])

    def test_transcript_roundtrip(self):
        rng = np.random.default_rng(22)
        fmt = FrameFormat(2, 3, 90)
        a = tstream(np.unique(rng.integers(0, 10**6, 500)), duration=10**6)
        b = tstream(np.unique(rng.integers(0, 10**6, 500)), Channel.T2,
                    duration=10**6)
        res = run_sifting(a, b, fmt)
        (t1, f1, b1), (t2, f2, b2), (t3, f3, b3) = parse_sift_v1(
            res.transcript_bytes())
        assert (t1, t2, t3) == (1, 2, 1) and b1 is None and b3 is None
        np.testing.assert_array_equal(f1, res.frames_a)
        np.testing.assert_array_equal(f2, res.common_frames)
        np.testing.assert_array_equal(b2, res.bins_b)
        np.testing.assert_array_equal(f3, res.agreed_frames)
        assert res.kept_frames == f3.size
        assert res.discarded_bin_mismatch == f2.size - f3.size

    def test_widest_bins_roundtrip(self):
        # I = 256: bin 255 is the largest a sift-v1 BINS record carries
        fmt = FrameFormat(2, 256, 10)
        bins = np.array([0, 1, 128, 254, 255])
        times = (np.arange(bins.size) * fmt.frame_width_ps + fmt.slot_width_ps
                 + bins * fmt.bin_width_ps + 3)
        duration = bins.size * fmt.frame_width_ps
        res = run_sifting(tstream(times, duration=duration),
                          tstream(times, Channel.T2, duration=duration), fmt)
        assert res.kept_frames == bins.size
        assert res.key_b.tolist() == [1] * bins.size
        _, (_, _, sent), _ = parse_sift_v1(res.transcript_bytes())
        for b in (res.bins_b, sent):
            assert b.tolist() == bins.tolist()
