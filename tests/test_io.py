import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from doqkd.errors import ConfigError
from doqkd.io import TRUTH_DTYPE, TTAG_DTYPE, read_ttag, truth_path, write_ttag
from doqkd.timetags import Channel, TagStream


def truth_stream(n=500, seed=0):
    rng = np.random.default_rng(seed)
    times = np.sort(rng.integers(0, 10**9, n))
    pair_ids = rng.integers(0, 10**6, n)
    pair_ids[::7] = -1  # dark counts carry no truth
    det = rng.normal(0, 1e11, n)
    det[pair_ids == -1] = np.nan
    emit = times - rng.integers(0, 100, n)
    emit[pair_ids == -1] = 0
    return TagStream(times, Channel.F2, 10**9, pair_ids=pair_ids,
                     detunings=det, emit_times=emit)


def test_ttag_roundtrip_plain(tmp_path):
    s = TagStream(np.array([5, 10, 10, 99]), Channel.T1, 1000)
    p = tmp_path / "x.ttag"
    write_ttag(p, s)
    assert p.stat().st_size == 4 * 10  # 10-byte records
    back = read_ttag(p, duration_ps=1000)
    assert back.channel == Channel.T1
    np.testing.assert_array_equal(back.times, s.times)
    assert not back.has_truth()


def assert_written_truth(p, s):
    """The flags and the side file that write_ttag wrote for ``s`` at ``p``
    hold its truth: flag bit 0 and a pair id where it has one, pair id
    0xFFFFFFFFFFFFFFFF, NaN detuning and emission time 0 where it has none."""
    rec = np.frombuffer(p.read_bytes(), TTAG_DTYPE)
    side = np.frombuffer(truth_path(p).read_bytes(), TRUTH_DTYPE)
    has = s.pair_ids >= 0
    np.testing.assert_array_equal(rec["flags"], has)
    np.testing.assert_array_equal(side["pair_id"].view(np.int64),
                                  np.where(has, s.pair_ids, -1))
    np.testing.assert_array_equal(side["detuning"], np.where(has, s.detunings, np.nan))
    np.testing.assert_array_equal(side["emit_time"], np.where(has, s.emit_times, 0))


def test_ttag_roundtrip_truth(tmp_path):
    s = truth_stream()
    p = tmp_path / "x.ttag"
    write_ttag(p, s)
    assert truth_path(p).stat().st_size == len(s) * 24
    assert_written_truth(p, s)
    # reading takes the timestamps only
    back = read_ttag(p, duration_ps=s.duration_ps)
    assert (back.channel, back.duration_ps) == (s.channel, s.duration_ps)
    np.testing.assert_array_equal(back.times, s.times)
    assert not back.has_truth()


def test_ttag_mixed_channels_rejected(tmp_path):
    rec = np.zeros(3, TTAG_DTYPE)
    rec["channel"] = [0, 1, 0]
    rec["timestamp"] = [1, 3, 5]
    p = tmp_path / "m.ttag"
    p.write_bytes(rec.tobytes())
    with pytest.raises(ConfigError, match="channels"):
        read_ttag(p)


def test_ttag_empty_file_has_no_channel(tmp_path):
    p = tmp_path / "e.ttag"
    p.write_bytes(b"")
    back = read_ttag(p)
    assert (len(back), back.channel, back.duration_ps) == (0, None, 0)


def test_ttag_truncated_rejected(tmp_path):
    p = tmp_path / "bad.ttag"
    p.write_bytes(b"\x00" * 15)
    with pytest.raises(ConfigError):
        read_ttag(p)


def test_ttag_negative_timestamp_rejected(tmp_path):
    rec = np.zeros(2, TTAG_DTYPE)
    rec["timestamp"] = [-5, 10]
    p = tmp_path / "neg.ttag"
    p.write_bytes(rec.tobytes())
    with pytest.raises(ConfigError):
        read_ttag(p)


def test_ttag_timestamp_at_session_end_rejected(tmp_path):
    s = TagStream(np.array([5, 10, 99]), Channel.T1, 100)
    p = tmp_path / "x.ttag"
    write_ttag(p, s)
    assert len(read_ttag(p, duration_ps=100)) == 3
    with pytest.raises(ConfigError, match="session's end"):
        read_ttag(p, duration_ps=99)


def assert_side_file_ignored(tmp_path, replace_side):
    """Whatever ``replace_side(side_path, side_bytes)`` leaves beside a
    truth-annotated file, read_ttag returns what it returns without it."""
    s = truth_stream(100)
    p = tmp_path / "x.ttag"
    write_ttag(p, s)
    side = truth_path(p).read_bytes()
    truth_path(p).unlink()
    alone = read_ttag(p)
    replace_side(truth_path(p), side)
    back = read_ttag(p)
    for stream in (alone, back):
        assert (stream.channel, stream.duration_ps) == (s.channel, int(s.times[-1]) + 1)
        np.testing.assert_array_equal(stream.times, s.times)
        assert not stream.has_truth()


def test_ttag_side_file_valid_ignored(tmp_path):
    assert_side_file_ignored(tmp_path, lambda tp, side: tp.write_bytes(side))


def test_ttag_side_file_unreadable(tmp_path):
    # a directory in the side file's place
    assert_side_file_ignored(tmp_path, lambda tp, side: tp.mkdir())


def test_ttag_side_count_mismatch(tmp_path):
    assert_side_file_ignored(tmp_path, lambda tp, side: tp.write_bytes(side[:-24]))


def test_ttag_side_file_truncated(tmp_path):
    assert_side_file_ignored(tmp_path, lambda tp, side: tp.write_bytes(side[:-5]))


def test_ttag_read_peak_memory(tmp_path):
    # the file's bytes (10 B a tag), the int64 copy (8 B) and TagStream's
    # sortedness check (1 B) come to 2.4x the timestamps; the side file
    # (24 B a tag) and columns built from it would be far more
    s = truth_stream(200_000)
    p = tmp_path / "x.ttag"
    write_ttag(p, s)
    tracemalloc.start()
    try:
        back = read_ttag(p, s.duration_ps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * back.times.nbytes


@st.composite
def ttag_files(draw):
    """(ttag-v1 bytes, side-file bytes or None): records with any flags,
    one of them perhaps with a bad channel code or a negative timestamp,
    files cut or padded, and arbitrary bytes."""
    recs = np.array(draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 255),
                                            st.integers(0, 2**63 - 1)), max_size=6)),
                    TTAG_DTYPE)
    if recs.size and draw(st.booleans()):
        col, bad = draw(st.sampled_from([("channel", 4), ("channel", 255),
                                         ("timestamp", -1), ("timestamp", -2**63)]))
        recs[col][draw(st.integers(0, recs.size - 1))] = bad
    main = recs.tobytes()
    main = draw(st.sampled_from([main, main, main[:-1], main + b"\0", None]))
    if main is None:
        main = draw(st.binary(max_size=40))
    whole = 24 * len(recs)
    size = draw(st.sampled_from([None, whole, max(whole - 1, 0), whole + 24, 5]))
    side = None if size is None else draw(st.binary(min_size=size, max_size=size))
    return main, side


def read_or_config_error(p):
    """(channel, duration, times, has truth) of read_ttag(p), or None on
    ConfigError; any other exception propagates."""
    try:
        back = read_ttag(p)
    except ConfigError:
        return None
    return back.channel, back.duration_ps, back.times.tolist(), back.has_truth()


@given(files=ttag_files())
def test_ttag_bytes_parse_or_config_error(files):
    main, side = files
    with tempfile.TemporaryDirectory() as d:
        p = Path(d) / "x.ttag"
        p.write_bytes(main)
        alone = read_or_config_error(p)
        if side is not None:
            truth_path(p).write_bytes(side)
        back = read_or_config_error(p)
    # a side file, whatever its bytes, changes nothing
    assert back == alone
    if back is not None:
        assert back[2] == sorted(np.frombuffer(main, TTAG_DTYPE)["timestamp"].tolist())
        assert not back[3]


@st.composite
def tag_streams(draw):
    """Streams ttag-v1 represents exactly: sorted times on one channel;
    truth, if any, is NaN and 0 wherever pair_id is -1."""
    n = draw(st.integers(1, 12))
    times = np.sort(np.array(draw(st.lists(st.integers(0, 2**62), min_size=n, max_size=n)),
                             np.int64))
    duration = int(times[-1]) + draw(st.integers(1, 10**6))
    truth = {}
    if draw(st.booleans()):
        pid = np.array(draw(st.lists(st.integers(-1, 2**63 - 1), min_size=n, max_size=n)))
        det = np.array(draw(st.lists(st.floats(allow_nan=False), min_size=n, max_size=n)))
        emit = np.array(draw(st.lists(st.integers(-2**63, 2**63 - 1), min_size=n,
                                      max_size=n)), np.int64)
        none = pid == -1
        det[none], emit[none] = np.nan, 0
        truth = dict(pair_ids=pid, detunings=det, emit_times=emit)
    return TagStream(times, draw(st.sampled_from(Channel)), duration, **truth)


@given(s=tag_streams())
def test_ttag_write_read_identity(s):
    with tempfile.TemporaryDirectory() as d:
        p = Path(d) / "x.ttag"
        write_ttag(p, s)
        if s.has_truth():
            assert_written_truth(p, s)
        else:
            assert not truth_path(p).exists()
        back = read_ttag(p, s.duration_ps)
    assert (back.channel, back.duration_ps) == (s.channel, s.duration_ps)
    np.testing.assert_array_equal(back.times, s.times)
    assert not back.has_truth()

