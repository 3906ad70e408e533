import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from doqkd.errors import ConfigError
from doqkd.io import TTAG_DTYPE, read_ttag, truth_path, write_ttag
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


def test_ttag_roundtrip_truth(tmp_path):
    s = truth_stream()
    p = tmp_path / "x.ttag"
    write_ttag(p, s)
    assert truth_path(p).stat().st_size == len(s) * 24
    back = read_ttag(p, duration_ps=s.duration_ps)
    np.testing.assert_array_equal(back.pair_ids, s.pair_ids)
    np.testing.assert_array_equal(back.emit_times[back.pair_ids >= 0],
                                  s.emit_times[s.pair_ids >= 0])
    ok = back.pair_ids >= 0
    np.testing.assert_allclose(back.detunings[ok], s.detunings[ok])


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


def test_ttag_side_file_unreadable(tmp_path):
    p = tmp_path / "x.ttag"
    write_ttag(p, TagStream(np.array([1, 2]), Channel.T1, 10))
    truth_path(p).mkdir()
    with pytest.raises(ConfigError, match="cannot read"):
        read_ttag(p)


def test_ttag_side_count_mismatch(tmp_path):
    s = truth_stream(100)
    p = tmp_path / "x.ttag"
    write_ttag(p, s)
    truth_path(p).write_bytes(truth_path(p).read_bytes()[:-24])
    with pytest.raises(ConfigError):
        read_ttag(p)


def test_ttag_side_file_truncated(tmp_path):
    s = truth_stream(100)
    p = tmp_path / "x.ttag"
    write_ttag(p, s)
    truth_path(p).write_bytes(truth_path(p).read_bytes()[:-5])
    with pytest.raises(ConfigError, match="truncated side file"):
        read_ttag(p)


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


@given(files=ttag_files())
def test_ttag_bytes_parse_or_config_error(files):
    main, side = files
    with tempfile.TemporaryDirectory() as d:
        p = Path(d) / "x.ttag"
        p.write_bytes(main)
        if side is not None:
            truth_path(p).write_bytes(side)
        try:
            back = read_ttag(p)
        except ConfigError:
            return
    assert len(back) * TTAG_DTYPE.itemsize == len(main)
    assert back.has_truth() == (side is not None)


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
        back = read_ttag(p, s.duration_ps)
    assert (back.channel, back.duration_ps) == (s.channel, s.duration_ps)
    for col in ("times", "pair_ids", "detunings", "emit_times"):
        np.testing.assert_array_equal(getattr(back, col), getattr(s, col))

