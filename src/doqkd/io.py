"""Tag-stream file formats.

``ttag-v1``: little-endian binary, 10 bytes per record —
u8 channel (0=T1, 1=F1, 2=T2, 3=F2), u8 flags (bit 0: truth present),
i64 timestamp in ps. A file holds the records of one channel. Truth-annotated
files get a ``.truth`` side file with one 24-byte record per main record:
u64 pair id, f64 detuning (rad/s), i64 true emission time (ps). Records
without truth carry pair id 0xFFFFFFFFFFFFFFFF and NaN detuning in the side
file. The side file and the flags are written for outside tools; reading
takes the channel and the timestamps only.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .timetags import Channel, TagStream

TTAG_DTYPE = np.dtype([("channel", "u1"), ("flags", "u1"), ("timestamp", "<i8")])
TRUTH_DTYPE = np.dtype([("pair_id", "<u8"), ("detuning", "<f8"), ("emit_time", "<i8")])


def truth_path(path: str | Path) -> Path:
    p = Path(path)
    return p.with_suffix(p.suffix + ".truth")


def write_ttag(path: str | Path, stream: TagStream) -> None:
    """Write one stream as ttag-v1."""
    n = len(stream)
    rec = np.zeros(n, TTAG_DTYPE)
    if stream.channel is not None:
        rec["channel"] = int(stream.channel)
    rec["timestamp"] = stream.times
    if stream.has_truth():
        has = stream.pair_ids >= 0
        rec["flags"] = has.astype(np.uint8)
        side = np.zeros(n, TRUTH_DTYPE)
        side["pair_id"] = np.where(has, stream.pair_ids.astype(np.int64), -1).view(np.uint64)
        side["detuning"] = np.where(has, stream.detunings, np.nan)
        side["emit_time"] = np.where(has, stream.emit_times, 0)
        truth_path(path).write_bytes(side.tobytes())
    Path(path).write_bytes(rec.tobytes())


def read_ttag(path: str | Path, duration_ps: int | None = None) -> TagStream:
    """Read a ttag-v1 file into one stream of timestamps, without truth.

    Flags and any ``.truth`` side file are ignored. The result is sorted by
    timestamp; the file itself need not be. Records of more than one
    channel, negative timestamps, timestamps at or after ``duration_ps``, or
    a file that cannot be read raise ConfigError. An empty file gives a
    stream without a channel.
    """
    try:
        raw = Path(path).read_bytes()
    except OSError as e:
        raise ConfigError(f"cannot read {e.filename}: {e.strerror}") from e
    if len(raw) % TTAG_DTYPE.itemsize:
        raise ConfigError(f"{path}: truncated ttag-v1 file")
    rec = np.frombuffer(raw, TTAG_DTYPE)
    chans = rec["channel"]
    if chans.size and chans.max() > 3:
        raise ConfigError(f"{path}: channel code out of range")
    if chans.size and chans.min() != chans.max():
        raise ConfigError(f"{path}: records of several channels "
                          "(a ttag-v1 file holds one)")
    times = rec["timestamp"].astype(np.int64)
    if times.size and times.min() < 0:
        raise ConfigError(f"{path}: negative timestamp")
    # timsort: a file that write_ttag wrote is one sorted run
    times.sort(kind="stable")
    if duration_ps is None:
        duration_ps = int(times[-1]) + 1 if len(times) else 0
    elif times.size and times[-1] >= duration_ps:
        raise ConfigError(f"{path}: timestamp {times[-1]} ps is at or after the "
                          f"session's end, {duration_ps} ps")
    return TagStream(times, Channel(int(chans[0])) if chans.size else None,
                     duration_ps)


def canonical_json(obj) -> str:
    """Deterministic JSON serialization used by all report writers."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def write_json(path: str | Path, obj) -> None:
    Path(path).write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def read_json(path: str | Path) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as e:
        raise ConfigError(f"cannot read JSON {path}: {e}") from e
