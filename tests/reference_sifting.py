"""Deliberately slow, dictionary-based reference for the sifting round.

Written independently of the production implementation: plain Python loops,
quadratic scans, and its own sift-v1 writer built record by record with
``struct``. Used to check byte-identical keys and transcripts.
"""
import struct

import numpy as np

from doqkd.sifting import FrameFormat
from doqkd.timetags import TagStream

FRAMES, BINS = 1, 2


def _addresses(stream: TagStream, fmt: FrameFormat):
    per_frame = {}
    if stream.duration_ps > 0:
        n_frames = stream.duration_ps // fmt.frame_width_ps
    elif len(stream):
        n_frames = int(stream.times[-1]) // fmt.frame_width_ps + 1
    else:
        n_frames = 0
    for t in stream.times:
        t = int(t)
        frame = t // fmt.frame_width_ps
        if frame >= n_frames:
            continue
        rem = t - frame * fmt.frame_width_ps
        slot = rem // fmt.slot_width_ps
        b = (rem - slot * fmt.slot_width_ps) // fmt.bin_width_ps
        per_frame.setdefault(frame, []).append((slot, b))
    singles = {f: v[0] for f, v in per_frame.items() if len(v) == 1}
    multi = sum(1 for v in per_frame.values() if len(v) >= 2)
    return singles, multi


def reference_sift(alice: TagStream, bob: TagStream, fmt: FrameFormat):
    """Returns (key_a, key_b, kept_frames, transcript_bytes,
    multi_event_frames)."""
    singles_a, multi_a = _addresses(alice, fmt)
    singles_b, multi_b = _addresses(bob, fmt)

    frames_a = sorted(singles_a)
    common = sorted(f for f in frames_a if f in singles_b)
    kept = [f for f in common if singles_a[f][1] == singles_b[f][1]]

    # sift-v1: per message a u8 type and u32 count, then its records
    transcript = struct.pack("<BI", FRAMES, len(frames_a))
    for f in frames_a:
        transcript += struct.pack("<q", f)
    transcript += struct.pack("<BI", BINS, len(common))
    for f in common:
        transcript += struct.pack("<qB", f, singles_b[f][1])
    transcript += struct.pack("<BI", FRAMES, len(kept))
    for f in kept:
        transcript += struct.pack("<q", f)

    key_a = np.array([singles_a[f][0] for f in kept], np.int64)
    key_b = np.array([singles_b[f][0] for f in kept], np.int64)
    return key_a, key_b, len(kept), transcript, multi_a + multi_b
