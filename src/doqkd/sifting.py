"""Frame/slot/bin encoding and the two-party bin-sifting protocol.

A frame holds 2**N slots of I bins each, bin width tau ps. The slot index of
a kept coincidence is the key symbol; bin indices are exchanged to reject
jitter-smeared events; slot numbers never appear on the classical channel.

``run_sifting`` runs one fixed round of three messages (FRAMES, BINS,
FRAMES) and keeps them as arrays on its ``SiftResult``;
``SiftResult.transcript_bytes`` writes them as ``sift-v1``, which nothing
in the package reads back. Given each stream's frame-keyed
``security_mask``, the round leaves the security frames out of whole streams.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .timetags import Basis, TagStream


@dataclass(frozen=True)
class FrameFormat:
    """Three-level time partition: N key bits, I bins per slot, tau ps bins."""

    n_bits: int
    bins_per_slot: int
    bin_width_ps: int

    def __post_init__(self):
        if self.n_bits < 1 or self.bins_per_slot < 1 or self.bin_width_ps < 1:
            raise ValueError("need n_bits >= 1, bins_per_slot >= 1, bin_width_ps >= 1")
        # Bob's bin numbers cross the channel as sift-v1's u8 field
        if self.bins_per_slot > 256:
            raise ConfigError(f"bins_per_slot {self.bins_per_slot} is above 256, "
                              "the most a sift-v1 bin number can tell apart")
        # the information estimate counts symbol pairs in a dense table of
        # 4**n_bits int64 cells: 2**20 of them is the histograms' 8 MiB budget
        if self.n_bits > 10:
            raise ConfigError(f"n_bits {self.n_bits} is above 10: the joint table of "
                              f"4**{self.n_bits} symbol pairs would not fit in 8 MiB")
        # frame numbers and offsets are int64 arithmetic on int64 timestamps
        if self.frame_width_ps > np.iinfo(np.int64).max:
            raise ConfigError(f"frame width of {self} does not fit in int64")

    @property
    def slots_per_frame(self) -> int:
        return 1 << self.n_bits

    @property
    def slot_width_ps(self) -> int:
        return self.bins_per_slot * self.bin_width_ps

    @property
    def frame_width_ps(self) -> int:
        return self.slots_per_frame * self.slot_width_ps


def _complete_frames(tags: TagStream, frame_width_ps: int) -> int:
    """Number of whole frames in the session; the trailing partial frame is dropped."""
    if tags.duration_ps > 0:
        return tags.duration_ps // frame_width_ps
    if len(tags) == 0:
        return 0
    return int(tags.times[-1]) // frame_width_ps + 1


def single_events(tags: TagStream, frame_width_ps: int, security: np.ndarray | None = None
                  ) -> tuple[np.ndarray, np.ndarray, int]:
    """(frames, times, multi_frame_count) of the tags alone in their frame,
    but for the trailing partial frame and the frames that the frame-keyed
    mask ``security`` marks. Single pass over the sorted stream."""
    t, w = tags.times, frame_width_ps
    # sorted: the partial-frame tail is a suffix; a Python int past int64 compares in float64
    t = t[:np.searchsorted(t.view(np.uint64), np.uint64(_complete_frames(tags, w) * w))]
    frames = t // w
    # first[k]: tag k opens a frame's run; first[size] closes the last run
    first = np.ones(frames.size + 1, bool)
    first[1:-1] = frames[1:] != frames[:-1]
    opens = first[:-1] if security is None else first[:-1] & ~security[:t.size]
    single = np.flatnonzero(opens & first[1:])
    return frames[single], t[single], int(np.count_nonzero(opens & ~first[1:]))


def common_offsets(frames_a: np.ndarray, times_a: np.ndarray,
                   frames_b: np.ndarray, times_b: np.ndarray, frame_width_ps: int
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(common frames, Alice's offsets, Bob's offsets) over the frames in
    both parties' ``single_events``; offsets are tag times within the frame."""
    ia = np.searchsorted(frames_a, frames_b)
    hit = np.zeros(frames_b.size, bool)
    valid = ia < frames_a.size
    hit[valid] = frames_a[ia[valid]] == frames_b[valid]
    ib = np.flatnonzero(hit)
    common = frames_b[ib]
    start = common * frame_width_ps
    return common, times_a[ia[ib]] - start, times_b[ib] - start


class FrameNeighbours:
    """The many-widths form of ``single_events`` and ``common_offsets``, for
    frame widths up to ``reach``. One search places each Bob tag among the
    Alice tags and keeps only the Bob tags with an Alice tag strictly within
    ``reach``: a frame holding a tag of each stream is at most that wide, so
    every Bob tag of such a frame is kept. Per kept tag it holds the uint64
    gaps (>= 2**63 if missing) to the previous and next kept Bob tag and to
    the two Alice tags on each side. A tag ``r`` ps into a frame of width
    ``w`` shares it with an earlier tag whose gap is at most ``r``, and a
    later one whose gap is below ``w - r``."""

    def __init__(self, alice: TagStream, bob: TagStream, reach: int):
        self._reach = reach
        a = np.concatenate(([2**63] * 2, alice.times.view(np.uint64), [2**64 - 1] * 2))
        t, r = bob.times.view(np.uint64), np.uint64(reach)
        j = np.searchsorted(alice.times, bob.times) + 2
        near = np.flatnonzero((t - a[j - 1] < r) | (a[j] - t < r))
        t, j = t[near], j[near]
        self._t = t
        self._gaps_a = [t - a[j - 1], t - a[j - 2], a[j] - t, a[j + 1] - t]
        self._gaps_b = np.diff(t, prepend=2**63, append=2**64 - 1)  # k's: [k], [k + 1]
        # _complete_frames reads only a stream's duration and last tag
        self._ends = [TagStream(s.times[-1:].copy(), s.channel, s.duration_ps)
                      for s in (alice, bob)]

    def common_offsets(self, frame_width_ps: int) -> tuple[np.ndarray, ...]:
        """``common_offsets`` over both streams' ``single_events`` at this width."""
        w, g = frame_width_ps, self._gaps_b
        if w > self._reach:
            raise ValueError(f"frame width {w} ps is above the {self._reach} ps reach")
        end = min(_complete_frames(s, w) for s in self._ends) * w
        # end < 2**64; searchsorted compares a Python int above int64 in float64
        t = self._t[:np.searchsorted(self._t, np.uint64(end))]
        r = t - t // w * w
        wr, (p1, p2, n1, n2) = w - r, (x[:t.size] for x in self._gaps_a)
        a1 = p1 <= r
        # alone in a frame that holds one Alice tag, whose outer neighbour is out
        k = np.flatnonzero((g[:t.size] > r) & (g[1:t.size + 1] >= wr)
                           & (a1 ^ (n1 < wr)) & ~((p2 <= r) | (n2 < wr)))
        off_a = np.where(a1[k], r[k] - p1[k], r[k] + n1[k])
        return tuple(x.view(np.int64) for x in (t[k] // w, off_a, r[k]))


def match_bins(offsets_a: np.ndarray, offsets_b: np.ndarray, fmt: FrameFormat
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(Bob's bins, bins-agree mask, Alice's slots, Bob's slots) over common
    frames' offsets; the slots are those of the frames whose bins agree."""
    slots_a, rem_a = np.divmod(offsets_a, fmt.slot_width_ps)
    slots_b, rem_b = np.divmod(offsets_b, fmt.slot_width_ps)
    bins_b = rem_b // fmt.bin_width_ps
    match = rem_a // fmt.bin_width_ps == bins_b
    return bins_b, match, slots_a[match], slots_b[match]


# ---------------------------------------------------------------------------
# seeded frame hash for the security/key split

_SM_GAMMA = 0x9E3779B97F4A7C15
_SM_M1 = 0xBF58476D1CE4E5B9
_SM_M2 = 0x94D049BB133111EB
_U64 = 0xFFFFFFFFFFFFFFFF
_SM_BLOCK = 1 << 15  # tags hashed per block


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer over uint64 (wrapping arithmetic), in place."""
    shifted = np.empty_like(x)
    x += np.uint64(_SM_GAMMA)
    for shift, mult in ((30, _SM_M1), (27, _SM_M2), (31, None)):
        x ^= np.right_shift(x, np.uint64(shift), out=shifted)
        if mult is not None:
            x *= np.uint64(mult)
    return x


def security_mask(times: np.ndarray, fraction: float, seed: int,
                  fmt: FrameFormat) -> np.ndarray:
    """Boolean mask of tags assigned to the security fraction.

    Keyed on the frame number through a seeded integer hash, so both
    parties partition consistently without extra communication, and the
    same frame's tags always land on the same side.
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError("fraction must be in (0, 1)")
    salt = _splitmix64(np.array([seed & _U64], np.uint64))[0]
    bound = np.uint64(int(fraction * 2.0**64))
    # hashed a block at a time, so each block's passes stay in cache
    mask = np.empty(times.size, bool)
    h = np.empty(min(times.size, _SM_BLOCK), np.uint64)
    for lo in range(0, times.size, _SM_BLOCK):
        t = times[lo:lo + _SM_BLOCK]
        np.floor_divide(t, fmt.frame_width_ps, out=h[:t.size].view(np.int64))
        h[:t.size] ^= salt
        np.less(_splitmix64(h[:t.size]), bound, out=mask[lo:lo + t.size])
    return mask


def split_security_fraction(tags: TagStream, fraction: float, seed: int,
                            fmt: FrameFormat) -> tuple[TagStream, TagStream]:
    """Split one stream into disjoint (security, key) parts, order-preserving;
    the tests' sifting reference and the benchmark's recorded workload read it."""
    sec = security_mask(tags.times, fraction, seed, fmt)
    return tags.select(sec), tags.select(~sec)


# ---------------------------------------------------------------------------
# sifting round

# sift-v1 message types and the BINS record: frame id and Bob's bin number
_FRAMES, _BINS = 1, 2
_BINS_RECORD = np.dtype([("frame", "<i8"), ("bin", "u1")])


@dataclass
class SiftResult:
    """Raw keys of one sifting round, with the round's three messages:
    Alice's single-event frames, the common frames with Bob's bins, and
    the kept frames."""

    key_a: np.ndarray
    key_b: np.ndarray
    frames_a: np.ndarray        # int64, message 1
    common_frames: np.ndarray   # int64, message 2
    bins_b: np.ndarray          # uint8, parallel to common_frames
    agreed_frames: np.ndarray   # int64, message 3
    discarded_multi_event: int
    fmt: FrameFormat

    def __post_init__(self):
        if not len(self.key_a) == len(self.key_b) == self.kept_frames:
            raise ValueError("key lengths disagree with kept_frames")

    @property
    def kept_frames(self) -> int:
        return int(self.agreed_frames.size)

    @property
    def discarded_bin_mismatch(self) -> int:
        return int(self.common_frames.size) - self.kept_frames

    def transcript_bytes(self) -> bytes:
        """The round as sift-v1: FRAMES, BINS, FRAMES, each a ``<BI``
        type/count header followed by its little-endian records."""
        rec = np.empty(self.common_frames.size, _BINS_RECORD)
        rec["frame"] = self.common_frames
        rec["bin"] = self.bins_b
        return b"".join([
            struct.pack("<BI", _FRAMES, self.frames_a.size),
            self.frames_a.astype("<i8").tobytes(),
            struct.pack("<BI", _BINS, rec.size), rec.tobytes(),
            struct.pack("<BI", _FRAMES, self.agreed_frames.size),
            self.agreed_frames.astype("<i8").tobytes()])


def run_sifting(alice: TagStream, bob: TagStream, fmt: FrameFormat,
                security: tuple[np.ndarray, np.ndarray] | None = None) -> SiftResult:
    """Run the three-message bin-sifting round between two time-basis streams.

    Message 1 (Alice): her single-event frame numbers. Message 2 (Bob): the
    frame intersection together with his bin numbers. Message 3 (Alice): the
    surviving frames where both bins agree. Key symbols are the slot numbers
    of surviving frames, in frame order; slots are never transmitted. The
    streams' ``security_mask``s at ``fmt``, as ``security``, leave the
    security frames out of all three messages and the multi-event count.
    """
    for s in (alice, bob):
        if s.basis is Basis.FREQ:
            raise ValueError("sifting takes time-basis streams only")

    width = fmt.frame_width_ps
    mask_a, mask_b = security or (None, None)
    fa, ta, multi_a = single_events(alice, width, mask_a)
    fb, tb, multi_b = single_events(bob, width, mask_b)
    common, off_a, off_b = common_offsets(fa, ta, fb, tb, width)
    bins_b, match, key_a, key_b = match_bins(off_a, off_b, fmt)
    return SiftResult(key_a, key_b, fa, common, bins_b.astype(np.uint8),
                      common[match], multi_a + multi_b, fmt)


def qber(key_a: np.ndarray, key_b: np.ndarray) -> float:
    """Fraction of positions where the key symbols differ."""
    key_a = np.asarray(key_a)
    key_b = np.asarray(key_b)
    if key_a.shape != key_b.shape:
        raise ValueError("keys must have equal length")
    if key_a.size == 0:
        raise ValueError("QBER of empty keys is undefined")
    return float(np.count_nonzero(key_a != key_b) / key_a.size)


def pack_symbols(symbols: np.ndarray, n_bits: int) -> bytes:
    """Pack N-bit symbols into bytes, most-significant bit first.

    Bit k of symbol s (k=0 its MSB) precedes bit k+1; symbols are laid out
    consecutively and the final byte is zero-padded in its low bits.
    """
    symbols = np.asarray(symbols, np.int64)
    if symbols.size and (symbols.min() < 0 or symbols.max() >= 1 << n_bits):
        raise ValueError("symbol out of range for n_bits")
    shifts = np.arange(n_bits - 1, -1, -1)
    bits = ((symbols[:, None] >> shifts) & 1).astype(np.uint8).ravel()
    return np.packbits(bits).tobytes()

