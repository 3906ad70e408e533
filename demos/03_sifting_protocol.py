"""The three-message bin-sifting round, end to end on real tag streams.

Frames hold 2**N slots of I bins each. Both parties keep frames where they
saw exactly one event, exchange frame numbers and bin indices, keep frames
whose bins agree, and read the key symbols off the slot indices — which
never touch the classical channel.
"""
import numpy as np

import doqkd as dq
from doqkd.session import split_seed
from doqkd.sifting import security_mask

cfg = dq.paper_default_config()
cfg.duration_s = 0.5
tags = dq.simulate_session(cfg)

fmt = dq.FrameFormat(n_bits=4, bins_per_slot=3, bin_width_ps=160)
print(f"format: {fmt.slots_per_frame} slots x {fmt.bins_per_slot} bins x "
      f"{fmt.bin_width_ps} ps -> frame {fmt.frame_width_ps} ps")

# both parties mark the security fraction with the same frame-keyed hash,
# and the round leaves the marked frames out
seed = split_seed(cfg)
masks = tuple(security_mask(s.times, cfg.security_fraction, seed, fmt) for s in (tags.t1, tags.t2))
res = dq.run_sifting(tags.t1, tags.t2, fmt, security=masks)
q = dq.qber(res.key_a, res.key_b)
print(f"\nkept frames:            {res.kept_frames}")
print(f"bin mismatches dropped: {res.discarded_bin_mismatch}")
print(f"multi-event frames:     {res.discarded_multi_event}")
print(f"raw rate:               {fmt.n_bits * res.kept_frames / cfg.duration_s / 1e3:.1f} kbps")
print(f"symbol QBER:            {100 * q:.2f} %")

print("\ntranscript messages (type, count):")
for sender, kind, frames in (("ALICE", "FRAMES", res.frames_a),
                             ("BOB", "BINS", res.common_frames),
                             ("ALICE", "FRAMES", res.agreed_frames)):
    print(f"  {sender:5s} -> {kind:6s} x {frames.size}")
print(f"serialized transcript: {len(res.transcript_bytes())} bytes")
print("packed key (first 16 bytes):",
      dq.pack_symbols(res.key_a, fmt.n_bits)[:16].hex())
