"""Whole-session reference for the windowed simulator.

Every canonical chunk's parts are drawn, concatenated per channel in chunk
order and sorted once, stably, so equal timestamps keep their draw order in
the truth columns. This is how the simulator joined its chunks before it
handed sessions out in time-ordered windows; the tests require the joined
windows to be these streams, truth columns included.
"""
import numpy as np

from doqkd.simulate import (CHANNELS, CHUNK_PS, _COLUMNS, SessionTags,
                            _simulate_chunk)
from doqkd.timetags import TagStream


def whole_session(config, truth: bool) -> SessionTags:
    keys = tuple(_COLUMNS)[:4 if truth else 1]
    parts = {chan: [] for chan in CHANNELS}
    for chunk in range(-(-config.duration_ps // CHUNK_PS)):
        for chan, chunk_parts in _simulate_chunk(config, chunk, truth).items():
            parts[chan] += chunk_parts
    streams = []
    for chan in CHANNELS:
        cols = {key: np.concatenate([np.empty(0, _COLUMNS[key])]
                                    + [p[key] for p in parts[chan]]) for key in keys}
        order = np.argsort(cols["times"], kind="stable")
        streams.append(TagStream(cols.pop("times")[order], chan, config.duration_ps,
                                 **{key: col[order] for key, col in cols.items()}))
    return SessionTags(*streams)
