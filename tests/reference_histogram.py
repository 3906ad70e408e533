"""All-pairs reference for the coincidence histogram.

Every (a, b) pair is differenced, and each offset t_b - t_a in
[lo, hi) is counted in bin (offset - lo) // bin_width. This is the
definition ``coincidence_histogram`` implements with one search and a
forward walk over the windows; the tests require equal counts.
"""
import numpy as np


def reference_histogram(ta, tb, bin_width: int, lo: int, hi: int) -> np.ndarray:
    counts = np.zeros((hi - lo) // bin_width, np.int64)
    offsets = np.subtract.outer(np.asarray(tb, np.int64),
                                np.asarray(ta, np.int64)).ravel()
    for d in offsets[(offsets >= lo) & (offsets < hi)]:
        counts[(d - lo) // bin_width] += 1
    return counts
