"""Edge-order reference for the group-layered sum-product syndrome decoder.

A plain loop over the schedule: the checks split, in index order, into
``_GROUPS`` contiguous groups; each group in turn updates its checks one
by one from running variable totals; the changes in the group's messages
are added to the totals once the group is done; an iteration is one pass
over every group. Per-edge state stays in the order of the code's edge
lists. ``decode_syndrome`` must return exactly the same corrected bits and
iteration count; the tests compare the two.

Sums whose rounding the decoder fixes are taken the same way here: a
check's log-magnitudes by ``np.add.reduceat`` over the check's edges, and
a variable's changes within one group one at a time, in check order, from
zero.
"""
import math

import numpy as np

from doqkd.ldpc import _GROUPS, _TANH_EPS, LLR_MAX


def _edges_by_check(code) -> list[np.ndarray]:
    """Each check's edge indices, in edge-list order."""
    return [np.flatnonzero(code.edge_chk == c) for c in range(code.m)]


def _parities(bits: np.ndarray, code, edges: list[np.ndarray]) -> np.ndarray:
    bits = np.asarray(bits, np.uint8)
    return np.array([int(bits[code.edge_var[e]].sum()) & 1 for e in edges], np.uint8)


def reference_syndrome(bits: np.ndarray, code) -> np.ndarray:
    return _parities(bits, code, _edges_by_check(code))


def reference_decode(bits: np.ndarray, target_syndrome: np.ndarray, code,
                     crossover_prior: float, max_iters: int = 60
                     ) -> tuple[np.ndarray | None, int]:
    """(bits ^ e, iterations) on syndrome match, or (None, iterations)."""
    bits = np.asarray(bits, np.uint8)
    edges = _edges_by_check(code)
    s_err = np.asarray(target_syndrome, np.uint8) ^ _parities(bits, code, edges)
    if not s_err.any():
        return bits.copy(), 0

    l_ch = math.log((1.0 - crossover_prior) / crossover_prior)
    tot = np.full(code.n, l_ch)  # channel LLR plus every check's message
    lr = np.zeros(code.n_edges)  # check-to-variable message per edge

    for it in range(1, max_iters + 1):
        for g in range(_GROUPS):
            change = np.zeros(code.n)
            for c in range(g * code.m // _GROUPS, (g + 1) * code.m // _GROUPS):
                e = edges[c]
                v = code.edge_var[e]
                t = np.tanh(0.5 * np.clip(tot[v] - lr[e], -LLR_MAX, LLR_MAX))
                log_mag = np.log(np.clip(np.abs(t), _TANH_EPS, 1.0 - _TANH_EPS))
                neg = (t < 0).astype(np.int64)
                ext_log = np.add.reduceat(log_mag, [0])[0] - log_mag
                ext_sign = 1.0 - 2.0 * ((neg.sum() - neg) & 1)
                ext = np.clip(ext_sign * np.exp(ext_log), -1.0 + _TANH_EPS, 1.0 - _TANH_EPS)
                # +2 for an even target parity, -2 for an odd one
                new = np.clip((1.0 - 2.0 * s_err[c]) * 2.0 * np.arctanh(ext),
                              -LLR_MAX, LLR_MAX)
                for j, var, msg in zip(e, v, new):
                    change[var] += msg - lr[j]
                    lr[j] = msg
            tot += change

        e_hat = (tot < 0).astype(np.uint8)
        if np.array_equal(_parities(e_hat, code, edges), s_err):
            return bits ^ e_hat, it
    return None, max_iters
