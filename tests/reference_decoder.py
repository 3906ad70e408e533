"""Edge-order reference for the flooding sum-product syndrome decoder.

The decoder as first written: per-edge state in the order of the code's
edge lists, with gathers and scatters through check-sorted and
variable-sorted permutations each iteration. ``decode_syndrome`` must
return exactly the same corrected bits and iteration count; the tests
compare the two.
"""
import math

import numpy as np

from doqkd.ldpc import _TANH_EPS, LLR_MAX


def _layouts(code):
    """(perm_by_chk, chk_starts, perm_by_var, var_starts) reduceat layouts."""
    perm_by_chk = np.argsort(code.edge_chk, kind="stable")
    chk_starts = np.searchsorted(code.edge_chk[perm_by_chk], np.arange(code.m))
    perm_by_var = np.argsort(code.edge_var, kind="stable")
    var_starts = np.searchsorted(code.edge_var[perm_by_var], np.arange(code.n))
    return perm_by_chk, chk_starts, perm_by_var, var_starts


def reference_syndrome(bits: np.ndarray, code) -> np.ndarray:
    pc, cs, _, _ = _layouts(code)
    by_chk = np.asarray(bits, np.uint8)[code.edge_var[pc]].astype(np.int64)
    return (np.add.reduceat(by_chk, cs) & 1).astype(np.uint8)


def reference_decode(bits: np.ndarray, target_syndrome: np.ndarray, code,
                     crossover_prior: float, max_iters: int = 60
                     ) -> tuple[np.ndarray | None, int]:
    """(bits ^ e, iterations) on syndrome match, or (None, iterations)."""
    bits = np.asarray(bits, np.uint8)
    s_err = (np.asarray(target_syndrome, np.uint8)
             ^ reference_syndrome(bits, code)).astype(np.uint8)
    if not s_err.any():
        return bits.copy(), 0

    pc, cs, pv, vs = _layouts(code)
    evar = code.edge_var
    sign_flip = (1.0 - 2.0 * s_err.astype(np.float64))  # +1 even target, -1 odd

    l_ch = math.log((1.0 - crossover_prior) / crossover_prior)
    lq = np.full(code.n_edges, l_ch)

    for it in range(1, max_iters + 1):
        t = np.tanh(0.5 * np.clip(lq, -LLR_MAX, LLR_MAX))
        mag = np.clip(np.abs(t), _TANH_EPS, 1.0 - _TANH_EPS)
        neg = t < 0
        log_by_chk = np.log(mag[pc])
        neg_by_chk = neg[pc].astype(np.int64)
        tot_log = np.add.reduceat(log_by_chk, cs)
        tot_neg = np.add.reduceat(neg_by_chk, cs)
        # extrinsic per edge (check-sorted layout)
        chk_of_edge = code.edge_chk[pc]
        ext_log = tot_log[chk_of_edge] - log_by_chk
        ext_sign = 1.0 - 2.0 * ((tot_neg[chk_of_edge] - neg_by_chk) & 1)
        ext = np.clip(ext_sign * np.exp(ext_log), -1.0 + _TANH_EPS, 1.0 - _TANH_EPS)
        lr_sorted = sign_flip[chk_of_edge] * 2.0 * np.arctanh(ext)
        lr = np.empty_like(lr_sorted)
        lr[pc] = np.clip(lr_sorted, -LLR_MAX, LLR_MAX)

        tot_var = l_ch + np.add.reduceat(lr[pv], vs)
        lq = tot_var[evar] - lr

        e_hat = (tot_var < 0).astype(np.uint8)
        par = (np.add.reduceat(e_hat[evar[pc]].astype(np.int64), cs) & 1).astype(np.uint8)
        if np.array_equal(par, s_err):
            return bits ^ e_hat, it
    return None, max_iters
