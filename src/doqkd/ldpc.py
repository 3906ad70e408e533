"""Low-density parity-check codes for one-way syndrome reconciliation.

Codes are built by progressive edge growth (PEG) over a mildly irregular
variable-degree profile, deterministically from a construction seed. The
decoder is a vectorized log-domain sum-product run against a target
syndrome; decoding succeeds only when the output syndrome matches exactly.
Its schedule is group-layered: the checks split, in index order, into a
few contiguous groups, and each group in turn updates its messages from
running variable totals and adds their changes back into the totals, so
later groups of the same iteration already see them. That takes about a
third fewer iterations than updating every check at once (flooding). The
decoder repeats the floating-point operations of the edge-order loop in
``tests/reference_decoder.py``, its test oracle, so both return the same
bits after the same number of iterations.

The oracle's clips that cannot bind are left out: tanh(y) rounds to +-1.0
for |y| >= 20, so clipping totals to +-``LLR_MAX`` first changes no t;
|2 arctanh(1 - 1e-12)| = 28.3 is inside the message clip; and exp() is never
negative, so a sign times min(exp, 1 - eps) is the extrinsic clip of the sign
times exp. The sign is applied after ``arctanh``, exactly, as it is odd.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ReconciliationError

LLR_MAX = 40.0  # the oracle's message clip, which cannot bind here (see above)
_TANH_EPS = 1e-12
_GROUPS = 4  # check groups per decoder iteration, updated in turn

# node-perspective variable degree profiles per design rate; deg-2 fraction
# stays safely below the check count to avoid error floors
DEGREE_PROFILES: dict[float, tuple[tuple[int, float], ...]] = {
    0.50: ((2, 0.30), (3, 0.40), (8, 0.30)),
    0.60: ((2, 0.28), (3, 0.42), (8, 0.30)),
    0.625: ((2, 0.27), (3, 0.43), (8, 0.30)),
    0.65: ((2, 0.26), (3, 0.44), (8, 0.30)),
    0.70: ((2, 0.22), (3, 0.48), (8, 0.30)),
    0.75: ((2, 0.18), (3, 0.52), (8, 0.30)),
    0.80: ((2, 0.15), (3, 0.55), (8, 0.30)),
}
SUPPORTED_RATES = tuple(sorted(DEGREE_PROFILES))


@dataclass
class LdpcCode:
    """Sparse parity-check code in edge-list form.

    Also holds the check-ordered layout the decoder runs over: edges sorted
    stably by check (``_chk_var``: the variable of each), check degrees and
    reduceat starts.
    """

    n: int
    m: int
    seed: int
    edge_var: np.ndarray   # variable index per edge
    edge_chk: np.ndarray   # check index per edge

    def __post_init__(self):
        if self.m >= self.n:
            raise ValueError("syndrome length must be < block length")
        if np.bincount(self.edge_var, minlength=self.n).min() < 2:
            raise ValueError("every column must have weight >= 2")
        self._chk_deg = np.bincount(self.edge_chk, minlength=self.m)
        if self._chk_deg.min() < 1:
            raise ValueError("zero-degree check row")
        self._chk_var = self.edge_var[np.argsort(self.edge_chk, kind="stable")]
        self._chk_starts = np.cumsum(self._chk_deg) - self._chk_deg

    @property
    def rate(self) -> float:
        return 1.0 - self.m / self.n

    @property
    def n_edges(self) -> int:
        return int(self.edge_var.size)


def _degree_sequence(n: int, profile) -> np.ndarray:
    degs = []
    assigned = 0
    for deg, frac in profile[:-1]:
        k = int(round(frac * n))
        degs.append(np.full(k, deg, np.int32))
        assigned += k
    degs.append(np.full(n - assigned, profile[-1][0], np.int32))
    seq = np.concatenate(degs)
    return np.sort(seq)  # PEG processes low-degree variables first


EXPAND_CAP = 800  # distance-5 frontier size above which the distance-7 search is skipped


def peg_construct(n: int, m: int, seed: int,
                  profile: tuple[tuple[int, float], ...]) -> LdpcCode:
    """Progressive-edge-growth construction, depth-limited for speed.

    Degree-2 variables are placed first as an accumulator-style chain over
    a seeded check permutation: the chain is a path, so no cycle consists
    purely of degree-2 variables and the small-weight codewords such cycles
    would create cannot occur. Remaining variables are placed by PEG with a
    three-level neighborhood search (cycle-10-avoiding placements while the
    graph is sparse, degrading gracefully to cycle-8/6 avoidance as it
    saturates, which matches what an unbounded search picks in the dense
    regime), preferring low check degree with seeded tie-breaks. Fully
    deterministic in (n, m, seed, profile).

    Check sets are packed little-endian bitsets of ``ceil(m / 64)`` words,
    indexed by each check's seeded tie-break rank, so the preferred check
    of a set is its lowest set bit at the lowest check degree. Row r of
    ``near`` holds the checks that share a variable with check r; a
    variable's rows are OR-ed in once all its edges are placed. Each search
    level is the previous one plus the OR of its new members' rows.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(n, m)))
    degs = _degree_sequence(n, profile)
    rank = rng.permutation(m)  # seeded tie-break among checks of equal degree
    n_deg2 = int(np.count_nonzero(degs == 2))
    if n_deg2 >= m:
        raise ValueError("degree-2 variables must be fewer than checks")
    # accumulator chain for the degree-2 variables (variables are sorted by
    # degree, so these are exactly the first n_deg2)
    chain = rank[rng.permutation(m)[:n_deg2 + 1]]

    words = -(-m // 64)
    empty = np.zeros(words, "<u8")
    near = np.zeros((m, words), "<u8")
    # by_deg[i]: the checks of degree lo + i, sizes[i] of them
    lo, deg, sizes = 0, [0] * m, [m]
    by_deg = [np.packbits(np.arange(words * 64) < m, bitorder="little").view("<u8")]
    edge_var = np.repeat(np.arange(n, dtype=np.int32), degs)
    edge_rank = np.empty(edge_var.size, np.int64)

    def rows_of(bits: np.ndarray) -> np.ndarray:
        members = np.unpackbits(bits.view(np.uint8), count=m, bitorder="little")
        return np.bitwise_or.reduce(near.take(members.view(bool).nonzero()[0], axis=0))

    def pick(taken: np.ndarray) -> int:
        """Preferred check outside the set, or -1 when it holds every check."""
        free = ~taken
        for level in by_deg:
            hit = level & free
            w = hit.nonzero()[0]
            if w.size:
                word = int(hit[w[0]])
                return int(w[0]) * 64 + (word & -word).bit_length() - 1
        return -1

    e = 0
    for v in range(n):
        # reached: the checks adjacent to v; n1: those plus the checks that
        # share a variable with one of them. rows1 (rows2) is the OR of the
        # rows of the checks in seen1 (seen2). The sets only grow while v's
        # edges are placed, so each row is OR-ed in at most once per level.
        # OR-ing all of n1's rows (n2's) gives the distance-5 (distance-7)
        # set: the rows of reached lie in n1, and those of n1 in n2.
        reached = n1 = seen1 = seen2 = rows1 = rows2 = empty
        for k in range(degs[v]):
            if v < n_deg2:
                r = int(chain[v + k])
            elif k == 0:
                r = pick(empty)
            else:
                r = -1
                rows1 = rows1 | rows_of(n1 & ~seen1)
                seen1 = n1
                # distance-5 checks (two intermediate variables)
                n2 = n1 | rows1
                frontier = int.from_bytes((n2 & ~n1).tobytes(), "little").bit_count()
                if frontier <= EXPAND_CAP:
                    # distance-7 checks, expanded only while the search
                    # frontier is small (it saturates in the dense phase)
                    rows2 = rows2 | rows_of(n2 & ~seen2)
                    seen2 = n2
                    r = pick(n2 | rows2)
                for taken in (n2, n1, reached, empty):
                    if r < 0:
                        r = pick(taken)
            edge_rank[e] = r
            e += 1
            bit = np.zeros(words, "<u8")
            bit[r >> 6] = 1 << (r & 63)
            reached = reached | bit
            n1 = n1 | near[r] | bit
            i = deg[r] - lo
            deg[r] += 1
            if i + 1 == len(by_deg):
                by_deg.append(empty.copy())
                sizes.append(0)
            by_deg[i] ^= bit
            by_deg[i + 1] |= bit
            sizes[i] -= 1
            sizes[i + 1] += 1
            if not sizes[0]:
                del by_deg[0], sizes[0]
                lo += 1
        near[edge_rank[e - degs[v]:e]] |= reached

    edge_chk = np.argsort(rank).astype(np.int32)[edge_rank]
    return LdpcCode(n, m, seed, edge_var, edge_chk)


@lru_cache(maxsize=16)
def make_code(n: int, rate: float, seed: int = 1) -> LdpcCode:
    """Build (and cache) a code of the given design rate."""
    if rate not in DEGREE_PROFILES:
        raise ReconciliationError(f"unsupported rate {rate}; pick from {SUPPORTED_RATES}")
    m = int(round(n * (1.0 - rate)))
    return peg_construct(n, m, seed, DEGREE_PROFILES[rate])


def syndrome(bits: np.ndarray, code: LdpcCode) -> np.ndarray:
    """Parity-check product over GF(2)."""
    bits = np.asarray(bits, np.uint8)
    if bits.size != code.n:
        raise ReconciliationError(f"block length {bits.size} != {code.n}")
    return np.bitwise_xor.reduceat(bits.take(code._chk_var), code._chk_starts) & 1


def decode_syndrome(bits: np.ndarray, target_syndrome: np.ndarray, code: LdpcCode,
                    crossover_prior: float, max_iters: int = 60
                    ) -> tuple[np.ndarray | None, int]:
    """Sum-product decoding of received ``bits`` toward Alice's syndrome.

    Operates on the error pattern: the decoder searches for e with
    H e = target ^ H bits under an iid Bernoulli(prior) model, and returns
    (bits ^ e, iterations) on syndrome match, or (None, iterations). An
    iteration is one pass over every check group.
    """
    if not 0.0 < crossover_prior < 0.5:
        raise ReconciliationError("crossover prior must be in (0, 0.5)")
    bits = np.asarray(bits, np.uint8)
    s_err = (np.asarray(target_syndrome, np.uint8) ^ syndrome(bits, code)).astype(np.uint8)
    if not s_err.any():
        return bits.copy(), 0

    # per-edge state in check order: lr holds each edge's latest check message,
    # tot each variable's channel LLR plus the latest messages of its checks
    cs, vars_ = code._chk_starts, code._chk_var
    l_ch = math.log((1.0 - crossover_prior) / crossover_prior)
    tot = np.full(code.n, l_ch)
    lr = np.zeros(code.n_edges)
    # contiguous check groups: the variables and messages (views of lr) of the
    # group's edges, and its checks' starts, degrees and target parities
    cut = np.arange(_GROUPS + 1) * code.m // _GROUPS
    ends = np.append(cs, code.n_edges)
    groups = [(vars_[ends[a]:ends[b]], lr[ends[a]:ends[b]], cs[a:b] - cs[a],
               code._chk_deg[a:b], s_err[a:b]) for a, b in zip(cut[:-1], cut[1:]) if a < b]
    # an edge's message is 2 arctanh of its extrinsic magnitude, times -1 when
    # exactly one of its check's target parity and its extrinsic sign is odd
    factor = np.array([2.0, -2.0])
    # per-edge passes run in place, in scratch sized for the largest group
    x, y = (np.empty(max(g[0].size for g in groups)) for _ in range(2))

    for it in range(1, max_iters + 1):
        for v, old, gs, deg, parity in groups:
            t = np.subtract(tot.take(v), old, out=x[:v.size])
            t *= 0.5
            neg = (np.tanh(t, out=t) < 0).view(np.uint8)
            log_mag = np.abs(t, out=y[:v.size])
            np.log(np.clip(log_mag, _TANH_EPS, 1.0 - _TANH_EPS, out=log_mag), out=log_mag)
            # extrinsic per edge: the check's total less the edge's own term
            ext = np.subtract(np.repeat(np.add.reduceat(log_mag, gs), deg), log_mag, out=t)
            odd = np.repeat(np.bitwise_xor.reduceat(neg, gs) ^ parity, deg) ^ neg
            new = np.arctanh(np.minimum(np.exp(ext, out=ext), 1.0 - _TANH_EPS, out=ext), out=ext)
            new *= factor.take(odd)
            tot += np.bincount(v, np.subtract(new, old, out=log_mag), minlength=code.n)
            old[...] = new

        e_hat = (tot < 0).view(np.uint8)
        # group by group: until the last iteration, the first group mostly fails
        if all(np.array_equal(np.bitwise_xor.reduceat(e_hat.take(v), gs), parity)
               for v, _, gs, _, parity in groups):
            return bits ^ e_hat, it
    return None, max_iters
