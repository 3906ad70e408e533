"""Adjacency-list reference for the depth-limited PEG construction.

The construction as first written: per-node adjacency arrays, a breadth
search that gathers neighbour lists level by level, and boolean check sets.
``peg_construct`` must return exactly these edge lists; the tests compare
the two on small codes.
"""
import numpy as np

from doqkd.ldpc import EXPAND_CAP, _degree_sequence


def reference_peg(n: int, m: int, seed: int, profile,
                  expand_cap: int = EXPAND_CAP) -> tuple[np.ndarray, np.ndarray]:
    """(edge_var, edge_chk) of the PEG code for (n, m, seed, profile)."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(n, m)))
    degs = _degree_sequence(n, profile)
    n_edges = int(degs.sum())
    tiebreak = rng.permutation(m).astype(np.int64)
    n_deg2 = int(np.count_nonzero(degs == 2))
    if n_deg2 >= m:
        raise ValueError("degree-2 variables must be fewer than checks")

    cap_v = int(degs.max())
    cap_c = max(2 * n_edges // m + 8, 8)
    var_adj = np.full((n, cap_v), -1, np.int32)
    var_cnt = np.zeros(n, np.int32)
    chk_adj = np.full((m, cap_c), -1, np.int32)
    chk_cnt = np.zeros(m, np.int32)
    chk_deg = np.zeros(m, np.int64)

    edge_var = np.empty(n_edges, np.int32)
    edge_chk = np.empty(n_edges, np.int32)
    e = 0
    all_true = np.ones(m, bool)
    var_seen = np.zeros(n, bool)

    def uniq_vars(vs):
        var_seen[vs] = True
        out = np.nonzero(var_seen)[0]
        var_seen[out] = False
        return out

    def pick(mask):
        key = np.where(mask, chk_deg * m + tiebreak, np.iinfo(np.int64).max)
        return int(np.argmin(key))

    def add_edge(v, c):
        nonlocal e, chk_adj
        var_adj[v, var_cnt[v]] = c
        var_cnt[v] += 1
        if chk_cnt[c] >= chk_adj.shape[1]:
            chk_adj = np.pad(chk_adj, ((0, 0), (0, 8)), constant_values=-1)
        chk_adj[c, chk_cnt[c]] = v
        chk_cnt[c] += 1
        chk_deg[c] += 1
        edge_var[e] = v
        edge_chk[e] = c
        e += 1

    chain = rng.permutation(m)[:n_deg2 + 1]
    for v in range(n_deg2):
        add_edge(v, int(chain[v]))
        add_edge(v, int(chain[v + 1]))

    for v in range(n_deg2, n):
        for k in range(degs[v]):
            if k == 0:
                c = pick(all_true)
            else:
                direct = var_adj[v, :var_cnt[v]]
                reached = np.zeros(m, bool)
                reached[direct] = True
                vs = chk_adj[direct, :].ravel()
                vs = vs[vs >= 0]
                n1 = reached.copy()
                cs = var_adj[uniq_vars(vs), :].ravel()
                n1[cs[cs >= 0]] = True
                candidates = None
                frontier = np.nonzero(n1 & ~reached)[0]
                if frontier.size:
                    vs2 = chk_adj[frontier, :].ravel()
                    vs2 = vs2[vs2 >= 0]
                    n2 = n1.copy()
                    cs2 = var_adj[uniq_vars(vs2), :].ravel()
                    n2[cs2[cs2 >= 0]] = True
                    frontier2 = np.nonzero(n2 & ~n1)[0]
                    if not n2.all() and 0 < frontier2.size <= expand_cap:
                        vs3 = chk_adj[frontier2, :].ravel()
                        vs3 = vs3[vs3 >= 0]
                        n3 = n2.copy()
                        cs3 = var_adj[uniq_vars(vs3), :].ravel()
                        n3[cs3[cs3 >= 0]] = True
                        candidates = ~n3 if not n3.all() else ~n2
                    elif not n2.all():
                        candidates = ~n2
                if candidates is None:
                    candidates = ~n1
                    if not candidates.any():
                        candidates = ~reached
                    if not candidates.any():
                        candidates = all_true
                c = pick(candidates)
            add_edge(v, c)

    return edge_var, edge_chk
