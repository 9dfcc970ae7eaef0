"""Per-tree scoring kernels over the flat index arrays of an `rcnn.TreePlan`.

Training and reranking score whole k-best lists (`rcnn.forward_list`). No
command calls anything here; the tests use the kernels as oracles, and each
name remains only for `perfbench/`: `tracing.py` traces `tree_forward`,
`tree_backward` (reading each call's sizes from the argument order) and
`warmup`, `test_perfbench.py` checks the `tree_forward` binding, and
`worker.py` calls `warmup` and records `active_backend`.
"""

from __future__ import annotations

import numpy as np


def tree_forward(order, arc_start, arc_child, node_word, arc_dist, arc_pair,
                 word_vecs, dist_vecs, W, v):
    num_nodes = order.shape[0]
    num_arcs = arc_child.shape[0]
    m = word_vecs.shape[1]
    n = W.shape[2]
    cols = np.arange(m)
    x = np.zeros((num_nodes, m))
    p = np.zeros((num_arcs, n))
    a = np.zeros((num_arcs, m))
    z = np.zeros((num_arcs, m))
    amax = np.full((num_nodes, m), -1, dtype=np.int64)
    unit = np.zeros(num_nodes)
    for i in order:
        s0, s1 = arc_start[i], arc_start[i + 1]
        if s0 == s1:
            x[i] = word_vecs[node_word[i]]
            continue
        block = p[s0:s1]
        block[:, :m] = word_vecs[node_word[i]]
        block[:, m:2 * m] = x[arc_child[s0:s1]]
        block[:, 2 * m:] = dist_vecs[arc_dist[s0:s1]]
        for arc in range(s0, s1):
            a[arc] = W[arc_pair[arc]] @ p[arc]
        z[s0:s1] = np.tanh(a[s0:s1])
        for arc in range(s0, s1):
            unit[i] += np.dot(v[arc_pair[arc]], z[arc])
        loc = z[s0:s1].argmax(axis=0)
        x[i] = z[s0 + loc, cols]
        amax[i] = s0 + loc
    total = 0.0
    for i in order:
        total += unit[i]
    return x, p, a, z, amax, unit, total


def tree_backward(order, arc_start, arc_child, node_word, arc_dist, arc_pair,
                  wloc, dloc, ploc, n_wloc, n_dloc, n_ploc,
                  p, z, amax, W, v, upstream):
    num_nodes = order.shape[0]
    m = z.shape[1]
    n = p.shape[1]
    cols = np.arange(m)
    d_word = np.zeros((n_wloc, m))
    d_dist = np.zeros((n_dloc, n - 2 * m))
    d_W = np.zeros((n_ploc, m, n))
    d_v = np.zeros((n_ploc, m))
    dx = np.zeros((num_nodes, m))
    for i in order[::-1]:
        s0, s1 = arc_start[i], arc_start[i + 1]
        if s0 == s1:
            continue
        dZ = upstream * v[arc_pair[s0:s1]]
        dZ[amax[i] - s0, cols] += dx[i]
        dA = dZ * (1.0 - z[s0:s1] * z[s0:s1])
        np.add.at(d_v, ploc[s0:s1], upstream * z[s0:s1])
        for arc in range(s0, s1):
            da = dA[arc - s0]
            d_W[ploc[arc]] += np.multiply.outer(da, p[arc])
            dp = da @ W[arc_pair[arc]]
            d_word[wloc[i]] += dp[:m]
            dx[arc_child[arc]] += dp[m:2 * m]
            d_dist[dloc[arc]] += dp[2 * m:]
    leaves = arc_start[:-1] == arc_start[1:]
    np.add.at(d_word, wloc[leaves], dx[leaves])
    return d_word, d_dist, d_W, d_v


def active_backend() -> str:
    """Always "numpy". Kept only because the benchmark's worker records it."""
    return "numpy"


def warmup() -> None:
    """Does nothing; kept only because the benchmark's worker calls it."""
