"""Recursive convolutional scoring of dependency trees.

Every node's unit convolves the head word with each child's phrase vector and
the (clipped) relative-distance embedding through a POS-pair-specific matrix,
max-pools the hidden vectors row-wise into the node's phrase vector, and adds
one dot product per child to the tree score. The artificial root (node 0)
participates like any other head.

A k-best list is scored as a whole (`build_list_plan`, `score_list`): an arc's
hidden vector depends only on its head node and the child's subtree, so every
unique arc of the list is computed once. `forward_list` also returns those
arcs' activations, and `backward_list` backpropagates a weighted sum of some of
the list's tree scores through them (a training step's hinge). The per-tree
plans and kernels (`build_plan`, `score_plan`, `backward_tree`) do the same one
tree at a time; they remain for `score_tree` and as the tests' reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from . import kernels
from .errors import AlignmentError, StructureError
from .params import ParamSet, ROOT_FORM, ROOT_POS
from .treebank import DependencyTree

ROOT_NODE = 0


@dataclass
class TreePlan:
    """Flat index arrays describing one tree, ready for the kernels.

    Nodes are 0 (artificial root) and the 1-based token indices. Arcs are
    grouped per head node (CSR layout via arc_start) with children in sentence
    order. The *loc arrays compact the touched word rows, distance rows and
    POS-pair slots for gradient accumulation.
    """

    tree: DependencyTree
    order: np.ndarray        # post-order over nodes
    arc_start: np.ndarray    # (num_nodes + 1,) arc offsets per node
    arc_child: np.ndarray    # child node per arc
    node_word: np.ndarray    # word-embedding row per node
    arc_dist: np.ndarray     # distance-embedding row per arc
    arc_pair: np.ndarray     # POS-pair slot per arc
    wloc: np.ndarray         # node -> compact word slot
    word_rows: np.ndarray    # compact word slot -> embedding row
    dloc: np.ndarray         # arc -> compact distance slot
    dist_rows: np.ndarray
    ploc: np.ndarray         # arc -> compact pair slot
    pair_slots: np.ndarray

    @property
    def num_nodes(self) -> int:
        return len(self.order)

    @property
    def num_arcs(self) -> int:
        return len(self.arc_child)


def build_plan(params: ParamSet, tree: DependencyTree, create_pairs: bool = False) -> TreePlan:
    """Index a tree against the parameter tables.

    With create_pairs (training), unseen POS pairs get fresh parameters;
    otherwise they map to the fallback slot.
    """
    if not len(tree):
        raise ValueError("cannot score an empty sentence")
    n = len(tree)
    children: list[list[int]] = [[] for _ in range(n + 1)]
    for tok in tree.tokens:
        children[tok.head].append(tok.index)

    order: list[int] = []
    stack: list[tuple[int, int]] = [(ROOT_NODE, 0)]
    while stack:
        node, next_child = stack[-1]
        if next_child < len(children[node]):
            stack[-1] = (node, next_child + 1)
            stack.append((children[node][next_child], 0))
        else:
            order.append(node)
            stack.pop()

    forms = [ROOT_FORM] + [t.form for t in tree.tokens]
    tags = [ROOT_POS] + [t.pos for t in tree.tokens]
    node_word = [params.word_row(f) for f in forms]

    arc_start = [0]
    arc_child: list[int] = []
    arc_dist: list[int] = []
    arc_pair: list[int] = []
    for head in range(n + 1):
        for child in children[head]:
            arc_child.append(child)
            arc_dist.append(params.distance_row(child - head))
            arc_pair.append(params.pos_pairs.slot(tags[head], tags[child], create=create_pairs))
        arc_start.append(len(arc_child))

    def compact(ids):
        local: dict[int, int] = {}
        loc = [local.setdefault(i, len(local)) for i in ids]
        return np.asarray(loc, dtype=np.int64), np.asarray(list(local), dtype=np.int64)

    wloc, word_rows = compact(node_word)
    dloc, dist_rows = compact(arc_dist)
    ploc, pair_slots = compact(arc_pair)
    as_i64 = lambda xs: np.asarray(xs, dtype=np.int64)
    return TreePlan(tree, as_i64(order), as_i64(arc_start), as_i64(arc_child),
                    as_i64(node_word), as_i64(arc_dist), as_i64(arc_pair),
                    wloc, word_rows, dloc, dist_rows, ploc, pair_slots)


@dataclass
class ListPlan:
    """The trees of one sentence, reduced to their unique subtrees and arcs.

    A subtree signature is (node, child signatures): equal signatures have
    equal phrase vectors, since pooling ignores child order. Signatures 0..n
    are the nodes as leaves; the others are numbered by height, so each height
    is one contiguous range. An arc is (head node, child signature); arcs are
    numbered by their child's height and then by POS-pair slot, so each
    height, and each slot within it, is one contiguous range too.
    """

    node_word: np.ndarray    # (n + 1,) word row per node
    arc_child: np.ndarray    # child signature per arc
    arc_head: np.ndarray     # head node per arc
    arc_dist: np.ndarray     # distance row per arc
    arc_slot: np.ndarray     # POS-pair slot per arc
    # per height h >= 0: the arcs [a0, a1) whose child has height h, as
    # (g0, g1, slot) runs of one POS-pair slot; then the signatures [s0, s1) of
    # height h + 1 with their arcs, one row each, padded with len(arc_child)
    levels: list[tuple[int, int, list[tuple[int, int, int]], int, int, np.ndarray]]
    tree_arcs: np.ndarray    # (n, num_trees) arc ids, one column per tree

    @property
    def num_trees(self) -> int:
        return self.tree_arcs.shape[1]

    @property
    def num_arcs(self) -> int:
        return len(self.arc_child)

    @property
    def num_signatures(self) -> int:
        return self.levels[-1][4]


def build_list_plan(params: ParamSet, forms: Sequence[str], tags: Sequence[str],
                    heads, create_pairs: bool = False) -> ListPlan:
    """Hash-cons the trees of one sentence into unique subtrees and arcs.

    `heads` is a (k, n) matrix, one row of 1-based heads (0 = root) per tree
    over the sentence's n forms and POS tags. Lookups follow `build_plan`:
    OOV words use `<unk>`, distances are clipped, and unseen POS pairs map to
    the fallback slot or, with create_pairs, get fresh parameters, created in
    the order `build_plan` would meet them tree by tree.
    """
    heads = np.asarray(heads, dtype=np.int64)
    n = len(forms)
    if heads.ndim != 2:
        raise ValueError("heads must be a (trees, tokens) matrix")
    if not len(heads):
        raise ValueError("no trees to score")
    if len(tags) != n or heads.shape[1] != n:
        raise AlignmentError(
            f"{heads.shape[1]} heads per tree for {n} forms and {len(tags)} POS tags")
    if not n:
        raise ValueError("cannot score an empty sentence")
    if heads.min() < 0 or heads.max() > n:
        raise StructureError(f"head indices must lie in [0, {n}]")
    k, width = len(heads), n + 1

    # node u of tree t is t * width + u; `end` pads rows of `kids`
    end = k * width
    node = np.tile(np.arange(width), k)
    child = np.arange(end).reshape(k, width)[:, 1:].ravel()
    parent = (heads + width * np.arange(k)[:, None]).ravel()
    parent_of = np.full(end, end)  # a root's parent is `end`
    parent_of[child] = parent
    by_head = np.argsort(parent, kind="stable")  # build_plan's arc order, tree by tree
    nkids = np.bincount(parent, minlength=end)
    first = np.cumsum(nkids) - nkids
    kids = np.full((end, nkids.max()), end)
    kids[parent[by_head], np.arange(k * n) - first[parent[by_head]]] = child[by_head]

    # Signatures, one height at a time: a node's row is its head node and its
    # children's signatures (-1 pads), and equal rows get one id. Heights h
    # hold ids bounds[h]:bounds[h + 1]; reps[h - 1] has one node per id.
    sig = np.append(node, -1)
    bounds = [0, width]
    reps = []
    pending = nkids.copy()
    ready = np.flatnonzero(nkids == 0)
    while True:
        done = np.bincount(parent_of[ready], minlength=end + 1)[:end]
        pending -= done
        ready = np.flatnonzero((pending == 0) & (done > 0))
        if not len(ready):
            break
        rows = sig[kids[ready]]
        rows[:, 0] += node[ready] * (end + width)
        order = np.lexsort(rows.T[::-1])
        rows = rows[order]
        new = np.ones(len(order), dtype=bool)
        new[1:] = (rows[1:] != rows[:-1]).any(axis=1)
        sig[ready[order]] = bounds[-1] - 1 + np.cumsum(new)
        reps.append(ready[order[new]])
        bounds.append(bounds[-1] + int(new.sum()))
    sig_node = np.concatenate([np.arange(width)] + [node[r] for r in reps])

    tag_ids: dict[str, int] = {}
    tag_of = np.array([tag_ids.setdefault(t, len(tag_ids)) for t in [ROOT_POS, *tags]])
    names, ntags = list(tag_ids), len(tag_ids)
    codes = tag_of[node[parent[by_head]]] * ntags + tag_of[node[child[by_head]]]
    _, seen = np.unique(codes, return_index=True)
    slot_of = np.zeros(ntags * ntags, dtype=np.int64)
    for code in codes[np.sort(seen)].tolist():
        slot_of[code] = params.pos_pairs.slot(names[code // ntags], names[code % ntags],
                                              create=create_pairs)

    # unique arcs, numbered by their child's height, then by slot
    arc_key, arc_of_child = np.unique(sig[child] * width + node[parent], return_inverse=True)
    arc_child, arc_head = np.divmod(arc_key, width)
    child_node = sig_node[arc_child]
    arc_slot = slot_of[tag_of[arc_head] * ntags + tag_of[child_node]]
    height = np.searchsorted(bounds, arc_child, side="right") - 1
    order = np.lexsort((arc_slot, height))
    num_arcs = len(order)
    renumber = np.empty(num_arcs, dtype=np.int64)
    renumber[order] = np.arange(num_arcs)
    arc_child, arc_head, child_node, arc_slot, height = (
        a[order] for a in (arc_child, arc_head, child_node, arc_slot, height))
    arc_of = np.full(end + 1, num_arcs)
    arc_of[child] = renumber[arc_of_child]

    cuts = np.flatnonzero((arc_slot[1:] != arc_slot[:-1]) | (height[1:] != height[:-1])) + 1
    starts = np.append(0, cuts)
    groups = list(zip(starts.tolist(), np.append(cuts, num_arcs).tolist(),
                      arc_slot[starts].tolist()))
    arc_bounds = np.searchsorted(height, np.arange(len(reps) + 1))
    group_bounds = np.searchsorted(starts, arc_bounds)
    levels = []
    for h, r in enumerate(reps):
        levels.append((int(arc_bounds[h]), int(arc_bounds[h + 1]),
                       groups[group_bounds[h]:group_bounds[h + 1]],
                       bounds[h + 1], bounds[h + 2], arc_of[kids[r, :nkids[r].max()]]))

    clip = params.hyper.dist_clip
    dist_rows = np.array([params.distances.rows[d] for d in range(-clip, clip + 1)])
    node_word = np.array([params.word_row(f) for f in [ROOT_FORM, *forms]])
    return ListPlan(node_word, arc_child, arc_head,
                    dist_rows[np.clip(child_node - arc_head, -clip, clip) + clip],
                    arc_slot, levels, np.ascontiguousarray(arc_of[child].reshape(k, n).T))


class ListActivations(NamedTuple):
    """What `forward_list` computes per unique arc of a list plan."""

    p: np.ndarray  # (num_arcs, n) inputs [e(head); x(child); d(dist)]
    z: np.ndarray  # (num_arcs + 1, m) tanh(W p); the last row pads pooling with -inf


def forward_list(params: ParamSet, plan: ListPlan) -> tuple[np.ndarray, ListActivations]:
    """Total score of every tree of a list plan, in order, and the activations.

    Heights are walked bottom-up: the unique arcs whose child has one height
    go through tanh(W p), one matrix product per POS-pair slot, and then every
    unique subtree one level up is pooled once.
    A tree's score sums its arc scores in a fixed order, so identical trees
    get bit-identical scores.
    """
    m = params.hyper.m
    W, v = params.pos_pairs.W, params.pos_pairs.v
    words = params.words.vectors[plan.node_word]
    x = np.empty((plan.num_signatures, m))
    x[:len(words)] = words
    p = np.empty((plan.num_arcs, W.shape[2]))
    p[:, :m] = words[plan.arc_head]
    p[:, 2 * m:] = params.distances.vectors[plan.arc_dist]
    z = np.full((plan.num_arcs + 1, m), -np.inf)
    for a0, a1, groups, s0, s1, members in plan.levels:
        p[a0:a1, m:2 * m] = x[plan.arc_child[a0:a1]]
        for g0, g1, slot in groups:
            z[g0:g1] = p[g0:g1] @ W[slot].T
        np.tanh(z[a0:a1], out=z[a0:a1])
        x[s0:s1] = z[members].max(axis=1)
    arc_scores = np.einsum("am,am->a", v[plan.arc_slot], z[:-1])
    return arc_scores[plan.tree_arcs].sum(axis=0), ListActivations(p, z)


def score_list(params: ParamSet, plan: ListPlan) -> np.ndarray:
    """Total score of every tree of a list plan, in order (see `forward_list`)."""
    return forward_list(params, plan)[0]


@dataclass
class TreeForwardTrace:
    """Everything the backward pass needs, plus the total score."""

    plan: TreePlan
    x: np.ndarray
    p: np.ndarray
    a: np.ndarray
    z: np.ndarray
    pool_argmax: np.ndarray  # (num_nodes, m) global arc ids, -1 on leaf rows
    unit_scores: np.ndarray  # (num_nodes,)
    total_score: float


@dataclass
class Gradients:
    """Sparse accumulators keyed by embedding row / pair slot."""

    words: dict[int, np.ndarray] = field(default_factory=dict)
    dists: dict[int, np.ndarray] = field(default_factory=dict)
    pair_W: dict[int, np.ndarray] = field(default_factory=dict)
    pair_v: dict[int, np.ndarray] = field(default_factory=dict)

    def is_empty(self) -> bool:
        return not (self.words or self.dists or self.pair_W or self.pair_v)

    def accumulate(self, other: "Gradients", scale: float = 1.0) -> "Gradients":
        for mine, theirs in ((self.words, other.words), (self.dists, other.dists),
                             (self.pair_W, other.pair_W), (self.pair_v, other.pair_v)):
            for key, grad in theirs.items():
                if key in mine:
                    mine[key] += scale * grad
                else:
                    mine[key] = scale * grad
        return self


def score_plan(params: ParamSet, plan: TreePlan) -> TreeForwardTrace:
    x, p, a, z, amax, unit, total = kernels.tree_forward(
        plan.order, plan.arc_start, plan.arc_child, plan.node_word, plan.arc_dist,
        plan.arc_pair, params.words.vectors, params.distances.vectors,
        params.pos_pairs.W, params.pos_pairs.v)
    return TreeForwardTrace(plan, x, p, a, z, amax, unit, float(total))


def score_tree(params: ParamSet, tree: DependencyTree,
               create_pairs: bool = False) -> TreeForwardTrace:
    """Score a tree, caching per-node activations for a later backward pass."""
    return score_plan(params, build_plan(params, tree, create_pairs))


def backward_tree(params: ParamSet, trace: TreeForwardTrace, upstream: float = 1.0) -> Gradients:
    """Gradients of upstream * total_score w.r.t. every touched parameter.

    Pooled rows route gradient only to the child that won the max; the trace
    must have been produced with the current parameter values.
    """
    plan = trace.plan
    d_word, d_dist, d_W, d_v = kernels.tree_backward(
        plan.order, plan.arc_start, plan.arc_child, plan.node_word, plan.arc_dist,
        plan.arc_pair, plan.wloc, plan.dloc, plan.ploc,
        len(plan.word_rows), len(plan.dist_rows), len(plan.pair_slots),
        trace.p, trace.z, trace.pool_argmax,
        params.pos_pairs.W, params.pos_pairs.v, upstream)
    grads = Gradients()
    for local, row in enumerate(plan.word_rows):
        grads.words[int(row)] = d_word[local]
    for local, row in enumerate(plan.dist_rows):
        grads.dists[int(row)] = d_dist[local]
    for local, slot in enumerate(plan.pair_slots):
        grads.pair_W[int(slot)] = d_W[local]
        grads.pair_v[int(slot)] = d_v[local]
    return grads


def _tree_rows(plan: ListPlan, heads, trees) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row i * n + u is token u + 1 of tree trees[i]: its arc, its head node
    and its sibling group (tree and head)."""
    n = plan.tree_arcs.shape[0]
    trees = np.asarray(trees, dtype=np.int64)
    if trees.ndim != 1 or trees.min(initial=0) < 0 or trees.max(initial=0) >= plan.num_trees:
        raise ValueError(f"tree indices must lie in [0, {plan.num_trees})")
    head = np.asarray(heads, dtype=np.int64)[trees].ravel()
    group = np.repeat(np.arange(len(trees)) * (n + 1), n) + head
    return plan.tree_arcs[:, trees].T.ravel(), head, group


def _run_starts(keys: np.ndarray) -> np.ndarray:
    """Where each run of equal values in a sorted key array starts."""
    return np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))


def _first_max(z: np.ndarray, group: np.ndarray) -> np.ndarray:
    """(rows, m) mask: the first row of its group, in row order, holding
    the group's column maximum."""
    order = np.argsort(group, kind="stable")
    starts = _run_starts(group[order])
    sizes = np.diff(np.append(starts, len(order)))
    zs = z[order]
    top = np.repeat(np.maximum.reduceat(zs, starts, axis=0), sizes, axis=0)
    pos = np.arange(len(order))[:, None]
    first = np.minimum.reduceat(np.where(zs == top, pos, len(order)), starts, axis=0)
    win = np.empty(z.shape, dtype=bool)
    win[order] = np.repeat(first, sizes, axis=0) == pos
    return win


def pool_winners(plan: ListPlan, acts: ListActivations, heads, trees) -> np.ndarray:
    """(len(trees) * n, m) mask: row i * n + u is True in column j when token
    u + 1 of tree trees[i] wins column j of its head's max pooling, the first
    child in sentence order that holds the maximum (as in the per-tree
    kernels). `heads` is the (num_trees, n) head matrix the plan was built from.
    """
    arcs, _, group = _tree_rows(plan, heads, trees)
    return _first_max(acts.z[arcs], group)


def _sum_by(keys: np.ndarray, values: np.ndarray) -> dict[int, np.ndarray]:
    """Sum of the value rows per key."""
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    starts = _run_starts(keys)
    return dict(zip(keys[starts].tolist(), np.add.reduceat(values[order], starts, axis=0)))


def backward_list(params: ParamSet, plan: ListPlan, acts: ListActivations, heads,
                  trees, upstream) -> Gradients:
    """Gradient of sum_i upstream[i] * score(trees[i]) from a list's activations.

    `acts` must come from `forward_list` on the current parameters and `heads`
    is the (num_trees, n) head matrix the plan was built from. Rows are the
    (tree, token) pairs of the chosen trees, each reading its arc's p and z;
    they are walked top-down by the height of the arc's child, so a row's
    pooled gradient is a gather of its head row's input gradient, and it goes
    only to the pooling winner (`pool_winners`). Every parameter block is
    summed once, after the walk.
    """
    m = params.hyper.m
    W, v = params.pos_pairs.W, params.pos_pairs.v
    n = plan.tree_arcs.shape[0]
    upstream = np.asarray(upstream, dtype=float)
    if upstream.shape != (len(trees),):
        raise ValueError("need one upstream value per tree")
    arcs, head, group = _tree_rows(plan, heads, trees)
    z = acts.z[arcs]
    win = _first_max(z, group)

    # walk order: the arc's child height, highest first; a row's head row
    # (same tree, the head token) sits higher, and root children read the
    # zero pad row
    rows = len(arcs)
    height = np.searchsorted([level[1] for level in plan.levels], arcs, side="right")
    order = np.argsort(-height, kind="stable")
    rank = np.empty(rows + 1, dtype=np.int64)
    rank[order] = np.arange(rows)
    rank[-1] = rows
    head_row = np.where(head > 0, np.arange(rows) // n * n + head - 1, rows)
    parent = rank[head_row[order]]
    arcs, head, z, win = arcs[order], head[order], z[order], win[order]
    slot = plan.arc_slot[arcs]
    up = upstream.repeat(n)[order]
    dz_score = up[:, None] * v[slot]
    d_x = np.zeros((rows + 1, m))  # d x(child) of each row; the pad row stays 0
    d_pre = np.empty_like(z)
    starts = _run_starts(height[order]).tolist()
    for r0, r1 in zip(starts, starts[1:] + [rows]):
        dz = dz_score[r0:r1] + np.where(win[r0:r1], d_x[parent[r0:r1]], 0.0)
        d_pre[r0:r1] = dz * (1.0 - z[r0:r1] * z[r0:r1])
        d_x[r0:r1] = np.matmul(d_pre[r0:r1, None, :], W[slot[r0:r1], :, m:2 * m])[:, 0]

    # per slot: dW = da^T p, dv and the inputs' gradient d[e(head); x; d(dist)]
    by_slot = np.argsort(slot, kind="stable")
    arcs, head, slot, d_pre = arcs[by_slot], head[by_slot], slot[by_slot], d_pre[by_slot]
    up_z = up[by_slot, None] * z[by_slot]
    token = order[by_slot] % n + 1
    p = acts.p[arcs]
    d_in = np.empty_like(p)
    grads = Gradients()
    starts = _run_starts(slot).tolist()
    for g0, g1 in zip(starts, starts[1:] + [rows]):
        key = int(slot[g0])
        grads.pair_W[key] = d_pre[g0:g1].T @ p[g0:g1]
        grads.pair_v[key] = up_z[g0:g1].sum(axis=0)
        d_in[g0:g1] = d_pre[g0:g1] @ W[key]
    leaf = plan.arc_child[arcs] < len(plan.node_word)  # a leaf's x is its word vector
    grads.words = _sum_by(plan.node_word[np.concatenate([head, token[leaf]])],
                          np.concatenate([d_in[:, :m], d_in[leaf, m:2 * m]]))
    grads.dists = _sum_by(plan.arc_dist[arcs], d_in[:, 2 * m:])
    return grads
