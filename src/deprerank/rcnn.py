"""Recursive convolutional scoring of dependency trees.

Every node's unit convolves the head word with each child's phrase vector and
the (clipped) relative-distance embedding through a POS-pair-specific matrix,
max-pools the hidden vectors row-wise into the node's phrase vector, and adds
one dot product per child to the tree score. The artificial root (node 0)
participates like any other head.

A k-best list is scored as a whole: an arc's hidden vector depends only on
its head node and the child's subtree, so every unique arc of the list is
computed once, and a root, no arc's child, is never pooled. Lists are built
in batches (`plan_batches`), one pass over their trees. Scoring keeps a batch
whole, one forest (`build_forests`) that `forward_list` walks once and
`forest_scores` splits per list, as `score_lists` and `train()`'s dev
selection do; training splits it into the lists' own plans
(`build_list_plans`). `forward_list` also returns the arcs' activations, and
`backward_list` backpropagates a weighted sum of some of a list's tree scores
through them (a training step's hinge). The builders take `KBestList`s, whose
constructors have checked every head row; nothing here checks heads again.

A forest's matrix products are its lists' own, one per (height, list,
POS-pair slot): a row of a product can come back with other last bits when
the product has other rows (up to 5.0e-15 relative on the benchmark's
workloads), so no product mixes lists. A list's scores are therefore the same
in any batch, bit for bit, and identical trees in a list get equal scores.

The per-tree plans and kernels do the same one tree at a time. No command
calls them; the tests use them as oracles, and each remains only for
`perfbench/`: `tracing.py` traces `build_plan`, `score_plan`, `score_tree`
and `backward_tree`, `worker.py` reads their rows, and `test_perfbench.py`
scores with `score_tree` and checks its binding in `reranker` (and
`build_plan`'s in `trainer`). `TreePlan` and `TreeForwardTrace` are what
`build_plan` and `score_plan` return.

The list builders and kernels run a few numpy calls per subtree height and
per POS-pair slot, so the Python code in front of numpy's C loops costs more
than many of the loops. They call those loops directly, each with the inputs
the np.* function would pass, so the bits are the same: ndarray methods
(`a.dot(b, out=)`, `argsort`, `searchsorted`, `repeat`, `cumsum`,
`nonzero()[0]`) for `np.dot`, `np.argsort`, ..., `np.flatnonzero`; ufunc
reductions (`np.add/maximum/minimum/logical_or.reduce`) for
`sum/max/min/any`; `_full` for `np.full`; `concatenate`, slicing or integer
arithmetic for `np.append`, `np.diff`, `np.tile` and `np.clip`; and one
`argsort` for `np.unique(return_inverse=True)`. `einsum` stays: its
products are not those of a `dot`. The training step and the rerank path
(`trainer`, `reranker`, `KBestList.attachment_counts`) keep the same rule;
`tests/test_hot_paths.py` fails if one of these wrappers is entered.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, NamedTuple

import numpy as np

from . import kernels
from .params import ParamSet, ROOT_FORM, ROOT_POS
from .treebank import DependencyTree, KBestList

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
    for child, head in enumerate(tree.heads, start=1):
        children[head].append(child)

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

    forms = [ROOT_FORM] + tree.forms
    tags = [ROOT_POS] + tree.pos_tags
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
    """The trees of one sentence, reduced to their unique subtrees and arcs
    (or of a batch of sentences: a forest, see `build_forests`).

    A subtree signature is (node, child signatures): equal signatures have
    equal phrase vectors, since pooling ignores child order. Signatures 0..n
    are the nodes as leaves; the others are numbered by height, so each height
    is one contiguous range. Roots are no arc's child, so they have no
    signature. An arc is (head node, child signature); arcs are numbered by
    their child's height, then (in a forest) by sentence, then by POS-pair
    slot, child signature and head node, so each height, and each group of
    one sentence and slot within it, is one contiguous range too.
    """

    node_word: np.ndarray    # (n + 1,) word row per node
    arc_child: np.ndarray    # child signature per arc
    arc_head: np.ndarray     # head node per arc
    arc_dist: np.ndarray     # distance row per arc
    arc_slot: np.ndarray     # POS-pair slot per arc
    # per height h >= 0: the arcs [a0, a1) whose child has height h, as
    # (g0, g1, slot) runs of one sentence and POS-pair slot; then the
    # signatures [s0, s1) of height h + 1 and their members, a (width, s1 -
    # s0) array: column j holds the arcs of signature s0 + j, padded with
    # len(arc_child), and width is the most arcs any of them has. The last
    # level's arcs go into roots alone: it pools nothing, s0 == s1 and its
    # members are a (1, 0) array
    levels: list[tuple[int, int, list[tuple[int, int, int]], int, int, np.ndarray]]
    tree_arcs: np.ndarray    # (n, num_trees) arc ids, one column per tree; a
    #                          forest's shorter sentences pad with num_arcs
    list_trees: list[int]    # trees per list, in order: a forest's lists, or one

    @property
    def num_trees(self) -> int:
        return self.tree_arcs.shape[1]

    @property
    def num_arcs(self) -> int:
        return len(self.arc_child)

    @property
    def num_signatures(self) -> int:
        return self.levels[-1][4]


# The most node instances, sum of k * (n + 1) over its sentences, that one
# batched plan build holds. A batch's fixed cost per subtree height is shared
# by all its sentences; the cap keeps its arrays, and so peak memory, small.
PLAN_BUDGET = 8192


def plan_batches(lists: Iterable[KBestList]) -> list[list[KBestList]]:
    """Runs of consecutive k-best lists whose node instances, k * (n + 1) per
    list, add up to at most PLAN_BUDGET; a larger list is a batch of its own.
    All batches are made before any is built, so a list with no candidates
    raises ValueError before any plan is."""
    batches, size = [], 0
    for kb in lists:
        if not len(kb):
            raise ValueError("no trees to score")
        cost = len(kb) * (len(kb.gold) + 1)
        if not batches or size + cost > PLAN_BUDGET:
            batches.append([])
            size = 0
        batches[-1].append(kb)
        size += cost
    return batches


def build_list_plans(params: ParamSet, lists: Iterable[KBestList]) -> list[ListPlan]:
    """The training plans: the trees (`heads` rows) of each k-best list
    hash-consed into unique subtrees and arcs, one plan per list.

    Lookups follow `build_plan`: OOV words use `<unk>`, distances are
    clipped, and POS pairs are read from one table (`PosPairStore.slots`);
    unseen pairs get fresh parameters, created in the order `build_plan`
    would meet them list by list and tree by tree. The lists of a batch
    (`plan_batches`) are built as one forest and split into one plan per
    list. Lists share no node, so each plan is the one its list gets alone,
    numbering included."""
    return [plan for batch in plan_batches(lists) for plan in _build_batch(params, batch, True)]


def build_forests(params: ParamSet, lists: Iterable[KBestList]) -> list[ListPlan]:
    """The scoring plans: the forest of each batch of k-best lists, built as
    `build_list_plans` builds but not split, with unseen POS pairs read as
    the fallback slot from the same table and none created. A forest is one
    plan over all the trees of its batch, in list order, its arcs numbered by
    height across the lists. `tree_arcs` has a row per token of the batch's
    longest sentence; the rows past a shorter sentence's length hold
    `num_arcs`, which scores 0. A forest of one list is that list's plan."""
    return [_build_batch(params, batch, False)[0] for batch in plan_batches(lists)]


def _full(shape, value: int) -> np.ndarray:
    """np.full of an int64 value."""
    out = np.empty(shape, dtype=np.int64)
    out.fill(value)
    return out


def _build_batch(params: ParamSet, batch: list[KBestList], create_pairs: bool) -> list[ListPlan]:
    """With create_pairs (training), the plans of a batch's lists, in order;
    otherwise the batch's forest alone."""
    # Node instance i is node u of tree t of sentence s, in that order, and
    # node[i] is its node in the forest (the nodes of earlier sentences, + u);
    # column i of `kids` holds i's children, padded with `end`.
    nodes, children, parents = [], [], []
    end = num_nodes = 0
    for kb in batch:
        k, width = len(kb), len(kb.gold) + 1
        grid = np.arange(end, end + k * width).reshape(k, width)
        nodes.append(np.arange(k * width) % width + num_nodes)
        children.append(grid[:, 1:].ravel())
        parents.append((kb.heads + grid[:, :1]).ravel())
        end, num_nodes = end + k * width, num_nodes + width
    node, child, parent = (a[0] if len(a) == 1 else np.concatenate(a)
                           for a in (nodes, children, parents))
    parent_of = np.arange(end)  # a root is its own parent
    parent_of[child] = parent
    by_head = parent.argsort(kind="stable")  # build_plan's arc order, tree by tree
    parent_sorted = parent[by_head]
    nkids = np.bincount(parent, minlength=end)
    first = nkids.cumsum() - nkids
    kids = _full((np.maximum.reduce(nkids), end), end)
    kids[np.arange(len(child)) - first[parent_sorted], parent_sorted] = child[by_head]

    # Signatures, one height at a time: a node's column is its node and its
    # children's signatures (-1 pads), and equal columns get one id. A hashed
    # node leaves the loop; a root, no arc's child, counts itself as a child
    # and is never ready. Heights h hold ids bounds[h]:bounds[h + 1]; reps[h - 1]
    # has one node per id, in sentence order; the last height, of roots, none.
    sig = np.concatenate((node, [-1]))
    bounds, reps = [0, num_nodes], []
    pending = np.bincount(parent_of, minlength=end)
    ready = (nkids == 0).nonzero()[0]
    while True:
        pending[ready] = -1
        pending -= np.bincount(parent_of[ready], minlength=end)
        ready = (pending == 0).nonzero()[0]
        if not len(ready):
            break
        cols = sig[kids.take(ready, axis=1)]
        cols[0] += node[ready] * (end + num_nodes)
        order = np.lexsort(cols[::-1])
        cols = cols[:, order]
        new = np.concatenate(([True], np.logical_or.reduce(cols[:, 1:] != cols[:, :-1], axis=0)))
        ids = new.cumsum()
        sig[ready[order]] = ids + (bounds[-1] - 1)
        reps.append(ready[order[new]])
        bounds.append(bounds[-1] + int(ids[-1]))
    reps.append(ready)
    bounds.append(bounds[-1])

    # POS-pair slots from one table; create_pairs adds the pairs it lacks in build_plan's order
    tag_ids: dict[str, int] = {}
    tag_of = np.array([tag_ids.setdefault(t, len(tag_ids))
                       for kb in batch for t in (ROOT_POS, *kb.gold.pos_tags)])
    names, ntags = list(tag_ids), len(tag_ids)
    head, child_node = node[parent], node[child]
    code = tag_of[head] * ntags + tag_of[child_node]
    slot_of = params.pos_pairs.slots(names).ravel()
    if create_pairs:
        codes = code[by_head]
        for c in dict.fromkeys(codes[slot_of[codes] == 0].tolist()):
            slot_of[c] = params.pos_pairs.slot(names[c // ntags], names[c % ntags], create=True)

    # unique arcs, sorted once by (level, slot, child signature, head node); a
    # level holds sentence s's arcs whose child has height h, so no product
    # mixes sentences: level h * num_sents + s in a forest, s * stride + h split
    num_sents, stride = len(batch), len(reps) + 1
    widths = np.array([len(kb.gold) + 1 for kb in batch])
    split = num_sents > 1 and create_pairs
    sig_child = sig[child]
    level = np.array(bounds[1:-2]).searchsorted(sig_child, side="right")
    if num_sents > 1:
        sent_of_node = np.arange(num_sents).repeat(widths)
        level = (sent_of_node[head] * stride + level if split
                 else level * num_sents + sent_of_node[head])
    num_slots, num_sigs = len(params.pos_pairs), bounds[-1]
    assert num_sents * stride * num_slots * num_sigs * num_nodes < 1 << 63  # keys fit int64
    key = ((level * num_slots + slot_of[code]) * num_sigs + sig_child) * num_nodes + head
    order = key.argsort()
    key = key[order]
    new = np.concatenate(([True], key[1:] != key[:-1]))
    tree_arcs = np.empty(len(key), dtype=np.int64)
    tree_arcs[order] = new.cumsum() - 1
    group, arc_head = np.divmod(key[new], num_nodes)
    group, arc_child = np.divmod(group, num_sigs)
    level, arc_slot = np.divmod(group, num_slots)
    child_node = child_node[order[new]]
    num_arcs = len(arc_head)
    arc_of = _full(end + 1, num_arcs)
    arc_of[child] = tree_arcs

    cuts = (group[1:] != group[:-1]).nonzero()[0] + 1
    starts, stops = np.concatenate(([0], cuts)), np.concatenate((cuts, [num_arcs]))
    group_slots = arc_slot[starts].tolist()
    arc_bounds = level.searchsorted(np.arange(0, num_sents * stride, 1 if split else num_sents))
    group_bounds = starts.searchsorted(arc_bounds)
    clip = params.hyper.dist_clip
    dist_rows = np.array([params.distances.rows[d] for d in range(-clip, clip + 1)])
    arc_dist = dist_rows[np.minimum(np.maximum(child_node - arc_head, -clip), clip) + clip]
    node_word = np.array([params.word_row(f)
                          for kb in batch for f in (ROOT_FORM, *kb.gold.forms)])

    if not split:  # the forest: a sentence alone, or the whole batch
        groups = list(zip(starts.tolist(), stops.tolist(), group_slots))
        arc_at, group_at = arc_bounds.tolist(), group_bounds.tolist()
        levels = [(arc_at[h], arc_at[h + 1], groups[group_at[h]:group_at[h + 1]],
                   bounds[h + 1], bounds[h + 2],
                   arc_of[kids[:np.maximum.reduce(nkids[r], initial=1)].take(r, axis=1)])
                  for h, r in enumerate(reps)]
        columns = _full((np.maximum.reduce(widths) - 1, sum(map(len, batch))), num_arcs)
        col = at = 0
        for kb in batch:
            k, n = kb.heads.shape
            columns[:n, col:col + k] = tree_arcs[at:at + k * n].reshape(k, n).T
            col, at = col + k, at + k * n
        return [ListPlan(node_word, arc_child, arc_head, arc_dist, arc_slot, levels, columns,
                         [len(kb) for kb in batch])]

    # per sentence and height: the arcs of each new signature's children, one
    # column each, padded with the sentence's arc count and cut to its widest
    # column, then no members; forest ids -> the sentences' own, in order
    arc_bounds = arc_bounds.reshape(-1, stride)
    arc0, arc1 = arc_bounds[:, 0], arc_bounds[:, -1]
    members = [[] for _ in batch]
    counts = np.zeros((len(reps), num_sents), dtype=np.int64)
    for h, r in enumerate(reps[:-1]):
        sent = sent_of_node[node[r]]
        counts[h] = np.bincount(sent, minlength=num_sents)
        present = counts[h].nonzero()[0]
        firsts = (counts[h].cumsum() - counts[h])[present]
        widest = np.maximum.reduceat(nkids[r], firsts)
        cols = (np.minimum(arc_of[kids[:np.maximum.reduce(widest)].take(r, axis=1)], arc1[sent])
                - arc0[sent])
        for s, i, j, w in zip(present.tolist(), firsts.tolist(),
                              firsts[1:].tolist() + [len(r)], widest.tolist()):
            members[s].append(np.ascontiguousarray(cols[:w, i:j]))
    sig_bounds = np.concatenate((np.zeros((1, num_sents), dtype=np.int64), widths[None],
                                 counts)).cumsum(axis=0)
    forest_start = np.array(bounds[1:-1])[:, None] + counts.cumsum(axis=1) - counts
    local_node = np.arange(num_nodes) - (widths.cumsum() - widths).repeat(widths)
    local_sig = np.concatenate([
        local_node, np.arange(num_nodes, num_sigs)
        + (sig_bounds[1:-1] - forest_start).ravel().repeat(counts.ravel())])
    arc_child, arc_head = local_sig[arc_child], local_node[arc_head]
    shift = arc0[level[starts] // stride]
    groups = list(zip((starts - shift).tolist(), (stops - shift).tolist(), group_slots))
    tree_arcs = tree_arcs - arc0.repeat([kb.heads.size for kb in batch])
    arc_bounds = arc_bounds - arc0[:, None]
    group_bounds = group_bounds.reshape(-1, stride).tolist()

    plans = []
    node_at = child_at = 0
    for kb, arc_at, group_at, sig_at, rows_of, a0, a1 in zip(
            batch, arc_bounds.tolist(), group_bounds, sig_bounds.T.tolist(), members,
            arc0.tolist(), arc1.tolist()):
        k, n = kb.heads.shape
        levels = [(arc_at[h], arc_at[h + 1], groups[group_at[h]:group_at[h + 1]],
                   sig_at[h + 1], sig_at[h + 2], rows)
                  for h, rows in enumerate(rows_of + [np.empty((1, 0), dtype=np.int64)])]
        plans.append(ListPlan(
            node_word[node_at:node_at + n + 1], arc_child[a0:a1], arc_head[a0:a1],
            arc_dist[a0:a1], arc_slot[a0:a1], levels,
            np.ascontiguousarray(tree_arcs[child_at:child_at + k * n].reshape(k, n).T), [k]))
        node_at, child_at = node_at + n + 1, child_at + k * n
    return plans


class ListActivations(NamedTuple):
    """What `forward_list` computes per unique arc of a list plan."""

    p: np.ndarray  # (num_arcs, n) inputs [e(head); x(child); d(dist)]
    z: np.ndarray  # (num_arcs + 1, m) tanh(W p); the last row pads pooling with -inf


def forward_list(params: ParamSet, plan: ListPlan) -> tuple[np.ndarray, ListActivations]:
    """Total score of every tree of a list plan, in order, and the activations.

    Heights are walked bottom-up: the unique arcs whose child has one height
    go through tanh(W p), one BLAS `dot` per POS-pair slot, and then every
    unique subtree one level up is pooled once, as a running maximum over the
    (signatures, m) slabs of its members' rows. `dot` reaches the same BLAS
    call as `matmul` and max is exact, so the bits are those of a `matmul`
    per slot and a row-wise max.
    A tree's score sums its arc scores in a fixed order, so identical trees
    get bit-identical scores. `plan` may be a forest (`build_forests`); its
    lists' trees get the scores they get alone.
    """
    m = params.hyper.m
    W, v = params.pos_pairs.W, params.pos_pairs.v
    words = params.words.vectors[plan.node_word]
    x = np.empty((plan.num_signatures, m))
    x[:len(words)] = words
    p = np.empty((plan.num_arcs, W.shape[2]))
    p[:, :m] = words[plan.arc_head]
    p[:, 2 * m:] = params.distances.vectors[plan.arc_dist]
    WT = W.transpose(0, 2, 1)
    z = np.empty((plan.num_arcs + 1, m))  # every arc row is written by one group
    z[-1] = -np.inf
    for a0, a1, groups, s0, s1, members in plan.levels:
        p[a0:a1, m:2 * m] = x[plan.arc_child[a0:a1]]
        for g0, g1, slot in groups:
            p[g0:g1].dot(WT[slot], out=z[g0:g1])
        np.tanh(z[a0:a1], out=z[a0:a1])
        np.maximum.reduce(z[members], axis=0, out=x[s0:s1])
    arc_scores = np.zeros(plan.num_arcs + 1)  # a forest's shorter trees read the last 0
    np.einsum("am,am->a", v[plan.arc_slot], z[:-1], out=arc_scores[:-1])
    return np.add.reduce(arc_scores[plan.tree_arcs], axis=0), ListActivations(p, z)


def forest_scores(params: ParamSet, forest: ListPlan) -> list[np.ndarray]:
    """Total score of every tree of each list of a forest, one array per list."""
    scores = forward_list(params, forest)[0]
    return [scores[end - k:end]
            for k, end in zip(forest.list_trees, accumulate(forest.list_trees))]


def score_lists(params: ParamSet, lists: Iterable[KBestList]) -> list[np.ndarray]:
    """Total score of every tree of each list, one array per list. Each batch
    (`plan_batches`) is built as one forest and scored (`forest_scores`)
    before the next is built, so a corpus's plans are never all held at once."""
    return [scores for batch in plan_batches(lists)
            for scores in forest_scores(params, _build_batch(params, batch, False)[0])]


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


class Rows(NamedTuple):
    """The gradient of some rows of one parameter table: values[i] belongs to
    row rows[i], and no row appears twice."""

    rows: np.ndarray    # (r,) int64
    values: np.ndarray  # (r, ...) float64


_NO_ROWS = Rows(np.empty(0, dtype=np.int64), np.empty(0))


@dataclass
class Gradients:
    """Sparse gradients, one `Rows` per table: word rows, distance rows, and
    the W ((S, m, n) values) and v ((S, m) values) of S POS-pair slots."""

    words: Rows = _NO_ROWS
    dists: Rows = _NO_ROWS
    pair_W: Rows = _NO_ROWS
    pair_v: Rows = _NO_ROWS


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
    return Gradients(Rows(plan.word_rows, d_word), Rows(plan.dist_rows, d_dist),
                     Rows(plan.pair_slots, d_W), Rows(plan.pair_slots, d_v))


def _tree_rows(plan: ListPlan, trees) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row i * n + u is token u + 1 of tree trees[i]: its arc, its head node
    (the arc's) and its sibling group (tree and head). A forest of several
    lists has no such rows: a shorter sentence's rows are padding."""
    if len(plan.list_trees) > 1:
        raise ValueError("need the plan of one list, not a forest of several")
    n = plan.tree_arcs.shape[0]
    trees = np.asarray(trees, dtype=np.int64)
    if (trees.ndim != 1 or np.minimum.reduce(trees, initial=0) < 0
            or np.maximum.reduce(trees, initial=0) >= plan.num_trees):
        raise ValueError(f"tree indices must lie in [0, {plan.num_trees})")
    arcs = plan.tree_arcs[:, trees].T.ravel()
    head = plan.arc_head[arcs]
    group = (np.arange(len(trees)) * (n + 1)).repeat(n) + head
    return arcs, head, group


def _run_starts(keys: np.ndarray) -> np.ndarray:
    """Where each run of equal values in a sorted key array starts."""
    return np.concatenate(([True], keys[1:] != keys[:-1])).nonzero()[0]


def _first_max(z: np.ndarray, group: np.ndarray) -> np.ndarray:
    """(rows, m) mask: the first row of its group, in row order, holding
    the group's column maximum."""
    order = group.argsort(kind="stable")
    starts = _run_starts(group[order])
    sizes = np.concatenate((starts[1:], [len(order)])) - starts
    zs = z[order]
    top = np.maximum.reduceat(zs, starts, axis=0).repeat(sizes, axis=0)
    pos = np.arange(len(order))[:, None]
    first = np.minimum.reduceat(np.where(zs == top, pos, len(order)), starts, axis=0)
    win = np.empty(z.shape, dtype=bool)
    win[order] = first.repeat(sizes, axis=0) == pos
    return win


def pool_winners(plan: ListPlan, acts: ListActivations, trees) -> np.ndarray:
    """(len(trees) * n, m) mask: row i * n + u is True in column j when token
    u + 1 of tree trees[i] wins column j of its head's max pooling, the first
    child in sentence order that holds the maximum (as in the per-tree
    kernels). `plan` is one list's, not a forest of several."""
    arcs, _, group = _tree_rows(plan, trees)
    return _first_max(acts.z[arcs], group)


def _sum_by(keys: np.ndarray, values: np.ndarray) -> Rows:
    """Sum of the value rows per key, keys in ascending order."""
    order = keys.argsort(kind="stable")
    keys = keys[order]
    starts = _run_starts(keys)
    return Rows(keys[starts], np.add.reduceat(values[order], starts, axis=0))


def backward_list(params: ParamSet, plan: ListPlan, acts: ListActivations,
                  trees, upstream) -> Gradients:
    """Gradient of sum_i upstream[i] * score(trees[i]) from a list's activations.

    `plan` is one list's, not a forest of several, and `acts` must come from
    `forward_list` on the current parameters. Rows are the
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
    arcs, head, group = _tree_rows(plan, trees)
    z = acts.z[arcs]
    win = _first_max(z, group)

    # walk order: the arc's child height, highest first; a row's head row
    # (same tree, the head token) sits higher, and root children read the
    # zero pad row
    rows = len(arcs)
    height = np.array([level[1] for level in plan.levels]).searchsorted(arcs, side="right")
    order = (-height).argsort(kind="stable")
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
    d_pre = np.empty(z.shape)
    starts = _run_starts(height[order]).tolist()
    for r0, r1 in zip(starts, starts[1:] + [rows]):
        dz = dz_score[r0:r1] + np.where(win[r0:r1], d_x[parent[r0:r1]], 0.0)
        d_pre[r0:r1] = dz * (1.0 - z[r0:r1] * z[r0:r1])
        d_x[r0:r1] = np.matmul(d_pre[r0:r1, None, :], W[slot[r0:r1], :, m:2 * m])[:, 0]

    # per slot: dW = da^T p, dv and the inputs' gradient d[e(head); x; d(dist)]
    by_slot = slot.argsort(kind="stable")
    arcs, head, slot, d_pre = arcs[by_slot], head[by_slot], slot[by_slot], d_pre[by_slot]
    up_z = up[by_slot, None] * z[by_slot]
    token = order[by_slot] % n + 1
    p = acts.p[arcs]
    d_in = np.empty(p.shape)
    starts = _run_starts(slot)
    slots = slot[starts]
    d_W = np.empty((len(starts),) + W.shape[1:])
    d_v = np.empty((len(starts), m))
    bounds = starts.tolist() + [rows]
    for i, key in enumerate(slots.tolist()):
        g0, g1 = bounds[i], bounds[i + 1]
        d_pre[g0:g1].T.dot(p[g0:g1], out=d_W[i])
        # row by row, as `sum(axis=0)` adds them; reduceat would add in another order
        np.add.reduce(up_z[g0:g1], axis=0, out=d_v[i])
        d_pre[g0:g1].dot(W[key], out=d_in[g0:g1])
    leaf = plan.arc_child[arcs] < len(plan.node_word)  # a leaf's x is its word vector
    return Gradients(
        _sum_by(plan.node_word[np.concatenate([head, token[leaf]])],
                np.concatenate([d_in[:, :m], d_in[leaf, m:2 * m]])),
        _sum_by(plan.arc_dist[arcs], d_in[:, 2 * m:]),
        Rows(slots, d_W), Rows(slots, d_v))
