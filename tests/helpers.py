"""Shared test utilities: tiny trees, parameters, and reference oracles.

The oracles here are written one tree, node or line at a time; the library
does the same work batched over a k-best list.
"""

from __future__ import annotations

import io
import itertools
import json
import math
import struct
from collections import deque
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from deprerank.errors import AlignmentError, ParseError, StructureError
from deprerank.params import ROOT_FORM, ROOT_POS, UNK_FORM, Hyperparams, init_random, save
from deprerank.rcnn import (
    Gradients, ListActivations, ListPlan, Rows, _first_max, _run_starts, _sum_by, _tree_rows,
    backward_tree, build_forests, build_list_plans, build_plan, score_plan,
)
from deprerank.trainer import _SentenceItem, _pick, _subgradient
from deprerank.treebank import DependencyTree, KBestList

TAGS = ("DT", "JJ", "NN", "VB", "IN")
VOCAB = tuple(f"w{i}" for i in range(1, 9))


def make_tree(heads, forms=None, tags=None):
    n = len(heads)
    forms = list(forms) if forms else [f"w{i}" for i in range(1, n + 1)]
    tags = list(tags) if tags else [TAGS[i % len(TAGS)] for i in range(n)]
    return DependencyTree(forms, tags, heads, [None] * n)


def with_any_heads(tree, heads):
    """`tree` with its heads replaced and not checked: its forms, tags and
    CoNLL lines kept."""
    return DependencyTree(tree.forms, tree.pos_tags, heads, tree._lines)


def rooted_by_bfs(heads, allow_multiple_roots=False):
    """True iff the 1-based head vector forms a tree hanging off the root 0,
    decided by a breadth-first walk down from the root: the oracle of
    `is_rooted_tree`, which follows each token's chain up by pointer jumping."""
    n = len(heads)
    if any(h < 0 or h > n for h in heads):
        return False
    if any(h == i + 1 for i, h in enumerate(heads)):
        return False
    roots = sum(1 for h in heads if h == 0)
    if roots == 0 or (roots > 1 and not allow_multiple_roots):
        return False
    children = [[] for _ in range(n + 1)]
    for i, h in enumerate(heads):
        children[h].append(i + 1)
    seen = 0
    queue = deque([0])
    while queue:
        for child in children[queue.popleft()]:
            seen += 1
            queue.append(child)
    return seen == n


def random_heads(rng, n):
    """Uniform-ish random single-rooted head vector: attach in random order."""
    order = list(rng.permutation(n) + 1)
    heads = [0] * n
    attached = [order[0]]
    for idx in order[1:]:
        heads[idx - 1] = int(attached[rng.integers(len(attached))])
        attached.append(idx)
    return heads


def random_tree(rng, n, vocab=VOCAB, tags=TAGS):
    forms = [vocab[rng.integers(len(vocab))] for _ in range(n)]
    tg = [tags[rng.integers(len(tags))] for _ in range(n)]
    return make_tree(random_heads(rng, n), forms, tg)


def all_trees_up_to(max_len):
    """Every single-rooted tree over fixed forms and tags, 1 to max_len tokens."""
    forms = ["alpha", "beta", "gamma", "delta"]
    tags = ["DT", "NN", "VB", "JJ"]
    for n in range(1, max_len + 1):
        for heads in itertools.product(range(n + 1), repeat=n):
            if rooted_by_bfs(heads):
                yield DependencyTree(forms[:n], tags[:n], heads, [None] * n)


def kbest_of(gold, cand_heads_scores):
    return KBestList(gold, tuple(
        (gold.with_heads(h), float(s)) for h, s in cand_heads_scores))


def random_multi_root_heads(rng, n):
    """Tokens attach, in random order, to the root or to an attached token."""
    heads = [0] * n
    attached = [0]
    for idx in rng.permutation(n) + 1:
        heads[idx - 1] = int(attached[rng.integers(len(attached))])
        attached.append(int(idx))
    return heads


def tiny_params(m=3, m_d=3, vocab=VOCAB, tags=TAGS, seed=0, **kw):
    hyper = Hyperparams(m=m, m_d=m_d, **kw)
    return init_random(hyper, list(vocab), list(tags), seed)


def word_vec(params, form):
    """The word's embedding row, a view; an unknown form reads `<unk>`'s."""
    return params.words.vectors[params.word_row(form)]


def dist_vec(params, delta):
    """The clipped relative distance's embedding row, a view."""
    return params.distances.vectors[params.distance_row(delta)]


def get_pair(params, head_pos, child_pos, create=False):
    """The (W, v) views of a POS pair's slot (the fallback's if unseen,
    unless create makes the pair)."""
    pairs = params.pos_pairs
    return pairs.get(pairs.slot(head_pos, child_pos, create))


def same_params(a, b):
    """Bit-exact equality of all parameters and metadata."""
    return (a.hyper == b.hyper and a.seed == b.seed and a.pos_vocab == b.pos_vocab
            and a.words.keys == b.words.keys and a.distances.keys == b.distances.keys
            and a.pos_pairs.index == b.pos_pairs.index
            and all(np.array_equal(x, y) for x, y in (
                (a.words.vectors, b.words.vectors), (a.distances.vectors, b.distances.vectors),
                (a.pos_pairs.W, b.pos_pairs.W), (a.pos_pairs.v, b.pos_pairs.v))))


def model_parts(params):
    """A saved model split into (header dict, array payload)."""
    buf = io.BytesIO()
    save(params, buf)
    data = buf.getvalue()
    (hlen,) = struct.unpack("<Q", data[8:16])
    return json.loads(data[16:16 + hlen]), data[16 + hlen:]


def model_bytes(header, payload, hlen=None):
    """A model file with the given header (a dict, or raw bytes) and payload."""
    raw = header if isinstance(header, bytes) else json.dumps(header).encode("utf-8")
    length = len(raw) if hlen is None else hlen
    return b"DPRK" + struct.pack("<I", 1) + struct.pack("<Q", length) + raw + payload


def _edited(edit):
    def build(params):
        header, payload = model_parts(params)
        edit(header)
        return model_bytes(header, payload)
    return build


def _rename_word(old, new):
    def edit(header):
        header["words"][header["words"].index(old)] = new
    return edit


def _poisoned(table, value):
    """A saved model whose first entry of `table(params)` is `value`."""
    def build(params):
        params = params.copy()
        table(params).flat[0] = value
        return model_bytes(*model_parts(params))
    return build


# model files the loader must reject: case -> (build from params, message)
BAD_MODELS = {
    "header-beyond-file": (
        lambda params: model_bytes(*model_parts(params), hlen=2 ** 40),
        "truncated model file while reading header"),
    "header-not-utf8": (
        lambda params: model_bytes(b'{"hyper": "\xff\xfe"}', model_parts(params)[1]),
        "not UTF-8"),
    "missing-key": (_edited(lambda header: header.pop("seed")), "missing key 'seed'"),
    "invalid-hyperparameters": (
        _edited(lambda header: header["hyper"].update(m=0)), "invalid hyperparameters"),
    "duplicate-words": (_edited(_rename_word("w2", "w1")), "duplicate words"),
    "no-unk": (_edited(_rename_word(UNK_FORM, "<nothing>")), "no <unk> word"),
    "nan-word-vector": (_poisoned(lambda p: p.words.vectors, math.nan),
                        "non-finite values in word vectors"),
    "inf-distance-vector": (_poisoned(lambda p: p.distances.vectors, math.inf),
                            "non-finite values in distance vectors"),
    "nan-composition-matrix": (_poisoned(lambda p: p.pos_pairs.W, math.nan),
                               "non-finite values in composition matrices"),
    "inf-score-vector": (_poisoned(lambda p: p.pos_pairs.v, -math.inf),
                         "non-finite values in score vectors"),
}


def per_tree_pick(params, kb, kappa):
    """Loss-augmented pick scored one tree at a time: (index, hinge).

    Pairs are created gold first, then candidate by candidate, as training does.
    """
    gold = score_plan(params, build_plan(params, kb.gold, create_pairs=True)).total_score
    best_idx, best_aug = 0, -np.inf
    for i, (tree, _) in enumerate(kb.candidates):
        score = score_plan(params, build_plan(params, tree, create_pairs=True)).total_score
        aug = score + margin_delta(kb.gold, tree, kappa)
        if aug > best_aug:
            best_idx, best_aug = i, aug
    return best_idx, max(0.0, best_aug - gold)


def fd_entries(params, analytic, f, eps=1e-5):
    """Central-difference twin for every entry of an analytic gradient set.

    `f` rescoring closure must read the current parameter arrays. Returns
    (label, analytic, numeric) triples; independent of the backward pass.
    """

    def central(arr, idx):
        old = arr[idx]
        arr[idx] = old + eps
        fp = f()
        arr[idx] = old - eps
        fm = f()
        arr[idx] = old
        return (fp - fm) / (2.0 * eps)

    out = []
    words, dists, pair_W, pair_v = grad_dicts(analytic)
    for row, g in words.items():
        for j in range(g.size):
            out.append((f"word[{row},{j}]", float(g[j]),
                        central(params.words.vectors, (row, j))))
    for row, g in dists.items():
        for j in range(g.size):
            out.append((f"dist[{row},{j}]", float(g[j]),
                        central(params.distances.vectors, (row, j))))
    for slot, g in pair_W.items():
        W, _ = params.pos_pairs.get(slot)
        for j in range(g.shape[0]):
            for c in range(g.shape[1]):
                out.append((f"W[{slot},{j},{c}]", float(g[j, c]), central(W, (j, c))))
    for slot, g in pair_v.items():
        _, v = params.pos_pairs.get(slot)
        for j in range(g.size):
            out.append((f"v[{slot},{j}]", float(g[j]), central(v, (j,))))
    return out


def max_rel_error(entries, abs_floor=1e-9):
    """Worst relative disagreement; differences below abs_floor count as exact."""
    worst = 0.0
    for _, a, n in entries:
        diff = abs(a - n)
        if diff <= abs_floor:
            continue
        worst = max(worst, diff / max(abs(a), abs(n)))
    return worst


def margin_delta(gold, cand, kappa):
    """kappa times the number of wrongly attached tokens (punctuation included)."""
    if len(gold) != len(cand) or gold.forms != cand.forms:
        raise AlignmentError("margin over mismatched sentences")
    return kappa * sum(1 for g, c in zip(gold.tokens, cand.tokens) if g.head != c.head)


def heads_list(gold, heads):
    """The k-best list of the gold tree over the given head rows, base scores 0."""
    return KBestList.from_arrays(gold, np.array(heads, dtype=np.int64).reshape(-1, len(gold)),
                                 np.zeros(len(heads)))


def one_list_plan(params, kb, create_pairs=False):
    """The plan of one k-best list, built on its own: by `build_list_plans`
    with create_pairs, else by `build_forests` (a forest of one list is that
    list's plan)."""
    return (build_list_plans if create_pairs else build_forests)(params, [kb])[0]


def list_plan(params, trees, create_pairs=False):
    """`one_list_plan` over trees of one sentence (the first as the gold tree)."""
    return one_list_plan(params, heads_list(trees[0], [tree.heads for tree in trees]),
                         create_pairs)


def reference_list_plan(params, kb: KBestList, create_pairs: bool = False) -> ListPlan:
    """The plan of one k-best list, built on its own: the oracle that every
    plan `build_list_plans` returns, and every one-list forest, must equal
    field by field.

    The list's trees are its (k, n) head matrix, one row of 1-based heads
    (0 = root) per tree over the gold tree's n forms and POS tags. A root is
    no arc's child, so it gets no signature, and the last level, whose arcs
    go into roots alone, pools nothing: its members are a (1, 0) array. Lookups
    follow `build_plan`: OOV words use `<unk>`, distances are clipped, and
    unseen POS pairs map to the fallback slot or, with create_pairs, get
    fresh parameters, created in the order `build_plan` would meet them tree
    by tree.
    """
    heads, forms, tags = kb.heads, kb.gold.forms, kb.gold.pos_tags
    n = len(forms)
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
    # children's signatures (-1 pads), and equal rows get one id; roots get
    # none. Heights h hold ids bounds[h]:bounds[h + 1]; reps[h - 1] has one
    # node per id, and the last height, of roots alone, none.
    sig = np.append(node, -1)
    bounds = [0, width]
    reps = []
    pending = nkids.copy()
    ready = np.flatnonzero(nkids == 0)
    while True:
        done = np.bincount(parent_of[ready], minlength=end + 1)[:end]
        pending -= done
        ready = np.flatnonzero((pending == 0) & (done > 0) & (parent_of < end))
        if not len(ready):
            reps.append(ready)
            bounds.append(bounds[-1])
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
                       bounds[h + 1], bounds[h + 2],
                       np.ascontiguousarray(arc_of[kids[r, :nkids[r].max(initial=1)]].T)))

    clip = params.hyper.dist_clip
    dist_rows = np.array([params.distances.rows[d] for d in range(-clip, clip + 1)])
    node_word = np.array([params.word_row(f) for f in [ROOT_FORM, *forms]])
    return ListPlan(node_word, arc_child, arc_head,
                    dist_rows[np.clip(child_node - arc_head, -clip, clip) + clip],
                    arc_slot, levels, np.ascontiguousarray(arc_of[child].reshape(k, n).T), [k])


def one_sentence_plans(params, lists, create_pairs=False):
    """`reference_list_plan` of each list: `build_list_plans` with
    create_pairs, else forests of one list each, so in place of
    `build_forests` this scores dev list by list."""
    return [reference_list_plan(params, kb, create_pairs) for kb in lists]


def assert_same_plan(got: ListPlan, want: ListPlan):
    """Every field equal, arrays in dtype, shape and bytes, levels' bounds as ints."""
    for name in ("node_word", "arc_child", "arc_head", "arc_dist", "arc_slot", "tree_arcs"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
    assert got.list_trees == want.list_trees
    assert len(got.levels) == len(want.levels)
    for (*bounds, members), (*want_bounds, want_members) in zip(got.levels, want.levels):
        assert bounds == want_bounds
        assert all(type(x) is int for x in bounds[:2] + bounds[3:])
        assert (members.dtype, members.shape, members.tobytes()) == (
            want_members.dtype, want_members.shape, want_members.tobytes())


def reference_forward_list(params, plan: ListPlan):
    """`forward_list` as one `np.matmul` per (height, slot) and a row-wise max
    per new signature: the kernel's reference, which it must match in bytes."""
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
            np.matmul(p[g0:g1], W[slot].T, out=z[g0:g1])
        np.tanh(z[a0:a1], out=z[a0:a1])
        x[s0:s1] = z[members.T].max(axis=1)  # one row of arcs per signature
    arc_scores = np.zeros(plan.num_arcs + 1)
    np.einsum("am,am->a", v[plan.arc_slot], z[:-1], out=arc_scores[:-1])
    return arc_scores[plan.tree_arcs].sum(axis=0), ListActivations(p, z)


def reference_backward_list(params, plan: ListPlan, acts: ListActivations,
                            trees, upstream) -> Gradients:
    """`backward_list` with an `np.matmul` and an `np.sum` per POS-pair slot:
    the kernel's reference, which it must match in bytes."""
    m = params.hyper.m
    W, v = params.pos_pairs.W, params.pos_pairs.v
    n = plan.tree_arcs.shape[0]
    upstream = np.asarray(upstream, dtype=float)
    arcs, head, group = _tree_rows(plan, trees)
    z = acts.z[arcs]
    win = _first_max(z, group)

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
    d_x = np.zeros((rows + 1, m))
    d_pre = np.empty_like(z)
    starts = _run_starts(height[order]).tolist()
    for r0, r1 in zip(starts, starts[1:] + [rows]):
        dz = dz_score[r0:r1] + np.where(win[r0:r1], d_x[parent[r0:r1]], 0.0)
        d_pre[r0:r1] = dz * (1.0 - z[r0:r1] * z[r0:r1])
        d_x[r0:r1] = np.matmul(d_pre[r0:r1, None, :], W[slot[r0:r1], :, m:2 * m])[:, 0]

    by_slot = np.argsort(slot, kind="stable")
    arcs, head, slot, d_pre = arcs[by_slot], head[by_slot], slot[by_slot], d_pre[by_slot]
    up_z = up[by_slot, None] * z[by_slot]
    token = order[by_slot] % n + 1
    p = acts.p[arcs]
    d_in = np.empty_like(p)
    starts = _run_starts(slot)
    slots = slot[starts]
    d_W = np.empty((len(starts),) + W.shape[1:])
    d_v = np.empty((len(starts), m))
    bounds = np.append(starts, rows).tolist()
    for i, key in enumerate(slots.tolist()):
        g0, g1 = bounds[i], bounds[i + 1]
        np.matmul(d_pre[g0:g1].T, p[g0:g1], out=d_W[i])
        np.sum(up_z[g0:g1], axis=0, out=d_v[i])
        np.matmul(d_pre[g0:g1], W[key], out=d_in[g0:g1])
    leaf = plan.arc_child[arcs] < len(plan.node_word)
    return Gradients(
        _sum_by(plan.node_word[np.concatenate([head, token[leaf]])],
                np.concatenate([d_in[:, :m], d_in[leaf, m:2 * m]])),
        _sum_by(plan.arc_dist[arcs], d_in[:, 2 * m:]),
        Rows(slots, d_W), Rows(slots, d_v))


def assert_same_bytes(got, want):
    """Arrays, or `Gradients`' tables, equal in dtype, shape and bytes."""
    if isinstance(want, Gradients):
        for name in ("words", "dists", "pair_W", "pair_v"):
            for a, b in zip(getattr(got, name), getattr(want, name)):
                assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
    else:
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


def forward_loops(order, arc_start, arc_child, node_word, arc_dist, arc_pair,
                  word_vecs, dist_vecs, W, v):
    """`kernels.tree_forward` one arc and one pooling column at a time, in plain
    Python loops: the per-tree kernel's oracle. A pooling tie goes to the
    first child."""
    num_nodes = order.shape[0]
    num_arcs = arc_child.shape[0]
    m = word_vecs.shape[1]
    n = W.shape[2]
    x = np.zeros((num_nodes, m))
    p = np.zeros((num_arcs, n))
    a = np.zeros((num_arcs, m))
    z = np.zeros((num_arcs, m))
    amax = np.full((num_nodes, m), -1, dtype=np.int64)
    unit = np.zeros(num_nodes)
    for t in range(num_nodes):
        i = order[t]
        s0 = arc_start[i]
        s1 = arc_start[i + 1]
        if s0 == s1:
            x[i] = word_vecs[node_word[i]]
            continue
        wh = word_vecs[node_word[i]]
        for arc in range(s0, s1):
            p[arc, :m] = wh
            p[arc, m:2 * m] = x[arc_child[arc]]
            p[arc, 2 * m:] = dist_vecs[arc_dist[arc]]
            slot = arc_pair[arc]
            a[arc] = np.dot(W[slot], p[arc])
            z[arc] = np.tanh(a[arc])
            unit[i] += np.dot(v[slot], z[arc])
            if arc == s0:
                for j in range(m):
                    x[i, j] = z[arc, j]
                    amax[i, j] = arc
            else:
                for j in range(m):
                    if z[arc, j] > x[i, j]:
                        x[i, j] = z[arc, j]
                        amax[i, j] = arc
    total = 0.0
    for t in range(num_nodes):
        total += unit[order[t]]
    return x, p, a, z, amax, unit, total


def backward_loops(order, arc_start, arc_child, node_word, arc_dist, arc_pair,
                   wloc, dloc, ploc, n_wloc, n_dloc, n_ploc,
                   p, z, amax, W, v, upstream):
    """`kernels.tree_backward` one arc and one gradient element at a time, in
    plain Python loops: the per-tree kernel's oracle."""
    num_nodes = order.shape[0]
    m = z.shape[1]
    n = p.shape[1]
    d_word = np.zeros((n_wloc, m))
    d_dist = np.zeros((n_dloc, n - 2 * m))
    d_W = np.zeros((n_ploc, m, n))
    d_v = np.zeros((n_ploc, m))
    dx = np.zeros((num_nodes, m))
    for t in range(num_nodes - 1, -1, -1):
        i = order[t]
        s0 = arc_start[i]
        s1 = arc_start[i + 1]
        if s0 == s1:
            continue
        for arc in range(s0, s1):
            slot = arc_pair[arc]
            dz = upstream * v[slot]
            for j in range(m):
                if amax[i, j] == arc:
                    dz[j] += dx[i, j]
            da = dz * (1.0 - z[arc] * z[arc])
            loc = ploc[arc]
            for j in range(m):
                d_v[loc, j] += upstream * z[arc, j]
                daj = da[j]
                for col in range(n):
                    d_W[loc, j, col] += daj * p[arc, col]
            dp = np.dot(da, W[slot])
            d_word[wloc[i]] += dp[:m]
            dx[arc_child[arc]] += dp[m:2 * m]
            d_dist[dloc[arc]] += dp[2 * m:]
    for i in range(num_nodes):
        if arc_start[i] == arc_start[i + 1]:
            d_word[wloc[i]] += dx[i]
    return d_word, d_dist, d_W, d_v


def sentence_item(params, kb, kappa):
    """The training item of one list."""
    return _SentenceItem.build_all(params, [kb], kappa)[0]


def loss_augmented_pick(params, kb, kappa):
    """Candidate maximizing score + margin, and the resulting hinge value."""
    return _pick(params, sentence_item(params, kb, kappa))[:2]


def sentence_subgradient(params, kb, kappa):
    """Subgradient of the sentence hinge; empty when the hinge is inactive."""
    return _subgradient(params, sentence_item(params, kb, kappa))


def per_tree_subgradient(params, kb, kappa):
    """The sentence hinge's subgradient from per-tree plans and kernels: the
    list pick, then `backward_tree` on the picked tree (+1) and on gold (-1).
    Empty when the hinge is inactive."""
    idx, hinge, _ = _pick(params, sentence_item(params, kb, kappa))
    if hinge <= 0.0:
        return Gradients(), hinge
    picked = score_plan(params, build_plan(params, kb.candidates[idx][0]))
    gold = score_plan(params, build_plan(params, kb.gold))
    return accumulate(backward_tree(params, picked, upstream=1.0),
                      backward_tree(params, gold, upstream=-1.0)), hinge


def grad_dicts(grads):
    """The four gradient tables as {row or slot: values} dicts; checks that
    each table names a row once and holds one value block per row."""
    tables = []
    for rows, values in (grads.words, grads.dists, grads.pair_W, grads.pair_v):
        assert len(set(rows.tolist())) == len(rows) == len(values)
        tables.append(dict(zip(rows.tolist(), values)))
    return tuple(tables)


def accumulate(grads, other):
    """The sum of two gradients, table by table and row by row; rows ascending."""
    tables = []
    for mine, theirs in zip(grad_dicts(grads), grad_dicts(other)):
        total = dict(mine)
        for key, grad in theirs.items():
            total[key] = total[key] + grad if key in total else grad
        keys = sorted(total)
        tables.append(Rows(np.array(keys, dtype=np.int64),
                           np.array([total[key] for key in keys])))
    return Gradients(*tables)


def assert_same_gradients(got, want, rel=1e-12):
    """Same touched keys in every block, values within rel * max(1, |want|)."""
    for mine, theirs in zip(grad_dicts(got), grad_dicts(want)):
        assert set(mine) == set(theirs)
        for key, grad in theirs.items():
            assert np.all(np.abs(mine[key] - grad) <= rel * np.maximum(1.0, np.abs(grad))), key


def max_abs(grads):
    """Largest absolute entry over every gradient block (0 when empty)."""
    return max((float(np.abs(values).max()) for _, values in
                (grads.words, grads.dists, grads.pair_W, grads.pair_v) if values.size),
               default=0.0)


def apply_update(theta, acc, grad, lam, rho):
    """The AdaGrad update of one row or slot, in place."""
    eff = grad + lam * theta
    acc += eff * eff
    denom = np.sqrt(acc)
    update = np.divide(eff, denom, out=np.zeros_like(eff), where=denom > 0.0)
    theta -= rho * update


def reference_adagrad_step(params, state, grads, lam):
    """`trainer.adagrad_step`, one `apply_update` per touched row and slot."""
    words, dists, pair_W, pair_v = grad_dicts(grads)
    rho = params.hyper.rho
    for row, g in words.items():
        apply_update(params.words.vectors[row], state.acc_words[row], g, lam, rho)
    for row, g in dists.items():
        apply_update(params.distances.vectors[row], state.acc_dists[row], g, lam, rho)
    for slot, g in pair_W.items():
        apply_update(params.pos_pairs.get(slot)[0], state.acc_W[slot], g, lam, rho)
    for slot, g in pair_v.items():
        apply_update(params.pos_pairs.get(slot)[1], state.acc_v[slot], g, lam, rho)


# ---------------------------------------------------------------------------
# a reference scorer, one unit at a time

@dataclass
class NodeTrace:
    """Cached activations of one unit; leaves carry only their phrase vector."""

    node: int
    children: tuple[int, ...]
    p: np.ndarray            # (L, n) concatenated inputs
    a: np.ndarray            # (L, m) pre-activations W p
    z: np.ndarray            # (L, m) tanh(a)
    pool_argmax: np.ndarray  # (m,) local child attaining each row max
    x: np.ndarray            # (m,) pooled phrase vector (word embedding for leaves)
    unit_score: float

    @property
    def is_leaf(self) -> bool:
        return not self.children


def node_trace(trace, node: int) -> NodeTrace:
    """One unit's slice of a per-tree forward trace."""
    s0, s1 = trace.plan.arc_start[node], trace.plan.arc_start[node + 1]
    kids = tuple(int(c) for c in trace.plan.arc_child[s0:s1])
    if s0 == s1:
        empty = np.empty((0, 0))
        return NodeTrace(node, kids, empty, empty, empty,
                         np.empty(0, dtype=np.int64), trace.x[node], 0.0)
    return NodeTrace(node, kids, trace.p[s0:s1], trace.a[s0:s1], trace.z[s0:s1],
                     trace.pool_argmax[node] - s0, trace.x[node],
                     float(trace.unit_scores[node]))


def trace_nodes(trace) -> list[NodeTrace]:
    """Node traces in post-order."""
    return [node_trace(trace, int(i)) for i in trace.plan.order]


def compose_pair(params, head_word_vec, child_phrase_vec, delta, pair):
    """One head-child convolution: concatenated input p and hidden vector tanh(W p)."""
    hyper = params.hyper
    W, _ = pair
    if head_word_vec.shape != (hyper.m,) or child_phrase_vec.shape != (hyper.m,):
        raise ValueError("head/child vectors do not match the word embedding size")
    if W.shape != (hyper.m, hyper.n):
        raise ValueError(f"composition matrix shape {W.shape} != ({hyper.m}, {hyper.n})")
    p = np.concatenate([head_word_vec, child_phrase_vec, dist_vec(params, delta)])
    return p, np.tanh(W @ p)


def forward_unit(params, tree, node: int, child_phrase_vecs: Mapping[int, np.ndarray],
                 order: Sequence[int] | None = None) -> NodeTrace:
    """Run one unit. `node` is a 1-based token index or 0 for the artificial root.

    `order` overrides the child enumeration order (pooling and the score are
    order-invariant; only pool_argmax depends on it).
    """
    kids = tree.children(node)
    if order is not None:
        if sorted(order) != sorted(kids):
            raise ValueError(f"order {order!r} is not a permutation of children {kids!r}")
        kids = list(order)
    if node == 0:
        head_form, head_pos = ROOT_FORM, ROOT_POS
    else:
        tok = tree.tokens[node - 1]
        head_form, head_pos = tok.form, tok.pos
    head_vec = word_vec(params, head_form)
    if not kids:
        return NodeTrace(node, (), np.empty((0, params.hyper.n)),
                         np.empty((0, params.hyper.m)), np.empty((0, params.hyper.m)),
                         np.empty(0, dtype=np.int64), head_vec, 0.0)
    hyper = params.hyper
    p = np.zeros((len(kids), hyper.n))
    a = np.zeros((len(kids), hyper.m))
    z = np.zeros((len(kids), hyper.m))
    score = 0.0
    for j, child in enumerate(kids):
        try:
            child_vec = child_phrase_vecs[child]
        except KeyError:
            raise ValueError(f"missing phrase vector for child {child}") from None
        pair = get_pair(params, head_pos, tree.tokens[child - 1].pos)
        p[j], z[j] = compose_pair(params, head_vec, child_vec, child - node, pair)
        a[j] = pair[0] @ p[j]
        score += float(np.dot(pair[1], z[j]))
    pool_argmax = z.argmax(axis=0)
    x = z[pool_argmax, np.arange(hyper.m)]
    return NodeTrace(node, tuple(kids), p, a, z, pool_argmax, x, score)


# ---------------------------------------------------------------------------
# a reference k-best reader: one tree checked by `rooted_by_bfs` per candidate

def tree_problem(forms, heads, allow_multiple_roots=False, label="sentence"):
    """The message of the `StructureError` that a tree of these forms and
    heads raises when it is built by `with_heads` and validated, or None."""
    for index, head in enumerate(heads, start=1):
        if head < 0:
            return f"head must be >= 0, got {head}"
        if head == index:
            return f"token {index} ({forms[index - 1]!r}) is its own head"
    if not rooted_by_bfs(heads, allow_multiple_roots):
        return f"{label}: head indices do not form a rooted tree: {list(heads)}"
    return None


def text_lines(text):
    r"""The lines of a string as a text file read with universal newlines
    gives them: each ends at \n, \r\n or \r, read as \n."""
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    return [line + "\n" for line in lines[:-1]] + ([lines[-1]] if lines[-1] else [])


def reference_parse_conll(source, allow_multiple_roots=False):
    """`parse_conll` one line and one tree at a time: each tree is checked
    as soon as its blank line (or the end of the input) is read."""
    lines = text_lines(source) if isinstance(source, str) else source
    trees, tokens = [], []  # tokens: (form, tag, head, line) of the tree being read

    def finish():
        forms, tags, heads, texts = zip(*tokens)
        problem = tree_problem(forms, heads, allow_multiple_roots, label=f"sentence {len(trees)}")
        if problem:
            raise StructureError(problem)
        trees.append(DependencyTree(forms, tags, heads, texts))

    for lineno, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n")
        if not line.strip():
            if tokens:
                finish()
                tokens = []
            continue
        cols = tuple(line.split("\t"))
        if len(cols) < 8:
            raise ParseError(f"expected >= 8 tab-separated columns, got {len(cols)}", lineno)
        try:
            index, head = int(cols[0]), int(cols[6])
        except ValueError:
            raise ParseError(f"non-integer ID or HEAD in {line!r}", lineno) from None
        if index != len(tokens) + 1:
            raise ParseError(f"token ID {index} out of order (expected {len(tokens) + 1})", lineno)
        if head == index:
            raise ParseError(f"token {index} is its own head", lineno)
        if head < 0:
            raise ParseError(f"negative HEAD {head}", lineno)
        tokens.append((cols[1], cols[4], head, line))
    if tokens:
        finish()
    return trees


def reference_write_conll(trees):
    """`write_conll` one token at a time, from each token's columns."""
    blocks = []
    for tree in trees:
        lines = []
        for t in tree.tokens:
            if t.cols is None:
                cols = (str(t.index), t.form, "_", t.pos, t.pos, "_", str(t.head), "_", "_", "_")
            else:
                cols = t.cols[:6] + (str(t.head),) + t.cols[7:]
            lines.append("\t".join(cols))
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n" if blocks else ""


def reference_read_kbest(gold_source, cand_source, allow_multiple_roots=False):
    """Pair gold trees with their candidates, one line and one checked tree
    at a time, so the first error in file order is raised.

    Returns [(gold, [(tree, score), ...]), ...].
    """
    golds = reference_parse_conll(gold_source, allow_multiple_roots)
    if isinstance(cand_source, str):
        cand_source = text_lines(cand_source)
    lines = [l.rstrip("\n") for l in cand_source]
    pos = 0
    lists = []

    def next_line():
        nonlocal pos
        while pos < len(lines):
            pos += 1
            if lines[pos - 1].strip():
                return pos, lines[pos - 1]
        return None

    for sent_idx, gold in enumerate(golds):
        item = next_line()
        if item is None:
            raise AlignmentError(
                f"candidate file ended before sentence {sent_idx} ({len(golds)} gold sentences)")
        lineno, header = item
        parts = header.split()
        if len(parts) != 3 or parts[0] != "SENT":
            raise ParseError(f"expected 'SENT <index> <k>', got {header!r}", lineno)
        try:
            file_idx, k = int(parts[1]), int(parts[2])
        except ValueError:
            raise ParseError(f"non-integer SENT fields in {header!r}", lineno) from None
        if file_idx != sent_idx:
            raise AlignmentError(f"sentence {sent_idx}: SENT header carries index {file_idx}")
        if k < 1:
            raise ParseError(f"sentence {sent_idx}: k must be >= 1, got {k}", lineno)
        cands = []
        for rank in range(1, k + 1):
            item = next_line()
            if item is None or not item[1].startswith("CAND"):
                raise ParseError(f"sentence {sent_idx}: missing CAND line for rank {rank}",
                                 item[0] if item else lineno)
            lineno, cand_line = item
            fields = cand_line.split()
            if len(fields) != 3 or fields[0] != "CAND":
                raise ParseError(f"expected 'CAND <rank> <score>', got {cand_line!r}", lineno)
            try:
                score = float(fields[2])
            except ValueError:
                raise ParseError(f"bad base score {fields[2]!r}", lineno) from None
            if not math.isfinite(score):
                raise ParseError(f"non-finite base score {fields[2]!r}", lineno)
            if fields[1] != str(rank):
                raise ParseError(f"sentence {sent_idx}: expected CAND rank {rank}, "
                                 f"got {fields[1]!r}", lineno)
            item = next_line()
            if item is None or not item[1].startswith("HEAD"):
                raise ParseError(f"sentence {sent_idx}: missing HEAD line for rank {rank}",
                                 item[0] if item else lineno)
            lineno, head_line = item
            if head_line.split()[0] != "HEAD":
                raise ParseError(f"expected 'HEAD <h1> ... <hn>', got {head_line!r}", lineno)
            try:
                heads = [int(h) for h in head_line.split()[1:]]
            except ValueError:
                raise ParseError(f"non-integer head in {head_line!r}", lineno) from None
            if len(heads) != len(gold):
                raise AlignmentError(
                    f"sentence {sent_idx}: candidate {rank} has {len(heads)} heads, "
                    f"gold has {len(gold)} tokens")
            problem = tree_problem(gold.forms, heads, allow_multiple_roots)
            if problem:
                raise StructureError(f"sentence {sent_idx}, candidate {rank}: {problem}")
            cands.append((gold.with_heads(heads, allow_multiple_roots), score))
        lists.append((gold, cands))
    if next_line() is not None:
        raise AlignmentError(f"candidate file has more sentences than the {len(golds)} gold ones")
    return lists
