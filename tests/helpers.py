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
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from deprerank.errors import AlignmentError, ParseError, StructureError
from deprerank.params import ROOT_FORM, ROOT_POS, UNK_FORM, Hyperparams, init_random, save
from deprerank.rcnn import Gradients, backward_tree, build_list_plan, build_plan, score_plan
from deprerank.trainer import _SentenceItem, _pick, _subgradient
from deprerank.treebank import DependencyTree, KBestList, Token, is_rooted_tree, parse_conll

TAGS = ("DT", "JJ", "NN", "VB", "IN")
VOCAB = tuple(f"w{i}" for i in range(1, 9))


def make_tree(heads, forms=None, tags=None):
    n = len(heads)
    forms = list(forms) if forms else [f"w{i}" for i in range(1, n + 1)]
    tags = list(tags) if tags else [TAGS[i % len(TAGS)] for i in range(n)]
    return DependencyTree(tuple(
        Token(i + 1, forms[i], tags[i], heads[i]) for i in range(n)))


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
            if any(h == i + 1 for i, h in enumerate(heads)):
                continue
            if is_rooted_tree(heads):
                yield DependencyTree(tuple(
                    Token(i + 1, forms[i], tags[i], heads[i]) for i in range(n)))


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
    for row, g in analytic.words.items():
        for j in range(g.size):
            out.append((f"word[{row},{j}]", float(g[j]),
                        central(params.words.vectors, (row, j))))
    for row, g in analytic.dists.items():
        for j in range(g.size):
            out.append((f"dist[{row},{j}]", float(g[j]),
                        central(params.distances.vectors, (row, j))))
    for slot, g in analytic.pair_W.items():
        W, _ = params.pos_pairs.get(slot)
        for j in range(g.shape[0]):
            for c in range(g.shape[1]):
                out.append((f"W[{slot},{j},{c}]", float(g[j, c]), central(W, (j, c))))
    for slot, g in analytic.pair_v.items():
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


def list_plan(params, trees, create_pairs=False):
    """`build_list_plan` over trees of one sentence (forms and tags of the first)."""
    return build_list_plan(params, trees[0].forms, trees[0].pos_tags,
                           [tree.heads for tree in trees], create_pairs)


def loss_augmented_pick(params, kb, kappa):
    """Candidate maximizing score + margin, and the resulting hinge value."""
    return _pick(params, _SentenceItem.build(params, kb, kappa))[:2]


def sentence_subgradient(params, kb, kappa):
    """Subgradient of the sentence hinge; empty when the hinge is inactive."""
    return _subgradient(params, _SentenceItem.build(params, kb, kappa))


def per_tree_subgradient(params, kb, kappa):
    """The sentence hinge's subgradient from per-tree plans and kernels: the
    list pick, then `backward_tree` on the picked tree (+1) and on gold (-1).
    Empty when the hinge is inactive."""
    idx, hinge, _ = _pick(params, _SentenceItem.build(params, kb, kappa))
    if hinge <= 0.0:
        return Gradients(), hinge
    picked = score_plan(params, build_plan(params, kb.candidates[idx][0]))
    gold = score_plan(params, build_plan(params, kb.gold))
    grads = backward_tree(params, picked, upstream=1.0)
    grads.accumulate(backward_tree(params, gold, upstream=-1.0))
    return grads, hinge


def assert_same_gradients(got, want, rel=1e-12):
    """Same touched keys in every block, values within rel * max(1, |want|)."""
    for mine, theirs in ((got.words, want.words), (got.dists, want.dists),
                         (got.pair_W, want.pair_W), (got.pair_v, want.pair_v)):
        assert set(mine) == set(theirs)
        for key, grad in theirs.items():
            assert np.all(np.abs(mine[key] - grad) <= rel * np.maximum(1.0, np.abs(grad))), key


def max_abs(grads):
    """Largest absolute entry over every gradient block (0 when empty)."""
    out = 0.0
    for group in (grads.words, grads.dists, grads.pair_W, grads.pair_v):
        for grad in group.values():
            if grad.size:
                out = max(out, float(np.abs(grad).max()))
    return out


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
    p = np.concatenate([head_word_vec, child_phrase_vec, params.lookup_distance(delta)])
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
    head_vec = params.lookup_word(head_form)
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
        pair = params.get_pair(head_pos, tree.tokens[child - 1].pos)
        p[j], z[j] = compose_pair(params, head_vec, child_vec, child - node, pair)
        a[j] = pair[0] @ p[j]
        score += float(np.dot(pair[1], z[j]))
    pool_argmax = z.argmax(axis=0)
    x = z[pool_argmax, np.arange(hyper.m)]
    return NodeTrace(node, tuple(kids), p, a, z, pool_argmax, x, score)


# ---------------------------------------------------------------------------
# a reference k-best reader: one validated tree per candidate

def reference_read_kbest(gold_source, cand_source, allow_multiple_roots=False):
    """Pair gold trees with their candidates, one `with_heads` tree each.

    Returns [(gold, [(tree, score), ...]), ...]. Line checks are by prefix
    (`startswith`), so `CANDIDATE`/`HEADS` lines and any CAND rank pass here.
    """
    golds = parse_conll(gold_source, allow_multiple_roots)
    if isinstance(cand_source, str):
        cand_source = cand_source.splitlines()
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
            if len(fields) != 3:
                raise ParseError(f"expected 'CAND <rank> <score>', got {cand_line!r}", lineno)
            try:
                score = float(fields[2])
            except ValueError:
                raise ParseError(f"bad base score {fields[2]!r}", lineno) from None
            if not math.isfinite(score):
                raise ParseError(f"non-finite base score {fields[2]!r}", lineno)
            item = next_line()
            if item is None or not item[1].startswith("HEAD"):
                raise ParseError(f"sentence {sent_idx}: missing HEAD line for rank {rank}",
                                 item[0] if item else lineno)
            lineno, head_line = item
            try:
                heads = [int(h) for h in head_line.split()[1:]]
            except ValueError:
                raise ParseError(f"non-integer head in {head_line!r}", lineno) from None
            if len(heads) != len(gold):
                raise AlignmentError(
                    f"sentence {sent_idx}: candidate {rank} has {len(heads)} heads, "
                    f"gold has {len(gold)} tokens")
            try:
                cand = gold.with_heads(heads, allow_multiple_roots=allow_multiple_roots)
            except StructureError as e:
                raise StructureError(f"sentence {sent_idx}, candidate {rank}: {e}") from None
            cands.append((cand, score))
        lists.append((gold, cands))
    if next_line() is not None:
        raise AlignmentError(f"candidate file has more sentences than the {len(golds)} gold ones")
    return lists
