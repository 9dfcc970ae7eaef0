"""Shared test utilities: tiny trees, parameters, and a finite-difference oracle."""

from __future__ import annotations

import itertools

import numpy as np

from deprerank.params import Hyperparams, init_random
from deprerank.rcnn import build_plan, score_plan
from deprerank.trainer import margin_delta
from deprerank.treebank import DependencyTree, KBestList, Token, is_rooted_tree

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


def tiny_params(m=3, m_d=3, vocab=VOCAB, tags=TAGS, seed=0, **kw):
    hyper = Hyperparams(m=m, m_d=m_d, **kw)
    return init_random(hyper, list(vocab), list(tags), seed)


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
