"""Synthetic sentences and k-best fixtures for gradient checks and smoke tests."""

from __future__ import annotations

import numpy as np

from .treebank import DependencyTree, KBestList

DEFAULT_TAGS = ("DT", "JJ", "NN", "NNS", "VB", "IN", "RB")


def random_tree(rng: np.random.Generator, length: int,
                vocab: list[str], tags=DEFAULT_TAGS) -> DependencyTree:
    """Random single-rooted tree: tokens attach, in random order, to attached nodes."""
    order = list(rng.permutation(length) + 1)
    heads = [0] * length
    attached = [order[0]]
    for idx in order[1:]:
        heads[idx - 1] = int(attached[rng.integers(len(attached))])
        attached.append(idx)
    forms, pos_tags = zip(*[(vocab[int(rng.integers(len(vocab)))],
                             tags[int(rng.integers(len(tags)))]) for _ in range(length)])
    return DependencyTree(forms, pos_tags, heads, (None,) * length)


def keeps_tree(heads: list[int], i: int, new_head: int) -> bool:
    """Whether setting token i + 1's head to `new_head`, neither its own
    index nor its head, leaves `heads`, a rooted tree with one root, a rooted
    tree: it must not add a root or move the root, and `new_head` must not
    lie below the token."""
    if new_head == 0 or heads[i] == 0:
        return False
    node = new_head
    while node and node != i + 1:
        node = heads[node - 1]
    return node == 0


def corrupt_heads(rng: np.random.Generator, tree: DependencyTree,
                  max_changes: int = 3) -> DependencyTree:
    """A candidate differing from `tree`, a rooted tree with one root, in at
    least one (valid) head assignment.

    Single-token sentences admit exactly one tree and are returned unchanged.
    """
    n = len(tree)
    if n < 2:
        return tree
    for _ in range(20):
        heads = tree.heads
        changes = 0
        wanted = 1 + int(rng.integers(max_changes))
        for _ in range(10 * wanted):
            if changes >= wanted:
                break
            i = int(rng.integers(n))
            new_head = int(rng.integers(n + 1))
            if new_head == heads[i] or new_head == i + 1:
                continue
            if keeps_tree(heads, i, new_head):
                heads[i] = new_head
                changes += 1
        if changes:
            return tree.with_heads(heads)
    return tree


def synth_kbest(rng: np.random.Generator, gold: DependencyTree, k: int,
                noise: float = 0.8, max_changes: int = 3) -> KBestList:
    """Gold plus k-1 corrupted candidates, ranked by a noisy quality-based base score."""
    cands = [gold]
    cands.extend(corrupt_heads(rng, gold, max_changes) for _ in range(k - 1))
    scored = []
    for cand in cands:
        mistakes = sum(1 for a, b in zip(cand.heads, gold.heads) if a != b)
        scored.append((cand, -0.7 * mistakes + noise * float(rng.normal())))
    scored.sort(key=lambda cs: -cs[1])
    return KBestList(gold, tuple(scored))


def synth_corpus(seed: int, sentences: int, vocab_size: int = 30,
                 length_range: tuple[int, int] = (5, 8), k: int = 8,
                 tags=DEFAULT_TAGS, noise: float = 0.8) -> list[KBestList]:
    rng = np.random.default_rng(seed)
    vocab = [f"word{i:02d}" for i in range(vocab_size)]
    lo, hi = length_range
    out = []
    for _ in range(sentences):
        gold = random_tree(rng, int(rng.integers(lo, hi + 1)), vocab, tags)
        out.append(synth_kbest(rng, gold, k, noise))
    return out


def planted_corpus(seed: int, sentences: int) -> list[KBestList]:
    """8-best lists (`synth_kbest`, noise 0.8) over gold trees of 5-15 tokens
    of a grammar planted from `seed`. Trees have `random_tree`'s shapes; each
    token's tag (of `DEFAULT_TAGS`) is drawn given its head's tag, and its
    form `<tag>_<j>`, j < 4, with j drawn given its head's j, from fixed
    peaked tables (Dirichlet(0.15) rows, one more row for the artificial
    root). So gold arcs carry a signal that holds on lists not trained on,
    unlike `synth_corpus`'s independent draws."""
    rng = np.random.default_rng(seed)
    tags, n_tags, n_forms = DEFAULT_TAGS, len(DEFAULT_TAGS), 4
    tag_table = rng.dirichlet([0.15] * n_tags, size=n_tags + 1)
    form_table = rng.dirichlet([0.15] * n_forms, size=n_forms + 1)
    out = []
    for _ in range(sentences):
        shape = random_tree(rng, int(rng.integers(5, 16)), list(tags))
        n, heads = len(shape), shape.heads
        tag, form = [n_tags] + [0] * n, [n_forms] + [0] * n  # node 0: the root's rows
        order = [0]
        for node in order:  # heads before their dependents
            for child in shape.children(node):
                order.append(child)
                tag[child] = int(rng.choice(n_tags, p=tag_table[tag[node]]))
                form[child] = int(rng.choice(n_forms, p=form_table[form[node]]))
        gold = DependencyTree([f"{tags[t]}_{j}" for t, j in zip(tag[1:], form[1:])],
                              [tags[t] for t in tag[1:]], heads, (None,) * n)
        out.append(synth_kbest(rng, gold, 8, 0.8))
    return out
