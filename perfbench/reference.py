"""A small reference scorer written from the method's equations, not the library.

For a head h with children c_1..c_L (h = 0 is the artificial root):

    p_j = [ e(word h) ; x(c_j) ; d(clip(c_j - h)) ]
    z_j = tanh(W_{pos h, pos c_j} p_j)
    x(h) = elementwise max over j of z_j        (x(leaf) = e(word leaf))
    score(tree) = sum over heads h, children j of  v_{pos h, pos c_j} . z_j

Unknown words use the `<unk>` row and POS pairs never seen in training use
the fallback pair (slot 0). Only the parameter tables are read from the
library's `ParamSet`; the recursion, lookups and sums are done here.
"""

from __future__ import annotations

import numpy as np

from deprerank.params import ROOT_FORM, ROOT_POS, UNK_FORM

TOLERANCE = 1e-9


def reference_score(params, tree) -> tuple[float, float]:
    """(score, scale): the tree score and the sum of |v . z| over its arcs.

    `scale` is the magnitude the floating-point error of the score is
    relative to, even when the arc terms cancel.
    """
    forms = [ROOT_FORM] + [t.form for t in tree.tokens]
    tags = [ROOT_POS] + [t.pos for t in tree.tokens]
    kids: dict[int, list[int]] = {}
    for t in tree.tokens:
        kids.setdefault(t.head, []).append(t.index)
    rows = params.words.rows
    clip = params.hyper.dist_clip
    total = scale = 0.0

    def phrase(h: int) -> np.ndarray:
        nonlocal total, scale
        word = params.words.vectors[rows.get(forms[h], rows[UNK_FORM])]
        if h not in kids:
            return word
        pooled = None
        for c in kids[h]:
            slot = params.pos_pairs.index.get((tags[h], tags[c]), 0)
            W, v = params.pos_pairs.get(slot)
            delta = max(-clip, min(clip, c - h))
            dist = params.distances.vectors[params.distances.rows[delta]]
            z = np.tanh(W @ np.concatenate([word, phrase(c), dist]))
            term = float(v @ z)
            total += term
            scale += abs(term)
            pooled = z if pooled is None else np.maximum(pooled, z)
        return pooled

    phrase(0)
    return total, scale


def agrees(library_score: float, params, tree) -> bool:
    """True when the library score is within TOLERANCE relative of the reference."""
    ref, scale = reference_score(params, tree)
    return abs(library_score - ref) <= TOLERANCE * max(scale, abs(ref))
