#!/usr/bin/env python3
"""Benchmark the list scoring path, per synthetic k-best list.

Rows: a training step's `forward_list`, its `backward_list` for the
loss-augmented pick and gold, and its `adagrad_step` on those gradients; the
training items' build, `_SentenceItem.build_all` over all the lists; and the
scoring path that `rcnn.score_lists` and `train()`'s dev selection share:
`build_forests` one list per call (the build that scoring one list at a time
makes) and batched, and `forward_list` of each batched forest. Rows are
timed in turn on a calibrated clock (`layer_rows.py`), and each one's median
and IQR per list are printed. Run from a checkout:

    PYTHONPATH=src python3 benchmarks/bench_kernels.py --sentences 200 --length 25 --k 64
"""

import argparse

import numpy as np

from deprerank.params import Hyperparams, init_random
from deprerank.rcnn import backward_list, build_forests, forward_list
from deprerank.synth import DEFAULT_TAGS, random_tree, synth_kbest
from deprerank.trainer import AdaGradState, _pick, _SentenceItem, adagrad_step
from layer_rows import print_rows


def rows(params, kbests):
    """Each row's call over all the lists. The training items and their
    loss-augmented picks are `train()`'s (`_SentenceItem.build_all`,
    `_pick`); a step takes the pick and gold, and updates a copy of the
    parameters."""
    kappa = params.hyper.kappa
    items = _SentenceItem.build_all(params, kbests, kappa)
    steps = []
    for item in items:
        idx, _, acts = _pick(params, item)
        steps.append((item.plan, acts, item.heads, (idx + 1, 0)))
    grads = [backward_list(params, *step, (1.0, -1.0)) for step in steps]
    updated = params.copy()
    state = AdaGradState.from_params(updated)
    forests = build_forests(params, kbests)
    return {
        "forward_list (train item)": lambda: [forward_list(params, item.plan) for item in items],
        "backward_list (pick + gold)":
            lambda: [backward_list(params, *step, (1.0, -1.0)) for step in steps],
        "adagrad_step (pick + gold)":
            lambda: [adagrad_step(updated, state, g, params.hyper.lam) for g in grads],
        "_SentenceItem.build_all": lambda: _SentenceItem.build_all(params, kbests, kappa),
        "build_forests (one list per call)":
            lambda: [build_forests(params, [kb]) for kb in kbests],
        "build_forests": lambda: build_forests(params, kbests),
        "forward_list (forests)": lambda: [forward_list(params, f) for f in forests],
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sentences", type=int, default=200)
    ap.add_argument("--length", type=int, default=25)
    ap.add_argument("--m", type=int, default=25)
    ap.add_argument("--m-d", dest="m_d", type=int, default=25)
    ap.add_argument("--vocab", type=int, default=500)
    ap.add_argument("--repeats", type=int, default=7)
    ap.add_argument("--k", type=int, default=64, help="candidates per list")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    vocab = [f"word{i:04d}" for i in range(args.vocab)]
    params = init_random(Hyperparams(m=args.m, m_d=args.m_d), vocab,
                         list(DEFAULT_TAGS), seed=args.seed)
    kbests = [synth_kbest(rng, random_tree(rng, args.length, vocab), args.k)
              for _ in range(args.sentences)]
    timed = rows(params, kbests)  # every pair exists before any build is timed
    print(f"{args.sentences} {args.k}-best lists of length {args.length}, "
          f"m={args.m}, m_d={args.m_d}, {len(params.pos_pairs)} pair slots")
    print_rows(timed, args.repeats, args.sentences, "list")


if __name__ == "__main__":
    main()
