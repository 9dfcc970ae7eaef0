#!/usr/bin/env python3
"""Benchmark the list scoring path, per synthetic k-best list.

Rows: a training step's `forward_list`, its `backward_list` for the
loss-augmented pick and gold, and its `adagrad_step` on those gradients; plan
building with `build_list_plans` one list per call (the path that scores one
list at a time) and batched over all the lists; and dev scoring as `train()`
does it, against the per-list plans that `rcnn.score_lists` scores: building
the forests (`build_forests`), and `forward_list` of each per-list plan and of
each forest. Rows are timed in turn on a calibrated clock
(`layer_rows.py`), and each one's median and IQR per list are printed. Run
from a checkout:

    PYTHONPATH=src python3 benchmarks/bench_kernels.py --sentences 200 --length 25 --k 64
"""

import argparse

import numpy as np

from deprerank.params import Hyperparams, init_random
from deprerank.rcnn import backward_list, build_forests, build_list_plans, forward_list
from deprerank.synth import DEFAULT_TAGS, random_tree, synth_kbest
from deprerank.trainer import AdaGradState, adagrad_step
from deprerank.treebank import KBestList
from layer_rows import print_rows


def rows(params, kbests):
    """Each row's call over all the lists. A training item is a list plan
    with gold in row 0 (`train()`'s `_SentenceItem`); its step takes the
    loss-augmented pick and gold, and updates a copy of the parameters."""
    lists = [KBestList.from_arrays(kb.gold, np.concatenate([[kb.gold.heads], kb.heads]),
                                   np.zeros(len(kb) + 1)) for kb in kbests]
    items = []
    for kb, plan in zip(lists, build_list_plans(params, lists, create_pairs=True)):
        scores, acts = forward_list(params, plan)
        wrong = (kb.heads[1:] != kb.heads[0]).sum(axis=1)
        pick = int(np.argmax(scores[1:] + params.hyper.kappa * wrong)) + 1
        items.append((plan, acts, kb.heads, (pick, 0)))
    grads = [backward_list(params, *item, (1.0, -1.0)) for item in items]
    updated = params.copy()
    state = AdaGradState.from_params(updated)
    plans, forests = build_list_plans(params, kbests), build_forests(params, kbests)
    return {
        "forward_list (train item)": lambda: [forward_list(params, item[0]) for item in items],
        "backward_list (pick + gold)":
            lambda: [backward_list(params, *item, (1.0, -1.0)) for item in items],
        "adagrad_step (pick + gold)":
            lambda: [adagrad_step(updated, state, g, params.hyper.lam) for g in grads],
        "build_list_plans (one list per call)":
            lambda: [build_list_plans(params, [kb]) for kb in kbests],
        "build_list_plans (batched)": lambda: build_list_plans(params, kbests),
        "build_forests": lambda: build_forests(params, kbests),
        "forward_list (per-list plans)": lambda: [forward_list(params, p) for p in plans],
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
