#!/usr/bin/env python3
"""Benchmark the scoring kernels: per tree, and per k-best list.

Scores (and backpropagates through) a batch of random trees with both kernel
implementations and reports per-tree times. Then, per synthetic k-best list,
times the list scorer (`score_list`, `forward_list`) and a training step's
`backward_list` for the loss-augmented pick and gold, next to the per-tree
`build_plan` + forward + backward of those two trees. Run from a checkout:

    PYTHONPATH=src python3 benchmarks/bench_kernels.py --sentences 200 --length 25 --k 64
"""

import argparse
import statistics
import time

import numpy as np

from deprerank import kernels
from deprerank.params import Hyperparams, init_random
from deprerank.rcnn import (
    backward_list, backward_tree, build_list_plan, build_plan, forward_list, score_list,
    score_plan,
)
from deprerank.synth import DEFAULT_TAGS, random_tree, synth_kbest


def _forward_args(params, plan):
    return (plan.order, plan.arc_start, plan.arc_child, plan.node_word,
            plan.arc_dist, plan.arc_pair, params.words.vectors,
            params.distances.vectors, params.pos_pairs.W, params.pos_pairs.v)


def _backward_args(params, plan, fwd):
    _, p, _, z, amax, _, _ = fwd
    return (plan.order, plan.arc_start, plan.arc_child, plan.node_word,
            plan.arc_dist, plan.arc_pair, plan.wloc, plan.dloc, plan.ploc,
            len(plan.word_rows), len(plan.dist_rows), len(plan.pair_slots),
            p, z, amax, params.pos_pairs.W, params.pos_pairs.v, 1.0)


def bench(forward, backward, params, plans, repeats):
    # one untimed pass to trigger jit compilation / cache warm
    fwd = forward(*_forward_args(params, plans[0]))
    backward(*_backward_args(params, plans[0], fwd))
    fwd_times, both_times = [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for plan in plans:
            forward(*_forward_args(params, plan))
        fwd_times.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        for plan in plans:
            fwd = forward(*_forward_args(params, plan))
            backward(*_backward_args(params, plan, fwd))
        both_times.append(time.perf_counter() - t0)
    n = len(plans)
    return (statistics.median(fwd_times) / n, statistics.median(both_times) / n)


def _median_per_list(step, lists, repeats):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for item in lists:
            step(*item)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) / len(lists)


def bench_lists(params, kbests, repeats):
    """Median time per list of the list scorer, and of the backward pass of a
    training step (the loss-augmented pick and gold) on the list path and on
    the per-tree path."""
    lists = []
    for kb in kbests:
        heads = np.concatenate([[kb.gold.heads], kb.heads])
        plan = build_list_plan(params, kb.gold.forms, kb.gold.pos_tags, heads,
                               create_pairs=True)
        scores, acts = forward_list(params, plan)
        wrong = (kb.heads != heads[0]).sum(axis=1)
        idx = int(np.argmax(scores[1:] + params.hyper.kappa * wrong))
        lists.append((plan, acts, heads, kb.candidates[idx][0], kb.gold, idx + 1))

    def backward(plan, acts, heads, picked, gold, row):
        backward_list(params, plan, acts, heads, (row, 0), (1.0, -1.0))

    def per_tree(plan, acts, heads, picked, gold, row):
        for tree, upstream in ((picked, 1.0), (gold, -1.0)):
            backward_tree(params, score_plan(params, build_plan(params, tree)), upstream)

    return {
        "score_list": _median_per_list(lambda plan, *_: score_list(params, plan),
                                       lists, repeats),
        "forward_list": _median_per_list(lambda plan, *_: forward_list(params, plan),
                                         lists, repeats),
        "backward_list (pick + gold)": _median_per_list(backward, lists, repeats),
        "per-tree build+fwd+bwd (pick + gold)": _median_per_list(per_tree, lists, repeats),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sentences", type=int, default=200)
    ap.add_argument("--length", type=int, default=25)
    ap.add_argument("--m", type=int, default=25)
    ap.add_argument("--m-d", dest="m_d", type=int, default=25)
    ap.add_argument("--vocab", type=int, default=500)
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--k", type=int, default=64, help="candidates per list")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    vocab = [f"word{i:04d}" for i in range(args.vocab)]
    params = init_random(Hyperparams(m=args.m, m_d=args.m_d), vocab,
                         list(DEFAULT_TAGS), seed=args.seed)
    trees = [random_tree(rng, args.length, vocab) for _ in range(args.sentences)]
    plans = [build_plan(params, t, create_pairs=True) for t in trees]
    print(f"{args.sentences} trees of length {args.length}, "
          f"m={args.m}, m_d={args.m_d}, {len(params.pos_pairs)} pair slots")

    results = {}
    results["numpy"] = bench(kernels.forward_numpy, kernels.backward_numpy,
                             params, plans, args.repeats)
    if kernels.forward_numba is not None:
        results["numba"] = bench(kernels.forward_numba, kernels.backward_numba,
                                 params, plans, args.repeats)
    else:
        print("numba unavailable; benchmarking the numpy path only")

    print(f"{'backend':<10}{'forward/tree':>16}{'fwd+bwd/tree':>16}")
    for name, (fwd, both) in results.items():
        print(f"{name:<10}{fwd * 1e6:>13.1f} us{both * 1e6:>13.1f} us")
    if "numba" in results:
        f_speed = results["numpy"][0] / results["numba"][0]
        b_speed = results["numpy"][1] / results["numba"][1]
        print(f"{'speedup':<10}{f_speed:>14.1f}x{b_speed:>15.1f}x")

    kbests = [synth_kbest(rng, tree, args.k) for tree in trees]
    print(f"\n{args.sentences} {args.k}-best lists over the same trees, "
          f"{kernels.active_backend()} per-tree kernels")
    for stage, seconds in bench_lists(params, kbests, args.repeats).items():
        print(f"{stage:<40}{seconds * 1e6:>10.1f} us/list")


if __name__ == "__main__":
    main()
