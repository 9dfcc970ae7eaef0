#!/usr/bin/env python3
"""Benchmark the scoring kernels: per k-best list, and per tree.

First, per synthetic k-best list: the list kernels (`forward_list`, and a
training step's `backward_list` for the loss-augmented pick and gold), the
list scorer (`score_list`), the step's `adagrad_step` on those gradients,
and the per-tree `build_plan` + forward + backward of those two trees. Then
plan building one list per call (`build_list_plan`, the path that scores one
list at a time) and in batches (`build_list_plans`), and dev scoring as
`train()` does it, on the same lists: building the batches' per-list plans
(`build_list_plans`) against their forests (`build_forests`), and scoring
each per-list plan against each forest. Last, the per-tree numpy kernels on
the lists' gold trees. Run from a checkout:

    PYTHONPATH=src python3 benchmarks/bench_kernels.py --sentences 200 --length 25 --k 64
"""

import argparse
import statistics
import time

import numpy as np

from deprerank import kernels
from deprerank.params import Hyperparams, init_random
from deprerank.rcnn import (
    backward_list, backward_tree, build_forests, build_list_plan, build_list_plans, build_plan,
    forward_list, score_list, score_plan,
)
from deprerank.synth import DEFAULT_TAGS, random_tree, synth_kbest
from deprerank.trainer import AdaGradState, adagrad_step


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


def bench_trees(params, plans, repeats):
    """Median time per tree of the per-tree forward kernel, and of forward
    and backward together."""
    forward, backward = kernels.tree_forward, kernels.tree_backward
    # one untimed pass to warm the caches
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


def bench_builds(params, kbests, repeats):
    """Median time per list of building the lists' plans one list per call,
    and in batches over all the lists, alternating the two per repeat."""
    sentences = [(kb.gold.forms, kb.gold.pos_tags, kb.heads) for kb in kbests]
    one, batched = [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for sentence in sentences:
            build_list_plan(params, *sentence)
        one.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        build_list_plans(params, sentences)
        batched.append(time.perf_counter() - t0)
    return {"build_list_plan (one list per call)": statistics.median(one) / len(kbests),
            "build_list_plans (batched)": statistics.median(batched) / len(kbests)}


def bench_dev_scoring(params, kbests, repeats):
    """Median time per list of building and scoring dev lists as per-list
    plans and as forests, the four steps in turn per repeat."""
    sentences = [(kb.gold.forms, kb.gold.pos_tags, kb.heads) for kb in kbests]
    plans, forests = build_list_plans(params, sentences), build_forests(params, sentences)
    steps = {
        "dev build: per-list plans": lambda: build_list_plans(params, sentences),
        "dev build: forests": lambda: build_forests(params, sentences),
        "dev forward: per-list plans": lambda: [score_list(params, p) for p in plans],
        "dev forward: forests": lambda: [score_list(params, f) for f in forests],
    }
    times = {name: [] for name in steps}
    for _ in range(repeats):
        for name, step in steps.items():
            t0 = time.perf_counter()
            step()
            times[name].append(time.perf_counter() - t0)
    return {name: statistics.median(ts) / len(kbests) for name, ts in times.items()}


def bench_lists(params, kbests, repeats):
    """Median time per list of the list scorer, of the backward pass of a
    training step (the loss-augmented pick and gold) on the list path and on
    the per-tree path, and of the step's AdaGrad update (applied to a copy of
    the parameters)."""
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

    updated = params.copy()
    state = AdaGradState.from_params(updated)
    steps = [(backward_list(params, plan, acts, heads, (row, 0), (1.0, -1.0)),)
             for plan, acts, heads, _, _, row in lists]

    def update(grads):
        adagrad_step(updated, state, grads, params.hyper.lam)

    return {
        "forward_list": _median_per_list(lambda plan, *_: forward_list(params, plan),
                                         lists, repeats),
        "backward_list (pick + gold)": _median_per_list(backward, lists, repeats),
        "score_list": _median_per_list(lambda plan, *_: score_list(params, plan),
                                       lists, repeats),
        "per-tree build+fwd+bwd (pick + gold)": _median_per_list(per_tree, lists, repeats),
        "adagrad_step (pick + gold)": _median_per_list(update, steps, repeats),
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
    kbests = [synth_kbest(rng, tree, args.k) for tree in trees]
    build_list_plans(params, [(kb.gold.forms, kb.gold.pos_tags, kb.heads) for kb in kbests],
                     create_pairs=True)  # the pairs exist before any build is timed
    print(f"{args.sentences} {args.k}-best lists of length {args.length}, "
          f"m={args.m}, m_d={args.m_d}, {len(params.pos_pairs)} pair slots")
    stages = {**bench_lists(params, kbests, args.repeats),
              **bench_builds(params, kbests, args.repeats),
              **bench_dev_scoring(params, kbests, args.repeats)}
    for stage, seconds in stages.items():
        print(f"{stage:<40}{seconds * 1e6:>10.1f} us/list")

    fwd, both = bench_trees(params, plans, args.repeats)
    print(f"\nthe {args.sentences} gold trees, per-tree kernels")
    print(f"{'forward/tree':>16}{'fwd+bwd/tree':>16}")
    print(f"{fwd * 1e6:>13.1f} us{both * 1e6:>13.1f} us")


if __name__ == "__main__":
    main()
