#!/usr/bin/env python3
"""Time every layer of the reranker on a perfbench workload's own inputs.

For each workload, writes the input files of a perfbench pass of that seed
(`perfbench/workloads.py`'s `write_inputs`, imported read-only, as `speed` is)
and times each row over the lists of one role: those the workload trains on
(train), its dev lists (dev), or those it reranks (rerank; dev for train-k64):

    reading        load_conll (gold)                   rerank
                   load_conll, + heads                 rerank
                   read_kbest_files                    rerank
                   read_kbest, line by line            rerank
                   rooted_rows, batched                rerank
    plan building  _SentenceItem.build_all             train
                   build_forests (one list per call)   rerank
                   build_forests                       rerank
    forward        forward_list (train item)           train
                   forward_list (forests)              rerank
    backward       backward_list (pick + gold)         train
    update         adagrad_step (pick + gold)          train
    dev selection  dev selection (one epoch)           dev
    alpha search   search_alpha (scores given)         rerank
    mixture pick   rerank_corpus (scores given)        rerank
    output         write_conll                         rerank
    the three      rerank tail                         rerank

`+ heads` reads the gold file with each sentence's first head written +h,
which sends every sentence to the per-line path; `line by line` reads both
files' lines given as lists. Dev selection is `train()`'s per epoch
(`forest_scores` of the dev forests, `rerank_corpus` at alpha 1); the pick is
`rerank --search-alpha`'s, model scores given, and `rerank tail` is its alpha
search, pick and `write_conll` of the chosen trees, as `cmd_rerank` runs them.
`search_alpha`, `rerank_corpus` and `rerank tail` are each called on new
copies of the lists, made before the lap, which hold no attachment counts
yet, as a command's lists do (a list keeps its counts once computed). The model is the one that
`deprerank train` makes with the workload's flags before its first epoch.
Rows run in the order above, reversed on odd repeats. A repeat is one lap of
`speed.Laps`, rescaled to a reference speed, that calls its row again until
MIN_LAP_S have passed, so that a short call is not timed alone. Each row
prints its list count, its calls per lap, and its median time per call and
its median and IQR per list, in calibrated microseconds. Run from a checkout:

    PYTHONPATH=src python3 benchmarks/layer_rows.py --workload train-k64 rerank-k64
"""

import argparse
import itertools
import math
import os
import re
import sys
import tempfile

import numpy as np

from deprerank.params import Hyperparams, build_pos_vocab, build_word_vocab, init_random
from deprerank.rcnn import backward_list, build_forests, forest_scores, forward_list
from deprerank.reranker import RerankConfig, corpus_model_scores, rerank_corpus, search_alpha
from deprerank.trainer import (AdaGradState, TrainConfig, _kbest_digest, _pick, _SentenceItem,
                               adagrad_step)
from deprerank.treebank import (_CHECK_TOKENS, PUNCT_SETS, KBestList, load_conll, read_kbest,
                                read_kbest_files, rooted_rows, write_conll)

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))

import speed  # noqa: E402
import workloads as W  # noqa: E402

MIN_LAP_S = 0.02  # raw seconds: shorter laps spread by up to 23% between processes


def check_batches(kbests):
    """The lists' head matrices in runs of at least the reader's batch of tokens."""
    batches = [[]]
    for kb in kbests:
        if sum(heads.size for heads in batches[-1]) >= _CHECK_TOKENS:
            batches.append([])
        batches[-1].append(kb.heads)
    return batches


def uncounted(kbests):
    """New copies of the lists, sharing their arrays, with no attachment counts kept."""
    return [KBestList._unchecked(kb.gold, kb.heads, kb.scores) for kb in kbests]


def same_lists(read, written):
    return len(read) == len(written) and all(
        a.gold == b.gold and np.array_equal(a.heads, b.heads) and np.array_equal(a.scores, b.scores)
        for a, b in zip(read, written))


def rows(wl, inputs, directory):
    """The lists of each role, and {name: (role, call)} of every row, in stage order."""
    train = sorted(inputs[wl.train_role][0], key=_kbest_digest)  # the order that numbers pairs
    dev = inputs["dev"][0]
    target, gold_path, kbest_path = inputs[wl.rerank_role]
    signed_path = os.path.join(directory, "signed.conll")
    with open(gold_path, encoding="utf-8") as gold, open(kbest_path, encoding="utf-8") as kbest:
        gold_lines, kbest_lines = gold.readlines(), kbest.readlines()
    signed, signs = re.subn(r"(^|\n\n)((?:[^\t\n]*\t){6})", r"\1\2+", "".join(gold_lines))
    with open(signed_path, "w", encoding="utf-8") as f:
        f.write(signed)
    # no row times other data than the lists written
    assert signs == len(target) and same_lists(read_kbest_files(gold_path, kbest_path), target)
    assert same_lists(read_kbest(gold_lines, kbest_lines), target)
    assert load_conll(signed_path) == [kb.gold for kb in target]

    golds = [kb.gold for kb in train]
    params = init_random(Hyperparams(m=W.M, m_d=W.M_D, k=wl.k), build_word_vocab(golds),
                         build_pos_vocab(golds), TrainConfig().seed)
    kappa, punct = params.hyper.kappa, PUNCT_SETS[W.PUNCT_SET]
    items = _SentenceItem.build_all(params, train, kappa)  # every pair exists from here on
    picks = [_pick(params, item) for item in items]
    steps = [(it.plan, acts, (idx + 1, 0)) for it, (idx, _, acts) in zip(items, picks)]
    grads = [backward_list(params, *step, (1.0, -1.0)) for step in steps]
    updated = params.copy()
    state = AdaGradState.from_params(updated)
    forests, dev_forests = build_forests(params, target), build_forests(params, dev)
    scores = corpus_model_scores(params, target)
    alpha, _ = search_alpha(params, target, W.ALPHA_STEP, punct, model_scores=scores)
    batches = check_batches(target)
    chosen = [kb.candidates[len(kb) // 2][0] for kb in target]

    def dev_selection():
        dev_scores = [s for forest in dev_forests for s in forest_scores(params, forest)]
        return rerank_corpus(params, dev, RerankConfig(alpha=1.0), punct, model_scores=dev_scores)

    def tail(kbests):
        best, _ = search_alpha(params, kbests, W.ALPHA_STEP, punct, model_scores=scores)
        result = rerank_corpus(params, kbests, RerankConfig(alpha=best), punct, model_scores=scores)
        return write_conll(result.trees)

    def fresh():
        return uncounted(target)

    lists = {"train": len(train), "dev": len(dev), "rerank": len(target)}
    return lists, {
        "load_conll (gold)": ("rerank", lambda: load_conll(gold_path)),
        "load_conll, + heads": ("rerank", lambda: load_conll(signed_path)),
        "read_kbest_files": ("rerank", lambda: read_kbest_files(gold_path, kbest_path)),
        "read_kbest, line by line": ("rerank", lambda: read_kbest(gold_lines, kbest_lines)),
        "rooted_rows, batched": ("rerank", lambda: [rooted_rows(b) for b in batches]),
        "_SentenceItem.build_all": ("train", lambda: _SentenceItem.build_all(params, train, kappa)),
        "build_forests (one list per call)":
            ("rerank", lambda: [build_forests(params, [kb]) for kb in target]),
        "build_forests": ("rerank", lambda: build_forests(params, target)),
        "forward_list (train item)":
            ("train", lambda: [forward_list(params, item.plan) for item in items]),
        "forward_list (forests)": ("rerank", lambda: [forward_list(params, f) for f in forests]),
        "backward_list (pick + gold)":
            ("train", lambda: [backward_list(params, *step, (1.0, -1.0)) for step in steps]),
        "adagrad_step (pick + gold)":
            ("train", lambda: [adagrad_step(updated, state, g, params.hyper.lam) for g in grads]),
        "dev selection (one epoch)": ("dev", dev_selection),
        "search_alpha (scores given)": ("rerank", lambda kbests: search_alpha(
            params, kbests, W.ALPHA_STEP, punct, model_scores=scores), fresh),
        "rerank_corpus (scores given)": ("rerank", lambda kbests: rerank_corpus(
            params, kbests, RerankConfig(alpha=alpha), punct, model_scores=scores), fresh),
        "write_conll": ("rerank", lambda: write_conll(chosen)),
        "rerank tail": ("rerank", tail, fresh),
    }


def print_rows(lists, rows, repeats):
    """Time the rows, and print each one's list count, calls per lap, median
    per call, and median and interquartile range per list in calibrated
    microseconds. A row (role, call, fresh) is called as `call(fresh())`,
    each time on a new `fresh()`; a lap's are made before it, twice as many
    as MIN_LAP_S needs at the speed of one untimed call, and a lap that uses
    them all ends there."""
    names = list(rows)
    seconds, calls = {name: [] for name in names}, {name: [] for name in names}
    stocks = {}
    for name, (_, call, *fresh) in rows.items():
        if fresh:
            start = speed.clock()
            call(fresh[0]())
            stocks[name] = fresh[0], 2 * math.ceil(MIN_LAP_S / (speed.clock() - start))
    laps = speed.Laps(sampling=True)
    for r in range(repeats):
        for name in names if r % 2 == 0 else names[::-1]:
            call, count = rows[name][1], 0
            fresh, size = stocks.get(name, (None, 0))
            stock = [(fresh(),) for _ in range(size)] if fresh else itertools.repeat(())
            with laps.sampled():
                start = speed.clock()
                for args in stock:
                    call(*args)
                    count += 1
                    if speed.clock() - start >= MIN_LAP_S:
                        break
            seconds[name].append(laps.lap()[1] / count)
            calls[name].append(count)
    print(f"  {'':<36}{'lists':>12}{'calls':>7}{'per call':>10}{'median':>10}{'IQR':>9}  "
          f"(calibrated us per call and per list, {repeats} repeats)")
    for name, (role, *_) in rows.items():
        q1, median, q3 = np.percentile(seconds[name], [25, 50, 75]) * 1e6
        n = lists[role]
        print(f"  {name:<36}{role:>7}{n:>5}{int(np.median(calls[name])):>7}{median:>10.0f}"
              f"{median / n:>10.1f}{(q3 - q1) / n:>9.1f}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", nargs="+", choices=sorted(W.WORKLOADS), default=list(W.WORKLOADS))
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--repeats", type=int, default=7)
    args = ap.parse_args()
    for name in args.workload:
        wl = W.WORKLOADS[name]
        with tempfile.TemporaryDirectory() as directory:
            lists, timed = rows(wl, W.write_inputs(wl, args.seed, directory), directory)
            print(f"{name}, seed {args.seed}: train = {wl.train_role}.kbest, dev = dev.kbest, "
                  f"rerank = {wl.rerank_role}.kbest; m={W.M}, m_d={W.M_D}, k={wl.k}")
            print_rows(lists, timed, args.repeats)


if __name__ == "__main__":
    main()
