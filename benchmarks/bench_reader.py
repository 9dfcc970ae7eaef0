#!/usr/bin/env python3
"""Benchmark the k-best reader, per list, on synthetic files.

Writes a gold CoNLL file and a k-best file for two corpora, 8-best lists of
5-60 tokens and 64-best lists of 20-30 tokens (the shapes of perfbench's
rerank-k8-long and rerank-k64), and times per list: `load_conll` of the gold
file; `load_conll` of the same file with one head per sentence written with
a + sign, which int() reads but the block parser leaves to the line-by-line
path, so every sentence takes that path; `read_kbest_files` (which parses the
gold file too); `read_kbest` over the same lines given as a list, which
times the exact path, `_read_candidates`: every list of a list source is
read line by line, with `int()` per head and one tree check per list, as is
every list of a k-best file that is not in `write_kbest`'s form;
`rooted_rows` over the lists' head matrices in the batches the reader
checks; and `write_conll` of one candidate tree per list, built from the
gold trees read. Each step is timed over all the lists, in turn, on a
calibrated clock (`layer_rows.py`), and its median and IQR per list are
printed. Run from a checkout:

    PYTHONPATH=src python3 benchmarks/bench_reader.py --sentences 200
"""

import argparse
import os
import tempfile

import numpy as np

from deprerank import treebank
from deprerank.synth import random_tree, synth_kbest
from layer_rows import print_rows

CORPORA = {"k = 8, 5-60 tokens": (8, (5, 60)), "k = 64, 20-30 tokens": (64, (20, 30))}


def write_corpus(directory, rng, sentences, k, lengths, vocab):
    kbests = []
    for _ in range(sentences):
        gold = random_tree(rng, int(rng.integers(lengths[0], lengths[1] + 1)), vocab)
        kbests.append(synth_kbest(rng, gold, k, max_changes=max(1, len(gold) // 4)))
    gold_path, signed_path, kbest_path = (os.path.join(directory, f"k{k}{ext}")
                                          for ext in (".conll", "-signed.conll", ".kbest"))
    gold = treebank.write_conll(kb.gold for kb in kbests)
    with open(gold_path, "w", encoding="utf-8") as f:
        f.write(gold)
    with open(signed_path, "w", encoding="utf-8") as f:
        f.write("\n\n".join(signed_head(block) for block in gold.rstrip("\n").split("\n\n")) + "\n")
    with open(kbest_path, "w", encoding="utf-8") as f:
        f.write(treebank.write_kbest(kbests))
    return gold_path, signed_path, kbest_path


def signed_head(sentence):
    """The lines of a sentence with the first one's head written as +h."""
    first, _, rest = sentence.partition("\n")
    cols = first.split("\t")
    cols[6] = "+" + cols[6]
    return "\n".join(["\t".join(cols)] + ([rest] if rest else []))


def check_batches(kbests):
    """The lists' head matrices in runs of at least the reader's batch of tokens."""
    batches, batch, tokens = [], [], 0
    for kb in kbests:
        batch.append(kb.heads)
        tokens += kb.heads.size
        if tokens >= treebank._CHECK_TOKENS:
            batches.append(batch)
            batch, tokens = [], 0
    return batches + [batch] if batch else batches


def rows(gold_path, signed_path, kbest_path):
    """Each row's call over all the lists, and the lists read."""
    with open(gold_path, encoding="utf-8") as f:
        gold_lines = f.readlines()
    with open(kbest_path, encoding="utf-8") as f:
        kbest_lines = f.readlines()
    kbests = treebank.read_kbest_files(gold_path, kbest_path)
    assert treebank.load_conll(signed_path) == [kb.gold for kb in kbests]
    batches = check_batches(kbests)
    chosen = [kb.candidates[len(kb) // 2][0] for kb in kbests]
    return {
        "load_conll (gold)": lambda: treebank.load_conll(gold_path),
        "load_conll, + heads": lambda: treebank.load_conll(signed_path),
        "read_kbest_files": lambda: treebank.read_kbest_files(gold_path, kbest_path),
        "read_kbest, line by line": lambda: treebank.read_kbest(gold_lines, kbest_lines),
        "rooted_rows, batched": lambda: [treebank.rooted_rows(b) for b in batches],
        "write_conll": lambda: treebank.write_conll(chosen),
    }, kbests


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sentences", type=int, default=200)
    ap.add_argument("--vocab", type=int, default=300)
    ap.add_argument("--repeats", type=int, default=9)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    vocab = [f"w{i:03d}" for i in range(args.vocab)]
    with tempfile.TemporaryDirectory() as directory:
        for label, (k, lengths) in CORPORA.items():
            paths = write_corpus(directory, rng, args.sentences, k, lengths, vocab)
            timed, kbests = rows(*paths)
            print(f"{args.sentences} lists, {label} "
                  f"({sum(len(kb) for kb in kbests)} candidates)")
            print_rows(timed, args.repeats, len(kbests), "list", indent="  ")


if __name__ == "__main__":
    main()
