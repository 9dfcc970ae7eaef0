"""Workload definitions and the deterministic input generator.

Every input is built from the run's seed with `synth.random_tree` and
`synth.synth_kbest` and written with `treebank.write_conll`/`write_kbest`, so
the program under test only ever sees files. Why each workload exists:

* train-k64: the only workload that runs `tree_backward` and `adagrad_step`,
  and it re-scores dev every epoch; after training it reranks dev with
  `--search-alpha` at k = 64 on 20-30-token sentences. Candidates differ
  from gold by 1-3 heads, so about half of the head-child units repeat within
  a list: subtree sharing has the most to reuse here.
* rerank-k64: forward-only `--search-alpha` on 100 held-out 20-30-token
  lists at k = 64, the shape of the project's end-to-end aim. No backward, no
  update: `build_plan` and `tree_forward` carry the scoring and
  `read_kbest_files` the set-up; the most for subtree sharing to reuse.
* rerank-k8-long: forward-only reranking with `--search-alpha` at k = 8 on
  5-60-token sentences with up to n/4 corrupted heads per candidate: less to
  share and more fixed cost per sentence. A change that batches or
  hash-conses per list must not lose here.

Rerank workloads first train the model they rerank with, on a separate
model-prep set of their own shape.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from deprerank import synth, treebank

M = 25
M_D = 25
VOCAB = [f"w{i:03d}" for i in range(300)]
PUNCT_SET = "ptb"
ALPHA_STEP = 0.005


@dataclass(frozen=True)
class Corpus:
    """Shape of one generated corpus. max_changes 0 means n // 4 per sentence."""

    sentences: int
    length: tuple[int, int]
    k: int
    max_changes: int


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str            # "train" or "rerank"
    main: Corpus         # train set (train) or held-out lists to rerank (rerank)
    dev: Corpus          # dev set scored every epoch (train) or model-prep dev set
    prep: Corpus | None  # model-prep train set (rerank workloads only)
    epochs: int

    @property
    def k(self) -> int:
        return self.main.k

    @property
    def train_role(self) -> str:
        """The corpus a pass trains on: the train set, or the model-prep set."""
        return "main" if self.kind == "train" else "prep"

    @property
    def rerank_role(self) -> str:
        """The corpus a pass reranks with the trained model: dev, or the held-out lists."""
        return "dev" if self.kind == "train" else "main"

    @property
    def ops_per_pass(self) -> int:
        """Sentences one pass handles: trained sentence-epochs plus reranked lists."""
        trained = getattr(self, self.train_role).sentences * self.epochs
        return trained + getattr(self, self.rerank_role).sentences


_K64 = dict(length=(20, 30), k=64, max_changes=3)
_K8_LONG = dict(length=(5, 60), k=8, max_changes=0)

WORKLOADS = {
    w.name: w for w in (
        Workload("train-k64", "train", Corpus(20, **_K64), Corpus(20, **_K64),
                 None, epochs=2),
        Workload("rerank-k64", "rerank", Corpus(100, **_K64), Corpus(5, **_K64),
                 Corpus(10, **_K64), epochs=2),
        Workload("rerank-k8-long", "rerank", Corpus(400, **_K8_LONG),
                 Corpus(10, **_K8_LONG), Corpus(40, **_K8_LONG), epochs=2),
    )
}


def generate(rng: np.random.Generator, spec: Corpus) -> list[treebank.KBestList]:
    """Sentence lengths cover the range evenly, in random order, so that the
    amount of work per corpus does not drift with the seed."""
    lo, hi = spec.length
    lengths = np.resize(np.arange(lo, hi + 1), spec.sentences)
    rng.shuffle(lengths)
    out = []
    for length in lengths:
        gold = synth.random_tree(rng, int(length), VOCAB)
        changes = spec.max_changes or max(1, len(gold) // 4)
        out.append(synth.synth_kbest(rng, gold, spec.k, max_changes=changes))
    return out


def write_corpus(kbests, directory: str, stem: str) -> tuple[str, str]:
    """Write `<stem>.conll` and `<stem>.kbest`; returns their paths."""
    gold = os.path.join(directory, f"{stem}.conll")
    kbest = os.path.join(directory, f"{stem}.kbest")
    with open(gold, "w", encoding="utf-8") as f:
        f.write(treebank.write_conll(kb.gold for kb in kbests))
    with open(kbest, "w", encoding="utf-8") as f:
        f.write(treebank.write_kbest(kbests))
    return gold, kbest


def write_inputs(workload: Workload, seed: int, directory: str) -> dict[str, tuple]:
    """Generate and write every corpus of a workload. Same seed, same bytes.

    Returns {role: (kbests, gold_path, kbest_path)} for the roles "main",
    "dev" and (rerank workloads) "prep". Each corpus has its own random
    stream, so resizing one leaves the others unchanged.
    """
    out = {}
    for stream, role in enumerate(("main", "dev", "prep")):
        spec = getattr(workload, role)
        if spec is None:
            continue
        kbests = generate(np.random.default_rng([seed, stream]), spec)
        out[role] = (kbests,) + write_corpus(kbests, directory, role)
    return out


def unit_counts(kb: treebank.KBestList) -> tuple[int, int]:
    """(unique, total) head-child units over the candidates of one list.

    A unit is an internal node with all its children; two units are the same
    when their node and the signatures of all child subtrees are the same,
    because then the unit's output is the same. The unique share caps what
    scoring shared subtrees once per list can save.
    """
    signatures: dict[tuple, int] = {}
    total = 0
    for tree, _ in kb.candidates:
        heads = tree.heads
        children: list[list[int]] = [[] for _ in range(len(heads) + 1)]
        for child, head in enumerate(heads, start=1):
            children[head].append(child)
        sig: dict[int, int] = {}
        stack, order = [0], []
        while stack:
            node = stack.pop()
            order.append(node)
            stack.extend(children[node])
        for node in reversed(order):
            key = (node, tuple(sig[c] for c in children[node]))
            sig[node] = signatures.setdefault(key, len(signatures))
            if children[node]:
                total += 1
    unique = sum(1 for node, kids in signatures if kids)
    return unique, total


def input_stats(kbests) -> dict[str, float]:
    unique = total = tokens = cands = 0
    for kb in kbests:
        u, t = unit_counts(kb)
        unique += u
        total += t
        tokens += len(kb.gold)
        cands += len(kb.candidates)
    return {
        "input.unique_unit_ratio": unique / total,
        "input.mean_len": tokens / len(kbests),
        "input.cands": cands,
    }
