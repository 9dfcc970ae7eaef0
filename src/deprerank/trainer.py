"""Max-margin training over k-best lists with diagonal AdaGrad.

Each sentence contributes a hinge term: the margin-augmented score of the
strongest candidate minus the gold tree's score, clamped at zero. Updates are
per-sentence subgradient steps; L2 regularization is applied lazily, only to
the parameters a sentence touches.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from . import synth
from .errors import ScoreError
from .params import Hyperparams, ParamSet, init_random
from .rcnn import (
    Gradients, ListActivations, ListPlan, backward_list, build_forests, build_list_plans,
    forest_scores, forward_list, pool_winners,
)
# no longer used here; perfbench's tracer self-test still checks this binding
from .rcnn import build_plan  # noqa: F401
from .reranker import RerankConfig, rerank_corpus
from .treebank import PUNCT_SETS, KBestList


@dataclass
class _SentenceItem:
    """Per-sentence training state: one list plan over its trees (gold as
    tree 0, then the candidates) and the margin terms, kappa times each
    candidate's number of wrong heads (punctuation included)."""

    plan: ListPlan
    deltas: np.ndarray

    @classmethod
    def build_all(cls, params: ParamSet, kbests: Sequence[KBestList],
                  kappa: float) -> list["_SentenceItem"]:
        """One item per list, their plans built in batches (`build_list_plans`)."""
        if not all(len(kb) for kb in kbests):
            raise ValueError("candidate list must be non-empty")
        # gold, then the candidates: rows the lists have checked; scores unread
        lists = [KBestList._unchecked(kb.gold, np.vstack([kb.gold.heads, kb.heads]),
                                      np.zeros(len(kb) + 1)) for kb in kbests]
        plans = build_list_plans(params, lists)
        return [cls(plan, kappa * np.add.reduce(kb.heads[1:] != kb.heads[0], axis=1))
                for kb, plan in zip(lists, plans)]


def _pick(params: ParamSet, item: _SentenceItem) -> tuple[int, float, ListActivations]:
    """Loss-augmented selection: (candidate index, hinge, the list's activations),
    ties to the lowest index."""
    scores, acts = forward_list(params, item.plan)
    aug = scores[1:] + item.deltas
    idx = int(aug.argmax())
    return idx, max(0.0, float(aug[idx] - scores[0])), acts


def _subgradient(params: ParamSet, item: _SentenceItem) -> tuple[Gradients, float]:
    """Subgradient of the sentence hinge; empty when the hinge is inactive."""
    idx, hinge, acts = _pick(params, item)
    if hinge <= 0.0:
        return Gradients(), hinge
    # the hinge is score(picked) - score(gold) + margin; gold is plan row 0
    return backward_list(params, item.plan, acts, (idx + 1, 0), (1.0, -1.0)), hinge


@dataclass
class AdaGradState:
    """Per-coordinate squared-gradient sums."""

    acc_words: np.ndarray
    acc_dists: np.ndarray
    acc_W: np.ndarray
    acc_v: np.ndarray

    @classmethod
    def from_params(cls, params: ParamSet) -> "AdaGradState":
        """Zero sums for every parameter; make the state after the last POS
        pair is created (`train()` builds every training item first)."""
        pp = params.pos_pairs
        return cls(*map(np.zeros_like, (params.words.vectors, params.distances.vectors,
                                         pp.W, pp.v)))


def _apply_update(theta: np.ndarray, acc: np.ndarray, grad: np.ndarray, lam: float,
                  rho: float, eff: np.ndarray, tmp: np.ndarray) -> None:
    """In place, element by element: eff = grad + lam * theta, acc += eff * eff,
    theta -= rho * eff / sqrt(acc), where the denominator is positive
    (elsewhere, as for 0 / 0, theta is kept). `eff` and `tmp` are buffers of
    theta's shape."""
    np.multiply(theta, lam, out=eff)
    np.add(grad, eff, out=eff)
    np.multiply(eff, eff, out=tmp)
    np.add(acc, tmp, out=acc)
    np.sqrt(acc, out=tmp)
    where = True if np.minimum.reduce(tmp, axis=None) > 0.0 else tmp > 0.0
    np.divide(eff, tmp, out=eff, where=where)
    np.multiply(eff, rho, out=eff)
    np.subtract(theta, eff, out=theta, where=where)


def adagrad_step(params: ParamSet, state: AdaGradState, grads: Gradients,
                 lam: float) -> None:
    """One diagonal-AdaGrad update over exactly the touched parameters.

    Word rows, distance rows and v slots are gathered per table, updated as
    one block and scattered back. W slots are updated in place, one run of
    consecutive slots at a time: W blocks are large, and gathering and
    scattering them costs more element passes than the calls it saves.
    """
    pp, args = params.pos_pairs, (lam, params.hyper.rho)
    for table, acc, (rows, grad) in ((params.words.vectors, state.acc_words, grads.words),
                                     (params.distances.vectors, state.acc_dists, grads.dists),
                                     (pp.v, state.acc_v, grads.pair_v)):
        if len(rows):
            theta, sums = table[rows], acc[rows]
            _apply_update(theta, sums, grad, *args, *np.empty((2,) + grad.shape))
            table[rows], acc[rows] = theta, sums
    slots, grad = grads.pair_W
    if not len(slots):
        return
    W, (eff, tmp) = pp.W, np.empty((2,) + grad.shape)
    cuts = (((slots[1:] - slots[:-1]) != 1).nonzero()[0] + 1).tolist()
    for i0, i1 in zip([0] + cuts, cuts + [len(slots)]):  # runs of consecutive slots
        s0, s1 = int(slots[i0]), int(slots[i0]) + i1 - i0
        _apply_update(W[s0:s1], state.acc_W[s0:s1], grad[i0:i1], *args,
                      eff[:i1 - i0], tmp[:i1 - i0])


def _kbest_digest(kb: KBestList) -> bytes:
    """Content digest used to order sentences canonically before shuffling:
    blake2b of the list as text, one line per gold token and per candidate."""
    names = [str(h) for h in range(len(kb.gold) + 1)]  # every head value's text
    gold = kb.gold
    lines = [f"{f}\t{p}\t{h}\n" for f, p, h in zip(gold.forms, gold.pos_tags, gold.heads)]
    lines += ["C " + " ".join([names[h] for h in heads]) + f" {score!r}\n"
              for heads, score in zip(kb.heads.tolist(), kb.scores.tolist())]
    return hashlib.blake2b("".join(lines).encode("utf-8"), digest_size=16).digest()


@dataclass
class TrainConfig:
    max_epochs: int = 20
    patience: int = 5
    seed: int = 0
    punct_tags: frozenset[str] = PUNCT_SETS["ptb"]

    def __post_init__(self):
        if self.max_epochs < 1:
            raise ValueError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if self.patience < 1:
            raise ValueError(f"patience must be >= 1, got {self.patience}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass
class TrainReport:
    epoch: int
    mean_hinge: float
    violations: int
    dev_uas: float


def train(params: ParamSet, train_kbest: Sequence[KBestList],
          dev_kbest: Sequence[KBestList], config: TrainConfig,
          on_epoch: Callable[[TrainReport], None] | None = None
          ) -> tuple[ParamSet, list[TrainReport]]:
    """Epochs of shuffled per-sentence updates; returns the best-dev parameters.

    Dev selection scores candidates with the model alone (mixture weight 1),
    with the fallback pair derived from the pairs learned so far; the returned
    parameters keep that fallback. The dev forests (`build_forests`) are built
    once and scored every epoch by `forest_scores`, as `rcnn.score_lists`
    scores a corpus, so the saved model reranks dev (k <= hyper.k) with the
    selected UAS, bit for bit; picks are counted (no tree is built).
    After each epoch's steps, a parameter table or dev score that is not
    finite raises `ScoreError`, naming the epoch.
    Identical seeds, data, and config reproduce the exact report sequence;
    sentences are ordered by content digest before shuffling, so the result
    does not depend on the order sentences appear in the input files.
    """
    if not train_kbest:
        raise ValueError("training set is empty")
    if not dev_kbest:
        raise ValueError("dev set is empty (used to select the returned parameters)")
    hyper = params.hyper
    rng = np.random.default_rng(config.seed)
    ordered = sorted((kb.truncated(hyper.k) for kb in train_kbest), key=_kbest_digest)
    items = _SentenceItem.build_all(params, ordered, hyper.kappa)
    dev = [kb.truncated(hyper.k) for kb in dev_kbest]
    dev_forests = build_forests(params, dev)
    state = AdaGradState.from_params(params)
    best = params.copy()
    best_uas = -1.0
    best_epoch = 0
    reports: list[TrainReport] = []
    for epoch in range(1, config.max_epochs + 1):
        total_hinge = 0.0
        violations = 0
        for idx in rng.permutation(len(items)):
            grads, hinge = _subgradient(params, items[idx])
            total_hinge += hinge
            if hinge > 0.0:
                violations += 1
                adagrad_step(params, state, grads, hyper.lam)
        pp = params.pos_pairs
        pp.finalize_fallback()  # dev's unseen pairs read slot 0
        dev_scores = [s for forest in dev_forests for s in forest_scores(params, forest)]
        for what, values in (("word vectors", params.words.vectors),
                             ("distance vectors", params.distances.vectors),
                             ("composition matrices", pp.W), ("score vectors", pp.v),
                             ("dev scores", np.concatenate(dev_scores))):
            if not np.logical_and.reduce(np.isfinite(values), axis=None):
                raise ScoreError(f"epoch {epoch}: the {what} are not finite")
        dev_res = rerank_corpus(params, dev, RerankConfig(alpha=1.0), config.punct_tags,
                                model_scores=dev_scores)
        report = TrainReport(epoch, total_hinge / len(items), violations,
                             dev_res.score.uas)
        reports.append(report)
        if on_epoch is not None:
            on_epoch(report)
        if report.dev_uas > best_uas:
            best_uas = report.dev_uas
            best = params.copy()
            best_epoch = epoch
        elif epoch - best_epoch >= config.patience:
            break
    return best, reports


# ---------------------------------------------------------------------------
# gradient checking

@dataclass
class GradCheckReport:
    """Worst analytic-vs-numeric disagreement over one or more sentences' hinge terms."""

    active: int = 0              # sentences whose hinge > 0 at the unperturbed point
    checked: int = 0
    skipped: int = 0             # parameters near a pooling tie
    max_rel_error: float = 0.0
    worst: str = ""

    def passed(self, tolerance: float) -> bool:
        return self.max_rel_error < tolerance


def _grad_entries(params: ParamSet, grads: Gradients) -> Iterator[tuple[str, float, np.ndarray, tuple]]:
    pp = params.pos_pairs
    for name, table, (rows, values) in (("word", params.words.vectors, grads.words),
                                        ("dist", params.distances.vectors, grads.dists),
                                        ("W", pp.W, grads.pair_W), ("v", pp.v, grads.pair_v)):
        for row, grad in zip(rows.tolist(), values):
            for j in np.ndindex(grad.shape):
                label = ",".join(map(str, (row, *j)))
                yield f"{name}[{label}]", float(grad[j]), table, (row, *j)


def grad_check(params: ParamSet, kb: KBestList, epsilon: float = 1e-5,
               report: GradCheckReport | None = None) -> GradCheckReport:
    """Central differences of the score gap, the picked candidate's score
    minus the gold tree's, vs the analytic subgradient of the hinge (the gap
    plus a constant margin), added to `report` (a new one if None), which is
    returned.

    A parameter is skipped (not failed) when perturbing it by epsilon moves
    a pooling winner of either tree: the gap is smooth only away from those
    kinks. A difference of exactly 0 is exact; any other is divided by
    max(|analytic|, |numeric|, 1e-6 * the sentence's largest |analytic|).
    """
    report = GradCheckReport() if report is None else report
    [item] = _SentenceItem.build_all(params, [kb], params.hyper.kappa)
    idx0, hinge0, acts = _pick(params, item)
    if hinge0 <= 0.0:
        return report
    trees = (idx0 + 1, 0)
    winners0 = pool_winners(item.plan, acts, trees)
    grads = backward_list(params, item.plan, acts, trees, (1.0, -1.0))
    report.active += 1
    entries = list(_grad_entries(params, grads))
    floor = 1e-6 * max((abs(analytic) for _, analytic, _, _ in entries), default=0.0)

    def probe():
        scores, acts = forward_list(params, item.plan)
        return (float(scores[idx0 + 1] - scores[0]),
                np.array_equal(pool_winners(item.plan, acts, trees), winners0))

    for label, analytic, arr, index in entries:
        old = arr[index]
        arr[index] = old + epsilon
        hi, ok_hi = probe()
        arr[index] = old - epsilon
        lo, ok_lo = probe()
        arr[index] = old
        if not (ok_hi and ok_lo):
            report.skipped += 1
            continue
        numeric = (hi - lo) / (2.0 * epsilon)
        report.checked += 1
        diff = abs(analytic - numeric)
        if diff == 0.0:
            continue
        rel = diff / max(abs(analytic), abs(numeric), floor)
        if rel > report.max_rel_error:
            report.max_rel_error = rel
            report.worst = f"{label}: analytic {analytic:.3e} vs numeric {numeric:.3e}"
    return report


def run_grad_check_suite(seed: int, instances: int = 50) -> GradCheckReport:
    """Gradient-check random sentences of 2-6 tokens, each with fresh random
    parameters (m = m_d = k = 3), at epsilon 1e-5, into one report."""
    rng = np.random.default_rng(seed)
    vocab = [f"word{i:02d}" for i in range(12)]
    report = GradCheckReport()
    for _ in range(instances):
        par = init_random(Hyperparams(m=3, m_d=3, k=3), vocab, list(synth.DEFAULT_TAGS),
                          seed=int(rng.integers(2 ** 31)))
        gold = synth.random_tree(rng, int(rng.integers(2, 7)), vocab)
        grad_check(par, synth.synth_kbest(rng, gold, 3), report=report)
    return report
