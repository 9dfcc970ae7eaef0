"""Max-margin training over k-best lists with diagonal AdaGrad.

Each sentence contributes a hinge term: the margin-augmented score of the
strongest candidate minus the gold tree's score, clamped at zero. Updates are
per-sentence subgradient steps; L2 regularization is applied lazily, only to
the parameters a sentence touches.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from . import synth
from .params import Hyperparams, ParamSet, init_random
from .rcnn import (
    Gradients, ListActivations, ListPlan, backward_list, build_list_plan, forward_list,
    pool_winners, score_list,
)
# no longer used here; perfbench's tracer self-test still checks this binding
from .rcnn import build_plan  # noqa: F401
from .reranker import RerankConfig, rerank_corpus
from .treebank import KBestList


@dataclass
class _SentenceItem:
    """Per-sentence training state: one list plan over its head matrix (gold
    in row 0, then the candidates) and the margin terms, kappa times each
    candidate's number of wrong heads (punctuation included)."""

    heads: np.ndarray
    plan: ListPlan
    deltas: np.ndarray

    @classmethod
    def build(cls, params: ParamSet, kb: KBestList, kappa: float) -> "_SentenceItem":
        if not len(kb):
            raise ValueError("candidate list must be non-empty")
        gold = np.array([kb.gold.heads], dtype=np.int64)
        heads = np.concatenate([gold, kb.heads])
        plan = build_list_plan(params, kb.gold.forms, kb.gold.pos_tags, heads,
                               create_pairs=True)
        return cls(heads, plan, kappa * (kb.heads != gold).sum(axis=1))


def _pick(params: ParamSet, item: _SentenceItem) -> tuple[int, float, ListActivations]:
    """Loss-augmented selection: (candidate index, hinge, the list's activations),
    ties to the lowest index."""
    scores, acts = forward_list(params, item.plan)
    aug = scores[1:] + item.deltas
    idx = int(np.argmax(aug))
    return idx, max(0.0, float(aug[idx] - scores[0])), acts


def _subgradient(params: ParamSet, item: _SentenceItem) -> tuple[Gradients, float]:
    """Subgradient of the sentence hinge; empty when the hinge is inactive."""
    idx, hinge, acts = _pick(params, item)
    if hinge <= 0.0:
        return Gradients(), hinge
    # the hinge is score(picked) - score(gold) + margin; gold is plan row 0
    return backward_list(params, item.plan, acts, item.heads, (idx + 1, 0), (1.0, -1.0)), hinge


@dataclass
class AdaGradState:
    """Per-coordinate squared-gradient sums; grows with lazily created pairs."""

    rho: float
    eps: float
    acc_words: np.ndarray
    acc_dists: np.ndarray
    acc_W: np.ndarray
    acc_v: np.ndarray

    @classmethod
    def from_params(cls, params: ParamSet, eps: float = 0.0) -> "AdaGradState":
        pp = params.pos_pairs
        return cls(params.hyper.rho, eps,
                   np.zeros_like(params.words.vectors),
                   np.zeros_like(params.distances.vectors),
                   np.zeros((pp.count, pp.m, pp.n)),
                   np.zeros((pp.count, pp.m)))

    def sync(self, params: ParamSet) -> None:
        count = params.pos_pairs.count
        if count > len(self.acc_W):
            pad = count - len(self.acc_W)
            self.acc_W = np.concatenate(
                [self.acc_W, np.zeros((pad,) + self.acc_W.shape[1:])])
            self.acc_v = np.concatenate(
                [self.acc_v, np.zeros((pad,) + self.acc_v.shape[1:])])


def _apply_update(theta: np.ndarray, acc: np.ndarray, grad: np.ndarray,
                  lam: float, rho: float, eps: float) -> None:
    eff = grad + lam * theta
    acc += eff * eff
    denom = np.sqrt(acc) + eps
    update = np.divide(eff, denom, out=np.zeros_like(eff), where=denom > 0.0)
    theta -= rho * update


def adagrad_step(params: ParamSet, state: AdaGradState, grads: Gradients,
                 lam: float) -> None:
    """One diagonal-AdaGrad update over exactly the touched parameters."""
    state.sync(params)
    for row, g in grads.words.items():
        _apply_update(params.words.vectors[row], state.acc_words[row], g,
                      lam, state.rho, state.eps)
    for row, g in grads.dists.items():
        _apply_update(params.distances.vectors[row], state.acc_dists[row], g,
                      lam, state.rho, state.eps)
    for slot, g in grads.pair_W.items():
        W, _ = params.pos_pairs.get(slot)
        _apply_update(W, state.acc_W[slot], g, lam, state.rho, state.eps)
    for slot, g in grads.pair_v.items():
        _, v = params.pos_pairs.get(slot)
        _apply_update(v, state.acc_v[slot], g, lam, state.rho, state.eps)


def _kbest_digest(kb: KBestList) -> bytes:
    """Content digest used to order sentences canonically before shuffling."""
    h = hashlib.blake2b(digest_size=16)
    for tok in kb.gold.tokens:
        h.update(f"{tok.form}\t{tok.pos}\t{tok.head}\n".encode("utf-8"))
    for heads, score in zip(kb.heads.tolist(), kb.scores.tolist()):
        h.update(("C " + " ".join(map(str, heads)) + f" {score!r}\n").encode("utf-8"))
    return h.digest()


@dataclass
class TrainConfig:
    max_epochs: int = 20
    patience: int = 5
    seed: int = 0
    punct_tags: frozenset[str] = frozenset()
    adagrad_eps: float = 0.0

    def __post_init__(self):
        if self.max_epochs < 1:
            raise ValueError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not (math.isfinite(self.adagrad_eps) and self.adagrad_eps >= 0.0):
            raise ValueError(f"adagrad_eps must be a finite number >= 0, got {self.adagrad_eps}")


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

    Dev selection scores candidates with the model alone (mixture weight 1).
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
    items = [_SentenceItem.build(params, kb, hyper.kappa) for kb in ordered]
    dev = [kb.truncated(hyper.k) for kb in dev_kbest]
    dev_plans = [build_list_plan(params, kb.gold.forms, kb.gold.pos_tags, kb.heads)
                 for kb in dev]
    state = AdaGradState.from_params(params, eps=config.adagrad_eps)
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
        dev_scores = [score_list(params, plan).tolist() for plan in dev_plans]
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
    """Worst analytic-vs-numeric disagreement over one sentence's hinge term."""

    active: bool                 # hinge > 0 at the unperturbed point
    checked: int = 0
    skipped: int = 0             # parameters near a pooling tie or hinge kink
    max_rel_error: float = 0.0
    worst: str = ""

    def passed(self, tolerance: float) -> bool:
        return (not self.active) or self.max_rel_error < tolerance


def _grad_entries(params: ParamSet, grads: Gradients) -> Iterator[tuple[str, float, np.ndarray, tuple]]:
    for row, g in grads.words.items():
        for j in range(g.size):
            yield f"word[{row},{j}]", float(g[j]), params.words.vectors, (row, j)
    for row, g in grads.dists.items():
        for j in range(g.size):
            yield f"dist[{row},{j}]", float(g[j]), params.distances.vectors, (row, j)
    for slot, g in grads.pair_W.items():
        W, _ = params.pos_pairs.get(slot)
        for j in range(g.shape[0]):
            for c in range(g.shape[1]):
                yield f"W[{slot},{j},{c}]", float(g[j, c]), W, (j, c)
    for slot, g in grads.pair_v.items():
        _, v = params.pos_pairs.get(slot)
        for j in range(g.size):
            yield f"v[{slot},{j}]", float(g[j]), v, (j,)


def grad_check(params: ParamSet, kb: KBestList, epsilon: float = 1e-5,
               tolerance: float = 1e-4, kappa: float | None = None,
               abs_floor: float = 1e-9) -> GradCheckReport:
    """Central differences of the hinge vs the analytic subgradient.

    A parameter is skipped (not failed) when perturbing it by epsilon flips the
    loss-augmented pick, deactivates the hinge, or moves a pooling argmax:
    the subgradient is only required to match away from those kinks.
    """
    kappa = params.hyper.kappa if kappa is None else kappa
    item = _SentenceItem.build(params, kb, kappa)
    idx0, hinge0, acts = _pick(params, item)
    if hinge0 <= 0.0:
        return GradCheckReport(active=False)
    trees = (idx0 + 1, 0)
    winners0 = pool_winners(item.plan, acts, item.heads, trees)
    grads = backward_list(params, item.plan, acts, item.heads, trees, (1.0, -1.0))
    report = GradCheckReport(active=True)

    def probe():
        idx, hinge, acts = _pick(params, item)
        same = (idx == idx0 and hinge > 0.0
                and np.array_equal(pool_winners(item.plan, acts, item.heads, trees), winners0))
        return hinge, same

    for label, analytic, arr, index in _grad_entries(params, grads):
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
        if diff <= abs_floor:
            continue
        rel = diff / max(abs(analytic), abs(numeric))
        if rel > report.max_rel_error:
            report.max_rel_error = rel
            report.worst = f"{label}: analytic {analytic:.3e} vs numeric {numeric:.3e}"
    return report


@dataclass
class GradCheckSuite:
    seed: int
    instances: int
    active: int
    checked: int
    skipped: int
    max_rel_error: float
    worst: str = ""

    def passed(self, tolerance: float) -> bool:
        return self.max_rel_error < tolerance


def run_grad_check_suite(seed: int, instances: int = 50, max_len: int = 6,
                         m: int = 3, m_d: int = 3, k: int = 3,
                         epsilon: float = 1e-5, tolerance: float = 1e-4) -> GradCheckSuite:
    """Gradient-check many random sentences with fresh random parameters each."""
    rng = np.random.default_rng(seed)
    vocab = [f"word{i:02d}" for i in range(12)]
    suite = GradCheckSuite(seed, instances, 0, 0, 0, 0.0)
    for _ in range(instances):
        hyper = Hyperparams(m=m, m_d=m_d, k=k)
        par = init_random(hyper, vocab, list(synth.DEFAULT_TAGS),
                          seed=int(rng.integers(2 ** 31)))
        length = int(rng.integers(2, max_len + 1))
        gold = synth.random_tree(rng, length, vocab)
        kb = synth.synth_kbest(rng, gold, k)
        rep = grad_check(par, kb, epsilon, tolerance)
        if rep.active:
            suite.active += 1
        suite.checked += rep.checked
        suite.skipped += rep.skipped
        if rep.max_rel_error > suite.max_rel_error:
            suite.max_rel_error = rep.max_rel_error
            suite.worst = rep.worst
    return suite
