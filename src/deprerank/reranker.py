"""Mixture re-ranking of k-best lists, alpha grid search, and per-POS accuracy."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import AlignmentError
from .params import ParamSet
from .rcnn import build_list_plan, score_list
# no longer used here; perfbench's tracer self-test still checks this binding
from .rcnn import score_tree  # noqa: F401
from .treebank import DependencyTree, EvalResult, KBestList, corpus_oracle, uas


@dataclass
class RerankConfig:
    """How candidates are mixed and selected."""

    alpha: float
    alpha_step: float = 0.005
    include_oracle: bool = False
    normalize: bool = False  # per-sentence z-normalization of both score columns

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")
        if not 0.0 < self.alpha_step <= 1.0:
            raise ValueError(f"alpha_step must lie in (0, 1], got {self.alpha_step}")


def mixture_score(alpha: float, model_score: float, base_score: float) -> float:
    return alpha * model_score + (1.0 - alpha) * base_score


def augmented_candidates(kb: KBestList,
                         include_oracle: bool) -> list[tuple[DependencyTree, float]]:
    """Candidate list, with the gold tree appended (at the best base score) if asked.

    Giving the oracle the maximum base score keeps alpha < 1 from burying it.
    """
    cands = list(kb.candidates)
    if include_oracle:
        cands.append((kb.gold, max(s for _, s in kb.candidates)))
    return cands


def candidate_model_scores(params: ParamSet, kb: KBestList,
                           include_oracle: bool = False) -> list[float]:
    """Model score per candidate (oracle last), from one forward pass over the list."""
    trees = [tree for tree, _ in augmented_candidates(kb, include_oracle)]
    if not trees:
        return []
    return score_list(params, build_list_plan(params, trees)).tolist()


def _znorm(scores: np.ndarray) -> np.ndarray:
    std = scores.std()
    if std == 0.0:
        return np.zeros_like(scores)
    return (scores - scores.mean()) / std


def _mixture_columns(kb: KBestList, config: RerankConfig,
                     model_scores: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    cands = augmented_candidates(kb, config.include_oracle)
    if len(model_scores) != len(cands):
        raise ValueError(f"expected {len(cands)} model scores, got {len(model_scores)}")
    model = np.asarray(model_scores, dtype=np.float64)
    base = np.asarray([s for _, s in cands], dtype=np.float64)
    if config.normalize:
        model, base = _znorm(model), _znorm(base)
    return model, base


def rerank_sentence(params: ParamSet, kb: KBestList, config: RerankConfig,
                    model_scores: Sequence[float] | None = None) -> int:
    """Index of the mixture-score argmax (ties -> lowest index).

    With include_oracle the appended gold tree is index len(kb.candidates).
    Precomputed model_scores (one per candidate, oracle last) skip rescoring.
    """
    if model_scores is None:
        model_scores = candidate_model_scores(params, kb, config.include_oracle)
    model, base = _mixture_columns(kb, config, model_scores)
    mix = config.alpha * model + (1.0 - config.alpha) * base
    return int(np.argmax(mix))


@dataclass
class RerankResult:
    chosen: list[int]
    trees: list[DependencyTree]
    score: EvalResult
    # one row per sentence: (index, chosen rank 1-based, model, base, mixture)
    rows: list[tuple[int, int, float, float, float]]


def corpus_model_scores(params: ParamSet, kbests: Sequence[KBestList],
                        include_oracle: bool = False) -> list[list[float]]:
    """Model score per candidate per sentence."""
    return [candidate_model_scores(params, kb, include_oracle) for kb in kbests]


def rerank_corpus(params: ParamSet, kbests: Sequence[KBestList], config: RerankConfig,
                  punct_tags: frozenset[str] | set[str] = frozenset(),
                  model_scores: Sequence[Sequence[float]] | None = None) -> RerankResult:
    if model_scores is None:
        model_scores = corpus_model_scores(params, kbests, config.include_oracle)
    chosen, trees, rows = [], [], []
    total = EvalResult(0, 0)
    for i, kb in enumerate(kbests):
        idx = rerank_sentence(params, kb, config, model_scores[i])
        cands = augmented_candidates(kb, config.include_oracle)
        tree, base = cands[idx]
        model = float(model_scores[i][idx])
        chosen.append(idx)
        trees.append(tree)
        rows.append((i, idx + 1, model, base, mixture_score(config.alpha, model, base)))
        total = total + uas(tree, kb.gold, punct_tags)
    return RerankResult(chosen, trees, total, rows)


def alpha_grid(alpha_step: float) -> np.ndarray:
    """The grid {0, step, 2 step, ..., 1}; step 0.005 gives 201 points."""
    if not 0.0 < alpha_step <= 1.0:
        raise ValueError(f"alpha_step must lie in (0, 1], got {alpha_step}")
    steps = int(round(1.0 / alpha_step))
    return np.linspace(0.0, 1.0, steps + 1)


def search_alpha(params: ParamSet, dev_kbest: Sequence[KBestList],
                 alpha_step: float = 0.005,
                 punct_tags: frozenset[str] | set[str] = frozenset(),
                 include_oracle: bool = False, normalize: bool = False,
                 model_scores: Sequence[Sequence[float]] | None = None
                 ) -> tuple[float, EvalResult]:
    """Best mixture weight by corpus UAS on dev (ties -> smallest alpha).

    Candidate model scores are computed once and reused across the whole grid.
    """
    if model_scores is None:
        model_scores = corpus_model_scores(params, dev_kbest, include_oracle)
    grid = alpha_grid(alpha_step)
    probe = RerankConfig(alpha=0.0, alpha_step=alpha_step,
                         include_oracle=include_oracle, normalize=normalize)
    per_sentence = []
    for kb, scores in zip(dev_kbest, model_scores):
        model, base = _mixture_columns(kb, probe, scores)
        cands = augmented_candidates(kb, include_oracle)
        evals = [uas(tree, kb.gold, punct_tags) for tree, _ in cands]
        correct = np.asarray([e.correct_heads for e in evals])
        scored = np.asarray([e.scored_tokens for e in evals])
        # (grid, k) mixture matrix; argmax picks the lowest index on ties
        mix = np.outer(grid, model) + np.outer(1.0 - grid, base)
        pick = mix.argmax(axis=1)
        per_sentence.append((correct[pick], scored[pick]))
    correct_by_alpha = np.sum([c for c, _ in per_sentence], axis=0)
    scored_by_alpha = np.sum([s for _, s in per_sentence], axis=0)
    ratio = np.divide(correct_by_alpha, scored_by_alpha,
                      out=np.zeros(len(grid)), where=scored_by_alpha > 0)
    best = int(np.argmax(ratio))
    return float(grid[best]), EvalResult(int(correct_by_alpha[best]), int(scored_by_alpha[best]))


def per_pos_accuracy(pred_trees: Sequence[DependencyTree],
                     gold_trees: Sequence[DependencyTree],
                     punct_tags: frozenset[str] | set[str] = frozenset()
                     ) -> dict[str, tuple[int, int]]:
    """Attachment accuracy per modifier POS tag, punctuation tags excluded."""
    if len(pred_trees) != len(gold_trees):
        raise AlignmentError(f"{len(pred_trees)} predicted sentences vs {len(gold_trees)} gold")
    counts: dict[str, list[int]] = {}
    for pred, gold in zip(pred_trees, gold_trees):
        if pred.forms != gold.forms:
            raise AlignmentError("predicted and gold sentences do not match")
        for p, g in zip(pred.tokens, gold.tokens):
            if g.pos in punct_tags:
                continue
            cell = counts.setdefault(g.pos, [0, 0])
            cell[1] += 1
            if p.head == g.head:
                cell[0] += 1
    return {pos: (c, t) for pos, (c, t) in counts.items()}


def pos_improvement(base: dict[str, tuple[int, int]],
                    ours: dict[str, tuple[int, int]]) -> list[tuple[str, float, float, float]]:
    """(pos, base accuracy, our accuracy, gain) rows sorted by gain, largest first."""
    rows = []
    for pos in sorted(set(base) | set(ours)):
        bc, bt = base.get(pos, (0, 0))
        oc, ot = ours.get(pos, (0, 0))
        ba = bc / bt if bt else 0.0
        oa = oc / ot if ot else 0.0
        rows.append((pos, ba, oa, oa - ba))
    rows.sort(key=lambda r: -r[3])
    return rows


@dataclass
class CurveRow:
    k: int
    oracle_best: float
    oracle_worst: float
    model_only: float      # alpha = 1 selection
    reranked: float        # at the searched alpha
    best_alpha: float
    short_sentences: int   # sentences holding fewer than k candidates


def uas_curve(params: ParamSet, kbests: Sequence[KBestList], ks: Sequence[int],
              alpha_step: float = 0.005,
              punct_tags: frozenset[str] | set[str] = frozenset()) -> list[CurveRow]:
    """Oracle/model/re-ranker UAS as the candidate lists are truncated to each k.

    Model scores are computed once on the full lists; truncation reuses prefixes.
    """
    full_scores = corpus_model_scores(params, kbests, include_oracle=False)
    rows = []
    for k in ks:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        cut = [kb.truncated(k) for kb in kbests]
        scores = [s[:k] for s in full_scores]
        best = corpus_oracle(cut, punct_tags)
        worst = corpus_oracle(cut, punct_tags, worst=True)
        model_only = rerank_corpus(params, cut, RerankConfig(alpha=1.0),
                                   punct_tags, model_scores=scores)
        alpha, reranked = search_alpha(params, cut, alpha_step, punct_tags,
                                       model_scores=scores)
        rows.append(CurveRow(k, best.uas, worst.uas, model_only.score.uas,
                             reranked.uas, alpha,
                             sum(1 for kb in kbests if len(kb.candidates) < k)))
    return rows
