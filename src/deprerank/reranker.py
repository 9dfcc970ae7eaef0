"""Mixture re-ranking of k-best lists, alpha grid search, and per-POS accuracy."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import AlignmentError, ScoreError
from .params import ParamSet
from .rcnn import score_lists
from .treebank import DependencyTree, EvalResult, KBestList
# no longer used here; perfbench's tracer self-test still checks these bindings
from .rcnn import score_tree  # noqa: F401
from .treebank import uas  # noqa: F401


# The finest alpha grid step: at most 10,001 alphas, swept in chunks of at
# most _SWEEP_CELLS padded mixtures (512 KB, which stays in cache).
MIN_ALPHA_STEP = 1e-4
_SWEEP_CELLS = 1 << 16


@dataclass
class RerankConfig:
    """How candidates are mixed and selected."""

    alpha: float
    # never read, not checked: only perfbench/worker.py still passes it, and
    # ROADMAP item 2 deletes it
    alpha_step: float = 0.005
    include_oracle: bool = False
    normalize: bool = False  # per-sentence z-normalization of both score columns

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha:g}")


def augmented(kb: KBestList, include_oracle: bool) -> KBestList:
    """The list, with the gold tree appended (at the best base score) if asked.

    Giving the oracle the maximum base score keeps alpha < 1 from burying it.
    """
    if not include_oracle:
        return kb
    return KBestList._unchecked(kb.gold, np.concatenate((kb.heads, [kb.gold.heads])),
                                np.concatenate((kb.scores, [np.maximum.reduce(kb.scores)])))


def candidate_model_scores(params: ParamSet, kb: KBestList,
                           include_oracle: bool = False) -> list[float]:
    """Model score per candidate (oracle last): `corpus_model_scores` of the one list."""
    return corpus_model_scores(params, [kb], include_oracle)[0]


def _znorm(scores: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore", invalid="ignore"):
        std = scores.std()
    if not np.isfinite(std):  # the sum or the squares overflow: z-scores do not change with scale
        scores = scores / np.abs(scores).max()
        std = scores.std()
    if std == 0.0:
        return np.zeros_like(scores)
    return (scores - scores.mean()) / std


def _columns(kbests: Sequence[KBestList], model_scores: Sequence[Sequence[float]],
             include_oracle: bool = False, normalize: bool = False,
             punct_tags: frozenset[str] | set[str] = frozenset()) -> tuple:
    """The candidates of all lists (each list's oracle last, if asked), one
    row per list padded to the longest: the lists, the model and base columns
    that the mixture mixes (z-normalized per list if asked), the correct
    heads, the mask of real (not padding) cells and the tokens scored. The one
    place that checks callers' model scores: one finite score per candidate,
    oracle last."""
    if len(model_scores) != len(kbests):
        raise ValueError(f"expected model scores for {len(kbests)} lists, got {len(model_scores)}")
    lists = [augmented(kb, include_oracle) for kb in kbests]
    pieces, scored = [], 0
    for i, (kb, cands, scores) in enumerate(zip(kbests, lists, model_scores)):
        model = np.asarray(scores, dtype=np.float64)
        if model.shape != (len(cands),):
            raise ValueError(f"list {i}: expected {len(cands)} model scores, got {model.shape}")
        if not np.logical_and.reduce(np.isfinite(model)):
            raise ScoreError(f"list {i}: model score {model[~np.isfinite(model)][0]} is not finite")
        base = cands.scores
        if normalize:
            model, base = _znorm(model), _znorm(base)
        right, tokens = kb.attachment_counts(punct_tags)  # an oracle's heads are all right
        pieces.append((model, base, np.concatenate((right, [tokens])) if include_oracle else right))
        scored += tokens
    lengths = np.array([len(cands) for cands in lists], dtype=np.intp)
    real = np.arange(np.maximum.reduce(lengths, initial=1)) < lengths[:, None]
    columns = [np.zeros(real.shape, dtype) for dtype in (np.float64, np.float64, np.int64)]
    for column, parts in zip(columns, zip(*pieces)):
        column[real] = np.concatenate(parts)
    return lists, *columns, real, scored


@dataclass
class RerankResult:
    chosen: list[int]
    score: EvalResult
    # one row per sentence: (index, chosen rank 1-based, model score, base
    # score, mixture score). The model and base scores are the chosen
    # candidate's raw scores; the mixture score is the value the pick
    # maximized, from the z-normalized columns under `normalize`.
    rows: list[tuple[int, int, float, float, float]]
    lists: list[KBestList]  # the lists chosen from, each with its oracle if added

    @property
    def trees(self) -> list[DependencyTree]:
        """The chosen tree of each list, built anew on each read."""
        return [kb.candidates[idx][0] for kb, idx in zip(self.lists, self.chosen)]


def corpus_model_scores(params: ParamSet, kbests: Sequence[KBestList],
                        include_oracle: bool = False) -> list[list[float]]:
    """Model score per candidate (oracle last) per list (`rcnn.score_lists`)."""
    return [scores.tolist() for scores in
            score_lists(params, [augmented(kb, include_oracle) for kb in kbests])]


def rerank_corpus(params: ParamSet, kbests: Sequence[KBestList], config: RerankConfig,
                  punct_tags: frozenset[str] | set[str] = frozenset(),
                  model_scores: Sequence[Sequence[float]] | None = None) -> RerankResult:
    """The mixture pick of each list and their attachment score, counted by
    `KBestList.attachment_counts`: no tree is built until `trees` is read."""
    if model_scores is None:
        model_scores = corpus_model_scores(params, kbests, config.include_oracle)
    lists, model, base, right, real, scored = _columns(
        kbests, model_scores, config.include_oracle, config.normalize, punct_tags)
    mix = config.alpha * model + (1.0 - config.alpha) * base
    mix[~real] = -np.inf
    chosen = mix.argmax(axis=1)
    picked = np.arange(len(chosen)), chosen
    rows = [(i, idx + 1, float(model_scores[i][idx]), float(kb.scores[idx]), top)
            for i, (kb, idx, top) in enumerate(zip(lists, chosen.tolist(), mix[picked].tolist()))]
    total = EvalResult(int(np.add.reduce(right[picked])), scored)
    return RerankResult(chosen.tolist(), total, rows, lists)


def alpha_grid(alpha_step: float) -> np.ndarray:
    """The grid {0, step, 2 step, ..., 1} of a step that divides 1; step
    0.005 gives 201 points."""
    if not 0.0 < alpha_step <= 1.0:
        raise ValueError(f"alpha step must lie in (0, 1], got {alpha_step:g}")
    if alpha_step < MIN_ALPHA_STEP:
        raise ValueError(f"alpha step must be >= {MIN_ALPHA_STEP:g} "
                         f"(at most 10,001 alphas), got {alpha_step:g}")
    steps = round(1.0 / alpha_step)
    if abs(1.0 / alpha_step - steps) > 1e-9 / alpha_step:
        raise ValueError(f"alpha step must divide 1, got {alpha_step:g}")
    return np.linspace(0.0, 1.0, steps + 1)


def _alpha_sweep(grid: np.ndarray, model: np.ndarray, base: np.ndarray, right: np.ndarray,
                 real: np.ndarray) -> np.ndarray:
    """Corpus correct heads at every alpha of the grid. Only the candidates
    that no earlier candidate of their list dominates are swept: none has a
    model column >= and a base column >= theirs (tested against the running
    model maximum and base minimum, in linear time). Rounding is monotone,
    alpha, 1 - alpha >= 0 and a mix of finite numbers is never NaN, so a
    dominated candidate's mix never exceeds its earlier dominator's: it is
    never the first maximum. Each list's first maximum is taken from an
    (alphas, lists, width) view of the kept candidates, padded with -inf, a
    chunk of the grid at a time."""
    keep = real.copy()
    keep[:, 1:] &= ((np.maximum.accumulate(model, axis=1)[:, :-1] < model[:, 1:])
                    | (np.minimum.accumulate(base, axis=1)[:, :-1] < base[:, 1:]))
    counts = np.add.reduce(keep, axis=1)
    width = int(np.maximum.reduce(counts, initial=1))
    at = ((np.arange(len(keep)) * width)[:, None] + keep.cumsum(axis=1) - 1)[keep]
    model, base, right, starts = model[keep], base[keep], right[keep], counts.cumsum() - counts
    step = max(1, _SWEEP_CELLS // (len(keep) * width or 1))
    correct = []
    for lo in range(0, len(grid), step):
        alphas = grid[lo:lo + step, None]
        view = np.empty((len(alphas), len(keep) * width))
        view.fill(-np.inf)
        view[:, at] = alphas * model + (1.0 - alphas) * base
        picks = view.reshape(len(alphas), len(keep), width).argmax(axis=2) + starts
        correct.append(np.add.reduce(right.take(picks), axis=1))
    return np.concatenate(correct)


def _best_alpha(grid: np.ndarray, correct: np.ndarray, scored: int) -> tuple[float, EvalResult]:
    """The alpha with the highest corpus UAS (ties -> smallest alpha)."""
    best = int((correct / scored).argmax()) if scored else 0
    return float(grid[best]), EvalResult(int(correct[best]), scored)


def search_alpha(params: ParamSet, dev_kbest: Sequence[KBestList],
                 alpha_step: float = 0.005,
                 punct_tags: frozenset[str] | set[str] = frozenset(),
                 include_oracle: bool = False, normalize: bool = False,
                 model_scores: Sequence[Sequence[float]] | None = None
                 ) -> tuple[float, EvalResult]:
    """Best mixture weight by corpus UAS on dev (ties -> smallest alpha).

    Candidate model scores and attachment counts are computed once and
    reused across the whole grid.
    """
    if model_scores is None:
        model_scores = corpus_model_scores(params, dev_kbest, include_oracle)
    grid = alpha_grid(alpha_step)
    _, model, base, right, real, scored = _columns(
        dev_kbest, model_scores, include_oracle, normalize, punct_tags)
    return _best_alpha(grid, _alpha_sweep(grid, model, base, right, real), scored)


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
        for p, g, pos in zip(pred.heads, gold.heads, gold.pos_tags):
            if pos not in punct_tags:
                cell = counts.setdefault(pos, [0, 0])
                cell[0] += int(p == g)
                cell[1] += 1
    return {pos: (c, t) for pos, (c, t) in counts.items()}


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

    Model scores and attachment counts are computed once on the full lists;
    truncation reuses their prefixes. The model-only pick is the sweep's
    alpha = 1 point.
    """
    if min(ks, default=1) < 1:
        raise ValueError(f"k must be >= 1, got {min(ks)}")
    grid = alpha_grid(alpha_step)
    _, model, base, right, real, scored = _columns(
        kbests, corpus_model_scores(params, kbests), punct_tags=punct_tags)
    rows = []
    for k in ks:
        by_alpha = _alpha_sweep(grid, model, base, right, real & (np.arange(real.shape[1]) < k))
        best, worst = (EvalResult(int(np.add.reduce(extreme.reduce(
            right[:, :k], axis=1, where=real[:, :k], initial=start))), scored)
            for extreme, start in ((np.maximum, 0), (np.minimum, scored)))
        alpha, reranked = _best_alpha(grid, by_alpha, scored)
        rows.append(CurveRow(k, best.uas, worst.uas,
                             EvalResult(int(by_alpha[-1]), scored).uas, reranked.uas, alpha,
                             sum(1 for kb in kbests if len(kb) < k)))
    return rows
