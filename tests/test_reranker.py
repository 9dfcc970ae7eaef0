"""Mixture re-ranking, alpha search, per-POS accuracy, oracle bounds."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from deprerank import rcnn, reranker
from deprerank.params import Hyperparams, init_random
from deprerank.reranker import (
    RerankConfig, alpha_grid, candidate_model_scores, corpus_model_scores, per_pos_accuracy,
    rerank_corpus, search_alpha, uas_curve,
)
from deprerank.treebank import DependencyTree, EvalResult, corpus_oracle, uas

from helpers import (
    all_trees_up_to, from_arrays, kbest_of, make_tree, margin_delta, reference_rerank_corpus,
    reference_search_alpha, reference_uas_curve, synth_corpus, tiny_params,
)


def _pick(params, kb, config, model_scores=None):
    """The pick of `rerank_corpus` on the one list."""
    scores = None if model_scores is None else [model_scores]
    return rerank_corpus(params, [kb], config, model_scores=scores).chosen[0]


def test_mixture_score_arithmetic():
    gold = make_tree([0, 1])
    p = tiny_params()

    def mixture(alpha, model, base):
        kb = kbest_of(gold, [([0, 1], base)])
        return rerank_corpus(p, [kb], RerankConfig(alpha=alpha), model_scores=[[model]]).rows[0][4]

    assert mixture(0.0, 5.0, -2.5) == -2.5
    assert mixture(1.0, 5.0, -2.5) == 5.0
    assert mixture(0.5, 2.0, -4.0) == -1.0
    # the reported mixture is the scalar alpha * model + (1 - alpha) * base,
    # bit for bit, so reports without normalize keep their bytes
    rng = np.random.default_rng(5)
    kbs = [kbest_of(gold, [([0, 1], float(b)) for b in rng.normal(scale=50.0, size=64)])
           for _ in range(20)]
    scores = [rng.normal(scale=3.0, size=64).tolist() for _ in kbs]
    for alpha in alpha_grid(0.05).tolist():
        result = rerank_corpus(p, kbs, RerankConfig(alpha=alpha), model_scores=scores)
        for (_, rank, model, base, mix), kb, row in zip(result.rows, kbs, scores):
            assert (model, base) == (row[rank - 1], kb.scores[rank - 1])
            assert mix == alpha * model + (1.0 - alpha) * base
            assert mix == max(alpha * m + (1.0 - alpha) * b for m, b in zip(row, kb.scores))


def test_rerank_config_validation():
    with pytest.raises(ValueError):
        RerankConfig(alpha=1.2)


@pytest.mark.parametrize("step", [1e-12, 5e-5, 0.99e-4])
def test_alpha_steps_below_the_floor_are_refused(step):
    # the check comes before any grid is allocated: 1e-12 would ask for 7 TiB
    with pytest.raises(ValueError, match="alpha step must be >= 0.0001"):
        alpha_grid(step)
    assert len(alpha_grid(1e-4)) == 10_001


@pytest.mark.parametrize("step", [0.3, 0.4, 0.7, 0.0049])
def test_alpha_steps_that_do_not_divide_1_are_refused(step):
    # rounding 1 / step would search another grid, {0, 0.5, 1} for 0.4
    with pytest.raises(ValueError, match=f"^alpha step must divide 1, got {step:g}$"):
        alpha_grid(step)


def test_uas_curve_checks_ks_before_scoring():
    kb = kbest_of(make_tree([0, 1]), [([0, 1], 0.0)])
    with pytest.raises(ValueError, match="k must be >= 1, got 0"):
        uas_curve(None, [kb], ks=[0])


def test_rerank_alpha_zero_is_base_parser():
    gold = make_tree([0, 1, 1])
    kb = kbest_of(gold, [([0, 1, 1], -3.0), ([0, 1, 2], -1.0), ([0, 3, 1], -1.0)])
    p = tiny_params()
    # base scores peak (with a tie) at index 1; the model must be ignored
    idx = _pick(p, kb, RerankConfig(alpha=0.0), model_scores=[9.0, 0.0, 99.0])
    assert idx == 1


def test_rerank_singleton():
    gold = make_tree([0])
    kb = kbest_of(gold, [([0], -1.0)])
    assert _pick(tiny_params(), kb, RerankConfig(alpha=0.7)) == 0


def test_rerank_alpha_one_with_zero_scorer_tie_breaks_low():
    gold = make_tree([2, 0, 2])
    kb = kbest_of(gold, [([2, 0, 2], -1.0), ([2, 0, 1], -2.0)])
    p = tiny_params()
    idx = _pick(p, kb, RerankConfig(alpha=1.0), model_scores=[0.0, 0.0])
    assert idx == 0


def test_rerank_affine_invariance_of_mixture_columns():
    gold = make_tree([0, 1, 1, 2])
    kb = kbest_of(gold, [([0, 1, 1, 2], -1.0), ([0, 1, 2, 2], -2.0), ([0, 3, 1, 2], -0.5)])
    p = tiny_params()
    config = RerankConfig(alpha=0.25)
    model = [1.0, 4.0, -2.0]
    base_pick = _pick(p, kb, config, model_scores=model)
    scaled = [2.0 * s + 1.0 for s in model]
    kb_scaled = kbest_of(gold, [(t.heads, 2.0 * s + 1.0) for t, s in kb.candidates])
    assert _pick(p, kb_scaled, config, model_scores=scaled) == base_pick


def test_include_oracle_appends_gold_at_max_base():
    gold = make_tree([0, 1, 1])
    kb = kbest_of(gold, [([0, 1, 2], -5.0), ([0, 3, 1], -2.0)])
    p = tiny_params()
    config = RerankConfig(alpha=1.0, include_oracle=True)
    # a perfect scorer prefers the tree with the smallest margin to gold
    scores = [-margin_delta(gold, t, 2.0) for t, _ in kb.candidates] + [0.0]
    idx = _pick(p, kb, config, model_scores=scores)
    assert idx == len(kb.candidates)
    result = rerank_corpus(p, [kb], config, model_scores=[scores])
    assert result.score.uas == 1.0
    assert result.trees[0].heads == gold.heads
    # the appended oracle inherits the best base score in the list
    assert result.rows[0][3] == -2.0


def test_perfect_scorer_matches_oracle_best():
    corpus = synth_corpus(seed=40, sentences=10, k=5)
    p = tiny_params()
    scores = [[-margin_delta(kb.gold, t, 2.0) for t, _ in kb.candidates] for kb in corpus]
    result = rerank_corpus(p, corpus, RerankConfig(alpha=1.0), model_scores=scores)
    assert result.score == corpus_oracle(corpus)


def test_alpha_grid_has_201_points_at_default_step():
    grid = alpha_grid(0.005)
    assert len(grid) == 201
    assert grid[0] == 0.0 and grid[-1] == 1.0
    assert len(alpha_grid(0.25)) == 5
    for step in (0.0001, 0.001, 0.005, 0.01, 0.02, 0.05, 0.1, 0.125, 0.2, 0.25, 0.5, 1.0):
        grid = alpha_grid(step)  # a step that divides 1: the grid of its multiples
        assert grid[0] == 0.0 and grid[-1] == 1.0
        assert np.allclose(np.diff(grid), step, rtol=1e-9, atol=0.0)


def test_search_alpha_prefers_smallest_on_ties():
    # base parser already ranks the oracle-best candidate first everywhere
    gold = make_tree([0, 1, 1])
    kb = kbest_of(gold, [([0, 1, 1], -1.0), ([0, 1, 2], -2.0)])
    p = tiny_params()
    best_alpha, res = search_alpha(p, [kb], alpha_step=0.25,
                                   model_scores=[[0.0, 0.0]])
    assert best_alpha == 0.0
    assert res.uas == 1.0


def test_search_alpha_beats_endpoints():
    corpus = synth_corpus(seed=91, sentences=12, k=4)
    hyper = Hyperparams(m=4, m_d=4, k=4)
    p = init_random(hyper, [f"word{i:02d}" for i in range(30)], ["NN"], seed=3)
    from deprerank.reranker import corpus_model_scores
    scores = corpus_model_scores(p, corpus)
    alpha, best = search_alpha(p, corpus, alpha_step=0.05, model_scores=scores)
    at_zero = rerank_corpus(p, corpus, RerankConfig(alpha=0.0), model_scores=scores)
    at_one = rerank_corpus(p, corpus, RerankConfig(alpha=1.0), model_scores=scores)
    assert best.uas >= at_zero.score.uas
    assert best.uas >= at_one.score.uas


def test_oracle_sandwich_at_all_alphas():
    corpus = synth_corpus(seed=55, sentences=15, k=6)
    p = tiny_params(m=4, m_d=4, seed=19)
    best = corpus_oracle(corpus)
    worst = corpus_oracle(corpus, worst=True)
    for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
        res = rerank_corpus(p, corpus, RerankConfig(alpha=alpha))
        assert worst.uas <= res.score.uas <= best.uas


def test_per_pos_accuracy_counts():
    gold = make_tree([2, 0, 2, 2], tags=["DT", "VB", "NN", "."])
    exact = [gold]
    assert per_pos_accuracy(exact, [gold]) == {"DT": (1, 1), "VB": (1, 1),
                                               "NN": (1, 1), ".": (1, 1)}
    pred = gold.with_heads([3, 0, 2, 2])
    acc = per_pos_accuracy([pred], [gold], punct_tags={"."})
    assert acc == {"DT": (0, 1), "VB": (1, 1), "NN": (1, 1)}
    assert "." not in acc


def test_uas_curve_shape_properties():
    corpus = synth_corpus(seed=3, sentences=12, k=6)
    p = tiny_params(m=3, m_d=3, seed=4)
    rows = uas_curve(p, corpus, ks=[1, 2, 4, 6, 8], alpha_step=0.25)
    assert [r.k for r in rows] == [1, 2, 4, 6, 8]
    first = rows[0]
    assert first.oracle_best == first.oracle_worst == first.model_only == first.reranked
    for a, b in zip(rows, rows[1:]):
        assert b.oracle_best >= a.oracle_best
        assert b.oracle_worst <= a.oracle_worst
    for row in rows:
        assert row.reranked >= row.oracle_worst
    # k beyond the available candidates is flagged
    assert rows[-1].short_sentences == len(corpus)
    assert rows[0].short_sentences == 0

def test_search_alpha_counts_heads_without_building_trees(monkeypatch):
    import deprerank.reranker as R

    corpus = synth_corpus(seed=23, sentences=6, k=5, tags=("NN", "VB", "."))
    scores = [[float(i % 3) for i in range(len(kb))] for kb in corpus]
    punct = {"."}
    # per-tree reference: rerank at every grid point, keep the first best UAS
    per_alpha = [(float(a), rerank_corpus(tiny_params(), corpus, RerankConfig(alpha=float(a)),
                                          punct, model_scores=scores).score)
                 for a in alpha_grid(0.1)]
    expected = max(per_alpha, key=lambda row: (row[1].uas, -row[0]))
    monkeypatch.setattr(R, "uas", lambda *a, **kw: pytest.fail("uas called"))
    assert search_alpha(tiny_params(), corpus, 0.1, punct, model_scores=scores) == expected


@pytest.mark.parametrize("include_oracle", [False, True])
def test_rerank_corpus_counts_heads_without_building_trees(monkeypatch, include_oracle):
    import deprerank.reranker as R

    corpus = synth_corpus(seed=24, sentences=8, k=5, tags=("NN", "VB", "."))
    scores = [[float((i * 7) % 5) for i in range(len(kb) + include_oracle)] for kb in corpus]
    punct = {"."}
    config = RerankConfig(alpha=0.5, include_oracle=include_oracle)
    with monkeypatch.context() as patch:
        patch.setattr(R, "uas", lambda *a, **kw: pytest.fail("uas called"))
        patch.setattr(DependencyTree, "__init__", lambda *a, **kw: pytest.fail("tree built"))
        result = rerank_corpus(tiny_params(), corpus, config, punct, model_scores=scores)
    # the trees, built when read, are the chosen candidates, and uas counts them alike
    want = [R.augmented(kb, include_oracle).candidates[i][0]
            for kb, i in zip(corpus, result.chosen)]
    assert result.trees == want
    assert result.score == sum((uas(tree, kb.gold, punct) for tree, kb in zip(want, corpus)),
                               EvalResult(0, 0))


def _znorm_by_hand(xs):
    """(x - mean) / population standard deviation, or all 0 when that is 0."""
    mean = sum(xs) / len(xs)
    std = math.sqrt(sum((x - mean) ** 2 for x in xs) / len(xs))
    return [0.0] * len(xs) if std == 0.0 else [(x - mean) / std for x in xs]


def _pick_by_hand(alpha, model, base):
    """The first argmax of the z-normalised mixture."""
    mix = [alpha * m + (1.0 - alpha) * b
           for m, b in zip(_znorm_by_hand(model), _znorm_by_hand(base))]
    return mix.index(max(mix))


def _normalize_corpus():
    """Lists whose model and base scores are each the correct heads plus
    noise, the base scores on a scale 1000 times the model scores', so that
    normalizing changes picks; plus one list whose scores are all equal and
    one whose base scores are: zero spread in both columns or one."""
    corpus = synth_corpus(seed=29, sentences=12, k=5, tags=("NN", "VB", "."))
    rng = np.random.default_rng(29)
    noisy = lambda kb: kb.attachment_counts()[0] + rng.normal(scale=1.5, size=len(kb))
    scores = [noisy(kb).tolist() for kb in corpus]
    corpus = [kbest_of(kb.gold, [(tree.heads, 1000.0 * base)
                                 for (tree, _), base in zip(kb.candidates, noisy(kb))])
              for kb in corpus]
    flat = corpus[0]
    corpus.append(kbest_of(flat.gold, [(tree.heads, -1.0) for tree, _ in flat.candidates]))
    scores.append([0.5] * len(flat))
    corpus.append(kbest_of(flat.gold, [(tree.heads, -1.0) for tree, _ in flat.candidates]))
    scores.append([float(i % 3) for i in range(len(flat))])  # the model prefers candidate 3
    return corpus, scores


def test_normalize_mixes_z_scores_as_computed_by_hand():
    corpus, scores = _normalize_corpus()
    assert np.std([0.5] * 5) == 0.0 and np.std(corpus[-1].scores) == 0.0
    p = tiny_params()
    changed = 0
    for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
        on, off = RerankConfig(alpha=alpha, normalize=True), RerankConfig(alpha=alpha)
        for kb, model in zip(corpus, scores):
            want = _pick_by_hand(alpha, model, kb.scores.tolist())
            assert _pick(p, kb, on, model_scores=model) == want
            changed += _pick(p, kb, off, model_scores=model) != want
    assert changed  # normalizing changed some picks
    assert _pick(p, corpus[-2], RerankConfig(alpha=0.5, normalize=True),
                 model_scores=scores[-2]) == 0  # all equal: ties go low

    punct = {"."}
    per_alpha = []
    for alpha in alpha_grid(0.1).tolist():
        picks = [_pick_by_hand(alpha, model, kb.scores.tolist())
                 for kb, model in zip(corpus, scores)]
        per_alpha.append((alpha, sum((uas(kb.candidates[i][0], kb.gold, punct)
                                      for kb, i in zip(corpus, picks)), EvalResult(0, 0))))
    want = max(per_alpha, key=lambda row: (row[1].uas, -row[0]))
    assert search_alpha(p, corpus, 0.1, punct, normalize=True, model_scores=scores) == want
    assert search_alpha(p, corpus, 0.1, punct, model_scores=scores) != want


def test_normalize_reports_the_mixture_the_pick_maximized():
    gold = make_tree([0, 1, 1])
    kb = kbest_of(gold, [([0, 1, 1], 100.0), ([0, 1, 2], 0.0), ([0, 3, 1], 50.0)])
    model = [0.0, 3.0, 2.9]
    result = rerank_corpus(tiny_params(), [kb], RerankConfig(alpha=0.5, normalize=True),
                           model_scores=[model])
    mix = [0.5 * m + 0.5 * b for m, b in zip(_znorm_by_hand(model), _znorm_by_hand([100, 0, 50]))]
    sentence, rank, model_score, base_score, mixture = result.rows[0]
    assert (sentence, rank, model_score, base_score) == (0, 3, 2.9, 50.0)
    # the raw mixture of rank 3 is 26.45, below rank 1's 50
    assert mixture == pytest.approx(max(mix), rel=1e-12) and mixture != 26.45
    assert mix.index(max(mix)) == 2


def test_normalize_survives_base_scores_whose_spread_overflows():
    """The squares of these finite scores overflow float64, yet their
    z-scores exist; the largest base score must win at alpha 0."""
    gold = make_tree([0, 1, 1])
    kb = kbest_of(gold, [([0, 1, 1], -1e308), ([0, 1, 2], 1e308), ([0, 3, 1], 5e307)])
    result = rerank_corpus(tiny_params(), [kb], RerankConfig(alpha=0.0, normalize=True),
                           model_scores=[[0.0, 0.0, 0.0]])
    assert result.rows[0][1] == 2
    assert result.rows[0][4] == pytest.approx(max(_znorm_by_hand([-1.0, 1.0, 0.5])))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("alpha", [0.0, 0.5])
def test_non_finite_model_scores_are_refused(bad, alpha):
    gold = make_tree([0, 1, 1])
    kb = kbest_of(gold, [([0, 1, 1], -1.0), ([0, 1, 2], -2.0)])
    p, scores = tiny_params(), [0.0, bad]
    message = f"^list 0: model score {bad} is not finite$"
    for normalize in (False, True):
        config = RerankConfig(alpha=alpha, normalize=normalize)
        with pytest.raises(ValueError, match=message):
            rerank_corpus(p, [kb], config, model_scores=[scores])
        with pytest.raises(ValueError, match=message):
            search_alpha(p, [kb], 0.5, normalize=normalize, model_scores=[scores])


def test_model_scores_must_match_the_lists():
    gold = make_tree([0, 1, 1])
    kb = kbest_of(gold, [([0, 1, 1], -1.0), ([0, 1, 2], -2.0)])
    p, config = tiny_params(), RerankConfig(alpha=0.5)
    with pytest.raises(ValueError, match=r"^list 0: expected 2 model scores, got \(3,\)$"):
        rerank_corpus(p, [kb], config, model_scores=[[0.0, 1.0, 2.0]])
    with pytest.raises(ValueError, match="^expected model scores for 2 lists, got 1$"):
        search_alpha(p, [kb, kb], 0.5, model_scores=[[0.0, 1.0]])


def test_uas_curve_rows_match_truncated_corpus_evaluation():
    corpus = synth_corpus(seed=4, sentences=10, k=6, tags=("NN", "VB", "DT", "."))
    p = tiny_params(m=3, m_d=3, seed=2)
    punct = {"."}
    rows = uas_curve(p, corpus, ks=[1, 3, 6, 9], alpha_step=0.1, punct_tags=punct)
    for row in rows:
        cut = [kb.truncated(row.k) for kb in corpus]
        best = sum((max((uas(t, kb.gold, punct) for t, _ in kb.candidates),
                        key=lambda r: r.correct_heads) for kb in cut), EvalResult(0, 0))
        worst = sum((min((uas(t, kb.gold, punct) for t, _ in kb.candidates),
                         key=lambda r: r.correct_heads) for kb in cut), EvalResult(0, 0))
        model_only = rerank_corpus(p, cut, RerankConfig(alpha=1.0), punct)
        alpha, reranked = search_alpha(p, cut, 0.1, punct)
        assert (row.oracle_best, row.oracle_worst, row.model_only, row.reranked,
                row.best_alpha) == (best.uas, worst.uas, model_only.score.uas,
                                    reranked.uas, alpha)


@pytest.mark.parametrize("include_oracle", [False, True])
def test_corpus_scores_in_batches_equal_list_by_list_scores(monkeypatch, include_oracle):
    # a list's scores in its batch's forest are its scores alone, bit for bit,
    # so the `rerank` report does not depend on the batching
    monkeypatch.setattr(rcnn, "PLAN_BUDGET", 100)  # several forests of several lists
    corpus = synth_corpus(seed=17, sentences=20, k=5, length_range=(1, 14))
    assert max(map(len, rcnn.plan_batches(corpus))) > 1
    p = tiny_params(m=4, m_d=4, seed=6)
    want = [candidate_model_scores(p, kb, include_oracle) for kb in corpus]
    assert corpus_model_scores(p, corpus, include_oracle) == want


# Scores that tie, repeat and mix to +-inf: a list's model and base scores
# are drawn from a few of these, so equal (model, base) pairs are common.
EXTREMES = [-1.7976931348623157e308, -1e308, -5e307, -1.0, -0.0, 0.0, 0.5, 1.0, 2.0,
            5e307, 1e308, 1.7976931348623157e308]
TREES = {n: [t.heads for t in all_trees_up_to(n) if len(t) == n] for n in (1, 2, 3)}


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), ks=st.lists(st.integers(1, 70), min_size=1, max_size=4),
       pool=st.integers(1, 8), step=st.sampled_from([1.0, 0.5, 0.25, 0.1, 0.02]),
       include_oracle=st.booleans(), normalize=st.booleans())
def test_the_pruned_sweep_and_the_picks_equal_the_per_list_reference(
        seed, ks, pool, step, include_oracle, normalize):
    """`search_alpha`, `rerank_corpus` and `uas_curve` sweep only candidates
    that no earlier one dominates and pick every list at once; the reference
    sweeps every candidate of one list at a time. They must agree exactly. A
    mutant that prunes a candidate because a later one dominates it fails."""
    rng = np.random.default_rng(seed)
    values = np.concatenate((rng.choice(EXTREMES, size=pool), rng.normal(size=2).round(1)))
    lists, scores = [], []
    for k in ks:
        n = int(rng.integers(1, 4))
        trees = TREES[n]
        gold = make_tree(trees[rng.integers(len(trees))],
                         tags=rng.choice(["NN", "."], size=n).tolist())
        lists.append(from_arrays(gold, [trees[i] for i in rng.integers(len(trees), size=k)],
                                 rng.choice(values, size=k)))
        scores.append(rng.choice(values, size=k + include_oracle).tolist())
    punct = {"."}
    with np.errstate(over="ignore"):  # mixes of +-1e308 overflow to +-inf
        searched = search_alpha(None, lists, step, punct, include_oracle, normalize, scores)
        assert searched == reference_search_alpha(lists, step, punct, include_oracle, normalize,
                                                  scores)
        # the grid in chunks of one alpha or more
        with mock.patch.object(reranker, "_SWEEP_CELLS", int(rng.integers(1, 300))):
            assert search_alpha(None, lists, step, punct, include_oracle, normalize,
                                scores) == searched
        for alpha in (0.0, 1.0, float(rng.random()), searched[0]):
            config = RerankConfig(alpha, include_oracle=include_oracle, normalize=normalize)
            got = rerank_corpus(None, lists, config, punct, scores)
            want = reference_rerank_corpus(lists, config, punct, scores)
            assert (got.chosen, got.score, repr(got.rows)) == (want.chosen, want.score,
                                                               repr(want.rows))
            assert [kb.heads.tolist() for kb in got.lists] == [kb.heads.tolist()
                                                               for kb in want.lists]
        given_scores = [row[:len(kb)] for row, kb in zip(scores, lists)]
        cuts = sorted({1, 71, *rng.integers(1, 72, size=3).tolist()})
        with mock.patch.object(reranker, "corpus_model_scores", lambda *_: given_scores):
            curve = uas_curve(None, lists, cuts, step, punct)
        assert repr(curve) == repr(reference_uas_curve(lists, cuts, step, punct, given_scores))
