"""Margin, loss-augmented selection, AdaGrad updates, the epoch loop, grad checks."""

import copy
import io

import numpy as np
import pytest

from deprerank import rcnn, trainer
from deprerank.errors import AlignmentError, ScoreError
from deprerank.params import (
    Hyperparams, build_pos_vocab, build_word_vocab, init_random, load, save,
)
from deprerank.rcnn import Gradients, Rows, backward_tree, build_plan, score_tree
from deprerank.reranker import RerankConfig, rerank_corpus
from deprerank.synth import DEFAULT_TAGS, synth_corpus
from deprerank.trainer import (
    AdaGradState, TrainConfig, _kbest_digest, adagrad_step, grad_check,
    run_grad_check_suite, train,
)
from deprerank.treebank import PUNCT_SETS, KBestList

from helpers import (
    TAGS, accumulate, assert_same_gradients, get_pair, kbest_of, loss_augmented_pick, make_tree,
    margin_delta, max_abs, model_parts, one_sentence_plans, per_tree_pick, per_tree_subgradient,
    random_heads, random_multi_root_heads, random_tree, reference_adagrad_step, same_params,
    sentence_item, sentence_subgradient, tiny_params,
)


def test_margin_delta_examples():
    gold = make_tree([3, 3, 0])
    assert margin_delta(gold, gold, 2.0) == 0.0
    assert margin_delta(gold, gold.with_heads([2, 3, 0]), 2.0) == 2.0
    assert margin_delta(gold, gold.with_heads([0, 3, 1]), 2.0) == 4.0
    with pytest.raises(AlignmentError):
        margin_delta(gold, make_tree([0, 1]), 2.0)


def test_margin_counts_punctuation():
    gold = make_tree([2, 0, 2], tags=["DT", "NN", "."])
    cand = gold.with_heads([2, 0, 1])
    assert margin_delta(gold, cand, 2.0) == 2.0


def _zeroed_scorer(kb, **kw):
    """Params whose score vectors are all zero (every tree scores 0)."""
    p = tiny_params(**kw)
    build_plan(p, kb.gold, create_pairs=True)
    for tree, _ in kb.candidates:
        build_plan(p, tree, create_pairs=True)
    p.pos_pairs.v[:] = 0.0
    return p


def test_loss_augmented_pick_with_zero_scorer():
    gold = make_tree([2, 0, 2])
    kb = kbest_of(gold, [
        ([2, 0, 2], -1.0),   # gold, delta 0
        ([2, 0, 1], -2.0),   # one wrong head, delta 2
        ([0, 1, 2], -3.0),   # two wrong heads, delta 4
    ])
    p = _zeroed_scorer(kb)
    idx, hinge = loss_augmented_pick(p, kb, kappa=2.0)
    assert idx == 2
    assert hinge == 4.0


def test_loss_augmented_pick_gold_only():
    gold = make_tree([0, 1])
    kb = kbest_of(gold, [([0, 1], -1.0)])
    p = tiny_params()
    idx, hinge = loss_augmented_pick(p, kb, kappa=2.0)
    assert idx == 0
    assert hinge == 0.0


def test_loss_augmented_pick_matches_per_tree_pick():
    corpus = synth_corpus(seed=12, sentences=10, k=6, length_range=(2, 9))
    vocab = [f"word{i:02d}" for i in range(0, 30, 2)]  # the odd words are OOV
    for i, kb in enumerate(corpus):
        listed, per_tree = (tiny_params(m=4, m_d=3, vocab=vocab, seed=i) for _ in range(2))
        idx, hinge = loss_augmented_pick(listed, kb, kappa=1.5)
        ref_idx, ref_hinge = per_tree_pick(per_tree, kb, kappa=1.5)
        assert idx == ref_idx
        assert hinge == pytest.approx(ref_hinge, rel=1e-12, abs=1e-12)


def test_candidate_equal_to_gold_gives_zero_hinge():
    rng = np.random.default_rng(3)
    for n in (1, 5, 12):
        gold = random_tree(rng, n)
        kb = kbest_of(gold, [(gold.heads, -1.0)] * 3)
        idx, hinge = loss_augmented_pick(tiny_params(seed=n), kb, kappa=2.0)
        assert idx == 0
        assert hinge == 0.0


def test_hinge_never_negative():
    rng = np.random.default_rng(2)
    corpus = synth_corpus(seed=6, sentences=8, k=4)
    p = tiny_params(m=4, m_d=4, seed=int(rng.integers(100)))
    for kb in corpus:
        _, hinge = loss_augmented_pick(p, kb, kappa=2.0)
        assert hinge >= 0.0


def test_subgradient_empty_when_hinge_inactive():
    gold = make_tree([0, 1])
    kb = kbest_of(gold, [([0, 1], -1.0)])
    p = tiny_params()
    grads, hinge = sentence_subgradient(p, kb, kappa=2.0)
    assert hinge == 0.0
    assert not any(len(g.rows) for g in (grads.words, grads.dists, grads.pair_W, grads.pair_v))


def _near(rng, heads):
    """heads with one token re-attached to the root or to a token outside its
    subtree, so the tree stays rooted and shares most subtrees with heads."""
    n = len(heads)
    for _ in range(50):
        tok, new = int(rng.integers(1, n + 1)), int(rng.integers(0, n + 1))
        node = new
        while node not in (0, tok):
            node = heads[node - 1]
        if node == 0 and new != heads[tok - 1]:
            out = list(heads)
            out[tok - 1] = new
            return out
    return list(heads)


def test_list_subgradient_matches_per_tree_subgradient():
    rng = np.random.default_rng(41)
    active = 0
    for case in range(36):
        # dist_clip 2 clips most distances; tag "XX" (an unseen pair, created
        # by the training item) and forms "oov*" are unknown to the parameters
        p = tiny_params(m=4, m_d=3, seed=case, dist_clip=2)
        n = 1 if case == 0 else int(rng.integers(2, 14))
        gold = random_tree(rng, n, vocab=("w1", "w2", "w3", "oov1", "oov2"),
                           tags=TAGS + ("XX",))
        if case % 3 == 1:  # every candidate is one head away from gold
            heads = [_near(rng, gold.heads) for _ in range(5)]
        else:
            heads = [random_heads(rng, n) for _ in range(4)]
            heads += [random_multi_root_heads(rng, n) for _ in range(2)]
            heads += [_near(rng, gold.heads), gold.heads]
        heads += [heads[0], heads[-1]]  # duplicates
        kb = KBestList(gold, [(gold.with_heads(h, allow_multiple_roots=True), -float(i))
                              for i, h in enumerate(heads)])
        if case % 3 == 2:  # W = 0: every pooling column ties
            sentence_item(p, kb, kappa=1.5)  # creates the list's pairs
            p.pos_pairs.W[:] = 0.0
        want, want_hinge = per_tree_subgradient(p, kb, kappa=1.5)
        got, hinge = sentence_subgradient(p, kb, kappa=1.5)
        assert hinge == want_hinge
        assert_same_gradients(got, want)
        active += hinge > 0.0
    assert active > 30


def test_identical_trees_cancel():
    p = tiny_params()
    tree = make_tree([2, 0, 2, 3])
    t1 = score_tree(p, tree, create_pairs=True)
    t2 = score_tree(p, tree)
    grads = accumulate(backward_tree(p, t1, upstream=1.0),
                       backward_tree(p, t2, upstream=-1.0))
    assert max_abs(grads) == 0.0


def test_subgradient_matches_grad_check():
    rng = np.random.default_rng(7)
    from deprerank.synth import random_tree, synth_kbest
    vocab = [f"word{i:02d}" for i in range(10)]
    gold = random_tree(rng, 4, vocab)
    kb = synth_kbest(rng, gold, 3)
    p = init_random(Hyperparams(m=3, m_d=3, k=3), vocab, ["NN"], seed=7)
    report = grad_check(p, kb, epsilon=1e-5)
    assert report.active
    assert report.checked > 0
    assert report.max_rel_error < 1e-4, report.worst


def test_grad_check_flags_kinks_on_symmetric_zero_scorer():
    gold = make_tree([2, 0, 2, 2])
    kb = kbest_of(gold, [
        ([2, 0, 2, 2], -1.0),
        ([2, 0, 1, 2], -2.0),  # one wrong head
        ([2, 0, 2, 3], -3.0),  # one wrong head: tied margin with the previous
    ])
    p = _zeroed_scorer(kb)
    p.pos_pairs.W[:] = 0.0
    report = grad_check(p, kb, epsilon=1e-5)
    assert report.active                # hinge is positive (margin term)
    assert report.skipped > 0           # ties are flagged, not failed
    assert report.max_rel_error < 1e-4, report.worst


def test_grad_check_epsilon_scaling_stays_small():
    kb = synth_corpus(seed=31, sentences=1, k=3, length_range=(4, 4))[0]
    p = tiny_params(m=3, m_d=3, seed=9)
    errs = []
    for eps in (1e-5, 2e-5):
        report = grad_check(p, kb, epsilon=eps)
        assert report.active
        errs.append(report.max_rel_error)
    # central differences stay well-behaved as epsilon doubles
    assert all(e < 1e-4 for e in errs)


def test_grad_check_suite_acceptance_shape():
    suite = run_grad_check_suite(seed=2024, instances=5)
    assert suite.active > 0
    assert suite.checked > 0
    assert suite.passed(1e-4), suite.worst


@pytest.mark.parametrize("seed", [7, 2024, 20240])
def test_grad_check_sees_a_wrong_gradient_below_1e_9(monkeypatch, seed):
    # at the initial weights most gradients are about 1e-7, so a check that
    # took every difference below 1e-9 as exact would pass this one unseen
    right = trainer.backward_list

    def wrong(*args):
        g = right(*args)
        return Gradients(*(Rows(rows, np.where(np.abs(values) < 1e-9, 1.5 * values, values))
                           for rows, values in (g.words, g.dists, g.pair_W, g.pair_v)))

    monkeypatch.setattr(trainer, "backward_list", wrong)
    suite = run_grad_check_suite(seed=seed, instances=20)
    assert suite.max_rel_error == pytest.approx(1 / 3, rel=1e-4), suite.worst
    assert not suite.passed(1e-4)


def _word_grad(row, values):
    """Gradients touching one word row."""
    return Gradients(words=Rows(np.array([row]), np.array([values])))


def test_adagrad_first_step_is_rho_signed():
    p = tiny_params(m=3, m_d=3)
    state = AdaGradState.from_params(p)
    row = p.word_row("w1")
    p.words.vectors[row] = 0.0
    g = np.array([0.25, -3.0, 0.0])
    adagrad_step(p, state, _word_grad(row, g), lam=0.5)
    # theta was 0, so lambda does not bite; each nonzero coord moves by rho*sign(g)
    assert np.allclose(p.words.vectors[row], [-0.1, 0.1, 0.0])
    assert np.allclose(state.acc_words[row], g * g)


def test_adagrad_zero_gradient_is_fixed_point():
    p = tiny_params()
    state = AdaGradState.from_params(p)
    row = p.word_row("w2")
    p.words.vectors[row] = 0.0
    before_acc = state.acc_words[row].copy()
    adagrad_step(p, state, _word_grad(row, np.zeros(3)), lam=0.0)
    assert np.array_equal(p.words.vectors[row], np.zeros(3))
    assert np.array_equal(state.acc_words[row], before_acc)


def test_adagrad_accumulator_monotone_and_steps_shrink():
    p = tiny_params(m=2, m_d=2)
    state = AdaGradState.from_params(p)
    row = p.word_row("w3")
    prev_acc = state.acc_words[row].copy()
    prev_step = None
    for _ in range(5):
        before = p.words.vectors[row].copy()
        adagrad_step(p, state, _word_grad(row, np.ones(2)), lam=0.0)
        assert np.all(state.acc_words[row] >= prev_acc)
        step = np.abs(p.words.vectors[row] - before)
        if prev_step is not None:
            assert np.all(step <= prev_step + 1e-15)
        prev_acc = state.acc_words[row].copy()
        prev_step = step


def test_adagrad_step_descends_along_subgradient():
    p = tiny_params(m=3, m_d=3, seed=6)
    state = AdaGradState.from_params(p)
    row = p.word_row("w1")
    g = np.array([0.5, -0.2, 0.0])
    before = p.words.vectors[row].copy()
    adagrad_step(p, state, _word_grad(row, g), lam=0.0)
    step = p.words.vectors[row] - before
    assert float(g @ step) < 0.0


def test_adagrad_leaves_untouched_parameters_alone():
    p = tiny_params()
    state = AdaGradState.from_params(p)
    row0, row1 = p.word_row("w1"), p.word_row("w2")
    before = p.words.vectors[row1].copy()
    adagrad_step(p, state, _word_grad(row0, np.ones(3)), lam=1.0)
    assert np.array_equal(p.words.vectors[row1], before)


def _random_rows(rng, count, shape):
    """Gradients for distinct rows of a table with `count` rows, in random or
    (as `backward_list` gives them) ascending order; about a third of the
    values are exactly zero."""
    rows = rng.permutation(count)[:int(rng.integers(1, count + 1))]
    if rng.random() < 0.5:
        rows.sort()
    values = rng.standard_normal((len(rows),) + shape)
    values[rng.random(values.shape) < 0.3] = 0.0
    return Rows(rows, values)


def _state_bytes(params, state):
    return [a.tobytes() for a in (params.words.vectors, params.distances.vectors,
                                  params.pos_pairs.W, params.pos_pairs.v, state.acc_words,
                                  state.acc_dists, state.acc_W, state.acc_v)]


@pytest.mark.parametrize("lam", [1e-4, 0.0, 0.5])
def test_adagrad_step_matches_the_per_row_reference(lam):
    rng = np.random.default_rng(17)
    p = tiny_params(m=3, m_d=2, seed=4)
    get_pair(p, "NN", "DT", create=True)
    # zero parameters (of both signs): with lam = 0 or a zero gradient their
    # effective gradient is 0, so the update divides 0 by 0
    p.words.vectors[:3] = 0.0
    p.words.vectors[3:5] = -0.0
    p.pos_pairs.W[1, 0] = -0.0
    for pair in (("VB", "NN"), ("JJ", "NN"), ("IN", "DT")):
        get_pair(p, *pair, create=True)
    state = AdaGradState.from_params(p)
    ref, ref_state = p.copy(), copy.deepcopy(state)
    m, n = p.hyper.m, p.hyper.n
    zero_sums = False
    for _ in range(8):
        grads = Gradients(_random_rows(rng, len(p.words), (m,)),
                          _random_rows(rng, len(p.distances), (p.hyper.m_d,)),
                          _random_rows(rng, len(p.pos_pairs), (m, n)),
                          _random_rows(rng, len(p.pos_pairs), (m,)))
        adagrad_step(p, state, grads, lam)
        reference_adagrad_step(ref, ref_state, grads, lam)
        assert _state_bytes(p, state) == _state_bytes(ref, ref_state)
        zero_sums |= bool((state.acc_words[grads.words.rows] == 0.0).any())
    assert len(state.acc_W) == len(p.pos_pairs) == 5
    assert zero_sums  # a touched coordinate divided 0 by sqrt(0)


def test_train_on_separated_data_changes_nothing():
    golds = [make_tree([0, 1]), make_tree([2, 0])]
    kbs = [kbest_of(g, [(g.heads, -1.0)]) for g in golds]
    p = tiny_params(seed=3)
    before = p.copy()
    _, reports = train(p, kbs, kbs, TrainConfig(max_epochs=3, seed=0))
    assert all(r.mean_hinge == 0.0 and r.violations == 0 for r in reports)
    # no violations means no updates: embeddings and pair weights are untouched
    assert np.array_equal(p.words.vectors, before.words.vectors)
    assert np.array_equal(p.distances.vectors, before.distances.vectors)


def test_train_determinism():
    corpus = synth_corpus(seed=77, sentences=6, k=3, length_range=(3, 5))
    runs = []
    for _ in range(2):
        hyper = Hyperparams(m=4, m_d=4, k=3)
        vocab = [f"word{i:02d}" for i in range(30)]
        p = init_random(hyper, vocab, ["NN"], seed=5)
        best, reports = train(p, corpus, corpus, TrainConfig(max_epochs=4, seed=1))
        runs.append((best, reports))
    assert runs[0][1] == runs[1][1]
    assert same_params(runs[0][0], runs[1][0])


def test_train_invariant_to_input_order():
    corpus = synth_corpus(seed=13, sentences=5, k=3, length_range=(3, 5))
    reversed_corpus = list(reversed(corpus))
    results = []
    for data in (corpus, reversed_corpus):
        hyper = Hyperparams(m=3, m_d=3, k=3)
        p = init_random(hyper, [f"word{i:02d}" for i in range(30)], ["NN"], seed=2)
        best, reports = train(p, data, data, TrainConfig(max_epochs=3, seed=4))
        results.append((best, reports))
    assert results[0][1] == results[1][1]
    assert same_params(results[0][0], results[1][0])


def test_train_loss_decreases_on_synthetic_corpus():
    corpus = synth_corpus(seed=5, sentences=12, k=4, length_range=(4, 6))
    hyper = Hyperparams(m=5, m_d=5, k=4)
    p = init_random(hyper, [f"word{i:02d}" for i in range(30)], ["NN"], seed=11)
    _, reports = train(p, corpus, corpus, TrainConfig(max_epochs=5, seed=0, patience=50))
    assert reports[-1].mean_hinge < reports[0].mean_hinge


def test_repeated_steps_separate_single_sentence():
    gold = make_tree([2, 0, 2, 2])
    kb = kbest_of(gold, [
        ([2, 0, 2, 2], -1.0),
        ([2, 0, 1, 2], -2.0),
        ([3, 0, 2, 2], -3.0),
    ])
    p = tiny_params(m=3, m_d=3, seed=21)
    sentence_item(p, kb, kappa=2.0)  # creates the list's POS pairs before the state, as train()
    state = AdaGradState.from_params(p)
    hinge = None
    for _ in range(300):
        grads, hinge = sentence_subgradient(p, kb, kappa=2.0)
        if hinge == 0.0:
            break
        adagrad_step(p, state, grads, lam=0.0)
    assert hinge == 0.0


@pytest.mark.parametrize("rho, epoch, what", [(1e120, 2, "word vectors"),
                                             (1e150, 1, "composition matrices"),
                                             (1e200, 1, "dev scores")])
def test_train_names_the_epoch_whose_numbers_are_not_finite(rho, epoch, what):
    # the parameters overflow within an epoch, or stay finite while the dev
    # scores do not; either way the epoch ends in one error, with no report
    corpus = synth_corpus(seed=17, sentences=12, k=5, length_range=(3, 6))
    p = init_random(Hyperparams(m=4, m_d=4, k=5, rho=rho), [f"word{i:02d}" for i in range(30)],
                    ["NN"], seed=1)
    reports = []
    with np.errstate(all="ignore"), pytest.raises(
            ScoreError, match=f"^epoch {epoch}: the {what} are not finite$"):
        train(p, corpus[:8], corpus[8:], TrainConfig(max_epochs=3, seed=1), reports.append)
    assert len(reports) == epoch - 1


def test_train_requires_data():
    p = tiny_params()
    with pytest.raises(ValueError):
        train(p, [], [], TrainConfig())
    gold = make_tree([0])
    kb = kbest_of(gold, [([0], -1.0)])
    with pytest.raises(ValueError):
        train(p, [kb], [], TrainConfig())


def test_train_config_counts_dev_uas_without_ptb_punctuation_by_default():
    # the CLI's default punctuation set, so a library caller selects its model
    # on the dev UAS that `deprerank train` reports
    tags = DEFAULT_TAGS + (".", ",")
    train_kbs = synth_corpus(seed=41, sentences=10, k=4, tags=tags)
    dev = synth_corpus(seed=42, sentences=10, k=4, tags=tags)
    assert {".", ","} <= {t for kb in dev for t in kb.gold.pos_tags}
    golds = [kb.gold for kb in train_kbs]

    def dev_uas(config):
        params = init_random(Hyperparams(m=4, m_d=3, k=4), build_word_vocab(golds),
                             build_pos_vocab(golds), seed=2)
        return [r.dev_uas for r in train(params, train_kbs, dev, config)[1]]

    assert TrainConfig().punct_tags == PUNCT_SETS["ptb"]
    assert (dev_uas(TrainConfig(max_epochs=3, seed=0))
            == dev_uas(TrainConfig(max_epochs=3, seed=0, punct_tags=PUNCT_SETS["ptb"]))
            != dev_uas(TrainConfig(max_epochs=3, seed=0, punct_tags=frozenset())))


@pytest.mark.parametrize("settings, message", [
    (dict(max_epochs=0), "max_epochs must be >= 1"),
    (dict(seed=-1), "seed must be >= 0"),
    (dict(patience=0), "patience must be >= 1"),
])
def test_train_config_rejects_out_of_range_settings(settings, message):
    with pytest.raises(ValueError, match=message):
        TrainConfig(**settings)


def test_sentence_margins_count_wrong_heads_per_candidate():
    corpus = synth_corpus(seed=21, sentences=6, k=5, length_range=(2, 9))
    for kb in corpus:
        item = sentence_item(tiny_params(), kb, kappa=1.5)
        assert item.deltas.tolist() == [margin_delta(kb.gold, t, 1.5) for t, _ in kb.candidates]


def test_kbest_digest_hashes_trees_and_scores_as_text():
    import hashlib

    for kb in synth_corpus(seed=8, sentences=4, k=4):
        h = hashlib.blake2b(digest_size=16)
        for tok in kb.gold.tokens:
            h.update(f"{tok.form}\t{tok.pos}\t{tok.head}\n".encode("utf-8"))
        for tree, score in kb.candidates:
            h.update(("C " + " ".join(map(str, tree.heads)) + f" {score!r}\n").encode("utf-8"))
        assert _kbest_digest(kb) == h.digest()


@pytest.mark.parametrize("dev_tags", [DEFAULT_TAGS, DEFAULT_TAGS + ("U1", "U2")])
def test_reloaded_model_reproduces_the_selected_dev_uas(dev_tags):
    # with unseen dev tags, dev scoring reads the fallback pair (slot 0): the
    # mean of the learned pairs, in dev selection and in the saved model
    train_kbs = synth_corpus(seed=1, sentences=60, k=16)
    dev = synth_corpus(seed=4, sentences=60, k=16, tags=dev_tags)
    golds = [kb.gold for kb in train_kbs]
    params = init_random(Hyperparams(m=10, m_d=10, k=16), build_word_vocab(golds),
                         build_pos_vocab(golds), seed=0)
    best, reports = train(params, train_kbs, dev, TrainConfig(max_epochs=6, seed=0))
    buf = io.BytesIO()
    save(best, buf)
    buf.seek(0)
    model = load(buf)
    assert np.array_equal(model.pos_pairs.W[0], model.pos_pairs.W[1:].mean(axis=0))
    assert np.array_equal(model.pos_pairs.v[0], model.pos_pairs.v[1:].mean(axis=0))
    reloaded = rerank_corpus(model, dev, RerankConfig(alpha=1.0))
    assert reloaded.score.uas == max(r.dev_uas for r in reports)


def test_training_on_batched_plans_matches_one_sentence_plans(monkeypatch):
    # a small budget spreads the training lists over several batches; the dev
    # set's unseen tag reads the fallback pair
    monkeypatch.setattr(rcnn, "PLAN_BUDGET", 300)
    train_kbs = synth_corpus(seed=33, sentences=24, k=6, length_range=(1, 12))
    dev = synth_corpus(seed=34, sentences=8, k=6, tags=DEFAULT_TAGS + ("U1",))
    golds = [kb.gold for kb in train_kbs]
    build_batch, sizes = rcnn._build_batch, []

    def counted(params, batch, create_pairs):
        if create_pairs:  # the training lists' plans, not the dev forests
            sizes.append(len(batch))
        return build_batch(params, batch, create_pairs)

    def run():
        params = init_random(Hyperparams(m=5, m_d=4, k=6), build_word_vocab(golds),
                             build_pos_vocab(golds), seed=3)
        best, reports = train(params, train_kbs, dev, TrainConfig(max_epochs=4, seed=5))
        return model_parts(best), reports

    monkeypatch.setattr(rcnn, "_build_batch", counted)
    batched = run()
    assert len(sizes) > 3 and max(sizes) > 1
    monkeypatch.setattr(trainer, "build_list_plans",
                        lambda params, lists: one_sentence_plans(params, lists, create_pairs=True))
    assert run() == batched


def test_dev_forests_select_as_per_list_dev_scoring(monkeypatch):
    # a small budget spreads the dev lists over several forests of several
    # lists each; the dev set's unseen tag reads the fallback pair
    monkeypatch.setattr(rcnn, "PLAN_BUDGET", 200)
    train_kbs = synth_corpus(seed=35, sentences=16, k=6, length_range=(1, 12))
    dev = synth_corpus(seed=36, sentences=20, k=6, length_range=(1, 14),
                       tags=DEFAULT_TAGS + ("U1",))
    golds = [kb.gold for kb in train_kbs]
    build_forests, forests = rcnn.build_forests, []

    def counted(params, sentences):
        built = build_forests(params, sentences)
        forests.extend(built)
        return built

    def run():
        params = init_random(Hyperparams(m=5, m_d=4, k=6), build_word_vocab(golds),
                             build_pos_vocab(golds), seed=4)
        best, reports = train(params, train_kbs, dev, TrainConfig(max_epochs=5, seed=6))
        return model_parts(best), reports

    monkeypatch.setattr(trainer, "build_forests", counted)
    by_forest = run()
    assert len(forests) > 3 and max(forest.num_trees for forest in forests) > 12
    monkeypatch.setattr(trainer, "build_forests", one_sentence_plans)
    assert run() == by_forest
