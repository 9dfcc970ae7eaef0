"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import functools
import io
import time

import numpy as np
import pytest

from deprerank import trainer
from deprerank.cli import main
from deprerank.params import (
    Hyperparams, build_pos_vocab, build_word_vocab, init_random, load, save,
)
from deprerank.rcnn import build_plan, score_plan, score_tree
from deprerank.reranker import (
    RerankConfig, alpha_grid, corpus_model_scores, rerank_corpus, search_alpha,
)
from deprerank.synth import planted_corpus, random_tree
from deprerank.trainer import TrainConfig, run_grad_check_suite, train
from deprerank.treebank import (
    DependencyTree, corpus_oracle, write_conll, write_kbest,
)

from helpers import all_trees_up_to, synth_corpus, trace_nodes


def _report(number, name, conditions):
    failed = [msg for ok, msg in conditions if not ok]
    status = "FAIL" if failed else "PASS"
    print(f"\nacceptance criterion {number} ({name}): {status}"
          + (f" — {'; '.join(failed)}" if failed else ""))
    assert not failed, f"criterion {number} ({name}): {'; '.join(failed)}"


def test_criterion_1_gradient_correctness():
    seed = 20240
    start = time.perf_counter()
    suite = run_grad_check_suite(seed=seed, instances=50)
    elapsed = time.perf_counter() - start
    print(f"\n  seed={seed} active={suite.active} checked={suite.checked} "
          f"skipped={suite.skipped} max_rel_error={suite.max_rel_error:.3e} "
          f"elapsed={elapsed:.2f}s")
    _report(1, "gradient correctness", [
        (suite.active >= 25, f"too few active-hinge instances: {suite.active}"),
        (suite.checked > 1000, f"too few checked parameters: {suite.checked}"),
        (suite.max_rel_error < 1e-4,
         f"max relative error {suite.max_rel_error:.3e} >= 1e-4 ({suite.worst})"),
        (elapsed < 10.0, f"runtime {elapsed:.2f}s >= 10s"),
    ])


def test_criterion_2_leaf_and_structural_identities():
    params = init_random(Hyperparams(m=3, m_d=3), ["alpha", "beta", "gamma", "delta"],
                         ["DT", "NN", "VB", "JJ", "ROOT"], seed=3)
    checked = 0
    bad = []
    for tree in all_trees_up_to(4):
        trace = score_tree(params, tree, create_pairs=True)
        plan = trace.plan
        for node in trace_nodes(trace):
            if node.is_leaf:
                row = params.word_row(tree.tokens[node.node - 1].form)
                if not np.array_equal(node.x, params.words.vectors[row]):
                    bad.append(f"leaf x != word embedding in {tree.heads}")
                if node.unit_score != 0.0:
                    bad.append(f"leaf unit score nonzero in {tree.heads}")
        total = 0.0
        for i in plan.order:
            total += trace.unit_scores[i]
        if total != trace.total_score:
            bad.append(f"total != sum of unit scores in {tree.heads}")
        recomputed = 0.0
        for i in plan.order:
            unit = 0.0
            for arc in range(plan.arc_start[i], plan.arc_start[i + 1]):
                unit += np.dot(params.pos_pairs.v[plan.arc_pair[arc]], trace.z[arc])
            recomputed += unit
        if recomputed != trace.total_score:
            bad.append(f"recomputed units differ in {tree.heads}")
        checked += 1
    print(f"\n  exhaustively checked {checked} trees of length <= 4")
    _report(2, "leaf and structural identities", [
        (checked == 1 + 2 + 9 + 64, f"enumerator produced {checked} trees, expected 76"),
        (not bad, "; ".join(bad[:3])),
    ])


def test_criterion_3_oracle_sandwich():
    corpus = synth_corpus(seed=321, sentences=25, k=6, length_range=(4, 7))
    params = init_random(Hyperparams(m=4, m_d=4, k=6),
                         [f"word{i:02d}" for i in range(30)], ["NN"], seed=9)
    best = corpus_oracle(corpus)
    worst = corpus_oracle(corpus, worst=True)
    conditions = []
    for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
        res = rerank_corpus(params, corpus, RerankConfig(alpha=alpha))
        conditions.append((worst.uas <= res.score.uas <= best.uas,
                           f"alpha={alpha}: {res.score.uas:.4f} outside "
                           f"[{worst.uas:.4f}, {best.uas:.4f}]"))
    base_top1 = [max(range(len(kb.candidates)),
                     key=lambda i: (kb.candidates[i][1], -i)) for kb in corpus]
    chosen = rerank_corpus(params, corpus, RerankConfig(alpha=0.0)).chosen
    conditions.append((chosen == base_top1, "alpha=0 differs from base top-1"))
    _report(3, "oracle sandwich", conditions)


def test_criterion_4_synthetic_separability():
    start = time.perf_counter()
    corpus = synth_corpus(seed=2024, sentences=50, vocab_size=30,
                          length_range=(5, 8), k=8)
    golds = [kb.gold for kb in corpus]
    hyper = Hyperparams(m=10, m_d=10, k=8)
    params = init_random(hyper, build_word_vocab(golds, min_freq=1),
                         build_pos_vocab(golds), seed=7)
    best, reports = train(params, corpus, corpus,
                          TrainConfig(max_epochs=20, patience=20, seed=0))
    truncated = [kb.truncated(8) for kb in corpus]
    model_only = rerank_corpus(best, truncated, RerankConfig(alpha=1.0))
    oracle = corpus_oracle(truncated)
    elapsed = time.perf_counter() - start
    ratio = reports[-1].mean_hinge / reports[0].mean_hinge
    print(f"\n  epochs={len(reports)} hinge {reports[0].mean_hinge:.4f} -> "
          f"{reports[-1].mean_hinge:.4f} (ratio {ratio:.4f}) "
          f"train_uas={model_only.score.uas:.4f} oracle={oracle.uas:.4f} "
          f"elapsed={elapsed:.1f}s")
    _report(4, "synthetic separability", [
        (len(reports) == 20, f"expected 20 epochs, ran {len(reports)}"),
        (model_only.score.uas == oracle.uas,
         f"model-only UAS {model_only.score.uas:.4f} != oracle-best {oracle.uas:.4f}"),
        (ratio < 0.10, f"epoch-20 hinge is {ratio:.2%} of epoch-1 (needs < 10%)"),
        (elapsed < 60.0, f"runtime {elapsed:.1f}s >= 60s"),
    ])


def test_criterion_5_curve_shape(tmp_path, capsys):
    corpus = synth_corpus(seed=505, sentences=40, k=8, length_range=(4, 7))
    train_kbs, dev_kbs = corpus[:25], corpus[25:]
    golds = [kb.gold for kb in train_kbs]
    hyper = Hyperparams(m=6, m_d=6, k=8)
    params = init_random(hyper, build_word_vocab(golds, min_freq=1),
                         build_pos_vocab(golds), seed=1)
    best, _ = train(params, train_kbs, dev_kbs, TrainConfig(max_epochs=8, seed=0))
    model_path = tmp_path / "model.bin"
    save(best, model_path)
    dev_gold = tmp_path / "dev.conll"
    dev_kbest = tmp_path / "dev.kbest"
    dev_gold.write_text(write_conll([kb.gold for kb in dev_kbs]), encoding="utf-8")
    dev_kbest.write_text(write_kbest(dev_kbs), encoding="utf-8")
    out_path = tmp_path / "curve.tsv"
    code = main(["curve", "--model", str(model_path), "--gold", str(dev_gold),
                 "--kbest", str(dev_kbest), "--ks", "1,2,4,8",
                 "--alpha-step", "0.05", "--punct-set", "none",
                 "--output", str(out_path)])
    capsys.readouterr()
    lines = out_path.read_text().splitlines()
    header = lines[0].split("\t")
    rows = [dict(zip(header, line.split("\t"))) for line in lines[1:]]
    bests = [float(r["oracle_best"]) for r in rows]
    worsts = [float(r["oracle_worst"]) for r in rows]
    conditions = [
        (code == 0, f"curve subcommand exited {code}"),
        (len(rows) == 4, f"expected 4 rows, got {len(rows)}"),
        (all(b >= a for a, b in zip(bests, bests[1:])), "oracle-best not non-decreasing"),
        (all(b <= a for a, b in zip(worsts, worsts[1:])), "oracle-worst not non-increasing"),
    ]
    for row, kb_cut in zip(rows, (1, 2, 4, 8)):
        cut = [kb.truncated(kb_cut) for kb in dev_kbs]
        base = rerank_corpus(best, cut, RerankConfig(alpha=0.0)).score.uas
        conditions.append((float(row["reranker"]) >= base,
                           f"k={kb_cut}: reranker {row['reranker']} < base {base:.4f}"))
    _report(5, "curve shape", conditions)


def test_criterion_6_determinism_and_persistence():
    def trained_bytes():
        corpus = synth_corpus(seed=64, sentences=10, k=4, length_range=(3, 6))
        golds = [kb.gold for kb in corpus]
        params = init_random(Hyperparams(m=4, m_d=4, k=4),
                             build_word_vocab(golds, min_freq=1),
                             build_pos_vocab(golds), seed=5)
        best, _ = train(params, corpus, corpus, TrainConfig(max_epochs=3, seed=2))
        buf = io.BytesIO()
        save(best, buf)
        return buf.getvalue()

    blob_a, blob_b = trained_bytes(), trained_bytes()

    rng = np.random.default_rng(99)
    vocab = [f"word{i:02d}" for i in range(30)]
    params = init_random(Hyperparams(m=5, m_d=5), vocab, ["NN"], seed=12)
    trees = [random_tree(rng, int(rng.integers(1, 9)), vocab) for _ in range(100)]
    for tree in trees:
        build_plan(params, tree, create_pairs=True)
    buf = io.BytesIO()
    save(params, buf)  # writes the parameters as they are
    before = [score_tree(params, tree).total_score for tree in trees]
    buf.seek(0)
    reloaded = load(buf)
    after = [score_tree(reloaded, tree).total_score for tree in trees]
    exact = sum(1 for a, b in zip(before, after) if a == b)
    # a tree with an unseen POS pair exercises the fallback slot
    odd = DependencyTree(["word00", "word01"], ["ZZZ", "QQQ"], [0, 1], [None, None])
    fallback_match = (score_tree(params, odd).total_score
                      == score_tree(reloaded, odd).total_score)
    _report(6, "determinism and persistence", [
        (blob_a == blob_b, "identical training runs produced different model bytes"),
        (exact == 100, f"only {exact}/100 tree scores identical after reload"),
        (fallback_match, "fallback-pair scoring differs after reload"),
    ])


def test_criterion_7_hyperparameter_fidelity():
    h = Hyperparams()
    grid = alpha_grid(RerankConfig(alpha=0.5).alpha_step)
    _report(7, "hyperparameter fidelity", [
        (h.m == 25, f"m={h.m}"),
        (h.m_d == 25, f"m_d={h.m_d}"),
        (h.rho == 0.1, f"rho={h.rho}"),
        (h.kappa == 2.0, f"kappa={h.kappa}"),
        (h.lam == 1e-4, f"lambda={h.lam}"),
        (h.k == 64, f"k={h.k}"),
        (len(grid) == 201, f"alpha grid has {len(grid)} points, expected 201"),
        (grid[0] == 0.0 and grid[-1] == 1.0, "alpha grid endpoints wrong"),
    ])


HELD_OUT_SEEDS = (1, 2, 3)


def _held_out(corpus, seed):
    """Train on 300 lists, pick the model and tune alpha on the next 100, and
    score the last 200, which nothing was fitted on: (model-only UAS, UAS of
    a uniform pick from each list, base-pick UAS, dev-tuned mixture UAS)."""
    train_kbs, dev, test = corpus[:300], corpus[300:400], corpus[400:]
    golds = [kb.gold for kb in train_kbs]
    params = init_random(Hyperparams(m=10, m_d=10, k=8), build_word_vocab(golds),
                         build_pos_vocab(golds), seed=seed)
    best, _ = train(params, train_kbs, dev, TrainConfig(max_epochs=3, seed=seed))
    alpha, _ = search_alpha(best, dev)
    scores = corpus_model_scores(best, test)
    uas = {a: rerank_corpus(best, test, RerankConfig(alpha=a), model_scores=scores).score.uas
           for a in (1.0, 0.0, alpha)}
    counts = [kb.attachment_counts() for kb in test]
    uniform = sum(right.mean() for right, _ in counts) / sum(scored for _, scored in counts)
    return uas[1.0], uniform, uas[0.0], uas[alpha]


def _child_blind(patch):
    """The control of criterion 9: each composition matrix's child block
    `W[:, :, m:2 m]` held at 0 after the training items are built and after
    every AdaGrad step, so that an arc scores from the head word, the
    distance and the POS-pair slot, and not from the child's subtree."""
    build_all, step = trainer._SentenceItem.build_all, trainer.adagrad_step

    def blind(params):
        m = params.hyper.m
        params.pos_pairs.W[:, :, m:2 * m] = 0.0

    def built(params, *args):
        items = build_all(params, *args)
        blind(params)
        return items

    def stepped(params, *args):
        step(params, *args)
        blind(params)

    patch.setattr(trainer._SentenceItem, "build_all", staticmethod(built))
    patch.setattr(trainer, "adagrad_step", stepped)


@functools.cache
def _planted_held_out(order, seed, child_blind=False):
    """`_held_out` on `planted_corpus(seed, 600, order)`, with the child-blind
    control if asked; criteria 8 and 9 share the runs."""
    corpus = planted_corpus(seed, 600, order=order)
    with pytest.MonkeyPatch.context() as patch:
        if child_blind:
            _child_blind(patch)
        return _held_out(corpus, seed)


def test_criterion_8_held_out_learning():
    """On a planted grammar (`planted_corpus`), the model alone picks better
    trees than a uniform pick on lists it was not trained on, and the
    dev-tuned mixture is no worse than the base pick."""
    start = time.perf_counter()
    conditions = []
    for seed in HELD_OUT_SEEDS:
        model, uniform, base, mixed = _planted_held_out(1, seed)
        print(f"\n  seed={seed} model_only={model:.4f} uniform={uniform:.4f} "
              f"base={base:.4f} mixture={mixed:.4f}")
        conditions += [
            (model >= uniform + 0.02,
             f"seed {seed}: held-out model-only UAS {model:.4f} < uniform {uniform:.4f} + 0.02"),
            (mixed >= base, f"seed {seed}: held-out mixture UAS {mixed:.4f} < base {base:.4f}"),
        ]
    print(f"  elapsed={time.perf_counter() - start:.1f}s")
    _report(8, "held-out learning", conditions)


def test_criterion_8_negative_control():
    """The same protocol on `synth_corpus` lists, whose forms, tags and heads
    are independent draws, finds nothing to learn: the check can tell the
    two corpora apart."""
    conditions = []
    for seed in HELD_OUT_SEEDS:
        corpus = synth_corpus(seed, 600, length_range=(5, 15), k=8)
        model, uniform, _, _ = _held_out(corpus, seed)
        print(f"\n  seed={seed} model_only={model:.4f} uniform={uniform:.4f}")
        conditions.append((model <= uniform + 0.01,
                           f"seed {seed}: model-only UAS {model:.4f} > uniform {uniform:.4f} + 0.01"))
    _report(8, "held-out negative control", conditions)


def test_criterion_9_the_recursion_pays():
    """On the order-2 planted grammar, where a tag is drawn given the
    grandparent's, the child's subtree carries what an arc's tag pair does
    not. There the full model's held-out model-only UAS is at least 1 point
    above the child-blind control's and 2 points above a uniform pick. The
    same gap on order 1 (criterion 8's grammar) is printed, not bounded."""
    start = time.perf_counter()
    conditions = []
    for order in (2, 1):
        for seed in HELD_OUT_SEEDS:
            full, uniform, _, _ = _planted_held_out(order, seed)
            blind = _planted_held_out(order, seed, child_blind=True)[0]
            print(f"\n  order={order} seed={seed} model_only={full:.4f} "
                  f"child_blind={blind:.4f} uniform={uniform:.4f} gap={full - blind:+.4f}")
            if order == 2:
                conditions += [
                    (full >= blind + 0.01, f"seed {seed}: held-out model-only UAS {full:.4f} "
                                           f"< child-blind {blind:.4f} + 0.01"),
                    (full >= uniform + 0.02, f"seed {seed}: held-out model-only UAS {full:.4f} "
                                             f"< uniform {uniform:.4f} + 0.02"),
                ]
    print(f"  elapsed={time.perf_counter() - start:.1f}s")
    _report(9, "the recursion pays", conditions)
