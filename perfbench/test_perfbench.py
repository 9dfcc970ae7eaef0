"""Tests of the benchmark itself. Run from the root of a checkout:

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import sys

import numpy as np
import pytest

import reference
import speed
import workloads as W
from tracing import Tracer, summarize
from deprerank import params, rcnn, synth
from deprerank.treebank import KBestList


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_same_seed_gives_byte_identical_inputs(tmp_path):
    wl = W.WORKLOADS["rerank-k8-long"]
    for name in ("a", "b", "c"):
        (tmp_path / name).mkdir()
    W.write_inputs(wl, 7, str(tmp_path / "a"))
    W.write_inputs(wl, 7, str(tmp_path / "b"))
    W.write_inputs(wl, 8, str(tmp_path / "c"))
    first, again, other = (_files(tmp_path / n) for n in "abc")
    assert set(first) == {"main.conll", "main.kbest", "dev.conll", "dev.kbest",
                          "prep.conll", "prep.kbest"}
    assert first == again
    assert all(first[name] != other[name] for name in first)


def _tiny_model(seed=3):
    rng = np.random.default_rng(seed)
    vocab = [f"w{i}" for i in range(6)]
    model = params.init_random(params.Hyperparams(m=4, m_d=3, dist_clip=2),
                               vocab[:4], list(synth.DEFAULT_TAGS), seed)
    # make a few POS pairs real; every other pair scores with the fallback slot
    for head, child in (("ROOT", "NN"), ("NN", "DT"), ("VB", "NN"), ("NN", "JJ")):
        model.pos_pairs.slot(head, child, create=True)
    return rng, vocab, model


def test_reference_scorer_matches_library_on_tiny_trees():
    rng, vocab, model = _tiny_model()
    for length in (1, 2, 3, 5, 8):
        for _ in range(5):
            tree = synth.random_tree(rng, length, vocab)  # w4, w5 are out of vocabulary
            library = rcnn.score_tree(model, tree).total_score
            ref, scale = reference.reference_score(model, tree)
            assert abs(library - ref) <= 1e-12 * max(scale, 1e-300)
            assert reference.agrees(library, model, tree)


def test_reference_check_rejects_a_wrong_score():
    rng, vocab, model = _tiny_model()
    tree = synth.random_tree(rng, 6, vocab)
    library = rcnn.score_tree(model, tree).total_score
    _, scale = reference.reference_score(model, tree)
    assert not reference.agrees(library + 1e-7 * scale, model, tree)
    other = synth.corrupt_heads(rng, tree)
    assert not reference.agrees(rcnn.score_tree(model, other).total_score, model, tree)


def _bindings():
    return {(name, attr): value for name, mod in list(sys.modules.items())
            if name == "deprerank" or name.startswith("deprerank.")
            for attr, value in vars(mod).items()}


def test_wrappers_record_nested_spans_and_restore_the_originals():
    from deprerank import kernels, reranker, trainer

    rng, vocab, model = _tiny_model()
    before = _bindings()
    tracer = Tracer()
    tracer.install()
    try:
        for module, attr in ((rcnn, "build_plan"), (trainer, "build_plan"),
                             (reranker, "score_tree"), (kernels, "tree_forward"),
                             (trainer, "rerank_corpus"), (reranker, "uas")):
            assert getattr(module, attr) is not before[(module.__name__, attr)]
        rcnn.score_tree(model, synth.random_tree(rng, 4, vocab))
    finally:
        tracer.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)

    names = [span[0] for span in tracer.spans]
    assert names == ["rcnn.score_tree", "rcnn.build_plan", "rcnn.score_plan",
                     "kernels.tree_forward"]
    parents = [span[3] for span in tracer.spans]
    assert parents == [-1, 0, 0, 2]
    rows = summarize(tracer.spans)
    assert rows["kernels.tree_forward"]["arcs"] == 4
    assert rows["rcnn.score_tree"]["self_s"] <= rows["rcnn.score_tree"]["s"]


def test_summarize_self_time_and_warmup_exclusion():
    c = "kernels.tree_backward"  # sizes: nodes, arcs, m, n, touched slots
    spans = [("a", 0.0, 10.0, -1, None), ("b", 1.0, 4.0, 0, None),
             (c, 2.0, 3.0, 1, (6, 5, 2, 5, 1)), ("kernels.warmup", 5.0, 6.0, 0, None),
             (c, 5.0, 5.5, 3, (10, 9, 2, 5, 1))]
    rows = summarize(spans)
    assert rows["a"]["self_s"] == pytest.approx(6.0)
    assert rows["b"]["self_s"] == pytest.approx(2.0)
    assert rows[c]["calls"] == 1 and rows[c]["arcs"] == 5
    assert rows[c]["flops"] == 5 * (4 * 2 * 5 + 5 * 2 + 5)


def test_unit_counts_share_repeated_subtrees():
    tree = synth.random_tree(np.random.default_rng(1), 6, [f"w{i}" for i in range(4)])
    internal = sum(1 for node in range(len(tree) + 1) if tree.children(node))
    single = KBestList(tree, ((tree, 0.0),))
    twice = KBestList(tree, ((tree, 0.0), (tree, -1.0)))
    assert W.unit_counts(single) == (internal, internal)
    assert W.unit_counts(twice) == (internal, 2 * internal)


def test_laps_rescale_each_part_by_the_bursts_in_it(monkeypatch):
    bursts = iter([1.0, 3.0, 2.0, 4.0])
    monkeypatch.setattr(speed, "burst", lambda: next(bursts) * speed.REFERENCE_S)
    ticks = iter([0.0, 10.0, 10.0, 11.0, 11.5, 14.0, 14.0])
    monkeypatch.setattr(speed, "clock", lambda: next(ticks))
    laps = speed.Laps(sampling=False)
    assert laps.lap() == pytest.approx((10.0, 10.0 / 2.0))  # bursts 1 and 3: half speed
    laps._sample(None, None)  # a timer burst inside the part; its 0.5 s is taken out
    assert laps.lap() == pytest.approx((3.5, 3.5 / 3.0))    # bursts 3, 2 and 4
    assert "deprerank" not in vars(speed)
