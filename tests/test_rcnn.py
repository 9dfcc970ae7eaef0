"""Tree scoring: convolution, pooling, recursion, and analytic gradients."""

import numpy as np
import pytest

from deprerank.errors import AlignmentError, StructureError
from deprerank.params import ROOT_FORM
from deprerank.rcnn import (
    backward_list, backward_tree, build_list_plan, build_plan, forward_list, score_list,
    score_plan, score_tree,
)
from deprerank.treebank import KBestList

from helpers import (
    TAGS, all_trees_up_to, assert_same_gradients, compose_pair, fd_entries, forward_unit,
    list_plan, make_tree, max_abs, max_rel_error, node_trace, random_heads,
    random_multi_root_heads, random_tree, tiny_params, trace_nodes,
)


def test_compose_zero_matrix_gives_zero_hidden():
    p = tiny_params(m=2, m_d=2)
    pair = (np.zeros((2, 6)), np.zeros(2))
    vec_in, z = compose_pair(p, np.ones(2), np.ones(2), -1, pair)
    assert vec_in.shape == (6,)
    assert np.array_equal(z, np.zeros(2))


def test_compose_one_dimensional_case():
    p = tiny_params(m=1, m_d=1)
    head = np.array([0.37])
    pair = (np.array([[1.0, 0.0, 0.0]]), np.zeros(1))
    _, z = compose_pair(p, head, np.array([-0.9]), 2, pair)
    assert z == pytest.approx(np.tanh(0.37))


def test_compose_output_in_tanh_range():
    p = tiny_params(m=3, m_d=3)
    rng = np.random.default_rng(0)
    for _ in range(20):
        pair = (rng.uniform(-1, 1, (3, 9)), np.zeros(3))
        _, z = compose_pair(p, rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3), 1, pair)
        assert np.all(np.abs(z) < 1.0)


def test_compose_dimension_mismatch_guard():
    p = tiny_params(m=2, m_d=2)
    with pytest.raises(ValueError):
        compose_pair(p, np.ones(3), np.ones(2), 1, (np.zeros((2, 6)), np.zeros(2)))
    with pytest.raises(ValueError):
        compose_pair(p, np.ones(2), np.ones(2), 1, (np.zeros((2, 5)), np.zeros(2)))


def test_forward_unit_leaf():
    p = tiny_params()
    tree = make_tree([3, 3, 0], forms=["a", "red", "bike"], tags=["DT", "JJ", "NN"])
    trace = forward_unit(p, tree, 2, {})
    assert trace.is_leaf
    assert np.array_equal(trace.x, p.lookup_word("red"))
    assert trace.unit_score == 0.0


def _rigged_bike_unit(z1, z2):
    """Parameters rigged so the two hidden vectors of the 'bike' unit come out as given."""
    p = tiny_params(m=2, m_d=2, vocab=("a", "red", "bike"), seed=1)
    tree = make_tree([3, 3, 0], forms=["a", "red", "bike"], tags=["DT", "JJ", "NN"])
    for child, target in ((1, z1), (2, z2)):
        tok = tree.tokens[child - 1]
        W, _ = p.get_pair("NN", tok.pos, create_if_missing=True)
        vec_in = np.concatenate([p.lookup_word("bike"), p.lookup_word(tok.form),
                                 p.lookup_distance(child - 3)])
        W[:] = np.multiply.outer(np.arctanh(target), vec_in) / np.dot(vec_in, vec_in)
    return p, tree


def test_forward_unit_pooling_rowwise_max():
    z1 = np.array([0.5, -0.2])
    z2 = np.array([0.1, 0.3])
    p, tree = _rigged_bike_unit(z1, z2)
    vecs = {1: p.lookup_word("a"), 2: p.lookup_word("red")}
    trace = forward_unit(p, tree, 3, vecs)
    assert np.allclose(trace.z[0], z1)
    assert np.allclose(trace.z[1], z2)
    assert np.allclose(trace.x, [0.5, 0.3])
    assert list(trace.pool_argmax) == [0, 1]
    v1 = p.get_pair("NN", "DT")[1]
    v2 = p.get_pair("NN", "JJ")[1]
    assert trace.unit_score == pytest.approx(v1 @ trace.z[0] + v2 @ trace.z[1])


def test_forward_unit_single_child():
    p = tiny_params()
    tree = make_tree([0, 1], tags=["VB", "NN"])
    p.get_pair("VB", "NN", create_if_missing=True)
    child_vec = p.lookup_word("w2")
    trace = forward_unit(p, tree, 1, {2: child_vec})
    _, z = compose_pair(p, p.lookup_word("w1"), child_vec, 1, p.get_pair("VB", "NN"))
    assert np.array_equal(trace.x, trace.z[0])
    assert np.allclose(trace.z[0], z)
    v = p.get_pair("VB", "NN")[1]
    assert trace.unit_score == pytest.approx(float(v @ z))


def test_forward_unit_child_order_invariance():
    rng = np.random.default_rng(7)
    p = tiny_params(m=3, m_d=3, seed=2)
    tree = random_tree(rng, 6)
    # pick a node with at least two children, fall back to the root unit
    node = next((i for i in range(1, 7) if len(tree.children(i)) >= 2), 0)
    kids = tree.children(node)
    vecs = {c: rng.uniform(-1, 1, 3) for c in kids}
    for tag_h in {("ROOT" if node == 0 else tree.tokens[node - 1].pos)}:
        for c in kids:
            p.get_pair(tag_h, tree.tokens[c - 1].pos, create_if_missing=True)
    base = forward_unit(p, tree, node, vecs)
    for _ in range(5):
        perm = list(rng.permutation(kids))
        shuffled = forward_unit(p, tree, node, vecs, order=perm)
        assert np.array_equal(shuffled.x, base.x)
        assert shuffled.unit_score == pytest.approx(base.unit_score, rel=1e-12)


def test_score_single_token_sentence():
    p = tiny_params()
    tree = make_tree([0], tags=["NN"])
    trace = score_tree(p, tree, create_pairs=True)
    root_unit = forward_unit(p, tree, 0, {1: p.lookup_word("w1")})
    assert trace.total_score == pytest.approx(root_unit.unit_score, rel=1e-12)
    nontrivial = [n for n in trace_nodes(trace) if not n.is_leaf]
    assert len(nontrivial) == 1 and nontrivial[0].node == 0


def test_score_bike_tree_decomposes():
    p = tiny_params(vocab=("a", "red", "bike"))
    tree = make_tree([3, 3, 0], forms=["a", "red", "bike"], tags=["DT", "JJ", "NN"])
    trace = score_tree(p, tree, create_pairs=True)
    bike = forward_unit(p, tree, 3, {1: p.lookup_word("a"), 2: p.lookup_word("red")})
    root = forward_unit(p, tree, 0, {3: bike.x})
    assert trace.total_score == pytest.approx(bike.unit_score + root.unit_score, rel=1e-12)
    # only ROOT and "bike" carry units
    assert sorted(n.node for n in trace_nodes(trace) if not n.is_leaf) == [0, 3]


def test_zero_score_vectors_zero_total():
    rng = np.random.default_rng(3)
    p = tiny_params()
    for _ in range(5):
        tree = random_tree(rng, int(rng.integers(1, 8)))
        build_plan(p, tree, create_pairs=True)
    p.pos_pairs.v[:] = 0.0
    for _ in range(5):
        tree = random_tree(rng, int(rng.integers(1, 8)))
        assert score_tree(p, tree).total_score == 0.0


def test_trace_invariants():
    rng = np.random.default_rng(5)
    p = tiny_params(m=4, m_d=3)
    for _ in range(10):
        tree = random_tree(rng, int(rng.integers(2, 9)))
        trace = score_tree(p, tree, create_pairs=True)
        for node in trace_nodes(trace):
            if node.is_leaf:
                row = p.word_row(ROOT_FORM if node.node == 0 else
                                 tree.tokens[node.node - 1].form)
                assert np.array_equal(node.x, p.words.vectors[row])
                assert node.unit_score == 0.0
            else:
                # pooled entries trace back to a child hidden vector and stay in (-1, 1)
                assert np.all(np.abs(node.x) < 1.0)
                for j, local in enumerate(node.pool_argmax):
                    assert node.z[local, j] == node.x[j]
                    assert node.z[:, j].max() == node.x[j]


def test_total_equals_sum_of_recomputed_units_exactly():
    rng = np.random.default_rng(9)
    p = tiny_params(m=4, m_d=3)
    for _ in range(10):
        tree = random_tree(rng, int(rng.integers(1, 10)))
        trace = score_tree(p, tree, create_pairs=True)
        total = 0.0
        for i in trace.plan.order:
            s0, s1 = trace.plan.arc_start[i], trace.plan.arc_start[i + 1]
            unit = 0.0
            for arc in range(s0, s1):
                _, v = p.pos_pairs.get(int(trace.plan.arc_pair[arc]))
                unit += np.dot(v, trace.z[arc])
            total += unit
        assert total == trace.total_score


def test_backward_zero_upstream():
    p = tiny_params()
    tree = make_tree([0, 1, 1])
    trace = score_tree(p, tree, create_pairs=True)
    grads = backward_tree(p, trace, upstream=0.0)
    assert max_abs(grads) == 0.0


def test_backward_single_unit_score_vector_gradient():
    p = tiny_params()
    tree = make_tree([0], tags=["NN"])
    trace = score_tree(p, tree, create_pairs=True)
    grads = backward_tree(p, trace)
    slot = p.pos_pairs.slot("ROOT", "NN")
    assert slot != 0
    assert np.array_equal(grads.pair_v[slot], trace.z[0])


def test_backward_matches_finite_differences():
    # The gate for this module: analytic vs central differences on small trees.
    rng = np.random.default_rng(123)
    p = tiny_params(m=3, m_d=3, seed=42)
    for case in range(8):
        tree = random_tree(rng, int(rng.integers(1, 7)))
        plan = build_plan(p, tree, create_pairs=True)
        trace = score_plan(p, plan)
        grads = backward_tree(p, trace, upstream=1.0)
        entries = fd_entries(p, grads, lambda: score_plan(p, plan).total_score, eps=1e-5)
        assert entries, "expected at least one touched parameter"
        err = max_rel_error(entries)
        assert err < 1e-4, f"case {case}: max rel error {err}"


def test_pooling_tie_routes_gradient_to_lowest_child():
    # two children engineered to produce identical hidden vectors: same form
    # vector, same POS (one pair slot), distance rows zeroed out
    p = tiny_params(m=3, m_d=3, seed=4)
    p.distances.vectors[:] = 0.0
    p.words.vectors[p.word_row("w2")] = p.words.vectors[p.word_row("w3")]
    tree = make_tree([0, 1, 1], forms=["w1", "w2", "w3"], tags=["VB", "NN", "NN"])
    trace = score_tree(p, tree, create_pairs=True)
    head_unit = node_trace(trace, 1)
    assert np.array_equal(head_unit.z[0], head_unit.z[1])
    assert np.all(head_unit.pool_argmax == 0)
    grads = backward_tree(p, trace)
    row2, row3 = p.word_row("w2"), p.word_row("w3")
    # both children share the score-path gradient; only the tie winner (the
    # lower index) receives the pooled-path gradient routed from above
    assert not np.allclose(grads.words[row2], grads.words[row3])


def test_backward_scales_with_upstream():
    p = tiny_params(seed=8)
    tree = make_tree([2, 0, 2, 3])
    trace = score_tree(p, tree, create_pairs=True)
    g1 = backward_tree(p, trace, upstream=1.0)
    g3 = backward_tree(p, trace, upstream=-3.0)
    for key, arr in g1.pair_W.items():
        assert np.allclose(g3.pair_W[key], -3.0 * arr)
    for key, arr in g1.words.items():
        assert np.allclose(g3.words[key], -3.0 * arr)


def _assert_list_matches_trees(p, trees):
    scores = score_list(p, list_plan(p, trees))
    assert scores.shape == (len(trees),)
    for tree, score in zip(trees, scores):
        expected = score_tree(p, tree).total_score
        assert abs(score - expected) <= 1e-12 * max(1.0, abs(expected)), tree.heads
    return scores


def test_score_list_matches_score_tree_on_all_small_trees():
    p = tiny_params(m=3, m_d=3, vocab=("alpha", "beta", "gamma", "delta"), seed=3)
    by_length: dict[int, list] = {}
    for tree in all_trees_up_to(4):
        by_length.setdefault(len(tree), []).append(tree)
    for trees in by_length.values():
        list_plan(p, trees, create_pairs=True)
        _assert_list_matches_trees(p, trees)


def test_score_list_matches_score_tree_on_random_lists():
    rng = np.random.default_rng(31)
    # dist_clip 2 clips most distances; tag "XX" and forms "oov*" are unknown to
    # the parameters, so their arcs use the fallback slot and <unk>
    p = tiny_params(m=4, m_d=3, seed=5, dist_clip=2)
    for case in range(12):
        n = 1 if case == 0 else int(rng.integers(2, 16))
        gold = random_tree(rng, n, vocab=("w1", "w2", "w3", "oov1", "oov2"),
                           tags=TAGS + ("XX",))
        if case % 2:
            build_plan(p, gold, create_pairs=True)  # some pairs seen, others not
        heads = [random_heads(rng, n) for _ in range(5)]
        heads += [random_multi_root_heads(rng, n) for _ in range(3)]
        trees = [gold.with_heads(h, allow_multiple_roots=True) for h in heads]
        trees += [trees[0], gold, trees[3]]  # duplicates
        scores = _assert_list_matches_trees(p, trees)
        assert scores[-3] == scores[0] and scores[-1] == scores[3]
        assert np.array_equal(scores, score_list(p, list_plan(p, trees)))


def test_backward_list_matches_backward_tree():
    rng = np.random.default_rng(47)
    # dist_clip 2 clips most distances; tag "XX" and forms "oov*" are unknown
    p = tiny_params(m=4, m_d=3, seed=9, dist_clip=2)
    for case in range(30):
        n = 1 if case < 2 else int(rng.integers(2, 15))
        gold = random_tree(rng, n, vocab=("w1", "w2", "w3", "oov1", "oov2"),
                           tags=TAGS + ("XX",))
        heads = [gold.heads] + [random_heads(rng, n) for _ in range(4)]
        heads += [random_multi_root_heads(rng, n) for _ in range(2)] + [heads[1]]
        trees = [gold.with_heads(h, allow_multiple_roots=True) for h in heads]
        plan = list_plan(p, trees, create_pairs=case % 2 == 0)  # odd: fallback slot
        _, acts = forward_list(p, plan)
        chosen = [int(i) for i in rng.integers(len(trees), size=int(rng.integers(1, 4)))]
        upstream = rng.uniform(-2.0, 2.0, len(chosen))
        want = None
        for i, up in zip(chosen, upstream):
            grads = backward_tree(p, score_tree(p, trees[i]), upstream=float(up))
            want = grads if want is None else want.accumulate(grads)
        assert_same_gradients(backward_list(p, plan, acts, heads, chosen, upstream), want)


def test_backward_list_routes_ties_to_the_first_child():
    # W = 0 makes every hidden vector 0, so every pooling column ties
    rng = np.random.default_rng(5)
    p = tiny_params(m=3, m_d=3, seed=2)
    gold = random_tree(rng, 9)
    heads = [gold.heads] + [random_heads(rng, 9) for _ in range(3)]
    trees = [gold.with_heads(h) for h in heads]
    plan = list_plan(p, trees, create_pairs=True)
    p.pos_pairs.W[:] = 0.0
    _, acts = forward_list(p, plan)
    want = backward_tree(p, score_tree(p, trees[2]), upstream=1.0)
    want.accumulate(backward_tree(p, score_tree(p, trees[0]), upstream=-1.0))
    assert_same_gradients(backward_list(p, plan, acts, heads, [2, 0], [1.0, -1.0]), want)


def test_backward_list_rejects_bad_tree_selection():
    p = tiny_params()
    trees = [make_tree([0, 1, 1]), make_tree([2, 0, 2])]
    heads = [tree.heads for tree in trees]
    plan = list_plan(p, trees, create_pairs=True)
    _, acts = forward_list(p, plan)
    with pytest.raises(ValueError, match="tree indices"):
        backward_list(p, plan, acts, heads, [2], [1.0])
    with pytest.raises(ValueError, match="upstream"):
        backward_list(p, plan, acts, heads, [0, 1], [1.0])


def test_list_plan_shares_repeated_subtrees():
    p = tiny_params()
    gold = make_tree([2, 0, 2, 3])
    plan = list_plan(p, [gold, gold.with_heads([2, 0, 2, 2]), gold])
    # gold has arcs 2->1, 0->2, 2->3, 3->4; the second tree adds 2->4, and its
    # 2->3 and 0->2 arcs see other subtrees below them
    assert plan.num_arcs == 7
    assert plan.num_trees == 3


def test_list_plan_creates_pairs_in_build_plan_order():
    trees = [random_tree(np.random.default_rng(4), 9)]
    rng = np.random.default_rng(8)
    trees += [trees[0].with_heads(random_heads(rng, 9)) for _ in range(6)]
    one_by_one, listed = tiny_params(seed=1), tiny_params(seed=1)
    for tree in trees:
        build_plan(one_by_one, tree, create_pairs=True)
    list_plan(listed, trees, create_pairs=True)
    assert listed.pos_pairs.index == one_by_one.pos_pairs.index
    assert np.array_equal(listed.pos_pairs.W, one_by_one.pos_pairs.W)


def test_list_plan_rejects_bad_input():
    p = tiny_params()
    gold = make_tree([0, 1, 1])
    forms, tags = gold.forms, gold.pos_tags
    # candidates share the gold tree's forms and tags; a k-best list checks it
    with pytest.raises(AlignmentError):
        KBestList(gold, [(make_tree([0, 1, 1], forms=["w1", "w2", "w9"]), 0.0)])
    with pytest.raises(AlignmentError):
        KBestList(gold, [(make_tree([0, 1, 1], tags=["NN", "NN", "NN"]), 0.0)])
    with pytest.raises(AlignmentError):
        KBestList(gold, [(make_tree([0, 1]), 0.0)])
    with pytest.raises(AlignmentError):
        build_list_plan(p, forms, tags, [[0, 1, 1, 1]])
    with pytest.raises(AlignmentError):
        build_list_plan(p, forms, tags[:2], [[0, 1, 1]])
    with pytest.raises(StructureError):
        build_list_plan(p, forms, tags, [[0, 1, 1], [0, 1, 4]])
    with pytest.raises(StructureError):
        build_list_plan(p, forms, tags, [[0, 1, -1]])
    with pytest.raises(ValueError, match="empty sentence"):
        build_list_plan(p, [], [], np.zeros((1, 0)))
    with pytest.raises(ValueError, match="no trees"):
        build_list_plan(p, forms, tags, np.zeros((0, 3)))
    with pytest.raises(ValueError, match="matrix"):
        build_list_plan(p, forms, tags, [0, 1, 1])
