"""Tree scoring: convolution, pooling, recursion, and analytic gradients."""

import re

import numpy as np
import pytest

from deprerank import rcnn
from deprerank.errors import AlignmentError, StructureError
from deprerank.params import ROOT_FORM, ROOT_POS, PosPairStore
from deprerank.rcnn import (
    backward_list, backward_tree, build_forests, build_list_plans, build_plan,
    forest_scores, forward_list, plan_batches, pool_winners, score_lists, score_plan, score_tree,
)
from deprerank.treebank import KBestList

from helpers import (
    TAGS, accumulate, all_trees_up_to, assert_same_bytes, assert_same_gradients,
    assert_same_plan, compose_pair, dist_vec, fd_entries, forward_unit, get_pair, grad_dicts,
    heads_list, list_plan, make_tree, max_abs, max_rel_error, node_trace, one_list_plan,
    one_sentence_plans, random_heads, random_multi_root_heads, random_tree,
    reference_backward_list, reference_forward_list, reference_list_plan, tiny_params,
    trace_nodes, word_vec,
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
    assert np.array_equal(trace.x, word_vec(p, "red"))
    assert trace.unit_score == 0.0


def _rigged_bike_unit(z1, z2):
    """Parameters rigged so the two hidden vectors of the 'bike' unit come out as given."""
    p = tiny_params(m=2, m_d=2, vocab=("a", "red", "bike"), seed=1)
    tree = make_tree([3, 3, 0], forms=["a", "red", "bike"], tags=["DT", "JJ", "NN"])
    for child, target in ((1, z1), (2, z2)):
        tok = tree.tokens[child - 1]
        W, _ = get_pair(p, "NN", tok.pos, create=True)
        vec_in = np.concatenate([word_vec(p, "bike"), word_vec(p, tok.form),
                                 dist_vec(p, child - 3)])
        W[:] = np.multiply.outer(np.arctanh(target), vec_in) / np.dot(vec_in, vec_in)
    return p, tree


def test_forward_unit_pooling_rowwise_max():
    z1 = np.array([0.5, -0.2])
    z2 = np.array([0.1, 0.3])
    p, tree = _rigged_bike_unit(z1, z2)
    vecs = {1: word_vec(p, "a"), 2: word_vec(p, "red")}
    trace = forward_unit(p, tree, 3, vecs)
    assert np.allclose(trace.z[0], z1)
    assert np.allclose(trace.z[1], z2)
    assert np.allclose(trace.x, [0.5, 0.3])
    assert list(trace.pool_argmax) == [0, 1]
    v1 = get_pair(p, "NN", "DT")[1]
    v2 = get_pair(p, "NN", "JJ")[1]
    assert trace.unit_score == pytest.approx(v1 @ trace.z[0] + v2 @ trace.z[1])


def test_forward_unit_single_child():
    p = tiny_params()
    tree = make_tree([0, 1], tags=["VB", "NN"])
    get_pair(p, "VB", "NN", create=True)
    child_vec = word_vec(p, "w2")
    trace = forward_unit(p, tree, 1, {2: child_vec})
    _, z = compose_pair(p, word_vec(p, "w1"), child_vec, 1, get_pair(p, "VB", "NN"))
    assert np.array_equal(trace.x, trace.z[0])
    assert np.allclose(trace.z[0], z)
    v = get_pair(p, "VB", "NN")[1]
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
            get_pair(p, tag_h, tree.tokens[c - 1].pos, create=True)
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
    root_unit = forward_unit(p, tree, 0, {1: word_vec(p, "w1")})
    assert trace.total_score == pytest.approx(root_unit.unit_score, rel=1e-12)
    nontrivial = [n for n in trace_nodes(trace) if not n.is_leaf]
    assert len(nontrivial) == 1 and nontrivial[0].node == 0


def test_score_bike_tree_decomposes():
    p = tiny_params(vocab=("a", "red", "bike"))
    tree = make_tree([3, 3, 0], forms=["a", "red", "bike"], tags=["DT", "JJ", "NN"])
    trace = score_tree(p, tree, create_pairs=True)
    bike = forward_unit(p, tree, 3, {1: word_vec(p, "a"), 2: word_vec(p, "red")})
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
    assert np.array_equal(grad_dicts(grads)[3][slot], trace.z[0])


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
    words = grad_dicts(backward_tree(p, trace))[0]
    row2, row3 = p.word_row("w2"), p.word_row("w3")
    # both children share the score-path gradient; only the tie winner (the
    # lower index) receives the pooled-path gradient routed from above
    assert not np.allclose(words[row2], words[row3])


def test_backward_scales_with_upstream():
    p = tiny_params(seed=8)
    tree = make_tree([2, 0, 2, 3])
    trace = score_tree(p, tree, create_pairs=True)
    g1 = grad_dicts(backward_tree(p, trace, upstream=1.0))
    g3 = grad_dicts(backward_tree(p, trace, upstream=-3.0))
    for key, arr in g1[2].items():
        assert np.allclose(g3[2][key], -3.0 * arr)
    for key, arr in g1[0].items():
        assert np.allclose(g3[0][key], -3.0 * arr)


def _assert_list_matches_trees(p, trees):
    scores = forward_list(p, list_plan(p, trees))[0]
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
        assert_same_plan(list_plan(p, trees),
                         reference_list_plan(p, heads_list(gold, [tree.heads for tree in trees])))
        assert np.array_equal(scores, forward_list(p, list_plan(p, trees))[0])


@pytest.mark.parametrize("m, m_d", [(4, 3), (25, 25)])
def test_forward_list_products_match_the_assignment_form(m, m_d):
    # forward_list writes each (height, slot) product into z with dot(out=);
    # assigning the matmul product instead must give the same bits
    rng = np.random.default_rng(12)
    p = tiny_params(m=m, m_d=m_d, seed=3, dist_clip=2)
    for _ in range(8):
        n = int(rng.integers(1, 14))
        gold = random_tree(rng, n)
        trees = [gold] + [gold.with_heads(random_heads(rng, n)) for _ in range(6)]
        plan = list_plan(p, trees, create_pairs=True)
        _, acts = forward_list(p, plan)
        W = p.pos_pairs.W
        z = np.full_like(acts.z, -np.inf)
        for a0, a1, groups, *_ in plan.levels:
            for g0, g1, slot in groups:
                z[g0:g1] = acts.p[g0:g1] @ W[slot].T
            np.tanh(z[a0:a1], out=z[a0:a1])
        assert z.tobytes() == acts.z.tobytes()


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
            want = grads if want is None else accumulate(want, grads)
        assert_same_gradients(backward_list(p, plan, acts, chosen, upstream), want)


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
    want = accumulate(backward_tree(p, score_tree(p, trees[2]), upstream=1.0),
                      backward_tree(p, score_tree(p, trees[0]), upstream=-1.0))
    assert_same_gradients(backward_list(p, plan, acts, [2, 0], [1.0, -1.0]), want)


def test_backward_list_rejects_bad_tree_selection():
    p = tiny_params()
    trees = [make_tree([0, 1, 1]), make_tree([2, 0, 2])]
    plan = list_plan(p, trees, create_pairs=True)
    _, acts = forward_list(p, plan)
    with pytest.raises(ValueError, match="tree indices"):
        backward_list(p, plan, acts, [2], [1.0])
    with pytest.raises(ValueError, match="upstream"):
        backward_list(p, plan, acts, [0, 1], [1.0])
    # a forest's rows past a shorter sentence's length are padding, not tokens
    forest = build_forests(p, [heads_list(trees[0], [trees[0].heads]),
                               heads_list(make_tree([0, 1]), [[0, 1]])])[0]
    _, acts = forward_list(p, forest)
    with pytest.raises(ValueError, match="forest"):
        backward_list(p, forest, acts, [0], [1.0])
    with pytest.raises(ValueError, match="forest"):
        pool_winners(forest, acts, [0])


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
    # a plan is built from a KBestList, which refuses rows that do not match
    # its gold tree's tokens; the one list a builder refuses has no candidates
    p = tiny_params()
    gold = make_tree([0, 1, 1])
    with pytest.raises(AlignmentError):
        KBestList(gold, [(make_tree([0, 1, 1], forms=["w1", "w2", "w9"]), 0.0)])
    with pytest.raises(AlignmentError):
        KBestList(gold, [(make_tree([0, 1, 1], tags=["NN", "NN", "NN"]), 0.0)])
    with pytest.raises(AlignmentError):
        KBestList(gold, [(make_tree([0, 1]), 0.0)])
    with pytest.raises(AlignmentError):
        KBestList.from_arrays(gold, [[0, 1, 1, 1]], [0.0])
    with pytest.raises(AlignmentError):
        KBestList.from_arrays(gold, [0, 1, 1], [0.0] * 3)
    with pytest.raises(StructureError):
        KBestList.from_arrays(gold, [[0, 1, 1], [0, 1, 4]], [0.0, 0.0])
    with pytest.raises(StructureError):
        KBestList.from_arrays(gold, [[0, 1, -1]], [0.0])
    with pytest.raises(ValueError, match="no trees"):
        one_list_plan(p, KBestList(gold))


def test_list_plan_rejects_cycles():
    # a cyclic row cannot reach a plan build: its list cannot be made
    gold = make_tree([0, 1, 2, 3, 4])
    forest = "head indices do not form a forest"
    with pytest.raises(StructureError, match=rf"^candidate 1 of the sentence 'w1 w2 w3': "
                                             rf"{forest}: \[2, 1, 0\]$"):
        KBestList.from_arrays(make_tree([0, 1, 1]), [[2, 1, 0]], [0.0])
    # row 2: tokens 3 and 4 head each other, 2 and 5 hang below them, and 1
    # hangs below the root
    with pytest.raises(StructureError, match=rf"^candidate 2 .*{forest}: \[0, 3, 4, 3, 2\]$"):
        KBestList.from_arrays(gold, [[0, 1, 2, 3, 4], [0, 3, 4, 3, 2]], [0.0, 0.0])
    with pytest.raises(StructureError, match=rf"^candidate 1 .*{forest}: \[1\]$"):
        KBestList.from_arrays(make_tree([0]), [[1]], [0.0])


def _random_lists(rng, count):
    """k-best lists of mixed n and k: n = 1, multi-root and duplicate rows,
    OOV forms ("oov*") and a tag the parameters lack ("XX")."""
    lists = []
    for _ in range(count):
        n = 1 if rng.random() < 0.15 else int(rng.integers(2, 14))
        gold = random_tree(rng, n, vocab=("w1", "w2", "w3", "oov1", "oov2"),
                           tags=TAGS + ("XX",))
        heads = [gold.heads] + [random_heads(rng, n) for _ in range(int(rng.integers(0, 6)))]
        heads += [random_multi_root_heads(rng, n) for _ in range(int(rng.integers(0, 3)))]
        heads.append(heads[int(rng.integers(len(heads)))])
        lists.append(heads_list(gold, heads))
    return lists


def test_batched_plans_equal_one_sentence_plans():
    # training plans: a batch split into the plans its lists get alone, with
    # their pairs created (one-list plans without pairs are forests, see
    # test_a_forest_of_one_sentence_is_its_list_plan)
    rng = np.random.default_rng(61)
    for case in range(40):
        lists = _random_lists(rng, int(rng.integers(1, 9)))
        oracle, alone, batched = (tiny_params(m=3, m_d=3, seed=case, dist_clip=2)
                                  for _ in range(3))
        if case % 2:  # some pairs seen before, others not
            seen = random_tree(rng, 6, tags=TAGS + ("XX",))
            for p in (oracle, alone, batched):
                build_plan(p, seen, create_pairs=True)
        want = one_sentence_plans(oracle, lists, create_pairs=True)
        for got in ([one_list_plan(alone, kb, create_pairs=True) for kb in lists],
                    build_list_plans(batched, lists)):
            assert len(got) == len(want)
            for plan, expected in zip(got, want):
                assert_same_plan(plan, expected)
        for p in (alone, batched):  # the same pairs, created in the same order
            assert list(p.pos_pairs.index.items()) == list(oracle.pos_pairs.index.items())
            assert p.pos_pairs.W.tobytes() == oracle.pos_pairs.W.tobytes()
            assert p.pos_pairs.v.tobytes() == oracle.pos_pairs.v.tobytes()


@pytest.mark.parametrize("budget", [rcnn.PLAN_BUDGET, 20])
def test_a_malformed_sentence_fails_its_batch_as_it_fails_alone(monkeypatch, budget):
    # a list's rows are checked where it is made (test_treebank), so the one
    # list a builder refuses has no candidates; with budget 20 it comes in a
    # later batch than others, and still no pair is created
    monkeypatch.setattr(rcnn, "PLAN_BUDGET", budget)
    empty = KBestList(make_tree([0, 1, 1]))
    good = _random_lists(np.random.default_rng(63), 4)
    with pytest.raises(ValueError) as alone:
        one_list_plan(tiny_params(), empty, create_pairs=True)
    p = tiny_params()
    with pytest.raises(ValueError, match=f"^{re.escape(str(alone.value))}$"):
        build_list_plans(p, good[:2] + [empty] + good[2:])
    assert p.pos_pairs.count == tiny_params().pos_pairs.count  # no pair created


def test_plan_batches_keep_the_budget_and_the_input_order(monkeypatch):
    monkeypatch.setattr(rcnn, "PLAN_BUDGET", 60)
    rng = np.random.default_rng(64)
    lists = _random_lists(rng, 30)
    big = random_tree(rng, 12)
    lists.insert(7, heads_list(big, [big.heads] * 6))  # 6 * 13 node instances
    cost = lambda kb: len(kb) * (len(kb.gold) + 1)
    batches = plan_batches(lists)
    assert [kb for batch in batches for kb in batch] == lists
    assert [lists[7]] in batches
    assert any(len(batch) > 1 for batch in batches)
    for batch in batches:
        assert len(batch) == 1 or sum(map(cost, batch)) <= 60
    p, oracle = tiny_params(seed=4), tiny_params(seed=4)
    for plan, expected in zip(build_list_plans(p, lists),
                              one_sentence_plans(oracle, lists, create_pairs=True)):
        assert_same_plan(plan, expected)


def _assert_members_layout(plan):
    """Each level's members: a C-contiguous (width, signatures) int64 array,
    every column its signature's arcs, all with one head and one of them from
    the height below, then padding with num_arcs; width is the most arcs any
    signature has. The last level's arcs go into roots alone, which have no
    signature: it pools nothing, and its members are a (1, 0) array."""
    *pooling, (_, _, _, s0, s1, members) = plan.levels
    assert s0 == s1 == plan.num_signatures and members.shape == (1, 0)
    for a0, a1, _, s0, s1, members in pooling:
        assert members.dtype == np.int64 and members.flags.c_contiguous
        assert members.ndim == 2 and members.shape[1] == s1 - s0 > 0
        real = members < plan.num_arcs
        assert np.all(members[~real] == plan.num_arcs)
        assert np.all(real[:-1] >= real[1:])  # padding only after a column's arcs
        assert real[0].all() and real[-1].any()  # none empty; no row of padding alone
        assert np.all(members[real] < a1) and np.all((members * real >= a0).any(axis=0))
        heads = plan.arc_head[np.where(real, members, members[0])]
        assert np.all(heads == heads[0])


def test_members_are_width_by_signature_slabs(monkeypatch):
    monkeypatch.setattr(rcnn, "PLAN_BUDGET", 200)  # batches of a few sentences
    rng = np.random.default_rng(68)
    p = tiny_params(m=3, m_d=3, seed=1, dist_clip=2)
    lists = _random_lists(rng, 20)
    plans = (build_list_plans(p, lists) + build_forests(p, lists)
             + [one_list_plan(p, kb) for kb in lists])
    assert any(len(batch) > 1 for batch in plan_batches(lists))  # split and forests
    for plan in plans:
        _assert_members_layout(plan)
    assert any(len(plan.levels[0][5]) > 1 for plan in plans)


@pytest.mark.parametrize("m, m_d", [(4, 3), (25, 25)])
def test_list_kernels_match_the_matmul_reference_in_bytes(m, m_d):
    # _random_lists mixes k and n (n = 1 too), duplicate rows, OOV forms
    # and the tag "XX", which the finalized fallback slot scores; small lists
    # give products of one row
    rng = np.random.default_rng(69)
    rows = []
    for case in range(8):
        p = tiny_params(m=m, m_d=m_d, seed=case, dist_clip=2)
        build_plan(p, random_tree(rng, 8), create_pairs=True)  # some pairs learned
        p.pos_pairs.finalize_fallback()
        lists = _random_lists(rng, 12)
        forests = build_forests(p, lists)  # before build_list_plans creates the pairs
        plans = build_list_plans(p, lists)
        for plan in forests + plans:
            scores, acts = forward_list(p, plan)
            want_scores, want = reference_forward_list(p, plan)
            for got, expected in ((scores, want_scores), (acts.p, want.p), (acts.z, want.z)):
                assert_same_bytes(got, expected)
            rows += [g1 - g0 for _, _, groups, *_ in plan.levels for g0, g1, _ in groups]
        for kb, plan in zip(lists, plans):
            _, acts = forward_list(p, plan)
            chosen = rng.integers(len(kb), size=int(rng.integers(1, 4)))
            upstream = rng.uniform(-2.0, 2.0, len(chosen))
            assert_same_bytes(backward_list(p, plan, acts, chosen, upstream),
                              reference_backward_list(p, plan, acts, chosen, upstream))
    assert 1 in rows and max(rows) > 1


def test_a_forest_of_one_sentence_is_its_list_plan():
    # unseen pairs read the fallback slot; once a training build has created
    # them, the forest is the training plan too
    rng = np.random.default_rng(65)
    for case in range(30):
        p = tiny_params(m=3, m_d=3, seed=case, dist_clip=2)
        if case % 2:  # some pairs seen before, others not
            build_plan(p, random_tree(rng, 6, tags=TAGS + ("XX",)), create_pairs=True)
        [kb] = _random_lists(rng, 1)
        count = p.pos_pairs.count
        [forest] = build_forests(p, [kb])
        assert p.pos_pairs.count == count  # no pair created
        assert_same_plan(forest, reference_list_plan(p, kb))
        [plan] = build_list_plans(p, [kb])
        assert_same_plan(build_forests(p, [kb])[0], plan)


def _subtree_counts(kb):
    """(signatures above the leaves, arcs) of a list's plan, counted one tree
    at a time: a subtree is its node and its children's subtrees in sentence
    order, an arc is (head node, child subtree), and only a subtree that is
    some arc's child, so not a root's, is a signature."""
    subtrees, arcs = set(), set()
    for heads in kb.heads.tolist():
        kids = [[] for _ in range(len(heads) + 1)]
        for child, head in enumerate(heads, start=1):
            kids[head].append(child)

        def subtree(node):
            below = tuple(subtree(child) for child in kids[node])
            arcs.update((node, s) for s in below)
            if below and node:
                subtrees.add((node, below))
            return node, below

        subtree(0)
    return len(subtrees), len(arcs)


def test_every_signature_above_the_leaves_is_an_arc_child_and_roots_have_none(monkeypatch):
    # one-list forests, forests of several lists and training plans, over
    # single-root and multi-root lists and a one-token sentence
    monkeypatch.setattr(rcnn, "PLAN_BUDGET", 200)
    rng = np.random.default_rng(71)
    p = tiny_params(m=3, m_d=3, seed=2, dist_clip=2)
    lists = _random_lists(rng, 20)
    lists.insert(5, heads_list(make_tree([0]), [[0], [0]]))
    assert any((kb.heads == 0).sum(axis=1).max() > 1 for kb in lists)  # multi-root rows
    batches = plan_batches(lists)
    assert max(map(len, batches)) > 1
    for plans, groups in (([one_list_plan(p, kb) for kb in lists], [[kb] for kb in lists]),
                          (build_forests(p, lists), batches),
                          (build_list_plans(p, lists), [[kb] for kb in lists])):
        assert len(plans) == len(groups)
        for plan, group in zip(plans, groups):
            leaves = len(plan.node_word)
            above = plan.arc_child[plan.arc_child >= leaves]
            assert np.array_equal(np.unique(above), np.arange(leaves, plan.num_signatures))
            counts = [_subtree_counts(kb) for kb in group]
            assert plan.num_signatures - leaves == sum(c[0] for c in counts)
            assert plan.num_arcs == sum(c[1] for c in counts)


@pytest.mark.parametrize("create_pairs", [False, True])
def test_a_chain_and_a_star_score_as_the_references(create_pairs):
    # a 40-token chain has 40 levels of one arc per tree; the stars hang every
    # token from the root (one level) or from token 1 (two levels); the last
    # level of each plan pools nothing
    n = 40
    p = tiny_params(m=4, m_d=3, seed=5, dist_clip=2,
                    vocab=tuple(f"w{i}" for i in range(1, n + 1)))
    chain = make_tree(list(range(n)))
    stars = [[0] * n, [0] + [1] * (n - 1)]
    rng = np.random.default_rng(74)
    for heads, num_levels in (([chain.heads], n), ([stars[0]], 1), ([stars[1]], 2),
                              ([chain.heads, *stars, chain.heads], n)):
        kb = heads_list(chain, heads)
        plan = one_list_plan(p, kb, create_pairs)
        assert len(plan.levels) == num_levels
        scores, acts = forward_list(p, plan)
        want_scores, want = reference_forward_list(p, plan)
        for got, expected in ((scores, want_scores), (acts.p, want.p), (acts.z, want.z)):
            assert_same_bytes(got, expected)
        for row, score in zip(heads, scores):
            expected = score_tree(p, chain.with_heads(row, allow_multiple_roots=True)).total_score
            assert abs(score - expected) <= 1e-12 * max(1.0, abs(expected))
        chosen = rng.integers(len(heads), size=2)
        upstream = rng.uniform(-2.0, 2.0, 2)
        assert_same_bytes(backward_list(p, plan, acts, chosen, upstream),
                          reference_backward_list(p, plan, acts, chosen, upstream))


def test_build_forests_reads_pairs_from_one_table_and_creates_none(monkeypatch):
    # some pairs are stored and others not; _random_lists' tag "XX" is in no
    # stored pair, and every pair that is not stored reads slot 0
    rng = np.random.default_rng(72)
    p = tiny_params(m=3, m_d=3, seed=3, dist_clip=2)
    build_plan(p, random_tree(rng, 6), create_pairs=True)
    index = dict(p.pos_pairs.index)
    assert not any("XX" in pair for pair in index)
    lists = _random_lists(rng, 12)
    calls = []
    for name in ("slot", "_create"):
        method = getattr(PosPairStore, name)
        monkeypatch.setattr(PosPairStore, name, lambda self, *a, _name=name, _method=method,
                            **kw: calls.append(_name) or _method(self, *a, **kw))
    forests = build_forests(p, lists)
    assert calls == [] and p.pos_pairs.index == index
    unseen = set()
    for forest, batch in zip(forests, plan_batches(lists)):
        tags = [t for kb in batch for t in (ROOT_POS, *kb.gold.pos_tags)]
        want, at = set(), 0
        for kb in batch:
            for row in kb.heads.tolist():
                for child, head in enumerate(row, start=1):
                    pair = (tags[at + head], tags[at + child])
                    want.add((pair[0], index.get(pair, 0)))
                    unseen.update([pair] if pair not in index else [])
            at += len(kb.gold) + 1
        got = {(tags[head], slot) for head, slot in zip(forest.arc_head.tolist(),
                                                         forest.arc_slot.tolist())}
        assert got == want
    assert any("XX" in pair for pair in unseen) and any("XX" not in pair for pair in unseen)


def test_a_batch_creates_its_second_lists_pairs_after_the_first_lists():
    # the batched twin of test_list_plan_creates_pairs_in_build_plan_order:
    # the second list's tags bring pairs the first list has not
    rng = np.random.default_rng(73)
    golds = [random_tree(rng, 8, tags=TAGS[:2]), random_tree(rng, 8, tags=TAGS[2:])]
    lists = [heads_list(gold, [gold.heads] + [random_heads(rng, 8) for _ in range(4)])
             for gold in golds]
    assert len(plan_batches(lists)) == 1
    one_by_one, batched = tiny_params(seed=1), tiny_params(seed=1)
    for kb in lists:
        for row in kb.heads.tolist():
            build_plan(one_by_one, kb.gold.with_heads(row), create_pairs=True)
    build_list_plans(batched, lists)
    pairs = list(one_by_one.pos_pairs.index)
    second = [any(t in TAGS[2:] for t in pair) for pair in pairs]
    assert any(second) and second == sorted(second)  # the second list's, last
    assert list(batched.pos_pairs.index.items()) == list(one_by_one.pos_pairs.index.items())
    assert batched.pos_pairs.W.tobytes() == one_by_one.pos_pairs.W.tobytes()
    assert batched.pos_pairs.v.tobytes() == one_by_one.pos_pairs.v.tobytes()


def _assert_forest_scores_match(p, lists):
    """Score the lists' forests against their one-list forests, bit for bit;
    returns the number of lists per forest."""
    forests, batches = build_forests(p, lists), plan_batches(lists)
    assert [forest.list_trees for forest in forests] == [list(map(len, b)) for b in batches]
    scores = [s for forest in forests for s in forest_scores(p, forest)]
    assert np.array_equal(np.concatenate(scores),
                          np.concatenate([forward_list(p, f)[0] for f in forests]))
    alone = [one_list_plan(p, kb) for kb in lists]
    for kb, got, plan in zip(lists, scores, alone):
        assert got.tobytes() == forward_list(p, plan)[0].tobytes()
        rows = [tuple(row) for row in kb.heads.tolist()]
        for i, row in enumerate(rows):  # duplicate rows, bit for bit
            assert got[i] == got[rows.index(row)]
    # the reason: a forest makes one product per (height, list, slot), as alone
    products = lambda plan: sum(len(groups) for _, _, groups, *_ in plan.levels)
    assert sum(map(products, forests)) == sum(map(products, alone))
    return [len(batch) for batch in batches]


@pytest.mark.parametrize("budget", [rcnn.PLAN_BUDGET, 120])
def test_forest_scores_match_list_scores_in_input_order(monkeypatch, budget):
    # _random_lists mixes k and n (n = 1 too), duplicate rows, OOV forms
    # and the tag "XX"; pairs with "XX", and others, read the fallback slot
    monkeypatch.setattr(rcnn, "PLAN_BUDGET", budget)
    rng = np.random.default_rng(66)
    sizes = []
    for case in range(12):
        p = tiny_params(m=4, m_d=3, seed=case, dist_clip=2)
        build_plan(p, random_tree(rng, 8), create_pairs=True)  # some pairs learned
        p.pos_pairs.finalize_fallback()
        lists = _random_lists(rng, int(rng.integers(1, 25)))
        if case % 3 == 0:  # a list larger than the budget is a batch of its own
            big = random_tree(rng, 14, tags=TAGS + ("XX",))
            heads = [random_heads(rng, 14) for _ in range(budget // 15 + 1)]
            lists.insert(int(rng.integers(len(lists))), heads_list(big, heads))
        sizes += _assert_forest_scores_match(p, lists)
    assert max(sizes) > 1 and 1 in sizes  # forests of many lists, and of one


def test_score_lists_scores_each_batch_before_it_builds_the_next(monkeypatch):
    monkeypatch.setattr(rcnn, "PLAN_BUDGET", 120)
    p = tiny_params(m=3, m_d=3, seed=4, dist_clip=2)
    lists = _random_lists(np.random.default_rng(68), 16)
    calls, build, forward = [], rcnn._build_batch, rcnn.forward_list
    monkeypatch.setattr(rcnn, "_build_batch", lambda *a: calls.append("build") or build(*a))
    monkeypatch.setattr(rcnn, "forward_list", lambda *a: calls.append("score") or forward(*a))
    scores = score_lists(p, iter(lists))
    batches = plan_batches(lists)
    assert len(batches) > 2 and max(map(len, batches)) > 1
    assert calls == ["build", "score"] * len(batches)  # one forest per batch
    monkeypatch.setattr(rcnn, "forward_list", forward)
    want = [s for forest in build_forests(p, lists) for s in forest_scores(p, forest)]
    assert len(scores) == len(want) == len(lists)
    for kb, got, expected in zip(lists, scores, want):  # and what it scores alone
        assert got.tobytes() == expected.tobytes()
        assert got.tobytes() == forward(p, one_list_plan(p, kb))[0].tobytes()


@pytest.mark.parametrize("budget", [rcnn.PLAN_BUDGET, 20])
def test_a_malformed_sentence_fails_its_forest_as_it_fails_alone(monkeypatch, budget):
    # as for batches: the one list a forest refuses has no candidates
    monkeypatch.setattr(rcnn, "PLAN_BUDGET", budget)
    empty = KBestList(make_tree([0, 1, 1]))
    good = _random_lists(np.random.default_rng(67), 4)
    with pytest.raises(ValueError) as alone:
        build_forests(tiny_params(), [empty])
    with pytest.raises(ValueError, match=f"^{re.escape(str(alone.value))}$"):
        build_forests(tiny_params(), good[:2] + [empty] + good[2:])
