"""The per-tree numpy kernels against their plain-Python loop oracle."""

import numpy as np

from deprerank import kernels
from deprerank.rcnn import build_plan, score_plan

from helpers import backward_loops, forward_loops, make_tree, random_tree, tiny_params


def _plan_args(params, plan):
    return (plan.order, plan.arc_start, plan.arc_child, plan.node_word,
            plan.arc_dist, plan.arc_pair, params.words.vectors,
            params.distances.vectors, params.pos_pairs.W, params.pos_pairs.v)


def _assert_loops_match_numpy(params, plan, upstream):
    """The loop oracle against the numpy kernels: outputs within
    1e-12 * max(1, |numpy|), pooling winners equal."""
    def close(got, want):
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))

    loops = forward_loops(*_plan_args(params, plan))
    fwd = kernels.tree_forward(*_plan_args(params, plan))
    x, p, a, z, amax, unit, total = fwd
    assert np.array_equal(loops[4], amax)
    for got, want in zip(loops, fwd):
        close(np.asarray(got), np.asarray(want))
    back_args = (plan.order, plan.arc_start, plan.arc_child, plan.node_word,
                 plan.arc_dist, plan.arc_pair, plan.wloc, plan.dloc, plan.ploc,
                 len(plan.word_rows), len(plan.dist_rows), len(plan.pair_slots),
                 p, z, amax, params.pos_pairs.W, params.pos_pairs.v, upstream)
    for got, want in zip(backward_loops(*back_args), kernels.tree_backward(*back_args)):
        close(got, want)


def test_loop_source_matches_numpy_kernels():
    rng = np.random.default_rng(29)
    params = tiny_params(m=5, m_d=4, seed=3)
    for case in range(12):
        tree = random_tree(rng, 1 if case == 0 else int(rng.integers(2, 14)))
        plan = build_plan(params, tree, create_pairs=True)
        _assert_loops_match_numpy(params, plan, float(rng.uniform(-2.0, 2.0)))


def test_loop_source_matches_numpy_kernels_on_ties():
    # W = 0 makes every hidden vector 0: every pooling column ties, and both
    # the oracle and the kernel must route it to the first child
    params = tiny_params(m=3, m_d=3, seed=4)
    plan = build_plan(params, make_tree([0, 1, 1, 1, 3, 3, 2]), create_pairs=True)
    params.pos_pairs.W[:] = 0.0
    firsts = plan.arc_start[:-1][plan.arc_start[:-1] < plan.arc_start[1:]]
    for forward in (forward_loops, kernels.tree_forward):
        amax = forward(*_plan_args(params, plan))[4]
        assert np.array_equal(amax[amax[:, 0] >= 0], np.repeat(firsts[:, None], 3, axis=1))
    _assert_loops_match_numpy(params, plan, 1.0)


def test_within_backend_scores_are_reproducible():
    rng = np.random.default_rng(23)
    params = tiny_params(seed=1)
    tree = random_tree(rng, 9)
    plan = build_plan(params, tree, create_pairs=True)
    first = score_plan(params, plan).total_score
    for _ in range(3):
        assert score_plan(params, plan).total_score == first


def test_warmup_runs_on_active_backend():
    # stubs kept for the benchmark's worker, which calls both; its self-tests
    # look up `warmup` but not `active_backend`
    assert kernels.warmup() is None
    assert kernels.active_backend() == "numpy"
