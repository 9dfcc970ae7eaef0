"""Backend selection and numba/numpy kernel parity."""

import importlib.util
import os
import subprocess
import sys

import numpy as np
import pytest

from deprerank import kernels
from deprerank.rcnn import build_plan, score_plan

from helpers import make_tree, random_tree, tiny_params


def _plan_args(params, plan):
    return (plan.order, plan.arc_start, plan.arc_child, plan.node_word,
            plan.arc_dist, plan.arc_pair, params.words.vectors,
            params.distances.vectors, params.pos_pairs.W, params.pos_pairs.v)


@pytest.mark.skipif(kernels.forward_numba is None, reason="numba unavailable")
def test_forward_backward_parity():
    rng = np.random.default_rng(17)
    params = tiny_params(m=5, m_d=4, seed=6)
    for _ in range(10):
        tree = random_tree(rng, int(rng.integers(1, 12)))
        plan = build_plan(params, tree, create_pairs=True)
        nb = kernels.forward_numba(*_plan_args(params, plan))
        np_ = kernels.forward_numpy(*_plan_args(params, plan))
        for a, b in zip(nb, np_):
            assert np.allclose(a, b, rtol=1e-12, atol=1e-14)
        x, p, a, z, amax, unit, total = nb
        back_args = (plan.order, plan.arc_start, plan.arc_child, plan.node_word,
                     plan.arc_dist, plan.arc_pair, plan.wloc, plan.dloc, plan.ploc,
                     len(plan.word_rows), len(plan.dist_rows), len(plan.pair_slots),
                     p, z, amax, params.pos_pairs.W, params.pos_pairs.v, 1.25)
        for ga, gb in zip(kernels.tree_backward(*back_args),
                          kernels.backward_numpy(*back_args)):
            assert np.allclose(ga, gb, rtol=1e-12, atol=1e-14)


def _assert_loops_match_numpy(params, plan, upstream):
    """The jittable loop source, run as plain Python, against the numpy
    kernels: outputs within 1e-12 * max(1, |numpy|), pooling winners equal."""
    def close(got, want):
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))

    loops = kernels._forward_loops(*_plan_args(params, plan))
    fwd = kernels.forward_numpy(*_plan_args(params, plan))
    x, p, a, z, amax, unit, total = fwd
    assert np.array_equal(loops[4], amax)
    for got, want in zip(loops, fwd):
        close(np.asarray(got), np.asarray(want))
    back_args = (plan.order, plan.arc_start, plan.arc_child, plan.node_word,
                 plan.arc_dist, plan.arc_pair, plan.wloc, plan.dloc, plan.ploc,
                 len(plan.word_rows), len(plan.dist_rows), len(plan.pair_slots),
                 p, z, amax, params.pos_pairs.W, params.pos_pairs.v, upstream)
    for got, want in zip(kernels._backward_loops(*back_args),
                         kernels.backward_numpy(*back_args)):
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
    # sources must route it to the first child
    params = tiny_params(m=3, m_d=3, seed=4)
    plan = build_plan(params, make_tree([0, 1, 1, 1, 3, 3, 2]), create_pairs=True)
    params.pos_pairs.W[:] = 0.0
    amax = kernels._forward_loops(*_plan_args(params, plan))[4]
    firsts = plan.arc_start[:-1][plan.arc_start[:-1] < plan.arc_start[1:]]
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


def _child_env(**overrides):
    """The parent's environment plus `overrides`, with the directory holding
    the imported `deprerank` package first on PYTHONPATH, so a child
    interpreter imports the same copy under test (a checkout's `src/` or an
    install)."""
    root = os.path.dirname(os.path.dirname(kernels.__file__))
    env = dict(os.environ, **overrides)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (root, os.environ.get("PYTHONPATH")) if p)
    return env


def test_env_flag_forces_numpy_backend():
    code = ("import deprerank.kernels as k; "
            "print(k.active_backend()); assert k.forward_numba is None")
    out = subprocess.run([sys.executable, "-c", code],
                         env=_child_env(DEPRERANK_NUMBA="0"),
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "numpy"


@pytest.mark.skipif(importlib.util.find_spec("numba") is not None,
                    reason="numba installed: DEPRERANK_NUMBA=1 imports it")
def test_env_flag_requires_numba():
    out = subprocess.run([sys.executable, "-c", "import deprerank.kernels"],
                         env=_child_env(DEPRERANK_NUMBA="1"),
                         capture_output=True, text=True)
    assert out.returncode != 0
    assert out.stderr.strip().splitlines()[-1] == (
        "ModuleNotFoundError: No module named 'numba'")


def test_warmup_runs_on_active_backend():
    kernels.warmup()
    assert kernels.active_backend() in ("numba", "numpy")
