"""The scoring and training paths call numpy's C routines directly, not the
Python functions in front of them (the rule in the `rcnn` module docstring)."""

import sys

import numpy as np
import pytest

from deprerank import synth
from deprerank.params import Hyperparams, init_random
from deprerank.rcnn import build_forests, plan_batches
from deprerank.reranker import (
    RerankConfig, candidate_model_scores, rerank_corpus, search_alpha, uas_curve,
)
from deprerank.trainer import _SentenceItem, _subgradient, adagrad_step

from helpers import adagrad_sums, synth_corpus

# (module, function) of each numpy Python wrapper the hot paths avoid
WRAPPERS = {
    ("numpy._core._methods", "_sum"), ("numpy._core._methods", "_amax"),
    ("numpy._core._methods", "_amin"), ("numpy._core._methods", "_any"),
    ("numpy._core._methods", "_all"), ("numpy._core.fromnumeric", "_wrapfunc"),
    ("numpy._core.numeric", "full"), ("numpy._core.numeric", "flatnonzero"),
    ("numpy.lib._shape_base_impl", "tile"), ("numpy.lib._arraysetops_impl", "unique"),
    ("numpy.lib._function_base_impl", "append"), ("numpy.lib._function_base_impl", "diff"),
    ("numpy._core.multiarray", "dot"),  # np.dot's dispatcher
}


def wrappers_entered(fn) -> list[tuple[str, str]]:
    """The WRAPPERS that fn() enters, in call order."""
    entered = []

    def profile(frame, event, arg):
        if event == "call":
            key = (frame.f_globals.get("__name__"), frame.f_code.co_name)
            if key in WRAPPERS:
                entered.append(key)

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return entered


def test_each_wrapper_is_seen_when_called():
    # if numpy moves or renames one of them, this fails, not the guards below
    a = np.arange(6.0).reshape(2, 3)
    calls = [a.sum, a.max, a.min, a.any, a.all, lambda: np.argsort(a[0]),
             lambda: np.full(3, 1), lambda: np.tile(a, 2), lambda: np.unique(a),
             lambda: np.append(a, 1.0), lambda: np.diff(a[0]), lambda: np.flatnonzero(a),
             lambda: np.dot(a, a.T)]
    assert {key for fn in calls for key in wrappers_entered(fn)} == WRAPPERS


def _model_and_lists():
    lists = synth_corpus(seed=3, sentences=4, k=8, length_range=(6, 12))
    golds = [kb.gold for kb in lists]
    params = init_random(Hyperparams(m=4, m_d=3, k=8), sorted({f for g in golds for f in g.forms}),
                         list(synth.DEFAULT_TAGS), seed=1)
    return params, lists


def test_scoring_enters_no_numpy_wrapper():
    params, lists = _model_and_lists()
    # one list alone (its own plan), then several in one batch (split plans),
    # with the oracle, the mixture and the attachment counts
    assert wrappers_entered(lambda: candidate_model_scores(params, lists[0])) == []
    assert wrappers_entered(lambda: rerank_corpus(
        params, lists, RerankConfig(alpha=0.5, include_oracle=True), {"DT"})) == []


@pytest.mark.parametrize("normalize", [False, True])
def test_the_alpha_search_enters_no_numpy_wrapper(normalize):
    params, lists = _model_and_lists()
    assert wrappers_entered(lambda: search_alpha(params, lists, 0.05, {"DT"},
                                                 normalize=normalize)) == []


def test_the_curve_enters_no_numpy_wrapper():
    params, lists = _model_and_lists()
    assert wrappers_entered(lambda: uas_curve(params, lists, [1, 2, 8], 0.05, {"DT"})) == []


def test_a_training_step_enters_no_numpy_wrapper():
    params, lists = _model_and_lists()
    items = _SentenceItem.build_all(params, lists, kappa=2.0)
    state = adagrad_sums(params)
    hinges = []

    def step():
        for item in items:
            grads, hinge = _subgradient(params, item)
            hinges.append(hinge)
            if hinge > 0.0:
                adagrad_step(params, state, grads, lam=1e-4)

    assert wrappers_entered(step) == []
    assert any(hinge > 0.0 for hinge in hinges)


def test_a_second_build_of_training_items_enters_no_numpy_wrapper():
    # the first build creates the pairs (parameter init is no hot path); the
    # second finds them all stored, as a build for a model that has its pairs
    params, lists = _model_and_lists()
    count = len(params.pos_pairs)
    _SentenceItem.build_all(params, lists, kappa=2.0)
    assert len(params.pos_pairs) > count
    count = len(params.pos_pairs)
    assert wrappers_entered(lambda: _SentenceItem.build_all(params, lists, kappa=2.0)) == []
    assert len(params.pos_pairs) == count


def test_a_forest_build_enters_no_numpy_wrapper():
    params, lists = _model_and_lists()
    assert len(plan_batches(lists)) == 1 and len(lists) > 1
    assert wrappers_entered(lambda: build_forests(params, lists)) == []
