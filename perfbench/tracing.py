"""Spans recorded from outside the program, around calls into each module.

`Tracer.install()` wraps the public functions listed in TRACED in every
`deprerank` module that holds a reference to them (a module that did
`from .rcnn import build_plan` has its own binding, which must be patched
too), and `restore()` puts the originals back. Spans (name, start, end,
parent, kernel sizes) are kept in memory; `summarize` turns them into
per-layer figures.

Kernel operation counts are computed by `summarize`, after the run, from the
plan sizes each kernel call received (arcs, nodes, m, n and the pair slots it
touches); they are labelled computed, not measured.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np

TRACED = (
    ("treebank", ("read_kbest_files", "uas", "dump_conll")),
    ("params", ("load", "save", "init_random", "build_word_vocab", "build_pos_vocab")),
    ("rcnn", ("build_plan", "score_plan", "score_tree", "backward_tree")),
    ("kernels", ("tree_forward", "tree_backward", "warmup")),
    ("trainer", ("train", "adagrad_step")),
    ("reranker", ("candidate_model_scores", "search_alpha", "rerank_corpus")),
)


def forward_sizes(args) -> tuple:
    """What `forward_ops` needs from a `tree_forward` call's arguments: plain
    sizes and a reference to the plan's arc-slot array, so that recording
    them costs next to nothing inside the traced span."""
    order, _, arc_child, _, _, arc_pair, word_vecs, dist_vecs, W, _ = args
    return len(order), len(arc_child), word_vecs.shape[1], W.shape[2], dist_vecs.shape[1], arc_pair


def forward_ops(nodes, arcs, m, n, m_d, arc_pair) -> tuple[int, float, float]:
    """(arcs, flops, bytes) of one `tree_forward` call.

    Per arc: the W p product (2 m n), tanh, the v . z dot (2 m) and the
    pooling compare (m). Bytes: each touched pair slot's W and v once, the
    three input rows and the p, a, z rows per arc, x, argmax and unit score
    per node; float64 and int64 are 8 bytes.
    """
    slots = len(np.unique(arc_pair))
    flops = arcs * (2 * m * n + 4 * m)
    words = slots * (m * n + m) + arcs * (2 * m + m_d + n + 2 * m) + nodes * (2 * m + 1)
    return arcs, float(flops), 8.0 * words


def backward_sizes(args) -> tuple:
    """What `backward_ops` needs from a `tree_backward` call's arguments."""
    order, _, arc_child = args[:3]
    p, z = args[12], args[13]
    return len(order), len(arc_child), z.shape[1], p.shape[1], args[11]


def backward_ops(nodes, arcs, m, n, n_ploc) -> tuple[int, float, float]:
    """(arcs, flops, bytes) of one `tree_backward` call.

    Per arc: the d_W outer product and the W^T da product (2 m n each), the
    tanh derivative and d_v update (about 5 m) and the input split (n). Bytes:
    W and v read and d_W, d_v written once per touched slot, p and z read and
    the input gradient written per arc, dx per node.
    """
    flops = arcs * (4 * m * n + 5 * m + n)
    words = n_ploc * 2 * (m * n + m) + arcs * (2 * n + m) + nodes * 2 * m
    return arcs, float(flops), 8.0 * words


# kernel span name -> (sizes taken at the call, operation counts computed later)
KERNELS = {"kernels.tree_forward": (forward_sizes, forward_ops),
           "kernels.tree_backward": (backward_sizes, backward_ops)}
WARMUP = "kernels.warmup"  # spans below it score toy trees and are left out


class Tracer:
    """Records spans for the wrapped functions while installed."""

    def __init__(self):
        # (name, start, end, parent index or -1, kernel sizes or None)
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        sizes = KERNELS[name][0] if name in KERNELS else None
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            recorded = sizes(args) if sizes is not None else None
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, recorded)

        return wrapper

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [mod for key, mod in list(sys.modules.items())
                   if key == "deprerank" or key.startswith("deprerank.")]
        for short, names in TRACED:
            home = sys.modules[f"deprerank.{short}"]
            for attr in names:
                original = getattr(home, attr)
                wrapper = self._wrap(f"{short}.{attr}", original)
                for mod in modules:
                    for bound, value in list(vars(mod).items()):
                        if value is original:
                            self._patched.append((mod, bound, original))
                            setattr(mod, bound, wrapper)

    def restore(self) -> None:
        for mod, bound, original in reversed(self._patched):
            setattr(mod, bound, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


def _under(spans, idx: int, ancestor: str) -> bool:
    parent = spans[idx][3]
    while parent >= 0:
        if spans[parent][0] == ancestor:
            return True
        parent = spans[parent][3]
    return False


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per-name calls, total time, self time and kernel operation counts.

    Self time is a span's duration minus the time its child spans cover.
    Spans below WARMUP (the toy trees of the jit warm-up) are left out of
    everything but the warm-up's own total. Operation counts are computed
    here, after the run, from the sizes each kernel span recorded.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for i, (name, start, end, _, sizes) in enumerate(spans):
        if _under(spans, i, WARMUP):
            continue
        row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                    "arcs": 0, "flops": 0.0, "bytes": 0.0})
        row["calls"] += 1
        row["s"] += end - start
        row["self_s"] += end - start - child_time[i]
        if sizes is not None:
            for key, value in zip(("arcs", "flops", "bytes"), KERNELS[name][1](*sizes)):
                row[key] += value
    return out


def time_under(spans, name: str, ancestor: str) -> float:
    """Total time of `name` spans that have an `ancestor` span above them."""
    return sum(end - start for i, (sname, start, end, _, _) in enumerate(spans)
               if sname == name and _under(spans, i, ancestor))
