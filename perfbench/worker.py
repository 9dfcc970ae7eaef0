"""One measured workload process: repeats the pipeline pass until time is up.

A pass makes the same public calls, in the same order, as `cli.cmd_train`
followed by `cli.cmd_rerank --search-alpha --output --report` with the saved
model. On train-k64 it trains on the train set and reranks dev; on rerank
workloads it trains the model to rerank with on the model-prep set, then
reranks the held-out lists. Scoring goes through
`reranker.candidate_model_scores` one k-best list at a time, as
`corpus_model_scores` does, so each list's latency can be timed from here.

Each timed part (the set-up, an epoch, a list's scoring, ...) is a lap of
`speed.Laps`: its raw wall time and that time rescaled to the reference speed
by calibration bursts, kept as a [raw, scaled] pair. Long parts are sampled
by a timer as well; list scoring is not, so that no list is interrupted. The
garbage collector is run before each phase, so that every pass starts from
the same heap and its collections fall at the same points.

With tracing, untraced and traced passes alternate; end-to-end figures come
from untraced passes only. A traced pass traces the workload's own command:
both phases on train-k64, the rerank phase alone on rerank workloads, whose
training only prepares the model. Invoked by run.py as

    python3 perfbench/worker.py <workload> <run_dir> <seed> <seconds> <trace>

and writes <run_dir>/result.json.
"""

from __future__ import annotations

import contextlib
import gc
import itertools
import json
import os
import resource
import sys
import time
import traceback

import workloads as W
from speed import Laps
from tracing import Tracer, summarize, time_under
from deprerank import kernels, params, reranker, trainer, treebank

MIN_PASSES = 5
clock = time.perf_counter


def corpus(run_dir: str, role: str) -> tuple[str, str]:
    return os.path.join(run_dir, f"{role}.conll"), os.path.join(run_dir, f"{role}.kbest")


def train_phase(wl: W.Workload, run_dir: str, seed: int, laps: Laps) -> dict:
    """Set up, train on the workload's train role with dev, save model.bin.

    Laps: the set-up, each epoch (dev evaluation included; the first also
    covers plan building), the rest of `trainer.train`, and the save.
    """
    gc.collect()
    laps.lap()  # the time before the phase is no part of it
    with laps.sampled():
        hyper = params.Hyperparams(m=W.M, m_d=W.M_D, k=wl.k)
        cfg = trainer.TrainConfig(max_epochs=wl.epochs, patience=wl.epochs, seed=seed,
                                  punct_tags=treebank.resolve_punct_set(W.PUNCT_SET))
        kernels.warmup()
        train_kbs = treebank.read_kbest_files(*corpus(run_dir, wl.train_role))
        dev_kbs = treebank.read_kbest_files(*corpus(run_dir, "dev"))
        golds = [kb.gold for kb in train_kbs]
        vocab = params.build_word_vocab(golds, min_freq=2)
        pos_vocab = params.build_pos_vocab(golds)
        model = params.init_random(hyper, vocab, pos_vocab, cfg.seed)
        setup = laps.lap()

        train_parts = []
        best, reports = trainer.train(model, train_kbs, dev_kbs, cfg,
                                      on_epoch=lambda report: train_parts.append(laps.lap()))
        train_parts.append(laps.lap())
        params.save(best, os.path.join(run_dir, "model.bin"))
        save = laps.lap()
    best_report = max(reports, key=lambda r: (r.dev_uas, -r.epoch))
    return {
        "setup": setup, "train_parts": train_parts,
        "laps": [setup, *train_parts, save],
        "train_sents": len(train_kbs) * len(reports),
        "violations": sum(r.violations for r in reports),
        "cands_read": sum(len(kb.candidates) for kb in train_kbs + dev_kbs),
        "outcome": {"best_dev_uas": best_report.dev_uas,
                    "reports": [(r.epoch, r.mean_hinge, r.violations, r.dev_uas)
                                for r in reports]},
    }


def rerank_phase(wl: W.Workload, run_dir: str, laps: Laps) -> dict:
    """Set up with model.bin, score every list, search alpha, rerank and
    write both outputs.

    Laps: the set-up, each list's scoring, and the rest.
    """
    gc.collect()
    laps.lap()  # the time before the phase is no part of it
    with laps.sampled():
        model = params.load(os.path.join(run_dir, "model.bin"))
        kernels.warmup()
        kbs = treebank.read_kbest_files(*corpus(run_dir, wl.rerank_role))
        punct = treebank.resolve_punct_set(W.PUNCT_SET)
        setup = laps.lap()

    scores, latencies = [], []
    for kb in kbs:
        scores.append(reranker.candidate_model_scores(model, kb, False))
        latencies.append(laps.lap())
    with laps.sampled():
        alpha, searched = reranker.search_alpha(model, kbs, W.ALPHA_STEP, punct,
                                                include_oracle=False, normalize=False,
                                                model_scores=scores)
        config = reranker.RerankConfig(alpha=alpha, alpha_step=W.ALPHA_STEP)
        result = reranker.rerank_corpus(model, kbs, config, punct, model_scores=scores)
        treebank.dump_conll(result.trees, os.path.join(run_dir, "out.conll"))
        with open(os.path.join(run_dir, "out.tsv"), "w", encoding="utf-8") as f:
            f.write("sentence\tchosen_rank\tmodel_score\tbase_score\tmixture_score\n")
            for sent, rank, m_score, b_score, mix in result.rows:
                f.write(f"{sent}\t{rank}\t{m_score!r}\t{b_score!r}\t{mix!r}\n")
        rest = laps.lap()
    cands = sum(len(kb.candidates) for kb in kbs)
    return {
        "setup": setup, "latencies": latencies, "rest": rest,
        "laps": [setup, *latencies, rest],
        "cands": cands, "cands_read": cands,
        "outcome": {"alpha": alpha, "search_uas": searched.uas,
                    "uas": result.score.uas, "scores": scores},
    }


def one_pass(wl: W.Workload, run_dir: str, seed: int, tracer: Tracer | None) -> dict:
    """Train, then rerank. `setup` is the set-up of the workload's own
    command; `command` (raw, scaled) and `cands_read` cover the phases a
    traced pass traces."""
    own_train = wl.kind == "train"
    untraced = contextlib.nullcontext()
    laps = Laps(sampling=tracer is None)
    with tracer if tracer and own_train else untraced:
        train = train_phase(wl, run_dir, seed, laps)
    with tracer or untraced:
        rerank = rerank_phase(wl, run_dir, laps)
    own = [train, rerank] if own_train else [rerank]
    laps = [lap for phase in own for lap in phase["laps"]]
    return {
        "setup": own[0]["setup"],
        "command": [sum(raw for raw, _ in laps), sum(scaled for _, scaled in laps)],
        "cands_read": sum(phase["cands_read"] for phase in own),
        **{key: train[key] for key in ("train_parts", "train_sents", "violations")},
        **{key: rerank[key] for key in ("latencies", "rest", "cands")},
        "outcome": {**train["outcome"], **rerank["outcome"]},
    }


def layer_metrics(spans, passes: int, cands_read: int) -> tuple[dict, dict]:
    """Per-layer figures per traced pass (counts are exact per pass)."""
    rows = summarize(spans)

    def get(name, key):
        return rows.get(name, {}).get(key, 0.0) / passes

    def per_call(name):
        calls = rows.get(name, {}).get("calls", 0)
        return rows[name]["s"] / calls * 1e6 if calls else 0.0

    out = {
        "treebank.read_kbest.s": get("treebank.read_kbest_files", "s"),
        "treebank.read_kbest.us_per_cand":
            rows["treebank.read_kbest_files"]["s"] / cands_read * 1e6,
        "treebank.uas.calls": get("treebank.uas", "calls"),
        "treebank.uas.s": get("treebank.uas", "s"),
        "params.load.s": get("params.load", "s"),
        "params.init_random.s": get("params.init_random", "s"),
        "params.save.s": get("params.save", "s"),
        "rcnn.build_plan.calls": get("rcnn.build_plan", "calls"),
        "rcnn.build_plan.us_per_call": per_call("rcnn.build_plan"),
        "rcnn.score_plan.self_s": get("rcnn.score_plan", "self_s"),
        "rcnn.backward_tree.self_s": get("rcnn.backward_tree", "self_s"),
        "trainer.adagrad_step.calls": get("trainer.adagrad_step", "calls"),
        "trainer.adagrad_step.s": get("trainer.adagrad_step", "s"),
        "trainer.dev_eval.s": time_under(spans, "reranker.rerank_corpus", "trainer.train") / passes,
        "reranker.candidate_model_scores.self_s": get("reranker.candidate_model_scores", "self_s"),
        "reranker.search_alpha.s": get("reranker.search_alpha", "s"),
        "reranker.rerank_corpus.s": get("reranker.rerank_corpus", "s"),
    }
    for kernel in ("tree_forward", "tree_backward"):
        name = f"kernels.{kernel}"
        out[f"{name}.us_per_call"] = per_call(name)
        for key in ("calls", "arcs", "flops", "bytes"):
            out[f"{name}.{key}"] = get(name, key)
    return out, rows


def main(argv) -> int:
    name, run_dir, seed, seconds, trace = argv
    wl = W.WORKLOADS[name]
    seed, seconds, trace = int(seed), float(seconds), trace == "1"
    passes = []
    attempted = failed = 0
    errors: list[str] = []
    reference_outcome = None
    tracer = Tracer()
    traced_passes = cands_traced = 0
    begin = last = clock()
    for attempt in itertools.count():
        now = clock()
        if attempt >= MIN_PASSES and now + (now - last) - begin > seconds:
            break
        last = now
        is_traced = trace and attempt % 2 == 1
        attempted += wl.ops_per_pass
        try:
            result = one_pass(wl, run_dir, seed, tracer if is_traced else None)
        except Exception:  # a failed pass is counted and reported, not fatal
            errors.append(traceback.format_exc())
            failed += wl.ops_per_pass
            continue
        outcome = result.pop("outcome")
        if reference_outcome is None:
            reference_outcome = outcome
        elif outcome != reference_outcome:
            failed += wl.ops_per_pass
            errors.append(f"pass {attempt} gave other results than the first pass")
        result["traced"] = is_traced
        if is_traced:
            traced_passes += 1
            cands_traced += result["cands_read"]
        passes.append(result)

    record = {"passes": passes, "attempted": attempted, "failed": failed,
              "errors": errors, "outcome": reference_outcome,
              "backend": kernels.active_backend(),
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if trace and traced_passes:
        record["layers"], record["layer_rows"] = layer_metrics(
            tracer.spans, traced_passes, cands_traced)
        with open(os.path.join(run_dir, "spans.json"), "w", encoding="utf-8") as f:
            json.dump([span[:4] for span in tracer.spans], f)
    with open(os.path.join(run_dir, "result.json"), "w", encoding="utf-8") as f:
        json.dump(record, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
