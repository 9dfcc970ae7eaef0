#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of deprerank training and reranking.

Run from the root of a checkout (the package is imported from ./src):

    python3 perfbench/run.py --workload rerank-k8-long --seed 1 --seconds 50 --trace 0

One run:

1. generates the workload's inputs from --seed (see workloads.py) into
   .perfbench_runs/<workload>-seed<n>-trace<t>/;
2. starts worker.py, a fresh single-threaded process that repeats the
   workload's pass for --seconds (at least five passes) and reports the
   untraced end-to-end figures, or with --trace 1 alternates untraced and
   traced passes and reports per-layer figures and the tracing overhead. A
   pass trains (on train-k64 its train set; on rerank workloads a separate
   model-prep set, which makes the model they rerank with) and then reranks
   (dev on train-k64, the held-out lists on rerank workloads);
3. checks the outputs, untimed: a sample of candidate scores against the
   independent scorer in reference.py (1e-9 relative), the CoNLL output
   re-parsed and aligned with gold with the reported UAS, every pass giving
   identical results, and `deprerank.cli.main` on the same files printing the
   same best_dev_uas / best_alpha / uas and writing the same bytes;
4. prints a JSON run record, then as its last line
   {"correct", "attempted", "failed", "metrics"} with the metrics that
   BENCHMARK.json lists for the trace level.

`attempted` and `failed` count sentences (a trained sentence-epoch or a
reranked k-best list); a sentence fails when it raises or a check on it
fails.

Timings. On a shared machine other tenants slow the same code by up to 2x
for stretches of seconds to minutes, often for a whole run. So every timed
part of a pass (the set-up, one training epoch, one k-best list's scoring,
the rest of the rerank phase) is bracketed by bursts of a fixed calibration
kernel (speed.py) and rescaled to the reference speed; the reported figures
are medians over the untraced passes of these scaled times, and
`sent_ms_p50`/`sent_ms_p95` are percentiles over every list's scaled
latency in every untraced pass (the record gives the sample count). The run record (the JSON line before the result) also gives the
same figures from the raw wall times, under "raw", and the median ratio of
scaled to raw time. `setup_s` is the set-up of the workload's own command:
training on train-k64, reranking on rerank workloads.

Per-layer figures are raw span times and counts per traced pass. `trace.overhead_ratio` is the median
scaled traced time over the median scaled untraced time of the traced phases
in the same run; `trace.hot_self_share` is the share of raw traced time
spent in the self time of build_plan, tree_forward and read_kbest_files. Kernel `.arcs`,
`.flops` and `.bytes` are computed from plan sizes, not measured.

Self-tests: PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMBA_NUM_THREADS")


def source_digest(src: str) -> str:
    h = hashlib.sha256()
    pkg = os.path.join(src, "deprerank")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as f:
                h.update(name.encode() + b"\0" + f.read())
    return h.hexdigest()[:16]


def git_head() -> str | None:
    """The commit of a git checkout, read from .git without running git."""
    try:
        with open(os.path.join(".git", "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(".git", head[5:]), encoding="utf-8") as f:
                head = f.read().strip()
        return head
    except OSError:
        return None


def run_cli(argv: list[str]) -> tuple[int, str]:
    from deprerank import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def check_outputs(wl, run_dir: str, seed: int, outcome: dict) -> tuple[int, list[str]]:
    """Untimed correctness checks; returns (failed sentences, problems)."""
    from deprerank import params, treebank
    import reference
    import workloads as W

    path = lambda name: os.path.join(run_dir, name)
    target, model_file = wl.rerank_role, path("model.bin")
    kbs = treebank.read_kbest_files(path(f"{target}.conll"), path(f"{target}.kbest"))
    punct = treebank.resolve_punct_set(W.PUNCT_SET)
    bad: set[int] = set()
    problems: list[str] = []

    model = params.load(model_file)
    for i, (kb, scores) in enumerate(zip(kbs, outcome["scores"])):
        for j in sorted({0, len(scores) // 2, len(scores) - 1}):  # first, middle, last
            if not reference.agrees(scores[j], model, kb.candidates[j][0]):
                bad.add(i)
                problems.append(f"sentence {i} candidate {j}: score differs from reference")

    pred = treebank.load_conll(path("out.conll"))
    golds = [kb.gold for kb in kbs]
    if len(pred) != len(golds):
        bad.update(range(len(golds)))
        problems.append(f"output has {len(pred)} sentences, gold {len(golds)}")
    else:
        for i, (p, g) in enumerate(zip(pred, golds)):
            if p.forms != g.forms or p.pos_tags != g.pos_tags:
                bad.add(i)
                problems.append(f"output sentence {i} does not align with gold")
        if not bad and treebank.corpus_uas(pred, golds, punct).uas != outcome["uas"]:
            bad.update(range(len(golds)))
            problems.append("UAS of the output file differs from the reported UAS")
    with open(path("out.tsv"), encoding="utf-8") as f:
        if sum(1 for _ in f) != len(golds) + 1:
            problems.append("report does not have one row per sentence")
            bad.update(range(len(golds)))

    cli_failed = False
    train = wl.train_role
    code, text = run_cli([
        "train", "--train-gold", path(f"{train}.conll"), "--train-kbest", path(f"{train}.kbest"),
        "--dev-gold", path("dev.conll"), "--dev-kbest", path("dev.kbest"),
        "--model-out", path("cli_model.bin"), "--m", str(W.M), "--m-d", str(W.M_D),
        "--k", str(wl.k), "--seed", str(seed), "--max-epochs", str(wl.epochs),
        "--patience", str(wl.epochs), "--punct-set", W.PUNCT_SET])
    if code != 0 or f"best_dev_uas={outcome['best_dev_uas']:.6f}" not in text:
        cli_failed = True
        problems.append(f"cli train disagrees: exit {code}, {text.splitlines()[-1:]}")
    elif not same_bytes(path("cli_model.bin"), model_file):
        cli_failed = True
        problems.append("cli train saved other model bytes")
    code, text = run_cli([
        "rerank", "--model", model_file, "--gold", path(f"{target}.conll"),
        "--kbest", path(f"{target}.kbest"), "--search-alpha",
        "--alpha-step", str(W.ALPHA_STEP), "--punct-set", W.PUNCT_SET,
        "--output", path("cli.conll"), "--report", path("cli.tsv")])
    expected = (f"best_alpha={outcome['alpha']:.6g} search_uas={outcome['search_uas']:.6f}\n"
                f"alpha={outcome['alpha']:.6g} uas={outcome['uas']:.6f} ")
    if code != 0 or not text.startswith(expected):
        cli_failed = True
        problems.append(f"cli rerank disagrees: exit {code}, {text!r}")
    elif not (same_bytes(path("cli.conll"), path("out.conll"))
              and same_bytes(path("cli.tsv"), path("out.tsv"))):
        cli_failed = True
        problems.append("cli rerank wrote other output bytes")
    if cli_failed:
        bad.update(range(len(golds)))
    return len(bad), problems


def same_bytes(a: str, b: str) -> bool:
    with open(a, "rb") as fa, open(b, "rb") as fb:
        return fa.read() == fb.read()


def end_to_end(wl, result: dict, which: int) -> dict[str, float]:
    """End-to-end figures from the untraced passes: each time is the median
    over passes; `which` picks raw (0) or scaled (1) lap times."""
    passes = [p for p in result["passes"] if not p["traced"]]
    median = statistics.median
    latencies = [lap[which] for p in passes for lap in p["latencies"]]
    outcome = result["outcome"]
    return {
        "setup_s": median(p["setup"][which] for p in passes),
        "train_sent_per_s": passes[0]["train_sents"] / median(
            sum(lap[which] for lap in p["train_parts"]) for p in passes),
        "rerank_cand_per_s": passes[0]["cands"] / median(
            sum(lap[which] for lap in p["latencies"]) + p["rest"][which] for p in passes),
        "sent_ms_p50": median(latencies) * 1e3,
        "sent_ms_p95": statistics.quantiles(latencies, n=20)[18] * 1e3,
        "peak_rss_mb": result["peak_rss_mb"],
        "uas": outcome["best_dev_uas"] if wl.kind == "train" else outcome["uas"],
    }


def per_layer(result: dict, stats: dict) -> dict[str, float]:
    passes = result["passes"]
    layers = dict(result["layers"])
    untraced = statistics.median(p["command"][1] for p in passes if not p["traced"])
    traced = statistics.median(p["command"][1] for p in passes if p["traced"])
    rows = result["layer_rows"]
    hot = sum(rows.get(name, {}).get("self_s", 0.0) for name in (
        "rcnn.build_plan", "kernels.tree_forward", "treebank.read_kbest_files"))
    layers.update(stats)
    layers.update({
        "trainer.violation_ratio": passes[0]["violations"] / passes[0]["train_sents"],
        "trace.overhead_ratio": traced / untraced,
        "trace.hot_self_share": hot / sum(p["command"][0] for p in passes if p["traced"]),
    })
    return layers


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "deprerank", "__init__.py")):
        print("perfbench: src/deprerank not found; run from the root of a checkout",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)
    sys.path.insert(0, src)

    import numpy
    import workloads as W

    if args.workload not in W.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(W.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = W.WORKLOADS[args.workload]
    run_dir = os.path.join(root, ".perfbench_runs",
                           f"{wl.name}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)

    corpora = W.write_inputs(wl, args.seed, run_dir)
    stats = W.input_stats(corpora["main"][0])
    measured = ("main", "dev") if wl.kind == "train" else ("main",)
    stats["input.bytes"] = sum(os.path.getsize(p) for role in measured
                               for p in corpora[role][1:])
    del corpora

    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), wl.name, run_dir,
         str(args.seed), str(args.seconds), str(args.trace)],
        timeout=args.seconds + 90)
    if proc.returncode != 0:
        print(f"perfbench: worker exited with {proc.returncode}", file=sys.stderr)
        return 1
    with open(os.path.join(run_dir, "result.json"), encoding="utf-8") as f:
        result = json.load(f)
    if result["outcome"] is None:
        print("perfbench: every pass failed:\n" + "\n".join(result["errors"]),
              file=sys.stderr)
        return 1

    check_failed, problems = check_outputs(wl, run_dir, args.seed, result["outcome"])
    failed = result["failed"] + check_failed
    if args.trace:
        values = per_layer(result, stats)
        listed = spec["per_layer"]
    else:
        values = end_to_end(wl, result, 1)
        listed = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}

    untraced = [p for p in result["passes"] if not p["traced"]]
    record = {
        "workload": wl.name, "seed": args.seed, "trace": args.trace,
        "commit": git_head(), "source_digest": source_digest(src),
        "backend": result["backend"], "numpy": numpy.__version__,
        "nproc": os.cpu_count(), "m": W.M, "m_d": W.M_D, "k": wl.k,
        "passes": len(result["passes"]), "untraced_passes": len(untraced),
        "latency_samples": sum(len(p["latencies"]) for p in untraced),
        "scaled_over_raw": statistics.median(p["command"][1] / p["command"][0] for p in untraced),
        "raw": end_to_end(wl, result, 0),
        "input": stats, "problems": problems, "errors": result["errors"],
        "computed_not_measured": ["kernels.*.arcs", "kernels.*.flops", "kernels.*.bytes"],
    }
    with open(os.path.join(run_dir, "record.json"), "w", encoding="utf-8") as f:
        json.dump({"record": record, "metrics": values}, f, indent=1)
    for name in os.listdir(run_dir):
        if name.endswith((".conll", ".kbest", ".bin", ".tsv")):
            os.remove(os.path.join(run_dir, name))
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": failed == 0 and not problems,
                      "attempted": result["attempted"], "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
