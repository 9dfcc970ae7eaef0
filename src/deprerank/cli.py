"""Command-line entry point: train, rerank, eval, oracle, curve, gradcheck."""

from __future__ import annotations

import argparse
import dataclasses
import errno
import itertools
import math
import os
import sys
import time

import numpy as np

from . import params as P, reranker, trainer, treebank
from .errors import ConfigError, DataError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_CHECK = 3


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; this artifact reserves 2 for data errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def read_config(path) -> dict:
    """Flat 'key = value' file ('#' comments) of `TRAIN_SETTINGS` keys, each
    given once and parsed at its line."""
    out, line_of = {}, {}
    for lineno, raw in enumerate(treebank.read_text(path, list), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in TRAIN_SETTINGS:
            raise ConfigError(
                f"{path}:{lineno}: unknown config key {key!r}; "
                f"valid keys: {', '.join(TRAIN_SETTINGS)}")
        if key in line_of:
            raise ConfigError(f"{path}:{lineno}: config key {key!r} is already set "
                              f"at line {line_of[key]}")
        line_of[key] = lineno
        try:
            out[key] = TRAIN_SETTINGS[key][1](value)
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: config key {key!r}: "
                              f"cannot parse {value!r}") from None
    return out


def _resolve_settings(args) -> tuple[P.Hyperparams, trainer.TrainConfig]:
    """The config file's settings with the given flags on top; the rest keep
    their defaults. Flags are range-checked by argparse, so a value rejected
    here came from the config file."""
    given = read_config(args.config) if args.config else {}
    given.update((k, v) for k, v in vars(args).items() if k in TRAIN_SETTINGS and v is not None)
    fields = {TRAIN_SETTINGS[key][0]: value for key, value in given.items()}
    hyper_fields = {f.name for f in dataclasses.fields(P.Hyperparams)}
    try:
        return (P.Hyperparams(**{f: v for f, v in fields.items() if f in hyper_fields}),
                trainer.TrainConfig(**{f: v for f, v in fields.items() if f not in hyper_fields}))
    except ValueError as err:
        raise ConfigError(f"{args.config}: {err}") from None


def _check_paths(outputs=(), inputs=()) -> None:
    """Raise before any work the OSError that writing an output (a directory,
    or in a missing one) or reading an input would raise after it, and a
    DataError for an output that names the file of another output or of an
    input, which the write would replace. None is skipped; no file is
    created or changed."""
    outputs, inputs = [path for path in outputs if path], [path for path in inputs if path]
    for path in outputs:
        if os.path.isdir(path):
            code = errno.EISDIR
        elif not os.path.isdir(os.path.dirname(path) or "."):
            code = errno.ENOENT
        else:
            continue
        raise OSError(code, os.strerror(code), path)
    for first, second in itertools.combinations(outputs, 2):
        if _same_file(first, second):
            raise DataError(f"two outputs name one file: {first} and {second}")
    for output, source in itertools.product(outputs, inputs):
        if _same_file(output, source):
            raise DataError(f"an output names an input file: {output} and {source}")
    for path in inputs:
        open(path, "rb").close()


def _same_file(first, second) -> bool:
    """Whether two paths name one file: the same real path, or two links to
    one file that exists."""
    return os.path.realpath(first) == os.path.realpath(second) or (
        os.path.exists(first) and os.path.exists(second) and os.path.samefile(first, second))


def cmd_train(args) -> int:
    _check_paths([args.model_out], [args.config, args.train_gold, args.train_kbest,
                                    args.dev_gold, args.dev_kbest, args.pretrained])
    hyper, cfg = _resolve_settings(args)
    train_kbs = treebank.read_kbest_files(args.train_gold, args.train_kbest,
                                          args.allow_multiple_roots)
    dev_kbs = treebank.read_kbest_files(args.dev_gold, args.dev_kbest,
                                        args.allow_multiple_roots)
    for kbs, role, path in ((train_kbs, "training", args.train_gold),
                            (dev_kbs, "dev", args.dev_gold)):
        if not kbs:
            raise DataError(f"{path}: the {role} set has no sentences")
    golds = [kb.gold for kb in train_kbs]
    vocab = P.build_word_vocab(golds, min_freq=args.min_freq)
    pos_vocab = P.build_pos_vocab(golds)
    model = P.init_random(hyper, vocab, pos_vocab, cfg.seed)
    print(f"sentences={len(train_kbs)} dev_sentences={len(dev_kbs)} "
          f"vocab={len(model.words)} seed={cfg.seed}")
    if args.pretrained:
        loaded = P.load_pretrained_file(model, args.pretrained)
        print(f"pretrained_loaded={loaded}")

    def report_line(r: trainer.TrainReport) -> None:
        print(f"epoch={r.epoch} mean_hinge={r.mean_hinge:.6f} "
              f"violations={r.violations} dev_uas={r.dev_uas:.6f}", flush=True)

    best, reports = trainer.train(model, train_kbs, dev_kbs, cfg, on_epoch=report_line)
    best_report = max(reports, key=lambda r: (r.dev_uas, -r.epoch))
    P.save(best, args.model_out)
    print(f"model={args.model_out} best_epoch={best_report.epoch} "
          f"best_dev_uas={best_report.dev_uas:.6f}")
    return EXIT_OK


def cmd_rerank(args) -> int:
    _check_paths([args.output, args.report], [args.gold, args.kbest, args.model])
    model = P.load(args.model)
    kbs = treebank.read_kbest_files(args.gold, args.kbest, args.allow_multiple_roots)
    scores = reranker.corpus_model_scores(model, kbs, args.with_oracle)
    if args.search_alpha:
        alpha, dev = reranker.search_alpha(
            model, kbs, args.alpha_step, args.punct_set, include_oracle=args.with_oracle,
            normalize=args.normalize, model_scores=scores)
        print(f"best_alpha={alpha:.6g} search_uas={dev.uas:.6f}")
    else:
        alpha = args.alpha
    config = reranker.RerankConfig(alpha=alpha, include_oracle=args.with_oracle,
                                   normalize=args.normalize)
    result = reranker.rerank_corpus(model, kbs, config, args.punct_set, model_scores=scores)
    print(f"alpha={alpha:.6g} uas={result.score.uas:.6f} "
          f"correct={result.score.correct_heads} scored={result.score.scored_tokens}")
    if args.output:
        treebank.dump_conll(result.trees, args.output)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as f:
            f.write("sentence\tchosen_rank\tmodel_score\tbase_score\tmixture_score\n")
            for sent, rank, m_score, b_score, mix in result.rows:
                f.write(f"{sent}\t{rank}\t{m_score!r}\t{b_score!r}\t{mix!r}\n")
    return EXIT_OK


def cmd_eval(args) -> int:
    pred = treebank.load_conll(args.pred, args.allow_multiple_roots)
    gold = treebank.load_conll(args.gold, args.allow_multiple_roots)
    res = treebank.corpus_uas(pred, gold, args.punct_set)
    print(f"uas={res.uas:.6f} correct={res.correct_heads} scored={res.scored_tokens}")
    if args.per_pos:
        acc = reranker.per_pos_accuracy(pred, gold, args.punct_set)
        for pos in sorted(acc):
            correct, total = acc[pos]
            print(f"pos={pos} correct={correct} total={total} "
                  f"accuracy={correct / total:.6f}")
    return EXIT_OK


def cmd_oracle(args) -> int:
    kbs = treebank.read_kbest_files(args.gold, args.kbest, args.allow_multiple_roots)
    if args.with_oracle:
        kbs = [reranker.augmented(kb, include_oracle=True) for kb in kbs]
    res = treebank.corpus_oracle(kbs, args.punct_set, worst=args.worst)
    which = "worst" if args.worst else "best"
    print(f"oracle={which} uas={res.uas:.6f} correct={res.correct_heads} "
          f"scored={res.scored_tokens}")
    return EXIT_OK


def cmd_curve(args) -> int:
    _check_paths([args.output], [args.gold, args.kbest, args.model])
    model = P.load(args.model)
    kbs = treebank.read_kbest_files(args.gold, args.kbest, args.allow_multiple_roots)
    rows = reranker.uas_curve(model, kbs, args.ks, args.alpha_step, args.punct_set)
    sink = open(args.output, "w", encoding="utf-8") if args.output else sys.stdout
    try:
        sink.write("k\toracle_best\toracle_worst\tmodel\treranker\tbest_alpha\tshort_sentences\n")
        for r in rows:
            sink.write(f"{r.k}\t{r.oracle_best:.6f}\t{r.oracle_worst:.6f}\t"
                       f"{r.model_only:.6f}\t{r.reranked:.6f}\t{r.best_alpha:.6g}\t"
                       f"{r.short_sentences}\n")
    finally:
        if args.output:
            sink.close()
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    start = time.perf_counter()
    suite = trainer.run_grad_check_suite(seed=args.seed, instances=args.instances)
    elapsed = time.perf_counter() - start
    print(f"seed={suite.seed} instances={suite.instances} active={suite.active} "
          f"checked={suite.checked} skipped={suite.skipped} "
          f"max_rel_error={suite.max_rel_error:.3e} tolerance={args.tolerance:.1e} "
          f"elapsed={elapsed:.2f}s")
    if not suite.passed(args.tolerance):
        print(f"FAIL: {suite.worst}", file=sys.stderr)
        return EXIT_CHECK
    return EXIT_OK


def _ks_list(text: str) -> list[int]:
    try:
        ks = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad k list {text!r}") from None
    if not ks or any(k < 1 for k in ks):
        raise argparse.ArgumentTypeError("every k must be a positive integer")
    return ks


def _checked_by(check):
    """argparse type: a float that `check` accepts; the ValueError of the
    conversion or of `check` becomes the usage error."""
    def parse(text: str) -> float:
        try:
            value = float(text)
            check(value)
        except ValueError as err:
            raise argparse.ArgumentTypeError(str(err)) from None
        return value
    return parse


def _number(convert, low, allow_low: bool = True):
    """argparse type: a finite number >= low (> low unless allow_low)."""
    def parse(text: str):
        value = convert(text)
        if not math.isfinite(value) or value < low or (value == low and not allow_low):
            bound = ">=" if allow_low else ">"
            raise argparse.ArgumentTypeError(f"must be a finite number {bound} {low}, got {text}")
        return value
    parse.__name__ = convert.__name__  # argparse names the type in "invalid int value"
    return parse


_POSITIVE_INT = _number(int, 1)
_NON_NEGATIVE_INT = _number(int, 0)
_POSITIVE = _number(float, 0, allow_low=False)
_NON_NEGATIVE = _number(float, 0)


# Every `train` setting: config key -> (its Hyperparams or TrainConfig field, the
# converter of a config value, the argparse type that range-checks `--<key>`).
TRAIN_SETTINGS = {
    "m": ("m", int, _POSITIVE_INT),
    "m_d": ("m_d", int, _POSITIVE_INT),
    "rho": ("rho", float, _POSITIVE),
    "kappa": ("kappa", float, _POSITIVE),
    "lambda": ("lam", float, _NON_NEGATIVE),
    "k": ("k", int, _POSITIVE_INT),
    "dist_clip": ("dist_clip", int, _POSITIVE_INT),
    "seed": ("seed", int, _NON_NEGATIVE_INT),
    "max_epochs": ("max_epochs", int, _POSITIVE_INT),
    "patience": ("patience", int, _POSITIVE_INT),
    "punct_set": ("punct_tags", treebank.resolve_punct_set, treebank.resolve_punct_set),
}


def _add_common(sub, model=False):
    sub.add_argument("--punct-set", default="ptb", type=treebank.resolve_punct_set,
                     help="ptb, ctb, none, or a comma-separated tag list")
    sub.add_argument("--allow-multiple-roots", action="store_true",
                     help="accept sentences with several tokens attached to root")
    if model:
        sub.add_argument("--model", required=True, help="trained model file")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="deprerank",
                     description="K-best dependency-parse re-ranking with a "
                                 "recursive convolutional tree scorer.")
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    t = subs.add_parser("train", help="train a scorer on k-best lists")
    t.add_argument("--train-gold", required=True)
    t.add_argument("--train-kbest", required=True)
    t.add_argument("--dev-gold", required=True)
    t.add_argument("--dev-kbest", required=True)
    t.add_argument("--model-out", required=True)
    t.add_argument("--pretrained", help="word2vec text-format vectors")
    t.add_argument("--config", help="flat key = value settings file")
    for key, (_, _, flag_type) in TRAIN_SETTINGS.items():
        t.add_argument("--" + key.replace("_", "-"), dest=key, type=flag_type)
    t.add_argument("--min-freq", type=_POSITIVE_INT, default=2,
                   help="forms rarer than this train the unknown-word row")
    t.add_argument("--allow-multiple-roots", action="store_true")
    t.set_defaults(func=cmd_train)

    r = subs.add_parser("rerank", help="select trees by mixing model and base scores")
    r.add_argument("--gold", required=True)
    r.add_argument("--kbest", required=True)
    which = r.add_mutually_exclusive_group(required=True)
    which.add_argument("--alpha", type=_checked_by(reranker.RerankConfig))
    which.add_argument("--search-alpha", action="store_true",
                       help="grid-search the mixture weight on this input")
    r.add_argument("--alpha-step", type=_checked_by(reranker.alpha_grid), default=0.005)
    r.add_argument("--with-oracle", action="store_true",
                   help="add the gold tree to every candidate list")
    r.add_argument("--normalize", action="store_true",
                   help="z-normalize both score columns within each sentence")
    r.add_argument("--output", help="write chosen trees as CoNLL-X")
    r.add_argument("--report", help="write a per-sentence TSV report")
    _add_common(r, model=True)
    r.set_defaults(func=cmd_rerank)

    e = subs.add_parser("eval", help="UAS of a prediction file against gold")
    e.add_argument("--pred", required=True)
    e.add_argument("--gold", required=True)
    e.add_argument("--per-pos", action="store_true",
                   help="also print per-modifier-POS accuracy")
    _add_common(e)
    e.set_defaults(func=cmd_eval)

    o = subs.add_parser("oracle", help="best/worst candidate selection bounds")
    o.add_argument("--gold", required=True)
    o.add_argument("--kbest", required=True)
    pickside = o.add_mutually_exclusive_group()
    pickside.add_argument("--best", dest="worst", action="store_false")
    pickside.add_argument("--worst", dest="worst", action="store_true")
    o.add_argument("--with-oracle", action="store_true",
                   help="add the gold tree to every candidate list first")
    o.set_defaults(worst=False)
    _add_common(o)
    o.set_defaults(func=cmd_oracle)

    c = subs.add_parser("curve", help="UAS against k for oracles, model, re-ranker",
                        description="UAS against k. The reranker column's alpha is tuned on "
                        "the same lists it reports, so it is an in-sample figure.")
    c.add_argument("--gold", required=True)
    c.add_argument("--kbest", required=True)
    c.add_argument("--ks", type=_ks_list, required=True,
                   help="comma-separated list, e.g. 1,2,4,8,16,32,64")
    c.add_argument("--alpha-step", type=_checked_by(reranker.alpha_grid), default=0.005)
    c.add_argument("--output", help="write the TSV here instead of stdout")
    _add_common(c, model=True)
    c.set_defaults(func=cmd_curve)

    g = subs.add_parser("gradcheck", help="finite-difference check of the subgradients")
    g.add_argument("--seed", type=_NON_NEGATIVE_INT, default=2024)
    g.add_argument("--instances", type=_POSITIVE_INT, default=50)
    g.add_argument("--tolerance", type=_POSITIVE, default=1e-4)
    g.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with np.errstate(all="ignore"):  # no numpy warning: non-finite scores raise ScoreError
            return args.func(args)
    except (DataError, OSError) as err:
        print(f"deprerank: error: {err}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
