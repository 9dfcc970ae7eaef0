"""End-to-end CLI workflows over small synthetic fixtures."""

import _blake2
import hashlib
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from deprerank import cli, params as P, rcnn, trainer, treebank
from deprerank.cli import main
from deprerank.treebank import corpus_uas, load_conll, write_conll, write_kbest

from helpers import (
    BAD_MODELS, TAGS, from_arrays, make_tree, synth_corpus, tiny_params, with_any_heads,
)


@pytest.fixture()
def corpus_files(tmp_path):
    kbs = synth_corpus(seed=17, sentences=12, k=5, length_range=(3, 6))
    split = {"train": kbs[:8], "dev": kbs[8:]}
    paths = {}
    for name, data in split.items():
        gold = tmp_path / f"{name}.conll"
        kbest = tmp_path / f"{name}.kbest"
        gold.write_text(write_conll([kb.gold for kb in data]), encoding="utf-8")
        kbest.write_text(write_kbest(data), encoding="utf-8")
        paths[name] = (gold, kbest)
    return paths, split


def _train_args(paths, model_path, *extra):
    (tg, tk), (dg, dk) = paths["train"], paths["dev"]
    return ["train", "--train-gold", str(tg), "--train-kbest", str(tk),
            "--dev-gold", str(dg), "--dev-kbest", str(dk),
            "--model-out", str(model_path), "--m", "4", "--m-d", "4",
            "--k", "5", "--max-epochs", "3", "--seed", "1",
            "--punct-set", "none", *extra]


def test_train_smoke_and_epoch_lines(tmp_path, corpus_files, capsys):
    paths, _ = corpus_files
    model_path = tmp_path / "model.bin"
    assert main(_train_args(paths, model_path)) == 0
    out = capsys.readouterr().out
    epoch_lines = [l for l in out.splitlines() if l.startswith("epoch=")]
    assert len(epoch_lines) == 3
    for line in epoch_lines:
        fields = dict(part.split("=", 1) for part in line.split())
        assert set(fields) == {"epoch", "mean_hinge", "violations", "dev_uas"}
        float(fields["mean_hinge"])
    model = P.load(model_path)
    assert model.hyper.m == 4


def test_train_same_seed_byte_identical(tmp_path, corpus_files):
    paths, _ = corpus_files
    out1, out2 = tmp_path / "a.bin", tmp_path / "b.bin"
    assert main(_train_args(paths, out1)) == 0
    assert main(_train_args(paths, out2)) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_rerank_at_alpha_1_on_dev_prints_the_selected_dev_uas(tmp_path, corpus_files, capsys,
                                                               monkeypatch):
    # train's dev selection and rerank score dev through one path, so the
    # saved model reranks dev with the UAS it was selected at; a small budget
    # makes dev several forests of several lists each
    monkeypatch.setattr(rcnn, "PLAN_BUDGET", 60)
    paths, split = corpus_files
    batches = rcnn.plan_batches(split["dev"])
    assert len(batches) > 1 and max(map(len, batches)) > 1
    model_path = tmp_path / "model.bin"
    assert main(_train_args(paths, model_path)) == 0
    best = capsys.readouterr().out.splitlines()[-1].split(" best_dev_uas=")[1]
    dg, dk = paths["dev"]
    assert main(["rerank", "--model", str(model_path), "--gold", str(dg), "--kbest", str(dk),
                 "--alpha", "1", "--punct-set", "none"]) == 0
    assert f" uas={best} " in capsys.readouterr().out


def test_train_missing_kbest_file_exits_2(tmp_path, corpus_files, capsys):
    paths, _ = corpus_files
    (tg, _), (dg, dk) = paths["train"], paths["dev"]
    missing = tmp_path / "nope.kbest"
    code = main(["train", "--train-gold", str(tg), "--train-kbest", str(missing),
                 "--dev-gold", str(dg), "--dev-kbest", str(dk),
                 "--model-out", str(tmp_path / "m.bin")])
    assert code == 2
    assert str(missing) in capsys.readouterr().err


@pytest.mark.parametrize("flag, text, message", [
    ("--dev-gold", "1\ta\t_\tDT\tDT\t_\t0\t_\n2\tb\tNN\t1\n",
     "line 2: expected >= 8 tab-separated columns, got 4"),
    ("--train-gold", "1\ta\tDT\t0\n", "line 1: expected >= 8 tab-separated columns, got 4"),
    ("--dev-kbest", "SENT zero\n", "line 1: expected 'SENT <index> <k>', got 'SENT zero'"),
    ("--train-kbest", "SENT 0 1\nCAND 1 -1.0\nHEAD 0 x\n",
     "line 3: non-integer head in 'HEAD 0 x'"),
    ("--pretrained", "1 4\nw1 0.5\n", "line 2: expected a form and 4 values, got 2 fields"),
], ids=["dev-gold", "train-gold", "dev-kbest", "train-kbest", "pretrained"])
def test_a_malformed_data_file_exits_2_naming_it(tmp_path, corpus_files, capsys, flag, text,
                                                 message):
    paths, _ = corpus_files
    bad = tmp_path / "bad.txt"
    bad.write_text(text, encoding="utf-8")
    args = _train_args(paths, tmp_path / "m.bin", "--pretrained", str(tmp_path / "v.txt"))
    (tmp_path / "v.txt").write_text("1 4\nw1 0.5 0.5 0.5 0.5\n", encoding="utf-8")
    args[args.index(flag) + 1] = str(bad)
    assert main(args) == 2
    assert capsys.readouterr().err.splitlines() == [f"deprerank: error: {bad}: {message}"]
    assert not (tmp_path / "m.bin").exists()


@pytest.mark.parametrize("role", ["train", "dev"])
def test_train_on_an_empty_corpus_exits_2(tmp_path, corpus_files, capsys, role):
    paths, _ = corpus_files
    gold, kbest = tmp_path / "empty.conll", tmp_path / "empty.kbest"
    gold.write_text("", encoding="utf-8")
    kbest.write_text("", encoding="utf-8")
    paths = dict(paths, **{role: (gold, kbest)})
    assert main(_train_args(paths, tmp_path / "m.bin")) == 2
    err = capsys.readouterr().err.splitlines()
    name = "training" if role == "train" else "dev"
    assert err == [f"deprerank: error: {gold}: the {name} set has no sentences"]
    assert not (tmp_path / "m.bin").exists()


@pytest.mark.parametrize("command, flag", [
    ("train", "--train-gold"), ("train", "--train-kbest"), ("train", "--dev-gold"),
    ("train", "--dev-kbest"), ("train", "--config"), ("train", "--pretrained"),
    ("rerank", "--gold"), ("rerank", "--kbest"), ("oracle", "--gold"), ("oracle", "--kbest"),
    ("curve", "--gold"), ("curve", "--kbest"), ("eval", "--pred"), ("eval", "--gold"),
])
def test_a_file_that_is_not_utf8_exits_2(tmp_path, corpus_files, capsys, command, flag):
    paths, _ = corpus_files
    (tg, tk), (dg, dk) = paths["train"], paths["dev"]
    model = tmp_path / "model.bin"
    P.save(tiny_params(m=4, m_d=4), model)
    config, pretrained = tmp_path / "train.cfg", tmp_path / "vectors.txt"
    config.write_text("m = 4\nm_d = 4\n", encoding="utf-8")
    pretrained.write_text("1 4\nw1 0.5 0.5 0.5 0.5\n", encoding="utf-8")
    args = {
        "train": ["--train-gold", tg, "--train-kbest", tk, "--dev-gold", dg, "--dev-kbest", dk,
                  "--model-out", tmp_path / "m.bin", "--config", config,
                  "--pretrained", pretrained, "--max-epochs", "1"],
        "rerank": ["--gold", dg, "--kbest", dk, "--model", model, "--alpha", "0.5"],
        "oracle": ["--gold", dg, "--kbest", dk],
        "curve": ["--gold", dg, "--kbest", dk, "--model", model, "--ks", "1,2"],
        "eval": ["--pred", dg, "--gold", tmp_path / "gold.conll"],
    }[command]
    args = [str(a) for a in args]
    if command == "eval":
        (tmp_path / "gold.conll").write_bytes(dg.read_bytes())
    target = Path(args[args.index(flag) + 1])
    data = target.read_bytes()
    target.write_bytes(data[:len(data) // 2] + b"\xff" + data[len(data) // 2:])
    assert main([command, *args]) == 2
    err = capsys.readouterr().err
    assert err == f"deprerank: error: {target}: not UTF-8 text (invalid start byte)\n"
    assert not (tmp_path / "m.bin").exists()


def test_unknown_config_key_exits_2(tmp_path, corpus_files, capsys):
    paths, _ = corpus_files
    cfg = tmp_path / "train.cfg"
    cfg.write_text("m = 4\nturbo = on\n", encoding="utf-8")
    code = main(_train_args(paths, tmp_path / "m.bin", "--config", str(cfg)))
    assert code == 2
    err = capsys.readouterr().err
    assert "turbo" in err and "valid keys" in err


def test_config_file_values_and_flag_override(tmp_path, corpus_files, capsys):
    paths, _ = corpus_files
    cfg = tmp_path / "train.cfg"
    cfg.write_text("m = 3\nm_d = 6\nk = 5\nmax_epochs = 2\npunct_set = none\n",
                   encoding="utf-8")
    (tg, tk), (dg, dk) = paths["train"], paths["dev"]
    model_path = tmp_path / "m.bin"
    code = main(["train", "--train-gold", str(tg), "--train-kbest", str(tk),
                 "--dev-gold", str(dg), "--dev-kbest", str(dk),
                 "--model-out", str(model_path), "--config", str(cfg),
                 "--m", "4", "--seed", "0"])
    assert code == 0
    model = P.load(model_path)
    assert model.hyper.m == 4      # flag wins
    assert model.hyper.m_d == 6    # config wins over default
    capsys.readouterr()


# every train setting: its config key and flag, a value for each, and the
# Hyperparams or TrainConfig field that holds it, with the two values as held
TRAIN_SETTING_CASES = [
    ("m", "--m", "3", "4", "m", 3, 4),
    ("m_d", "--m-d", "5", "6", "m_d", 5, 6),
    ("rho", "--rho", "0.5", "0.25", "rho", 0.5, 0.25),
    ("kappa", "--kappa", "1.5", "3", "kappa", 1.5, 3.0),
    ("lambda", "--lambda", "0.01", "0", "lam", 0.01, 0.0),
    ("k", "--k", "8", "16", "k", 8, 16),
    ("dist_clip", "--dist-clip", "4", "7", "dist_clip", 4, 7),
    ("seed", "--seed", "11", "5", "seed", 11, 5),
    ("max_epochs", "--max-epochs", "2", "9", "max_epochs", 2, 9),
    ("patience", "--patience", "3", "1", "patience", 3, 1),
    ("punct_set", "--punct-set", "ctb", "none", "punct_tags", frozenset({"PU"}), frozenset()),
]


@pytest.mark.parametrize("key, flag, config_value, flag_value, field, from_config, from_flag",
                         TRAIN_SETTING_CASES)
def test_each_train_setting_reads_its_config_key_and_flag(
        tmp_path, key, flag, config_value, flag_value, field, from_config, from_flag):
    cfg = tmp_path / "train.cfg"
    cfg.write_text(f"{key} = {config_value}\n", encoding="utf-8")
    required = ["train", "--train-gold", "g", "--train-kbest", "k", "--dev-gold", "dg",
                "--dev-kbest", "dk", "--model-out", "m.bin"]

    def resolved(*extra):
        hyper, train_cfg = cli._resolve_settings(cli.build_parser().parse_args(
            [*required, *extra]))
        return {**vars(hyper), **vars(train_cfg)}

    defaults = resolved()
    from_file = resolved("--config", str(cfg))
    overridden = resolved("--config", str(cfg), flag, flag_value)
    assert (from_file[field], overridden[field]) == (from_config, from_flag)
    assert defaults[field] not in (from_config, from_flag)
    for other in defaults.keys() - {field}:
        assert from_file[other] == overridden[other] == defaults[other]


@pytest.mark.parametrize("flags", [[], ["--m", "4"]])
def test_unparsable_config_value_exits_2_at_its_line(tmp_path, corpus_files, capsys, flags):
    # parsed where it is read, so a flag that overrides it does not hide it
    paths, _ = corpus_files
    cfg = tmp_path / "train.cfg"
    (tg, tk), (dg, dk) = paths["train"], paths["dev"]
    cfg.write_text("m = four\nm_d = 4\n", encoding="utf-8")
    code = main(["train", "--train-gold", str(tg), "--train-kbest", str(tk),
                 "--dev-gold", str(dg), "--dev-kbest", str(dk),
                 "--model-out", str(tmp_path / "m.bin"), "--config", str(cfg), *flags])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        f"deprerank: error: {cfg}:1: config key 'm': cannot parse 'four'"]
    assert not (tmp_path / "m.bin").exists()


def test_bad_config_value_exits_2(tmp_path, corpus_files, capsys):
    # _train_args also sets the key by its flag, which does not hide the bad line
    paths, _ = corpus_files
    cfg = tmp_path / "train.cfg"
    cfg.write_text("m_d = 4\nmax_epochs = 0\n", encoding="utf-8")
    code = main(_train_args(paths, tmp_path / "m.bin", "--config", str(cfg)))
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        f"deprerank: error: {cfg}:2: config key 'max_epochs': "
        "must be a finite number >= 1, got 0"]
    assert not (tmp_path / "m.bin").exists()


def test_negative_config_seed_exits_2(tmp_path, corpus_files, capsys):
    # _train_args also sets the key by its flag, which does not hide the bad line
    paths, _ = corpus_files
    cfg = tmp_path / "train.cfg"
    cfg.write_text("seed = -1\n", encoding="utf-8")
    code = main(_train_args(paths, tmp_path / "m.bin", "--config", str(cfg)))
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        f"deprerank: error: {cfg}:1: config key 'seed': must be a finite number >= 0, got -1"]
    assert not (tmp_path / "m.bin").exists()


def test_config_key_given_twice_exits_2_naming_both_lines(tmp_path, corpus_files, capsys):
    paths, _ = corpus_files
    cfg = tmp_path / "train.cfg"
    cfg.write_text("m = 4\n# later\nm_d = 4\nm = 6\n", encoding="utf-8")
    code = main(_train_args(paths, tmp_path / "m.bin", "--config", str(cfg)))
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        f"deprerank: error: {cfg}:4: config key 'm' is already set at line 1"]
    assert not (tmp_path / "m.bin").exists()


def test_readme_lists_the_config_keys_of_the_train_settings():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    listed = readme.split("Valid keys:", 1)[1].split("`")[1]
    assert [key.strip() for key in listed.split(",")] == list(cli.TRAIN_SETTINGS)


def test_usage_errors_exit_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["rerank", "--alpha", "1.5", "--gold", "x", "--kbest", "y", "--model", "z"])
    assert exc.value.code == 1
    capsys.readouterr()


_REFUSED_FLAGS = [("train", flag, value, "must be a finite number") for flag, value in [
    ("--m", "0"), ("--m-d", "-2"), ("--rho", "-1"), ("--rho", "nan"), ("--kappa", "0"),
    ("--lambda", "-1e-4"), ("--k", "0"), ("--dist-clip", "0"), ("--max-epochs", "0"),
    ("--seed", "-1"), ("--patience", "0"), ("--patience", "-4"), ("--min-freq", "0"),
    ("--min-freq", "-4"),
]] + [
    ("rerank", "--alpha", "1.5", "alpha must lie in [0, 1], got 1.5"),
    ("rerank", "--alpha", "nan", "alpha must lie in [0, 1], got nan"),
    ("rerank", "--alpha", "high", "could not convert string to float: 'high'"),
    ("rerank", "--alpha-step", "0", "alpha step must lie in (0, 1], got 0"),
    ("curve", "--alpha-step", "1e-5", "alpha step must be >= 0.0001"),
    *((command, "--alpha-step", step, f"alpha step must divide 1, got {step}")
      for command in ("rerank", "curve") for step in ("0.3", "0.4", "0.7", "0.0049")),
    ("curve", "--ks", "1,0", "every k must be a positive integer"),
    ("gradcheck", "--seed", "-1", "must be a finite number >= 0, got -1"),
    ("gradcheck", "--instances", "0", "must be a finite number >= 1, got 0"),
    ("gradcheck", "--tolerance", "nan", "must be a finite number > 0, got nan"),
]


@pytest.mark.parametrize("command, flag, value, message", [
    pytest.param(command, flag, value, message,  # train's ids name the flag alone
                 id=f"{flag}-{value}" if command == "train" else f"{command}{flag}-{value}")
    for command, flag, value, message in _REFUSED_FLAGS])
def test_train_bad_hyperparameter_exits_1(tmp_path, corpus_files, capsys, command, flag, value,
                                          message):
    # every command's refused flag value: exit 1 and argparse's usage line
    paths, _ = corpus_files
    argv = {"train": _train_args(paths, tmp_path / "m.bin"),
            "rerank": ["rerank", "--gold", "g", "--kbest", "k", "--model", "m"],
            "curve": ["curve", "--gold", "g", "--kbest", "k", "--model", "m", "--ks", "1"],
            "gradcheck": ["gradcheck"]}[command]
    with pytest.raises(SystemExit) as exc:
        main(argv + [f"{flag}={value}"])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.splitlines()[-1].startswith(f"deprerank {command}: error: argument {flag}: {message}")
    assert "Traceback" not in err
    assert not (tmp_path / "m.bin").exists()


_TOO_LARGE = ["--m=1000000000000", "--m-d=1000000000000", "--dist-clip=1000000000000"]


@pytest.mark.parametrize("case", ["--rho=1e120", "--lambda=1e200", "rerank", *_TOO_LARGE])
def test_overflowing_settings_end_in_at_most_one_line(tmp_path, corpus_files, capsys, case):
    # train to nan parameters, train through an overflow that stays finite,
    # rerank with a finite model whose scores are inf, and train with tables
    # too large to allocate (each is refused by its estimate, so none
    # allocates anything); under pytest, numpy's warnings are recorded, not printed
    paths, _ = corpus_files
    if case != "rerank":
        argv = _train_args(paths, tmp_path / "m.bin", case)
    else:
        model = P.load(_trained_model(tmp_path, paths))
        for table in (model.words.vectors, model.distances.vectors, model.pos_pairs.W):
            table[:] = 1.0  # every hidden unit near 1
        model.pos_pairs.v[:] = 1e308
        P.save(model, tmp_path / "inf.bin")
        dg, dk = paths["dev"]
        argv = ["rerank", "--model", str(tmp_path / "inf.bin"), "--gold", str(dg),
                "--kbest", str(dk), "--search-alpha"]
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    err = capsys.readouterr().err
    assert code in (0, 2) and err.count("\n") <= 1
    assert "Traceback" not in err and "Warning" not in err and not caught
    # the error names the epoch, or the model file whose scores overflow
    begins = {"--rho=1e120": "deprerank: error: epoch ", "--lambda=1e200": "",
              "rerank": f"deprerank: error: {tmp_path / 'inf.bin'}: list 0: model score ",
              **dict.fromkeys(_TOO_LARGE, "deprerank: error: out of memory")}
    assert err.startswith(begins[case]) and code == (2 if begins[case] else 0)


# a huge size is 10**12 alone, which its estimate refuses; a mid-size one
# just under MEMORY_LIMIT would really allocate gigabytes
_SIZE = st.sampled_from((1, 2, 3, 4, 10 ** 12))
_SCALE = st.floats(1e-300, 1e300)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rho=_SCALE, kappa=_SCALE, lam=st.just(0.0) | _SCALE, m=_SIZE, m_d=_SIZE,
       dist_clip=_SIZE, k=st.integers(1, 8) | st.just(10 ** 18), epochs=st.integers(1, 2))
@example(rho=1e120, kappa=2.0, lam=1e-4, m=4, m_d=4, dist_clip=10, k=5, epochs=3)
@example(rho=0.1, kappa=2.0, lam=1e200, m=4, m_d=4, dist_clip=10, k=5, epochs=3)
@example(rho=0.1, kappa=2.0, lam=1e-4, m=10 ** 12, m_d=4, dist_clip=10, k=5, epochs=3)
@example(rho=0.1, kappa=2.0, lam=1e-4, m=4, m_d=10 ** 12, dist_clip=10, k=5, epochs=3)
@example(rho=0.1, kappa=2.0, lam=1e-4, m=4, m_d=4, dist_clip=10 ** 12, k=5, epochs=3)
def test_every_accepted_train_setting_trains_or_ends_in_one_line(
        tmp_path, corpus_files, capsys, rho, kappa, lam, m, m_d, dist_clip, k, epochs):
    paths, _ = corpus_files
    model_path = tmp_path / "m.bin"
    model_path.unlink(missing_ok=True)
    capsys.readouterr()
    code = main(_train_args(paths, model_path, f"--rho={rho!r}", f"--kappa={kappa!r}",
                            f"--lambda={lam!r}", f"--m={m}", f"--m-d={m_d}",
                            f"--dist-clip={dist_clip}", f"--k={k}", f"--max-epochs={epochs}"))
    err = capsys.readouterr().err
    assert code in (0, 2) and err.count("\n") <= 1 and "Traceback" not in err
    assert code == 0 or not model_path.exists()


def test_a_huge_mean_hinge_prints_a_short_number_that_reads_back(tmp_path, corpus_files,
                                                                 capsys, monkeypatch):
    # :.6f would print every digit of a 1e300 hinge
    paths, _ = corpus_files
    reports, train = [], trainer.train

    def recorded(*args, **kwargs):
        best, got = train(*args, **kwargs)
        reports.extend(got)
        return best, got

    monkeypatch.setattr(trainer, "train", recorded)
    assert main(_train_args(paths, tmp_path / "m.bin", "--kappa=1e300")) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("epoch=")]
    assert len(lines) == len(reports) == 3
    for line, report in zip(lines, reports):
        assert len(line) < 80
        fields = dict(part.split("=", 1) for part in line.split())
        assert report.mean_hinge > 1e6 and float(fields["mean_hinge"]) == report.mean_hinge


@pytest.mark.parametrize("key, value", [("dist_clip", "100000000"), ("m", "10000")])
@pytest.mark.parametrize("route", ["flag", "config"])
def test_sizes_above_the_memory_limit_exit_2_before_allocating(tmp_path, corpus_files, capsys,
                                                                monkeypatch, key, value, route):
    # such a size must never be allocated here: a run past the check fails the test
    monkeypatch.setattr(P, "init_random", lambda *a: pytest.fail("init_random was called"))
    monkeypatch.setattr(cli, "MEMORY_LIMIT", 4 << 30)  # the same on any host
    paths, _ = corpus_files
    config = tmp_path / "train.cfg"
    config.write_text(f"{key} = {value}\n", encoding="utf-8")
    argv = _train_args(paths, tmp_path / "m.bin")
    if key == "m":
        del argv[argv.index("--m"):argv.index("--m") + 2]
    argv += ["--" + key.replace("_", "-"), value] if route == "flag" else ["--config", str(config)]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    m, dist_clip = (value, 10) if key == "m" else (4, value)
    assert out == "" and err.count("\n") == 1
    assert err.startswith(f"deprerank: error: out of memory: m = {m}, m_d = 4 and "
                          f"dist_clip = {dist_clip} need about ")
    assert err.endswith(" GiB of tables and batch arrays, above this host's 4 GiB of memory\n")
    assert not (tmp_path / "m.bin").exists()


def test_the_memory_estimate_bounds_what_a_run_allocates(tmp_path, corpus_files, capsys):
    # measured with tracemalloc on sizes far below the limit, each of which
    # makes one table large: the distances with their keys, W, or a batch
    paths, split = corpus_files
    words = len(P.build_word_vocab(kb.gold for kb in split["train"]))
    for flags in (["--dist-clip", "20000"], ["--m", "60"], ["--m-d", "300"]):
        args = cli.build_parser().parse_args(_train_args(paths, tmp_path / "m.bin", *flags))
        estimate = trainer.train_bytes(cli._resolve_settings(args)[0], words, split["train"])
        tracemalloc.start()
        try:
            assert main(_train_args(paths, tmp_path / "m.bin", *flags)) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < estimate < cli.MEMORY_LIMIT
    capsys.readouterr()


def test_gradcheck_negative_seed_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gradcheck", "--seed", "-1", "--instances", "1"])
    assert exc.value.code == 1
    last = capsys.readouterr().err.splitlines()[-1]
    assert "argument --seed: must be a finite number >= 0, got -1" in last


@pytest.mark.parametrize("step", ["3", "1.5", "0", "-0.1"])
def test_alpha_step_out_of_range_exits_1(capsys, step):
    for command in (["rerank", "--search-alpha"], ["curve", "--ks", "1"]):
        with pytest.raises(SystemExit) as exc:
            main(command + ["--gold", "g", "--kbest", "k", "--model", "m",
                            "--alpha-step", step])
        assert exc.value.code == 1
        last = capsys.readouterr().err.splitlines()[-1]
        assert f"argument --alpha-step: alpha step must lie in (0, 1], got {step}" in last


@pytest.mark.parametrize("step", ["1e-12", "5e-5"])
def test_alpha_step_below_the_floor_exits_1(capsys, step):
    # never run a step like 1e-9 past this check: its grid takes gigabytes
    for command in (["rerank", "--search-alpha"], ["curve", "--ks", "1"]):
        with pytest.raises(SystemExit) as exc:
            main(command + ["--gold", "g", "--kbest", "k", "--model", "m",
                            "--alpha-step", step])
        assert exc.value.code == 1
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.endswith("argument --alpha-step: alpha step must be >= 0.0001 "
                             f"(at most 10,001 alphas), got {float(step):g}")


def _trained_model(tmp_path, paths):
    model_path = tmp_path / "model.bin"
    assert main(_train_args(paths, model_path)) == 0
    return model_path


def test_train_then_rerank_load_neither_numpy_random_nor_openssl(tmp_path, corpus_files):
    # initial weights and epoch orders are keyed counter draws, and blake2b
    # comes from _blake2, which is hashlib's: a fresh interpreter that trains,
    # then reranks with both outputs, loads neither numpy.random nor _hashlib
    assert _blake2.blake2b is hashlib.blake2b
    paths, _ = corpus_files
    model = tmp_path / "model.bin"
    dg, dk = paths["dev"]
    runs = [_train_args(paths, model),
            ["rerank", "--model", str(model), "--gold", str(dg), "--kbest", str(dk),
             "--search-alpha", "--output", str(tmp_path / "pred.conll"),
             "--report", str(tmp_path / "report.tsv")]]
    script = ("import sys\nfrom deprerank.cli import main\n"
              f"codes = [main(args) for args in {runs!r}]\n"
              "print(codes, [m for m in ('numpy.random', '_hashlib') if m in sys.modules])")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "[0, 0] []"
    assert (tmp_path / "pred.conll").exists() and (tmp_path / "report.tsv").exists()


def test_rerank_outputs_and_eval_agree(tmp_path, corpus_files, capsys):
    paths, split = corpus_files
    model_path = _trained_model(tmp_path, paths)
    dg, dk = paths["dev"]
    pred = tmp_path / "pred.conll"
    report = tmp_path / "report.tsv"
    capsys.readouterr()
    code = main(["rerank", "--model", str(model_path), "--gold", str(dg),
                 "--kbest", str(dk), "--alpha", "0.5", "--punct-set", "none",
                 "--output", str(pred), "--report", str(report)])
    assert code == 0
    out = capsys.readouterr().out
    line = dict(part.split("=", 1) for part in out.splitlines()[-1].split())
    pred_trees = load_conll(pred)
    golds = [kb.gold for kb in split["dev"]]
    res = corpus_uas(pred_trees, golds)
    assert float(line["uas"]) == pytest.approx(res.uas, abs=1e-6)
    rows = report.read_text().splitlines()
    assert rows[0].split("\t") == ["sentence", "chosen_rank", "model_score",
                                   "base_score", "mixture_score"]
    assert len(rows) == 1 + len(golds)

    code = main(["eval", "--pred", str(pred), "--gold", str(dg), "--punct-set", "none"])
    assert code == 0
    eval_line = dict(part.split("=", 1)
                     for part in capsys.readouterr().out.splitlines()[0].split())
    assert float(eval_line["uas"]) == pytest.approx(res.uas, abs=1e-6)
    assert int(eval_line["correct"]) == res.correct_heads


@pytest.mark.parametrize("case", sorted(BAD_MODELS))
def test_rerank_with_bad_model_exits_2(tmp_path, corpus_files, capsys, case):
    paths, _ = corpus_files
    build, message = BAD_MODELS[case]
    model_path = tmp_path / "bad.bin"
    model_path.write_bytes(build(tiny_params()))
    dg, dk = paths["dev"]
    code = main(["rerank", "--model", str(model_path), "--gold", str(dg),
                 "--kbest", str(dk), "--alpha", "0.5"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("deprerank: error: ") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize("case", [
    "train --model-out", "train --pretrained", "rerank --output", "rerank --report",
    "rerank --report, the --output file", "rerank --report, a hard link to --output",
    "curve --output", "train --model-out, the --dev-gold file",
    "train --model-out, the --config file", "train --model-out, the --pretrained file",
    "rerank --output, the --gold file", "rerank --output, a hard link to --kbest",
    "rerank --report, the --model file", "curve --output, the --kbest file"])
def test_a_bad_path_exits_2_before_any_work(tmp_path, corpus_files, capsys, monkeypatch, case):
    """An output path that is a directory, a --pretrained file that is
    missing, two output paths that name one file, or an output path that
    names an input file, end the command before it reads a k-best list:
    exit 2, one line on stderr, nothing on stdout, and no file created or
    changed."""
    paths, _ = corpus_files
    folder = tmp_path / "folder"
    folder.mkdir()
    kept = tmp_path / "kept.conll"
    kept.write_text("old\n", encoding="utf-8")
    linked = tmp_path / "linked.conll"
    os.link(kept, linked)
    model = tmp_path / "model.bin"
    P.save(tiny_params(), model)
    dg, dk = paths["dev"]
    linked_kbest = tmp_path / "linked.kbest"
    os.link(dk, linked_kbest)
    config, vectors = tmp_path / "train.cfg", tmp_path / "vectors.txt"
    config.write_text("m = 4\n", encoding="utf-8")
    vectors.write_text("1 4\nw1 0.5 0.5 0.5 0.5\n", encoding="utf-8")
    scoring = ["--model", str(model), "--gold", str(dg), "--kbest", str(dk)]
    argv = {
        "train --model-out": _train_args(paths, folder),
        "train --pretrained": _train_args(paths, tmp_path / "m.bin",
                                          "--pretrained", str(tmp_path / "missing.vec")),
        "rerank --output": ["rerank", *scoring, "--alpha", "0.5", "--output", str(folder)],
        "rerank --report": ["rerank", *scoring, "--alpha", "0.5", "--output", str(kept),
                            "--report", str(folder)],
        "rerank --report, the --output file": [
            "rerank", *scoring, "--alpha", "0.5", "--output", str(kept),
            "--report", str(folder / ".." / "kept.conll")],
        "rerank --report, a hard link to --output": [
            "rerank", *scoring, "--alpha", "0.5", "--output", str(kept), "--report", str(linked)],
        "curve --output": ["curve", *scoring, "--ks", "1,2", "--output", str(folder)],
        "train --model-out, the --dev-gold file": _train_args(paths, dg),
        "train --model-out, the --config file": _train_args(paths, config, "--config",
                                                            str(config)),
        "train --model-out, the --pretrained file": _train_args(paths, vectors, "--pretrained",
                                                                str(vectors)),
        "rerank --output, the --gold file": ["rerank", *scoring, "--alpha", "0.5",
                                             "--output", str(dg)],
        "rerank --output, a hard link to --kbest": ["rerank", *scoring, "--alpha", "0.5",
                                                    "--output", str(linked_kbest)],
        "rerank --report, the --model file": ["rerank", *scoring, "--alpha", "0.5",
                                              "--report", str(model)],
        "curve --output, the --kbest file": ["curve", *scoring, "--ks", "1,2",
                                             "--output", str(tmp_path / ".." / tmp_path.name
                                                             / dk.name)],
    }[case]
    reads, read = [], treebank.read_kbest_files
    monkeypatch.setattr(treebank, "read_kbest_files", lambda *a: reads.append(a) or read(*a))
    files = sorted(tmp_path.rglob("*"))
    contents = [path.read_bytes() for path in files if path.is_file()]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("deprerank: error: ") and err.count("\n") == 1
    assert reads == []
    assert sorted(tmp_path.rglob("*")) == files
    assert [path.read_bytes() for path in files if path.is_file()] == contents
    assert kept.read_text(encoding="utf-8") == "old\n"
    assert kept.read_text(encoding="utf-8") == "old\n"


def test_rerank_search_alpha_not_worse_than_base(tmp_path, corpus_files, capsys):
    paths, _ = corpus_files
    model_path = _trained_model(tmp_path, paths)
    dg, dk = paths["dev"]
    capsys.readouterr()
    assert main(["rerank", "--model", str(model_path), "--gold", str(dg),
                 "--kbest", str(dk), "--alpha", "0", "--punct-set", "none"]) == 0
    base_line = dict(part.split("=", 1)
                     for part in capsys.readouterr().out.splitlines()[-1].split())
    assert main(["rerank", "--model", str(model_path), "--gold", str(dg),
                 "--kbest", str(dk), "--search-alpha", "--alpha-step", "0.05",
                 "--punct-set", "none"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("best_alpha=")
    searched = dict(part.split("=", 1) for part in lines[-1].split())
    assert float(searched["uas"]) >= float(base_line["uas"])


def test_rerank_search_alpha_normalize_report(tmp_path, corpus_files, capsys):
    # --normalize reaches both the search and the final pick; the report keeps
    # each chosen candidate's raw model and base scores, and the mixture the
    # pick maximized, of the z-normalized columns
    from deprerank import reranker
    from deprerank.treebank import read_kbest_files

    paths, _ = corpus_files
    model_path = _trained_model(tmp_path, paths)
    dg, dk = paths["dev"]
    report = tmp_path / "report.tsv"
    capsys.readouterr()
    assert main(["rerank", "--model", str(model_path), "--gold", str(dg), "--kbest", str(dk),
                 "--search-alpha", "--alpha-step", "0.05", "--normalize",
                 "--punct-set", "none", "--report", str(report)]) == 0
    lines = capsys.readouterr().out.splitlines()
    model, kbs = P.load(model_path), read_kbest_files(dg, dk)
    scores = reranker.corpus_model_scores(model, kbs)
    alpha, searched = reranker.search_alpha(model, kbs, 0.05, normalize=True,
                                            model_scores=scores)
    result = reranker.rerank_corpus(model, kbs, reranker.RerankConfig(alpha, normalize=True),
                                    model_scores=scores)
    assert lines == [f"best_alpha={alpha:.6g} search_uas={searched.uas:.6f}",
                     f"alpha={alpha:.6g} uas={result.score.uas:.6f} "
                     f"correct={result.score.correct_heads} scored={result.score.scored_tokens}"]
    assert result.score == searched
    rows = [line.split("\t") for line in report.read_text().splitlines()[1:]]
    assert [int(row[1]) - 1 for row in rows] == result.chosen
    printed = float(lines[-1].split()[0].split("=")[1])
    znorm = lambda xs: np.zeros_like(xs) if xs.std() == 0 else (xs - xs.mean()) / xs.std()
    for row, kb, model_scores, idx in zip(rows, kbs, scores, result.chosen):
        assert (float(row[2]), float(row[3])) == (model_scores[idx], kb.scores[idx])
        mix = printed * znorm(np.array(model_scores)) + (1 - printed) * znorm(kb.scores)
        assert float(row[4]) == pytest.approx(mix[idx], rel=1e-9, abs=1e-9)
        assert float(row[4]) == pytest.approx(mix.max(), rel=1e-9, abs=1e-9)


def test_oracle_command(tmp_path, corpus_files, capsys):
    paths, split = corpus_files
    dg, dk = paths["dev"]
    assert main(["oracle", "--gold", str(dg), "--kbest", str(dk),
                 "--punct-set", "none"]) == 0
    best = dict(part.split("=", 1) for part in capsys.readouterr().out.split())
    assert main(["oracle", "--gold", str(dg), "--kbest", str(dk), "--worst",
                 "--punct-set", "none"]) == 0
    worst = dict(part.split("=", 1) for part in capsys.readouterr().out.split())
    assert float(worst["uas"]) <= float(best["uas"])


def test_curve_command_shape(tmp_path, corpus_files, capsys):
    paths, _ = corpus_files
    model_path = _trained_model(tmp_path, paths)
    dg, dk = paths["dev"]
    out_path = tmp_path / "curve.tsv"
    capsys.readouterr()
    code = main(["curve", "--model", str(model_path), "--gold", str(dg),
                 "--kbest", str(dk), "--ks", "1,2,5,9", "--alpha-step", "0.25",
                 "--punct-set", "none", "--output", str(out_path)])
    assert code == 0
    lines = out_path.read_text().splitlines()
    header = lines[0].split("\t")
    assert header == ["k", "oracle_best", "oracle_worst", "model", "reranker",
                      "best_alpha", "short_sentences"]
    rows = [dict(zip(header, l.split("\t"))) for l in lines[1:]]
    assert [int(r["k"]) for r in rows] == [1, 2, 5, 9]
    first = rows[0]
    assert (first["oracle_best"] == first["oracle_worst"]
            == first["model"] == first["reranker"])
    bests = [float(r["oracle_best"]) for r in rows]
    worsts = [float(r["oracle_worst"]) for r in rows]
    assert bests == sorted(bests)
    assert worsts == sorted(worsts, reverse=True)
    for r in rows:
        assert float(r["reranker"]) >= float(r["oracle_worst"])
    assert int(rows[-1]["short_sentences"]) > 0   # k=9 exceeds the stored 5-best
    assert int(rows[0]["short_sentences"]) == 0


def _forest(rng, n):
    """Heads of n >= 2 tokens, two or more of them on HEAD 0, every token reaching it."""
    order = rng.permutation(n) + 1
    heads = [0] * n
    for i, node in enumerate(order[2:], start=2):
        heads[node - 1] = int(rng.choice([0, *order[:i]]))
    return heads


@pytest.fixture()
def forest_files(tmp_path):
    """Train and dev files, CoNLL-X and k-best, in which every gold and
    candidate tree has two or more tokens on HEAD 0, as CoNLL-X allows. Dev
    sentence 0 is "w1 w2 w3" with gold heads [0, 1, 0] and three candidates."""
    rng = np.random.default_rng(23)
    paths = {}
    for name, count in (("train", 8), ("dev", 4)):
        kbs = []
        for _ in range(count):
            n = int(rng.integers(3, 7))
            forms = [f"w{i}" for i in rng.integers(1, 6, n)]
            gold = make_tree(_forest(rng, n), forms, [TAGS[i] for i in rng.integers(0, 4, n)])
            rows = [gold.heads] + [_forest(rng, n) for _ in range(4)]
            kbs.append(from_arrays(gold, rows, -np.arange(5.0)))
        if name == "dev":
            gold = make_tree([0, 1, 0], ["w1", "w2", "w3"])
            kbs[0] = from_arrays(gold, [[0, 1, 0], [0, 0, 0], [2, 0, 0]], [-1.0, -2.0, -3.0])
        gold, kbest = tmp_path / f"{name}.conll", tmp_path / f"{name}.kbest"
        gold.write_text(write_conll([kb.gold for kb in kbs]), encoding="utf-8")
        kbest.write_text(write_kbest(kbs), encoding="utf-8")
        paths[name] = (gold, kbest)
    return paths


def test_every_command_reads_trees_with_several_roots(tmp_path, forest_files, capsys):
    model, pred = tmp_path / "model.bin", tmp_path / "pred.conll"
    assert main(_train_args(forest_files, model)) == 0
    dg, dk = forest_files["dev"]
    for args in (["rerank", "--model", model, "--search-alpha", "--output", pred],
                 ["oracle"], ["curve", "--model", model, "--ks", "1,3,5"]):
        assert main([str(a) for a in args] + ["--gold", str(dg), "--kbest", str(dk)]) == 0
    assert all(tree.heads.count(0) >= 2 for tree in load_conll(pred))
    assert main(["eval", "--pred", str(pred), "--gold", str(dg), "--per-pos"]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("where, heads, message", [
    ("gold", [0, 1, 9], "sentence 0: head indices do not form a rooted tree: [0, 1, 9]"),
    ("gold", [0, 2, 0], "line 2: token 2 is its own head"),
    ("gold", [2, 1, 0], "sentence 0: head indices do not form a rooted tree: [2, 1, 0]"),
    ("kbest", [0, 0, 9], "sentence 0, candidate 2: head indices do not form a rooted "
                         "tree: [0, 0, 9]"),
    ("kbest", [0, 2, 0], "sentence 0, candidate 2: token 2 ('w2') is its own head"),
    ("kbest", [2, 1, 0], "sentence 0, candidate 2: head indices do not form a rooted "
                         "tree: [2, 1, 0]"),
], ids=["gold-range", "gold-self-head", "gold-cycle", "kbest-range", "kbest-self-head",
        "kbest-cycle"])
def test_a_bad_tree_beside_several_roots_exits_2_naming_it(tmp_path, forest_files, capsys,
                                                           where, heads, message):
    """Dev sentence 0, or its candidate 2, made a tree that breaks the rule:
    every command that reads the file ends in one line naming it."""
    dg, dk = forest_files["dev"]
    bad = tmp_path / f"bad.{where}"
    if where == "gold":
        golds = load_conll(dg)
        bad.write_text(write_conll([with_any_heads(golds[0], heads)] + golds[1:]),
                       encoding="utf-8")
        gold, kbest = bad, dk
    else:
        lines = dk.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[4] = "HEAD " + " ".join(map(str, heads)) + "\n"  # sentence 0, candidate 2
        bad.write_text("".join(lines), encoding="utf-8")
        gold, kbest = dg, bad
    model = tmp_path / "model.bin"
    P.save(tiny_params(m=4, m_d=4), model)
    runs = [_train_args(dict(forest_files, dev=(gold, kbest)), tmp_path / "m.bin"),
            ["rerank", "--model", model, "--search-alpha", "--gold", gold, "--kbest", kbest],
            ["oracle", "--gold", gold, "--kbest", kbest],
            ["curve", "--model", model, "--ks", "1,2", "--gold", gold, "--kbest", kbest]]
    if where == "gold":
        runs.append(["eval", "--pred", dg, "--gold", gold])
    for args in runs:
        assert main([str(a) for a in args]) == 2
        assert capsys.readouterr().err == f"deprerank: error: {bad}: {message}\n"
    assert not (tmp_path / "m.bin").exists()


def test_gradcheck_command(capsys):
    assert main(["gradcheck", "--seed", "7", "--instances", "3"]) == 0
    out = capsys.readouterr().out
    fields = dict(part.split("=", 1) for part in out.split())
    assert float(fields["max_rel_error"]) < 1e-4
    assert int(fields["checked"]) > 0
