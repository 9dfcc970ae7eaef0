#!/usr/bin/env python3
"""Run the catalogued mutants: each is a small fault that some test must catch.

Each entry of `MUTANTS` names a file, a text that occurs there exactly once,
the text that replaces it, the tests to run (files or test ids) and the ids
of the tests expected to fail; an id without parameters stands for any of
its parametrized cases. The script copies the checkout (`src`, `tests`,
`perfbench`, `pyproject.toml` and `README.md`) to a temporary directory,
applies each mutant alone, runs that mutant's tests there and prints one
line per mutant:

    killed     3.1 s  rooted-one-round-fewer
    survived  12.4 s  some-mutant   (expected to fail: ...; failed: ...)

A mutant is killed when every test expected to fail does. The script exits
1 if any mutant survives, or if the catalogue does not fit the checkout
(`check_catalogue`). Run from a checkout:

    python3 benchmarks/mutants.py                 # every mutant
    python3 benchmarks/mutants.py --only NAME ... # some of them
"""

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COPIED = ("src", "tests", "perfbench", "pyproject.toml", "README.md")
TIMEOUT = 600.0  # seconds for one mutant's tests; a mutant that hangs them survives


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the checkout
    text: str  # occurs in `file` exactly once
    replacement: str
    tests: tuple[str, ...]  # pytest arguments: files or test ids
    expected: tuple[str, ...]  # the test ids that must fail


TREEBANK = "src/deprerank/treebank.py"
TEST_TREEBANK = "tests/test_treebank.py"
TRAINER = "src/deprerank/trainer.py"
TEST_TRAINER = "tests/test_trainer.py"
PARAMS = "src/deprerank/params.py"
TEST_PARAMS = "tests/test_params.py"
RCNN = "src/deprerank/rcnn.py"
TEST_RCNN = "tests/test_rcnn.py"
BAD_PATH = "tests/test_cli.py::test_a_bad_path_exits_2_before_any_work"
SWEEP_TEST = ("tests/test_reranker.py::"
              "test_the_pruned_sweep_and_the_picks_equal_the_per_list_reference")


def _reader(name: str, text: str, replacement: str, *expected: str) -> Mutant:
    """A mutant of `treebank` that tests/test_treebank.py must kill, by the
    tests named (each with all its parameters, unless one is given)."""
    return Mutant(name, TREEBANK, text, replacement, (TEST_TREEBANK,),
                  tuple(f"{TEST_TREEBANK}::{test}" for test in expected))


MUTANTS = (
    # the gold reader's blocks: half a block, then on to the sentence's end
    _reader("parse-blocks-no-cap", "_BLOCK_LINES - len(block) if block[-1].strip() else 0",
            "None if block[-1].strip() else 0",
            "test_a_sentence_with_no_blank_lines_takes_a_bounded_block"),
    _reader("parse-blocks-no-line-by-line-fallback",
            "if block[-1].strip() and len(block) == _BLOCK_LINES:", "if False:",
            "test_a_sentence_with_no_blank_lines_takes_a_bounded_block"),
    _reader("parse-blocks-no-extension",
            "_BLOCK_LINES - len(block) if block[-1].strip() else 0", "0",
            "test_a_sentence_with_no_blank_lines_takes_a_bounded_block",
            "test_each_block_is_whole_sentences_of_at_most_block_lines"),
    Mutant("parse-blocks-lineno-one-short", TREEBANK,
           "lineno += len(block)", "lineno += len(block) - 1",
           (TEST_TREEBANK,
            "tests/test_reader_properties.py::test_parse_conll_matches_the_line_parser"),
           (f"{TEST_TREEBANK}::test_each_block_is_whole_sentences_of_at_most_block_lines",)),
    # the line-by-line CoNLL reader, and the block reader's own check
    _reader("parse-lines-no-column-count", "if len(cols) < 8:", "if False:",
            "test_parse_errors_carry_line_numbers"),
    _reader("parse-lines-7-columns", "if len(cols) < 8:", "if len(cols) < 7:",
            "test_a_line_error_before_the_byte_in_its_sentence_comes_first"),
    _reader("parse-lines-no-id-check", "if index != len(heads) + 1:", "if False:",
            "test_a_sentence_with_no_blank_lines_takes_a_bounded_block"),
    _reader("parse-lines-no-self-head-check",
            "            if head == index:\n"
            "                raise ParseError(f\"token {index} is its own head\", lineno)\n", "",
            "test_parse_errors_carry_line_numbers"),
    _reader("parse-block-no-newline-check", "len(ends) == len(lines) - 1 and ", "",
            "test_a_text_file_whose_lines_hold_a_newline_reads_as_its_lines"),
    # the tree check
    _reader("rooted-no-pointer-jumping",
            "for _ in range(int(np.maximum.reduce(width, initial=0)).bit_length()):",
            "for _ in range(0):", "test_a_cycle_is_refused_where_its_list_is_made"),
    _reader("rooted-one-round-fewer",
            "for _ in range(int(np.maximum.reduce(width, initial=0)).bit_length()):",
            "for _ in range(int(np.maximum.reduce(width, initial=0)).bit_length() - 1):",
            "test_rooted_rows_matches_is_rooted_tree"),
    _reader("unrooted-no-overflow-fallback", "except OverflowError:", "except ZeroDivisionError:",
            "test_conll_head_beyond_int64_is_a_structure_error"),
    # each gold tree is checked where it is parsed, before a later error is raised
    _reader("conll-no-tree-check-before-error",
            "    finally:  # the trees before a bad line are checked before its error is raised\n",
            "    except ZeroDivisionError:\n        pass\n    if True:\n",
            "test_conll_head_beyond_int64_is_a_structure_error"),
    _reader("conll-block-no-tree-check", "            if not good:\n",
            "            if False:\n", "test_parse_two_cycle_rejected"),
    # the line-by-line read starts at the first sentence the block cannot split
    _reader("conll-block-line-read-one-sentence-late",
            "            if not split:\n                break\n",
            "            if not split:\n                a += n\n                break\n",
            "test_from_the_first_sentence_a_block_cannot_split_the_rest_is_read_line_by_line"),
    _reader("kbest-no-tree-check-before-error",
            "        _check_lists(pending)\n        raise\n",
            "        raise\n", "test_kbest_errors_come_in_file_order_across_batches"),
    _reader("read-candidates-no-tree-check-before-error",
            "    finally:  # the rows before a bad line are checked before its error is raised\n",
            "    except ZeroDivisionError:\n        pass\n    if True:\n",
            "test_kbest_errors_come_in_file_order"),
    # the k-best readers: the block reader takes only what the exact path reads alike
    _reader("read-candidates-no-cand-field-check",
            'if len(fields) != 3 or fields[0] != "CAND":', "if len(fields) != 3:",
            "test_kbest_line_format_is_exact"),
    _reader("read-candidates-no-rank-check", "if fields[1] != str(rank):", "if False:",
            "test_kbest_line_format_is_exact"),
    _reader("read-block-no-rank-check", "if fields[1::3] != _ranks(k):", "if False:",
            "test_kbest_line_format_is_exact"),
    _reader("read-block-no-isfinite", "not all(map(math.isfinite, scores)) or ", "",
            "test_kbest_rejects_non_finite_base_scores[1e999]"),
    _reader("read-block-no-row-start-check", " or np.logical_or.reduce(heads[::n + 1] != -1)", "",
            "test_kbest_errors_come_in_file_order"),
    _reader("read-block-keeps-heads-above-n", "or np.maximum.reduce(heads) > n", "or False",
            "test_kbest_bad_head_matches_reference[9999999999999999999999999]"),
    _reader("kbest-no-look-ahead-bound", "if 2 * k <= block_lines else []",
            "if block_lines else []", "test_a_huge_k_takes_a_bounded_block[1000000000]"),
    # the routes, and the file reader
    _reader("every-source-in-blocks", "return isinstance(source, (str, io.TextIOBase))",
            "return True", "test_only_a_string_or_a_text_file_takes_the_block_route"),
    _reader("read-text-no-decode-fallback", "except UnicodeDecodeError:\n            pass\n",
            "except ZeroDivisionError:\n            pass\n",
            "test_a_byte_that_is_not_utf8_is_an_error_at_its_line"),
    _reader("read-text-no-path-prefix", 'err.args = (f"{path}: {err}",)', "pass",
            "test_a_byte_that_is_not_utf8_is_an_error_at_its_line"),
    # training: every epoch's dev scores must be finite, the margin raises
    # wrong candidates, and training stops `patience` epochs after the best
    Mutant("train-no-dev-score-check", TRAINER,
           ',\n                             ("dev scores", np.concatenate(dev_scores))):', ",):",
           ("tests/test_trainer.py::test_train_names_the_epoch_whose_numbers_are_not_finite",),
           ("tests/test_trainer.py::test_train_names_the_epoch_whose_numbers_are_not_finite"
            "[1e+200-1-dev scores]",)),
    Mutant("train-margin-sign-flipped", TRAINER,
           "aug = scores[1:] + item.deltas", "aug = scores[1:] - item.deltas",
           (TEST_TRAINER,), (f"{TEST_TRAINER}::test_loss_augmented_pick_with_zero_scorer",
                             f"{TEST_TRAINER}::test_loss_augmented_pick_matches_per_tree_pick")),
    Mutant("train-patience-stops-an-epoch-late", TRAINER,
           "elif epoch - best_epoch >= config.patience:",
           "elif epoch - best_epoch > config.patience:", (TEST_TRAINER,),
           (f"{TEST_TRAINER}::test_training_stops_patience_epochs_after_the_best_dev_uas",)),
    # keyed draws: a pair's stream is keyed by both tags, an epoch's order by
    # its number, and v continues the pair's stream after W
    Mutant("pair-key-ignores-the-child-tag", PARAMS,
           "stream_keys(self.seed, 0x70A1, heads, children)",
           "stream_keys(self.seed, 0x70A1, heads)", (TEST_PARAMS, "tests/test_rcnn.py"),
           (f"{TEST_PARAMS}::test_a_pair_draws_the_same_bytes_alone_in_a_batch_or_reversed",
            "tests/test_rcnn.py::test_a_batch_adds_its_pairs_as_slot_creates_them_one_by_one")),
    Mutant("epoch-key-ignores-the-epoch", TRAINER,
           "stream_keys(config.seed, epoch)", "stream_keys(config.seed)", (TEST_TRAINER,),
           (f"{TEST_TRAINER}::test_each_epoch_visits_every_sentence_once_in_its_keyed_order",)),
    Mutant("v-reuses-the-counters-of-w", PARAMS,
           "self.v = np.concatenate([self.v, draws[:, m * n:]])",
           "self.v = np.concatenate([self.v, draws[:, :m]])", (TEST_PARAMS, "tests/test_rcnn.py"),
           (f"{TEST_PARAMS}::test_a_pair_draws_the_same_bytes_alone_in_a_batch_or_reversed",
            "tests/test_rcnn.py::test_a_batch_adds_its_pairs_as_slot_creates_them_one_by_one")),
    # the four tables: the model file writes them in `tables()` order,
    # train() checks each one, and AdaGrad updates W a run of slots at a time
    Mutant("model-file-swaps-two-tables", PARAMS, "    for table in params.tables():\n",
           "    for table in (lambda w, d, W, v: (d, w, W, v))(*params.tables()):\n",
           (TEST_PARAMS,),
           (f"{TEST_PARAMS}::test_the_model_file_holds_the_tables_in_their_order",)),
    Mutant("train-skips-the-distance-check", TRAINER, "*zip(TABLES, params.tables()),",
           '*[c for c in zip(TABLES, params.tables()) if c[0] != "distance vectors"],',
           ("tests/test_trainer.py::test_train_names_the_epoch_whose_numbers_are_not_finite",),
           ("tests/test_trainer.py::test_train_names_the_epoch_whose_numbers_are_not_finite"
            "[0.1-1-distance vectors]",)),
    Mutant("adagrad-cuts-w-runs-one-slot-early", TRAINER,
           "!= 1).nonzero()[0] + 1).tolist()", "!= 1).nonzero()[0]).tolist()",
           (f"{TEST_TRAINER}::test_adagrad_step_matches_the_per_row_reference",),
           (f"{TEST_TRAINER}::test_adagrad_step_matches_the_per_row_reference",)),
    # the alpha sweep prunes a candidate only if an earlier one dominates it
    # in both columns: the model maximum and the base minimum
    Mutant("sweep-dominance-ignores-the-base-score", "src/deprerank/reranker.py",
           "\n                    | (np.minimum.accumulate(base, axis=1)[:, :-1] < base[:, 1:]))",
           ")", (SWEEP_TEST,), (SWEEP_TEST,)),
    # the list kernels: a pooling tie goes to the first child, as per tree
    Mutant("first-max-ties-to-the-last-child", RCNN,
           "first = np.minimum.reduceat(np.where(zs == top, pos, len(order)), starts, axis=0)",
           "first = np.maximum.reduceat(np.where(zs == top, pos, -1), starts, axis=0)",
           (TEST_RCNN,), (f"{TEST_RCNN}::test_list_pooling_ties_go_to_the_first_child",)),
    # pooling reads the -inf row past the last arc where a node has fewer
    # children than the widest of its level
    Mutant("pooling-pads-with-arc-0", RCNN, "arc_of = _full(end + 1, num_arcs)",
           "arc_of = _full(end + 1, 0)", (TEST_RCNN,),
           (f"{TEST_RCNN}::test_score_list_matches_score_tree_on_random_lists",)),
    # the backward walk is top-down, so a row reads its head row's finished
    # input gradient, and each slot's dv adds its rows in row order
    Mutant("backward-walks-bottom-up", RCNN, "order = (-height).argsort(kind=\"stable\")",
           "order = height.argsort(kind=\"stable\")", (TEST_RCNN,),
           (f"{TEST_RCNN}::test_backward_list_matches_backward_tree",)),
    Mutant("backward-dv-sums-rows-in-reverse", RCNN,
           "np.add.reduce(up_z[g0:g1], axis=0, out=d_v[i])",
           "np.add.reduce(up_z[g0:g1][::-1], axis=0, out=d_v[i])", (TEST_RCNN,),
           (f"{TEST_RCNN}::test_list_kernels_match_the_matmul_reference_in_bytes",)),
    # train() returns the model of its best dev epoch, not of its last
    Mutant("train-returns-the-last-epoch", TRAINER, "    return best, reports\n",
           "    return params, reports\n", (TEST_TRAINER,),
           (f"{TEST_TRAINER}::test_reloaded_model_reproduces_the_selected_dev_uas",)),
    # the CLI refuses two outputs that name one file before any work
    Mutant("cli-two-outputs-may-name-one-file", "src/deprerank/cli.py",
           "        if _same_file(first, second):\n", "        if False:\n", (BAD_PATH,),
           (f"{BAD_PATH}[rerank --report, the --output file]",
            f"{BAD_PATH}[rerank --report, a hard link to --output]")),
)


def _read(root: str, path: str) -> str:
    with open(os.path.join(root, path), encoding="utf-8") as f:
        return f.read()


def check_catalogue(root: str = ROOT) -> list[str]:
    """What does not fit the checkout at `root`: a repeated name, a text
    that does not occur exactly once in its file, or a test expected to fail
    that its file does not define."""
    names = [m.name for m in MUTANTS]
    problems = [f"{name}: the name is used twice" for name in set(names)
                if names.count(name) > 1]
    for m in MUTANTS:
        count = _read(root, m.file).count(m.text)
        if count != 1:
            problems.append(f"{m.name}: the text occurs {count} times in {m.file}")
        for test in m.expected:
            path, function = test.split("[")[0].split("::")
            if f"def {function}(" not in _read(root, path):
                problems.append(f"{m.name}: {path} defines no {function}")
    return problems


def run(mutant: Mutant, copy: str, timeout: float = TIMEOUT) -> tuple[bool, float, str]:
    """Apply `mutant` to the copy at `copy`, run its tests there, and put the
    file back: whether it was killed, the seconds taken, and a note."""
    path = os.path.join(copy, mutant.file)
    with open(path, encoding="utf-8") as f:
        original = f.read()
    with open(path, "w", encoding="utf-8") as f:
        f.write(original.replace(mutant.text, mutant.replacement, 1))
    env = dict(os.environ, PYTHONPATH=os.path.join(copy, "src"))
    start = time.perf_counter()
    try:
        out = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
             *mutant.tests], cwd=copy, env=env, capture_output=True, text=True,
            timeout=timeout).stdout
    except subprocess.TimeoutExpired:
        return False, time.perf_counter() - start, f"timed out after {timeout:.0f} s"
    finally:
        with open(path, "w", encoding="utf-8") as f:
            f.write(original)
    seconds = time.perf_counter() - start
    failed = set(re.findall(r"^(?:FAILED|ERROR) (.+?)(?: - |$)", out, flags=re.MULTILINE))
    missed = [test for test in mutant.expected
              if test not in failed and not any(f.startswith(test + "[") for f in failed)]
    if failed and not missed:
        return True, seconds, ""
    return False, seconds, (f"expected to fail: {', '.join(missed)}; " if missed else ""
                            ) + f"failed: {', '.join(sorted(failed)) or 'nothing'}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--only", nargs="+", metavar="NAME", choices=[m.name for m in MUTANTS],
                    help="run only these mutants")
    args = ap.parse_args(argv)
    problems = check_catalogue()
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    chosen = [m for m in MUTANTS if not args.only or m.name in args.only]
    survivors = 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as copy:
        for name in COPIED:
            source, target = os.path.join(ROOT, name), os.path.join(copy, name)
            if os.path.isdir(source):
                shutil.copytree(source, target, ignore=shutil.ignore_patterns(
                    "__pycache__", ".hypothesis", ".pytest_cache"))
            else:
                shutil.copy2(source, target)
        for mutant in chosen:
            killed, seconds, note = run(mutant, copy)
            survivors += not killed
            print(f"{'killed' if killed else 'survived':9}{seconds:6.1f} s  {mutant.name}"
                  + (f"   ({note})" if note else ""), flush=True)
    print(f"# {len(chosen) - survivors} of {len(chosen)} killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
