"""The scripts under benchmarks/ run on tiny inputs, so that a library name
they use and the library no longer has fails here, not at the next
benchmark run. The mutant catalogue must fit the checkout, and the mutant
runner must tell a killed mutant from one that survives."""

import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "benchmarks"))

import mutants  # noqa: E402


@pytest.mark.parametrize("script, args", [
    ("layer_rows.py", ["--workload", "train-k64", "--repeats", "1"]),
    # the rerank role alone, on 5-60-token lists with wrong heads at k = 8
    ("layer_rows.py", ["--workload", "rerank-k8-long", "--repeats", "1"]),
    ("digest_outputs.py", ["--seed", "7", "--workload", "train-k64"]),
    # this checkout against itself: a subprocess on the same inputs, every line equal
    ("digest_outputs.py", ["--seed", "7", "--workload", "train-k64", "--against", ROOT]),
])
def test_benchmark_script_runs(tmp_path, script, args):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    run = subprocess.run([sys.executable, os.path.join(ROOT, "benchmarks", script), *args],
                         cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout


def test_the_mutant_catalogue_fits_the_checkout():
    """Each mutant's text occurs once in its file, and each test expected to
    kill it is defined, so that the catalogue follows a refactor."""
    assert mutants.check_catalogue() == []


def test_a_catalogued_mutant_is_killed():
    # one round fewer of pointer jumping leaves some cycles unfound
    run = subprocess.run([sys.executable, os.path.join(ROOT, "benchmarks", "mutants.py"),
                          "--only", "rooted-one-round-fewer"],
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr
    assert run.stdout.startswith("killed") and "rooted-one-round-fewer" in run.stdout


def test_a_mutant_whose_tests_pass_survives(tmp_path):
    for name in ("src", "tests"):
        shutil.copytree(os.path.join(ROOT, name), tmp_path / name,
                        ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
    noop = mutants.Mutant("noop", mutants.TREEBANK, "_BLOCK_LINES = 65536", "_BLOCK_LINES = 65536",
                          (f"{mutants.TEST_TREEBANK}::test_parse_empty_input",), ())
    killed, _, note = mutants.run(noop, str(tmp_path), timeout=120)
    assert not killed and note == "failed: nothing"
