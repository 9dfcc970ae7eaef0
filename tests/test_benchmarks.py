"""The scripts under benchmarks/ run on tiny inputs, so that a library name
they use and the library no longer has fails here, not at the next
benchmark run."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


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
