#!/usr/bin/env python3
"""Print a SHA-256 digest of every input and output of the CLI on perfbench workloads.

For each workload and seed, writes the workload's input files with
`perfbench/workloads.write_inputs` into a temporary directory, then runs
these commands there through `cli.main`, with the workload's model shape,
epochs and punctuation set:

    train                     on the workload's train set, against its dev set
    rerank --search-alpha     of its rerank set, with --output and --report
    rerank --search-alpha --normalize, the same
    rerank --search-alpha --with-oracle, the same
    oracle --best
    oracle --worst
    curve                     at k = 1, 2, 4, ... up to the workload's k
    eval --per-pos            of the reranked output against its gold file

and prints one digest per input file, per output file and per command's
stdout, and one of each rerank report's `chosen_rank` column: the picks,
which stay when a change moves only the report's last digits. Then, once
per seed, it prints the digest of `gradcheck --seed SEED --instances 5`'s
stdout without its `elapsed=` field. Files are
named relative to the directory, so two checkouts that write the same bytes
print the same lines. Run from a checkout:

    PYTHONPATH=src python3 benchmarks/digest_outputs.py --seed 7 101

With `--against PATH` (another checkout, such as the parent commit's), the
same lines are then made with the library in PATH's `src`, in a subprocess
that runs this script on the same inputs; they are printed after a `# PATH`
line, and if any line differs the script lists the differing lines and
exits 1.
"""

import argparse
import contextlib
import hashlib
import io
import itertools
import os
import re
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))

import workloads as W  # noqa: E402
from deprerank import cli  # noqa: E402


def commands(wl):
    """(name, argv, files it writes) of each command run on a workload's inputs."""
    train, target = wl.train_role, wl.rerank_role
    data = ["--gold", f"{target}.conll", "--kbest", f"{target}.kbest", "--punct-set", W.PUNCT_SET]
    ks = ",".join(str(1 << i) for i in range(wl.k.bit_length()))
    return [
        ("train", ["train", "--train-gold", f"{train}.conll", "--train-kbest", f"{train}.kbest",
                   "--dev-gold", "dev.conll", "--dev-kbest", "dev.kbest",
                   "--model-out", "model.bin", "--m", str(W.M), "--m-d", str(W.M_D),
                   "--k", str(wl.k), "--max-epochs", str(wl.epochs),
                   "--patience", str(wl.epochs), "--punct-set", W.PUNCT_SET],
         ["model.bin"]),
        ("rerank", ["rerank", *data, "--model", "model.bin", "--search-alpha",
                    "--alpha-step", str(W.ALPHA_STEP), "--output", "out.conll",
                    "--report", "out.tsv"],
         ["out.conll", "out.tsv"]),
        ("rerank-normalize", ["rerank", *data, "--model", "model.bin", "--search-alpha",
                              "--alpha-step", str(W.ALPHA_STEP), "--normalize",
                              "--output", "norm.conll", "--report", "norm.tsv"],
         ["norm.conll", "norm.tsv"]),
        ("rerank-oracle", ["rerank", *data, "--model", "model.bin", "--search-alpha",
                           "--alpha-step", str(W.ALPHA_STEP), "--with-oracle",
                           "--output", "oracle.conll", "--report", "oracle.tsv"],
         ["oracle.conll", "oracle.tsv"]),
        ("oracle-best", ["oracle", *data, "--best"], []),
        ("oracle-worst", ["oracle", *data, "--worst"], []),
        ("curve", ["curve", *data, "--model", "model.bin", "--ks", ks,
                   "--alpha-step", str(W.ALPHA_STEP), "--output", "curve.tsv"],
         ["curve.tsv"]),
        ("eval", ["eval", "--pred", "out.conll", "--gold", f"{target}.conll",
                  "--punct-set", W.PUNCT_SET, "--per-pos"],
         []),
    ]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(wl, seed: int) -> list[tuple[str, str]]:
    """(digest, name) of the workload's input files, then of each command's
    stdout and written files, in the order they are made, each rerank
    report followed by its picks."""
    out = []
    with tempfile.TemporaryDirectory() as directory:
        W.write_inputs(wl, seed, directory)
        for name in sorted(os.listdir(directory)):
            with open(os.path.join(directory, name), "rb") as f:
                out.append((sha256(f.read()), name))
        cwd = os.getcwd()
        os.chdir(directory)
        try:
            for name, argv, files in commands(wl):
                stdout = run(argv, f"{wl.name} seed {seed}: {name}")
                out.append((sha256(stdout.encode("utf-8")), f"{name}: stdout"))
                for path in files:
                    with open(path, "rb") as f:
                        data = f.read()
                    out.append((sha256(data), f"{name}: {path}"))
                    if path.endswith(".tsv") and name.startswith("rerank"):
                        picks = b"\n".join(row.split(b"\t")[1] for row in data.splitlines())
                        out.append((sha256(picks), f"{name}: {path} chosen_rank"))
        finally:
            os.chdir(cwd)
    return out


def run(argv: list[str], what: str) -> str:
    """The stdout of `cli.main(argv)`, which must exit 0 (else `what` is named)."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(argv)
    if code != cli.EXIT_OK:
        raise SystemExit(f"{what} exited {code}")
    return stdout.getvalue()


def gradcheck_digest(seed: int) -> str:
    """Digest of the gradient check's stdout, its run time cut."""
    out = run(["gradcheck", "--seed", str(seed), "--instances", "5"], f"gradcheck seed {seed}")
    return sha256(re.sub(r" elapsed=\S+", "", out).encode("utf-8"))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", nargs="+", choices=sorted(W.WORKLOADS),
                    default=list(W.WORKLOADS))
    ap.add_argument("--seed", nargs="+", type=int, default=[7])
    ap.add_argument("--against", metavar="PATH",
                    help="a checkout whose src/ library to compare with, line by line")
    args = ap.parse_args()
    lines = []
    for name in args.workload:
        for seed in args.seed:
            for digest, what in digests(W.WORKLOADS[name], seed):
                lines.append(f"{digest}  {name} seed {seed} {what}")
                print(lines[-1], flush=True)
    for seed in args.seed:
        lines.append(f"{gradcheck_digest(seed)}  gradcheck seed {seed} stdout")
        print(lines[-1], flush=True)
    if args.against is None:
        return
    src = os.path.join(os.path.abspath(args.against), "src")
    if not os.path.isdir(os.path.join(src, "deprerank")):
        raise SystemExit(f"--against: no deprerank package in {src}")
    argv = [sys.executable, os.path.abspath(__file__), "--workload", *args.workload,
            "--seed", *map(str, args.seed)]
    run = subprocess.run(argv, env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                         text=True)
    if run.returncode != 0:
        raise SystemExit(f"--against {args.against} failed:\n{run.stderr}")
    theirs = run.stdout.splitlines()
    print(f"# {args.against}")
    print("\n".join(theirs))
    differ = [(ours, other) for ours, other in itertools.zip_longest(lines, theirs)
              if ours != other]
    for ours, other in differ:
        print(f"differs: {ours}\n   from: {other}")
    if differ:
        raise SystemExit(1)
    print(f"# all {len(lines)} lines equal")


if __name__ == "__main__":
    main()
