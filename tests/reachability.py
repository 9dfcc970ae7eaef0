"""Which functions of the library the `deprerank` commands enter.

    PYTHONPATH=src python3 tests/reachability.py [--entered]

Runs every command of `commands` (the CLI tests' corpus, with `--config`,
`--pretrained` and malformed inputs) in this interpreter under
`sys.setprofile`, set before the package is imported, so that calls made at
import count too. Without flags it prints each function defined under
`src/deprerank`, with its line count and its state: `entered`, `allowed`
(with the one caller outside the commands that keeps it, from `ALLOWED`) or
`UNREACHED`, and the totals. With `--entered` it prints only the entered
functions' names, one a line, which `tests/test_reachability.py` reads and
checks with `problems`.

A name is `module.qualname`, as in `treebank.DependencyTree.__repr__` or
`cli._number.<locals>.parse`.
"""

from __future__ import annotations

import ast
import contextlib
import io
import re
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "deprerank"
PROTOCOL = "Python protocol method"
CALLER_DIRS = ("perfbench/", "benchmarks/", "tests/")

# Every function that no command enters, with its one caller outside the
# commands: a file (from the root of the checkout) that must still mention
# the function's name as a word (a nested function's: its outer one's), or
# PROTOCOL for a dunder that Python calls. The list may only shrink: a
# command that enters a listed function fails the test.
ALLOWED = {
    # the per-tree scorer, which the benchmark traces and calls, and what
    # only it, the benchmark and the tests read: these can go once the
    # benchmark times the list path
    "kernels.tree_forward": "perfbench/tracing.py",
    "kernels.tree_backward": "perfbench/tracing.py",
    "kernels.active_backend": "perfbench/worker.py",
    "kernels.warmup": "perfbench/worker.py",
    "rcnn.build_plan": "perfbench/tracing.py",
    "rcnn.build_plan.<locals>.compact": "perfbench/tracing.py",
    "rcnn.score_plan": "perfbench/tracing.py",
    "rcnn.score_tree": "perfbench/tracing.py",
    "rcnn.backward_tree": "perfbench/tracing.py",
    "reranker.candidate_model_scores": "perfbench/worker.py",
    "params.PosPairStore.slot": "perfbench/test_perfbench.py",
    "params.PosPairStore.get": "perfbench/reference.py",
    "params.ParamSet.distance_row": "tests/helpers.py",
    "treebank.DependencyTree.tokens": "perfbench/reference.py",
    # the benchmark's inputs and the layer benchmark's reader, the planted
    # grammar of acceptance criterion 8, and dunders
    "treebank.write_kbest": "perfbench/workloads.py",
    "treebank.read_kbest": "benchmarks/layer_rows.py",
    "synth.planted_corpus": "tests/test_acceptance.py",
    "treebank.DependencyTree.children": "perfbench/test_perfbench.py",
    "treebank.DependencyTree.__eq__": PROTOCOL,
    "treebank.DependencyTree.__hash__": PROTOCOL,
    "treebank.DependencyTree.__repr__": PROTOCOL,
    "treebank.Candidates.__len__": PROTOCOL,
}


def defined_functions(package: Path = PACKAGE) -> dict[str, tuple[str, int, int]]:
    """name -> (file, first line, line count) of every `def` in the package;
    the first line is the first decorator's, as in the code object."""
    found = {}

    def visit(node, module, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[f"{module}.{prefix}{child.name}"] = (
                    str(path), first, child.end_lineno - first + 1)
                visit(child, module, path, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, module, path, f"{prefix}{child.name}.")
            else:
                visit(child, module, path, prefix)

    for path in sorted(package.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, path, "")
    return found


def problems(defined: dict, entered: set[str], allowed: dict[str, str],
             root: Path = ROOT) -> list[str]:
    """One line per breach: a defined function that is neither entered nor
    allowed, an allowed one that a command enters, and an allow-list entry
    that names no function, gives PROTOCOL for a function that is not a
    dunder, or a caller that is not a file under `CALLER_DIRS` that names
    the function."""
    out = []
    for name in sorted(defined.keys() - entered - allowed.keys()):
        out.append(f"{name}: no command enters it; call it, delete it, or move it to the tests")
    for name in sorted(entered & allowed.keys()):
        out.append(f"{name}: a command enters it; take it off the allow-list")
    for name, caller in sorted(allowed.items()):
        short = name.partition(".<locals>.")[0].rpartition(".")[2]
        if name not in defined:
            out.append(f"{name}: allowed, but the library defines no such function")
        elif caller == PROTOCOL:
            if not (short.startswith("__") and short.endswith("__")):
                out.append(f"{name}: not a dunder, so it needs a caller file")
        elif not caller.startswith(CALLER_DIRS):
            out.append(f"{name}: its caller {caller} is not under {', '.join(CALLER_DIRS)}")
        elif not ((root / caller).is_file() and re.search(
                rf"\b{short}\b", (root / caller).read_text(encoding="utf-8"))):
            out.append(f"{name}: {caller} does not mention {short}")
    return out


def _write_corpus(folder: Path) -> dict[str, Path]:
    """The CLI tests' corpus (8 training and 4 dev lists, k = 5, 3-6 tokens),
    a config file, pretrained vectors, and malformed copies of the dev files."""
    from helpers import synth_corpus
    from deprerank.treebank import write_conll, write_kbest

    kbs = synth_corpus(seed=17, sentences=12, k=5, length_range=(3, 6))
    texts = {"train.conll": write_conll([kb.gold for kb in kbs[:8]]),
             "train.kbest": write_kbest(kbs[:8]),
             "dev.conll": write_conll([kb.gold for kb in kbs[8:]]),
             "dev.kbest": write_kbest(kbs[8:]),
             "train.cfg": "# settings\nm = 4\nm_d = 4\nk = 5\n",
             "vectors.txt": f"1 4\n{kbs[0].gold.forms[0]} 0.5 0.5 0.5 0.5\n"}
    gold, kbest = texts["dev.conll"], texts["dev.kbest"]
    first = gold.index("\n")
    texts["short_line.conll"] = gold[:first] + "\n1\tx\tDT\t0\n" + gold[first + 1:]
    texts["spaced.kbest"] = kbest.replace("HEAD ", "HEAD  ")
    texts["rank.kbest"] = kbest.replace("CAND 2 ", "CAND 9 ", 1)
    n = len(kbs[8].gold)
    texts["cycle.kbest"] = kbest.replace(
        kbest.split("\n")[2], "HEAD " + " ".join(map(str, [2, 1] + [1] * (n - 2))), 1)
    texts["latin1.conll"] = gold.replace("\t", "\t\xe9", 1)
    paths = {name: folder / name for name in texts}
    for name, text in texts.items():
        encoding = "latin-1" if name.startswith("latin1") else "utf-8"
        paths[name].write_text(text, encoding=encoding)
    return paths


def commands(p: dict[str, Path], out: Path) -> list[tuple[list[str], int]]:
    """(argv, expected exit code) of every command run."""
    dev = ["--gold", p["dev.conll"], "--kbest", p["dev.kbest"]]
    scoring = [*dev, "--model", out / "model.bin"]
    runs = [
        (["train", "--train-gold", p["train.conll"], "--train-kbest", p["train.kbest"],
          "--dev-gold", p["dev.conll"], "--dev-kbest", p["dev.kbest"],
          "--model-out", out / "model.bin", "--config", p["train.cfg"],
          "--pretrained", p["vectors.txt"], "--max-epochs", "2", "--seed", "1"], 0),
        (["rerank", *scoring, "--search-alpha", "--alpha-step", "0.25",
          "--output", out / "pred.conll", "--report", out / "report.tsv"], 0),
        (["rerank", *scoring, "--alpha", "0.5", "--with-oracle", "--normalize"], 0),
        (["eval", "--pred", out / "pred.conll", "--gold", p["dev.conll"], "--per-pos"], 0),
        (["oracle", *dev, "--best"], 0),
        (["oracle", *dev, "--worst"], 0),
        (["curve", *scoring, "--ks", "1,2", "--alpha-step", "0.5"], 0),
        (["gradcheck", "--seed", "7", "--instances", "2"], 0),
        # inputs that end in an error, or that the block route declines
        (["oracle", "--gold", p["short_line.conll"], "--kbest", p["dev.kbest"]], 2),
        (["oracle", "--gold", p["dev.conll"], "--kbest", p["spaced.kbest"]], 0),
        (["oracle", "--gold", p["dev.conll"], "--kbest", p["rank.kbest"]], 2),
        (["oracle", "--gold", p["dev.conll"], "--kbest", p["cycle.kbest"]], 2),
        (["eval", "--pred", p["latin1.conll"], "--gold", p["dev.conll"]], 2),
        (["rerank", *scoring, "--alpha", "0.5", "--output", p["dev.conll"]], 2),
        ([], 1),
    ]
    return [([str(arg) for arg in argv], code) for argv, code in runs]


def run_commands() -> set[str]:
    """Names of the package's functions that the commands, and importing the
    CLI, enter. Raises AssertionError if a command exits with another code
    than `commands` expects."""
    codes = set()

    def record(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    sys.setprofile(record)
    from deprerank import cli
    sys.setprofile(None)
    with tempfile.TemporaryDirectory() as tmp:
        folder = Path(tmp)
        paths = _write_corpus(folder)
        for argv, want in commands(paths, folder):
            stdout, stderr = io.StringIO(), io.StringIO()
            sys.setprofile(record)
            try:
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            finally:
                sys.setprofile(None)
            assert code == want, (f"deprerank {' '.join(argv)} exited {code}, not {want}:\n"
                                  f"{stderr.getvalue()}")
    where = {(path, first): name for name, (path, first, _) in defined_functions().items()}
    return {where[key] for code in codes
            if (key := (str(Path(code.co_filename).resolve()), code.co_firstlineno)) in where}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    entered = run_commands()
    if argv == ["--entered"]:
        print("\n".join(sorted(entered)))
        return 0
    defined = defined_functions()
    states = {}
    for name, (_, _, lines) in defined.items():
        state = ("entered" if name in entered else
                 f"allowed: {ALLOWED[name]}" if name in ALLOWED else "UNREACHED")
        states[name] = state
        print(f"{lines:5d}  {name}  {state}")
    for kind in ("entered", "allowed", "UNREACHED"):
        names = [name for name, state in states.items() if state.startswith(kind)]
        print(f"# {kind}: {len(names)} functions, "
              f"{sum(defined[name][2] for name in names)} lines")
    found = problems(defined, entered, ALLOWED)
    for line in found:
        print(f"# {line}")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
