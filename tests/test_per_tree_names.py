"""The per-tree scorer is kept only for the benchmark harness and the tests'
oracles: no module of the package or of `benchmarks/` may use it again.

A use is a name, an attribute or an imported name. Allowed are `rcnn.py`'s
own per-tree definitions, `kernels.py`, and the imports whose bindings
`perfbench/test_perfbench.py` checks (`build_plan` in `trainer`,
`score_tree` in `reranker`).
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PER_TREE = {"build_plan", "score_plan", "score_tree", "backward_tree", "TreePlan",
            "TreeForwardTrace", "tree_forward", "tree_backward"}
CHECKED_BINDINGS = {("trainer.py", "build_plan"), ("reranker.py", "score_tree")}


def per_tree_uses(path: Path) -> list[str]:
    """`line: name` of each per-tree name that a module uses outside what is
    allowed."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    if path.name == "rcnn.py":
        tree.body = [node for node in tree.body
                     if not (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                             and node.name in PER_TREE)]
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name.rpartition(".")[2]
            if (path.name, name) in CHECKED_BINDINGS:
                continue
        else:
            continue
        if name in PER_TREE:
            uses.append((node.lineno, name))
    return [f"{line}: {name}" for line, name in sorted(uses)]


def test_no_module_uses_the_per_tree_scorer():
    modules = sorted((ROOT / "src" / "deprerank").glob("*.py")) + sorted(
        (ROOT / "benchmarks").glob("*.py"))
    assert len(modules) > 10
    found = {str(path.relative_to(ROOT)): uses for path in modules
             if path.name != "kernels.py" and (uses := per_tree_uses(path))}
    assert found == {}


def test_the_guard_sees_each_kind_of_use(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("from .rcnn import score_tree\n"
                      "from deprerank import kernels\n"
                      "kernels.tree_forward()\n"
                      "plan: TreePlan = None\n", encoding="utf-8")
    assert per_tree_uses(module) == ["1: score_tree", "3: tree_forward", "4: TreePlan"]
