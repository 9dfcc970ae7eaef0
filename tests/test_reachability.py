"""The library holds what a command runs: every function defined under
`src/deprerank` is entered by a command, or is on `reachability.ALLOWED` with
the one caller outside the commands that keeps it."""

import os
import subprocess
import sys

import reachability as R


def test_every_library_function_is_entered_by_a_command_or_allowed():
    # a child interpreter, so that the calls made while importing count
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(R.ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    run = subprocess.run([sys.executable, str(R.ROOT / "tests" / "reachability.py"), "--entered"],
                         capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    entered = set(run.stdout.split())
    assert "cli._number" in entered and "cli.read_config" in entered
    assert R.problems(R.defined_functions(), entered, R.ALLOWED) == []


def test_the_check_reports_each_kind_of_breach(tmp_path):
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "caller.py").write_text("kept()\ncalled()\nouter()\nforgotten_too()\n",
                                                 encoding="utf-8")
    names = ["used", "unused", "kept", "forgotten", "called", "outer.<locals>.inner",
             "Tree.__repr__", "Tree.label"]
    defined = {f"mod.{name}": ("mod.py", line, 2) for line, name in enumerate(names, start=1)}
    entered = {"mod.used", "mod.called"}
    allowed = {"mod.kept": "tests/caller.py", "mod.forgotten": "tests/caller.py",
               "mod.called": "tests/caller.py", "mod.outer.<locals>.inner": "tests/caller.py",
               "mod.Tree.__repr__": R.PROTOCOL, "mod.Tree.label": R.PROTOCOL,
               "mod.gone": "tests/caller.py", "mod.elsewhere": "src/other.py"}
    defined["mod.elsewhere"] = ("mod.py", 9, 2)
    assert R.problems(defined, entered, allowed, tmp_path) == [
        "mod.unused: no command enters it; call it, delete it, or move it to the tests",
        "mod.called: a command enters it; take it off the allow-list",
        "mod.Tree.label: not a dunder, so it needs a caller file",
        "mod.elsewhere: its caller src/other.py is not under perfbench/, benchmarks/, tests/",
        "mod.forgotten: tests/caller.py does not mention forgotten",
        "mod.gone: allowed, but the library defines no such function",
    ]


def test_defined_functions_names_each_def_as_its_code_object_does(tmp_path):
    (tmp_path / "mod.py").write_text(
        "import functools\n"
        "def top():\n"
        "    def inner():\n"
        "        pass\n"
        "class Box:\n"
        "    @property\n"
        "    @functools.lru_cache\n"
        "    def size(self):\n"
        "        return 1\n", encoding="utf-8")
    path = str(tmp_path / "mod.py")
    assert R.defined_functions(tmp_path) == {
        "mod.top": (path, 2, 3), "mod.top.<locals>.inner": (path, 3, 2),
        "mod.Box.size": (path, 6, 4)}
