"""Source hygiene checks that need no linter: every import is used, every
private helper in the package is used, and every demo and the benchmark's
smoke check run."""

import argparse
import ast
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from nullseq.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
PACKAGE = sorted((ROOT / "src" / "nullseq").glob("*.py"))
SOURCES = PACKAGE + sorted((ROOT / "tests").glob("*.py")) + DEMOS


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that the module never reads.

    A name counts as read when it appears as a Name node (attribute chains
    start with one) or is listed in __all__.
    """
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {
                elt.value for elt in ast.walk(node.value) if isinstance(elt, ast.Constant)
            }
    return [f"line {line}: {name}" for name, line in sorted(imported.items())
            if name not in used]


def test_checker_finds_unused_imports():
    source = "import os\nimport sys as system\nfrom a import b, c\nprint(c, os.sep)\n"
    assert unused_imports(source) == ["line 3: b", "line 2: system"]
    assert unused_imports("from x import y\n__all__ = ['y']\n") == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def _references(tree) -> Counter:
    """Names read in tree: Name nodes, attribute names and imported names."""
    names: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.alias):
            names[node.name] += 1
    return names


def unreferenced_private(sources: dict[str, str]) -> list[str]:
    """Module-level _private functions and classes that no module reads.

    A reference inside the definition itself (recursion) does not count, so
    a helper that only tests reach is reported.
    """
    trees = {name: ast.parse(source) for name, source in sources.items()}
    used: Counter = Counter()
    for tree in trees.values():
        used += _references(tree)
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.startswith("__")
                    and used[node.name] == _references(node)[node.name]):
                found.append(f"{module}: {node.name}")
    return sorted(found)


def test_checker_finds_unreferenced_private():
    sources = {
        "a.py": "def _used(): pass\ndef _dead(): return _dead()\n"
                "class _Gone: pass\ndef public(): return _used()\n",
        "b.py": "from .a import _shared\n",
        "c.py": "def _shared(): pass\ndef __dunder__(): pass\n",
    }
    assert unreferenced_private(sources) == ["a.py: _Gone", "a.py: _dead"]


def test_no_unreferenced_private_definitions():
    sources = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE}
    assert unreferenced_private(sources) == []


def package_imports(source: str) -> set[str]:
    """The nullseq modules a package module imports, relative or absolute."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                found.add(node.module.split(".")[0])
            else:
                found |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module.startswith("nullseq."):
            found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found |= {alias.name.split(".")[1] for alias in node.names
                      if alias.name.startswith("nullseq.")}
    return found


def test_checker_finds_package_imports():
    source = ("import math\nfrom .groups import x\nfrom . import engine\n"
              "import nullseq.certify\nfrom nullseq.factors import y\nfrom sympy import z\n")
    assert package_imports(source) == {"groups", "engine", "certify", "factors"}


def test_oracle_is_independent_of_what_it_checks():
    # the brute-force oracle cross-checks the engine, factors and certify,
    # so it may lean on the group and arrangement definitions only
    source = (ROOT / "src" / "nullseq" / "oracle.py").read_text(encoding="utf-8")
    assert package_imports(source) <= {"groups", "quotient"}


def option_strings(parser: argparse.ArgumentParser) -> set[str]:
    """Every option string of parser and of its subcommands, help aside."""
    found = set()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                found |= option_strings(sub)
        elif not isinstance(action, argparse._HelpAction):
            found |= set(action.option_strings)
    return found


def test_every_cli_flag_is_tested():
    # a flag no test passes can break unseen
    options = option_strings(build_parser())
    assert {"--qs-limit", "--count", "--output"} <= options
    tests = (ROOT / "tests" / "test_cli.py").read_text(encoding="utf-8")
    assert sorted(o for o in options if f'"{o}"' not in tests) == []


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path):
    proc = subprocess.run([sys.executable, str(path)], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_benchmark_smoke():
    # runs perfbench/run.py with and without tracing on small jobs, so a
    # function perfbench/layers.py patches, or a record key a workload's
    # gate reads, cannot change without this failing
    proc = subprocess.run([sys.executable, "perfbench/smoke.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "benchmark smoke check passed"
