"""The annotated-module contract, checked without mypy.

``make lint`` runs mypy over a fixed list of modules that must stay fully
annotated; when mypy is not installed that gate is skipped.  This test
keeps the annotation half of the contract in tier-1: it reads the same
file list out of the Makefile's ``lint`` recipe (so the list lives in one
place) and fails on any function parameter or return left unannotated.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def mypy_gated_files():
    """The ``.py`` paths the Makefile's ``lint`` recipe hands to mypy."""
    makefile = (ROOT / "Makefile").read_text()
    recipe = re.search(r"^lint:\n((?:\t.*\n|\n)*)", makefile, re.MULTILINE)
    assert recipe, "Makefile has no lint recipe"
    # Join continuation lines, then take the mypy command's arguments.
    commands = recipe.group(1).replace("\\\n", " ")
    mypy = next((line for line in commands.splitlines()
                 if "-m mypy" in line), None)
    assert mypy, "the lint recipe no longer runs mypy"
    return re.findall(r"(\S+\.py)\b", mypy)


def unannotated(path):
    """``name: what`` for every parameter or return missing a type."""
    tree = ast.parse(path.read_text(), filename=str(path))
    problems = []

    def visit(node, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                check(child, in_class)
                visit(child, False)
            else:
                visit(child, isinstance(child, ast.ClassDef))

    def check(func, is_method):
        args = func.args
        positional = args.posonlyargs + args.args
        static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                     for d in func.decorator_list)
        if is_method and not static and positional:
            positional = positional[1:]  # self / cls
        params = positional + args.kwonlyargs
        params += [a for a in (args.vararg, args.kwarg) if a is not None]
        for arg in params:
            if arg.annotation is None:
                problems.append(f"{func.name}:{func.lineno} "
                                f"parameter {arg.arg!r}")
        if func.returns is None:
            problems.append(f"{func.name}:{func.lineno} return")

    visit(tree, False)
    return problems


def test_lint_recipe_lists_mypy_files():
    files = mypy_gated_files()
    assert "src/repro/pipeline/cache.py" in files
    missing = [name for name in files if not (ROOT / name).is_file()]
    assert not missing, f"lint recipe names missing files: {missing}"


@pytest.mark.parametrize("name", mypy_gated_files())
def test_mypy_gated_module_fully_annotated(name):
    problems = unannotated(ROOT / name)
    assert not problems, f"{name}: unannotated " + ", ".join(problems)
