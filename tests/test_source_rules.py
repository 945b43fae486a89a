"""Rules the package source keeps, checked on its syntax tree."""

import ast
from pathlib import Path

import treebed

SRC = Path(treebed.__file__).resolve().parent


def test_no_assert_in_package():
    # `python -O` strips assert statements, and a bare AssertionError is not a
    # TreebedError; internal failures raise InternalInvariantError instead
    sites = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                sites.append(f"{path.name}:{node.lineno}: assert")
            elif isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                    sites.append(f"{path.name}:{node.lineno}: raise AssertionError")
    assert len(list(SRC.glob("*.py"))) >= 10
    assert sites == []


def test_no_function_calls_itself():
    # every search runs on an explicit stack, so no input depth can raise
    # RecursionError; a direct self-call by name is the recursion this rules out
    sites = []
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if not isinstance(node, ast.Call):
                    continue
                f = node.func
                if (isinstance(f, ast.Name) and f.id == fn.name) or (
                    isinstance(f, ast.Attribute)
                    and f.attr == fn.name
                    and isinstance(f.value, ast.Name)
                    and f.value.id in ("self", "cls")
                ):
                    sites.append(f"{path.name}:{node.lineno}: {fn.name} calls itself")
    assert sites == []
