"""Rules the package source keeps, checked on its syntax tree."""

import argparse
import ast
import inspect
import textwrap
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


def _functions_with_nodes(tree):
    """(enclosing function name, node) for every node inside a function."""
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                yield fn.name, node


def test_graph_private_slots_stay_in_graph_module():
    # the bitmasks, degrees and cached views are Graph's own business; other
    # modules go through its accessors (their own `self._x` is theirs)
    from treebed.graph import Graph

    private = {s for s in Graph.__slots__ if s.startswith("_")}
    assert {"_masks", "_deg"} <= private
    sites = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "graph.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (
                isinstance(node, ast.Attribute)
                and node.attr in private
                and not (isinstance(node.value, ast.Name) and node.value.id == "self")
            ):
                sites.append(f"{path.name}:{node.lineno}: .{node.attr}")
    assert sites == []


def test_unchecked_mask_constructor_callers_are_pinned():
    # Graph._from_masks skips the edge checks, so only code whose masks are
    # symmetric and loop-free by construction may call it
    callers = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for name, node in _functions_with_nodes(tree):
            if isinstance(node, ast.Attribute) and node.attr == "_from_masks":
                callers.add((path.name, name))
    assert callers == {
        ("generators.py", "gen_random_graph_min_degree"),
        ("lab.py", "_host_for_trial"),
        ("graph.py", "induced"),
        ("decompose.py", "refine_cut_dense"),
    }


def test_rooted_view_constructor_callers_are_pinned():
    # Tree.rooted hands back the view it built last for the same tree object
    # and root, so a procedure that built its own RootedView would miss that
    def builds_view(node):
        f = node.func if isinstance(node, ast.Call) else None
        return (isinstance(f, ast.Name) and f.id == "RootedView") or (
            isinstance(f, ast.Attribute) and f.attr == "RootedView"
        )

    callers, sites = set(), 0
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        sites += sum(map(builds_view, ast.walk(tree)))  # module level too
        for name, node in _functions_with_nodes(tree):
            if builds_view(node):
                callers.add((path.name, name))
    assert callers == {("trees.py", "rooted")}
    assert sites == 1


def test_tree_records_check_on_the_view_they_are_given():
    # a record re-checks its bounds on the view its procedure built, so no
    # __post_init__ in trees.py roots the tree again or walks it by a
    # module-level function that takes the Tree itself
    module = ast.parse((SRC / "trees.py").read_text())
    walkers = {"RootedView"} | {
        fn.name
        for fn in module.body
        if isinstance(fn, ast.FunctionDef)
        and any(ast.unparse(a.annotation) == "Tree" for a in fn.args.args if a.annotation)
    }
    assert {"even_odd_sets", "bipartition_classes", "balanced_separator_vertex"} <= walkers
    checked, sites = set(), []
    for cls in module.body:
        if not isinstance(cls, ast.ClassDef):
            continue
        for fn in cls.body:
            if isinstance(fn, ast.FunctionDef) and fn.name == "__post_init__":
                checked.add(cls.name)
                for node in ast.walk(fn):
                    if not isinstance(node, ast.Call):
                        continue
                    f = node.func
                    if (isinstance(f, ast.Attribute) and f.attr == "rooted") or (
                        isinstance(f, ast.Name) and f.id in walkers
                    ):
                        sites.append(f"{cls.name}:{node.lineno}: {ast.unparse(f)}")
    assert {"TwoForestSplit", "ThreeForestSplit", "EvenOddSplit", "MSFDecomposition"} <= checked
    assert sites == []


def _handler_reads(fn):
    """Names the handler reads off its `args`: `args.x` or `getattr(args, "x", ...)`."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id == "args":
                reads.add(node.attr)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "getattr"
            and isinstance(node.args[0], ast.Name)
            and node.args[0].id == "args"
            and isinstance(node.args[1], ast.Constant)
        ):
            reads.add(node.args[1].value)
    return reads


def test_every_cli_option_is_read_by_its_handler():
    # an option the handler never reads is accepted and silently dropped; the
    # top-level parser takes none, since each subparser would overwrite it
    from treebed import cli

    ap = cli.build_parser()
    (subparsers,) = [a for a in ap._actions if isinstance(a, argparse._SubParsersAction)]
    unread = [
        f"treebed {'/'.join(a.option_strings)}"
        for a in ap._actions
        if not isinstance(a, (argparse._HelpAction, argparse._SubParsersAction))
    ]
    for name, parser in subparsers.choices.items():
        fn = parser.get_default("fn")
        reads = _handler_reads(fn)
        for action in parser._actions:
            if not isinstance(action, argparse._HelpAction) and action.dest not in reads:
                unread.append(f"{name} {'/'.join(action.option_strings) or action.dest}")
    assert len(subparsers.choices) == 7
    assert unread == []


def test_every_experiment_config_field_is_read():
    # a sweep setting that lab.py never reads changes nothing the sweep runs
    from dataclasses import fields

    from treebed.lab import ExperimentConfig

    module = ast.parse((SRC / "lab.py").read_text())
    skip = set()
    for cls in module.body:
        if isinstance(cls, ast.ClassDef) and cls.name == "ExperimentConfig":
            skip |= {
                id(node)
                for fn in cls.body
                if isinstance(fn, ast.FunctionDef) and fn.name == "to_jsonable"
                for node in ast.walk(fn)
            }
    read = {
        node.attr
        for node in ast.walk(module)
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Load)
        and isinstance(node.value, ast.Name)
        and node.value.id in ("cfg", "self")
        and id(node) not in skip
    }
    names = [f.name for f in fields(ExperimentConfig)]
    assert len(names) >= 11
    assert [n for n in names if n not in read] == []
