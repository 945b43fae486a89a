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


def _private_slot_reads(cls, home: str) -> list[str]:
    """Reads of cls's private slots outside its home module, other than a
    module's own `self._x`."""
    private = {s for s in cls.__slots__ if s.startswith("_")}
    sites = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == home:
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (
                isinstance(node, ast.Attribute)
                and node.attr in private
                and not (isinstance(node.value, ast.Name) and node.value.id == "self")
            ):
                sites.append(f"{path.name}:{node.lineno}: .{node.attr}")
    return sites


def test_graph_private_slots_stay_in_graph_module():
    # the bitmasks, degrees and cached views are Graph's own business; other
    # modules go through its accessors (their own `self._x` is theirs)
    from treebed.graph import Graph

    assert {"_masks", "_deg"} <= set(Graph.__slots__)
    assert _private_slot_reads(Graph, "graph.py") == []


def test_tree_private_slots_stay_in_trees_module():
    # the adjacency and the cached search plan are Tree's own business; other
    # modules go through `adjacency`, `neighbors` and `search_plan`
    from treebed.trees import Tree

    assert {"_adj", "_plan"} <= set(Tree.__slots__)
    assert _private_slot_reads(Tree, "trees.py") == []


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


def test_unchecked_tree_constructor_callers_are_pinned():
    # Tree._from_sorted_edges skips the conversion, sort and range checks, so
    # only code whose edges are sorted, normalised and in range by
    # construction may call it: the Pruefer decode (`decode` inside
    # gen_random_tree) and the path
    callers = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for name, node in _functions_with_nodes(tree):
            if isinstance(node, ast.Attribute) and node.attr == "_from_sorted_edges":
                callers.add((path.name, name))
    assert callers == {
        ("generators.py", "gen_random_tree"),
        ("generators.py", "decode"),
        ("generators.py", "gen_path"),
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
    # a record re-checks its bounds on the view its procedure just built,
    # which Tree.rooted hands back from its slot, so no __post_init__ in
    # trees.py builds a view or walks the tree by a module-level function
    # that takes the Tree itself
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
                    if isinstance(f, ast.Name) and f.id in walkers:
                        sites.append(f"{cls.name}:{node.lineno}: {ast.unparse(f)}")
    assert {"TwoForestSplit", "ThreeForestSplit", "EvenOddSplit", "MSFDecomposition"} <= checked
    assert sites == []


def test_host_builders_live_in_generators():
    # every host builder is defined once, in generators.py, so the package
    # and its tests build each host the same way; a module-level function
    # named *_host anywhere else, other than a test pytest collects, is a
    # second copy of one
    paths = sorted(SRC.glob("*.py")) + sorted(Path(__file__).parent.glob("*.py"))
    builders = {
        (path.name, fn.name)
        for path in paths
        for fn in ast.parse(path.read_text(), str(path)).body
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        and fn.name.endswith("_host")
        and not fn.name.startswith("test_")
    }
    assert {name for module, name in builders if module == "generators.py"} >= {
        "gen_escape_path_host",
        "gen_three_pool_host",
        "gen_bipartite_apex_host",
        "gen_matching_forest_host",
    }
    assert {(module, name) for module, name in builders if module != "generators.py"} == set()


# Public package names that no package code reaches, each with the reason
# it stays.  Every other public function or class is reached from the package.
_REACHED_ONLY_FROM_OUTSIDE = {
    "replay_candidates": "perfbench's oracle workload replays a sweep's candidates with it",
    "gen_three_pool_host": "the host of apex_three_split_embed, which only tests reach; "
    "the two go together",
    "gen_bipartite_apex_host": "the host of bipartite_apex_embed, which only tests reach; "
    "the two go together",
}


def test_public_names_are_reached_from_the_package():
    # a public function or class that no package code names outside its own
    # definition is reached only by tests or other callers outside the
    # package; so is one named only inside such unreached definitions
    def names(node):
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                yield sub.id
            elif isinstance(sub, ast.Attribute):
                yield sub.attr

    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}
    uses = [(top, set(names(top))) for tree in trees.values() for top in tree.body]
    public = [
        top
        for tree in trees.values()
        for top in tree.body
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and not top.name.startswith("_")
    ]
    unreached: list = []
    while True:
        more = [
            defn
            for defn in public
            if defn not in unreached
            and not any(
                defn.name in used for top, used in uses if top is not defn and top not in unreached
            )
        ]
        if not more:
            break
        unreached += more
    assert len(public) >= 120
    assert sorted(defn.name for defn in unreached) == sorted(_REACHED_ONLY_FROM_OUTSIDE)


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
    # the scope table names only options of its subcommand, each read by the
    # handler; its flags, and only they, are absent unless given
    for name, (picker, flags) in cli._SCOPES.items():
        parser = subparsers.choices[name]
        dests = {a.dest for a in parser._actions}
        assert picker in dests and set(flags) <= dests, name
        assert set(flags) <= _handler_reads(parser.get_default("fn")), name
    for name, parser in subparsers.choices.items():
        suppressed = {
            a.dest for a in parser._actions
            if a.default is argparse.SUPPRESS and not isinstance(a, argparse._HelpAction)
        }
        assert suppressed == set(cli._SCOPES.get(name, (None, {}))[1]), name


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
    assert len(names) >= 10
    assert [n for n in names if n not in read] == []


def _call_name(node):
    f = node.func
    return f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None


def test_every_defaulted_parameter_is_passed_by_some_call():
    # a default that no call in the package overrides is a constant under
    # another name: one more value to set that nothing sets.  Only arguments
    # a call spells out count: one with * or ** passes nothing it names, so
    # a value that reaches a function only through ** is still unset.  The
    # one default allowed is the entry point's `argv`
    allowed = {("main", "argv")}
    modules = [ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))]
    calls: dict = {}  # callee name -> (positional count, keyword names) per call
    for tree in modules:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _call_name(node):
                starred = [i for i, a in enumerate(node.args) if isinstance(a, ast.Starred)]
                npos = starred[0] if starred else len(node.args)
                calls.setdefault(_call_name(node), []).append(
                    (npos, {kw.arg for kw in node.keywords if kw.arg is not None})
                )
    unpassed = set()
    for tree in modules:
        for fn in tree.body:
            if not isinstance(fn, ast.FunctionDef):
                continue
            a = fn.args
            pos = a.posonlyargs + a.args
            first = len(pos) - len(a.defaults)
            defaulted = [(i, p.arg) for i, p in enumerate(pos) if i >= first]
            defaulted += [(None, p.arg) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d]
            for i, name in defaulted:
                if not any(
                    (i is not None and i < npos) or name in kws
                    for npos, kws in calls.get(fn.name, ())
                ):
                    unpassed.add((fn.name, name))
    assert unpassed == allowed


def test_every_parameter_is_read():
    # a parameter its body never reads is accepted and silently dropped
    sites = []
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = fn.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
            reads = {
                node.id
                for stmt in fn.body
                for node in ast.walk(stmt)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            }
            sites += [f"{path.name}:{fn.lineno}: {fn.name}({p.arg})" for p in params if p.arg not in reads]
    assert sites == []
