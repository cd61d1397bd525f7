"""The package boundary: src/teelab holds only what a CLI run or a traced
name reaches, and the oracles live with the tests."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import teelab

from test_tracer import load_tracer

PACKAGE = Path(teelab.__file__).resolve().parent

# The top-level modules of src/teelab.  A module joins this list only if the
# CLI runs it; a test-only reference path belongs under tests/.
MODULES = {"audit", "cli", "errors", "fusion", "gfp", "ring", "stabilizer"}


def test_cli_import_loads_exactly_the_package_modules():
    code = "import sys, teelab.cli\nprint(' '.join(m for m in sys.modules if m.startswith('teelab.')))\n"
    src = str(PACKAGE.parent)
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=120)
    loaded = {name.removeprefix("teelab.") for name in out.stdout.split()}
    loaded = {name for name in loaded if name != "data" and not name.startswith("data.")}
    files = {path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__"}
    assert files == MODULES
    assert loaded == files


# Definitions kept in src/teelab although no CLI path and no traced name
# reaches them, each with its reason.
ALLOWED = {
    "cli.canonical_report": "the canonical report that every acceptance check compares",
    "cli.report_bytes": "the canonical bytes that every acceptance check compares",
    "audit.save_trace": "README's writer of the trace format that `load_trace` reads",
}

ROOTS = ("cli.main", "cli.run", "cli.run_sweep")

FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)
DEFS = (*FUNCS, ast.ClassDef)


class CallGraph:
    """The definitions of src/teelab and what each one's code refers to.

    A definition is a top-level function or class, "module.name", or a
    method, "module.Class.name"; a nested function is part of the one that
    holds it.  In a module, a bare name resolves to a top-level definition
    of that module or to a `from .m import` binding, and `alias.attr` to a
    definition in the module that `from . import m` binds to alias.  Any
    other `.attr` matches every method of that name, which can keep dead
    code but never drops live code.  A reached class reaches its dunder
    methods, which Python calls for it.
    """

    def __init__(self, package: Path):
        self.trees = {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
        self.defs: dict[str, ast.AST] = {}  # definition -> its node
        self.home: dict[str, str] = {}  # definition -> its module
        self.methods: dict[str, list[str]] = {}  # method name -> the methods of that name
        self.dunders: dict[str, list[str]] = {}  # class -> its dunder methods
        self.names: dict[str, dict[str, str]] = {}  # module -> bare name -> what it binds
        self.aliases: dict[str, dict[str, str]] = {}  # module -> alias -> module
        for module, tree in self.trees.items():
            names, aliases = {}, {}
            for node in tree.body:
                if isinstance(node, DEFS):
                    names[node.name] = f"{module}.{node.name}"
                    self.defs[names[node.name]], self.home[names[node.name]] = node, module
                if isinstance(node, ast.ClassDef):
                    for item in node.body:
                        if isinstance(item, FUNCS):
                            name = f"{module}.{node.name}.{item.name}"
                            self.defs[name], self.home[name] = item, module
                            self.methods.setdefault(item.name, []).append(name)
                            if item.name.startswith("__") and item.name.endswith("__"):
                                self.dunders.setdefault(f"{module}.{node.name}", []).append(name)
                if isinstance(node, ast.ImportFrom) and node.level == 1:
                    for alias in node.names:
                        bound = alias.asname or alias.name
                        if node.module is None and (package / f"{alias.name}.py").exists():
                            aliases[bound] = alias.name
                        else:
                            names[bound] = f"{node.module or '__init__'}.{alias.name}"
            self.names[module], self.aliases[module] = names, aliases

    def _resolve(self, name: str) -> str | None:
        """A binding followed to the definition it names, or None."""
        seen = set()
        while name not in self.defs and name not in seen:
            seen.add(name)
            module, _, bare = name.partition(".")
            name = self.names.get(module, {}).get(bare, "")
        return name if name in self.defs else None

    def uses(self, module: str, nodes) -> set[str]:
        """The definitions that the code under the given nodes refers to."""
        out = set()
        for root in nodes:
            for node in ast.walk(root):
                if isinstance(node, ast.Name):
                    target = self._resolve(self.names[module].get(node.id, ""))
                    out |= {target} if target else set()
                elif isinstance(node, ast.Attribute):
                    value = node.value
                    if isinstance(value, ast.Name) and value.id in self.aliases[module]:
                        target = self._resolve(f"{self.aliases[module][value.id]}.{node.attr}")
                        out |= {target} if target else set()
                    else:
                        out |= set(self.methods.get(node.attr, ()))
        return out

    def top_level(self, module: str) -> list[ast.AST]:
        """What runs when the module is imported: every statement outside a
        def body, with the decorators, defaults and bases of each def, and
        the class bodies outside their methods."""
        out = []
        for node in self.trees[module].body:
            if isinstance(node, ast.ClassDef):
                out += node.decorator_list + node.bases + node.keywords
                for item in node.body:
                    if isinstance(item, FUNCS):
                        out += item.decorator_list + [item.args]
                    else:
                        out.append(item)
            elif isinstance(node, FUNCS):
                out += node.decorator_list + [node.args]
            else:
                out.append(node)
        return out

    def body(self, name: str) -> list[ast.AST]:
        """The code of a definition that runs when it is called or built."""
        node = self.defs[name]
        if isinstance(node, ast.ClassDef):
            return []  # its body runs at import, in `top_level`
        return node.body

    def reached(self, roots) -> set[str]:
        todo = list(roots)
        for module in self.trees:
            todo += self.uses(module, self.top_level(module))
        seen: set[str] = set()
        while todo:
            name = todo.pop()
            if name in seen:
                continue
            seen.add(name)
            todo += self.uses(self.home[name], self.body(name))
            todo += self.dunders.get(name, [])
        return seen


def test_every_definition_is_reached_by_the_cli_or_a_traced_name():
    graph = CallGraph(PACKAGE)
    traced = [f"{module}.{name}" for module, names in load_tracer().TRACED.items() for name in names]
    roots = [*ROOTS, *traced]
    assert set(roots) <= set(graph.defs), set(roots) - set(graph.defs)
    unreached = set(graph.defs) - graph.reached(roots)
    assert set(ALLOWED) <= unreached, "an allowed name is reached; drop it from ALLOWED"
    dead = sorted(unreached - set(ALLOWED))
    assert not dead, f"{len(dead)} definitions that nothing reaches: {', '.join(dead)}"


# Fast paths of src/teelab and the slow paths in tests/oracles.py that the
# tests compare them against.  The cluster labelling over every row, the
# label product that only the per-label fusion loop reads, and the supports'
# column index with the graph and the checks read from it, and the shifted
# power iteration for quantum dimensions, moved to the oracles; the names in
# MOVED are gone from src/teelab.
ORACLES = {
    "stabilizer.build_ground_state": "_column_graph",
    "stabilizer._fill": "ground_supports_per_slot",
    "stabilizer._check_graph_commutation": "_check_commutation",
    "stabilizer._check_graph_rank": "_check_independent",
    "stabilizer.ColumnGraph.region_block": "rows_on_scan",
    "stabilizer.region_rank": "region_rank_per_region",
    "stabilizer._region_phases": "region_phases_per_region",
    "stabilizer._fusion_step": "fusion_step_loop",
    "stabilizer._components": "components_union_find",
    "stabilizer._forest_joins": "forest_joins_union_find",
    "fusion._perron_root": "_perron_radius",
    "fusion.group_category": "group_category_multiply",
    "cli._ring_enumeration_agrees": "ring_enumeration_per_sector",
}
MOVED = {
    "stabilizer._cluster_roots": "cluster_roots",
    "stabilizer._fused": "_fused",
    "stabilizer.SparseGenerators": "SparseGenerators",
    "stabilizer._column_graph": "_column_graph",
    "stabilizer._check_commutation": "_check_commutation",
    "stabilizer._check_independent": "_check_independent",
    "stabilizer._ranges": "_ranges",
    "fusion._perron_radius": "_perron_radius",
}


def test_fast_paths_keep_their_oracles():
    import oracles

    graph = CallGraph(PACKAGE)
    for slow in [*ORACLES.values(), *MOVED.values()]:
        assert callable(getattr(oracles, slow, None)), slow
    assert set(ORACLES) <= set(graph.defs), set(ORACLES) - set(graph.defs)
    assert not set(MOVED) & set(graph.defs)


def test_cli_runs_no_f_p_elimination():
    # ranks are forest counts and the assumption checks decide from their
    # phase tables, so no CLI run eliminates over F_p or builds a dense block;
    # the roots leave out the traced names, which are kept only to be timed
    reached = CallGraph(PACKAGE).reached(ROOTS)
    assert not {name for name in reached if name.startswith("gfp.")}
    assert not reached & {"stabilizer.restricted_canonical", "stabilizer.ColumnGraph.region_block"}


def test_call_graph_resolves_bare_names_by_module(tmp_path):
    # a local variable named like a definition of another module is no use of
    # it, as audit's local `star` was none of the old fusion.star; an alias of
    # `from . import` and a binding of `from .m import` are uses
    (tmp_path / "fusion.py").write_text("def star():\n    pass\n\n\ndef used():\n    pass\n\n\ndef bound():\n    pass\n")
    (tmp_path / "audit.py").write_text(
        "from . import fusion as fu\nfrom .fusion import bound\n\n\n"
        "def sweep():\n    star = 1\n    return star, fu.used(), bound()\n"
    )
    assert CallGraph(tmp_path).reached(["audit.sweep"]) == {"audit.sweep", "fusion.used", "fusion.bound"}
