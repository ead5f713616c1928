"""Every public definition in the package is used by the package itself.

A public module-level function or class that nothing in ``src/`` reads
outside its own definition is API that only tests call.  Such code is
deleted and its tests are ported to the engine; the exceptions are the
reference implementations the tests compare the engine against.
"""

import ast
import pathlib

import roughdiff

SRC = pathlib.Path(roughdiff.__file__).parent
REFERENCE_IMPLEMENTATIONS = {
    "ExplicitField", "aronson_lower", "exact_brownian_kernel",
    "gaussian_ref", "log_time_grid", "tabulate_kernel",
}


class _Reads(ast.NodeVisitor):
    """(top-level definition or None, name) for every name a module reads,
    as a bare name or as an attribute; a function's own arguments shadow
    the module's names inside it."""

    def __init__(self):
        self.owner = None
        self.shadow = frozenset()
        self.reads = set()

    def visit_Module(self, node):
        for stmt in node.body:
            public = isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
            self.owner = stmt.name if public else None
            self.visit(stmt)

    def _scoped(self, node):
        outer = self.shadow
        a = node.args
        self.shadow = outer | {x.arg for x in (
            *a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg) if x}
        self.generic_visit(node)
        self.shadow = outer

    visit_FunctionDef = visit_Lambda = _scoped

    def visit_Name(self, node):
        if node.id not in self.shadow:
            self.reads.add((self.owner, node.id))

    def visit_Attribute(self, node):
        self.reads.add((self.owner, node.attr))
        self.generic_visit(node)


def unused_public_definitions(src=SRC):
    """Public module-level functions and classes that no live code in
    ``src`` reads outside their own definition.

    Reads from unused definitions do not count, so a helper that only an
    unused function calls is unused too.
    """
    public, reads = {}, set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        public.update({node.name: path.stem for node in tree.body
                       if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                       and not node.name.startswith("_")})
        visitor = _Reads()
        visitor.visit(tree)
        reads |= visitor.reads
    dead = set()
    while True:
        used = {name for owner, name in reads
                if owner != name and owner not in dead}
        now = {name for name in public
               if name not in used and name not in REFERENCE_IMPLEMENTATIONS}
        if now == dead:
            return sorted(f"{public[name]}.{name}" for name in dead)
        dead = now


def test_no_public_definition_is_test_only():
    assert unused_public_definitions() == []


def test_reference_implementations_exist():
    # a stale allowlist entry would hide nothing but still reads as a rule
    public = set()
    for path in SRC.glob("*.py"):
        public |= {node.name for node in ast.parse(path.read_text()).body
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert REFERENCE_IMPLEMENTATIONS <= public


def test_guard_sees_chains_and_shadowed_names(tmp_path):
    (tmp_path / "mod.py").write_text(
        "def helper():\n    return 1\n\n\n"
        "def only_tests():\n    return helper()\n\n\n"
        "def wrap(x):\n    return x\n\n\n"
        "def build(wrap=None):\n    return wrap\n\n\n"
        "VALUE = build()\n")
    assert unused_public_definitions(tmp_path) == [
        "mod.helper", "mod.only_tests", "mod.wrap"]
