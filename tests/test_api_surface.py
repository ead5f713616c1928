"""Every public definition in the package is used by the package itself.

A public module-level function or class that nothing in ``src/`` reads
outside its own definition is API that only tests call, and so is a
public method whose name nothing in ``src/`` reads outside the method's
own body.  Such code is deleted and its tests are ported to the engine;
the exceptions are the reference implementations the tests compare the
engine against.
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
    """(top-level definition or None, "Class.method" or None, name) for
    every name a module reads, as a bare name or as an attribute; a
    function's own arguments shadow the module's names inside it."""

    def __init__(self):
        self.owner = None
        self.method = None
        self.shadow = frozenset()
        self.reads = set()

    def visit_Module(self, node):
        for stmt in node.body:
            public = isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
            self.owner = stmt.name if public else None
            self.visit(stmt)

    def visit_ClassDef(self, node):
        if self.method is not None or self.owner != node.name:
            return self.generic_visit(node)
        for child in (*node.decorator_list, *node.bases, *node.keywords):
            self.visit(child)
        for stmt in node.body:
            if isinstance(stmt, ast.FunctionDef):
                self.method = f"{node.name}.{stmt.name}"
            self.visit(stmt)
            self.method = None

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
            self.reads.add((self.owner, self.method, node.id))

    def visit_Attribute(self, node):
        self.reads.add((self.owner, self.method, node.attr))
        self.generic_visit(node)


def _parsed(src):
    """(module name, tree, reads) for every module in ``src``."""
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        visitor = _Reads()
        visitor.visit(tree)
        yield path.stem, tree, visitor.reads


def unused_public_definitions(src=SRC):
    """Public module-level functions and classes that no live code in
    ``src`` reads outside their own definition.

    Reads from unused definitions do not count, so a helper that only an
    unused function calls is unused too.
    """
    public, reads = {}, set()
    for module, tree, module_reads in _parsed(src):
        public.update({node.name: module for node in tree.body
                       if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                       and not node.name.startswith("_")})
        reads |= module_reads
    dead = set()
    while True:
        used = {name for owner, _, name in reads
                if owner != name and owner not in dead}
        now = {name for name in public
               if name not in used and name not in REFERENCE_IMPLEMENTATIONS}
        if now == dead:
            return sorted(f"{public[name]}.{name}" for name in dead)
        dead = now


def unused_public_methods(src=SRC):
    """Public methods of the module-level classes in ``src`` whose name no
    code in ``src`` reads outside the method's own body; a recursive call
    does not count as a use."""
    methods, reads = [], set()
    for module, tree, module_reads in _parsed(src):
        methods += [(module, cls.name, node.name)
                    for cls in tree.body if isinstance(cls, ast.ClassDef)
                    for node in cls.body if isinstance(node, ast.FunctionDef)
                    and not node.name.startswith("_")]
        reads |= module_reads
    return sorted(f"{module}.{cls}.{name}" for module, cls, name in methods
                  if not any(n == name and m != f"{cls}.{name}"
                             for _, m, n in reads))


def test_no_public_definition_is_test_only():
    assert unused_public_definitions() == []


def test_no_public_method_is_test_only():
    assert unused_public_methods() == []


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


def test_guard_sees_methods_and_recursion(tmp_path):
    (tmp_path / "mod.py").write_text(
        "class Law:\n"
        "    def hull(self):\n        return self\n\n"
        "    def atoms(self):\n        return [c.atoms() for c in self]\n\n"
        "    def _private(self):\n        return 0\n\n\n"
        "def use(law):\n    return law.hull()\n\n\n"
        "VALUE = use(Law())\n")
    assert unused_public_methods(tmp_path) == ["mod.Law.atoms"]
    assert unused_public_definitions(tmp_path) == []
