"""Every public definition in the package is used by the package itself.

A public module-level function or class that nothing in ``src/`` reads
outside its own definition is API that only tests call, and so is a
public method whose name nothing in ``src/`` reads outside the method's
own body.  Such code is deleted and its tests are ported to the engine;
the exceptions are the reference implementations the tests compare the
engine against.

Refusals take one type: no ``raise`` in ``src/`` builds a Python builtin
exception, and every class of the errors module other than its base
Error is both raised and named by an ``except`` clause, since a subclass
nothing tells apart from Error is one more name for the same refusal.

The package runs on numpy alone: no module in ``src/`` imports scipy, at
the top or inside a function; only the tests' references use it.
"""

import ast
import builtins
import pathlib

import roughdiff

SRC = pathlib.Path(roughdiff.__file__).parent
# test-only references still in src/: the benchmark's tracer
# (perfbench/tracer.py) looks the four calculus functionals and
# mean_stderr up by name in roughdiff.calculus, and CovariationResult is
# what covariation returns; mean_stderr is also the stacked table the
# streamed reduction is.  Every name must stay defined in src/ and read
# by no live code there (the two tests below), so the list cannot keep a
# deleted name or exempt a live one; every other reference lives in
# tests/reference.py
REFERENCE_IMPLEMENTATIONS = {
    "CovariationResult", "covariation", "forward_sum", "mean_stderr",
    "quadratic_variation", "trapezoid_sum",
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


def unused_public_definitions(src=SRC, allowed=REFERENCE_IMPLEMENTATIONS):
    """Public module-level functions and classes that no live code in
    ``src`` reads outside their own definition, other than ``allowed``.

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
               if name not in used and name not in allowed}
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


def _name(node):
    """The name a Name or Attribute node reads, else None."""
    return getattr(node, "id", None) or getattr(node, "attr", None)


def _errors_not_named(src, names_in):
    """Classes of ``src``'s errors module, other than the base Error, that
    ``names_in(tree)`` yields for no module of ``src``."""
    named, classes = set(), []
    for module, tree, _ in _parsed(src):
        if module == "errors":
            classes = [node.name for node in tree.body
                       if isinstance(node, ast.ClassDef)]
        named |= set(names_in(tree))
    return sorted(name for name in classes
                  if name != "Error" and name not in named)


def unconstructed_errors(src=SRC):
    """Error classes no code in ``src`` calls by name: an exception whose
    last raise site is gone."""
    return _errors_not_named(src, lambda tree: (
        _name(node.func) for node in ast.walk(tree)
        if isinstance(node, ast.Call)))


def uncaught_errors(src=SRC):
    """Error classes no ``except`` clause in ``src`` names, alone or in a
    tuple: a subclass that no code tells apart from Error."""
    def caught(tree):
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler) and node.type:
                yield from map(_name, getattr(node.type, "elts",
                                              [node.type]))
    return _errors_not_named(src, caught)


def builtin_raises(src=SRC):
    """"module:line Name" of every ``raise`` in ``src`` that builds a
    Python builtin exception, called or bare, in place of an errors
    class."""
    found = []
    for module, tree, _ in _parsed(src):
        for node in ast.walk(tree):
            if not isinstance(node, ast.Raise):
                continue
            name = getattr(getattr(node.exc, "func", node.exc), "id", "")
            cls = getattr(builtins, name, None)
            if isinstance(cls, type) and issubclass(cls, BaseException):
                found.append((module, node.lineno, name))
    return [f"{module}:{line} {name}" for module, line, name in sorted(found)]


def scipy_imports(src=SRC):
    """"module:line" of every import statement in ``src`` that loads scipy
    or one of its submodules."""
    found = []
    for module, tree, _ in _parsed(src):
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            if any(name.partition(".")[0] == "scipy" for name in names):
                found.append(f"{module}:{node.lineno}")
    return found


def test_no_public_definition_is_test_only():
    assert unused_public_definitions() == []


def test_no_public_method_is_test_only():
    assert unused_public_methods() == []


def test_every_error_is_raised():
    assert unconstructed_errors() == []


def test_every_error_is_caught():
    assert uncaught_errors() == []


def test_no_raise_builds_a_builtin_exception():
    assert builtin_raises() == []


def test_no_module_imports_scipy():
    assert scipy_imports() == []


def test_reference_implementations_exist():
    # a stale allowlist entry would hide nothing but still reads as a rule
    public = set()
    for path in SRC.glob("*.py"):
        public |= {node.name for node in ast.parse(path.read_text()).body
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert REFERENCE_IMPLEMENTATIONS <= public


def test_reference_implementations_are_test_only():
    # an entry that live code reads exempts nothing and only hides that
    # the definition is no longer a test-only reference
    flagged = {name.split(".")[1]
               for name in unused_public_definitions(allowed=())}
    assert sorted(REFERENCE_IMPLEMENTATIONS - flagged) == []


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


def test_guard_sees_unraised_errors(tmp_path):
    (tmp_path / "errors.py").write_text(
        "class Error(Exception):\n    pass\n\n\n"
        "class Raised(Error):\n    pass\n\n\n"
        "class Qualified(Error):\n    pass\n\n\n"
        "class Named(Error):\n    pass\n\n\n"
        "class Orphan(Error):\n    pass\n")
    (tmp_path / "mod.py").write_text(
        "from . import errors\n"
        "from .errors import Named, Orphan, Raised\n\n\n"
        "def check(x):\n"
        "    if x:\n        raise Raised(x)\n"
        "    if x is None:\n        raise errors.Qualified()\n"
        "    return isinstance(x, (Named, Orphan))\n\n\n"
        "def build():\n    return Named('unused')\n")
    assert unconstructed_errors(tmp_path) == ["Orphan"]


def test_guard_sees_uncaught_errors(tmp_path):
    (tmp_path / "errors.py").write_text(
        "class Error(ValueError):\n    pass\n\n\n"
        "class Caught(Error):\n    pass\n\n\n"
        "class InTuple(Error):\n    pass\n\n\n"
        "class Qualified(Error):\n    pass\n\n\n"
        "class Raised(Error):\n    pass\n")
    (tmp_path / "mod.py").write_text(
        "from . import errors\n"
        "from .errors import Caught, InTuple, Raised\n\n\n"
        "def run(fn):\n"
        "    try:\n        return fn()\n"
        "    except Caught:\n        return 1\n"
        "    except (OSError, InTuple):\n        return 2\n"
        "    except errors.Qualified:\n        raise Raised()\n"
        "    except:\n        return 3\n")
    assert uncaught_errors(tmp_path) == ["Raised"]


def test_guard_sees_builtin_raises(tmp_path):
    (tmp_path / "mod.py").write_text(
        "from .errors import Error\n\n\n"
        "def check(x, exc):\n"
        "    if x is None:\n        raise ValueError('none')\n"
        "    if x < 0:\n        raise KeyError\n"
        "    if x > 9:\n        raise Error('big')\n"
        "    if x > 8:\n        raise exc\n"
        "    try:\n        return 1 / x\n"
        "    except ZeroDivisionError:\n        raise\n")
    assert builtin_raises(tmp_path) == ["mod:6 ValueError", "mod:8 KeyError"]


def test_guard_sees_scipy_imports(tmp_path):
    (tmp_path / "mod.py").write_text(
        "import numpy as np, scipy\n"
        "from . import scipy_free\n"
        "from .scipy import local\n"
        "import scipyish\n\n\n"
        "def solve(x):\n"
        "    from scipy.sparse.linalg import splu\n"
        "    import scipy.sparse as sp\n"
        "    return splu, sp\n")
    assert scipy_imports(tmp_path) == ["mod:1", "mod:8", "mod:9"]
