"""Source hygiene checks that need no linter: every name a module of the
package imports is referenced in that module, every private module-level
name is referenced somewhere in the package, every public function, class
and method is read somewhere in the code or its tests, every
parameter default of the package is overridden by some call, every
name the benchmark's tracer wraps or README.md names still exists, and
every `cdsurface` command README.md shows runs."""

import ast
import importlib
import re
import shlex
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "cdsurface"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names bound by import statements that no expression reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_unused_imports_are_found():
    source = ("from dataclasses import dataclass, field\n"
              "import numpy as np\nimport os.path\n"
              "@dataclass\nclass A:\n    x: np.ndarray\n")
    assert unused_imports(source) == [(1, "field"), (3, "os")]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((SRC / module).read_text()) == []


def private_definitions(source: str) -> dict:
    """Module-level `_private` functions, classes and constants, by line
    (dunder names excluded)."""
    defs = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = getattr(node, "targets", [getattr(node, "target", None)])
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        defs.update((name, node.lineno) for name in names
                    if name.startswith("_") and not name.startswith("__"))
    return defs


def references(source: str) -> set:
    """Names read in the source, as bare names or attributes."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            or isinstance(node, ast.Attribute)}


def test_unreferenced_private_names_are_found():
    source = ("_A = 1\n_B: int = 2\n__all__ = []\n"
              "def _f():\n    return _A\nclass _C:\n    pass\n")
    defs = private_definitions(source)
    assert defs == {"_A": 1, "_B": 2, "_f": 4, "_C": 6}
    assert sorted(set(defs) - references(source)) == ["_B", "_C", "_f"]


@pytest.mark.parametrize("module", MODULES)
def test_private_names_are_referenced(module):
    used = set().union(*(references(p.read_text())
                         for p in SRC.glob("*.py")))
    defs = private_definitions((SRC / module).read_text())
    assert sorted((line, name) for name, line in defs.items()
                  if name not in used) == []


ROOT = SRC.parents[1]
CALLERS = [p for d in ("src", "tests", "perfbench")
           for p in sorted((ROOT / d).rglob("*.py"))]


def defaulted_parameters(source: str) -> dict:
    """{(function name, parameter, position): line} for every parameter
    with a default; position is its index among the positional arguments
    of a call (None if keyword-only).  A method's first parameter is not
    counted, and a class's `__init__` goes by the class name."""
    out = {}

    def visit(node, cls=None):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
            elif isinstance(child, ast.FunctionDef):
                a = child.args
                params = a.posonlyargs + a.args
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in child.decorator_list)
                offset = 1 if cls is not None and not static else 0
                name = cls if child.name == "__init__" else child.name
                defaulted = params[len(params) - len(a.defaults):] + [
                    p for p, d in zip(a.kwonlyargs, a.kw_defaults)
                    if d is not None]
                for p in defaulted:
                    pos = params.index(p) - offset if p in params else None
                    out[name, p.arg, pos] = child.lineno
                visit(child)
    visit(ast.parse(source))
    return out


def set_parameters(source: str) -> set:
    """{(function name, parameter or position)} that some call sets; a
    call with *args or **kwargs sets every parameter ("*")."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
        if any(isinstance(a, ast.Starred) for a in node.args) or any(
                k.arg is None for k in node.keywords):
            out.add((name, "*"))
        out.update((name, i) for i in range(len(node.args)))
        out.update((name, k.arg) for k in node.keywords)
    return out


def unset_options(defaults: dict, calls: set) -> list:
    """(line, function name, parameter) of the defaults no call sets."""
    return sorted((line, name, param)
                  for (name, param, pos), line in defaults.items()
                  if not {(name, param), (name, pos), (name, "*")} & calls)


def test_unset_options_are_found():
    source = ("def f(a, b=1, *, c=2, d=3):\n    pass\n"
              "def g(p=0, q=1):\n    pass\n"
              "class K:\n    def __init__(self, x=0, y=1):\n        pass\n"
              "    def m(self, u=0):\n        pass\n"
              "    @staticmethod\n    def s(v=0):\n        pass\n"
              "f(0, 5, c=1)\nK(1)\nK.s(2)\ng(*args)\n")
    assert unset_options(defaulted_parameters(source),
                         set_parameters(source)) == [
        (1, "f", "d"), (6, "K", "y"), (8, "m", "u")]


def test_every_option_is_set_by_some_call():
    calls = set().union(*(set_parameters(p.read_text()) for p in CALLERS))
    unset = [(module,) + item for module in MODULES
             for item in unset_options(
                 defaulted_parameters((SRC / module).read_text()), calls)]
    assert unset == []


def public_definitions(source: str) -> dict:
    """Public module-level functions and classes, and the public methods
    of module-level classes, by line."""
    defs = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defs[node.name] = node.lineno
        if isinstance(node, ast.ClassDef):
            defs.update((f.name, f.lineno) for f in node.body
                        if isinstance(f, ast.FunctionDef))
    return {name: line for name, line in defs.items()
            if not name.startswith("_")}


def reads(source: str) -> set:
    """Names read in the source: bare names, attributes, imported names
    and string constants (as in `getattr(obj, "name")`)."""
    out = references(source)
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.alias):
            out.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def test_unread_public_names_are_found():
    source = ("from m import f\nimport numpy as np\n"
              "def g():\n    return f\nclass K:\n    def a(self):\n"
              "        pass\n    def b(self):\n        pass\n"
              "    def _c(self):\n        pass\n"
              "def h():\n    pass\nsetattr(K, 'b', None)\n")
    defs = public_definitions(source)
    assert defs == {"g": 3, "K": 5, "a": 6, "b": 8, "h": 12}
    assert sorted(set(defs) - reads(source)) == ["a", "g", "h"]
    assert {"f", "numpy", "K", "b"} <= reads(source)


def test_public_names_are_read():
    # the package's own export list is not a read of what it exports
    used = set().union(*(reads(p.read_text()) for p in CALLERS
                         if p != SRC / "__init__.py"))
    unread = [(module, line, name) for module in MODULES
              for name, line in public_definitions(
                  (SRC / module).read_text()).items() if name not in used]
    assert unread == []


# Names `perfbench/tracer.py` wraps that the package no longer has.  The
# benchmark is mended on its own (ROADMAP item 1); until then this set
# must not grow, and a mended name must leave it.
STALE_TRACED = {"_backend.double_contract", "_backend.scalar_double_contract",
                "mops.cd_kernel_table", "sops.scalar_cd_table",
                "WeightFamily.spectral"}


def traced_names(source: str) -> dict:
    """{"module.function" or "Class.method": (module, owner path)} for
    the tracer's FUNCTIONS, METHODS and WEIGHT_METHODS (the last are
    `weights.WeightFamily` methods), read from its source."""
    tables = {node.targets[0].id: ast.literal_eval(node.value)
              for node in ast.parse(source).body
              if isinstance(node, ast.Assign)
              and getattr(node.targets[0], "id", None) in (
                  "FUNCTIONS", "METHODS", "WEIGHT_METHODS")}
    return {**{f"{mod}.{fn}": (mod, (fn,))
               for mod, fn, _ in tables["FUNCTIONS"]},
            **{f"{cls}.{meth}": (mod, (cls, meth))
               for mod, cls, meth, _ in tables["METHODS"]},
            **{f"WeightFamily.{meth}": ("weights", ("WeightFamily", meth))
               for meth in tables["WEIGHT_METHODS"]}}


def resolves(module: str, path: tuple) -> bool:
    """Whether cdsurface.<module> has the attribute chain `path`."""
    try:
        obj = importlib.import_module(f"cdsurface.{module}")
    except ModuleNotFoundError:
        return False
    for name in path:
        obj = getattr(obj, name, None)
    return obj is not None


def test_traced_names_resolve_on_the_package():
    names = traced_names((ROOT / "perfbench" / "tracer.py").read_text())
    assert {name for name, (module, path) in names.items()
            if not resolves(module, path)} == STALE_TRACED


# The package's modules whose `module.name` README.md may name.
README_MODULES = ("mops", "tiling", "sops", "surface", "weights", "contour",
                  "cli", "errors")


def readme_names(text: str) -> set:
    """(module or class, attribute) of every backticked span that starts
    with `module.name` of README_MODULES or `Class.attr`, such as
    `tiling.transfer(model, x)`."""
    owners = "|".join(README_MODULES) + r"|[A-Z]\w*"
    return {m.groups() for span in re.findall(r"`([^`]+)`", text)
            if (m := re.match(rf"({owners})\.(\w+)", span))}


def test_readme_names_are_found():
    text = ("`mops.pair` and `tiling.transfer(model, x)`; `Foo.bar`,\n"
            "`oracle.kernel`, `fractions.Fraction` and `cdsurface.mops`")
    assert readme_names(text) == {("mops", "pair"), ("tiling", "transfer"),
                                  ("Foo", "bar")}


def test_readme_names_resolve_on_the_package():
    names = readme_names((ROOT / "README.md").read_text())
    assert names
    assert sorted(
        (owner, attr) for owner, attr in names
        if not (resolves(owner, (attr,)) if owner in README_MODULES else
                any(resolves(m, (owner, attr)) for m in README_MODULES))
    ) == []


def readme_commands(text: str) -> list:
    """The commands of the ```sh blocks as argument lists, split as the
    shell would: a line goes on with the next while a quote is open, and
    `#` starts a comment."""
    commands, pending = [], ""
    for block in re.findall(r"```sh\n(.*?)```", text, re.S):
        for line in block.splitlines(keepends=True):
            pending += line
            try:
                argv = shlex.split(pending, comments=True)
            except ValueError:      # no closing quotation yet
                continue
            pending = ""
            if argv:
                commands.append(argv)
    return commands


def test_readme_commands_are_found():
    text = ("```sh\n# a comment\ncdsurface kernel --family-json '{\"a\":\n"
            "  1}' --N 2\npytest   # full suite\n```\nprose\n```sh\nls\n```\n")
    assert readme_commands(text) == [
        ["cdsurface", "kernel", "--family-json", '{"a":\n  1}', "--N", "2"],
        ["pytest"], ["ls"]]


def test_readme_commands_run():
    from cdsurface import cli
    commands = [argv for argv in readme_commands(
        (ROOT / "README.md").read_text()) if argv[0] == "cdsurface"]
    assert commands
    codes = {shlex.join(argv): cli.main(argv[1:]) for argv in commands}
    assert codes == dict.fromkeys(codes, cli.EXIT_OK)
