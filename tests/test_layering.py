"""No module of the package reaches into a sibling module's private names,
none imports a name it does not use, none lists a name in ``__all__`` that
it does not define, and none imports anything but the standard library and
the package itself: zpeta has no runtime dependency.

A table or cache lives in one module; the others go through its public
functions, so a second copy of a table cannot grow behind an import of
``_name`` (``from .x import _y``) or an attribute read (``x._y``).  An
import left behind by a deleted function is caught by the second check,
and a private helper left behind by one by the orphan check, since no
linter runs over the package.  A ``ZpParams`` resolves its prime once, so
no module resolves a record's p again through ``as_prime``.  The command
line has one exit path: only ``cli._emit`` and ``cli.main`` touch the
standard streams.  The literal side of ``charsums`` (its tables and the
sums read from them) reads no closed form, so each side stays the other's
oracle.  Every module parses with the grammar of the oldest Python that
``pyproject.toml`` admits.
"""

import ast
import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import zpeta

PACKAGE = Path(zpeta.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_sibling_uses(tree: ast.Module) -> list[str]:
    """Each `module._name` this tree imports or reads from a sibling module."""
    siblings = {}  # local name -> sibling module name
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            relative = node.level == 1
            if relative and node.module is None:  # from . import x
                for alias in node.names:
                    siblings[alias.asname or alias.name] = alias.name
                continue
            if relative:
                source = node.module
            elif node.module and node.module.startswith("zpeta."):
                source = node.module.removeprefix("zpeta.")
            elif node.module == "zpeta":
                for alias in node.names:
                    siblings[alias.asname or alias.name] = alias.name
                continue
            else:
                continue
            uses += [f"{source}.{a.name}" for a in node.names if _private(a.name)]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("zpeta.") and alias.asname:
                    siblings[alias.asname] = alias.name.removeprefix("zpeta.")
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in siblings
            and _private(node.attr)
        ):
            uses.append(f"{siblings[node.value.id]}.{node.attr}")
    return uses


@pytest.mark.parametrize("module", MODULES)
def test_no_module_uses_a_private_name_of_a_sibling(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    assert private_sibling_uses(tree) == []


@pytest.mark.parametrize(
    "source, found",
    [
        ("from .charsums import _phase_table, F_direct", ["charsums._phase_table"]),
        ("from zpeta.charsums import _sine_table as s", ["charsums._sine_table"]),
        ("from . import charsums\nx = charsums._F_grid(1, 2, 3)", ["charsums._F_grid"]),
        ("from . import charsums as cs\ncs._phase_table(3)", ["charsums._phase_table"]),
        ("import zpeta.manifold as m\nm._component_analysis", ["manifold._component_analysis"]),
        ("from . import charsums\ncharsums.F_direct; charsums.__name__", []),
        ("from __future__ import annotations\nfrom fractions import _gcd", []),
        ("def f(self):\n    return self._rows", []),
    ],
)
def test_private_sibling_uses_finds_both_forms(source, found):
    assert private_sibling_uses(ast.parse(source)) == found


def unused_imports(tree: ast.Module) -> list[str]:
    """Each name this tree imports but never reads and does not list in
    ``__all__``; ``from __future__`` imports are directives, not names."""
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("module", MODULES)
def test_no_module_has_an_unused_import(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    assert unused_imports(tree) == []


@pytest.mark.parametrize(
    "source, found",
    [
        ("from fractions import Fraction\nx = 1", ["Fraction"]),
        ("from .exact import UNIT_I, UNIT_ONE\nu = UNIT_I", ["UNIT_ONE"]),
        ("import numpy as np\nimport os.path", ["np", "os"]),
        ("import os.path\nos.path.join('a')", []),
        ("from .x import f as g\ndef h() -> g: ...", []),
        ("from .numtheory import NotOddError\n__all__ = ['NotOddError']", []),
        ("from __future__ import annotations", []),
        ("def f():\n    from .numtheory import odd_primes_upto\n    return 0", ["odd_primes_upto"]),
    ],
)
def test_unused_imports_finds_each_form(source, found):
    assert unused_imports(ast.parse(source)) == found


def orphaned_private_names(tree: ast.Module) -> list[str]:
    """Each private module-level function, class or constant, and each
    private method (as ``Class._name``), that nothing in the tree reads."""
    defined = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.append((node.name, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined += [(t.id, t.id) for t in targets if isinstance(t, ast.Name)]
        if isinstance(node, ast.ClassDef):
            defined += [
                (f"{node.name}.{m.name}", m.name)
                for m in node.body
                if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
            ]
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
    return [label for label, name in defined if _private(name) and name not in read]


@pytest.mark.parametrize("module", MODULES)
def test_no_module_keeps_an_orphaned_private_name(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    assert orphaned_private_names(tree) == []


@pytest.mark.parametrize(
    "source, found",
    [
        ("def _helper():\n    return 1", ["_helper"]),
        ("def _helper():\n    return 1\ndef f():\n    return _helper()", []),
        ("_TABLE = (1, 2)\nTABLE: tuple = ()\n_ROWS: tuple = ()", ["_TABLE", "_ROWS"]),
        ("_LOOPS = {}\ndef f(kind):\n    return _LOOPS[kind]", []),
        ("class _Box:\n    pass", ["_Box"]),
        ("class A:\n    def _step(self):\n        return 1", ["A._step"]),
        (
            "class A:\n    def _step(self):\n        return 1\n"
            "    def f(self):\n        return self._step()",
            [],
        ),
        ("class A:\n    def __init__(self):\n        self._rows = 1", []),
        ("def f():\n    _local = 1\n    return 0", []),
        ("def _cache(p):\n    return p\nclear = _cache.cache_clear", []),
    ],
)
def test_orphaned_private_names_finds_each_form(source, found):
    assert orphaned_private_names(ast.parse(source)) == found


def unresolved_exports(module: types.ModuleType) -> list[str]:
    """Each name in the module's ``__all__`` that is not an attribute of it,
    so that ``from module import *`` would raise AttributeError."""
    return [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]


@pytest.mark.parametrize("module", MODULES)
def test_every_name_in_all_resolves(module):
    # the package __init__ and manifold list their exports; a deleted function must leave both
    imported = zpeta if module == "__init__" else importlib.import_module(f"zpeta.{module}")
    assert unresolved_exports(imported) == []


def test_unresolved_exports_finds_a_deleted_name():
    module = types.ModuleType("m")
    module.kept = 1
    module.__all__ = ["kept", "trivial_structure"]
    assert unresolved_exports(module) == ["trivial_structure"]
    del module.__all__
    assert unresolved_exports(module) == []


def record_prime_resolutions(tree: ast.Module) -> list[str]:
    """Each call ``as_prime(<expr>.p)``, plain or as a module attribute: a
    record's ``prime`` field already holds that OddPrime."""
    return [
        ast.unparse(node)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) or getattr(node.func, "attr", None)) == "as_prime"
        and any(isinstance(arg, ast.Attribute) and arg.attr == "p" for arg in node.args)
    ]


@pytest.mark.parametrize("module", MODULES)
def test_no_module_resolves_a_record_prime_again(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    assert record_prime_resolutions(tree) == []


@pytest.mark.parametrize(
    "source, found",
    [
        ("P = as_prime(params.p)", ["as_prime(params.p)"]),
        ("p = numtheory.as_prime(q.p).p", ["numtheory.as_prime(q.p)"]),
        ("as_prime(self.params.p)", ["as_prime(self.params.p)"]),
        ("P = as_prime(p)\nQ = as_prime(P.q)\nR = params.prime", []),
        ("prime = as_prime(self.p)", ["as_prime(self.p)"]),
        ("def as_prime(p):\n    return p.p", []),
    ],
)
def test_record_prime_resolutions_finds_each_form(source, found):
    assert record_prime_resolutions(ast.parse(source)) == found


_EXIT_PATH = ("_emit", "main")


def stream_uses(tree: ast.Module) -> list[str]:
    """Each ``print(`` call and each read of ``sys.stdout`` or ``sys.stderr``
    outside the functions ``_emit`` (the one writer of a command's output)
    and ``main`` (the one place that turns a refusal into an error line)."""
    exempt = {
        id(node)
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and fn.name in _EXIT_PATH
        for node in ast.walk(fn)
    }
    return [
        ast.unparse(node)
        for node in ast.walk(tree)
        if id(node) not in exempt
        and (
            (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "print")
            or (
                isinstance(node, ast.Attribute)
                and node.attr in ("stdout", "stderr")
                and getattr(node.value, "id", None) == "sys"
            )
        )
    ]


@pytest.mark.parametrize("module", MODULES)
def test_only_the_exit_path_touches_the_standard_streams(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    assert stream_uses(tree) == []


@pytest.mark.parametrize(
    "source, found",
    [
        ("def cmd(args):\n    print(3)\n    return 0", ["print(3)"]),
        ("def cmd(args):\n    sys.stdout.writelines(x)", ["sys.stdout"]),
        ("def cmd(args):\n    w = sys.stderr", ["sys.stderr"]),
        ("print('x')", ["print('x')"]),
        ("def main(argv):\n    print(f'error: {e}', file=sys.stderr)", []),
        ("def _emit(chunks, out):\n    sys.stdout.writelines(chunks)\n    sys.stdout.flush()", []),
        ("def main(argv):\n    def inner():\n        print(1)", []),
        ("def f(r):\n    r.print(1)\n    return r.stdout", []),
        ("import sys\nlimit = sys.get_int_max_str_digits()", []),
    ],
)
def test_stream_uses_finds_each_form(source, found):
    assert stream_uses(ast.parse(source)) == found


def outside_imports(tree: ast.Module) -> list[str]:
    """Each top-level module this tree imports that is neither in the
    standard library nor the package (relative imports are the package)."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module.partition(".")[0])
    return [n for n in names if n not in sys.stdlib_module_names and n != "zpeta"]


@pytest.mark.parametrize("module", MODULES)
def test_no_module_imports_outside_the_standard_library(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    assert outside_imports(tree) == []


@pytest.mark.parametrize(
    "source, found",
    [
        ("import numpy as np", ["numpy"]),
        ("from numpy.linalg import det", ["numpy"]),
        ("import os.path, json\nfrom fractions import Fraction", []),
        ("from . import charsums\nfrom .exact import pack\nimport zpeta.cli", []),
        ("def f():\n    import sympy", ["sympy"]),
    ],
)
def test_outside_imports_finds_each_form(source, found):
    assert outside_imports(ast.parse(source)) == found


def test_importing_zpeta_loads_no_numpy():
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    code = "import sys, zpeta, zpeta.cli; print('numpy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout == "False\n"


def test_importing_zpeta_loads_no_cli_and_importing_the_cli_builds_no_parser():
    # a one-shot process and the import timed as set-up pay for no parser;
    # the first main call builds it
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    code = (
        "import argparse, contextlib, io, sys\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting(self, *args, **kwargs):\n"
        "    built.append(self)\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counting\n"
        "import zpeta\n"
        "print('zpeta.cli' in sys.modules)\n"
        "import zpeta.cli\n"
        "print(len(built), zpeta.cli._parser)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    zpeta.cli.main(['classnumber', '--p', '23'])\n"
        "print(len(built) > 0, zpeta.cli._parser is built[0])\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout == "False\n0 None\nTrue True\n"


PYTHON_FLOOR = (3, 10)


def test_pyproject_declares_the_python_floor_the_grammar_check_holds():
    pyproject = (PACKAGE.parents[1] / "pyproject.toml").read_text()
    assert f'requires-python = ">={PYTHON_FLOOR[0]}.{PYTHON_FLOOR[1]}"' in pyproject


@pytest.mark.parametrize("module", MODULES)
def test_every_module_parses_with_the_grammar_of_the_python_floor(module):
    # holds requires-python without an interpreter of that version to test on
    ast.parse((PACKAGE / f"{module}.py").read_text(), feature_version=PYTHON_FLOOR)


def test_the_grammar_check_refuses_a_newer_form():
    source = "try:\n    pass\nexcept* ValueError:\n    pass"  # exception groups are 3.11
    ast.parse(source)
    with pytest.raises(SyntaxError, match="only supported in Python 3.11"):
        ast.parse(source, feature_version=PYTHON_FLOOR)


def test_pyproject_declares_no_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")  # the standard library from Python 3.11
    pyproject = PACKAGE.parents[1] / "pyproject.toml"
    assert tomllib.loads(pyproject.read_text())["project"]["dependencies"] == []


# the literal side of charsums: the tables and the sums read from them
LITERAL_SIDE = (
    "_gauss_terms",
    "_trig_literals",
    "half_period_product",
    "gauss_direct",
    "F_direct",
    "trig_prod_direct",
)


def _closed_form_name(name: str) -> bool:
    return name.startswith(("G_h_", "F_h_")) or name in (
        "trig_prod",
        "_half_root_multiples",
        "RadicalValue",
        "legendre",  # OddPrime.legendre, the symbol the closed forms read
    )


def literal_side_closed_form_uses(tree: ast.Module) -> list[str]:
    """Each closed-form name read by a function of the literal side, or by
    a module-level function it reaches through calls, as "function: name".
    The literal sums are the closed forms' oracle: one that reads a closed
    form, or the Legendre symbol the closed forms are written in, checks
    nothing."""
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    found, seen, todo = [], set(), [name for name in LITERAL_SIDE if name in functions]
    while todo:
        name = todo.pop(0)
        if name in seen:
            continue
        seen.add(name)
        for node in ast.walk(functions[name]):
            if isinstance(node, ast.Name):
                used = node.id
            elif isinstance(node, ast.Attribute):
                used = node.attr
            else:
                continue
            if _closed_form_name(used):
                found.append(f"{name}: {used}")
            elif used in functions and used not in seen:
                todo.append(used)
    return found


def test_the_literal_side_of_charsums_reads_no_closed_form():
    tree = ast.parse((PACKAGE / "charsums.py").read_text())
    defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert set(LITERAL_SIDE) <= defined
    assert literal_side_closed_form_uses(tree) == []


def test_the_literal_side_rule_fails_on_a_planted_closed_form():
    # F_direct returning the closed form, directly and through a helper
    tree = ast.parse((PACKAGE / "charsums.py").read_text())
    F_direct = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "F_direct")
    F_direct.body[-1:] = ast.parse("return _closed(h, l, c, P)").body
    tree.body += ast.parse("def _closed(h, l, c, P):\n    return F_h_chip(h, l, c, P)").body
    assert literal_side_closed_form_uses(tree) == ["_closed: F_h_chip"]
    F_direct.body[-1:] = ast.parse("return P.legendre(l) * RadicalValue(1)").body
    assert literal_side_closed_form_uses(tree) == ["F_direct: legendre", "F_direct: RadicalValue"]
