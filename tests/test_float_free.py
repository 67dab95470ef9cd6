"""The certified modules are float-free, checked on their syntax trees.

The certified modules (``rational``, ``verified``, ``curve``, ``lattice`` and
``certify``) may hold no float literal, no ``float(...)`` or ``to_float(...)``
call, no ``math`` function outside the integer ones, and no import of the
float modules ``polyacert.analysis`` and ``polyacert.bessel`` except inside a
module ``__getattr__``.  The only exemptions are the double-precision guess
sites in ``GUESS_SITES``: each only seeds an exact check, so a wrong guess
costs time but cannot change a result, except ``curve.g_value``, which no
certified function calls; no other certified module names it, so a double
hint cannot come back unseen.

The tests also check that each module imports first in a fresh interpreter
(no import cycle), and that ``lattice`` resolves exactly the two
double-precision oracles that the benchmark reads there; every other
double-precision name is importable from ``analysis`` only.
"""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import polyacert
from polyacert import analysis, curve, lattice

SRC = Path(polyacert.__file__).resolve().parent

CERTIFIED = ("rational", "verified", "curve", "lattice", "certify")

GUESS_SITES = {
    "curve": {"g_value"},  # kept for the acceptance suite's import; no certified function calls it
    "verified": {"_arccos_ends", "_arccos_upper_end"},  # the double arccos guess
    "lattice": {"_above_hint"},  # the walk's double hint and arccos guess, seeding its one-sided check
    "rational": {"to_float"},
}

MATH_ALLOWED = {"isqrt", "comb", "factorial", "prod", "gcd"}

FLOAT_MODULES = {"polyacert.analysis", "polyacert.bessel"}

# The analysis names that a certified module still resolves at its old path:
# only the two oracles that the benchmark reads as lattice attributes.
MOVED = {curve: (), lattice: ("count_weighted_oracle", "sector_lattice_bound_oracle")}


class _FloatUses(ast.NodeVisitor):
    def __init__(self, module: str):
        self.module = module
        self.exempt = GUESS_SITES.get(module, set())
        self.scope: list[str] = []  # names of the enclosing functions, outermost first
        self.math_names = {"math"}
        self.found: list[str] = []

    def _flag(self, node, what: str) -> None:
        if not self.exempt.intersection(self.scope):
            self.found.append(f"{self.module}.py:{node.lineno}: {what}")

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Constant(self, node):
        if isinstance(node.value, float):
            self._flag(node, f"float literal {node.value!r}")

    def visit_Call(self, node):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name in ("float", "to_float"):
            self._flag(node, f"{name}(...) call")
        self.generic_visit(node)

    def visit_Attribute(self, node):
        if isinstance(node.value, ast.Name) and node.value.id in self.math_names and node.attr not in MATH_ALLOWED:
            self._flag(node, f"math.{node.attr}")
        self.generic_visit(node)

    def _check_import(self, node, modules: list[str]) -> None:
        if self.scope[:1] == ["__getattr__"]:
            return
        for name in modules:
            if name in FLOAT_MODULES:
                self.found.append(f"{self.module}.py:{node.lineno}: import of {name}")

    def visit_Import(self, node):
        for alias in node.names:
            if alias.name == "math":
                self.math_names.add(alias.asname or "math")
        self._check_import(node, [alias.name for alias in node.names])

    def visit_ImportFrom(self, node):
        base = node.module or ""
        if node.level:  # relative to the polyacert package
            base = "polyacert" + (f".{base}" if base else "")
        if base == "math":
            for alias in node.names:
                if alias.name not in MATH_ALLOWED:
                    self._flag(node, f"math.{alias.name}")
        self._check_import(node, [base] + [f"{base}.{alias.name}" for alias in node.names])


def float_uses(module: str, source: str) -> list[str]:
    """Every float use in a certified module's source outside its guess sites, as 'file:line: what'."""
    visitor = _FloatUses(module)
    visitor.visit(ast.parse(source))
    return visitor.found


def _source(module: str) -> str:
    return (SRC / f"{module}.py").read_text()


class TestFloatFree:
    @pytest.mark.parametrize("module", CERTIFIED)
    def test_certified_module_is_float_free(self, module):
        assert float_uses(module, _source(module)) == []

    @pytest.mark.parametrize("module", sorted(GUESS_SITES))
    def test_every_guess_site_is_a_function_of_its_module(self, module):
        defined = {node.name for node in ast.parse(_source(module)).body if isinstance(node, ast.FunctionDef)}
        assert GUESS_SITES[module] <= defined

    @pytest.mark.parametrize("planted, what", [
        ("    return x + 0.5", "float literal 0.5"),
        ("    return float(x)", "float(...) call"),
        ("    return to_float(x)", "to_float(...) call"),
        ("    return math.pi * x", "math.pi"),
        ("    from .analysis import g_moment", "import of polyacert.analysis"),
        ("    from . import bessel", "import of polyacert.bessel"),
    ], ids=["literal", "float", "to_float", "math.pi", "analysis", "bessel"])
    def test_a_planted_float_use_is_flagged(self, planted, what):
        source = _source("curve") + f"\n\ndef planted(x):\n{planted}\n"
        (found,) = float_uses("curve", source)
        assert found.endswith(f": {what}")

    def test_other_math_names_and_aliases_are_flagged(self):
        source = "import math as m\nfrom math import sqrt, isqrt\n\ny = m.exp(1) + m.isqrt(4)\n"
        assert float_uses("certify", source) == ["certify.py:2: math.sqrt", "certify.py:4: math.exp"]

    @pytest.mark.parametrize("module", [module for module in CERTIFIED if module != "curve"])
    def test_no_other_certified_module_names_g_value(self, module):
        names = set()
        for node in ast.walk(ast.parse(_source(module))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.update((node.name, node.asname))
        assert "g_value" not in names

    def test_a_guess_site_is_exempt_only_in_its_own_module(self):
        planted = "\n\ndef g_value(x):\n    return 0.5 * x\n"
        assert float_uses("curve", _source("curve") + planted) == []
        assert float_uses("lattice", _source("lattice") + planted) != []


class TestFloatLayerSplit:
    @pytest.mark.parametrize("module", ["polyacert.analysis", "polyacert.curve", "polyacert.lattice", "polyacert.cli"])
    def test_each_module_imports_first_in_a_fresh_interpreter(self, module):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")]))
        script = f"import {module}\nfrom polyacert.analysis import a_value\nfrom polyacert.lattice import count_weighted_oracle\n"
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("module", MOVED, ids=lambda module: module.__name__)
    def test_moved_names_resolve_at_their_old_paths(self, module):
        for name in MOVED[module]:
            assert getattr(module, name) is getattr(analysis, name)
            assert name not in vars(module)
        defined = {name for name, value in vars(analysis).items() if getattr(value, "__module__", "") == analysis.__name__}
        assert {name for name in defined - set(MOVED[module]) if hasattr(module, name)} == set()
        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            module.no_such_name
