"""Rules about the package's sources and documentation, checked statically.

* The library imports no test-only or reference package, and the matrix
  route stays independent of ``numpy.linalg``, which the tests use as the
  independent reference.
* The density-matrix rule (its tolerances, its fault finders and the
  stack-index suffix of its errors) lives in ``qmatrix`` alone; every other
  module reaches it through ``density_eigen`` or ``_density_spectrum``.
* The README's "Library entry points" block runs, and it imports exactly
  the names in ``qfesim.__all__``.
"""

import ast
import pathlib
import re

import qfesim

ROOT = pathlib.Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "qfesim").glob("*.py"))
FORBIDDEN_PACKAGES = {"scipy", "mpmath", "sympy", "hypothesis"}
DENSITY_RULE_NAMES = {"EIGENVALUE_FLOOR", "HERMITIAN_TOL", "TRACE_TOL",
                      "_density_fault", "_psd_fault", "_in_stack"}


def _violations(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            modules = [base] + [f"{base}.{alias.name}" for alias in node.names]
        else:
            modules = []
        for module in modules:
            parts = module.split(".")
            if parts[0] in FORBIDDEN_PACKAGES or "linalg" in parts:
                found.append(f"line {node.lineno}: import of {module}")
        if isinstance(node, ast.Attribute) and node.attr == "linalg":
            found.append(f"line {node.lineno}: use of .linalg")
        if isinstance(node, ast.Name) and node.id == "linalg":
            found.append(f"line {node.lineno}: use of linalg")
    return found


def test_sources_import_no_reference_package_and_no_linalg():
    assert SOURCES
    bad = {
        path.name: hits
        for path in SOURCES
        if (hits := _violations(ast.parse(path.read_text(encoding="utf-8"))))
    }
    assert bad == {}


def test_scan_catches_each_forbidden_form():
    for source in (
        "import scipy.linalg",
        "from mpmath import mp",
        "import sympy as sp",
        "from hypothesis import given",
        "from numpy import linalg",
        "import numpy.linalg",
        "import numpy as np\nnp.linalg.eigh(m)",
    ):
        assert _violations(ast.parse(source)), source


def _density_rule_uses(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        else:
            names = []
        found += [f"line {node.lineno}: {name}" for name in names if name in DENSITY_RULE_NAMES]
    return found


def test_only_qmatrix_names_the_density_matrix_rule():
    bad = {
        path.name: hits
        for path in SOURCES
        if path.name != "qmatrix.py"
        and (hits := _density_rule_uses(ast.parse(path.read_text(encoding="utf-8"))))
    }
    assert bad == {}


def test_density_rule_scan_catches_each_form():
    for source in (
        "from .qmatrix import EIGENVALUE_FLOOR",
        "from .qmatrix import _density_fault as fault",
        "from . import qmatrix\nqmatrix._psd_fault(w)",
        "if defect > HERMITIAN_TOL: pass",
        "qfesim.qmatrix.TRACE_TOL",
        "_in_stack(m, 0)",
    ):
        assert _density_rule_uses(ast.parse(source)), source
    assert not _density_rule_uses(ast.parse("from .qmatrix import _density_spectrum"))


def _readme_entry_point_block() -> str:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Library entry points", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_readme_entry_points_run_and_match_all():
    code = _readme_entry_point_block()
    imported = {
        alias.name
        for node in ast.walk(ast.parse(code))
        if isinstance(node, ast.ImportFrom) and node.module == "qfesim"
        for alias in node.names
    }
    assert imported == set(qfesim.__all__) - {"__version__"}
    exec(compile(code, "README.md", "exec"), {})
