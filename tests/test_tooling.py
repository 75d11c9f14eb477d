"""Rules about the package's sources and documentation, checked statically.

* The library imports no test-only or reference package, and the matrix
  route stays independent of ``numpy.linalg``, which the tests use as the
  independent reference.
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
