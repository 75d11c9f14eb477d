"""Rules about the package's sources and documentation, checked statically.

* The library imports no test-only or reference package, and the matrix
  route stays independent of ``numpy.linalg``, which the tests use as the
  independent reference.
* The density-matrix rule (its tolerances, its fault finders and the
  stack-index suffix of its errors) lives in ``qmatrix`` alone; every other
  module reaches it through ``density_eigen``, ``density_eigenvalues`` or
  the one checked solve, ``_solve``.
* So does the unchecked solve (``_unchecked_eigen`` and ``_jacobi``, with
  or without eigenvectors), which trusts its caller to have validated the
  stack; every other module solves through ``hermitian_eigen``,
  ``hermitian_eigenvalues``, the density solves above or ``_solve``, each
  of which takes an eigenvalues-only form.
* The cross-check tolerance, ``CROSS_CHECK_TOL``, is named in ``measures``
  alone: ``--oracle`` and ``check`` both fail through its one gate,
  ``measures._gate``, which no other module may reimplement.
* ``qmatrix`` loads no stack through a ``[..., index]`` subscript, an index
  array or mask after an ellipsis: numpy puts the indexed axis outermost in
  memory, so every later sweep over such a sub-stack would loop over an
  inner axis of length 2 to 8.  ``take`` and ``compress`` keep the matrix
  axis innermost.
* The README's "Library entry points" block runs, and it imports exactly
  the names in ``qfesim.__all__``.
* The README's "Config keys" table lists the CLI option table's keys, in
  its order, each with the verbs that take it.
* ``cli.write_csv`` writes through ``cli._emit``, once per call: the
  benchmark's tracer (``bench/spans.py``) times CSV formatting as those two
  names, so a rename would silently read ``cli.format_s`` as 0.
* The CSV writer prints at most 0.1% of the fields of the figure presets,
  the sweep goldens and two sweeps shaped like the bench calls where
  exponent notation is densest through its one-value ``%`` fallback, so
  the work cannot drift back to ``%`` unseen.
* Each module's set of public functions is pinned, so a new wrapper is a
  visible decision rather than a drift of the public surface.
* The spin-flip spectrum (``measures._spin_flip``) is handed float64
  eigenvectors on every call that ``check`` and ``sweep --oracle`` make: it
  forms tau in real arithmetic and keeps no complex-state fallback.
"""

import ast
import contextlib
import inspect
import io
import pathlib
import re

import numpy as np
import pytest

import qfesim
from qfesim import cli, detector, measures, qmatrix, sweep
from qfesim.measures import evaluate_grid

ROOT = pathlib.Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "qfesim").glob("*.py"))
FORBIDDEN_PACKAGES = {"scipy", "mpmath", "sympy", "hypothesis"}
DENSITY_RULE_NAMES = {"EIGENVALUE_FLOOR", "HERMITIAN_TOL", "TRACE_TOL",
                      "_trace_fault", "_psd_fault", "_in_stack"}
UNCHECKED_SOLVE_NAMES = {"_unchecked_eigen", "_jacobi"}
CROSS_CHECK_NAMES = {"CROSS_CHECK_TOL"}


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


def _uses(tree: ast.AST, confined: set[str]) -> list[str]:
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
        found += [f"line {node.lineno}: {name}" for name in names if name in confined]
    return found


def _outside(home: str, confined: set[str]) -> dict:
    return {
        path.name: hits
        for path in SOURCES
        if path.name != home
        and (hits := _uses(ast.parse(path.read_text(encoding="utf-8")), confined))
    }


def test_only_qmatrix_names_the_density_matrix_rule():
    assert _outside("qmatrix.py", DENSITY_RULE_NAMES) == {}


def test_density_rule_scan_catches_each_form():
    for source in (
        "from .qmatrix import EIGENVALUE_FLOOR",
        "from .qmatrix import _trace_fault as fault",
        "from . import qmatrix\nqmatrix._psd_fault(w)",
        "if defect > HERMITIAN_TOL: pass",
        "qfesim.qmatrix.TRACE_TOL",
        "_in_stack(m, 0)",
    ):
        assert _uses(ast.parse(source), DENSITY_RULE_NAMES), source
    assert not _uses(ast.parse("from .qmatrix import _solve"), DENSITY_RULE_NAMES)


def test_only_qmatrix_names_the_unchecked_solve():
    assert _outside("qmatrix.py", UNCHECKED_SOLVE_NAMES) == {}


def test_unchecked_solve_scan_catches_each_form():
    for source in (
        "from .qmatrix import _unchecked_eigen",
        "from .qmatrix import _jacobi as solve",
        "from . import qmatrix\nqmatrix._unchecked_eigen(stack)",
        "qfesim.qmatrix._jacobi((m.real,))",
        "qmatrix._unchecked_eigen(tau, vectors=False)",
        "_unchecked_eigen(stack)",
        "solve = _jacobi",
    ):
        assert _uses(ast.parse(source), UNCHECKED_SOLVE_NAMES), source
    for source in ("from .qmatrix import hermitian_eigen, _solve",
                   "qmatrix.density_eigen(rho)", "qmatrix.hermitian_eigenvalues(tau)",
                   "qmatrix._solve(rho, True, vectors=False)",
                   "qmatrix._solve(tau, False, False, work)",
                   "qmatrix.density_eigenvalues(rho)"):
        assert not _uses(ast.parse(source), UNCHECKED_SOLVE_NAMES), source


def test_only_measures_names_the_cross_check_tolerance():
    assert _outside("measures.py", CROSS_CHECK_NAMES) == {}


def test_cross_check_scan_catches_each_form():
    for source in (
        "from .measures import CROSS_CHECK_TOL",
        "from .measures import CROSS_CHECK_TOL as tol",
        "from . import measures\nif d > measures.CROSS_CHECK_TOL: pass",
        "if not deviation <= CROSS_CHECK_TOL: status = 1",
    ):
        assert _uses(ast.parse(source), CROSS_CHECK_NAMES), source
    assert not _uses(ast.parse("from .measures import _gate"), CROSS_CHECK_NAMES)


def _ellipsis_gathers(tree: ast.AST) -> list[str]:
    """Loads through x[..., i] with i neither a slice nor a constant."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load) \
                and isinstance(node.slice, ast.Tuple) and len(node.slice.elts) > 1:
            first, last = node.slice.elts[0], node.slice.elts[-1]
            if isinstance(first, ast.Constant) and first.value is Ellipsis \
                    and not isinstance(last, (ast.Slice, ast.Constant)):
                found.append(f"line {node.lineno}: {ast.unparse(node)}")
    return found


def test_qmatrix_gathers_no_stack_through_an_ellipsis_subscript():
    source = (ROOT / "src" / "qfesim" / "qmatrix.py").read_text(encoding="utf-8")
    assert _ellipsis_gathers(ast.parse(source)) == []


def test_ellipsis_gather_scan_catches_each_form():
    for source in ("sub = hv[..., idx]", "hv = hv[..., ~done]", "a[..., np.flatnonzero(m)]",
                   "x = hv[..., pick].T", "f(hv[..., :n, live])", "hv[..., [0, 2]]"):
        assert _ellipsis_gathers(ast.parse(source)), source
    for source in ("hv[..., idx] = sub", "hv.take(idx, axis=-1)", "hv.compress(~done, axis=-1)",
                   "hv[..., 0]", "hv[..., 1:]", "h[:, p, q]", "stack[part]", "hv[:, :, ps]"):
        assert not _ellipsis_gathers(ast.parse(source)), source


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


def _readme_config_keys() -> list:
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("### Config keys", 1)[1]
    rows = re.findall(r"^\| `(\w+)` \|[^|\n]*\| ([^|\n]*) \|$", section.split("\n#", 1)[0], re.M)
    return [(key, verbs.split(", ")) for key, verbs in rows]


def test_readme_lists_each_config_key_with_its_verbs():
    assert _readme_config_keys() == [(key, list(verbs))
                                     for key, (_, verbs, _) in cli._OPTIONS.items()]


def test_write_csv_writes_through_emit_once(monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "_emit", lambda pieces, destination: calls.append(destination))
    cli.write_csv(evaluate_grid(0.5, 0.05, np.linspace(0.0, 0.9, 3 * measures._CHUNK_POINTS)), "a.csv")
    assert calls == ["a.csv"]


@pytest.mark.parametrize("argv", [
    ["figure", "--which", "fig1"],
    ["figure", "--which", "fig2"],
    ["figure", "--which", "fig3"],
    ["sweep", "--variable", "q", "--min", "0", "--max", "0.9999", "--steps", "201",
     "--theta", "pi/4", "--nu", "0"],
    ["sweep", "--variable", "q", "--min", "0", "--max", "0.999", "--steps", "201",
     "--theta", "pi/3", "--nu", "0.1"],
    # the bench calls where exponent notation is densest
    ["sweep", "--variable", "q", "--min", "0.5", "--max", "0.9999", "--steps", "2000",
     "--theta", "0.9", "--nu", "0.05"],
    ["sweep", "--variable", "theta", "--min", "0", "--max", "1.5707963267948966", "--steps", "2001",
     "--nu", "0.1", "--q", "0.9999"],
], ids=["fig1", "fig2", "fig3", "sweep_q_nu0", "sweep_q_nu01", "sweep_q_death", "sweep_theta_q09999"])
def test_csv_writer_rarely_falls_back_to_percent(argv, monkeypatch):
    fallbacks = []
    format_real = cli._format_real
    monkeypatch.setattr(cli, "_format_real",
                        lambda value: fallbacks.append(value) or format_real(value))
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert cli.main(argv) == 0
    fields = 10 * (stdout.getvalue().count("\n") - 1)
    assert fields > 0 and len(fallbacks) <= fields // 1000


PUBLIC_FUNCTIONS = {
    cli: {"console_main", "load_config", "main", "write_csv"},
    detector: {"accel_to_q", "build_final_state", "coupling_nu", "trajectory_point",
               "validity_check", "weights_grid", "x_state_rho"},
    measures: {"concurrence_analytic", "entanglement_entropy_pure", "evaluate_grid",
               "oracle_deviations", "pure_concurrence", "qfe_from_concurrence",
               "qfe_variance_pure", "von_neumann_entropy"},
    qmatrix: {"density_eigen", "density_eigenvalues", "hermitian_eigen",
              "hermitian_eigenvalues", "matrix_sqrt_psd"},
    sweep: {"figure_preset", "find_qfe_peak", "golden_section_max", "oracle_scan",
            "sweep_grid"},
}


@pytest.mark.parametrize("module", PUBLIC_FUNCTIONS, ids=lambda module: module.__name__)
def test_each_module_defines_exactly_its_pinned_public_functions(module):
    defined = {name for name, value in vars(module).items()
               if inspect.isfunction(value) and value.__module__ == module.__name__
               and not name.startswith("_")}
    assert defined == PUBLIC_FUNCTIONS[module]


def test_the_spin_flip_spectrum_gets_float64_eigenvectors_on_every_oracle_call(monkeypatch):
    dtypes = []
    real = measures._spin_flip

    def recording(eig, work=None):
        dtypes.append(eig.eigenvectors.dtype)
        return real(eig, work)

    monkeypatch.setattr(measures, "_spin_flip", recording)
    scan = sweep.oracle_scan()
    assert scan.points == 13200 and len(dtypes) == 13  # one call per 1,024-point chunk
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert cli.main(["sweep", "--variable", "q", "--min", "0", "--max", "0.999",
                         "--steps", "1500", "--theta", "0.6", "--nu", "0.05", "--oracle"]) == 0
    assert len(dtypes) == 13 + 2
    assert set(dtypes) == {np.dtype(np.float64)}
