"""End-to-end acceptance gates.

Each test prints one ``[PASS]``/``[FAIL]`` line (visible with ``pytest -s``)
and then asserts.  Two gates encode idealized targets the exact model does
not meet; they fail by design of the model, not of the implementation, and
their docstrings carry the analysis:

* the fig2 mirror-symmetry/periodicity gates 6b/6c at 1e-12 (the weight
  denominators break the symmetry at order nu**2, 3.30e-3 at nu = 0.05).

Gate 8b's worked-point fluctuation target was corrected from 0.1730380 to
0.1730858: the fluctuation depends on the concurrence alone, and gate 8a's
band 0.9927417 +/- 5e-7 maps to 0.1730858 +/- 6e-6, which excludes the old
value.
"""

import math

import numpy as np
import pytest

from qfesim import cli
from qfesim.detector import DetectorParams, build_final_state, trajectory_point
from qfesim.measures import (
    concurrence_analytic,
    entanglement_entropy_pure,
    pure_concurrence,
    qfe_from_concurrence,
    qfe_variance_pure,
)
from qfesim.qmatrix import hermitian_eigen, matrix_sqrt_psd
from qfesim.sweep import figure_preset, golden_section_max, oracle_scan, sweep_grid

UNIVERSAL_QFE_MAX = 0.9562  # stated target for the fluctuation peak
GRID_THETAS = np.linspace(0.0, math.pi / 2, 33)
GRID_NUS = (0.0, 0.01, 0.05, 0.1)
GRID_QS = np.linspace(0.0, 0.999, 100)


def _report(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] {name}{suffix}")
    return ok


def _qfe_at_theta(theta, q, nu=0.05):
    state = build_final_state(DetectorParams(theta=float(theta), nu=nu, q=q))
    return qfe_from_concurrence(concurrence_analytic(state))


def test_criterion_01_normalization_identity():
    """2*mu + upsilon + eta = 1 and Tr rho = 1 to 1e-12 on the full grid."""
    worst_weight = 0.0
    worst_trace = 0.0
    for nu in GRID_NUS:
        for theta in GRID_THETAS:
            for q in GRID_QS:
                state = build_final_state(
                    DetectorParams(theta=float(theta), nu=nu, q=float(q))
                )
                total = 2.0 * state.mu + state.upsilon + state.eta
                worst_weight = max(worst_weight, abs(total - 1.0))
                worst_trace = max(worst_trace, abs(np.trace(state.rho).real - 1.0))
    ok = worst_weight <= 1e-12 and worst_trace <= 1e-12
    assert _report(
        "criterion 1: weight/trace normalization",
        ok,
        f"max |2mu+upsilon+eta-1| = {worst_weight:.2e}, max |tr-1| = {worst_trace:.2e}",
    )


def test_criterion_02_oracle_equivalence():
    """Closed-form concurrence/spectrum vs the matrix route on the full grid."""
    result = oracle_scan()
    ok = (
        result.max_concurrence_deviation <= 1e-9
        and result.max_eigenvalue_deviation <= 1e-10
    )
    assert _report(
        "criterion 2: closed form vs matrix route",
        ok,
        f"concurrence dev = {result.max_concurrence_deviation:.2e}, "
        f"eigenvalue dev = {result.max_eigenvalue_deviation:.2e} "
        f"over {result.points} points",
    )


def test_criterion_03_pure_state_limit():
    """At nu = 1e-6 the state is pure to ~1e-12: C -> |sin 2 theta| (1e-5)
    and the entanglement entropy -> binary entropy of sin^2 theta (1e-6)."""
    worst_c = 0.0
    worst_e = 0.0
    for q in (0.0, 0.5, 0.9):
        for theta in GRID_THETAS:
            state = build_final_state(DetectorParams(theta=float(theta), nu=1e-6, q=q))
            worst_c = max(
                worst_c,
                abs(concurrence_analytic(state) - abs(math.sin(2.0 * theta))),
            )
            p = math.sin(theta) ** 2
            binary = 0.0
            if 0.0 < p < 1.0:
                binary = -(p * math.log2(p) + (1.0 - p) * math.log2(1.0 - p))
            worst_e = max(
                worst_e, abs(entanglement_entropy_pure(state.rho) - binary)
            )
    ok = worst_c <= 1e-5 and worst_e <= 1e-6
    assert _report(
        "criterion 3: weak-coupling pure-state limit",
        ok,
        f"concurrence dev = {worst_c:.2e}, entropy dev = {worst_e:.2e}",
    )


def test_criterion_04_variance_identity():
    """Operator variance equals the concurrence closed form on pure states."""
    worst = 0.0
    for theta in np.linspace(0.0, math.pi / 2, 100):
        psi = np.array([0.0, math.sin(theta), math.cos(theta), 0.0], dtype=complex)
        rho = np.outer(psi, psi.conj())
        direct = qfe_variance_pure(rho)
        closed = qfe_from_concurrence(pure_concurrence(rho))
        worst = max(worst, abs(direct - closed))
    ok = worst <= 1e-10
    assert _report(
        "criterion 4: variance vs closed form on pure states",
        ok,
        f"max deviation = {worst:.2e}",
    )


def test_criterion_05_fig1_unimodal_rise_and_collapse():
    """Each fig1 fluctuation-vs-q curve rises, peaks at the universal
    maximum (0.9562 +/- 0.002), then collapses (< 0.2 at q = 0.9999)."""
    _, universal = golden_section_max(qfe_from_concurrence, 1e-9, 1.0 - 1e-9, tol=1e-10)
    ok = abs(universal - UNIVERSAL_QFE_MAX) <= 0.002
    details = [f"universal max = {universal:.7f}"]
    for spec in figure_preset("fig1"):
        values = sweep_grid([spec]).qfe
        qs = spec.grid()
        diffs = [d for d in np.diff(values) if d != 0.0]
        drops = sum(1 for a, b in zip(diffs, diffs[1:]) if a > 0.0 > b)
        recoveries = sum(1 for a, b in zip(diffs, diffs[1:]) if a < 0.0 < b)
        unimodal = diffs[0] > 0.0 and diffs[-1] < 0.0 and drops == 1 and recoveries == 0
        peak = float(values.max())
        ok = ok and unimodal and abs(peak - UNIVERSAL_QFE_MAX) <= 0.002 and values[-1] < 0.2
        details.append(
            f"theta={spec.fixed.theta:.4f}: peak {peak:.6f} at q={qs[values.argmax()]:.4f}, "
            f"tail {values[-1]:.3f}, unimodal={unimodal}"
        )
    assert _report("criterion 5: fig1 rise/peak/collapse", ok, "; ".join(details))


def test_criterion_06_fig2_endpoints_and_octant_maxima():
    """Fluctuation vanishes exactly at theta = 0 and pi/2 and exceeds the
    theta = pi/4 dip at the octant points pi/8 and 3 pi/8."""
    ok = True
    for spec, q in zip(figure_preset("fig2"), (0.0, 0.5, 0.8)):
        grid = sweep_grid([spec])
        ok = ok and grid.qfe[0] == 0.0 and grid.qfe[-1] == 0.0
        dip = _qfe_at_theta(math.pi / 4, q)
        ok = ok and _qfe_at_theta(math.pi / 8, q) > dip
        ok = ok and _qfe_at_theta(3 * math.pi / 8, q) > dip
    assert _report("criterion 6a: fig2 endpoints and octant maxima", ok)


def test_criterion_06_fig2_mirror_symmetry():
    """Gate: fluctuation mirror-symmetric about theta = pi/4 to 1e-12.

    The exact weights are not mirror symmetric: their shared denominator
    carries sin^2(theta) + q cos^2(theta), which swapping theta with
    pi/2 - theta changes by nu**2 (1-q) cos(2 theta).  At nu = 0.05 the
    profile is therefore asymmetric by up to ~3e-3 (invisible at plot
    scale but nine orders above this gate), so this gate fails for the
    exact model.
    """
    worst = 0.0
    for q in (0.0, 0.5, 0.8):
        for theta in np.linspace(0.0, math.pi / 2, 721):
            delta = abs(
                _qfe_at_theta(theta, q) - _qfe_at_theta(math.pi / 2 - theta, q)
            )
            worst = max(worst, delta)
    ok = worst <= 1e-12
    assert _report(
        "criterion 6b: fig2 mirror symmetry about pi/4 at 1e-12",
        ok,
        f"max |qfe(theta) - qfe(pi/2-theta)| = {worst:.2e}, "
        f"the order-nu**2 asymmetry of the exact weights",
    )


def test_criterion_06_fig2_period():
    """Gate: fluctuation pi/2-periodic on [0, pi] to 1e-12.

    Shifting theta by pi/2 gives the same sin^2, cos^2 and |sin 2 theta|
    as the mirror map theta -> pi/2 - theta, so this gate measures the
    same order-nu**2 asymmetry as 6b (3.30e-3 at nu = 0.05) and fails.
    """
    worst = 0.0
    for q in (0.0, 0.5, 0.8):
        for theta in np.linspace(0.0, math.pi / 2, 721):
            delta = abs(
                _qfe_at_theta(theta, q) - _qfe_at_theta(theta + math.pi / 2, q)
            )
            worst = max(worst, delta)
    ok = worst <= 1e-12
    assert _report(
        "criterion 6c: fig2 period pi/2 on [0, pi] at 1e-12",
        ok,
        f"max |qfe(theta) - qfe(theta+pi/2)| = {worst:.2e}",
    )


def test_criterion_07_fig3_monotone_ratio():
    """Ratio strictly increasing and concurrence strictly decreasing in q
    wherever the concurrence exceeds 1e-6."""
    (spec,) = figure_preset("fig3")
    grid = sweep_grid([spec])
    kept = grid.concurrence > 1e-6
    ratio, concurrence = grid.ratio[kept].tolist(), grid.concurrence[kept].tolist()
    ratio_up = all(b > a for a, b in zip(ratio, ratio[1:]))
    conc_down = all(b < a for a, b in zip(concurrence, concurrence[1:]))
    ok = ratio_up and conc_down and len(ratio) > 100
    assert _report(
        "criterion 7: fig3 ratio up / concurrence down",
        ok,
        f"{len(ratio)} points with C > 1e-6",
    )


def test_criterion_08_worked_point_weights_and_concurrence():
    """Worked point (pi/4, 0.05, 0.5): weights and concurrence targets."""
    state = build_final_state(DetectorParams(theta=math.pi / 4, nu=0.05, q=0.5))
    checks = {
        "mu": (state.mu, 0.4981320),
        "upsilon": (state.upsilon, 0.0012453),
        "eta": (state.eta, 0.0024908),
        "concurrence": (concurrence_analytic(state), 0.9927417),
    }
    ok = True
    details = []
    for name, (got, target) in checks.items():
        good = abs(got - target) <= 5e-7
        ok = ok and good
        details.append(f"{name} = {got:.9f} vs {target} ({'ok' if good else 'off'})")
    assert _report("criterion 8a: worked-point weights/concurrence", ok, "; ".join(details))


def test_criterion_08_worked_point_qfe():
    """Gate: fluctuation at the worked point equals 0.1730858 +/- 5e-7.

    The target is derived without the package.  The fluctuation is the
    standard deviation of the entanglement-entropy operator, which for a
    two-qubit state is C log2((1 + sqrt(1 - C^2))/C) (Wootters, PRL 80,
    2245 (1998)); equivalently sqrt(p(1-p)) |log2(p/(1-p))| with
    p = (1 + sqrt(1 - C^2))/2.  Evaluating the documented weights and this
    form at 50 digits (mpmath) gives C = 0.992741684776... and a
    fluctuation of 0.173085754165374..., rounded here to 7 places.  Gate
    8a's concurrence band 0.9927417 +/- 5e-7 maps to 0.1730858 +/- 6e-6,
    so the two targets are consistent.
    """
    state = build_final_state(DetectorParams(theta=math.pi / 4, nu=0.05, q=0.5))
    qfe = qfe_from_concurrence(concurrence_analytic(state))
    ok = abs(qfe - 0.1730858) <= 5e-7
    assert _report(
        "criterion 8b: worked-point fluctuation target 0.1730858",
        ok,
        f"model value = {qfe:.9f}, off by {abs(qfe - 0.1730858):.2e}; "
        f"target = C log2((1 + sqrt(1 - C^2))/C) at the documented weights",
    )


def test_criterion_09_spectral_routines():
    """Jacobi eigenpair residuals <= 1e-10 and sqrt roundtrip <= 1e-9 on
    1000 random Hermitian / PSD matrices each."""
    rng = np.random.default_rng(2024)
    worst_res = 0.0
    for _ in range(1000):
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        h = (g + g.conj().T) / 2.0
        w, v = hermitian_eigen(h)
        for k in range(4):
            worst_res = max(worst_res, np.linalg.norm(h @ v[:, k] - w[k] * v[:, k]))
    worst_sqrt = 0.0
    for _ in range(1000):
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        m = g.conj().T @ g
        s = matrix_sqrt_psd(m)
        worst_sqrt = max(worst_sqrt, float(np.abs(s @ s - m).max()))
    ok = worst_res <= 1e-10 and worst_sqrt <= 1e-9
    assert _report(
        "criterion 9: spectral routines",
        ok,
        f"max eigen residual = {worst_res:.2e}, max sqrt residual = {worst_sqrt:.2e}",
    )


def test_criterion_10_trajectory_hyperbola():
    """x^2 - t^2 = 1/a^2 to 1e-12, scaled by max(1/a^2, x^2): the raw
    identity is conditioned like eps * cosh(a tau)^2, so the residual must
    be measured against the squared magnitudes that enter it."""
    worst = 0.0
    for accel in (0.5, 1.0, 2.0):
        target = 1.0 / (accel * accel)
        for tau in np.linspace(-5.0, 5.0, 201):
            point = trajectory_point(accel, float(tau))
            residual = abs(point.x**2 - point.t**2 - target)
            worst = max(worst, residual / max(target, point.x**2))
    ok = worst <= 1e-12
    assert _report(
        "criterion 10: world-line hyperbola identity",
        ok,
        f"max scaled residual = {worst:.2e}",
    )


def test_criterion_11_cli_contract(tmp_path, capsys):
    """check verb exits 0 with deviation < 1e-9; repeated runs are
    byte-identical; the CSV header is exactly as specified."""
    code = cli.main(["check"])
    out = capsys.readouterr().out
    deviation = float(
        [line for line in out.splitlines() if line.startswith("max_concurrence_deviation")][0]
        .split(",")[1]
    )
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(["figure", "--which", "fig3", "--output", str(first)]) == 0
    assert cli.main(["figure", "--which", "fig3", "--output", str(second)]) == 0
    capsys.readouterr()
    identical = first.read_bytes() == second.read_bytes()
    header = first.read_text(encoding="utf-8").split("\n", 1)[0]
    header_ok = header == "q,theta,nu,mu,upsilon,eta,concurrence,entropy,qfe,ratio"
    ok = code == 0 and deviation < 1e-9 and identical and header_ok
    assert _report(
        "criterion 11: CLI contract",
        ok,
        f"check exit = {code}, deviation = {deviation:.2e}, "
        f"byte-identical = {identical}, header ok = {header_ok}",
    )
