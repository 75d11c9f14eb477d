import math

import numpy as np
import pytest

from qfesim import sweep
from qfesim.detector import DetectorParams
from qfesim.measures import evaluate_grid, oracle_deviations, qfe_from_concurrence

QFE_WORKED = 0.1730857541653741
C_STAR = 0.5524341245308833      # argmax of C log2((1+sqrt(1-C^2))/C)
QFE_STAR = 0.956136644476859


def q_spec(theta=math.pi / 4, nu=0.05, lo=0.0, hi=0.9, steps=10):
    return sweep.SweepSpec("q", lo, hi, steps, DetectorParams(theta=theta, nu=nu))


def test_spec_validation():
    fixed = DetectorParams(theta=0.5, nu=0.05)
    with pytest.raises(ValueError, match="variable"):
        sweep.SweepSpec("x", 0.0, 1.0, 10, fixed)
    with pytest.raises(ValueError, match="min < max"):
        sweep.SweepSpec("q", 0.5, 0.5, 10, fixed)
    with pytest.raises(ValueError, match="steps"):
        sweep.SweepSpec("q", 0.0, 0.5, 1, fixed)
    with pytest.raises(ValueError, match=r"\[0, 1\)"):
        sweep.SweepSpec("q", 0.0, 1.0, 10, fixed)
    sweep.SweepSpec("theta", 0.0, math.pi, 10, fixed)  # wider theta range allowed


def test_run_sweep_grid_is_uniform_inclusive():
    grid = sweep.sweep_grid([q_spec()])
    assert len(grid.q) == 10
    np.testing.assert_allclose(grid.q, np.arange(10) * 0.1, atol=1e-15)
    assert grid.q[0] == 0.0 and grid.q[-1] == 0.9


def test_run_sweep_row_matches_worked_point():
    grid = sweep.sweep_grid([q_spec()])
    assert grid.q[5] == 0.5
    assert abs(grid.qfe[5] - QFE_WORKED) <= 1e-12
    assert abs(grid.mu[5] - 400.0 / 803.0) <= 1e-15


def test_run_sweep_deterministic():
    first = sweep.sweep_grid([q_spec(steps=50)])
    second = sweep.sweep_grid([q_spec(steps=50)])
    assert all(a.tobytes() == b.tobytes() for a, b in zip(first, second))


def test_run_sweep_theta_endpoints_have_zero_qfe():
    spec = sweep.SweepSpec(
        "theta", 0.0, math.pi / 2, 21, DetectorParams(theta=0.0, nu=0.05, q=0.5)
    )
    grid = sweep.sweep_grid([spec])
    assert grid.qfe[0] == 0.0
    assert grid.qfe[-1] == 0.0
    assert math.isnan(grid.ratio[0])


def test_figure_presets():
    fig1 = sweep.figure_preset("fig1")
    assert [s.fixed.theta for s in fig1] == [math.pi / 3, math.pi / 4, math.pi / 5]
    assert all(s.variable == "q" and s.fixed.nu == 0.05 and s.steps == 2000 for s in fig1)
    assert all(s.min == 0.0 and s.max == 0.9999 for s in fig1)

    fig2 = sweep.figure_preset("fig2")
    assert [s.fixed.q for s in fig2] == [0.0, 0.5, 0.8]
    assert all(s.variable == "theta" and s.steps == 721 for s in fig2)
    assert all(s.min == 0.0 and s.max == math.pi / 2 for s in fig2)

    fig3 = sweep.figure_preset("fig3")
    assert len(fig3) == 1
    assert fig3[0].variable == "q" and fig3[0].fixed.theta == math.pi / 4

    with pytest.raises(ValueError, match="unknown figure preset"):
        sweep.figure_preset("fig9")


def test_golden_section_max_parabola():
    x, value = sweep.golden_section_max(lambda x: -(x - 2.0) ** 2, 0.0, 5.0, tol=1e-10)
    assert abs(x - 2.0) <= 1e-8
    assert abs(value) <= 1e-15


def test_golden_section_rejects_bad_bracket():
    with pytest.raises(ValueError, match="lo < hi"):
        sweep.golden_section_max(lambda x: x, 1.0, 1.0)


@pytest.mark.parametrize("lo, hi", [(0.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0),
                                    (0.0, math.nan)])
def test_golden_section_rejects_non_finite_bounds(lo, hi):
    # hi = inf once returned (nan, nan)
    with pytest.raises(ValueError, match=r"needs finite bounds, got \["):
        sweep.golden_section_max(lambda x: -(x - 0.3) ** 2, lo, hi)


@pytest.mark.parametrize("tol", [0.0, -1e-8, math.nan, math.inf])
def test_golden_section_rejects_a_tol_that_is_not_finite_and_positive(tol):
    # tol = 0 once looped forever, and tol = nan returned the unsearched midpoint
    with pytest.raises(ValueError, match=f"needs a finite tol > 0, got {tol}$"):
        sweep.golden_section_max(lambda x: -(x - 0.3) ** 2, 0.0, 1.0, tol=tol)


def test_golden_section_ends_where_the_bracket_stops_shrinking():
    # a tol below the spacing of the doubles once looped forever
    x, value = sweep.golden_section_max(lambda x: -(x - 0.3) ** 2, 0.0, 1.0, tol=1e-300)
    assert abs(x - 0.3) <= 1e-8
    assert value <= 0.0


def test_find_qfe_peak_over_a_bracket_of_huge_thetas_ends():
    # near theta = 1e9 the doubles are 1.2e-7 apart, coarser than the 1e-8 tolerance
    fixed = DetectorParams(theta=0.0, nu=0.05, q=0.5)
    result = sweep.find_qfe_peak(fixed, "theta", (0.0, 1e9))
    assert 0.95 <= result.value <= QFE_STAR + 1e-12


def test_universal_qfe_maximum():
    # location/value of the fluctuation maximum over the concurrence itself
    c, value = sweep.golden_section_max(qfe_from_concurrence, 1e-9, 1.0 - 1e-9, tol=1e-10)
    assert abs(c - C_STAR) <= 1e-6
    assert abs(value - QFE_STAR) <= 1e-12


def test_find_qfe_peak_attains_universal_maximum():
    fixed = DetectorParams(theta=math.pi / 4, nu=0.05)
    result = sweep.find_qfe_peak(fixed, "q", (0.0, 0.9999))
    assert abs(result.value - QFE_STAR) <= 1e-6
    assert 0.9 < result.location < 1.0
    lo, hi = result.bracket
    assert result.value >= sweep._qfe_at(fixed, "q", lo)
    assert result.value >= sweep._qfe_at(fixed, "q", hi)


def test_find_qfe_peak_flat_profile():
    result = sweep.find_qfe_peak(DetectorParams(theta=0.0, nu=0.05), "q", (0.0, 0.99))
    assert result.value == 0.0


def test_find_qfe_peak_theta_variable():
    fixed = DetectorParams(theta=0.0, nu=0.05, q=0.5)
    result = sweep.find_qfe_peak(fixed, "theta", (0.0, math.pi / 4))
    assert abs(result.value - QFE_STAR) <= 1e-6
    assert 0.0 < result.location < math.pi / 4


def test_find_qfe_peak_rejects_bad_bracket():
    fixed = DetectorParams(theta=math.pi / 4, nu=0.05)
    with pytest.raises(ValueError, match="lo < hi"):
        sweep.find_qfe_peak(fixed, "q", (0.5, 0.5))
    with pytest.raises(ValueError, match=r"\[0, 1\)"):
        sweep.find_qfe_peak(fixed, "q", (0.0, 1.0))
    with pytest.raises(ValueError, match="variable"):
        sweep.find_qfe_peak(fixed, "x", (0.0, 0.5))


def _small_check_grid(theta_points, nu_values, q_points):
    """Worst (concurrence, entropy, spectrum) deviations of a check-like grid, and its size."""
    thetas = np.linspace(0.0, math.pi / 2.0, theta_points)[:, None]
    qs = np.linspace(0.0, 0.999, q_points)
    deviations = np.concatenate([oracle_deviations(evaluate_grid(thetas, nu, qs))
                                 for nu in nu_values])
    return deviations.max(axis=0), len(deviations)


def test_oracle_scan_small_grid():
    (concurrence, _, spectrum), points = _small_check_grid(7, (0.0, 0.05), 9)
    assert points == 7 * 2 * 9
    assert concurrence <= 1e-9
    assert spectrum <= 1e-10


def test_oracle_scan_equals_row_by_row_in_bounded_chunks(monkeypatch):
    from qfesim import measures

    worst = np.zeros(3)
    for nu in (0.0, 0.01, 0.05, 0.1):
        for theta in np.linspace(0.0, math.pi / 2.0, 33):
            grid = measures.evaluate_grid(theta, nu, np.linspace(0.0, 0.999, 100))
            worst = np.maximum(worst, measures.oracle_deviations(grid).max(axis=0))
    built = []  # states per call of the oracle's state builder
    real = measures._x_state_real

    def counting(theta, mu, upsilon, eta):
        rho = real(theta, mu, upsilon, eta)
        built.append(len(rho))
        return rho

    monkeypatch.setattr(measures, "_x_state_real", counting)
    result = sweep.oracle_scan()
    assert result.points == 13200
    scanned = [result.max_concurrence_deviation, result.max_entropy_deviation,
               result.max_eigenvalue_deviation]
    assert np.array(scanned).tobytes() == worst.tobytes()
    assert max(built) <= measures._CHUNK_POINTS
    assert sum(built) == 13200
    assert built == [1024] * 12 + [912]  # the flat (nu, theta, q) grid in 1,024-point chunks


def test_oracle_scan_deviations_equal_at_a_smaller_chunk(monkeypatch):
    from qfesim import measures

    def deviations():
        thetas = np.linspace(0.0, math.pi / 2.0, 33)[:, None]
        qs = np.linspace(0.0, 0.999, 100)
        return [measures.oracle_deviations(measures.evaluate_grid(thetas, nu, qs)).tobytes()
                for nu in (0.0, 0.01, 0.05, 0.1)]

    shipped = deviations()
    monkeypatch.setattr(measures, "_CHUNK_POINTS", 256)
    assert deviations() == shipped


def test_steps_cap_is_validated_before_any_allocation():
    fixed = DetectorParams(theta=0.5, nu=0.05)
    assert sweep.MAX_STEPS >= 10**6
    sweep.SweepSpec("q", 0.0, 0.5, sweep.MAX_STEPS, fixed)  # allowed, never evaluated
    for steps in (sweep.MAX_STEPS + 1, 10**15):
        with pytest.raises(ValueError, match=str(sweep.MAX_STEPS)):
            sweep.SweepSpec("q", 0.0, 0.5, steps, fixed)
    for which in ("fig1", "fig2", "fig3"):
        assert all(s.steps <= sweep.MAX_STEPS for s in sweep.figure_preset(which))


def test_sweep_grid_concatenates_specs_in_order():
    specs = sweep.figure_preset("fig2")
    grid = sweep.sweep_grid(specs)
    assert len(grid.q) == 3 * 721
    parts = [evaluate_grid(*spec.points()) for spec in specs]
    for name in ("theta", "q", "entropy"):
        joined = np.concatenate([getattr(part, name) for part in parts])
        assert joined.tolist() == getattr(grid, name).tolist()


def test_peak_coarse_scan_agrees_with_refinement_bits():
    # the golden-section refinement compares its values with coarse samples; a full
    # coarse scan is large enough to catch a scalar log2 that differs in the last bit
    steps = sweep._COARSE_STEPS
    for fixed, variable, xs in (
        (DetectorParams(theta=math.pi / 5, nu=0.05), "q", np.linspace(0.0, 0.9999, steps)),
        (DetectorParams(theta=0.0, nu=0.0, q=0.5), "theta", np.linspace(0.0, math.pi / 2, steps)),
    ):
        theta, nu, q = sweep._along(fixed, variable, xs)
        coarse = sweep.evaluate_grid(theta, nu, q).qfe
        assert coarse.tolist() == [sweep._qfe_at(fixed, variable, x) for x in xs]


def test_oracle_scan_reports_entropy_deviation():
    (concurrence, entropy, _), points = _small_check_grid(5, (0.0, 1e-4), 6)
    assert points == 5 * 2 * 6
    assert entropy <= 1e-10
    assert concurrence <= 1e-12
