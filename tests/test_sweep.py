import math

import numpy as np
import pytest

from qfesim import sweep
from qfesim.detector import DetectorParams
from qfesim.measures import qfe_from_concurrence

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
    records = sweep.run_sweep(q_spec())
    assert len(records) == 10
    np.testing.assert_allclose([r.q for r in records], np.arange(10) * 0.1, atol=1e-15)
    assert records[0].q == 0.0 and records[-1].q == 0.9


def test_run_sweep_row_matches_worked_point():
    record = sweep.run_sweep(q_spec())[5]
    assert record.q == 0.5
    assert abs(record.qfe - QFE_WORKED) <= 1e-12
    assert abs(record.mu - 400.0 / 803.0) <= 1e-15


def test_run_sweep_deterministic():
    first = sweep.run_sweep(q_spec(steps=50))
    second = sweep.run_sweep(q_spec(steps=50))
    assert first == second


def test_run_sweep_theta_endpoints_have_zero_qfe():
    spec = sweep.SweepSpec(
        "theta", 0.0, math.pi / 2, 21, DetectorParams(theta=0.0, nu=0.05, q=0.5)
    )
    records = sweep.run_sweep(spec)
    assert records[0].qfe == 0.0
    assert records[-1].qfe == 0.0
    assert records[0].ratio is None


def test_run_sweep_cross_check_path():
    sweep.run_sweep(q_spec(steps=5), cross_check=True)


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


def test_oracle_scan_small_grid():
    result = sweep.oracle_scan(theta_points=7, nu_values=(0.0, 0.05), q_points=9)
    assert result.points == 7 * 2 * 9
    assert result.max_concurrence_deviation <= 1e-9
    assert result.max_eigenvalue_deviation <= 1e-10


def test_oracle_scan_equals_row_by_row_in_bounded_chunks(monkeypatch):
    from qfesim import measures

    worst = np.zeros(3)
    for nu in (0.0, 0.01, 0.05, 0.1):
        for theta in np.linspace(0.0, math.pi / 2.0, 33):
            grid = measures.evaluate_grid(theta, nu, np.linspace(0.0, 0.999, 100))
            worst = np.maximum(worst, measures.oracle_deviations(grid).max(axis=0))
    built = []  # states per x_state_rho call
    real = measures.x_state_rho

    def counting(theta, mu, upsilon, eta):
        rho = real(theta, mu, upsilon, eta)
        built.append(len(rho))
        return rho

    monkeypatch.setattr(measures, "x_state_rho", counting)
    result = sweep.oracle_scan()
    assert result.points == 13200
    scanned = [result.max_concurrence_deviation, result.max_entropy_deviation,
               result.max_eigenvalue_deviation]
    assert np.array(scanned).tobytes() == worst.tobytes()
    assert max(built) <= measures._CHUNK_POINTS
    assert sum(built) == 13200


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
    records = [r for spec in specs for r in sweep.run_sweep(spec)]
    assert [r.theta for r in records] == grid.theta.tolist()
    assert [r.q for r in records] == grid.q.tolist()
    assert [r.entropy for r in records] == grid.entropy.tolist()


def test_peak_coarse_scan_agrees_with_refinement_bits():
    # the golden-section refinement compares its values with coarse samples
    for fixed, variable, xs in (
        (DetectorParams(theta=math.pi / 5, nu=0.05), "q", np.linspace(0.0, 0.9999, 97)),
        (DetectorParams(theta=0.0, nu=0.0, q=0.5), "theta", np.linspace(0.0, math.pi / 2, 97)),
    ):
        theta, nu, q = sweep._along(fixed, variable, xs)
        coarse = sweep.evaluate_grid(theta, nu, q).qfe
        assert coarse.tolist() == [sweep._qfe_at(fixed, variable, x) for x in xs]


def test_oracle_scan_reports_entropy_deviation():
    result = sweep.oracle_scan(theta_points=5, nu_values=(0.0, 1e-4), q_points=6)
    assert result.points == 5 * 2 * 6
    assert result.max_entropy_deviation <= 1e-10
    assert result.max_concurrence_deviation <= 1e-12
