import math

import numpy as np
import pytest

from qfesim import detector
from qfesim.detector import DetectorParams
from qfesim.qmatrix import density_eigen

# frozen from high-precision evaluation of the closed forms
ACCEL_AT_Q_HALF = 9.064720283654388      # 2*pi / ln 2
COUPLING_EXAMPLE = 0.04288819424803534   # eps=0.1, omega=1, delta=pi, kappa=1
MU_Q0 = 400.0 / 801.0                    # theta=pi/4, nu=0.05, q=0
ETA_Q0 = 1.0 / 801.0


def test_accel_to_q_known_value():
    assert abs(detector.accel_to_q(1.0, ACCEL_AT_Q_HALF) - 0.5) <= 1e-15


def test_accel_to_q_limits():
    assert detector.accel_to_q(1.0, 1e-6) < 1e-200
    assert 0.999 < detector.accel_to_q(1.0, 1e6) < 1.0


def test_accel_to_q_rejects_non_positive():
    with pytest.raises(ValueError, match="omega"):
        detector.accel_to_q(0.0, 1.0)
    with pytest.raises(ValueError, match="accel"):
        detector.accel_to_q(1.0, -1.0)


def test_accel_to_q_names_a_ratio_too_small_for_q_below_1():
    with pytest.raises(ValueError, match=r"^omega/accel = 1e-20 is too small: "
                                         r"q = exp\(-2\*pi\*omega/accel\) rounds to 1$"):
        detector.accel_to_q(1e-20, 1.0)
    with pytest.raises(ValueError, match="omega/accel"):
        DetectorParams(theta=0.5, nu=0.05, omega=1e-20, accel=1.0)
    assert detector.accel_to_q(1e-16, 1.0) == 0.9999999999999993


def test_q_accel_round_trip():
    # accel = 2 pi omega / (-ln q) inverts accel_to_q on (0, 1)
    for q in np.linspace(0.1, 0.9, 9):
        back = detector.accel_to_q(1.0, 2.0 * math.pi / -math.log(q))
        assert abs(back - q) <= 1e-12 * q


def test_coupling_nu_zero_amplitude():
    assert detector.coupling_nu(0.0, 1.0, 1.0, 0.0) == 0.0


def test_coupling_nu_unit_prefactor():
    # eps**2 * omega * delta = 2*pi and kappa = 0 gives nu = 1
    assert detector.coupling_nu(1.0, 1.0, 2.0 * math.pi, 0.0) == 1.0


def test_coupling_nu_example():
    value = detector.coupling_nu(0.1, 1.0, math.pi, 1.0)
    assert abs(value - COUPLING_EXAMPLE) <= 1e-15


def test_coupling_nu_rejects_bad_domain():
    with pytest.raises(ValueError, match="omega"):
        detector.coupling_nu(0.1, 0.0, 1.0, 0.0)
    with pytest.raises(ValueError, match="delta"):
        detector.coupling_nu(0.1, 1.0, 0.0, 0.0)


@pytest.mark.parametrize("value", [math.inf, math.nan])
@pytest.mark.parametrize("call, name", [
    (lambda v: detector.accel_to_q(v, 1.0), "omega"),
    (lambda v: detector.accel_to_q(1.0, v), "accel"),
    (lambda v: detector.coupling_nu(0.1, v, 1.0, 0.0), "omega"),
    (lambda v: detector.coupling_nu(0.1, 1.0, v, 0.0), "delta"),
], ids=["accel_to_q-omega", "accel_to_q-accel", "coupling_nu-omega", "coupling_nu-delta"])
def test_constants_must_be_finite_and_positive(call, name, value):
    # accel = inf once gave q = 1.0, outside [0, 1); delta = inf gave nu = inf
    with pytest.raises(ValueError, match=f"^{name} must be finite and positive, got {value}$"):
        call(value)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("call, name", [
    (lambda v: detector.coupling_nu(v, 1.0, 1.0, 0.0), "epsilon"),
    (lambda v: detector.coupling_nu(0.1, 1.0, 1.0, v), "kappa"),
], ids=["epsilon", "kappa"])
def test_coupling_nu_amplitude_and_size_must_be_finite(call, name, value):
    with pytest.raises(ValueError, match=f"^{name} must be finite, got {value}$"):
        call(value)


def test_params_q_domain():
    with pytest.raises(ValueError, match=r"\[0, 1\)"):
        DetectorParams(theta=0.5, nu=0.05, q=1.0)
    with pytest.raises(ValueError, match=r"\[0, 1\)"):
        DetectorParams(theta=0.5, nu=0.05, q=-0.1)
    assert DetectorParams(theta=0.5, nu=0.05, q=0.0).q == 0.0


def test_params_nu_domain():
    with pytest.raises(ValueError, match="non-negative"):
        DetectorParams(theta=0.5, nu=-0.1, q=0.0)
    with pytest.raises(ValueError, match="below 1"):
        DetectorParams(theta=0.5, nu=1.0, q=0.0)


def test_params_theta_must_be_finite():
    with pytest.raises(ValueError, match="finite"):
        DetectorParams(theta=math.nan, nu=0.05, q=0.0)


@pytest.mark.parametrize("name", ["omega", "accel", "delta"])
@pytest.mark.parametrize("value", [math.inf, math.nan, 0.0, -1.0])
def test_params_omega_accel_and_delta_must_be_finite_and_positive(name, value):
    given = {"q": 0.5, "omega": 1.0, "accel": ACCEL_AT_Q_HALF, name: value}
    with pytest.raises(ValueError, match=f"^{name} must be finite and positive, got {value}$"):
        DetectorParams(theta=0.5, nu=0.05, **given)


def test_params_q_derived_from_omega_accel():
    p = DetectorParams(theta=0.5, nu=0.05, omega=1.0, accel=ACCEL_AT_Q_HALF)
    assert abs(p.q - 0.5) <= 1e-15


def test_params_q_consistency_check():
    DetectorParams(theta=0.5, nu=0.05, q=0.5, omega=1.0, accel=ACCEL_AT_Q_HALF)
    with pytest.raises(ValueError, match="disagrees"):
        DetectorParams(theta=0.5, nu=0.05, q=0.51, omega=1.0, accel=ACCEL_AT_Q_HALF)


def test_params_default_q_is_inertial():
    assert DetectorParams(theta=0.5, nu=0.05).q == 0.0


@pytest.mark.parametrize("given, missing", [("omega", "accel"), ("accel", "omega")])
def test_params_lone_omega_or_accel_needs_q(given, missing):
    with pytest.raises(ValueError, match=f"{given} needs {missing}"):
        DetectorParams(theta=0.5, nu=0.05, **{given: 1.0})
    assert DetectorParams(theta=0.5, nu=0.05, q=0.2, **{given: 1.0}).q == 0.2


def test_model_weights_uncoupled():
    theta = np.linspace(0.0, math.pi / 2, 7)[:, None]
    mu, upsilon, eta = detector.weights_grid(theta, 0.0, np.array([0.0, 0.3, 0.9]))
    assert np.all(mu == 0.5) and np.all(upsilon == 0.0) and np.all(eta == 0.0)


def test_model_weights_inertial_point():
    mu, upsilon, eta = detector.weights_grid(math.pi / 4, 0.05, 0.0)
    # 1e-14 absorbs the ulp of sin(pi/4)**2 vs the exact 1/2 in the oracle
    assert abs(mu - MU_Q0) <= 1e-14
    assert upsilon == 0.0
    assert abs(eta - ETA_Q0) <= 1e-14


def test_model_weights_worked_point():
    # exact rationals at theta=pi/4, nu=0.05, q=0.5
    mu, upsilon, eta = detector.weights_grid(math.pi / 4, 0.05, 0.5)
    assert abs(mu - 400.0 / 803.0) <= 1e-15
    assert abs(upsilon - 1.0 / 803.0) <= 1e-17
    assert abs(eta - 2.0 / 803.0) <= 1e-17


def test_weight_normalization_on_grid():
    theta, nu, q = np.meshgrid(
        np.linspace(0.0, math.pi / 2, 33), (0.0, 0.01, 0.05, 0.1), np.linspace(0.0, 0.999, 100)
    )
    mu, upsilon, eta = detector.weights_grid(theta, nu, q)
    assert np.all(np.abs(2.0 * mu + upsilon + eta - 1.0) <= 1e-12)
    assert np.all(mu >= 0.0) and np.all(upsilon >= 0.0) and np.all(eta >= 0.0)


def test_mu_non_increasing_in_q():
    qs = np.linspace(0.0, 0.999, 100)
    for theta in np.linspace(0.05, math.pi / 2 - 0.05, 9):
        for nu in (0.01, 0.05, 0.1):
            mus = detector.weights_grid(theta, nu, qs)[0]
            assert np.all(np.diff(mus) <= 0.0)


def test_build_final_state_uncoupled_is_projector():
    for theta in np.linspace(0.0, math.pi / 2, 9):
        state = detector.build_final_state(DetectorParams(theta=float(theta), nu=0.0, q=0.0))
        psi = np.array([0.0, math.sin(theta), math.cos(theta), 0.0], dtype=complex)
        np.testing.assert_allclose(state.rho, np.outer(psi, psi.conj()), atol=1e-14)


def test_build_final_state_theta_zero_is_diagonal():
    state = detector.build_final_state(DetectorParams(theta=0.0, nu=0.1, q=0.4))
    assert np.abs(state.rho - np.diag(np.diag(state.rho))).max() == 0.0
    assert state.eta == 0.0
    assert state.rho[0, 0] == 0.0


def test_build_final_state_worked_point():
    state = detector.build_final_state(DetectorParams(theta=math.pi / 4, nu=0.05, q=0.5))
    diag = np.real(np.diag(state.rho))
    np.testing.assert_allclose(
        diag, [2.0 / 803.0, 400.0 / 803.0, 400.0 / 803.0, 1.0 / 803.0], atol=1e-15
    )
    assert abs(state.rho[1, 2].real - 400.0 / 803.0) <= 1e-15
    assert state.rho[1, 2].imag == 0.0


def test_build_final_state_template_zeros():
    state = detector.build_final_state(DetectorParams(theta=0.9, nu=0.1, q=0.7))
    zero_positions = [
        (0, 1), (0, 2), (0, 3), (1, 0), (1, 3), (2, 0), (2, 3), (3, 0), (3, 1), (3, 2),
    ]
    for i, j in zero_positions:
        assert state.rho[i, j] == 0.0


def test_build_final_state_density_valid_on_sample():
    rng = np.random.default_rng(11)
    for _ in range(50):
        params = DetectorParams(
            theta=float(rng.uniform(0.0, math.pi / 2)),
            nu=float(rng.uniform(0.0, 0.3)),
            q=float(rng.uniform(0.0, 0.999)),
        )
        density_eigen(detector.build_final_state(params).rho)


def test_build_final_state_rho_is_read_only():
    state = detector.build_final_state(DetectorParams(theta=0.3, nu=0.05, q=0.2))
    with pytest.raises(ValueError):
        state.rho[0, 0] = 1.0


def test_x_state_rho_is_the_real_builder_as_read_only_complex():
    # the oracle builds its states in float64; the public state is that stack, cast
    theta = np.array([-0.0, 0.0, 0.3, math.pi / 4, 1.2, math.pi / 2])[:, None]
    weights = detector.weights_grid(theta, np.array([0.0, 0.05, 0.3])[:, None, None],
                                    np.array([0.0, 0.5, 0.999]))
    real = detector._x_state_real(theta, *weights)
    rho = detector.x_state_rho(theta, *weights)
    assert real.dtype == np.float64 and real.flags.writeable
    assert rho.dtype == np.complex128 and not rho.flags.writeable
    assert rho.shape == real.shape == (3, 6, 3, 4, 4)
    assert rho.real.tobytes() == real.tobytes()
    assert rho.imag.tobytes() == np.zeros(real.shape).tobytes()
    one = detector.x_state_rho(0.3, *(float(w[1, 2, 1]) for w in weights))
    assert one.tobytes() == rho[1, 2, 1].tobytes()


def test_trajectory_at_origin():
    point = detector.trajectory_point(1.0, 0.0)
    assert (point.tau, point.t, point.x) == (0.0, 0.0, 1.0)
    assert detector.trajectory_point(2.0, 0.0).x == 0.5


def test_trajectory_unit_time():
    point = detector.trajectory_point(1.0, 1.0)
    assert abs(point.t - math.sinh(1.0)) <= 1e-15
    assert abs(point.x - math.cosh(1.0)) <= 1e-15


def test_trajectory_hyperbola_invariant():
    # residual scaled by max(1/a**2, x**2): the raw identity is conditioned
    # like eps*cosh(a tau)**2, so the absolute form is unattainable at a*tau ~ 10
    for accel in (0.5, 1.0, 2.0):
        target = 1.0 / (accel * accel)
        for tau in np.linspace(-5.0, 5.0, 101):
            point = detector.trajectory_point(accel, float(tau))
            residual = abs(point.x * point.x - point.t * point.t - target)
            assert residual <= 1e-12 * max(target, point.x * point.x)


def test_trajectory_rejects_non_positive_accel():
    with pytest.raises(ValueError, match="accel"):
        detector.trajectory_point(0.0, 1.0)


@pytest.mark.parametrize("accel, tau, message", [
    (math.inf, 1.0, "accel must be finite and positive, got inf"),
    (math.nan, 1.0, "accel must be finite and positive, got nan"),
    (1.0, math.nan, "tau must be finite, got nan"),
    (1.0, -math.inf, "tau must be finite, got -inf"),
    (1.0, 1000.0, "the world-line point at accel*tau = 1000.0 (accel = 1.0) overflows a float"),
    (1.0, -711.0, "the world-line point at accel*tau = -711.0 (accel = 1.0) overflows a float"),
    (1e-310, 1.0, "the world-line point at accel*tau = 1e-310 (accel = 1e-310) overflows a float"),
])
def test_trajectory_rejects_a_point_it_cannot_place(accel, tau, message):
    # these once returned NaN coordinates, or raised math's bare OverflowError
    with pytest.raises(ValueError) as info:
        detector.trajectory_point(accel, tau)
    assert str(info.value) == message


def test_trajectory_places_the_last_point_below_overflow():
    point = detector.trajectory_point(1.0, 710.0)
    assert math.isfinite(point.x) and point.t == point.x


def test_validity_check_quiet_at_operating_point():
    assert detector.validity_check(DetectorParams(theta=0.5, nu=0.05, q=0.1)) == []


def test_validity_check_flags_strong_coupling():
    notes = detector.validity_check(DetectorParams(theta=0.5, nu=0.5, q=0.1))
    assert len(notes) == 1 and "nu**2" in notes[0]


def test_validity_check_coupling_boundary():
    # 0.1 * 0.1 rounds above 0.01, so the limit is taken on nu itself
    assert detector.validity_check(DetectorParams(theta=0.5, nu=0.1, q=0.1)) == []
    notes = detector.validity_check(DetectorParams(theta=0.5, nu=0.1000001, q=0.1))
    assert len(notes) == 1 and "nu = 0.1000001 exceeds 0.1" in notes[0]


def test_validity_check_flags_short_window():
    params = DetectorParams(theta=0.5, nu=0.05, q=0.1, omega=1.0, delta=10.0)
    notes = detector.validity_check(params)
    assert len(notes) == 1 and "omega*delta" in notes[0]
    quiet = DetectorParams(theta=0.5, nu=0.05, q=0.1, omega=1.0, delta=1000.0)
    assert detector.validity_check(quiet) == []
