import math

import numpy as np
import pytest

from qfesim import measures
from qfesim.detector import DetectorParams, build_final_state

# frozen from high-precision evaluation of the closed forms
C_WORKED = 0.9927416847761567        # (800 - 2*sqrt(2)) / 803
QFE_WORKED = 0.1730857541653741
RATIO_WORKED = 0.17435125050118294
ENTROPY_WORKED = 0.03893867836441317
ETA_UPSILON = 3.1016936798338734e-06  # 2 / 803**2
LAMBDA_BIG = 0.9925419775468395       # (800 / 803)**2
H2_THREE_QUARTERS = 0.8112781244591328
QFE_PI_THIRD = 0.6863088948351165     # sqrt(3/16) * log2(3)
SIN_2PI_5 = 0.9510565162951535
QFE_06 = 0.9509775004326937           # 0.6 * log2(3)


def bell_rho():
    psi = np.array([0.0, 1.0, 1.0, 0.0]) / math.sqrt(2.0)
    return np.outer(psi, psi.conj())


def pure_rho(theta):
    psi = np.array([0.0, math.sin(theta), math.cos(theta), 0.0], dtype=complex)
    return np.outer(psi, psi.conj())


def worked_state():
    return build_final_state(DetectorParams(theta=math.pi / 4, nu=0.05, q=0.5))


def concurrence_reference(rho):
    # independent route: eigenvalues of rho @ rho~ via LAPACK
    flipped = measures.FLIP_OPERATOR @ rho.conj() @ measures.FLIP_OPERATOR
    lam = np.sort(np.abs(np.real(np.linalg.eigvals(rho @ flipped))))[::-1]
    r = np.sqrt(lam)
    return max(0.0, r[0] - r[1] - r[2] - r[3])


def random_x_state(rng):
    # diagonal (a, b, c, d) with coherences bounded to keep positivity
    a, b, c, d = rng.dirichlet((1.0, 1.0, 1.0, 1.0))
    z = rng.uniform(-1.0, 1.0) * math.sqrt(b * c)
    w = rng.uniform(-1.0, 1.0) * math.sqrt(a * d)
    rho = np.diag([a, b, c, d]).astype(complex)
    rho[1, 2] = rho[2, 1] = z
    rho[0, 3] = rho[3, 0] = w
    return rho


def test_concurrence_numeric_bell():
    assert abs(measures.concurrence_numeric(bell_rho()) - 1.0) <= 1e-12


def test_concurrence_numeric_product_states():
    # rank-deficient inputs leave sqrt(eps)-level residue in the spectrum
    # that mostly cancels in the alternating sum; 2e-8 bounds the remainder
    rng = np.random.default_rng(21)
    for _ in range(20):
        a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        psi = np.kron(a / np.linalg.norm(a), b / np.linalg.norm(b))
        rho = np.outer(psi, psi.conj())
        assert measures.concurrence_numeric(rho) <= 2e-8


def test_concurrence_numeric_worked_point():
    value = measures.concurrence_numeric(worked_state().rho)
    assert abs(value - C_WORKED) <= 1e-12
    assert abs(value - concurrence_reference(worked_state().rho)) <= 1e-9


def test_concurrence_numeric_random_x_states():
    rng = np.random.default_rng(22)
    for _ in range(50):
        rho = random_x_state(rng)
        got = measures.concurrence_numeric(rho)
        assert abs(got - concurrence_reference(rho)) <= 1e-9


def test_concurrence_numeric_rejects_non_density():
    with pytest.raises(ValueError, match="unit trace"):
        measures.concurrence_numeric(np.eye(4))


def test_wootters_spectrum_worked_point():
    r = measures.wootters_spectrum(worked_state().rho)
    expected = [math.sqrt(LAMBDA_BIG), math.sqrt(ETA_UPSILON), math.sqrt(ETA_UPSILON), 0.0]
    np.testing.assert_allclose(r, expected, atol=1e-12)


def test_concurrence_analytic_uncoupled_limit():
    for theta in np.linspace(0.0, math.pi / 2, 21):
        state = build_final_state(DetectorParams(theta=float(theta), nu=0.0, q=0.0))
        assert abs(measures.concurrence_analytic(state) - abs(math.sin(2 * theta))) <= 1e-14


def test_concurrence_analytic_worked_point():
    assert abs(measures.concurrence_analytic(worked_state()) - C_WORKED) <= 1e-12


def test_concurrence_sudden_death():
    # strong coupling and high acceleration push the closed form below zero
    state = build_final_state(DetectorParams(theta=math.pi / 4, nu=0.3, q=0.99))
    assert state.eta > 0.0 and state.upsilon > 0.0
    assert measures.concurrence_analytic(state) == 0.0
    assert measures.concurrence_numeric(state.rho) == 0.0


def test_analytic_eigenvalues_worked_point():
    lam = measures.analytic_eigenvalues(worked_state())
    np.testing.assert_allclose(lam, [LAMBDA_BIG, ETA_UPSILON, ETA_UPSILON, 0.0], atol=1e-15)


def test_analytic_eigenvalues_uncoupled():
    for theta in (0.3, 1.1):
        state = build_final_state(DetectorParams(theta=theta, nu=0.0, q=0.0))
        lam = measures.analytic_eigenvalues(state)
        np.testing.assert_allclose(
            lam, [math.sin(2 * theta) ** 2, 0.0, 0.0, 0.0], atol=1e-14
        )


def test_analytic_eigenvalues_theta_zero():
    state = build_final_state(DetectorParams(theta=0.0, nu=0.1, q=0.5))
    np.testing.assert_array_equal(measures.analytic_eigenvalues(state), np.zeros(4))


def test_analytic_eigenvalues_match_spectrum():
    for theta in np.linspace(0.1, 1.5, 5):
        for q in (0.0, 0.4, 0.9):
            state = build_final_state(DetectorParams(theta=float(theta), nu=0.1, q=q))
            numeric = measures.wootters_spectrum(state.rho) ** 2
            np.testing.assert_allclose(
                measures.analytic_eigenvalues(state), numeric, atol=1e-10
            )


def test_pure_concurrence_bell():
    assert abs(measures.pure_concurrence(bell_rho()) - 1.0) <= 1e-12


def test_pure_concurrence_separable():
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0
    assert measures.pure_concurrence(rho) == 0.0


def test_pure_concurrence_partial_entanglement():
    got = measures.pure_concurrence(pure_rho(math.pi / 5))
    assert abs(got - SIN_2PI_5) <= 1e-12
    assert abs(got - measures.concurrence_numeric(pure_rho(math.pi / 5))) <= 1e-9


def test_pure_concurrence_rejects_mixed():
    with pytest.raises(ValueError, match="not pure"):
        measures.pure_concurrence(np.eye(4) / 4.0, tolerance=1e-6)


@pytest.mark.parametrize("measure", [measures.pure_concurrence,
                                     measures.entanglement_entropy_pure,
                                     measures.qfe_variance_pure])
def test_pure_measures_apply_the_psd_floor(measure):
    # pure within the tolerance, but one eigenvalue is -1e-8, below the -1e-10 floor
    near_pure = np.diag([1.0 + 1e-8, 0.0, 0.0, -1e-8]).astype(complex)
    with pytest.raises(ValueError, match="positive semidefinite: smallest eigenvalue -1.000e-08"):
        measure(near_pure)


def test_entropy_pure_state_is_zero():
    assert measures.von_neumann_entropy(bell_rho()) <= 1e-12


def test_entropy_maximally_mixed_qubit():
    assert abs(measures.von_neumann_entropy(np.eye(2) / 2.0) - 1.0) <= 1e-12


def test_entropy_spectrum_example():
    rho = np.diag([0.5, 0.25, 0.25, 0.0]).astype(complex)
    assert abs(measures.von_neumann_entropy(rho) - 1.5) <= 1e-12


def test_entropy_matches_lapack_route():
    rng = np.random.default_rng(23)
    for _ in range(25):
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        w = np.clip(np.linalg.eigvalsh(rho), 0.0, 1.0)
        expected = float(-sum(p * math.log2(p) for p in w if p > 0))
        assert abs(measures.von_neumann_entropy(rho) - expected) <= 1e-10
        assert 0.0 <= measures.von_neumann_entropy(rho) <= 2.0


def test_entropy_rejects_invalid():
    with pytest.raises(ValueError, match="unit trace"):
        measures.von_neumann_entropy(2.0 * np.eye(2))


def test_entanglement_entropy_bell():
    assert abs(measures.entanglement_entropy_pure(bell_rho()) - 1.0) <= 1e-12


def test_entanglement_entropy_product():
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0
    assert measures.entanglement_entropy_pure(rho) == 0.0


def test_entanglement_entropy_partial():
    got = measures.entanglement_entropy_pure(pure_rho(math.pi / 3))
    assert abs(got - H2_THREE_QUARTERS) <= 1e-12


def test_entanglement_entropy_side_symmetric():
    from qfesim.qmatrix import partial_trace

    for theta in np.linspace(0.0, math.pi / 2, 21):
        rho = pure_rho(float(theta))
        ent_a = measures.von_neumann_entropy(partial_trace(rho, "A"))
        ent_b = measures.von_neumann_entropy(partial_trace(rho, "B"))
        assert abs(ent_a - ent_b) <= 1e-10


def test_qfe_endpoints():
    assert measures.qfe_from_concurrence(0.0) == 0.0
    assert measures.qfe_from_concurrence(1.0) == 0.0
    assert measures.qfe_from_concurrence(5e-13) == 0.0


def test_qfe_known_value():
    assert abs(measures.qfe_from_concurrence(0.6) - QFE_06) <= 1e-14


def test_qfe_rejects_out_of_range():
    for bad in (-0.1, 1.1):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            measures.qfe_from_concurrence(bad)


def test_qfe_unimodal():
    grid = np.linspace(0.0, 1.0, 10001)
    values = np.array([measures.qfe_from_concurrence(float(c)) for c in grid])
    assert np.all(values[1:-1] > 0.0)
    peak = int(np.argmax(values))
    assert 0 < peak < len(grid) - 1
    diffs = np.diff(values)
    assert np.all(diffs[:peak] > 0.0)
    assert np.all(diffs[peak:] < 0.0)


def test_qfe_variance_bell_and_product():
    assert measures.qfe_variance_pure(bell_rho()) <= 1e-12
    rho = np.zeros((4, 4), dtype=complex)
    rho[1, 1] = 1.0
    assert measures.qfe_variance_pure(rho) == 0.0


def test_qfe_variance_partial():
    got = measures.qfe_variance_pure(pure_rho(math.pi / 3))
    assert abs(got - QFE_PI_THIRD) <= 1e-12


def test_qfe_variance_matches_closed_form():
    # operator variance vs C log2((1+sqrt(1-C^2))/C) on the pure family
    for theta in np.linspace(0.0, math.pi / 2, 100):
        rho = pure_rho(float(theta))
        direct = measures.qfe_variance_pure(rho)
        closed = measures.qfe_from_concurrence(measures.pure_concurrence(rho))
        assert abs(direct - closed) <= 1e-10


def test_qfe_variance_rejects_mixed():
    with pytest.raises(ValueError, match="not pure"):
        measures.qfe_variance_pure(np.eye(4) / 4.0)


def test_measure_state_uncoupled_bell():
    grid = measures.evaluate_grid(math.pi / 4, 0.0, 0.0)
    assert grid.concurrence[0] == 1.0
    assert grid.entropy[0] <= 1e-12
    assert grid.qfe[0] == 0.0
    assert grid.ratio[0] == 0.0


def test_measure_state_worked_point():
    grid = measures.evaluate_grid(math.pi / 4, 0.05, 0.5, cross_check=True)
    assert abs(grid.concurrence[0] - C_WORKED) <= 1e-12
    assert abs(grid.entropy[0] - ENTROPY_WORKED) <= 1e-12
    assert abs(grid.qfe[0] - QFE_WORKED) <= 1e-12
    assert abs(grid.ratio[0] - RATIO_WORKED) <= 1e-12


def test_measure_state_separable_has_undefined_ratio():
    grid = measures.evaluate_grid(0.0, 0.05, 0.5)
    assert grid.concurrence[0] == 0.0
    assert grid.qfe[0] == 0.0
    assert math.isnan(grid.ratio[0])


# --- closed-form grid core against the matrix route ---------------------------

from hypothesis import example, given, settings
from hypothesis import strategies as st

from qfesim.detector import x_state_rho
from qfesim.qmatrix import density_eigen, hermitian_eigen

THETAS = st.floats(0.0, math.pi / 2)
NUS = st.floats(0.0, 0.999)
QS = st.floats(0.0, 0.9999)


@settings(max_examples=300, deadline=None)
@given(THETAS, NUS, QS)
def test_evaluate_grid_matches_matrix_route(theta, nu, q):
    grid = measures.evaluate_grid(theta, nu, q)
    state = build_final_state(DetectorParams(theta=theta, nu=nu, q=q))
    w = hermitian_eigen(state.rho).eigenvalues
    closed_spectrum = np.sort([grid.eta[0], grid.upsilon[0], 2.0 * grid.mu[0], 0.0])[::-1]
    np.testing.assert_allclose(closed_spectrum, w, rtol=0.0, atol=1e-10)
    assert abs(grid.concurrence[0] - measures.concurrence_numeric(state.rho)) <= 1e-9
    assert abs(grid.entropy[0] - measures.von_neumann_entropy(state.rho)) <= 1e-10


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(THETAS, NUS, QS), min_size=1, max_size=20))
def test_evaluate_grid_equals_scalar_loop(points):
    # the one-point functions are the reference; same arithmetic, so same bits
    theta, nu, q = (np.array(column) for column in zip(*points))
    grid = measures.evaluate_grid(theta, nu, q)
    for i, (t, n, qv) in enumerate(points):
        state = build_final_state(DetectorParams(theta=t, nu=n, q=qv))
        one = measures.evaluate_grid(t, n, qv)
        assert (grid.mu[i], grid.upsilon[i], grid.eta[i]) == (state.mu, state.upsilon, state.eta)
        c = measures.concurrence_analytic(state)
        assert grid.concurrence[i] == c == one.concurrence[0]
        assert grid.qfe[i] == measures.qfe_from_concurrence(c) == one.qfe[0]
        assert grid.entropy[i] == one.entropy[0]
        assert np.array_equal(grid.ratio[i], one.ratio[0], equal_nan=True)


@settings(max_examples=300, deadline=None)
@given(THETAS, st.floats(0.0, 0.999, exclude_max=True), QS)
@example(0.0, 0.05, 0.5)                  # separable: C = 0
@example(math.pi / 4, 0.05, 0.9976)       # past sudden death: C = 0
@example(math.pi / 4, 0.0, 0.9999)        # pure Bell state
def test_evaluate_grid_properties(theta, nu, q):
    grid = measures.evaluate_grid(theta, nu, q)
    mu, upsilon, eta, c = (float(v[0]) for v in grid[3:7])
    assert abs(2.0 * mu + upsilon + eta - 1.0) <= 1e-12
    density_eigen(x_state_rho(theta, mu, upsilon, eta))  # Hermitian, unit trace, PSD
    assert 0.0 <= c <= 1.0
    assert grid.qfe[0] == measures.qfe_from_concurrence(c)
    assert math.isnan(grid.ratio[0]) == (c <= 1e-12)


def test_evaluate_grid_pure_states_have_zero_entropy():
    grid = measures.evaluate_grid(np.linspace(0.0, math.pi / 2, 41), 0.0, 0.7)
    assert np.all(grid.entropy == 0.0)
    assert not np.any(np.signbit(grid.entropy))


def test_evaluate_grid_names_the_failing_point():
    with pytest.raises(ValueError, match=r"\(theta, nu, q\) = \(0\.5, 0\.05, 1\.2\)"):
        measures.evaluate_grid(0.5, 0.05, np.array([0.1, 1.2, 1.5]))


def test_cross_check_error_names_the_point(monkeypatch):
    real = measures._spin_flip

    def shifted(eig):
        r = real(eig)
        assert r.shape == (len(eig.eigenvalues), 4) == (4, 4)  # the whole chunk of states
        return r + np.array([1e-6, 0.0, 0.0, 0.0])

    monkeypatch.setattr(measures, "_spin_flip", shifted)
    point = r"concurrence .*\(theta, nu, q\) = \(0\.3, "
    with pytest.raises(measures.CrossCheckError, match=point):
        measures.evaluate_grid(0.3, 0.05, np.linspace(0.0, 0.5, 4), cross_check=True)


@pytest.mark.parametrize(
    "theta, nu, q",
    [
        (math.pi / 4, 0.0001232179123712207, 0.959146319643572),  # sweep --oracle repro
        (0.6, 7.7e-4, 0.12),
        (1.0, 1e-5, 0.5),
    ],
)
def test_concurrence_numeric_small_coupling(theta, nu, q):
    # the eigenvalue eta upsilon ~ nu**4 of sqrt(rho) rho~ sqrt(rho) lies below
    # 1e-13 of its largest one; the spectrum must keep sqrt(eta upsilon) anyway
    state = build_final_state(DetectorParams(theta=theta, nu=nu, q=q))
    numeric = measures.concurrence_numeric(state.rho)
    assert abs(numeric - measures.concurrence_analytic(state)) <= 1e-12
    np.testing.assert_allclose(
        measures.wootters_spectrum(state.rho) ** 2,
        measures.analytic_eigenvalues(state),
        rtol=1e-9,
        atol=1e-24,
    )


def test_oracle_deviations_two_solves_per_point(monkeypatch):
    from qfesim import qmatrix

    solved, modes = [], []  # matrices per batched call, and whether it formed eigenvectors
    real = qmatrix._unchecked_eigen

    def counting(a, vectors=True):
        solved.append(len(a))
        modes.append(vectors)
        return real(a, vectors)

    # the one entry of the rho solve and of the eigenvalues-only tau solve
    monkeypatch.setattr(qmatrix, "_unchecked_eigen", counting)
    grid = measures.evaluate_grid(0.7, 0.05, np.linspace(0.0, 0.9, 5))
    deviations = measures.oracle_deviations(grid)
    assert sum(solved) == 2 * 5
    assert solved == [5, 5]  # one batched solve of rho, one of tau
    assert modes == [True, False]  # tau is solved for its eigenvalues only
    assert deviations.shape == (5, 3)
    assert deviations.max() <= 1e-12
    solved.clear()
    monkeypatch.setattr(measures, "_CHUNK_POINTS", 256)
    measures.oracle_deviations(measures.evaluate_grid(0.7, 0.05, np.linspace(0.0, 0.9, 300)))
    assert solved == [256, 256, 44, 44]  # two batched calls per chunk of 256


def test_oracle_solves_each_distinct_state_once(monkeypatch):
    # at nu = 0 the state does not depend on q, so a sweep in q is one state repeated
    from qfesim import qmatrix

    solved = []
    real = qmatrix._unchecked_eigen

    def counting(a, vectors=True):
        solved.append(len(a))
        return real(a, vectors)

    monkeypatch.setattr(qmatrix, "_unchecked_eigen", counting)
    grid = measures.evaluate_grid(0.7, 0.0, np.linspace(0.0, 0.999, 1000), cross_check=True)
    assert len(grid.q) == 1000
    assert solved == [1, 1]  # one rho and one tau for the whole sweep
    solved.clear()
    # runs of nu = 0 broken by nu > 0 points, and cut by the chunk ends
    nu = np.where(np.arange(2500) % 400 < 300, 0.0, 0.05)
    grid = measures.evaluate_grid(np.repeat([0.2, 0.9, 1.3], [900, 900, 700]), nu,
                                  np.tile(np.linspace(0.0, 0.99, 500), 5))
    whole = measures.oracle_deviations(grid)
    runs = [len(measures._run_starts(measures._x_state_real(*(col[chunk] for col in (
        grid.theta, grid.mu, grid.upsilon, grid.eta)))))
        for chunk in (slice(0, 1024), slice(1024, 2048), slice(2048, 2500))]
    assert solved == [runs[0], runs[0], runs[1], runs[1], runs[2], runs[2]]
    # each of the 600 nu > 0 points, and the seven nu = 0 stretches, cut twice by a change
    # of theta (at 900 and 1,800) and twice by a chunk end (at 1,024 and 2,048)
    assert np.count_nonzero(nu) == 600 and sum(runs) == 600 + 7 + 2 + 2
    for i in range(len(grid.q)):
        one = measures.oracle_deviations(measures.GridValues(*(col[i:i + 1] for col in grid)))
        assert one.tobytes() == whole[i:i + 1].tobytes()


@pytest.mark.parametrize("index", [1500, 2048])
@pytest.mark.parametrize("fault", ["unit trace", "positive semidefinite"])
def test_a_fault_inside_a_run_of_identical_states_names_its_first_point(index, fault):
    # at nu = 0 every state of the sweep is the same, so from index on the faulty states
    # are one run; the run is solved once and the error names its first point
    qs = np.linspace(0.0, 0.9, 3000)
    grid = measures.evaluate_grid(0.6, 0.0, qs)
    assert index > measures._CHUNK_POINTS
    eta, upsilon = grid.eta.copy(), grid.upsilon.copy()
    if fault == "unit trace":
        eta[index:] += 1e-6
    else:  # the same trace, one eigenvalue below the floor
        upsilon[index:] += eta[index:] + 1e-6
        eta[index:] = -1e-6
    with pytest.raises(ValueError) as error:
        measures.oracle_deviations(grid._replace(eta=eta, upsilon=upsilon))
    assert fault in str(error.value)
    assert str(error.value).endswith(f"at (theta, nu, q) = (0.6, 0.0, {float(qs[index])!r})")


def _oracle_peak_bytes(grid) -> int:
    import tracemalloc

    measures.oracle_deviations(grid)  # first-call costs stay out
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        measures.oracle_deviations(grid)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_oracle_deviations_peak_memory_of_one_chunk(monkeypatch):
    # real states stay float64 through validation and both solves, and tau forms no
    # eigenvectors; in complex arithmetic one chunk of 256 peaked at ~587 KB
    monkeypatch.setattr(measures, "_CHUNK_POINTS", 256)
    grid = measures.evaluate_grid(np.linspace(0.1, 1.4, 256), 0.05, np.linspace(0.0, 0.99, 256))
    assert len(grid.q) == measures._CHUNK_POINTS
    assert _oracle_peak_bytes(grid) <= 448 * 1024


def test_oracle_deviations_peak_memory_of_a_shipped_chunk():
    # the states are built in float64, never as a complex stack; with complex states
    # one chunk of 1,024 peaked at ~1,492 KB
    grid = measures.evaluate_grid(np.linspace(0.1, 1.4, 1024), 0.05, np.linspace(0.0, 0.99, 1024))
    assert len(grid.q) == measures._CHUNK_POINTS == 1024
    assert _oracle_peak_bytes(grid) <= 1400 * 1024


def test_oracle_deviations_do_not_depend_on_the_chunk(monkeypatch):
    # every state is solved on its own inside a chunk, so chunking changes no bit
    monkeypatch.setattr(measures, "_CHUNK_POINTS", 256)
    thetas = np.linspace(0.0, math.pi / 2, 15)
    grid = measures.evaluate_grid(thetas[:, None], np.array([0.0, 0.03, 0.09])[:, None, None],
                                  np.linspace(0.0, 0.9999, 13))
    assert len(grid.q) > 2 * measures._CHUNK_POINTS
    whole = measures.oracle_deviations(grid)
    for i in range(len(grid.q)):
        one = measures.oracle_deviations(measures.GridValues(*(col[i:i + 1] for col in grid)))
        assert one.tobytes() == whole[i:i + 1].tobytes()


@pytest.mark.parametrize("index, fault", [(300, "positive semidefinite"), (513, "unit trace")])
def test_oracle_failure_beyond_the_first_chunk_names_its_point(index, fault, monkeypatch):
    monkeypatch.setattr(measures, "_CHUNK_POINTS", 256)
    qs = np.linspace(0.0, 0.9, 600)
    assert index >= measures._CHUNK_POINTS
    grid = measures.evaluate_grid(0.6, 0.05, qs)
    eta, upsilon = grid.eta.copy(), grid.upsilon.copy()
    if fault == "unit trace":
        eta[index] += 1e-6
    else:  # move weight from eta to upsilon past zero: same trace, one negative eigenvalue
        upsilon[index] += eta[index] + 1e-6
        eta[index] = -1e-6
    bad = grid._replace(eta=eta, upsilon=upsilon)
    point = rf"{fault}.* at \(theta, nu, q\) = \(0\.6, 0\.05, {float(qs[index])!r}\)"
    with pytest.raises(ValueError, match=point):
        measures.oracle_deviations(bad)


def test_oracle_names_the_point_of_a_non_finite_state(monkeypatch):
    qs = np.linspace(0.0, 0.9, 600)
    grid = measures.evaluate_grid(0.6, 0.05, qs)
    assert np.count_nonzero(grid.mu == grid.mu[300]) == 1
    build = measures._x_state_real

    def nan_at_300(theta, mu, upsilon, eta):
        rho = build(theta, mu, upsilon, eta)
        rho[mu == grid.mu[300], 0, 3] = np.nan
        return rho

    monkeypatch.setattr(measures, "_CHUNK_POINTS", 256)
    monkeypatch.setattr(measures, "_x_state_real", nan_at_300)
    point = rf"finite at \(theta, nu, q\) = \(0\.6, 0\.05, {float(qs[300])!r}\)"
    with pytest.raises(ValueError, match=point):
        measures.oracle_deviations(grid)


def phased_x_states(phases, theta=0.6, nu=0.05, q=0.5):
    grid = measures.evaluate_grid(theta, nu, np.full(len(phases), q))
    rho = x_state_rho(grid.theta, grid.mu, grid.upsilon, grid.eta).copy()
    rho[:, 1, 2] *= np.exp(1j * np.asarray(phases))
    rho[:, 2, 1] = rho[:, 1, 2].conj()
    return grid, rho


def test_wootters_spectrum_of_a_real_state_takes_the_float64_route(monkeypatch):
    # as in oracle_deviations, a state with no imaginary part reaches _spin_flip with
    # float64 eigenvectors, so it skips the row-by-row scan for real W
    seen = []
    real = measures._spin_flip

    def recording(eig):
        seen.append(eig.eigenvectors.dtype)
        return real(eig)

    monkeypatch.setattr(measures, "_spin_flip", recording)
    rho = build_final_state(DetectorParams(theta=0.6, nu=0.05, q=0.5)).rho
    assert rho.dtype == np.complex128
    assert measures.wootters_spectrum(rho).tobytes() == measures.wootters_spectrum(rho.real).tobytes()
    assert seen == [np.float64, np.float64]


def test_complex_tau_fallback_in_a_mixed_batch(monkeypatch):
    from qfesim import qmatrix

    phases = np.array([0.0, 0.3, 0.0, 1.1, 2.0, 0.0])
    real_rows = phases == 0.0
    grid, rho = phased_x_states(phases)
    solved = []
    real = qmatrix._unchecked_eigen

    def recording(a, vectors=True):
        solved.append(np.array(a))
        return real(a, vectors)

    monkeypatch.setattr(qmatrix, "_unchecked_eigen", recording)  # the rho and tau solves
    r = measures.wootters_spectrum(rho)
    c = measures._wootters_concurrence(r)
    # rho, then the real taus as a stack, then tau+ tau of the complex ones
    assert [len(a) for a in solved] == [6, 3, 3]
    assert not solved[1].imag.any()
    np.testing.assert_allclose(c, grid.concurrence[0], rtol=0.0, atol=1e-12)
    alone = measures.wootters_spectrum(rho[real_rows])
    assert alone.tobytes() == r[real_rows].tobytes()
    # the real taus, formed in real arithmetic, against singular values from LAPACK;
    # a real state outside the X family also pins every sign of sy x sy
    a = np.random.default_rng(7).standard_normal((4, 4))
    generic = (a @ a.T / np.trace(a @ a.T))[None]
    for states, spectrum in ((rho[real_rows], r[real_rows]),
                             (generic, measures.wootters_spectrum(generic))):
        p, v = np.linalg.eigh(states)
        w = v * np.sqrt(np.maximum(p, 0.0))[:, None, :]
        tau = w.swapaxes(1, 2) @ measures.FLIP_OPERATOR @ w
        np.testing.assert_allclose(spectrum, np.linalg.svd(tau, compute_uv=False),
                                   rtol=0.0, atol=1e-13)
