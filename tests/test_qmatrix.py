import math
import tracemalloc

import numpy as np
import pytest

from qfesim import measures, qmatrix
from qfesim.detector import x_state_rho


def random_hermitian(rng, n=4):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g + g.conj().T) / 2.0


def random_density(rng, n=4):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_psd(rng, n=4):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return g.conj().T @ g


def reference_partial_trace(rho, subsystem):
    r = rho.reshape(2, 2, 2, 2)
    if subsystem == "A":
        return r[:, 0, :, 0] + r[:, 1, :, 1]
    return r[0, :, 0, :] + r[1, :, 1, :]


ANY_STATE = 0.9  # admits every 4x4 density matrix: its largest eigenvalue is at least 1/4


def reduced_a(rho, tolerance=measures._DEFAULT_PURITY_TOL):
    # the package's one partial trace: over B, of one validated 4x4 state; a tolerance
    # of ANY_STATE lifts the purity check and leaves the validated reduction alone
    return measures._pure_reduced_state(rho, tolerance)


def random_pure(rng, n=2):
    psi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    psi /= np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


def test_partial_trace_product_state():
    rng = np.random.default_rng(4)
    a, b = random_density(rng, 2), random_density(rng, 2)
    np.testing.assert_allclose(reduced_a(np.kron(a, b), tolerance=ANY_STATE), a, atol=1e-12)
    a, b = random_pure(rng), random_pure(rng)
    np.testing.assert_allclose(reduced_a(np.kron(a, b)), a, atol=1e-12)  # pure, as checked


def test_partial_trace_bell_state():
    psi = np.array([0.0, 1.0, 1.0, 0.0]) / math.sqrt(2.0)
    rho = np.outer(psi, psi.conj())
    np.testing.assert_allclose(reduced_a(rho), np.eye(2) / 2.0, atol=1e-15)


def test_partial_trace_joint_state_template():
    # X-shaped template reduces to diag(eta + 2 mu sin^2, 2 mu cos^2 + upsilon)
    theta = 0.7
    mu, upsilon, eta = 0.49, 0.013, 0.007
    s2, c2 = math.sin(theta) ** 2, math.cos(theta) ** 2
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = eta
    rho[1, 1] = 2 * mu * s2
    rho[2, 2] = 2 * mu * c2
    rho[1, 2] = rho[2, 1] = mu * math.sin(2 * theta)
    rho[3, 3] = upsilon
    reduced = reduced_a(rho, tolerance=ANY_STATE)
    np.testing.assert_allclose(
        reduced, np.diag([eta + 2 * mu * s2, 2 * mu * c2 + upsilon]), atol=1e-14
    )


def test_partial_trace_linear_and_trace_preserving():
    rng = np.random.default_rng(5)
    for _ in range(25):
        r1, r2 = random_density(rng), random_density(rng)
        w = rng.uniform(0.0, 1.0)
        mixed = w * r1 + (1.0 - w) * r2
        got = reduced_a(mixed, tolerance=ANY_STATE)
        expected = w * reference_partial_trace(r1, "A") + (1.0 - w) * reference_partial_trace(r2, "A")
        np.testing.assert_allclose(got, expected, atol=1e-12)
        assert abs(np.trace(got).real - 1.0) <= 1e-12


def test_partial_trace_rejects_non_density():
    with pytest.raises(ValueError, match="unit trace"):
        reduced_a(np.eye(4))
    bad = np.eye(4, dtype=complex) / 4.0
    bad[0, 1] = 1e-6
    with pytest.raises(ValueError, match="Hermitian"):
        reduced_a(bad, tolerance=ANY_STATE)
    with pytest.raises(ValueError, match=r"one 4x4 density matrix, got shape \(2, 2\)"):
        reduced_a(np.diag([1.0, 0.0]))  # a pure qubit, not a pair
    with pytest.raises(ValueError, match=r"got shape \(1, 4, 4\)"):
        reduced_a(np.eye(4)[None] / 4.0, tolerance=ANY_STATE)


def test_hermitian_eigen_diagonal_tie_order():
    w, v = qmatrix.hermitian_eigen(np.diag([3.0, 1.0, 4.0, 1.0]).astype(complex))
    np.testing.assert_array_equal(w, [4.0, 3.0, 1.0, 1.0])
    # ties keep diagonal order: the two unit eigenvalues map to e2 then e4
    np.testing.assert_allclose(np.abs(v[:, 2]), [0, 1, 0, 0], atol=1e-14)
    np.testing.assert_allclose(np.abs(v[:, 3]), [0, 0, 0, 1], atol=1e-14)


def test_hermitian_eigen_pauli_x():
    w, _ = qmatrix.hermitian_eigen(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
    np.testing.assert_allclose(w, [1.0, -1.0], atol=1e-14)


def test_hermitian_eigen_worked_state():
    # X template at theta=pi/4, nu=0.05, q=0.5: spectrum {2mu, eta, upsilon, 0}
    mu, upsilon, eta = 400 / 803, 1 / 803, 2 / 803
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = eta
    rho[1, 1] = rho[2, 2] = rho[1, 2] = rho[2, 1] = mu
    rho[3, 3] = upsilon
    w, _ = qmatrix.hermitian_eigen(rho)
    np.testing.assert_allclose(w, [2 * mu, eta, upsilon, 0.0], atol=1e-14)


@pytest.mark.parametrize("dim", [2, 4])
def test_hermitian_eigen_matches_lapack(dim):
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(250):
        h = random_hermitian(rng, dim)
        w, _ = qmatrix.hermitian_eigen(h)
        worst = max(worst, np.abs(np.sort(w) - np.linalg.eigvalsh(h)).max())
    assert worst <= 1e-12


def test_hermitian_eigen_invariants():
    rng = np.random.default_rng(7)
    for _ in range(100):
        h = random_hermitian(rng)
        w, v = qmatrix.hermitian_eigen(h)
        assert np.all(np.diff(w) <= 0.0)
        assert np.abs(v.conj().T @ v - np.eye(4)).max() <= 1e-10
        assert np.abs((v * w) @ v.conj().T - h).max() <= 1e-10
        assert abs(w.sum() - np.trace(h).real) <= 1e-10
        for k in range(4):
            assert np.linalg.norm(h @ v[:, k] - w[k] * v[:, k]) <= 1e-10


def test_hermitian_eigen_rejects_non_hermitian():
    m = np.eye(4, dtype=complex)
    m[0, 1] = 1e-6
    with pytest.raises(ValueError, match="Hermitian"):
        qmatrix.hermitian_eigen(m)


def test_hermitian_eigen_rejects_bad_shape():
    with pytest.raises(ValueError, match="square"):
        qmatrix.hermitian_eigen(np.zeros((2, 4)))
    with pytest.raises(ValueError, match="dimensions are 2 and 4"):
        qmatrix.hermitian_eigen(np.eye(3))


def test_hermitian_eigen_rejects_non_finite():
    m = np.eye(4, dtype=complex)
    m[0, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        qmatrix.hermitian_eigen(m)


def test_matrix_sqrt_identity():
    np.testing.assert_allclose(qmatrix.matrix_sqrt_psd(np.eye(4)), np.eye(4), atol=1e-14)


def test_matrix_sqrt_diagonal():
    np.testing.assert_allclose(
        qmatrix.matrix_sqrt_psd(np.diag([4.0, 9.0, 0.0, 1.0]).astype(complex)),
        np.diag([2.0, 3.0, 0.0, 1.0]),
        atol=1e-14,
    )


def test_matrix_sqrt_random_psd():
    rng = np.random.default_rng(8)
    for _ in range(100):
        m = random_psd(rng)
        s = qmatrix.matrix_sqrt_psd(m)
        assert np.abs(s - s.conj().T).max() <= 1e-13
        assert np.abs(s @ s - m).max() <= 1e-9


def test_matrix_sqrt_rejects_indefinite():
    with pytest.raises(ValueError, match="not positive semidefinite"):
        qmatrix.matrix_sqrt_psd(np.diag([1.0, 1.0, 1.0, -1e-6]).astype(complex))


def test_density_eigen_accepts_valid():
    rng = np.random.default_rng(9)
    qmatrix.density_eigen(random_density(rng))


def test_eigen_deterministic():
    rng = np.random.default_rng(10)
    h = random_hermitian(rng)
    w1, v1 = qmatrix.hermitian_eigen(h)
    w2, v2 = qmatrix.hermitian_eigen(h)
    np.testing.assert_array_equal(w1, w2)
    np.testing.assert_array_equal(v1, v2)


# --- stacks ---------------------------------------------------------------------

from hypothesis import given, settings
from hypothesis import strategies as st

ENTRIES = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)


# pivots on both sides of the 1e-18 below which a matrix is not rotated in a round
PIVOTS = st.one_of(ENTRIES, st.sampled_from([0.0, -0.0, 5e-324, -1e-19, 1e-18, 2e-18]))


def x_state(draw, n):
    """Random diagonal, one coherence at (1, 2) or (0, 3) (at (0, 1) for n = 2), signed zeros."""
    m = np.diag(draw(st.lists(st.one_of(ENTRIES, st.just(-0.0)), min_size=n, max_size=n)))
    signs = np.array(draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=n, max_size=n)))
    m = m.astype(complex) * np.outer(signs, signs)  # -0.0 at symmetric places off the diagonal
    i, j = draw(st.sampled_from([(1, 2), (0, 3)] if n == 4 else [(0, 1)]))
    coherence = complex(draw(PIVOTS), draw(PIVOTS) if draw(st.booleans()) else 0.0)
    m[i, j], m[j, i] = coherence, coherence.conjugate()
    return m


@st.composite
def hermitian_stacks(draw):
    n = draw(st.sampled_from([2, 4]))
    stack = []
    for kind in draw(st.lists(st.sampled_from(["diagonal", "real", "complex", "x_state"]),
                              min_size=1, max_size=12)):
        re = np.array(draw(st.lists(ENTRIES, min_size=n * n, max_size=n * n))).reshape(n, n)
        im = np.array(draw(st.lists(ENTRIES, min_size=n * n, max_size=n * n))).reshape(n, n)
        if kind == "diagonal":  # converged before the first sweep
            stack.append(np.diag(np.diag(re)).astype(complex))
        elif kind == "x_state":  # dead rounds: every pivot but one is zero
            stack.append(x_state(draw, n))
        else:
            g = re + 1j * im if kind == "complex" else re.astype(complex)
            stack.append((g + g.conj().T) / 2.0)
    return np.array(stack)


@settings(max_examples=60, deadline=None)
@given(hermitian_stacks())
def test_hermitian_eigen_stack_equals_each_matrix_bit_for_bit(stack):
    # a matrix's result cannot depend on its neighbours, so no chunk size moves a digit
    w, v = qmatrix.hermitian_eigen(stack)
    assert w.shape == stack.shape[:2] and v.shape == stack.shape
    for i, matrix in enumerate(stack):
        wi, vi = qmatrix.hermitian_eigen(matrix)
        assert wi.tobytes() == w[i].tobytes()
        assert vi.tobytes() == v[i].tobytes()


@settings(max_examples=60, deadline=None)
@given(hermitian_stacks())
def test_real_and_eigenvalue_only_paths_give_the_public_bits(stack):
    # the real part of a Hermitian stack is exactly symmetric
    real = np.ascontiguousarray(stack.real)
    w, v = qmatrix.hermitian_eigen(real)
    for matrices in (real, real.astype(complex)):  # a real input is never made complex
        assert qmatrix.hermitian_eigenvalues(matrices).tobytes() == w.tobytes()
        wc, vc = qmatrix.hermitian_eigen(matrices)
        assert wc.tobytes() == w.tobytes() and vc.tobytes() == v.tobytes()
    rw, rv = qmatrix._unchecked_eigen(real)
    assert rv.dtype == np.float64 and rv.flags.c_contiguous
    assert rw.tobytes() == w.tobytes() and rv.tobytes() == v.real.tobytes()
    assert not v.imag.any()
    assert qmatrix.hermitian_eigenvalues(stack).tobytes() == \
        qmatrix.hermitian_eigen(stack).eigenvalues.tobytes()


@settings(max_examples=60, deadline=None)
@given(hermitian_stacks())
def test_density_eigenvalues_are_the_density_eigen_bits(stack):
    # same checks, sweeps and PSD floor without eigenvectors; the real part of a
    # density matrix is one too
    with np.errstate(all="ignore"):
        gram = stack @ stack  # positive semidefinite up to roundoff
        rho = (gram + gram.conj().swapaxes(1, 2)) / 2.0
        rho /= np.trace(rho, axis1=1, axis2=2).real[:, None, None]
    for states in (rho, np.ascontiguousarray(rho.real), rho[0]):
        try:
            w = qmatrix.density_eigen(states).eigenvalues
        except ValueError as error:
            with pytest.raises(ValueError) as again:
                qmatrix.density_eigenvalues(states)
            assert str(again.value) == str(error)
            continue
        assert qmatrix.density_eigenvalues(states).tobytes() == w.tobytes()


def test_x_states_among_dense_matrices_bit_for_bit(monkeypatch):
    # the sweeps rotate all matrices in place, a gathered subset or none, per round;
    # whichever path a round takes, each matrix keeps the bits it gets alone.  Half the
    # real stack is dense, so a rule that rotated a mostly-live stack whole would turn
    # a -0.0 on the diagonal of a flipped state into +0.0
    grid = measures.evaluate_grid(np.array([0.0, 0.3, math.pi / 4])[:, None],
                                  np.array([0.0, 0.05])[:, None, None], np.array([0.0, 0.5, 0.99]))
    states = x_state_rho(grid.theta, grid.mu, grid.upsilon, grid.eta)
    assert len(states) == 18
    phased = states[::2].copy()  # complex coherences
    phased[:, 1, 2] *= np.exp(0.7j)
    phased[:, 2, 1] = phased[:, 1, 2].conj()
    rng = np.random.default_rng(13)
    dense = [random_hermitian(rng).real.astype(complex) for _ in range(16)]
    flipped = -states[6:, [1, 0, 3, 2]][:, :, [1, 0, 3, 2]]  # coherence at (0, 3), -0.0 zeros
    stack = np.array([*phased, *states[:6], dense[0], *flipped, *dense[1:]])
    rounds = []  # per sweep: matrices in it, and the matrices rotated in each rotating round
    sweep, rotate = qmatrix._sweep, qmatrix._rotate

    def recording_sweep(hv, n, done, *rest):
        rounds.append((hv.shape[-1], []))
        sweep(hv, n, done, *rest)

    def recording_rotate(hv, *rest):
        rounds[-1][1].append(hv.shape[-1])
        rotate(hv, *rest)

    monkeypatch.setattr(qmatrix, "_sweep", recording_sweep)
    monkeypatch.setattr(qmatrix, "_rotate", recording_rotate)
    w, v = qmatrix.hermitian_eigen(stack)
    assert any(size in rotated for size, rotated in rounds)  # every matrix, in place
    assert any(0 < k < size for size, rotated in rounds for k in rotated)  # a gathered subset
    assert any(len(rotated) < len(qmatrix._ROUNDS[4]) for _, rotated in rounds)  # a skipped round
    for i, matrix in enumerate(stack):
        wi, vi = qmatrix.hermitian_eigen(matrix)
        assert wi.tobytes() == w[i].tobytes()
        assert vi.tobytes() == v[i].tobytes()


def test_density_eigen_temporaries_stay_within_five_inputs():
    grid = measures.evaluate_grid(np.linspace(0.1, 1.4, 256), 0.05, 0.5)
    rho = x_state_rho(grid.theta, grid.mu, grid.upsilon, grid.eta)
    assert rho.nbytes == 64 * 1024
    qmatrix.density_eigen(rho)  # first-call costs stay out
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        qmatrix.density_eigen(rho)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 5 * rho.nbytes


def test_real_eigenpairs_of_the_check_grid_are_accurate():
    # every check-grid state is real, so rho is solved in float64 with float64 eigenvectors
    thetas = np.linspace(0.0, math.pi / 2.0, 33)
    worst_residual = worst_orthogonality = 0.0
    for nu in (0.0, 0.01, 0.05, 0.1):
        grid = measures.evaluate_grid(thetas[:, None], nu, np.linspace(0.0, 0.999, 100))
        rho = x_state_rho(grid.theta, grid.mu, grid.upsilon, grid.eta)
        _, (w, v), fault = qmatrix._solve(rho, True)
        assert fault is None and v.dtype == np.float64
        residual = np.linalg.norm(rho.real @ v - v * w[:, None, :], axis=1)
        orthogonality = np.abs(v.swapaxes(1, 2) @ v - np.eye(4))
        worst_residual = max(worst_residual, residual.max())
        worst_orthogonality = max(worst_orthogonality, orthogonality.max())
    assert worst_residual <= 1e-15
    assert worst_orthogonality <= 1e-15


def test_hermitian_eigen_stack_matches_lapack():
    rng = np.random.default_rng(11)
    stack = np.array([random_hermitian(rng) for _ in range(200)])
    w, v = qmatrix.hermitian_eigen(stack)
    np.testing.assert_allclose(w, np.linalg.eigvalsh(stack)[:, ::-1], rtol=0.0, atol=1e-12)
    assert np.abs(stack @ v - v * w[:, None, :]).max() <= 1e-10


def test_empty_stack():
    w, v = qmatrix.hermitian_eigen(np.zeros((0, 4, 4)))
    assert w.shape == (0, 4) and v.shape == (0, 4, 4)


def test_stack_errors_name_the_matrix():
    stack = np.array([np.eye(4) / 4.0] * 3, dtype=complex)
    stack[2, 0, 1] = 1e-6
    with pytest.raises(ValueError, match=r"Hermitian.*\(matrix 2 of the stack\)"):
        qmatrix.hermitian_eigen(stack)
    with pytest.raises(ValueError, match=r"Hermitian.*\(matrix 2 of the stack\)"):
        qmatrix.density_eigen(stack)
    stack[2, 0, 1] = 0.0
    stack[0, 0, 0] += 1e-6
    with pytest.raises(ValueError, match=r"unit trace.*\(matrix 0 of the stack\)"):
        qmatrix.density_eigen(stack)
    stack[0, 0, 0] -= 1e-6
    stack[1, 3, 3] = np.nan
    for solve in (qmatrix.density_eigen, qmatrix.hermitian_eigen):
        with pytest.raises(ValueError, match=r"finite \(matrix 1 of the stack\)"):
            solve(stack)
    stack[1] = np.diag([0.5, 0.5, 0.5, -0.5])
    for solve in (qmatrix.density_eigen, qmatrix.density_eigenvalues):
        with pytest.raises(ValueError, match=r"positive semidefinite.*\(matrix 1 of the stack\)"):
            solve(stack)
        with pytest.raises(ValueError, match="positive semidefinite") as one:
            solve(stack[1])
        assert "of the stack" not in str(one.value)


# --- the one validated density solve ----------------------------------------------


def test_density_eigen_one_matrix_is_the_stack_of_one_bit_for_bit():
    rng = np.random.default_rng(12)
    real = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    real[1, 2] = real[2, 1] = 0.2
    for rho in (random_density(rng), real):
        w, v = qmatrix.density_eigen(rho)
        ws, vs = qmatrix.density_eigen(rho[None])
        assert w.shape == (4,) and v.shape == (4, 4)
        assert ws.shape == (1, 4) and vs.shape == (1, 4, 4)
        assert w.tobytes() == ws[0].tobytes() and v.tobytes() == vs[0].tobytes()
        hw, hv = qmatrix.hermitian_eigen(rho)
        assert w.tobytes() == hw.tobytes() and v.tobytes() == hv.tobytes()
        assert qmatrix.density_eigenvalues(rho).tobytes() == w.tobytes()
        assert qmatrix.density_eigenvalues(rho[None]).tobytes() == ws.tobytes()


def test_check_density_matrix_is_gone():
    # density_eigen replaces it; no caller may keep a check without the PSD floor
    with pytest.raises(ImportError):
        from qfesim.qmatrix import check_density_matrix  # noqa: F401


# --- gathered sub-stacks and converged matrices ------------------------------------


def jacobi_path_stack(dtype):
    """Matrices converged before the first sweep, after one sweep and after several.

    A near-diagonal matrix is converged from the start; an X-state with its one
    coherence at (1, 2) has no live pivot in the first two rounds of a sweep, so
    those rounds gather the dense matrices, and it converges after one sweep; the
    dense matrices take several.  In the complex stack every matrix has an
    imaginary part, so the stack is one complex solve.
    """
    phase = 1.0 if dtype is float else np.exp(0.7j)
    near = np.diag([0.5, 0.25, 0.125, 0.125]).astype(dtype)
    near[0, 1], near[1, 0] = 1e-15 * phase, 1e-15 * np.conj(phase)
    x = np.diag([0.4, 0.3, 0.2, 0.1]).astype(dtype)
    x[1, 2], x[2, 1] = 0.1 * phase, 0.1 * np.conj(phase)
    rng = np.random.default_rng(14)
    dense = [random_hermitian(rng) for _ in range(3)]
    if dtype is float:
        dense = [m.real for m in dense]
    return np.array([x, dense[0], near, x * 0.5, dense[1], near * 2.0, dense[2], x])


def gathered_columns(sub: np.ndarray, full: np.ndarray) -> list:
    """The matrices (last axis) of ``full`` that ``sub`` gathers, matched bit for bit in order."""
    if sub is full:
        return list(range(full.shape[-1]))
    columns, k = [], 0
    for j in range(sub.shape[-1]):
        while full[..., k].tobytes() != sub[..., j].tobytes():
            k += 1
        columns.append(k)
        k += 1
    return columns


@pytest.mark.parametrize("dtype", [float, complex])
def test_gathered_and_retired_matrices_keep_their_lone_bits(dtype, monkeypatch):
    # the sweeps see one array with the matrix axis innermost and contiguous, whole or
    # gathered for a round; a matrix converged at the start of a sweep is live on no
    # pivot of it, and each matrix's bits are still the ones it gets alone
    stack = jacobi_path_stack(dtype)
    sweeps = []  # per sweep: [H; V], the converged matrices, and each round's live mask
    sweep, rotate = qmatrix._sweep, qmatrix._rotate

    def recording_sweep(hv, n, done, *rest):
        assert hv.strides[-1] == hv.itemsize
        sweeps.append((hv, done.copy(), []))
        sweep(hv, n, done, *rest)

    def recording_rotate(hv, n, pivots, a, r, live, *rest):
        assert all(x.strides[-1] == x.itemsize for x in (hv, a, r, live))
        full, _, masks = sweeps[-1]
        mask = np.zeros((len(live), full.shape[-1]), dtype=bool)  # per pivot, in stack rows
        mask[:, gathered_columns(hv, full)] = live
        masks.append((hv.shape[-1], mask))
        rotate(hv, n, pivots, a, r, live, *rest)

    monkeypatch.setattr(qmatrix, "_sweep", recording_sweep)
    monkeypatch.setattr(qmatrix, "_rotate", recording_rotate)
    for solve in (qmatrix.hermitian_eigen, qmatrix.hermitian_eigenvalues):
        sweeps.clear()
        result = solve(stack)
        assert all(full.shape[-1] == len(stack) for full, _, _ in sweeps)  # never shrunk
        assert np.flatnonzero(sweeps[0][1]).tolist() == [2, 5]  # the near-diagonal ones
        assert np.flatnonzero(sweeps[1][1]).tolist() == [0, 2, 3, 5, 7]  # and the X-states
        for _, done, masks in sweeps:
            assert masks and not any(mask[:, done].any() for _, mask in masks)
        assert not any(mask[:, [2, 5]].any() for _, _, masks in sweeps for _, mask in masks)
        assert any(0 < k < len(stack) for _, _, masks in sweeps for k, _ in masks)  # gathered
        for i, matrix in enumerate(stack):
            alone = solve(matrix)
            pairs = zip(result, alone) if isinstance(alone, tuple) else [(result, alone)]
            assert all(part[i].tobytes() == lone.tobytes() for part, lone in pairs)


def first_round_only(dtype):
    """A matrix live in the first round of a sweep only, with -0.0 wherever it is zero.

    Its one coupling, at (0, 1), is rotated away in the first round; every other
    off-diagonal entry and the (2, 2) entry are -0.0.  A masked rotation with a zero
    angle still forms -0.0 + 0.0, so rotating it in a later round would turn some of
    those zeros into +0.0.
    """
    zero = -0.0 if dtype is float else complex(-0.0, -0.0)
    m = np.full((4, 4), zero, dtype=dtype)
    m[0, 0], m[1, 1], m[2, 2], m[3, 3] = 0.5, 0.25, -0.0, 0.125
    m[0, 1] = 0.3 if dtype is float else 0.3 * np.exp(0.7j)
    m[1, 0] = np.conj(m[0, 1])
    return m


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("dense_count, dead_count", [(5, 3), (2, 5)])
def test_a_partly_live_round_keeps_the_lone_bits_in_place_or_gathered(
        dtype, dense_count, dead_count, monkeypatch):
    # rounds 2 and 3 of the first sweep rotate the dense matrices only: with most of
    # the stack live they rotate the whole stack in place and put the others back,
    # with few live they gather the live ones; the bits are each matrix's own either way
    rng = np.random.default_rng(19)
    dense = [random_hermitian(rng) for _ in range(dense_count)]
    if dtype is float:
        dense = [m.real for m in dense]
    dead = first_round_only(dtype)
    stack = np.array(dense + [dead] * dead_count)[rng.permutation(dense_count + dead_count)]
    rounds = []  # (matrices in the sweep, matrices rotated) per rotating round, in order
    sweep, rotate = qmatrix._sweep, qmatrix._rotate

    def recording_sweep(hv, n, done, *rest):
        rounds.append((hv.shape[-1], []))
        sweep(hv, n, done, *rest)

    def recording_rotate(hv, *rest):
        rounds[-1][1].append(hv.shape[-1])
        rotate(hv, *rest)

    monkeypatch.setattr(qmatrix, "_sweep", recording_sweep)
    monkeypatch.setattr(qmatrix, "_rotate", recording_rotate)
    size = len(stack)
    later = size if dense_count > dead_count else dense_count  # in place, or gathered
    for solve in (qmatrix.hermitian_eigen, qmatrix.hermitian_eigenvalues):
        rounds.clear()
        result = solve(stack)
        assert rounds[0] == (size, [size, later, later])
        results = result if isinstance(result, tuple) else (result,)
        for i, matrix in enumerate(stack):
            alone = solve(matrix)
            alone = alone if isinstance(alone, tuple) else (alone,)
            assert all(part[i].tobytes() == lone.tobytes() for part, lone in zip(results, alone))
    w = qmatrix.hermitian_eigenvalues(dead)
    assert np.signbit(w).tolist() == [False, False, False, True]  # the -0.0 is an eigenvalue


def dead_beside_live(dtype):
    """A matrix live on (0, 1) and dead on (2, 3) in the first round, with -0.0 in the dead pair.

    Its coupling at (0, 1) is rotated away in the first round, beside the
    dead pair (2, 3).  The (3, 3) entry and every off-diagonal entry of
    columns 2 and 3 are -0.0.  A zero-angle rotation of the dead pair forms
    a_33 + 0.0, which would turn that -0.0, an eigenvalue, into +0.0.
    """
    zero = -0.0 if dtype is float else complex(-0.0, -0.0)
    m = np.full((4, 4), zero, dtype=dtype)
    m[0, 0], m[1, 1], m[2, 2] = 0.5, 0.25, 0.125
    m[0, 1] = 0.3 if dtype is float else 0.3 * np.exp(0.7j)
    m[1, 0] = np.conj(m[0, 1])
    return m


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("dense_count", [1, 6])
def test_a_dead_pivot_beside_a_live_one_keeps_its_bits(dtype, dense_count):
    # each pivot is rotated only in the matrices where it is live, so the dead pair of
    # the round keeps its -0.0, alone, rotated in place among dense matrices (six of
    # them) or gathered with one
    m = dead_beside_live(dtype)
    w, v = qmatrix.hermitian_eigen(m)
    assert np.signbit(w).tolist() == [False, False, False, True]
    assert qmatrix.hermitian_eigenvalues(m).tobytes() == w.tobytes()
    rng = np.random.default_rng(23)
    dense = [random_hermitian(rng) for _ in range(dense_count)]
    if dtype is float:
        dense = [d.real for d in dense]
    stack = np.array([*dense[:1], m, *dense[1:], m, m])
    ws, vs = qmatrix.hermitian_eigen(stack)
    for i in (1, len(stack) - 2, len(stack) - 1):
        assert ws[i].tobytes() == w.tobytes() and vs[i].tobytes() == v.tobytes()
    assert qmatrix.hermitian_eigenvalues(stack).tobytes() == ws.tobytes()


def test_an_x_state_chunk_mixes_one_column_pair_per_rotated_round(monkeypatch):
    # an X-state has one live pivot, (1, 2), in the third round of its first sweep; its
    # (0, 3) pair beside it is dead, and its columns are left out of the mix
    thetas = np.linspace(0.0, math.pi / 2.0, 33)
    grid = measures.evaluate_grid(thetas[:, None], 0.05, np.linspace(0.0, 0.999, 100))
    rho = measures._x_state_real(grid.theta[:1024], grid.mu[:1024], grid.upsilon[:1024],
                                 grid.eta[:1024])
    pairs = []  # column pairs per mix of the columns of [H; V], shape (parts, 8, pairs, N)
    mix = qmatrix._mix

    def recording(x, y, *rest):
        if x.shape[1] == 8:
            pairs.append(x.shape[2])
        mix(x, y, *rest)

    monkeypatch.setattr(qmatrix, "_mix", recording)
    _, eig, fault = qmatrix._solve(rho, True)
    assert fault is None
    assert pairs == [1]


# --- where a faulty stack is named ----------------------------------------------

# the messages of each fault, as density_eigen and as hermitian_eigen give them
FAULTS = {
    "non-finite": ("matrix entries must be finite", "matrix entries must be finite"),
    "non-Hermitian": ("density matrix must be Hermitian: max |M - M+| = 1.000e-06",
                      "matrix must be Hermitian within 1e-12: max |M - M+| = 1.000e-06"),
    "off unit trace": ("density matrix must have unit trace, got (1.0009765625+0j)", None),
    "below the PSD floor": ("density matrix must be positive semidefinite: "
                            "smallest eigenvalue -2.500e-01", None),
}


def faulty(states: np.ndarray, kind: str) -> np.ndarray:
    """``states`` with the fault ``kind`` in matrices 1 and 3, the one in matrix 3 larger."""
    states = states.copy()
    for m, larger in ((states[1], False), (states[3], True)):
        if kind == "non-finite":
            m[3, 3] = np.inf if larger else np.nan
        elif kind == "non-Hermitian":
            m[0, 1] += 1e-3 if larger else 1e-6
        elif kind == "off unit trace":
            m[0, 0] += 2.0**-8 if larger else 2.0**-10
        else:  # unit trace, one eigenvalue below the floor
            m[...] = np.diag([0.75, 0.5, 0.25, -0.5] if larger else [0.5, 0.5, 0.25, -0.25])
    return states


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("kind", FAULTS)
def test_a_stack_with_two_faults_names_the_first(kind, dtype):
    rho = np.diag([0.5, 0.25, 0.125, 0.125]).astype(dtype)
    rho[1, 2] = 0.125 if dtype is float else 0.125 + 0.0625j
    rho[2, 1] = np.conj(rho[1, 2])
    stack = faulty(np.array([rho] * 4), kind)
    density_reason, hermitian_reason = FAULTS[kind]
    for solve in (qmatrix.density_eigen, qmatrix.density_eigenvalues):
        with pytest.raises(ValueError) as error:
            solve(stack)
        assert str(error.value) == density_reason + " (matrix 1 of the stack)"
    for solve in (qmatrix.hermitian_eigen, qmatrix.hermitian_eigenvalues):
        if hermitian_reason is None:  # trace and PSD floor are density-matrix rules
            solve(stack)
            continue
        with pytest.raises(ValueError) as error:
            solve(stack)
        assert str(error.value) == hermitian_reason + " (matrix 1 of the stack)"


@pytest.mark.parametrize("kind", FAULTS)
def test_an_oracle_chunk_with_two_faults_names_the_first_point(kind, monkeypatch):
    grid = measures.evaluate_grid(0.6, 0.05, np.array([0.1, 0.2, 0.3, 0.4]))
    build = measures._x_state_real
    monkeypatch.setattr(measures, "_x_state_real", lambda *weights: faulty(build(*weights), kind))
    with pytest.raises(ValueError) as error:
        measures.oracle_deviations(grid)
    assert str(error.value) == FAULTS[kind][0] + " at (theta, nu, q) = (0.6, 0.05, 0.2)"
