import math

import numpy as np
import pytest

from qfesim import qmatrix


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


def test_partial_trace_product_state():
    rng = np.random.default_rng(4)
    a = random_density(rng, 2)
    b = random_density(rng, 2)
    rho = np.kron(a, b)
    np.testing.assert_allclose(qmatrix.partial_trace(rho, "A"), a, atol=1e-12)
    np.testing.assert_allclose(qmatrix.partial_trace(rho, "B"), b, atol=1e-12)


def test_partial_trace_bell_state():
    psi = np.array([0.0, 1.0, 1.0, 0.0]) / math.sqrt(2.0)
    rho = np.outer(psi, psi.conj())
    for side in ("A", "B"):
        np.testing.assert_allclose(
            qmatrix.partial_trace(rho, side), np.eye(2) / 2.0, atol=1e-15
        )


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
    reduced = qmatrix.partial_trace(rho, "A")
    np.testing.assert_allclose(
        reduced, np.diag([eta + 2 * mu * s2, 2 * mu * c2 + upsilon]), atol=1e-14
    )


def test_partial_trace_linear_and_trace_preserving():
    rng = np.random.default_rng(5)
    for _ in range(25):
        r1, r2 = random_density(rng), random_density(rng)
        w = rng.uniform(0.0, 1.0)
        mixed = w * r1 + (1.0 - w) * r2
        got = qmatrix.partial_trace(mixed, "B")
        expected = w * reference_partial_trace(r1, "B") + (1.0 - w) * reference_partial_trace(r2, "B")
        np.testing.assert_allclose(got, expected, atol=1e-12)
        assert abs(np.trace(got).real - 1.0) <= 1e-12


def test_partial_trace_rejects_non_density():
    with pytest.raises(ValueError, match="unit trace"):
        qmatrix.partial_trace(np.eye(4), "A")
    bad = np.eye(4, dtype=complex) / 4.0
    bad[0, 1] = 1e-6
    with pytest.raises(ValueError, match="Hermitian"):
        qmatrix.partial_trace(bad, "A")
    with pytest.raises(ValueError, match="subsystem"):
        qmatrix.partial_trace(np.eye(4) / 4.0, "C")


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


def test_check_density_matrix_accepts_valid():
    rng = np.random.default_rng(9)
    qmatrix.check_density_matrix(random_density(rng))


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


@st.composite
def hermitian_stacks(draw):
    n = draw(st.sampled_from([2, 4]))
    stack = []
    for kind in draw(st.lists(st.sampled_from(["diagonal", "real", "complex"]), min_size=1,
                              max_size=12)):
        re = np.array(draw(st.lists(ENTRIES, min_size=n * n, max_size=n * n))).reshape(n, n)
        im = np.array(draw(st.lists(ENTRIES, min_size=n * n, max_size=n * n))).reshape(n, n)
        if kind == "diagonal":  # converged before the first sweep
            stack.append(np.diag(np.diag(re)).astype(complex))
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
        qmatrix.check_density_matrix(stack)
    stack[2, 0, 1] = 0.0
    stack[1] = np.diag([0.5, 0.5, 0.5, -0.5])
    with pytest.raises(ValueError, match=r"positive semidefinite.*\(matrix 1 of the stack\)"):
        qmatrix.check_density_matrix(stack)
