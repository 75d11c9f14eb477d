"""Entanglement measures and the entanglement fluctuation.

Two routes to the measures are kept deliberately separate:

* the closed forms of the X-shaped joint state produced by
  :mod:`qfesim.detector`, evaluated for a whole grid of points at once by
  :func:`evaluate_grid` (:func:`concurrence_analytic` is the one-state
  form);
* the generic matrix route: :func:`concurrence_numeric` runs the spin-flip
  construction C = max(0, r1 - r2 - r3 - r4) with r_i the descending
  eigenvalues of R = sqrt(sqrt(rho) rho~ sqrt(rho)),
  rho~ = (sy x sy) conj(rho) (sy x sy), and :func:`von_neumann_entropy`
  takes the entropy of a Jacobi spectrum.  :func:`wootters_spectrum` also
  takes a stack of states.

The two must agree to 1e-9; ``evaluate_grid(..., cross_check=True)``
enforces that per point for the concurrence and the entropy.  The check
(:func:`oracle_deviations`) rebuilds the states 256 at a time, validates
each chunk once and makes two batched Jacobi solves per chunk, so two
solved matrices per point.
Entropies and fluctuations are in bits.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .detector import JointState, _point_name, weights_grid, x_state_rho
from .qmatrix import (
    EIGENVALUE_FLOOR,
    EigenDecomposition,
    _density_fault,
    _in_stack,
    _psd_fault,
    check_density_matrix,
    hermitian_eigen,
    partial_trace,
)

_SIGMA_Y = np.array([[0.0, -1j], [1j, 0.0]])
FLIP_OPERATOR = np.kron(_SIGMA_Y, _SIGMA_Y)
_REAL_FLIP = FLIP_OPERATOR.real  # sy x sy is real

RATIO_THRESHOLD = 1e-12
CROSS_CHECK_TOL = 1e-9
_DEFAULT_PURITY_TOL = 1e-6
_CHUNK_POINTS = 256  # states per batched Jacobi solve in the oracle; bounds peak memory


class CrossCheckError(RuntimeError):
    """A closed form and the matrix route disagree beyond tolerance."""


class GridValues(NamedTuple):
    """Weights and measures of evaluated points, one array per CSV column.

    ``ratio`` is NaN wherever the concurrence is at or below 1e-12.
    """

    q: np.ndarray
    theta: np.ndarray
    nu: np.ndarray
    mu: np.ndarray
    upsilon: np.ndarray
    eta: np.ndarray
    concurrence: np.ndarray
    entropy: np.ndarray
    qfe: np.ndarray
    ratio: np.ndarray


def _log2(x) -> np.ndarray:
    """``math.log2`` elementwise.

    numpy's log2 differs from libm's in the last bit for about two inputs
    in a thousand.  The peak search's golden-section path, and so its
    printed location, turns on last-bit comparisons near the flat top, so
    the fluctuation keeps the bits of the scalar formula.
    """
    x = np.asarray(x, dtype=float)
    return np.fromiter(map(math.log2, x.ravel().tolist()), float, x.size).reshape(x.shape)


def _entropy_bits(probabilities) -> np.ndarray:
    """-sum p log2 p over the last axis, p clipped to [0, 1] and 0 log 0 = 0.

    Subtracting from +0.0 makes a pure spectrum give 0.0, never -0.0.
    """
    p = np.clip(probabilities, 0.0, 1.0)
    return 0.0 - (p * np.log2(np.where(p > 0.0, p, 1.0))).sum(axis=-1)


def _x_concurrence(theta, mu, upsilon, eta):
    """max(0, 2 mu |sin 2theta| - 2 sqrt(eta upsilon)), clamped to [0, 1]."""
    s = np.sin(theta)
    c = np.cos(theta)
    value = 2.0 * mu * np.abs(2.0 * s * c) - 2.0 * np.sqrt(eta * upsilon)
    return np.minimum(1.0, np.maximum(0.0, value))


def _x_spin_flip_squares(theta, mu, upsilon, eta) -> np.ndarray:
    """{4 mu^2 sin^2(2 theta), eta upsilon, eta upsilon, 0} along a last axis, descending."""
    s = np.sin(theta)
    c = np.cos(theta)
    big = (2.0 * mu * (2.0 * s * c)) ** 2
    cross = eta * upsilon
    lam = np.stack(np.broadcast_arrays(big, cross, cross, 0.0), axis=-1)
    return -np.sort(-lam, axis=-1)


def _qfe_and_ratio(c):
    """Fluctuation, and QFE/C (NaN where undefined), of concurrences in [0, 1]."""
    c = np.asarray(c, dtype=float)
    defined = c > RATIO_THRESHOLD
    safe = np.where(defined, c, 1.0)
    root = np.sqrt(np.maximum(0.0, 1.0 - safe * safe))
    qfe = np.where(defined, safe * _log2((1.0 + root) / safe), 0.0)
    return qfe, np.where(defined, qfe / safe, np.nan)


def evaluate_grid(theta, nu, q, *, cross_check: bool = False) -> GridValues:
    """Weights, concurrence, entropy, fluctuation and ratio at every point.

    ``theta``, ``nu`` and ``q`` are scalars or arrays that broadcast
    together; the result holds 1-D arrays in that broadcast order.
    Everything is closed form.  The entropy comes from the X-state
    spectrum {eta, upsilon, 2 mu, 0}: the coherent block
    [[2 mu s^2, mu sin 2theta], [mu sin 2theta, 2 mu c^2]] has eigenvalues
    {2 mu, 0}.

    With ``cross_check`` each point's concurrence and entropy are compared
    with the matrix route (:func:`oracle_deviations`); a deviation beyond
    1e-9 (``CROSS_CHECK_TOL``) raises :class:`CrossCheckError` naming the point.
    """
    points = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (theta, nu, q)))
    theta, nu, q = (np.ravel(v) for v in points)
    mu, upsilon, eta = weights_grid(theta, nu, q)
    c = _x_concurrence(theta, mu, upsilon, eta)
    entropy = _entropy_bits(np.stack((2.0 * mu, eta, upsilon), axis=-1))
    qfe, ratio = _qfe_and_ratio(c)
    grid = GridValues(q, theta, nu, mu, upsilon, eta, c, entropy, qfe, ratio)
    if cross_check:
        deviations = oracle_deviations(grid)[:, :2]
        bad = deviations > CROSS_CHECK_TOL
        if bad.any():
            i, j = np.argwhere(bad)[0]
            name, closed = (("concurrence", c), ("entropy", entropy))[j]
            raise CrossCheckError(
                f"closed-form {name} {float(closed[i])!r} deviates from the matrix route "
                f"by {deviations[i, j]:.3e} (tolerance {CROSS_CHECK_TOL:g}) "
                f"at {_point_name(theta, nu, q, i)}"
            )
    return grid


def oracle_deviations(grid: GridValues) -> np.ndarray:
    """|closed form - matrix route| per point, shape (N, 3).

    Columns: concurrence, entropy, and the worst entry of the squared
    spin-flip spectrum against {4 mu^2 sin^2 2theta, eta upsilon,
    eta upsilon, 0}.  The states are rebuilt from their weights 256 at a
    time (``_CHUNK_POINTS``).  Each chunk is checked once as a stack
    (Hermitian, unit trace, spectrum above the PSD floor) and costs two
    batched Jacobi solves: one of rho, giving the entropy, and one of
    tau in the spin-flip spectrum, so two solved matrices per point.  A
    ValueError from the matrix route names the point.
    """
    lam = _x_spin_flip_squares(grid.theta, grid.mu, grid.upsilon, grid.eta)
    out = np.empty((len(grid.theta), 3))
    for start in range(0, len(grid.theta), _CHUNK_POINTS):
        chunk = slice(start, start + _CHUNK_POINTS)
        rho = x_state_rho(grid.theta[chunk], grid.mu[chunk], grid.upsilon[chunk], grid.eta[chunk])
        fault = _density_fault(rho)
        if fault is None:
            eig = hermitian_eigen(rho)
            fault = _psd_fault(eig.eigenvalues)
        if fault is not None:
            i, reason = fault
            raise ValueError(f"{reason} at {_point_name(grid.theta, grid.nu, grid.q, start + i)}")
        r = _spin_flip(eig)
        out[chunk, 0] = np.abs(grid.concurrence[chunk] - _wootters_concurrence(r))
        out[chunk, 1] = np.abs(grid.entropy[chunk] - _entropy_bits(eig.eigenvalues))
        out[chunk, 2] = np.abs(lam[chunk] - r**2).max(axis=1)
    return out


def wootters_spectrum(rho) -> np.ndarray:
    """Descending eigenvalues r_i of R = sqrt(sqrt(rho) rho~ sqrt(rho)).

    ``rho`` is one 4x4 state, giving shape (4,), or a stack, giving (N, 4).
    It is validated as a density matrix (Hermitian, unit trace, spectrum
    above the PSD floor); the r_i are the singular values of
    tau = W^T (sy x sy) W with rho = W W+ (see ``_spin_flip``).
    """
    m = check_density_matrix(rho, require_psd=False)
    if m.shape[-1] != 4:
        raise ValueError("the spin-flip spectrum is defined for 4x4 density matrices")
    p, vecs = hermitian_eigen(m)
    stack_p = p.reshape(-1, 4)
    fault = _psd_fault(stack_p)
    if fault is not None:
        raise ValueError(fault[1] + _in_stack(m, fault[0]))
    return _spin_flip(EigenDecomposition(stack_p, vecs.reshape(-1, 4, 4))).reshape(p.shape)


def _spin_flip(eig: EigenDecomposition) -> np.ndarray:
    """Descending r_i, shape (N, 4), of a validated stack rho = V diag(p) V+.

    W = V diag(sqrt p) gives rho = W W+.  The r_i are the singular values
    of tau = W^T (sy x sy) W, since tau+ tau is similar to rho rho~.  A
    real W (every detector state) gives a real symmetric tau, formed in
    real arithmetic, and r_i are the moduli of its eigenvalues, so nothing
    is squared and small r_i keep their relative accuracy.  The real taus
    are solved as one stack; only the complex ones fall back to
    sqrt(eig(tau+ tau)).
    """
    p, vecs = eig
    scale = np.sqrt(np.maximum(p, 0.0))[:, None, :]
    w = vecs.real * scale
    tau = w.swapaxes(1, 2) @ _REAL_FLIP @ w
    complex_w = vecs.imag.any(axis=(1, 2))
    if complex_w.any():
        tau = tau.astype(np.complex128)
        w = vecs[complex_w] * scale[complex_w]
        tau[complex_w] = w.swapaxes(1, 2) @ FLIP_OPERATOR @ w
    r = np.empty(p.shape)
    complex_tau = tau.imag.any(axis=(1, 2))
    real_tau = ~complex_tau
    if real_tau.any():
        r[real_tau] = np.abs(hermitian_eigen(tau[real_tau]).eigenvalues)
    if complex_tau.any():
        t = tau[complex_tau]
        squares = hermitian_eigen(t.conj().swapaxes(1, 2) @ t).eigenvalues
        r[complex_tau] = np.sqrt(np.maximum(squares, 0.0))
    return -np.sort(-r, axis=1)


def _wootters_concurrence(r):
    return np.clip(r[..., 0] - r[..., 1] - r[..., 2] - r[..., 3], 0.0, 1.0)


def concurrence_numeric(rho) -> float:
    """Concurrence from the spin-flip spectrum, clamped to [0, 1]."""
    return float(_wootters_concurrence(wootters_spectrum(rho)))


def concurrence_analytic(state: JointState) -> float:
    """Closed-form concurrence of the X-shaped joint state.

    For this template the spin-flip spectrum collapses to
    {2 mu |sin 2theta|, sqrt(eta upsilon), sqrt(eta upsilon), 0}, so
    C = max(0, 2 mu |sin 2theta| - 2 sqrt(eta upsilon)).
    """
    return float(_x_concurrence(state.params.theta, state.mu, state.upsilon, state.eta))


def analytic_eigenvalues(state: JointState) -> np.ndarray:
    """Spectrum of rho @ rho~ implied by the X-state structure, descending.

    Returns {4 mu^2 sin^2(2 theta), eta*upsilon, eta*upsilon, 0} sorted;
    must match the squared numeric spin-flip spectrum to 1e-10.
    """
    return _x_spin_flip_squares(state.params.theta, state.mu, state.upsilon, state.eta)


def _require_pure(psi_rho, tolerance: float) -> np.ndarray:
    m = check_density_matrix(psi_rho, require_psd=False)
    w = hermitian_eigen(m).eigenvalues
    if w[0] < 1.0 - tolerance:
        raise ValueError(
            f"state is not pure within {tolerance:g}: largest eigenvalue {w[0]!r}"
        )
    return m


def pure_concurrence(psi_rho, tolerance: float = _DEFAULT_PURITY_TOL) -> float:
    """Concurrence 2 sqrt(det rho_A) of a pure two-qubit state."""
    m = _require_pure(psi_rho, tolerance)
    ra = partial_trace(m, "A")
    det = (ra[0, 0] * ra[1, 1] - ra[0, 1] * ra[1, 0]).real
    return min(1.0, 2.0 * math.sqrt(max(0.0, det)))


def von_neumann_entropy(rho) -> float:
    """-sum p log2 p over the Jacobi spectrum, with the convention 0 log 0 = 0."""
    m = check_density_matrix(rho, require_psd=False)
    w = hermitian_eigen(m).eigenvalues
    if w[-1] < EIGENVALUE_FLOOR:
        raise ValueError(
            f"density matrix must be positive semidefinite: "
            f"smallest eigenvalue {w[-1]:.3e}"
        )
    return float(_entropy_bits(w))


def entanglement_entropy_pure(psi_rho, tolerance: float = _DEFAULT_PURITY_TOL) -> float:
    """Entanglement entropy of a pure two-qubit state, in bits.

    Computed as the entropy of the reduced state of subsystem A; tracing
    out the other side gives the same value (to 1e-10) for pure input.
    """
    m = _require_pure(psi_rho, tolerance)
    return von_neumann_entropy(partial_trace(m, "A"))


def qfe_from_concurrence(c: float) -> float:
    """Entanglement fluctuation C log2((1 + sqrt(1 - C^2)) / C) in bits.

    Exactly zero at C = 1, and defined as zero for C <= 1e-12 (the
    continuity limit, taken before any logarithm of 1/C is formed).
    """
    if not 0.0 <= c <= 1.0:
        raise ValueError(f"concurrence must lie in [0, 1], got {c}")
    return float(_qfe_and_ratio(c)[0])


def qfe_variance_pure(psi_rho, tolerance: float = _DEFAULT_PURITY_TOL) -> float:
    """Standard deviation of the entanglement-entropy operator on a pure state.

    With reduced-state spectrum {p, 1-p} this is
    sqrt(p(1-p)) |log2(p/(1-p))|, which vanishes at p in {0, 1/2, 1} and
    coincides with qfe_from_concurrence(2 sqrt(p(1-p))).
    """
    m = _require_pure(psi_rho, tolerance)
    w = hermitian_eigen(partial_trace(m, "A")).eigenvalues
    p = min(1.0, max(0.0, float(w[0])))
    complement = 1.0 - p
    if p <= 0.0 or complement <= 0.0:
        return 0.0
    return math.sqrt(p * complement) * abs(math.log2(p / complement))

