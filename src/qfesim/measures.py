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
  takes a stack of states.  Every state of this route is validated and
  solved once, by :func:`qfesim.qmatrix.density_eigen`, its
  eigenvalues-only twin or their private forms, which keep a real
  state's eigenvectors in float64.

The two must agree to 1e-9; ``evaluate_grid(..., cross_check=True)``
enforces that per point for the concurrence and the entropy.  The check
(:func:`oracle_deviations`) rebuilds the states in float64, 1,024 at a
time, and solves each run of bitwise identical neighbours once: each
chunk's distinct states are validated once and take two batched Jacobi
solves, so at most two solved matrices per point.
Entropies and fluctuations are in bits.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .detector import JointState, _point_name, _weights_and_sines, _x_state_real
from .qmatrix import (
    EigenDecomposition,
    _as_matrices,
    _density_solve,
    _density_spectrum,
    _reduced_state,
    density_eigenvalues,
    hermitian_eigenvalues,
)

_SIGMA_Y = np.array([[0.0, -1j], [1j, 0.0]])
FLIP_OPERATOR = np.kron(_SIGMA_Y, _SIGMA_Y)
_REAL_FLIP = FLIP_OPERATOR.real  # sy x sy is real

RATIO_THRESHOLD = 1e-12
CROSS_CHECK_TOL = 1e-9
_DEFAULT_PURITY_TOL = 1e-6
_CHUNK_POINTS = 1024  # states per batched Jacobi solve in the oracle; bounds peak memory


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


def _entropy_bits(probabilities) -> np.ndarray:
    """-sum p log2 p over the last axis, p clipped to [0, 1] and 0 log 0 = 0.

    Subtracting from +0.0 makes a pure spectrum give 0.0, never -0.0.
    """
    p = np.clip(probabilities, 0.0, 1.0)
    return 0.0 - (p * np.log2(np.where(p > 0.0, p, 1.0))).sum(axis=-1)


def _x_concurrence(s, c, mu, upsilon, eta):
    """max(0, 2 mu |sin 2theta| - 2 sqrt(eta upsilon)), clamped to [0, 1]; s, c = sin, cos theta."""
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
    qfe = np.where(defined, safe * np.log2((1.0 + root) / safe), 0.0)
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
    mu, upsilon, eta, sin, cos = _weights_and_sines(theta, nu, q)
    c = _x_concurrence(sin, cos, mu, upsilon, eta)
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
    eta upsilon, 0}.  The states are rebuilt from their weights as float64,
    1,024 at a time (``_CHUNK_POINTS``).  A run of consecutive, bitwise
    identical states in a chunk is solved once and its results repeated
    (at nu = 0 the state does not depend on q).  The distinct states of a
    chunk are checked once as a stack, by the validation of
    :func:`~qfesim.qmatrix.density_eigen`, and cost two batched Jacobi
    solves: one of rho, giving the entropy, and one of tau in the
    spin-flip spectrum, for its eigenvalues only, so at most two solved
    matrices per point.  Real states stay float64 throughout.  A
    ValueError from the matrix route names the point, the first of its run.
    """
    lam = _x_spin_flip_squares(grid.theta, grid.mu, grid.upsilon, grid.eta)
    out = np.empty((len(grid.theta), 3))
    for start in range(0, len(grid.theta), _CHUNK_POINTS):
        chunk = slice(start, start + _CHUNK_POINTS)
        rho = _x_state_real(grid.theta[chunk], grid.mu[chunk], grid.upsilon[chunk],
                            grid.eta[chunk])
        first = _run_starts(rho)
        eig, fault = _density_spectrum(rho if len(first) == len(rho) else rho[first])
        if fault is not None:
            i, reason = fault
            raise ValueError(
                f"{reason} at {_point_name(grid.theta, grid.nu, grid.q, start + first[i])}")
        runs = np.diff(first, append=len(rho))
        r = np.repeat(_spin_flip(eig), runs, axis=0)
        entropy = np.repeat(_entropy_bits(eig.eigenvalues), runs)
        out[chunk, 0] = np.abs(grid.concurrence[chunk] - _wootters_concurrence(r))
        out[chunk, 1] = np.abs(grid.entropy[chunk] - entropy)
        out[chunk, 2] = np.abs(lam[chunk] - r**2).max(axis=1)
    return out


def _run_starts(stack: np.ndarray) -> np.ndarray:
    """Index of the first matrix of each run of bitwise identical neighbours in a stack.

    Each matrix is compared as one opaque block of bytes, so -0.0 and 0.0
    differ and a NaN equals a NaN of the same bits.
    """
    rows = stack.reshape(len(stack), -1)
    blocks = rows.view(np.dtype((np.void, rows.shape[1] * rows.itemsize))).ravel()
    return np.flatnonzero(np.r_[True, blocks[1:] != blocks[:-1]])


def wootters_spectrum(rho) -> np.ndarray:
    """Descending eigenvalues r_i of R = sqrt(sqrt(rho) rho~ sqrt(rho)).

    ``rho`` is one 4x4 state, giving shape (4,), or a stack, giving (N, 4).
    It is validated as a density matrix (Hermitian, unit trace, spectrum
    above the PSD floor); the r_i are the singular values of
    tau = W^T (sy x sy) W with rho = W W+ (see ``_spin_flip``).
    """
    m, eig = _density_solve(rho)
    if m.shape[-1] != 4:
        raise ValueError("the spin-flip spectrum is defined for 4x4 density matrices")
    return _spin_flip(eig).reshape(m.shape[:-1])


def _spin_flip(eig: EigenDecomposition) -> np.ndarray:
    """Descending r_i, shape (N, 4), of a validated stack rho = V diag(p) V+.

    W = V diag(sqrt p) gives rho = W W+.  The r_i are the singular values
    of tau = W^T (sy x sy) W, since tau+ tau is similar to rho rho~.  A
    real W (every detector state) gives a real symmetric tau, formed and
    solved in real arithmetic for its eigenvalues only, and r_i are their
    moduli, so nothing is squared and small r_i keep their relative
    accuracy.  Float64 eigenvectors make the whole stack real; otherwise
    the real W are found row by row, and the states with a complex W fall
    back to sqrt(eig(tau+ tau)), solved as a second stack.
    """
    p, vecs = eig
    scale = np.sqrt(np.maximum(p, 0.0))[:, None, :]
    if not np.iscomplexobj(vecs):
        return -np.sort(-_real_tau_moduli(vecs * scale), axis=1)
    r = np.empty(p.shape)
    complex_w = vecs.imag.any(axis=(1, 2))
    real_w = ~complex_w
    if real_w.any():
        r[real_w] = _real_tau_moduli(vecs.real[real_w] * scale[real_w])
    if complex_w.any():
        w = vecs[complex_w] * scale[complex_w]
        tau = w.swapaxes(1, 2) @ FLIP_OPERATOR @ w
        squares = hermitian_eigenvalues(tau.conj().swapaxes(1, 2) @ tau)
        r[complex_w] = np.sqrt(np.maximum(squares, 0.0))
    return -np.sort(-r, axis=1)


def _real_tau_moduli(w: np.ndarray) -> np.ndarray:
    """|eigenvalues| of the real symmetric tau = W^T (sy x sy) W of a float64 stack W."""
    return np.abs(hermitian_eigenvalues(w.swapaxes(1, 2) @ _REAL_FLIP @ w))


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
    theta = state.params.theta
    return float(_x_concurrence(np.sin(theta), np.cos(theta), state.mu, state.upsilon, state.eta))


def analytic_eigenvalues(state: JointState) -> np.ndarray:
    """Spectrum of rho @ rho~ implied by the X-state structure, descending.

    Returns {4 mu^2 sin^2(2 theta), eta*upsilon, eta*upsilon, 0} sorted;
    must match the squared numeric spin-flip spectrum to 1e-10.
    """
    return _x_spin_flip_squares(state.params.theta, state.mu, state.upsilon, state.eta)


def _pure_reduced_state(psi_rho, tolerance: float) -> np.ndarray:
    """Reduced state of subsystem A of a state checked once, as a density matrix and as pure.

    It keeps the state's dtype: a real state gives a float64 reduced state.
    """
    w = density_eigenvalues(psi_rho)
    if w[0] < 1.0 - tolerance:
        raise ValueError(
            f"state is not pure within {tolerance:g}: largest eigenvalue {w[0]!r}"
        )
    return _reduced_state(_as_matrices(psi_rho), "A")


def pure_concurrence(psi_rho, tolerance: float = _DEFAULT_PURITY_TOL) -> float:
    """Concurrence 2 sqrt(det rho_A) of a pure two-qubit state."""
    ra = _pure_reduced_state(psi_rho, tolerance)
    det = (ra[0, 0] * ra[1, 1] - ra[0, 1] * ra[1, 0]).real
    return min(1.0, 2.0 * math.sqrt(max(0.0, det)))


def von_neumann_entropy(rho) -> float:
    """-sum p log2 p over the Jacobi spectrum, with the convention 0 log 0 = 0."""
    return float(_entropy_bits(density_eigenvalues(rho)))


def entanglement_entropy_pure(psi_rho, tolerance: float = _DEFAULT_PURITY_TOL) -> float:
    """Entanglement entropy of a pure two-qubit state, in bits.

    Computed as the entropy of the reduced state of subsystem A; tracing
    out the other side gives the same value (to 1e-10) for pure input.
    """
    return von_neumann_entropy(_pure_reduced_state(psi_rho, tolerance))


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
    w = hermitian_eigenvalues(_pure_reduced_state(psi_rho, tolerance))
    p = min(1.0, max(0.0, float(w[0])))
    complement = 1.0 - p
    if p <= 0.0 or complement <= 0.0:
        return 0.0
    return math.sqrt(p * complement) * abs(math.log2(p / complement))

