"""Entanglement measures and the entanglement fluctuation.

Two routes to the measures are kept deliberately separate:

* the closed forms of the X-shaped joint state produced by
  :mod:`qfesim.detector`, evaluated for a whole grid of points at once by
  :func:`evaluate_grid` (:func:`concurrence_analytic` is the one-state
  form);
* one matrix route, :func:`oracle_deviations`.  It rebuilds the states in
  float64, 1,024 at a time, validates and solves each chunk's distinct
  states once (a run of bitwise identical neighbours is one state) through
  the checked solve behind :func:`qfesim.qmatrix.density_eigen`, takes the
  entropy of that Jacobi spectrum, and runs the spin-flip construction
  C = max(0, r1 - r2 - r3 - r4), with r_i the descending eigenvalues of
  R = sqrt(sqrt(rho) rho~ sqrt(rho)) and
  rho~ = (sy x sy) conj(rho) (sy x sy), on the float64 eigenvectors.  That
  is two batched Jacobi solves per chunk, so at most two solved matrices
  per point, both checked, and every chunk of a call is checked and solved
  in the same workspace, allocated once per call.

The two must agree to 1e-9 per point in the concurrence and the entropy.
One gate, ``_gate``, enforces that, for ``evaluate_grid(...,
cross_check=True)`` and for :func:`qfesim.sweep.oracle_scan` alike.  The
pure-state helpers and :func:`von_neumann_entropy` validate their input
through :func:`qfesim.qmatrix.density_eigenvalues`.
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
    _scratch,
    _solve,
    _workspace,
    density_eigenvalues,
    hermitian_eigenvalues,
)

_SIGMA_Y = np.array([[0.0, -1j], [1j, 0.0]])
FLIP_OPERATOR = np.kron(_SIGMA_Y, _SIGMA_Y)
# sy x sy is real with one nonzero per row: (F W)[k] = sign[k] W[row[k]]
_FLIP_ROWS = np.abs(FLIP_OPERATOR).argmax(axis=1)
_FLIP_SIGNS = np.repeat(FLIP_OPERATOR.real[np.arange(4), _FLIP_ROWS], 4)  # per entry, row-major
_DESCENDING_4 = ((0, 1), (2, 3), (0, 2), (1, 3), (1, 2))  # a sorting network's compare-exchanges

RATIO_THRESHOLD = 1e-12
CROSS_CHECK_TOL = 1e-9
_DEFAULT_PURITY_TOL = 1e-6
_CHUNK_POINTS = 1024  # states per batched Jacobi solve in the oracle; bounds peak memory


class CrossCheckError(RuntimeError):
    """A closed form and the matrix route disagree beyond tolerance."""


class _Fault(ValueError):
    """The (index, reason) of the first faulty matrix of a stack that the oracle solves."""


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


def _x_spin_flip_squares(theta, mu, upsilon, eta, out=None) -> np.ndarray:
    """{4 mu^2 sin^2(2 theta), eta upsilon, eta upsilon, 0} along a last axis, descending.

    The weights are nonnegative, so one comparison orders the first two;
    ``out`` receives the result when given.
    """
    s = np.sin(theta)
    c = np.cos(theta)
    big = (2.0 * mu * (2.0 * s * c)) ** 2
    cross = eta * upsilon
    lam = np.empty(np.broadcast(big, cross).shape + (4,)) if out is None else out
    first = big >= cross
    lam[..., 0] = np.where(first, big, cross)
    lam[..., 1] = cross
    lam[..., 2] = np.where(first, cross, big)
    lam[..., 3] = 0.0
    return lam


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
    with the matrix route (:func:`oracle_deviations`); a deviation that is
    not at most 1e-9 raises :class:`CrossCheckError` naming the point.
    """
    points = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (theta, nu, q)))
    theta, nu, q = (np.ravel(v) for v in points)
    mu, upsilon, eta, sin, cos = _weights_and_sines(theta, nu, q)
    c = _x_concurrence(sin, cos, mu, upsilon, eta)
    entropy = _entropy_bits(np.stack((2.0 * mu, eta, upsilon), axis=-1))
    qfe, ratio = _qfe_and_ratio(c)
    grid = GridValues(q, theta, nu, mu, upsilon, eta, c, entropy, qfe, ratio)
    if cross_check:
        _gate(grid, oracle_deviations(grid))
    return grid


def _gate(grid: GridValues, deviations: np.ndarray) -> None:
    """CrossCheckError at the first point of ``grid`` whose C or S deviation is not <= 1e-9."""
    bad = ~(deviations[:, :2] <= CROSS_CHECK_TOL)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        name, closed = (("concurrence", grid.concurrence), ("entropy", grid.entropy))[j]
        raise CrossCheckError(
            f"closed-form {name} {float(closed[i])!r} deviates from the matrix route "
            f"by {deviations[i, j]:.3e} (tolerance {CROSS_CHECK_TOL:g}) "
            f"at {_point_name(grid.theta, grid.nu, grid.q, i)}"
        )


def oracle_deviations(grid: GridValues) -> np.ndarray:
    """|closed form - matrix route| per point, shape (N, 3).

    Columns: concurrence, entropy, and the worst entry of the squared
    spin-flip spectrum against {4 mu^2 sin^2 2theta, eta upsilon,
    eta upsilon, 0}.  The states are rebuilt from their weights as float64,
    1,024 at a time (``_CHUNK_POINTS``).  A run of consecutive, bitwise
    identical states in a chunk is solved once and its results repeated
    (at nu = 0 the state does not depend on q).  The distinct states of a
    chunk cost two batched Jacobi solves, each checked once as a stack:
    one of rho, by the rule of :func:`~qfesim.qmatrix.density_eigen`,
    giving the entropy, and one of tau in the spin-flip spectrum, for its
    eigenvalues only, so at most two solved matrices per point.  Real
    states stay float64 throughout.  A fault of a state or of its tau
    raises ValueError naming the point, the first of its run.

    The call allocates one workspace, sized for a chunk (see
    :func:`qfesim.qmatrix._workspace`), and every chunk refills it: the
    distinct states, the Jacobi arrays of both solves, W, F W, tau and the
    closed-form spectrum.  So the temporaries do not grow with the grid,
    and but for the states the detector builds, no chunk frees
    stack-sized arrays for the next one to fault back in.  The workspace
    belongs to the call, so concurrent calls share nothing.
    """
    size = len(grid.theta)
    work = _oracle_workspace(min(size, _CHUNK_POINTS))
    out = np.empty((size, 3))
    for start in range(0, size, _CHUNK_POINTS):
        chunk = slice(start, start + _CHUNK_POINTS)
        weights = [col[chunk] for col in (grid.theta, grid.mu, grid.upsilon, grid.eta)]
        states = _x_state_real(*weights)
        points = len(states)
        first = _run_starts(states)
        distinct = _scratch(work, "stack", len(first), 4, 4)
        states = states.take(first, axis=0, out=distinct, mode="clip")  # frees the built stack
        try:
            eig = _solved(states, density=True, work=work)
            entropy = _entropy_bits(eig.eigenvalues)  # before tau reuses eig's arrays
            r = _spin_flip(eig, work)
        except _Fault as fault:  # of rho or of tau, whose matrix i is state i's
            i, reason = fault.args
            point = _point_name(grid.theta, grid.nu, grid.q, start + first[i])
            raise ValueError(f"{reason} at {point}") from None
        if len(first) < points:
            runs = np.diff(first, append=points)
            entropy, r = np.repeat(entropy, runs), np.repeat(r, runs, axis=0)
        lam = _x_spin_flip_squares(*weights, out=_scratch(work, "lam", points, 4))
        out[chunk, 0] = np.abs(grid.concurrence[chunk] - _wootters_concurrence(r))
        out[chunk, 1] = np.abs(grid.entropy[chunk] - entropy)
        gap = np.abs(lam - r**2)
        np.maximum(np.maximum(gap[:, 0], gap[:, 1]), np.maximum(gap[:, 2], gap[:, 3]),
                   out=out[chunk, 2])
    return out


def _oracle_workspace(size: int) -> dict:
    """The workspace of :func:`oracle_deviations` for up to ``size`` states at a time.

    Beside the Jacobi regions, ``stack`` holds the distinct states and then
    their tau, and ``lam`` the closed-form spectrum (see :func:`_spin_flip`).
    """
    return _workspace(size, stack=16, lam=4)


def _solved(stack, density: bool, vectors: bool = True, work=None) -> EigenDecomposition:
    """The eig of the checked solve of a stack (see ``qmatrix._solve``); a fault raises _Fault."""
    _, eig, fault = _solve(stack, density, vectors, work)
    if fault is not None:
        raise _Fault(*fault)
    return eig


def _run_starts(stack: np.ndarray) -> np.ndarray:
    """Index of the first matrix of each run of bitwise identical neighbours in a stack.

    Each matrix is compared as one opaque block of bytes, so -0.0 and 0.0
    differ and a NaN equals a NaN of the same bits.
    """
    rows = stack.reshape(len(stack), -1)
    blocks = rows.view(np.dtype((np.void, rows.shape[1] * rows.itemsize))).ravel()
    return np.flatnonzero(np.r_[True, blocks[1:] != blocks[:-1]])


def _spin_flip(eig: EigenDecomposition, work=None) -> np.ndarray:
    """Descending r_i, shape (N, 4), of a validated stack rho = V diag(p) V+ with float64 V.

    W = V diag(sqrt p) gives rho = W W+.  The r_i are the singular values
    of tau = W^T (sy x sy) W, since tau+ tau is similar to rho rho~.  A
    real W gives a real symmetric tau, formed as one batched product
    (F W)^T W, with F W the rows of W reversed and signed, and solved in
    real arithmetic for its eigenvalues only, and r_i are their moduli, so
    nothing is squared and small r_i keep their relative accuracy.  With
    the workspace of :func:`oracle_deviations`, whose rho solve gave eig,
    W overwrites V, a view of it, F W goes to its ``vectors`` region, free
    once V is sorted, and tau to its ``stack`` region, whose states are
    solved by then.
    """
    p, vecs = eig
    size = len(p)
    root = np.sqrt(np.maximum(p, 0.0))[:, None, :]
    w = np.multiply(vecs, root, out=None if work is None else vecs)
    flipped = w.take(_FLIP_ROWS, axis=1, out=_scratch(work, "vectors", size, 4, 4), mode="clip")
    signed = flipped.reshape(size, 16)  # a view
    signed *= _FLIP_SIGNS
    tau = np.matmul(flipped.swapaxes(1, 2), w, out=_scratch(work, "stack", size, 4, 4))
    r = np.abs(_solved(tau, density=False, vectors=False, work=work).eigenvalues)
    for i, j in _DESCENDING_4:  # the moduli are finite, so max and min only move them
        high = np.maximum(r[:, i], r[:, j])
        np.minimum(r[:, i], r[:, j], out=r[:, j])
        r[:, i] = high
    return r


def _wootters_concurrence(r):
    return np.clip(r[..., 0] - r[..., 1] - r[..., 2] - r[..., 3], 0.0, 1.0)


def concurrence_analytic(state: JointState) -> float:
    """Closed-form concurrence of the X-shaped joint state.

    For this template the spin-flip spectrum collapses to
    {2 mu |sin 2theta|, sqrt(eta upsilon), sqrt(eta upsilon), 0}, so
    C = max(0, 2 mu |sin 2theta| - 2 sqrt(eta upsilon)).
    """
    theta = state.params.theta
    return float(_x_concurrence(np.sin(theta), np.cos(theta), state.mu, state.upsilon, state.eta))


def _pure_reduced_state(psi_rho, tolerance: float) -> np.ndarray:
    """Reduced state of subsystem A of one 4x4 state, checked as a density matrix and as pure.

    The state is read in the product basis |0_A 0_B>, |0_A 1_B>, |1_A 0_B>,
    |1_A 1_B>, and B is traced out.  It keeps the state's dtype: a real
    state gives a float64 reduced state.  ``tolerance`` must lie in [0, 1).
    """
    if not (math.isfinite(tolerance) and 0.0 <= tolerance < 1.0):
        raise ValueError(f"tolerance must be finite and in [0, 1), got {tolerance}")
    m = _as_matrices(psi_rho)
    if m.shape != (4, 4):
        raise ValueError(f"a two-qubit state is one 4x4 density matrix, got shape {m.shape}")
    w = density_eigenvalues(m)
    if w[0] < 1.0 - tolerance:
        raise ValueError(
            f"state is not pure within {tolerance:g}: largest eigenvalue {w[0]!r}"
        )
    return np.einsum("abcb->ac", m.reshape(2, 2, 2, 2))


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

