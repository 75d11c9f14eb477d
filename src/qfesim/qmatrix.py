"""Dense complex matrix routines sized for 2x2 and 4x4 Hermitian problems.

Matrices are numpy ``complex128`` arrays throughout; complex scalars are
plain Python ``complex``.  :func:`hermitian_eigen` and
:func:`check_density_matrix` also take a stack of shape (N, n, n).  A
density matrix must be Hermitian to within 1e-12, have unit trace to within
1e-12, and have eigenvalues above -1e-10 (anything in [-1e-10, 0) counts as
roundoff).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

HERMITIAN_TOL = 1e-12
TRACE_TOL = 1e-12
EIGENVALUE_FLOOR = -1e-10

_OFFDIAG_TARGET = 1e-14
_MAX_SWEEPS = 100
_NULL_FLOOR = 1e-13
_TINY_PIVOT = 1e-18  # an off-diagonal entry below this is zeroed, not rotated away


def _round(ps: slice, qs: slice, n: int):
    """Column slices of the p's and q's of a round, their indices, and its pivots."""
    p, q = np.arange(n)[ps], np.arange(n)[qs]
    return ps, qs, p, q, (np.r_[p, q], np.r_[q, p])


# Parallel (Brent & Luk) ordering: each round rotates disjoint (p, q) pairs,
# so a round is one vectorized step, and a sweep visits every pair once.
_ROUNDS = {
    2: [_round(slice(0, 1), slice(1, 2), 2)],
    4: [
        _round(slice(0, 4, 2), slice(1, 4, 2), 4),
        _round(slice(0, 2), slice(2, 4), 4),
        _round(slice(0, 2), slice(3, 1, -1), 4),
    ],
}
_UPPER = {n: np.triu_indices(n, 1) for n in _ROUNDS}
_FLIP = np.array([1.0, -1.0]).reshape(2, 1, 1, 1)


class EigenDecomposition(NamedTuple):
    """Spectral factorization M = V diag(w) V+ with w sorted descending.

    A stack gives w of shape (N, n) and V of shape (N, n, n).
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _as_matrices(a) -> np.ndarray:
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {m.shape}")
    if m.shape[-1] not in (2, 4):
        raise ValueError(f"supported matrix dimensions are 2 and 4, got {m.shape[-1]}")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    return m


def _in_stack(m: np.ndarray, index: int) -> str:
    return f" (matrix {index} of the stack)" if m.ndim == 3 else ""


def _first(bad: np.ndarray):
    return int(np.argmax(bad)) if bad.any() else None


def _hermiticity_defect(stack: np.ndarray) -> np.ndarray:
    return np.abs(stack - stack.conj().swapaxes(1, 2)).max(axis=(1, 2))


def _density_fault(stack: np.ndarray):
    """(index, reason) of the first Hermiticity, then unit-trace, failure in a stack."""
    defect = _hermiticity_defect(stack)
    i = _first(defect > HERMITIAN_TOL)
    if i is not None:
        return i, f"density matrix must be Hermitian: max |M - M+| = {defect[i]:.3e}"
    trace = np.trace(stack, axis1=1, axis2=2)
    i = _first(np.abs(trace - 1.0) > TRACE_TOL)
    if i is not None:
        return i, f"density matrix must have unit trace, got {complex(trace[i])}"
    return None


def _psd_fault(w: np.ndarray):
    """(index, reason) of the first row of descending spectra w below the floor."""
    i = _first(w[:, -1] < EIGENVALUE_FLOOR)
    if i is not None:
        return i, (f"density matrix must be positive semidefinite: "
                   f"smallest eigenvalue {w[i, -1]:.3e}")
    return None


def check_density_matrix(rho, *, require_psd: bool = True) -> np.ndarray:
    """Validate rho (one matrix or a stack) as density matrices, returning it as an array.

    Raises ValueError naming the violated property, and for a stack the
    first offending matrix.  The positivity check costs an
    eigendecomposition and can be skipped by callers that gate on the
    spectrum themselves.
    """
    m = _as_matrices(rho)
    stack = m.reshape(-1, *m.shape[-2:])
    fault = _density_fault(stack)
    if fault is None and require_psd:
        fault = _psd_fault(hermitian_eigen(stack).eigenvalues)
    if fault is not None:
        raise ValueError(fault[1] + _in_stack(m, fault[0]))
    return m


def partial_trace(rho, subsystem: str) -> np.ndarray:
    """Reduced 2x2 state of the kept subsystem of a two-qubit density matrix.

    ``subsystem`` names the part to keep ("A" or "B"); the 4x4 input is read
    in the product basis |0_A 0_B>, |0_A 1_B>, |1_A 0_B>, |1_A 1_B>.  The
    trace of the input is preserved.
    """
    m = check_density_matrix(rho, require_psd=False)
    if m.shape != (4, 4):
        raise ValueError("partial_trace expects a 4x4 density matrix")
    if subsystem not in ("A", "B"):
        raise ValueError(f"subsystem must be 'A' or 'B', got {subsystem!r}")
    r = m.reshape(2, 2, 2, 2)
    if subsystem == "A":
        return np.einsum("abcb->ac", r)
    return np.einsum("abad->bd", r)


def _mix(x, y, c, sigma):
    """(c x - conj(sigma) y, sigma x + c y), complex numbers stored as (re[, im]) on axis 0."""
    sr = sigma[0]
    if len(sigma) == 1:
        return c * x - sr * y, c * y + sr * x
    k = _FLIP * sigma[1]  # conj(sigma) y = sr y + k swap(y) and sigma x = sr x - k swap(x)
    return c * x - (sr * y + k * y[::-1]), c * y + (sr * x - k * x[::-1])


def _sweep(hv: np.ndarray, n: int) -> None:
    """One cyclic Jacobi sweep, in place, over hv = [H; V] of shape (parts, 2n, n, N).

    Each rotation J annihilates H[p, q]: H <- J+ H J and V <- V J.  The new
    diagonal is a_pp - t|a_pq| and a_qq + t|a_pq| (Rutishauser's form), which
    keeps small eigenvalues to high relative accuracy (Demmel & Veselic).
    """
    h = hv[:, :n]
    for ps, qs, p, q, pivots in _ROUNDS[n]:
        a = h[:, p, q]
        app = h[0, p, p]
        aqq = h[0, q, q]
        r = np.sqrt(sum(a * a))
        live = r >= _TINY_PIVOT
        safe = np.where(live, r, 1.0)
        tau = (aqq - app) / (2.0 * safe)
        t = np.where(live, np.copysign(1.0, tau) / (np.abs(tau) + np.hypot(tau, 1.0)), 0.0)
        c = 1.0 / np.hypot(t, 1.0)
        sigma = (t * c / safe) * a  # s e^{i arg a_pq}
        hv[:, :, ps], hv[:, :, qs] = _mix(hv[:, :, ps], hv[:, :, qs], c, sigma[:, None])
        conj = _FLIP[: len(sigma)] * sigma[:, :, None]
        h[:, ps], h[:, qs] = _mix(h[:, ps], h[:, qs], c[:, None], conj)
        tr = t * r
        h[0, p, p] = app - tr
        h[0, q, q] = aqq + tr
        h[1:, pivots[0], pivots[0]] = 0.0  # the diagonal stays real
        h[(slice(None),) + pivots] = 0.0


def _jacobi(parts: np.ndarray):
    """Eigenvalues (N, n) and eigenvectors (N, n, n) of a stack, in diagonal order.

    ``parts`` holds the real and, for complex matrices, the imaginary parts,
    shape (1 or 2, N, n, n).  Every matrix is checked before each sweep and
    set aside once its off-diagonal Frobenius mass is at most 1e-14, so its
    result does not depend on the rest of the stack.
    """
    count, size, n = parts.shape[:3]
    hv = np.zeros((count, 2 * n, n, size))
    hermitian = 0.5 * (parts + _FLIP[:count] * parts.swapaxes(2, 3))  # (M + M+) / 2
    hv[:, :n] = hermitian.transpose(0, 2, 3, 1)
    hv[0, n:] = np.eye(n)[:, :, None]
    w = np.empty((size, n))
    v = np.zeros((size, n, n), dtype=np.complex128)
    live = np.arange(size)
    for _ in range(_MAX_SWEEPS):
        u = hv[(slice(None),) + _UPPER[n]]
        done = np.sqrt(2.0 * sum(sum(u * u))) <= _OFFDIAG_TARGET
        if done.any():
            w[live[done]] = hv[0, range(n), range(n)][:, done].T
            vecs = hv[:, n:, :, done].transpose(0, 3, 1, 2)
            v.real[live[done]] = vecs[0]
            if count == 2:
                v.imag[live[done]] = vecs[1]
            live, hv = live[~done], hv[..., ~done]
        if not live.size:
            return w, v
        _sweep(hv, n)
    raise RuntimeError("Jacobi iteration failed to converge within 100 sweeps")


def hermitian_eigen(a) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix, or a stack, by cyclic Jacobi rotations.

    Every matrix of a stack is solved by the same vectorized sweeps, and
    its result is bit for bit the one it gets alone.  A real matrix is
    rotated in real arithmetic.  Sweeps stop once the off-diagonal
    Frobenius mass falls to 1e-14, with a hard cap of 100 sweeps (never
    reached for valid input).  Eigenvalues come back sorted descending,
    ties keeping their diagonal order, with the eigenvector columns
    permuted to match.
    """
    m = _as_matrices(a)
    stack = m.reshape(-1, *m.shape[-2:])
    defect = _hermiticity_defect(stack)
    i = _first(defect > HERMITIAN_TOL)
    if i is not None:
        raise ValueError(
            f"matrix must be Hermitian within {HERMITIAN_TOL:g}: "
            f"max |M - M+| = {defect[i]:.3e}{_in_stack(m, i)}"
        )
    w = np.empty(stack.shape[:2])
    v = np.empty(stack.shape, dtype=np.complex128)
    is_complex = stack.imag.any(axis=(1, 2))
    for part, count in ((~is_complex, 1), (is_complex, 2)):
        if part.any():
            sub = stack[part]
            w[part], v[part] = _jacobi(np.stack((sub.real, sub.imag)[:count]))
    order = np.argsort(-w, axis=1, kind="stable")
    w = np.take_along_axis(w, order, 1)
    v = np.take_along_axis(v, order[:, None, :], 2)
    if m.ndim == 2:
        w, v = w[0], v[0]
    return EigenDecomposition(eigenvalues=w, eigenvectors=v)


def matrix_sqrt_psd(a) -> np.ndarray:
    """Hermitian square root of a positive semidefinite matrix.

    Eigenvalues in [-1e-10, 0) are clamped to zero as roundoff; anything
    more negative rejects the input.  Eigenvalues below 1e-13 of the
    largest are zeroed as well, so exactly singular inputs keep an exact
    null space instead of picking up sqrt(eps)-sized ghosts.
    """
    w, vecs = hermitian_eigen(a)
    if w[-1] < EIGENVALUE_FLOOR:
        raise ValueError(
            f"matrix is not positive semidefinite: "
            f"smallest eigenvalue {w[-1]:.3e} < {EIGENVALUE_FLOOR:g}"
        )
    floor = _NULL_FLOOR * max(float(w[0]), 0.0)
    clamped = np.where(w > floor, w, 0.0)
    s = (vecs * np.sqrt(clamped)) @ vecs.conj().T
    return (s + s.conj().T) / 2.0
