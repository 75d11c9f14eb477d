"""Dense complex matrix routines sized for 2x2 and 4x4 Hermitian problems.

Matrices are numpy ``complex128`` arrays throughout; complex scalars are
plain Python ``complex``.  A density matrix must be Hermitian to within
1e-12, have unit trace to within 1e-12, and have eigenvalues above -1e-10
(anything in [-1e-10, 0) counts as roundoff).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

HERMITIAN_TOL = 1e-12
TRACE_TOL = 1e-12
EIGENVALUE_FLOOR = -1e-10

_OFFDIAG_TARGET = 1e-14
_MAX_SWEEPS = 100
_NULL_FLOOR = 1e-13


class EigenDecomposition(NamedTuple):
    """Spectral factorization M = V diag(w) V+ with w sorted descending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _as_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] not in (2, 4):
        raise ValueError(f"supported matrix dimensions are 2 and 4, got {m.shape[0]}")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    return m


def check_density_matrix(rho, *, require_psd: bool = True) -> np.ndarray:
    """Validate rho as a density matrix, returning it as an array.

    Raises ValueError naming the violated property.  The positivity check
    costs an eigendecomposition and can be skipped by callers that gate on
    the spectrum themselves.
    """
    m = _as_matrix(rho)
    defect = float(np.abs(m - m.conj().T).max())
    if defect > HERMITIAN_TOL:
        raise ValueError(
            f"density matrix must be Hermitian: max |M - M+| = {defect:.3e}"
        )
    tr = complex(np.trace(m))
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValueError(f"density matrix must have unit trace, got {tr}")
    if require_psd:
        w = hermitian_eigen(m).eigenvalues
        if w[-1] < EIGENVALUE_FLOOR:
            raise ValueError(
                f"density matrix must be positive semidefinite: "
                f"smallest eigenvalue {w[-1]:.3e}"
            )
    return m


def partial_trace(rho, subsystem: str) -> np.ndarray:
    """Reduced 2x2 state of the kept subsystem of a two-qubit density matrix.

    ``subsystem`` names the part to keep ("A" or "B"); the 4x4 input is read
    in the product basis |0_A 0_B>, |0_A 1_B>, |1_A 0_B>, |1_A 1_B>.  The
    trace of the input is preserved.
    """
    m = check_density_matrix(rho, require_psd=False)
    if m.shape[0] != 4:
        raise ValueError("partial_trace expects a 4x4 density matrix")
    if subsystem not in ("A", "B"):
        raise ValueError(f"subsystem must be 'A' or 'B', got {subsystem!r}")
    r = m.reshape(2, 2, 2, 2)
    if subsystem == "A":
        return np.einsum("abcb->ac", r)
    return np.einsum("abad->bd", r)


def _rotate(h, v, n, p, q):
    """One complex Jacobi rotation annihilating h[p][q] (nested-list state)."""
    apq = h[p][q]
    r = abs(apq)
    if r < 1e-18:
        h[p][q] = 0j
        h[q][p] = 0j
        return
    phase = apq / r
    tau = (h[q][q].real - h[p][p].real) / (2.0 * r)
    t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(tau, 1.0))
    c = 1.0 / math.sqrt(t * t + 1.0)
    s = t * c
    sigma = s * phase
    sigma_c = sigma.conjugate()
    for k in range(n):
        if k == p or k == q:
            continue
        hkp = h[k][p]
        hkq = h[k][q]
        h[k][p] = c * hkp - sigma_c * hkq
        h[k][q] = sigma * hkp + c * hkq
        h[p][k] = h[k][p].conjugate()
        h[q][k] = h[k][q].conjugate()
    app = h[p][p].real
    aqq = h[q][q].real
    h[p][p] = complex(c * c * app - 2.0 * s * c * r + s * s * aqq)
    h[q][q] = complex(s * s * app + 2.0 * s * c * r + c * c * aqq)
    h[p][q] = 0j
    h[q][p] = 0j
    for k in range(n):
        vkp = v[k][p]
        vkq = v[k][q]
        v[k][p] = c * vkp - sigma_c * vkq
        v[k][q] = sigma * vkp + c * vkq


def hermitian_eigen(a) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix by cyclic Jacobi rotations.

    Sweeps stop once the off-diagonal Frobenius mass falls to 1e-14, with a
    hard cap of 100 sweeps (never reached for valid input).  Eigenvalues
    come back sorted descending, ties keeping their diagonal order, with
    the eigenvector columns permuted to match.
    """
    m = _as_matrix(a)
    defect = float(np.abs(m - m.conj().T).max())
    if defect > HERMITIAN_TOL:
        raise ValueError(
            f"matrix must be Hermitian within {HERMITIAN_TOL:g}: "
            f"max |M - M+| = {defect:.3e}"
        )
    n = m.shape[0]
    h = ((m + m.conj().T) / 2.0).tolist()
    v = np.eye(n, dtype=np.complex128).tolist()
    for _ in range(_MAX_SWEEPS):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                x = h[p][q]
                off += 2.0 * (x.real * x.real + x.imag * x.imag)
        if math.sqrt(off) <= _OFFDIAG_TARGET:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                _rotate(h, v, n, p, q)
    else:
        raise RuntimeError("Jacobi iteration failed to converge within 100 sweeps")
    w = np.array([h[i][i].real for i in range(n)])
    vm = np.array(v, dtype=np.complex128)
    order = np.argsort(-w, kind="stable")
    return EigenDecomposition(eigenvalues=w[order], eigenvectors=vm[:, order])


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
