"""Dense complex matrix routines sized for 2x2 and 4x4 Hermitian problems.

The public results are numpy ``complex128`` arrays; complex scalars are
plain Python ``complex``.  :func:`hermitian_eigen`,
:func:`hermitian_eigenvalues`, :func:`density_eigen` and
:func:`density_eigenvalues` also take a stack of shape (N, n, n).  A stack
with no nonzero imaginary part is checked and solved in float64, and is
never copied to complex on the way.  A density matrix must be finite,
Hermitian to within 1e-12, of unit trace to within 1e-12, and have
eigenvalues above -1e-10 (anything in [-1e-10, 0) counts as roundoff).
:func:`density_eigen` and its eigenvalues-only twin are the one place
that rule is applied together with the solve, and the solve does not
check the matrix again.  The one matrix route,
:func:`qfesim.measures.oracle_deviations`, validates and solves its float64
stacks of states through their private form, ``_density_spectrum``.
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
    """``a`` as float64 if it is real, else as complex128, checked for shape."""
    m = np.asarray(a)
    m = m.astype(np.complex128 if np.iscomplexobj(m) else np.float64, copy=False)
    if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {m.shape}")
    if m.shape[-1] not in (2, 4):
        raise ValueError(f"supported matrix dimensions are 2 and 4, got {m.shape[-1]}")
    return m


def _real_view(stack: np.ndarray) -> np.ndarray:
    """The stack, viewed as float64 when no imaginary part is nonzero."""
    return stack.real if np.iscomplexobj(stack) and not stack.imag.any() else stack


def _public(m: np.ndarray, eig: EigenDecomposition) -> EigenDecomposition:
    """eig with complex128 eigenvectors, and unstacked when m is one matrix."""
    eig = EigenDecomposition(eig.eigenvalues, eig.eigenvectors.astype(np.complex128, copy=False))
    return eig if m.ndim == 3 else EigenDecomposition(*(part[0] for part in eig))


def _in_stack(m: np.ndarray, index: int) -> str:
    return f" (matrix {index} of the stack)" if m.ndim == 3 else ""


def _first(bad: np.ndarray):
    return int(np.argmax(bad)) if bad.any() else None


def _finite_fault(stack: np.ndarray):
    """(index, reason) of the first matrix with a non-finite entry; one pass when there is none."""
    if np.isfinite(stack).all():
        return None
    return _first(~np.isfinite(stack).all(axis=(1, 2))), "matrix entries must be finite"


def _hermitian_fault(stack: np.ndarray, reason: str):
    """(index, reason) of the first matrix with max |M - M+| above 1e-12; reason ends with it.

    The whole stack is tested in one pass, and the defect per matrix is
    formed only when one fails.  ``conj()`` of a real stack is the stack
    itself, not a copy.
    """
    defect = np.abs(stack - stack.conj().swapaxes(1, 2))
    if not defect.max(initial=0.0) > HERMITIAN_TOL:
        return None
    defect = defect.max(axis=(1, 2))
    i = _first(defect > HERMITIAN_TOL)
    return i, f"{reason}: max |M - M+| = {defect[i]:.3e}"


def _density_fault(stack: np.ndarray):
    """(index, reason) of the first non-finite, non-Hermitian, then not unit-trace matrix."""
    fault = _finite_fault(stack) or _hermitian_fault(stack, "density matrix must be Hermitian")
    if fault is not None:
        return fault
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


def _reject(m: np.ndarray, fault) -> None:
    if fault is not None:
        raise ValueError(fault[1] + _in_stack(m, fault[0]))


def _density_spectrum(stack: np.ndarray, vectors: bool = True):
    """(eig, fault) of a stack of density matrices, shape (N, n, n).

    ``fault`` is the (index, reason) of the first matrix that is not
    finite, Hermitian or of unit trace or, after the one solve, below the
    PSD floor, else None; ``eig`` is None when the solve never ran.  A
    stack with no nonzero imaginary part is checked and solved in float64
    and gives float64 eigenvectors.  Without ``vectors`` the solve forms
    no eigenvector (see :func:`_jacobi`).
    """
    stack = _real_view(stack)
    fault = _density_fault(stack)
    if fault is not None:
        return None, fault
    eig = _unchecked_eigen(stack, vectors)
    return eig, _psd_fault(eig.eigenvalues)


def _density_solve(rho, vectors: bool = True):
    """(m, eig): ``rho`` as matrices, and the eig of :func:`_density_spectrum` of it as a stack.

    A fault raises ValueError naming the violated property and, for a
    stack, the first offending matrix.  A real ``rho`` keeps float64
    eigenvectors.
    """
    m = _as_matrices(rho)
    eig, fault = _density_spectrum(m.reshape(-1, *m.shape[-2:]), vectors)
    _reject(m, fault)
    return m, eig


def density_eigen(rho) -> EigenDecomposition:
    """Validated eigendecomposition of a density matrix, or a stack of them.

    Checks finiteness, Hermiticity and unit trace, solves once by the
    sweeps of :func:`hermitian_eigen` (without checking again) and applies
    the -1e-10 PSD floor.  A failure raises ValueError naming the violated
    property and, for a stack, the first offending matrix.  One matrix
    gives the bits of a stack of one.
    """
    return _public(*_density_solve(rho))


def density_eigenvalues(rho) -> np.ndarray:
    """The eigenvalues of :func:`density_eigen`, bit for bit, without eigenvectors.

    Same checks, sweeps and PSD floor, but no eigenvector is accumulated.
    """
    m, eig = _density_solve(rho, vectors=False)
    return eig.eigenvalues if m.ndim == 3 else eig.eigenvalues[0]


def _mix(x, y, c, sigma) -> None:
    """x, y <- c x - conj(sigma) y, sigma x + c y, in place; complex as (re[, im]) on axis 0."""
    sr = sigma[0]
    if len(sigma) == 1:
        sigma_x = sr * x
        x *= c
        x -= sr * y
    else:
        k = _FLIP * sigma[1]  # conj(sigma) y = sr y + k swap(y) and sigma x = sr x - k swap(x)
        sigma_x = sr * x - k * x[::-1]
        x *= c
        x -= sr * y + k * y[::-1]
    y *= c
    y += sigma_x


def _rotate(hv: np.ndarray, n: int, rnd, a, r, live) -> None:
    """One round's rotations, in place, of hv = [H; V], its pivots a of moduli r (live: r >= 1e-18).

    Each rotation J annihilates H[p, q]: H <- J+ H J and V <- V J.  The new
    diagonal is a_pp - t|a_pq| and a_qq + t|a_pq| (Rutishauser's form), which
    keeps small eigenvalues to high relative accuracy (Demmel & Veselic).
    ``live`` is None when every pivot is live; hv may hold H alone.
    """
    ps, qs, p, q, _ = rnd
    h = hv[:, :n]
    app = h[0, p, p]
    aqq = h[0, q, q]
    safe = r if live is None else np.where(live, r, 1.0)
    tau = (aqq - app) / (2.0 * safe)
    t = np.copysign(1.0, tau) / (np.abs(tau) + np.hypot(tau, 1.0))
    if live is not None:
        t = np.where(live, t, 0.0)
    c = 1.0 / np.hypot(t, 1.0)
    sigma = (t * c / safe) * a  # s e^{i arg a_pq}
    _mix(hv[:, :, ps], hv[:, :, qs], c, sigma[:, None])
    conj = _FLIP[: len(sigma)] * sigma[:, :, None]
    _mix(h[:, ps], h[:, qs], c[:, None], conj)
    tr = t * r
    h[0, p, p] = app - tr
    h[0, q, q] = aqq + tr


def _sweep(hv: np.ndarray, n: int) -> None:
    """One cyclic Jacobi sweep, in place, over hv = [H; V] of shape (parts, 2n, n, N), or H alone.

    A round rotates only the matrices with a pivot of magnitude at least
    1e-18.  When more than half of them have one, the whole stack is
    rotated in place, and the rest, copied out with ``take`` first, are
    written back (a zero-angle rotation can still turn -0.0 into +0.0).
    Otherwise the live ones are gathered (with the matrix axis still
    innermost) and scattered back, or none is rotated.  The round then
    zeroes every pivot and the imaginary diagonal of every matrix, so a
    matrix's bits depend on its own entries.
    """
    h = hv[:, :n]
    for rnd in _ROUNDS[n]:
        _, _, p, q, pivots = rnd
        a = h[:, p, q]
        r = np.sqrt(sum(a * a))
        live = r >= _TINY_PIVOT
        rotated = None if live.all() else live.any(axis=0)  # None: every pivot is live
        if rotated is None:
            _rotate(hv, n, rnd, a, r, None)
        elif 2 * np.count_nonzero(rotated) > len(rotated):
            idx = np.flatnonzero(~rotated)
            kept = hv.take(idx, axis=-1)  # a masked rotation may flip the sign of their zeros
            _rotate(hv, n, rnd, a, r, live)
            hv[..., idx] = kept
        elif rotated.any():
            idx = np.flatnonzero(rotated)
            sub = hv.take(idx, axis=-1)  # unlike hv[..., idx], keeps the matrix axis innermost
            _rotate(sub, n, rnd, *(x.take(idx, axis=-1) for x in (a, r, live)))
            hv[..., idx] = sub
        if len(h) == 2:
            h[1:, pivots[0], pivots[0]] = 0.0  # the diagonal stays real
        h[(slice(None),) + pivots] = 0.0


def _jacobi(parts, vectors: bool) -> EigenDecomposition:
    """Sorted eigendecomposition of a stack, eigenvalues (N, n) and eigenvectors (N, n, n).

    ``parts`` holds the real and, for complex matrices, the imaginary part
    of the stack, each of shape (N, n, n); one part gives float64
    eigenvectors.  Without ``vectors`` only H is rotated, and the
    eigenvectors are None.  Every matrix is checked before each sweep and
    set aside once its off-diagonal Frobenius mass is at most 1e-14, so its
    result does not depend on the rest of the stack.  The sweeps work on
    one array with the matrix axis innermost, and ``compress`` keeps it so
    when matrices are set aside; a stack that converges all at once is
    read out through a slice.
    """
    count = len(parts)
    size, n = parts[0].shape[:2]
    hv = np.empty((count, 2 * n if vectors else n, n, size))
    for k, part in enumerate(parts):  # M + M+ is Re M + Re M^T and Im M - Im M^T
        m = part.transpose(1, 2, 0)
        (np.subtract if k else np.add)(m, m.swapaxes(0, 1), out=hv[k, :n])
    hv[:, :n] *= 0.5
    if vectors:
        hv[1:, n:] = 0.0
        hv[0, n:] = np.eye(n)[:, :, None]
        rows = np.empty((count, size, n, n))  # the parts of the eigenvectors, one per row
    w = np.empty((size, n))
    live = np.arange(size)
    for _ in range(_MAX_SWEEPS):
        u = hv[(slice(None),) + _UPPER[n]]
        done = np.sqrt(2.0 * sum(sum(u * u))) <= _OFFDIAG_TARGET
        last = done.all()  # an empty stack too
        if last or done.any():
            # once every matrix is done, hv is retired whole, with no gather
            if not last:
                at, retired = live[done], hv.compress(done, axis=-1)
            else:  # a slice, not an index array, when no matrix was set aside earlier
                at, retired = (slice(None) if len(live) == size else live), hv
            w[at] = retired[0].diagonal(axis1=0, axis2=1)
            if vectors:
                rows[:, at] = retired[:, n:].transpose(0, 3, 2, 1)
            if last:
                break
            live, hv = live[~done], hv.compress(~done, axis=-1)
        _sweep(hv, n)
    else:
        raise RuntimeError("Jacobi iteration failed to converge within 100 sweeps")
    flat = (np.arange(0, size * n, n)[:, None] + np.argsort(-w, axis=1, kind="stable")).ravel()
    w = w.take(flat).reshape(size, n)
    if not vectors:
        return EigenDecomposition(w, None)
    rows = rows.reshape(count, size * n, n).take(flat, axis=1)  # one take sorts the eigenvectors
    rows = rows.reshape(count, size, n, n)
    if count == 1:
        return EigenDecomposition(w, np.ascontiguousarray(rows[0].swapaxes(1, 2)))
    v = np.empty((size, n, n), dtype=np.complex128)
    v.real, v.imag = rows.swapaxes(2, 3)
    return EigenDecomposition(w, v)


def _unchecked_eigen(stack: np.ndarray, vectors: bool = True) -> EigenDecomposition:
    """Sorted eigendecomposition of a stack (N, n, n) already known finite and Hermitian.

    The one entry of the rho and tau solves.  A float64 stack is solved in
    real arithmetic and gives float64 eigenvectors; a complex stack gives
    complex128 ones, and its real matrices are solved in real arithmetic
    too.  Without ``vectors`` no eigenvector is formed (see :func:`_jacobi`).
    """
    if not np.iscomplexobj(stack):
        return _jacobi((stack,), vectors)
    is_complex = stack.imag.any(axis=(1, 2))
    if is_complex.all():
        return _jacobi((stack.real, stack.imag), vectors)
    w = np.empty(stack.shape[:2])
    v = np.empty(stack.shape, dtype=np.complex128) if vectors else None
    for part, count in ((~is_complex, 1), (is_complex, 2)):
        sub = stack[part]
        w[part], vecs = _jacobi((sub.real, sub.imag)[:count], vectors)
        if vectors:
            v[part] = vecs
    return EigenDecomposition(w, v)


def hermitian_eigen(a) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix, or a stack, by cyclic Jacobi rotations.

    Every matrix of a stack is solved by the same vectorized sweeps, and
    its result is bit for bit the one it gets alone: in a round where all
    of a matrix's pivots are below 1e-18, that matrix is not rotated, and
    the rule reads its own entries only.  A real matrix is rotated in real
    arithmetic.  Sweeps stop once the off-diagonal Frobenius mass falls to
    1e-14, with a hard cap of 100 sweeps (never reached for valid input).
    Eigenvalues come back sorted descending, ties keeping their diagonal
    order, with the eigenvector columns permuted to match.
    """
    m, stack = _hermitian_stack(a)
    return _public(m, _unchecked_eigen(stack))


def hermitian_eigenvalues(a) -> np.ndarray:
    """The eigenvalues of :func:`hermitian_eigen`, bit for bit, without eigenvectors.

    Same checks and sweeps, but no eigenvector is accumulated, and a real
    input is checked and solved in float64 without a complex copy.
    """
    m, stack = _hermitian_stack(a)
    w = _unchecked_eigen(stack, vectors=False).eigenvalues
    return w if m.ndim == 3 else w[0]


def _hermitian_stack(a):
    """(m, stack): ``a`` as matrices, and as a stack (see :func:`_real_view`) found finite and Hermitian."""
    m = _as_matrices(a)
    stack = _real_view(m.reshape(-1, *m.shape[-2:]))
    _reject(m, _finite_fault(stack)
            or _hermitian_fault(stack, f"matrix must be Hermitian within {HERMITIAN_TOL:g}"))
    return m, stack


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
