"""Dense complex matrix routines sized for 2x2 and 4x4 Hermitian problems.

The public results are numpy ``complex128`` arrays; complex scalars are
plain Python ``complex``.  :func:`hermitian_eigen`,
:func:`hermitian_eigenvalues`, :func:`density_eigen` and
:func:`density_eigenvalues` also take a stack of shape (N, n, n).  A stack
with no nonzero imaginary part is checked and solved in float64, and is
never copied to complex on the way.  A density matrix must be finite,
Hermitian to within 1e-12, of unit trace to within 1e-12, and have
eigenvalues above -1e-10 (anything in [-1e-10, 0) counts as roundoff).
Every solve goes through one function, ``_solve``: it checks a stack
against that rule (a Hermitian matrix for finiteness and Hermiticity
only), solves it once and returns the first fault, which the public
solves raise.  The one matrix route,
:func:`qfesim.measures.oracle_deviations`, calls it for its float64
stacks of states and of taus, all in one workspace per call
(``_workspace``), whose arrays every chunk refills.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np

HERMITIAN_TOL = 1e-12
TRACE_TOL = 1e-12
EIGENVALUE_FLOOR = -1e-10

_OFFDIAG_TARGET = 1e-14
_MAX_SWEEPS = 100
_NULL_FLOOR = 1e-13
_TINY_PIVOT = 1e-18  # an off-diagonal entry below this is zeroed, not rotated away


def _as_slice(index: np.ndarray) -> slice:
    """Indices in arithmetic progression as a slice, so that a gather of their columns is a view."""
    step = int(index[1] - index[0]) if len(index) > 1 else 1
    stop = int(index[-1]) + step
    return slice(int(index[0]), stop if stop >= 0 else None, step)


def _pivots(pairs):
    """Column slices of the p's and q's of some pairs of a round, their indices, and pivots."""
    p, q = (np.array(side) for side in zip(*pairs))
    return _as_slice(p), _as_slice(q), p, q, (np.r_[p, q], np.r_[q, p])


def _round(*pairs):
    """A round's pivots, and its rotation on each nonempty subset of them, keyed by liveness."""
    keys = itertools.product((False, True), repeat=len(pairs))
    return _pivots(pairs), {key: _pivots(list(itertools.compress(pairs, key)))
                            for key in keys if any(key)}


# Parallel (Brent & Luk) ordering: each round rotates disjoint (p, q) pairs,
# so a round is one vectorized step, and a sweep visits every pair once.
_ROUNDS = {
    2: [_round((0, 1))],
    4: [_round((0, 1), (2, 3)), _round((0, 2), (1, 3)), _round((0, 3), (1, 2))],
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


def _in_stack(m: np.ndarray, index: int) -> str:
    return f" (matrix {index} of the stack)" if m.ndim == 3 else ""


def _first(bad: np.ndarray):
    return int(np.argmax(bad)) if bad.any() else None


def _finite_fault(stack: np.ndarray):
    """(index, reason) of the first matrix with a non-finite entry; one pass when there is none."""
    if np.isfinite(stack).all():
        return None
    return _first(~np.isfinite(stack).all(axis=(1, 2))), "matrix entries must be finite"


def _hermitian_fault(stack: np.ndarray, reason: str, work=None):
    """(index, reason) of the first matrix with max |M - M+| above 1e-12; reason ends with it.

    The whole stack is tested in one pass, and the defect per matrix is
    formed only when one fails.  A real stack's defect is formed in place,
    in the ``hv`` region of ``work`` when given.
    """
    if np.iscomplexobj(stack):
        defect = np.abs(stack - stack.conj().swapaxes(1, 2))
    else:
        defect = np.subtract(stack, stack.swapaxes(1, 2), out=_scratch(work, "hv", *stack.shape))
        np.abs(defect, out=defect)
    if not defect.max(initial=0.0) > HERMITIAN_TOL:
        return None
    defect = defect.max(axis=(1, 2))
    i = _first(defect > HERMITIAN_TOL)
    return i, f"{reason}: max |M - M+| = {defect[i]:.3e}"


def _trace_fault(stack: np.ndarray):
    """(index, reason) of the first matrix whose trace is off 1 by more than 1e-12."""
    trace = np.trace(stack, axis1=1, axis2=2)
    i = _first(np.abs(trace - 1.0) > TRACE_TOL)
    return None if i is None else (
        i, f"density matrix must have unit trace, got {complex(trace[i])}")


def _psd_fault(w: np.ndarray):
    """(index, reason) of the first row of descending spectra w below the floor."""
    i = _first(w[:, -1] < EIGENVALUE_FLOOR)
    return None if i is None else (i, "density matrix must be positive semidefinite: "
                                      f"smallest eigenvalue {w[i, -1]:.3e}")


def _solve(a, density: bool, vectors: bool = True, work=None):
    """(m, eig, fault): ``a`` as matrices, and its checked solve as a stack (N, n, n).

    ``fault`` is the (index, reason) of the first matrix of the stack that
    is not finite or Hermitian to within 1e-12 or, for a ``density``
    matrix, not of unit trace or, after the one solve, below the PSD
    floor, else None; ``eig`` is None when the solve never ran.  A stack
    with no nonzero imaginary part is checked and solved in float64, in
    ``work`` when given (see :func:`_workspace`), and gives float64
    eigenvectors.  Without ``vectors`` the solve forms no eigenvector.
    """
    m = _as_matrices(a)
    stack = m.reshape(-1, *m.shape[-2:])
    if np.iscomplexobj(stack) and not stack.imag.any():
        stack = stack.real
    hermitian = ("density matrix must be Hermitian" if density
                 else f"matrix must be Hermitian within {HERMITIAN_TOL:g}")
    fault = (_finite_fault(stack) or _hermitian_fault(stack, hermitian, work)
             or (_trace_fault(stack) if density else None))
    if fault is not None:
        return m, None, fault
    eig = _unchecked_eigen(stack, vectors, work)
    return m, eig, _psd_fault(eig.eigenvalues) if density else None


def _checked(a, density: bool, vectors: bool = True) -> EigenDecomposition:
    """:func:`_solve` with its fault raised, complex128 eigenvectors, unstacked for one matrix."""
    m, eig, fault = _solve(a, density, vectors)
    if fault is not None:
        raise ValueError(fault[1] + _in_stack(m, fault[0]))
    at = slice(None) if m.ndim == 3 else 0
    w, v = eig
    return EigenDecomposition(w[at], None if v is None else v[at].astype(np.complex128, copy=False))


def density_eigen(rho) -> EigenDecomposition:
    """Validated eigendecomposition of a density matrix, or a stack of them.

    Checks finiteness, Hermiticity and unit trace, solves once by the
    sweeps of :func:`hermitian_eigen` (without checking again) and applies
    the -1e-10 PSD floor.  A failure raises ValueError naming the violated
    property and, for a stack, the first offending matrix.  One matrix
    gives the bits of a stack of one.
    """
    return _checked(rho, True)


def density_eigenvalues(rho) -> np.ndarray:
    """The eigenvalues of :func:`density_eigen`, bit for bit, without eigenvectors.

    Same checks, sweeps and PSD floor, but no eigenvector is accumulated.
    """
    return _checked(rho, True, vectors=False).eigenvalues


def _mix(x, y, c, sigma, live=None, work=None) -> None:
    """x, y <- c x - conj(sigma) y, sigma x + c y, in place; complex as (re[, im]) on axis 0.

    Only where ``live`` (which broadcasts against x) is true, when it is
    given; elsewhere x and y keep every bit.  A masked mix copies the new
    x and y in under the mask rather than building a masked result.  A
    real mix keeps its temporaries in the regions of ``work``, when given.
    """
    sr = sigma[0]
    if len(sigma) == 1:
        sigma_x = np.multiply(sr, x, out=_scratch(work, "sigma_x", *x.shape))
        conj_y = np.multiply(sr, y, out=_scratch(work, "conj_y", *y.shape))
    else:
        k = _FLIP * sigma[1]  # conj(sigma) y = sr y + k swap(y) and sigma x = sr x - k swap(x)
        sigma_x = sr * x - k * x[::-1]
        conj_y = sr * y + k * y[::-1]
    if live is None:
        x *= c
        x -= conj_y
        y *= c
        y += sigma_x
    else:  # the new x and y in place of conj_y and sigma_x
        cx = _scratch(work, "cx", *x.shape)
        np.copyto(x, np.subtract(np.multiply(x, c, out=cx), conj_y, out=conj_y), where=live)
        np.copyto(y, np.add(np.multiply(y, c, out=cx), sigma_x, out=sigma_x), where=live)


def _rotate(hv: np.ndarray, n: int, pivots: dict, a, r, live, work=None) -> None:
    """One round's rotations, in place, of hv = [H; V], pivots a of moduli r (live: r >= 1e-18).

    Each rotation J annihilates H[p, q]: H <- J+ H J and V <- V J.  The new
    diagonal is a_pp - t|a_pq| and a_qq + t|a_pq| (Rutishauser's form), which
    keeps small eigenvalues to high relative accuracy (Demmel & Veselic).
    A pivot is rotated in exactly the matrices where it is live.  One that
    is live in none is left out (``pivots`` gives the columns of each set
    of live pivots), one live in all is mixed in place, and otherwise the
    mixes are masked, so a dead pivot keeps every bit (a zero-angle
    rotation could still turn a -0.0 into +0.0).  Every column mix of the
    round comes before every row mix.  hv may hold H alone.
    """
    used = live.any(axis=-1)
    if not used.all():
        a, r, live = (x.compress(used, axis=-2) for x in (a, r, live))
    ps, qs, p, q, _ = pivots[tuple(used.tolist())]
    mask = None if live.all() else live
    h = hv[:, :n]
    app = h[0, p, p]
    aqq = h[0, q, q]
    safe = r if mask is None else np.where(mask, r, 1.0)
    tau = (aqq - app) / (2.0 * safe)
    t = np.copysign(1.0, tau) / (np.abs(tau) + np.hypot(tau, 1.0))
    c = 1.0 / np.hypot(t, 1.0)
    sigma = (t * c / safe) * a  # s e^{i arg a_pq}
    _mix(hv[:, :, ps], hv[:, :, qs], c, sigma[:, None], mask, work)
    conj = _FLIP[: len(sigma)] * sigma[:, :, None]
    _mix(h[:, ps], h[:, qs], c[:, None], conj, None if mask is None else mask[:, None], work)
    tr = t * r
    if mask is None:
        h[0, p, p] = app - tr
        h[0, q, q] = aqq + tr
    else:
        h[0, p, p] = np.where(mask, app - tr, app)
        h[0, q, q] = np.where(mask, aqq + tr, aqq)


def _sweep(hv: np.ndarray, n: int, done: np.ndarray, work=None) -> None:
    """One cyclic Jacobi sweep, in place, over hv = [H; V] of shape (parts, 2n, n, N), or H alone.

    Per round, each pivot is rotated in exactly the matrices where it has a
    magnitude of at least 1e-18 and that are not ``done`` (see
    :func:`_rotate`), so a converged matrix is rotated on no pivot.  When
    more than half of the matrices have a live pivot, the whole stack is
    rotated in place; otherwise those are gathered (with the matrix axis
    still innermost) and scattered back, or none is rotated.  The round
    then zeroes every pivot and the imaginary diagonal of every matrix, so
    a matrix's bits depend on its own entries.
    """
    h = hv[:, :n]
    for (_, _, p, q, pivots), live_pivots in _ROUNDS[n]:
        a = h[:, p, q]
        r = np.sqrt(sum(a * a))
        live = (r >= _TINY_PIVOT) & ~done
        rotated = live.any(axis=0)
        count = np.count_nonzero(rotated)
        if 2 * count > len(rotated):
            _rotate(hv, n, live_pivots, a, r, live, work)
        elif count:
            idx = np.flatnonzero(rotated)
            sub = hv.take(idx, axis=-1)  # unlike hv[..., idx], keeps the matrix axis innermost
            _rotate(sub, n, live_pivots, *(x.take(idx, axis=-1) for x in (a, r, live)), work)
            hv[..., idx] = sub
        if len(h) == 2:
            h[1:, pivots[0], pivots[0]] = 0.0  # the diagonal stays real
        h[(slice(None),) + pivots] = 0.0


def _workspace(size: int, n: int = 4, **extra: int) -> dict:
    """Flat float64 regions, views of one buffer, for solving up to ``size`` real n x n matrices.

    A caller that solves chunk after chunk makes one per call, so that
    concurrent callers share nothing, and hands it to every solve (see
    :func:`_jacobi`), which refills its regions in place: ``hv``, the
    unsorted ``vectors`` and ``w``, the sorted ``values``, and the three
    temporaries of each mix (see :func:`_mix`).
    ``extra`` names more regions, of so many words per matrix, for the
    caller.  One buffer rather than one array per region also keeps glibc
    from trimming the heap after each call and faulting it back in on the
    next, while a call's other temporaries stay well below its size:
    freeing a block of its size raises glibc's mmap and trim thresholds
    past it.
    """
    words = dict(hv=2 * n * n, vectors=n * n, w=n, values=n, sigma_x=n * n, conj_y=n * n, cx=n * n,
                 **extra)
    ends = size * np.cumsum(list(words.values()))
    return dict(zip(words, np.split(np.empty(ends[-1]), ends[:-1])))


def _scratch(work, region: str, *shape: int) -> np.ndarray:
    """A C-contiguous float64 array of ``shape``: the head of ``work[region]``, or new."""
    return np.empty(shape) if work is None else work[region][: math.prod(shape)].reshape(shape)


def _converged(hv: np.ndarray, n: int) -> np.ndarray:
    """Per matrix of hv = [H; V], whether the off-diagonal Frobenius mass of H is at most 1e-14."""
    u = hv[(slice(None),) + _UPPER[n]]
    mass = np.add.reduce(np.add.reduce(u * u), axis=0)  # over the parts, then entry by entry
    return np.sqrt(2.0 * mass) <= _OFFDIAG_TARGET


def _jacobi(parts, vectors: bool, work=None) -> EigenDecomposition:
    """Sorted eigendecomposition of a stack, eigenvalues (N, n) and eigenvectors (N, n, n).

    ``parts`` holds the real and, for complex matrices, the imaginary part
    of the stack, each of shape (N, n, n); one part gives float64
    eigenvectors.  Without ``vectors`` only H is rotated, and the
    eigenvectors are None.  Every matrix is checked before each sweep, and
    once its off-diagonal Frobenius mass is at most 1e-14 it is rotated no
    more (see :func:`_sweep`), so its result does not depend on the rest of
    the stack.  The sweeps work on one array with the matrix axis
    innermost, and w and V are read out of it once, after the last sweep.
    With a :func:`_workspace` (one part only), the solve allocates no
    stack-sized array, and its results are views of the workspace, valid
    until its next solve.
    """
    count = len(parts)
    size, n = parts[0].shape[:2]
    hv = _scratch(work, "hv", count, 2 * n if vectors else n, n, size)
    for k, part in enumerate(parts):  # M + M+ is Re M + Re M^T and Im M - Im M^T
        h = hv[k, :n]
        h.reshape(n * n, size)[...] = part.reshape(size, n * n).T  # matrix axis last
        (np.subtract if k else np.add)(h, h.swapaxes(0, 1).copy(), out=h)
    hv[:, :n] *= 0.5
    if vectors:
        hv[1:, n:] = 0.0
        hv[0, n:] = np.eye(n)[:, :, None]
    for _ in range(_MAX_SWEEPS):
        done = _converged(hv, n)
        if done.all():  # an empty stack too
            break
        _sweep(hv, n, done, work)
    else:
        raise RuntimeError(f"Jacobi iteration failed to converge within {_MAX_SWEEPS} sweeps")
    w = _scratch(work, "w", size, n)
    w[...] = hv[0].diagonal(axis1=0, axis2=1)
    order = np.argsort(-w, axis=1, kind="stable")
    values = w.take(np.arange(0, size * n, n)[:, None] + order,
                    out=_scratch(work, "values", size, n), mode="clip")
    if not vectors:
        return EigenDecomposition(values, None)
    unsorted = _scratch(work, "vectors", count, size, n, n)  # the parts of each V, row-major
    unsorted[...] = hv[:, n:].transpose(0, 3, 1, 2)
    # one take sorts each V's columns, into hv, which is free once the sweeps are done
    columns = np.arange(0, size * n * n, n).reshape(size, n, 1) + order[:, None, :]
    if count == 1:
        return EigenDecomposition(values, unsorted[0].take(
            columns, out=_scratch(work, "hv", size, n, n), mode="clip"))
    v = np.empty((size, n, n), dtype=np.complex128)
    v.real, v.imag = (part.take(columns) for part in unsorted)
    return EigenDecomposition(values, v)


def _unchecked_eigen(stack: np.ndarray, vectors: bool = True, work=None) -> EigenDecomposition:
    """Sorted eigendecomposition of a stack (N, n, n) already known finite and Hermitian.

    The one entry of the rho and tau solves.  A float64 stack is solved in
    real arithmetic, in ``work`` when given, and gives float64
    eigenvectors; a complex stack gives complex128 ones, and its real
    matrices are solved in real arithmetic too.  Without ``vectors`` no
    eigenvector is formed (see :func:`_jacobi`).
    """
    if not np.iscomplexobj(stack):
        return _jacobi((stack,), vectors, work)
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
    its result is bit for bit the one it gets alone: a pivot below 1e-18
    in a matrix is not rotated in it, whatever the round's other pivots
    are, and the rule reads the matrix's own entries only.  A real matrix
    is rotated in real arithmetic.  A matrix is rotated no more once its
    off-diagonal Frobenius mass falls to 1e-14, and the sweeps stop once
    every matrix's has, with a hard cap of 100 sweeps (never reached for
    valid input).
    Eigenvalues come back sorted descending, ties keeping their diagonal
    order, with the eigenvector columns permuted to match.
    """
    return _checked(a, False)


def hermitian_eigenvalues(a) -> np.ndarray:
    """The eigenvalues of :func:`hermitian_eigen`, bit for bit, without eigenvectors.

    Same checks and sweeps, but no eigenvector is accumulated, and a real
    input is checked and solved in float64 without a complex copy.
    """
    return _checked(a, False, vectors=False).eigenvalues


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
