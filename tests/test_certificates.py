"""Symbolic certificates for the identities the oracle's deviation columns compare against.

Each identity is proved as a polynomial identity in sympy rather than
sampled.  sin theta and cos theta are plain symbols ``s`` and ``c``
(``Matrix.charpoly`` rejects assumption-carrying symbols), and
``s**2 + c**2 = 1`` is applied as a polynomial remainder where it is
needed.
"""

import math

import numpy as np
import sympy as sp

from qfesim import measures
from qfesim.detector import x_state_rho

s, c, mu, upsilon, eta, lam = sp.symbols("s c mu upsilon eta lambda")

# x_state_rho's layout in the basis |00>, |01>, |10>, |11>
RHO = sp.Matrix([
    [eta, 0, 0, 0],
    [0, 2 * mu * s**2, mu * 2 * s * c, 0],
    [0, mu * 2 * s * c, 2 * mu * c**2, 0],
    [0, 0, 0, upsilon],
])
SIGMA_Y = sp.Matrix([[0, -sp.I], [sp.I, 0]])
FLIP = sp.kronecker_product(SIGMA_Y, SIGMA_Y)


def _det_minus(m):
    return sp.expand((m - lam * sp.eye(4)).det())


def test_symbolic_state_is_x_state_rho():
    theta, weights = 0.7, (0.3, 0.25, 0.15)
    values = {s: math.sin(theta), c: math.cos(theta), mu: weights[0],
              upsilon: weights[1], eta: weights[2]}
    symbolic = np.array(RHO.subs(values).evalf(), dtype=float)
    np.testing.assert_allclose(symbolic, x_state_rho(theta, *weights).real, rtol=0.0, atol=1e-16)
    assert np.array_equal(np.array(FLIP, dtype=float), measures.FLIP_OPERATOR.real)
    assert not measures.FLIP_OPERATOR.imag.any()


def test_x_state_characteristic_polynomial_is_the_entropy_spectrum():
    # det(rho - lambda I) = lambda (lambda - 2 mu)(lambda - eta)(lambda - upsilon)
    target = sp.expand(lam * (lam - 2 * mu) * (lam - eta) * (lam - upsilon))
    difference = _det_minus(RHO) - target
    assert difference != 0  # it vanishes only on the circle s^2 + c^2 = 1
    assert sp.rem(difference, c**2 + s**2 - 1, c) == 0


def test_spin_flip_spectrum_of_the_x_state():
    # rho~ = (sy x sy) conj(rho) (sy x sy); rho is real, so conj(rho) = rho
    product = RHO * (FLIP * RHO * FLIP)
    big = 4 * mu**2 * (2 * s * c) ** 2  # 4 mu^2 sin^2(2 theta)
    target = sp.expand(lam * (lam - big) * (lam - eta * upsilon) ** 2)
    assert sp.expand(_det_minus(product) - target) == 0
