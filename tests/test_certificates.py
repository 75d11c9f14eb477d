"""Symbolic certificates for the closed forms and the claims the README makes of them.

Each identity is proved as a polynomial identity in sympy rather than
sampled.  sin theta and cos theta are plain symbols ``s`` and ``c``
(``Matrix.charpoly`` rejects assumption-carrying symbols), and
``s**2 + c**2 = 1`` is applied as a polynomial remainder where it is
needed.  The concurrence certificates work in ``x = sqrt(q)`` with
``n = nu**2``; the weights depend on theta through s^2 and c^2 only, so
s, c >= 0 loses nothing once sin 2theta is read as |sin 2theta|.  The
universal maximum of the fluctuation is pinned with mpmath at 50 digits.
Each certificate is tied back to the code by a numerical check.
"""

import math

import mpmath
import numpy as np
import sympy as sp

from qfesim import measures
from qfesim.detector import weights_grid, x_state_rho

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


# --- the weights and the concurrence in x = sqrt(q) ------------------------------

sp_, cp, x, n, d_ = sp.symbols("s c x n d", positive=True)
DENOMINATOR = (1 - x**2) + n * (sp_**2 + x**2 * cp**2)  # weights_grid's d at q = x^2


def _weights(d):
    """weights_grid's (mu, upsilon, eta) at q = x^2 over the denominator d."""
    return (1 - x**2) / (2 * d), n * x**2 * cp**2 / d, n * sp_**2 / d


def _concurrence_numerator():
    """(1 - x^2 - n x), the factor of C that carries its sign."""
    return 1 - x**2 - n * x


CONCURRENCE = 2 * sp_ * cp * _concurrence_numerator() / DENOMINATOR


def test_weights_are_normalized_identically():
    mu_, upsilon_, eta_ = _weights(DENOMINATOR)
    assert sp.cancel(2 * mu_ + upsilon_ + eta_ - 1) == 0  # no trigonometric reduction needed
    theta, nu, q = 0.7, 0.3, 0.6
    values = {sp_: math.sin(theta), cp: math.cos(theta), n: nu * nu, x: math.sqrt(q)}
    symbolic = [float(w.subs(values)) for w in _weights(DENOMINATOR)]
    np.testing.assert_allclose(symbolic, [float(w) for w in weights_grid(theta, nu, q)],
                               rtol=1e-15, atol=0.0)


def test_concurrence_in_sqrt_q():
    # C = 2 mu sin 2theta - 2 sqrt(eta upsilon), with d > 0 kept as a positive symbol
    mu_, upsilon_, eta_ = _weights(d_)
    closed = 2 * mu_ * (2 * sp_ * cp) - 2 * sp.sqrt(eta_ * upsilon_)
    assert sp.cancel(closed.subs(d_, DENOMINATOR) - CONCURRENCE) == 0
    rng = np.random.default_rng(3)
    theta, nu, q = (rng.uniform(0.0, hi, 2000) for hi in (math.pi / 2, 0.999, 0.9999))
    grid = measures.evaluate_grid(theta, nu, q)
    s, c, root, nn = np.sin(theta), np.cos(theta), np.sqrt(q), nu * nu
    formula = 2 * s * c * (1 - q - nn * root) / (1 - q + nn * (s * s + c * c * q))
    alive = grid.concurrence > 0.0
    assert alive.sum() > 1000
    np.testing.assert_allclose(grid.concurrence[alive], formula[alive], rtol=0.0, atol=1e-13)
    assert np.all(formula[~alive] <= 1e-12)  # the clamp to 0 is where the formula is <= 0


def test_concurrence_strictly_decreases_in_q():
    # the README's rise/peak/collapse: C falls monotonically with acceleration, QFE = f(C)
    numerator, denominator = sp.fraction(sp.together(sp.diff(CONCURRENCE / (2 * sp_ * cp), x)))
    assert sp.expand(denominator - DENOMINATOR**2) == 0
    s2, c2 = sp.symbols("s2 c2")
    claimed = -n * (x**2 * (1 - n * c2) + n * s2 + 2 * x + 1)
    difference = sp.expand(numerator - claimed.subs({s2: sp_**2, c2: cp**2}))
    assert sp.rem(difference, cp**2 + sp_**2 - 1, cp) == 0
    # 0 < nu < 1 makes 1 - n c2 positive, so every term of the bracket is positive
    one_minus, x0, n0, s20 = sp.symbols("u x n s2", positive=True)
    assert (x0**2 * one_minus + n0 * s20 + 2 * x0 + 1).is_positive
    qs = np.linspace(0.0, 0.9999, 2001)
    for theta in (0.2, math.pi / 4, 1.3):
        c = measures.evaluate_grid(theta, 0.05, qs).concurrence
        assert np.all(np.diff(c[c > 0.0]) < 0.0)


def test_sudden_death_point_is_independent_of_theta():
    # the README's sudden death: C = 0 exactly at x_d, whatever the initial entanglement
    x_death = 2 / (sp.sqrt(n**2 + 4) + n)
    assert sp.simplify(_concurrence_numerator().subs(x, x_death)) == 0
    assert x_death.free_symbols == {n}
    q_death = (x_death**2).subs(n, sp.Rational(1, 400))  # nu = 0.05
    assert str(sp.N(q_death, 12)).startswith("0.997503123")
    q_d = float(q_death)
    for theta in (0.1, math.pi / 5, math.pi / 4, math.pi / 3, 1.5):
        grid = measures.evaluate_grid(theta, 0.05, np.array([q_d * (1 - 1e-9), q_d * (1 + 1e-9)]))
        assert grid.concurrence[0] > 0.0 and grid.concurrence[1] == 0.0


# --- the universal maximum of QFE = f(C) -------------------------------------------

C_STAR = "0.55243412453088321725"
F_STAR = "0.95613664447685894"


def test_universal_maximum_of_the_fluctuation():
    # the README's universal maximum: f(C) = C log2((1 + sqrt(1 - C^2)) / C) peaks at C*
    with mpmath.workdps(50):
        def f(value):
            return value * mpmath.log((1 + mpmath.sqrt(1 - value * value)) / value, 2)

        c_star = mpmath.mpf(C_STAR)
        assert abs(mpmath.diff(f, c_star)) < mpmath.mpf("1e-19")
        assert abs(mpmath.findroot(lambda v: mpmath.diff(f, v), mpmath.mpf("0.5")) - c_star) \
            < mpmath.mpf("1e-20")
        assert mpmath.diff(f, c_star, 2) < 0
        assert abs(f(c_star) - mpmath.mpf(F_STAR)) < mpmath.mpf("1e-17")
    assert abs(measures.qfe_from_concurrence(float(C_STAR)) - float(F_STAR)) <= 2e-16


# --- the abstract's "~0.96" ---------------------------------------------------------


def test_the_two_readings_of_the_abstracts_q_of_0_96():
    # at theta = pi/4, C = (1 - q - nu^2 sqrt q) / (1 - q + nu^2 (1 + q) / 2); the QFE
    # peak (C = C*) and sudden death (1 - q = nu^2 sqrt q) each sit at q = 0.96 for one nu
    with mpmath.workdps(30):
        def f(value):
            return value * mpmath.log((1 + mpmath.sqrt(1 - value * value)) / value, 2)

        c_star = mpmath.findroot(lambda v: mpmath.diff(f, v), mpmath.mpf("0.5"))
        q = mpmath.mpf("0.96")
        nu_peak = mpmath.sqrt((1 - q) * (1 - c_star) / (c_star * (1 + q) / 2 + mpmath.sqrt(q)))
        nu_death = mpmath.sqrt((1 - q) / mpmath.sqrt(q))
        for value, printed in ((c_star, "0.552434124531"), (nu_peak, "0.108484573101"),
                               (nu_death, "0.202051550468")):
            assert mpmath.nstr(value, 12) == printed
    # the README's 7-digit readings, and the code's concurrence at them
    assert abs(float(nu_peak) - 0.1084846) <= 1e-7 and abs(float(nu_death) - 0.2020516) <= 1e-7
    peak, death = measures.evaluate_grid(math.pi / 4, np.array([float(nu_peak), float(nu_death)]),
                                         0.96).concurrence
    assert abs(peak - float(c_star)) <= 1e-12 and death <= 1e-12
