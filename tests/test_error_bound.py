"""The float64 error bound of the closed forms, against a 50-digit reference.

The inputs ``(theta, nu, q)`` are exact doubles, and mpmath evaluates the
same formulas from them at 50 digits.  Each printed quantity's error is at
most ``K * eps`` times its condition number (Higham, *Accuracy and
Stability of Numerical Algorithms*, 2nd ed., sections 1.6-1.7):

* the weights are sums, products and quotients of non-negative terms, so
  their relative error is at most ``K * eps``;
* ``C = a - b`` with ``a = 2 mu |sin 2theta|`` and ``b = 2 sqrt(eta upsilon)``
  has ``kappa(C) = (a + b) / C``, which grows without bound toward sudden
  death (Yu & Eberly, PRL 93, 140404 (2004)).  The bound is checked in its
  absolute form ``|dC| <= K eps (a + b)``, which also holds past death,
  where C is clamped to 0;
* ``S = -sum p log2 p`` over ``{2 mu, eta, upsilon}`` has
  ``|dS| <= K eps sum p (|log2 p| + log2 e)``;
* ``QFE = f(C)`` has relative error at most ``K eps (1 + kappa_f kappa(C))``
  with ``kappa_f = |C f'(C) / f(C)|``; it is checked where ``C > 1e-10``,
  clear of the ``1e-12`` below which QFE is defined as 0.

The largest ratio of error to bound seen on these points is 2.2 (weights),
1.2 (C), 0.8 (S) and 0.8 (QFE), so ``K = 8`` leaves a margin of ~4.
"""

import math

import numpy as np
import pytest
from mpmath import mp, mpf

from qfesim import measures

K = 8
EPS = np.finfo(float).eps


def _death_q(nu: float) -> float:
    """q of sudden death, x_d**2 with x_d = 2 / (sqrt(nu**4 + 4) + nu**2) (test_certificates)."""
    with mp.workdps(50):
        n = mpf(nu) ** 2
        return float((2 / (mp.sqrt(n * n + 4) + n)) ** 2)


def _generic():
    return [(theta, nu, q)
            for theta in (0.0, math.pi / 8, math.pi / 4, math.pi / 3, math.pi / 2)
            for nu in (0.0, 1e-3, 0.05, 0.1, 0.5)
            for q in (0.0, 0.3, 0.9, 0.99)]


def _sudden_death():
    points = []
    for theta in (0.2, math.pi / 4, math.pi / 3):
        for nu in (1e-3, 0.05):
            q_d = _death_q(nu)
            points += [(theta, nu, q_d * (1.0 - 10.0**-k)) for k in range(2, 16)]
            points += [(theta, nu, q) for q in (np.nextafter(q_d, 0.0), q_d, np.nextafter(q_d, 1.0))]
    return points


def _q_to_one():
    return [(math.pi / 4, nu, 1.0 - 2.0**-k) for nu in (0.0, 1e-3, 0.05) for k in range(1, 53)]


def _reference(theta, nu, q):
    """Weights, C with a + b, S with its error scale, and QFE with its bound, at 50 digits."""
    s, c = mp.sin(mpf(theta)), mp.cos(mpf(theta))
    n2, q = mpf(nu) ** 2, mpf(q)
    d = (1 - q) + n2 * (s * s + q * c * c)
    mu, upsilon, eta = (1 - q) / (2 * d), n2 * q * c * c / d, n2 * s * s / d
    a, b = 2 * mu * abs(2 * s * c), 2 * mp.sqrt(eta * upsilon)
    C = min(mpf(1), max(mpf(0), a - b))
    spectrum = [p for p in (2 * mu, eta, upsilon) if p > 0]
    S = -sum(p * mp.log(p, 2) for p in spectrum)
    S_scale = sum(p * (abs(mp.log(p, 2)) + 1 / mp.log(2)) for p in spectrum)
    qfe = qfe_bound = None
    if 1e-10 < C < 1:
        r = mp.sqrt(1 - C * C)
        log_term = mp.log((1 + r) / C, 2)
        qfe = C * log_term
        slope = log_term - (1 + C * C / (r * (1 + r))) / mp.log(2)  # f'(C)
        kappa_f = abs(C * slope / qfe)
        qfe_bound = K * EPS * (1 + kappa_f * (a + b) / C) * qfe
    return (mu, upsilon, eta), C, a + b, S, S_scale, qfe, qfe_bound


@pytest.mark.parametrize("points", [_generic(), _sudden_death(), _q_to_one()],
                         ids=["generic", "sudden-death", "q-to-one"])
def test_closed_forms_stay_within_k_eps_kappa_of_a_50_digit_reference(points):
    theta, nu, q = (np.array(column) for column in zip(*points))
    grid = measures.evaluate_grid(theta, nu, q)
    with mp.workdps(50):
        for i, point in enumerate(points):
            weights, C, ab, S, S_scale, qfe, qfe_bound = _reference(*point)
            for got, want in zip((grid.mu[i], grid.upsilon[i], grid.eta[i]), weights):
                assert abs(mpf(float(got)) - want) <= K * EPS * want, point
            assert abs(mpf(float(grid.concurrence[i])) - C) <= K * EPS * ab, point
            assert abs(mpf(float(grid.entropy[i])) - S) <= K * EPS * S_scale, point
            if qfe is not None:
                assert abs(mpf(float(grid.qfe[i])) - qfe) <= qfe_bound, point


def test_the_reference_reaches_both_cancellation_regimes():
    # the sudden-death points run C down to ~1e-14 and past zero, where kappa(C) is
    # huge, and q -> 1 drives eta and upsilon to the whole weight
    death = _sudden_death()
    grid = measures.evaluate_grid(*(np.array(column) for column in zip(*death)))
    positive = grid.concurrence[grid.concurrence > 0.0]
    assert positive.min() < 1e-13 and positive.max() > 1e-3
    assert (grid.concurrence == 0.0).any()
    one = measures.evaluate_grid(math.pi / 4, 0.05, 1.0 - 2.0**-52)
    assert one.mu[0] < 1e-12 and one.concurrence[0] == 0.0
