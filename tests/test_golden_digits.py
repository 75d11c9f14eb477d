"""Every printed digit of the figure and sweep goldens is correctly rounded.

Each golden row is recomputed from the exact doubles ``(theta, nu, q)`` the
CLI evaluated, with mpmath at 50 digits: the weights, the concurrence
(clamped to [0, 1]), the entropy, the fluctuation (0 at C <= 1e-12) and the
ratio.  A printed field passes when it lies within half a unit of its 9th
significant digit of the 50-digit value, which is what a correctly rounded
``%#.9g`` prints; an exact zero must print as zero; a blank ratio needs an
exact C <= 1e-12.  The inputs themselves must print correctly rounded too,
which also pins each row to its point.

One case is beyond float64: where the exact C rounds to the double 1.0
(``sweep_q_nu0``: nu = 0 and theta the double nearest pi/4, so
C = |sin 2 theta| = 1 - 1.9e-33), the fluctuation
C log2((1 + sqrt(1 - C^2)) / C) has an unbounded condition number.  The
50-digit value is 8.8e-17, while the float64 C is 1 and the printed
fluctuation and ratio are those of C = 1, namely 0.  Those fields must print
exactly that; the script counts them apart.

Tier-1 audits every ``STRIDE``-th row of each golden, a stride chosen for
runtime alone.  The full audit of every row runs as a script and prints its
counts and the worst distance in units of the 9th digit:

    PYTHONPATH=src python tests/test_golden_digits.py
"""

import math
import sys

import pytest
from mpmath import mp, mpf

from qfesim.detector import DetectorParams
from qfesim.sweep import SweepSpec, figure_preset, sweep_grid
from test_golden import read_golden

STRIDE = 9  # rows; keeps the tier-1 audit near one second
GRIDS = {
    "figure_fig1": lambda: figure_preset("fig1"),
    "figure_fig2": lambda: figure_preset("fig2"),
    "figure_fig3": lambda: figure_preset("fig3"),
    "sweep_q_nu0": lambda: [SweepSpec("q", 0.0, 0.9999, 201,
                                      DetectorParams(theta=math.pi / 4, nu=0.0))],
    "sweep_q_nu01": lambda: [SweepSpec("q", 0.0, 0.999, 201,
                                       DetectorParams(theta=math.pi / 3, nu=0.1))],
}


def exact_row(theta: float, nu: float, q: float) -> list:
    """The ten CSV columns at 50 digits; the ratio is None where it prints blank."""
    with mp.workdps(50):
        theta, nu, q = mpf(theta), mpf(nu), mpf(q)
        s, c = mp.sin(theta), mp.cos(theta)
        n2 = nu * nu
        d = (1 - q) + n2 * (s * s + q * c * c)
        mu, upsilon, eta = (1 - q) / (2 * d), n2 * q * c * c / d, n2 * s * s / d
        C = min(mpf(1), max(mpf(0), 2 * mu * abs(2 * s * c) - 2 * mp.sqrt(eta * upsilon)))
        S = -sum(p * mp.log(p, 2) for p in (2 * mu, eta, upsilon) if p > 0)
        qfe = ratio = None
        if C > mpf(1e-12):
            qfe = C * mp.log((1 + mp.sqrt(1 - C * C)) / C, 2)
            ratio = qfe / C
        return [q, theta, nu, mu, upsilon, eta, C, S, qfe if qfe is not None else mpf(0), ratio]


def digit_error(field: str, exact) -> float:
    """|printed - exact| in units of the 9th significant digit of ``exact``; 0 for an exact zero."""
    with mp.workdps(50):
        if exact == 0:
            return 0.0 if float(field) == 0.0 else math.inf
        unit = mpf(10) ** (mp.floor(mp.log10(abs(exact))) - 8)
        return float(abs(mpf(field) - exact) / unit)


def audit(name: str, stride: int) -> tuple[int, int, int, float, list]:
    """Over every ``stride``-th row: (fields checked, of them nonzero weights and
    measures, of them at a C that rounds to 1, worst digit error, failures)."""
    grid = sweep_grid(GRIDS[name]())
    lines = read_golden(name).decode("ascii").splitlines()[1:]
    assert len(lines) == len(grid.q)
    checked, measures, at_one, worst, failures = 0, 0, 0, 0.0, []
    for i in range(0, len(lines), stride):
        fields = lines[i].split(",")
        exact = exact_row(float(grid.theta[i]), float(grid.nu[i]), float(grid.q[i]))
        C = exact[6]
        if exact[9] is None:
            fields, exact = fields[:9], exact[:9]
            if C > mpf(1e-12):
                failures.append((name, i, "ratio", "", C))
        if float(C) == 1.0 and C < 1:  # f(C) at the float64 C, which is 1
            at_one += len(fields) - 8
            exact[8:] = [mpf(0)] * (len(fields) - 8)
        for column, (field, value) in enumerate(zip(fields, exact)):
            error = digit_error(field, value)
            checked += 1
            measures += column >= 3 and value != 0
            worst = max(worst, error)
            if not error <= 0.5:
                failures.append((name, i, column, field, value))
    return checked, measures, at_one, worst, failures


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_printed_digits_are_correctly_rounded(name):
    checked, _, _, worst, failures = audit(name, STRIDE)
    assert checked > 0 and worst <= 0.5
    assert failures == []


def test_the_audit_sees_a_wrong_last_digit():
    exact = exact_row(math.pi / 4, 0.05, 0.5)
    printed = "%#.9g" % float(exact[6])
    assert digit_error(printed, exact[6]) <= 0.5
    wrong = printed[:-1] + str((int(printed[-1]) + 1) % 10)
    assert digit_error(wrong, exact[6]) > 0.5


if __name__ == "__main__":
    total, fails = 0, []
    for name in sorted(GRIDS):
        checked, measures, at_one, worst, failures = audit(name, 1)
        total += checked
        fails += failures
        print(f"{name}: {checked} fields ({measures} nonzero weights and measures, "
              f"{at_one} at a C that rounds to 1), worst {worst:.3f} units of the 9th digit, "
              f"{len(failures)} not correctly rounded")
    for failure in fails:
        print("FAIL", *failure)
    print(f"total: {total} fields, {len(fails)} not correctly rounded")
    sys.exit(1 if fails else 0)
