"""Parameter sweeps, figure presets, peak search and the self-check grid."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .detector import DetectorParams, _weights_and_sines
from .measures import (
    GridValues,
    _qfe_and_ratio,
    _x_concurrence,
    evaluate_grid,
    oracle_deviations,
)

DEFAULT_Q_MAX = 0.9999
MAX_STEPS = 1_000_000  # grid points per sweep; bounds the memory a sweep can ask for

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_COARSE_STEPS = 2000
_PEAK_TOL = 1e-8  # absolute tolerance of the peak location


@dataclass(frozen=True)
class SweepSpec:
    """Uniform grid over one variable ('q' or 'theta'), endpoints included.

    ``fixed`` carries the parameters that are not swept; its value for the
    swept variable is ignored.
    """

    variable: str
    min: float
    max: float
    steps: int
    fixed: DetectorParams

    def __post_init__(self):
        if self.variable not in ("q", "theta"):
            raise ValueError(f"variable must be 'q' or 'theta', got {self.variable!r}")
        if not (math.isfinite(self.min) and math.isfinite(self.max)):
            raise ValueError("sweep bounds must be finite")
        if not self.min < self.max:
            raise ValueError(f"sweep needs min < max, got [{self.min}, {self.max}]")
        if not 2 <= self.steps <= MAX_STEPS:
            raise ValueError(f"steps must lie in [2, {MAX_STEPS}], got {self.steps}")
        if self.variable == "q" and not (0.0 <= self.min and self.max < 1.0):
            raise ValueError(
                f"q sweep bounds must lie in [0, 1), got [{self.min}, {self.max}]"
            )

    def grid(self) -> np.ndarray:
        return np.linspace(self.min, self.max, self.steps)

    def points(self) -> tuple:
        """(theta, nu, q) of the grid points, the fixed ones as scalars."""
        return _along(self.fixed, self.variable, self.grid())


@dataclass(frozen=True)
class SweepRecord:
    """One evaluated grid point: parameters, weights and measures."""

    q: float
    theta: float
    nu: float
    mu: float
    upsilon: float
    eta: float
    concurrence: float
    entropy: float
    qfe: float
    ratio: float | None


@dataclass(frozen=True)
class PeakResult:
    """Located fluctuation maximum with the bracket that pinned it down."""

    location: float
    value: float
    bracket: tuple[float, float]


class OracleScan(NamedTuple):
    """Worst deviations between the closed-form and matrix routes."""

    max_concurrence_deviation: float
    max_eigenvalue_deviation: float
    points: int
    max_entropy_deviation: float


def _along(fixed: DetectorParams, variable: str, x):
    """(theta, nu, q) of ``fixed`` with the swept ``variable`` set to ``x``."""
    if variable == "q":
        return fixed.theta, fixed.nu, x
    return x, fixed.nu, fixed.q


def _records(grid: GridValues) -> list[SweepRecord]:
    return [
        SweepRecord(*row[:9], ratio=None if math.isnan(row[9]) else row[9])
        for row in zip(*(column.tolist() for column in grid))
    ]


def sweep_grid(specs, *, cross_check: bool = False) -> GridValues:
    """Evaluate sweeps as one grid, rows in spec order and then grid order."""
    columns = [np.broadcast_arrays(*spec.points()) for spec in specs]
    theta, nu, q = (np.concatenate(column) for column in zip(*columns))
    return evaluate_grid(theta, nu, q, cross_check=cross_check)


def run_sweep(spec: SweepSpec, *, cross_check: bool = False) -> list[SweepRecord]:
    """Evaluate the grid in ascending order, one record per point."""
    return _records(sweep_grid([spec], cross_check=cross_check))


def figure_preset(which: str) -> list[SweepSpec]:
    """Sweep specifications behind the three standard data sets.

    fig1: fluctuation vs q for theta in {pi/3, pi/4, pi/5} at nu = 0.05.
    fig2: fluctuation vs theta for q in {0, 0.5, 0.8} at nu = 0.05.
    fig3: concurrence, fluctuation and their ratio vs q at theta = pi/4.
    """
    if which == "fig1":
        return [
            SweepSpec("q", 0.0, DEFAULT_Q_MAX, 2000, DetectorParams(theta=t, nu=0.05))
            for t in (math.pi / 3, math.pi / 4, math.pi / 5)
        ]
    if which == "fig2":
        return [
            SweepSpec(
                "theta", 0.0, math.pi / 2, 721,
                DetectorParams(theta=0.0, nu=0.05, q=qv),
            )
            for qv in (0.0, 0.5, 0.8)
        ]
    if which == "fig3":
        return [
            SweepSpec(
                "q", 0.0, DEFAULT_Q_MAX, 2000,
                DetectorParams(theta=math.pi / 4, nu=0.05),
            )
        ]
    raise ValueError(f"unknown figure preset {which!r}; expected fig1, fig2 or fig3")


def golden_section_max(
    func: Callable[[float], float], lo: float, hi: float, tol: float = 1e-8
) -> tuple[float, float]:
    """Maximum of a unimodal function on [lo, hi] by golden-section search.

    Shrinks the bracket to ``tol`` and returns (location, value) at the
    bracket midpoint; one function evaluation is reused per iteration.
    """
    if not lo < hi:
        raise ValueError(f"golden section needs lo < hi, got [{lo}, {hi}]")
    a, b = float(lo), float(hi)
    c = b - _INV_GOLDEN * (b - a)
    d = a + _INV_GOLDEN * (b - a)
    fc, fd = func(c), func(d)
    while (b - a) > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INV_GOLDEN * (b - a)
            fc = func(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_GOLDEN * (b - a)
            fd = func(d)
    x = (a + b) / 2.0
    return x, func(x)


def _qfe_at(fixed: DetectorParams, variable: str, x: float) -> float:
    """Closed-form fluctuation at one point, with the arithmetic of evaluate_grid."""
    theta, nu, q = _along(fixed, variable, float(x))
    mu, upsilon, eta, sin, cos = _weights_and_sines(theta, nu, q)
    return float(_qfe_and_ratio(_x_concurrence(sin, cos, mu, upsilon, eta))[0])


def find_qfe_peak(
    fixed: DetectorParams, variable: str, bracket: tuple[float, float]
) -> PeakResult:
    """Locate the fluctuation maximum over ``bracket`` for the swept variable.

    A 2000-point coarse scan seeds a golden-section refinement to an
    absolute location tolerance of 1e-8.  A profile that is not unimodal
    (some coarse sample beating the returned value by more than 1e-9) is
    reported as a RuntimeWarning diagnostic.
    """
    if variable not in ("q", "theta"):
        raise ValueError(f"variable must be 'q' or 'theta', got {variable!r}")
    lo, hi = float(bracket[0]), float(bracket[1])
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("bracket must be finite")
    if not lo < hi:
        raise ValueError(f"bracket needs lo < hi, got [{lo}, {hi}]")
    if variable == "q" and not (0.0 <= lo and hi < 1.0):
        raise ValueError(f"q bracket must lie in [0, 1), got [{lo}, {hi}]")

    xs = np.linspace(lo, hi, _COARSE_STEPS)
    vals = evaluate_grid(*_along(fixed, variable, xs)).qfe
    i = int(np.argmax(vals))
    bracket_lo = float(xs[max(i - 1, 0)])
    bracket_hi = float(xs[min(i + 1, len(xs) - 1)])
    x, v = golden_section_max(
        lambda y: _qfe_at(fixed, variable, y), bracket_lo, bracket_hi, _PEAK_TOL
    )
    if vals[i] > v:
        x, v = float(xs[i]), float(vals[i])
    if np.any(vals > v + 1e-9):
        warnings.warn(
            "fluctuation profile is not unimodal over the bracket; "
            "returned peak is the best local refinement",
            RuntimeWarning,
        )
    return PeakResult(location=x, value=v, bracket=(bracket_lo, bracket_hi))


def oracle_scan(
    theta_points: int = 33,
    nu_values: tuple[float, ...] = (0.0, 0.01, 0.05, 0.1),
    q_points: int = 100,
    q_max: float = 0.999,
) -> OracleScan:
    """Compare the closed forms against the matrix route.

    Runs the standard validation grid (theta x nu x q), one (theta, q)
    plane per nu, and returns the worst absolute deviation of the
    concurrence, the entropy and the squared spin-flip spectrum.  Nothing
    is gated here: ``qfesim check`` fails when the concurrence or the
    entropy deviates by more than 1e-9 (``CROSS_CHECK_TOL``), and reports
    the spectrum deviation without a bound.
    """
    thetas = np.linspace(0.0, math.pi / 2.0, theta_points)
    qs = np.linspace(0.0, q_max, q_points)
    worst = np.zeros(3)
    for nu in nu_values:
        deviations = oracle_deviations(evaluate_grid(thetas[:, None], nu, qs))
        worst = np.maximum(worst, deviations.max(axis=0, initial=0.0))
    c, entropy, spectrum = worst.tolist()
    return OracleScan(
        max_concurrence_deviation=c,
        max_eigenvalue_deviation=spectrum,
        points=len(nu_values) * len(thetas) * len(qs),
        max_entropy_deviation=entropy,
    )
