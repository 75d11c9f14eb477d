"""Independent reference for the CLI outputs; it never imports qfesim.

The model is re-derived here from ``(theta, nu, q)``: the weights
mu, upsilon, eta, the X-state concurrence, the fluctuation (QFE) and the
QFE/C ratio in closed form, and the joint-state entropy from
``numpy.linalg.eigvalsh``.  Outputs are compared as numbers, never as text,
so ``-0.00000000`` and ``0.00000000`` are the same value.

A printed value passes when it lies within ``REL_TOL`` of the reference
band.  ``REL_TOL`` covers the CLI's 9-significant-digit rounding (at most
5e-9 relative).  Where the reference itself is ill-conditioned the band is
widened by a propagated float64 error bound instead of a blanket absolute
tolerance: the concurrence ``2 mu |sin 2theta| - 2 sqrt(eta upsilon)``
cancels near sudden death, and QFE and the ratio are evaluated over the
resulting concurrence interval.
"""

from __future__ import annotations

import numpy as np

from workloads import FIGURES

CSV_HEADER = "q,theta,nu,mu,upsilon,eta,concurrence,entropy,qfe,ratio"
PEAK_HEADER = "location,value"
CHECK_HEADER = "metric,value"

REL_TOL = 1e-8
ENTROPY_ABS_TOL = 1e-12        # eigenvalue roundoff near p = 0, times |log2 p|
RATIO_THRESHOLD = 1e-12        # documented: QFE is 0 and the ratio undefined at or below
CONCURRENCE_ERR = 16 * np.finfo(float).eps
CHECK_GRID_POINTS = 13200
CHECK_CONCURRENCE_TOL = 1e-9   # documented agreement of the two concurrence routes
CHECK_SPECTRUM_TOL = 1e-10     # documented agreement of the spin-flip spectra
PEAK_COARSE_STEPS = 2000       # the documented coarse scan behind ``peak``
MAX_PROBLEMS = 5


def weights(theta, nu, q):
    """(mu, upsilon, eta) with 2 mu + upsilon + eta = 1."""
    s2 = np.sin(theta) ** 2
    c2 = np.cos(theta) ** 2
    nu2 = nu * nu
    d = (1.0 - q) + nu2 * (s2 + q * c2)
    return (1.0 - q) / (2.0 * d), nu2 * q * c2 / d, nu2 * s2 / d


def concurrence_band(theta, mu, upsilon, eta):
    """Lower and upper bound of the X-state concurrence, clamped to [0, 1]."""
    a = 2.0 * mu * np.abs(np.sin(2.0 * theta))
    b = 2.0 * np.sqrt(eta * upsilon)
    err = CONCURRENCE_ERR * (a + b)
    c = a - b
    return np.clip(c - err, 0.0, 1.0), np.clip(c, 0.0, 1.0), np.clip(c + err, 0.0, 1.0)


def _ratio(c):
    c = np.asarray(c, dtype=float)
    safe = np.where(c > RATIO_THRESHOLD, c, 1.0)
    value = np.log2((1.0 + np.sqrt(np.maximum(0.0, 1.0 - safe * safe))) / safe)
    return np.where(c > RATIO_THRESHOLD, value, np.nan)


def qfe(c):
    """C log2((1 + sqrt(1 - C^2)) / C), and 0 at or below the threshold."""
    c = np.asarray(c, dtype=float)
    return np.where(c > RATIO_THRESHOLD, c * np.nan_to_num(_ratio(c)), 0.0)


def qfe_band(theta, nu, q):
    """Lower and upper bound of the fluctuation at each point."""
    mu, upsilon, eta = weights(theta, nu, q)
    bounds = [qfe(c) for c in concurrence_band(theta, mu, upsilon, eta)]
    return np.minimum.reduce(bounds), np.maximum.reduce(bounds)


def entropy(mu, upsilon, eta, theta):
    """Von Neumann entropy in bits of the X-state, via eigvalsh."""
    n = np.size(mu)
    rho = np.zeros((n, 4, 4))
    rho[:, 0, 0] = eta
    rho[:, 1, 1] = 2.0 * mu * np.sin(theta) ** 2
    rho[:, 2, 2] = 2.0 * mu * np.cos(theta) ** 2
    rho[:, 1, 2] = rho[:, 2, 1] = mu * np.sin(2.0 * theta)
    rho[:, 3, 3] = upsilon
    p = np.clip(np.linalg.eigvalsh(rho), 0.0, 1.0)
    logs = np.log2(np.where(p > 0.0, p, 1.0))
    return -(p * logs).sum(axis=1)


def _outside(out, lo, hi, abs_tol=0.0):
    """Mask of values outside [lo, hi] widened by REL_TOL (NaN counts as outside)."""
    slack_lo = REL_TOL * np.abs(lo) + abs_tol
    slack_hi = REL_TOL * np.abs(hi) + abs_tol
    return ~((out >= lo - slack_lo) & (out <= hi + slack_hi))


def _lines(text: str, header: str) -> list[str] | str:
    if not text.endswith("\n"):
        return "output does not end with a newline"
    lines = text[:-1].split("\n")
    if lines[0] != header:
        return f"header is {lines[0]!r}, expected {header!r}"
    return lines[1:]


def check_rows(text: str, theta, nu, q) -> list[str]:
    """Problems with CSV rows against the expected grid of (theta, nu, q)."""
    lines = _lines(text, CSV_HEADER)
    if isinstance(lines, str):
        return [lines]
    theta, nu, q = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (theta, nu, q)))
    if len(lines) != theta.size:
        return [f"{len(lines)} rows, expected {theta.size}"]
    try:
        out = np.array([[float(f) if f else np.nan for f in line.split(",")] for line in lines])
    except ValueError as exc:
        return [f"unparseable row: {exc}"]
    if out.shape != (theta.size, 10):
        return [f"rows have {out.shape[1:]} fields, expected 10"]

    mu, upsilon, eta = weights(theta, nu, q)
    c_lo, _, c_hi = concurrence_band(theta, mu, upsilon, eta)
    f_lo, f_hi = qfe_band(theta, nu, q)
    s = entropy(mu, upsilon, eta, theta)
    bad = {
        "q": _outside(out[:, 0], q, q),
        "theta": _outside(out[:, 1], theta, theta),
        "nu": _outside(out[:, 2], nu, nu),
        "mu": _outside(out[:, 3], mu, mu),
        "upsilon": _outside(out[:, 4], upsilon, upsilon),
        "eta": _outside(out[:, 5], eta, eta),
        "concurrence": _outside(out[:, 6], c_lo, c_hi),
        "entropy": _outside(out[:, 7], s, s, ENTROPY_ABS_TOL),
        "qfe": _outside(out[:, 8], f_lo, f_hi),
    }
    # The ratio is blank exactly when C <= 1e-12; either is fine when the
    # concurrence band straddles that threshold.
    ratio = out[:, 9]
    blank = np.isnan(ratio)
    must_blank = c_hi <= RATIO_THRESHOLD
    must_value = c_lo > RATIO_THRESHOLD
    r_lo = np.nan_to_num(_ratio(c_hi))
    r_hi = np.where(must_value, np.nan_to_num(_ratio(c_lo)), np.inf)
    bad["ratio"] = (blank & must_value) | (~blank & must_blank) | (
        ~blank & ~must_blank & _outside(ratio, r_lo, r_hi))
    problems = []
    for field, (column, mask) in enumerate(bad.items()):
        for i in np.flatnonzero(mask)[:MAX_PROBLEMS]:
            problems.append(
                f"row {i} (theta={theta[i]!r}, nu={nu[i]!r}, q={q[i]!r}): "
                f"{column} = {lines[i].split(',')[field]!r}"
            )
    return problems[:MAX_PROBLEMS]


def _grid(variable, lo, hi, steps, theta, nu, q):
    xs = np.linspace(lo, hi, steps)
    if variable == "q":
        return np.full(steps, theta), np.full(steps, nu), xs
    return xs, np.full(steps, nu), np.full(steps, q)


def expected_grid(spec: dict):
    """(theta, nu, q) arrays, in output order, for a state/sweep/figure call."""
    kind = spec["kind"]
    if kind == "state":
        return np.array([spec["theta"]]), np.array([spec["nu"]]), np.array([spec["q"]])
    if kind == "sweep":
        return _grid(spec["variable"], spec["lo"], spec["hi"], spec["steps"],
                     spec["theta"], spec["nu"], spec["q"])
    parts = [_grid(*sweep) for sweep in FIGURES[spec["which"]]]
    return tuple(np.concatenate(column) for column in zip(*parts))


def check_peak(text: str, spec: dict) -> list[str]:
    """The value must be the reference QFE at the printed location, and no
    sample of the 2000-point coarse scan over the bracket may beat it."""
    lines = _lines(text, PEAK_HEADER)
    if isinstance(lines, str):
        return [lines]
    try:
        (location, value), = [tuple(float(f) for f in line.split(",")) for line in lines]
    except ValueError:
        return [f"expected one 'location,value' row, got {lines!r}"]
    lo, hi = spec["lo"], spec["hi"]
    if _outside(location, lo, hi):
        return [f"location {location!r} outside the bracket [{lo!r}, {hi!r}]"]

    def band(xs):
        xs = np.asarray(xs, dtype=float)
        if spec["variable"] == "q":
            return qfe_band(spec["theta"], spec["nu"], np.minimum(xs, np.nextafter(1.0, 0.0)))
        return qfe_band(xs, spec["nu"], spec["q"])

    # The printed location is rounded to 9 digits: allow any point that rounds to it.
    dx = REL_TOL * abs(location)
    at_lo, at_hi = band(np.clip([location - dx, location, location + dx], lo, hi))
    if _outside(value, at_lo.min(), at_hi.max()):
        return [f"value {value!r} is not the QFE at location {location!r} "
                f"(reference in [{at_lo.min()!r}, {at_hi.max()!r}])"]
    coarse_lo, _ = band(np.linspace(lo, hi, PEAK_COARSE_STEPS))
    best = int(np.argmax(coarse_lo))
    if _outside(coarse_lo[best], -np.inf, value):
        return [f"coarse sample {coarse_lo[best]!r} beats the reported peak {value!r}"]
    return []


def check_check(text: str) -> list[str]:
    lines = _lines(text, CHECK_HEADER)
    if isinstance(lines, str):
        return [lines]
    fields = dict(line.split(",", 1) for line in lines if "," in line)
    expected = ["max_concurrence_deviation", "max_eigenvalue_deviation", "grid_points"]
    if list(fields) != expected or len(lines) != len(expected):
        return [f"check metrics are {lines!r}"]
    problems = []
    try:
        if not float(fields["max_concurrence_deviation"]) <= CHECK_CONCURRENCE_TOL:
            problems.append(f"concurrence deviation {fields['max_concurrence_deviation']}")
        if not float(fields["max_eigenvalue_deviation"]) <= CHECK_SPECTRUM_TOL:
            problems.append(f"spectrum deviation {fields['max_eigenvalue_deviation']}")
    except ValueError as exc:
        problems.append(f"unparseable deviation: {exc}")
    if fields["grid_points"] != str(CHECK_GRID_POINTS):
        problems.append(f"grid_points = {fields['grid_points']}, expected {CHECK_GRID_POINTS}")
    return problems


def check(spec: dict, exit_code, text: str) -> list[str]:
    """Problems with one call's exit status and standard output."""
    if exit_code != 0:
        return [f"exit status {exit_code!r}"]
    kind = spec["kind"]
    if kind == "peak":
        return check_peak(text, spec)
    if kind == "check":
        return check_check(text)
    return check_rows(text, *expected_grid(spec))
