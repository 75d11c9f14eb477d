"""Command-line interface.

Verbs: ``state`` (one parameter point), ``sweep`` (explicit grid),
``figure`` (preset grids fig1/fig2/fig3), ``peak`` (fluctuation maximum)
and ``check`` (closed-form vs matrix-route self check).  Results go to the
data stream as CSV with 9-significant-digit reals; diagnostics go to the
error stream; the exit status is nonzero on any error.
"""

from __future__ import annotations

import argparse
import math
import sys

from .detector import DetectorParams, validity_check
from .measures import CROSS_CHECK_TOL, CrossCheckError, GridValues, evaluate_grid
from .sweep import (
    DEFAULT_Q_MAX,
    MAX_STEPS,
    SweepSpec,
    figure_preset,
    find_qfe_peak,
    oracle_scan,
    sweep_grid,
)

CSV_HEADER = "q,theta,nu,mu,upsilon,eta,concurrence,entropy,qfe,ratio"
PEAK_HEADER = "location,value"
CHECK_HEADER = "metric,value"

DEFAULT_THETA = math.pi / 4
DEFAULT_NU = 0.05

THETA_TOKENS = {
    "pi/3": math.pi / 3,
    "pi/4": math.pi / 4,
    "pi/5": math.pi / 5,
    "pi/8": math.pi / 8,
}


def _parse_theta(text: str) -> float:
    token = text.strip()
    if token in THETA_TOKENS:
        return THETA_TOKENS[token]
    try:
        return float(token)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid theta {text!r}: expected a decimal or one of "
            f"{', '.join(sorted(THETA_TOKENS))}"
        ) from None


def _parse_float(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid number {text!r}") from None


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer {text!r}") from None


def _parse_bool(text: str) -> bool:
    token = text.strip().lower()
    if token in ("1", "true", "yes", "on"):
        return True
    if token in ("0", "false", "no", "off"):
        return False
    raise argparse.ArgumentTypeError(f"invalid boolean {text!r}")


_CONFIG_PARSERS = {
    "theta": _parse_theta,
    "nu": _parse_float,
    "q": _parse_float,
    "omega": _parse_float,
    "accel": _parse_float,
    "variable": str,
    "min": _parse_float,
    "max": _parse_float,
    "steps": _parse_int,
    "which": str,
    "output": str,
    "oracle": _parse_bool,
}


def load_config(path: str) -> dict:
    """Read a flat ``key = value`` file; keys mirror the long flags."""
    values = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in _CONFIG_PARSERS:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            try:
                values[key] = _CONFIG_PARSERS[key](value.strip())
            except argparse.ArgumentTypeError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    return values


def _format_real(value: float) -> str:
    return "%#.9g" % value


_REALS = ",".join(["%#.9g"] * 9)
_CHUNK_ROWS = 1024  # grid rows turned into Python floats at a time; bounds peak memory


def _csv_line(row) -> str:
    """(q, theta, nu, mu, upsilon, eta, C, S, QFE, ratio); a NaN ratio is blank."""
    ratio = row[9]
    tail = "," if ratio != ratio else ",%#.9g" % ratio
    return _REALS % row[:9] + tail


def _grid_rows(grid: GridValues):
    for start in range(0, len(grid.q), _CHUNK_ROWS):
        yield from zip(*(column[start:start + _CHUNK_ROWS].tolist() for column in grid))


def _emit(lines: list[str], destination: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if destination is None:
        sys.stdout.write(text)
    else:
        with open(destination, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


def write_csv(grid: GridValues, destination: str | None = None) -> None:
    """Emit one row per grid point under the fixed header; ``None`` writes to stdout."""
    _emit([CSV_HEADER] + [_csv_line(row) for row in _grid_rows(grid)], destination)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfesim",
        description="Entanglement and entanglement-fluctuation measures for "
        "an accelerated detector pair, emitted as CSV.",
    )
    sub = parser.add_subparsers(dest="verb", required=True, metavar="verb")

    def common(p, params=False, output=True):
        p.add_argument("--config", help="flat key = value preset file; flags win")
        if output:
            p.add_argument("--output", help="destination file (default: stdout)")
        if params:
            p.add_argument(
                "--theta",
                type=_parse_theta,
                help="initial entanglement angle in radians, or pi/3, pi/4, pi/5, pi/8",
            )
            p.add_argument("--nu", type=_parse_float, help="effective coupling")
            p.add_argument("--q", type=_parse_float, help="acceleration parameter in [0, 1)")
            p.add_argument("--omega", type=_parse_float, help="detector energy gap")
            p.add_argument("--accel", type=_parse_float, help="proper acceleration")

    p_state = sub.add_parser("state", help="evaluate a single parameter point")
    common(p_state, params=True)
    p_state.add_argument(
        "--oracle", action="store_true", default=None,
        help="cross-check the closed-form concurrence numerically",
    )

    p_sweep = sub.add_parser("sweep", help="sweep q or theta over a uniform grid")
    common(p_sweep, params=True)
    p_sweep.add_argument("--variable", choices=("q", "theta"))
    p_sweep.add_argument("--min", type=_parse_float, help="sweep lower bound")
    p_sweep.add_argument("--max", type=_parse_float, help="sweep upper bound")
    p_sweep.add_argument(
        "--steps", type=_parse_int, help=f"number of grid points, 2 to {MAX_STEPS}"
    )
    p_sweep.add_argument("--oracle", action="store_true", default=None)

    p_figure = sub.add_parser("figure", help="run a preset collection of sweeps")
    common(p_figure)
    p_figure.add_argument("--which", choices=("fig1", "fig2", "fig3"))
    p_figure.add_argument("--oracle", action="store_true", default=None)

    p_peak = sub.add_parser("peak", help="locate the fluctuation maximum")
    common(p_peak, params=True)
    p_peak.add_argument("--variable", choices=("q", "theta"))
    p_peak.add_argument("--min", type=_parse_float, help="bracket lower bound")
    p_peak.add_argument("--max", type=_parse_float, help="bracket upper bound")

    p_check = sub.add_parser(
        "check", help="run the closed-form vs matrix-route self check grid"
    )
    common(p_check)
    return parser


def _option(args, config, key, default=None):
    value = getattr(args, key, None)
    if value is not None:
        return value
    if key in config:
        return config[key]
    return default


def _make_params(args, config) -> DetectorParams:
    omega = _option(args, config, "omega")
    accel = _option(args, config, "accel")
    if (omega is None) != (accel is None):
        given, missing = ("omega", "accel") if accel is None else ("accel", "omega")
        raise ValueError(
            f"--{given} needs --{missing}: q = exp(-2*pi*omega/accel) takes both"
        )
    return DetectorParams(
        theta=_option(args, config, "theta", DEFAULT_THETA),
        nu=_option(args, config, "nu", DEFAULT_NU),
        q=_option(args, config, "q"),
        omega=omega,
        accel=accel,
    )


def _warn_validity(params: DetectorParams) -> None:
    for note in validity_check(params):
        print(f"warning: {note}", file=sys.stderr)


def _run_state(args, config) -> int:
    params = _make_params(args, config)
    _warn_validity(params)
    cross_check = bool(_option(args, config, "oracle", False))
    grid = evaluate_grid(params.theta, params.nu, params.q, cross_check=cross_check)
    write_csv(grid, _option(args, config, "output"))
    return 0


def _run_sweep(args, config) -> int:
    variable = _option(args, config, "variable")
    lo = _option(args, config, "min")
    hi = _option(args, config, "max")
    steps = _option(args, config, "steps")
    if variable is None or lo is None or hi is None or steps is None:
        raise ValueError("sweep requires --variable, --min, --max and --steps")
    params = _make_params(args, config)
    _warn_validity(params)
    spec = SweepSpec(variable=variable, min=lo, max=hi, steps=steps, fixed=params)
    grid = sweep_grid([spec], cross_check=bool(_option(args, config, "oracle", False)))
    write_csv(grid, _option(args, config, "output"))
    return 0


def _run_figure(args, config) -> int:
    which = _option(args, config, "which")
    if which is None:
        raise ValueError("figure requires --which (fig1, fig2 or fig3)")
    cross_check = bool(_option(args, config, "oracle", False))
    write_csv(sweep_grid(figure_preset(which), cross_check=cross_check),
              _option(args, config, "output"))
    return 0


def _run_peak(args, config) -> int:
    variable = _option(args, config, "variable")
    if variable is None:
        raise ValueError("peak requires --variable (q or theta)")
    if variable == "q":
        default_lo, default_hi = 0.0, DEFAULT_Q_MAX
    else:
        default_lo, default_hi = 0.0, math.pi / 2
    lo = _option(args, config, "min", default_lo)
    hi = _option(args, config, "max", default_hi)
    params = _make_params(args, config)
    _warn_validity(params)
    result = find_qfe_peak(params, variable, (lo, hi))
    _emit(
        [PEAK_HEADER, f"{_format_real(result.location)},{_format_real(result.value)}"],
        _option(args, config, "output"),
    )
    return 0


def _run_check(args, config) -> int:
    result = oracle_scan()
    _emit(
        [
            CHECK_HEADER,
            f"max_concurrence_deviation,{_format_real(result.max_concurrence_deviation)}",
            f"max_eigenvalue_deviation,{_format_real(result.max_eigenvalue_deviation)}",
            f"grid_points,{result.points}",
        ],
        _option(args, config, "output"),
    )
    status = 0
    for name, deviation in (
        ("concurrence", result.max_concurrence_deviation),
        ("entropy", result.max_entropy_deviation),
    ):
        if not deviation <= CROSS_CHECK_TOL:
            print(
                f"error: {name} routes deviate by {deviation:.3e} "
                f"(tolerance {CROSS_CHECK_TOL:g})",
                file=sys.stderr,
            )
            status = 1
    return status


_DISPATCH = {
    "state": _run_state,
    "sweep": _run_sweep,
    "figure": _run_figure,
    "peak": _run_peak,
    "check": _run_check,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config) if args.config else {}
        return _DISPATCH[args.verb](args, config)
    except CrossCheckError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
