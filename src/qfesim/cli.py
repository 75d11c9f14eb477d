"""Command-line interface.

Verbs: ``state`` (one parameter point), ``sweep`` (explicit grid),
``figure`` (preset grids fig1/fig2/fig3), ``peak`` (fluctuation maximum)
and ``check`` (closed-form vs matrix-route self check).  Results go to the
data stream as CSV with 9-significant-digit reals, formatted and written
1,024 rows at a time so memory does not grow with the grid; diagnostics go
to the error stream; the exit status is nonzero on any error.
"""

from __future__ import annotations

import argparse
import math
import sys
from collections.abc import Iterable, Iterator

import numpy as np

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


_POINT_VERBS = ("state", "sweep", "peak")
_RANGE_VERBS = ("sweep", "peak")

# Every option but --config, in usage order: key -> (parse function, verbs
# that take it, argparse keywords).  Both the flags and the config-file keys
# come from here; a config file gives ``variable`` and ``which`` as plain
# strings, so the library reports a bad one.
_OPTIONS = {
    "output": (str, ("state", "sweep", "figure", "peak", "check"),
               dict(help="destination file (default: stdout)")),
    "theta": (_parse_theta, _POINT_VERBS,
              dict(help="initial entanglement angle in radians, or pi/3, pi/4, pi/5, pi/8")),
    "nu": (_parse_float, _POINT_VERBS, dict(help="effective coupling")),
    "q": (_parse_float, _POINT_VERBS, dict(help="acceleration parameter in [0, 1)")),
    "omega": (_parse_float, _POINT_VERBS, dict(help="detector energy gap")),
    "accel": (_parse_float, _POINT_VERBS, dict(help="proper acceleration")),
    "variable": (str, _RANGE_VERBS, dict(choices=("q", "theta"),
                                         help="the variable to sweep, or to search for the peak")),
    "min": (_parse_float, _RANGE_VERBS,
            dict(help="lower bound of the sweep or of the peak search (peak default: 0)")),
    "max": (_parse_float, _RANGE_VERBS,
            dict(help=f"upper bound of the sweep or of the peak search (peak default: "
                      f"{DEFAULT_Q_MAX} for q, pi/2 for theta)")),
    "steps": (_parse_int, ("sweep",), dict(help=f"number of grid points, 2 to {MAX_STEPS}")),
    "which": (str, ("figure",),
              dict(choices=("fig1", "fig2", "fig3"), help="preset sweep family")),
    "oracle": (_parse_bool, ("state", "sweep", "figure"),
               dict(action="store_true", default=None,
                    help="cross-check the printed concurrence and entropy against "
                         "the matrix route at every point")),
}


def load_config(path: str) -> dict:
    """Read a flat ``key = value`` file; the keys are the long flags of ``_OPTIONS``."""
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
            if key not in _OPTIONS:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            try:
                values[key] = _OPTIONS[key][0](value.strip())
            except argparse.ArgumentTypeError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    return values


def _format_real(value: float) -> str:
    return "%#.9g" % value


_CHUNK_ROWS = 1024  # grid rows formatted at a time; bounds peak memory


# The %#.9g kernel.  Each field takes 16 bytes, two little-endian uint64
# words: its text right-aligned in bytes 0-14 and its separator in byte 15;
# every other byte is 0.  The digits start as "000000" and the 9 mantissa
# digits in bytes 0-14; in exponent notation they sit 4 bytes lower,
# followed by "e-XX".  A field's class is min(k, 13) + 1, plus 14 if
# negative; class 0 prints nothing of its own (a blank ratio, or a literal
# text written in afterwards) and class 29 prints "nan".  Per class, the
# tables keep the digits right of the decimal point, take those left of it
# from one byte higher, and add the point and the sign.
_POWERS = np.array([math.nan] + [float(10**k) for k in range(23)] + [math.nan])  # at k + 1


def _digit_table(*at, dtype=np.uint64) -> np.ndarray:
    """Little-endian words of the digit strings "0..0" to "9..9", digit i in byte at[i]."""
    table = np.zeros(1, dtype)
    for byte in at:
        table = (table[:, None] | np.arange(48, 58, dtype=dtype) << dtype(8 * byte)).ravel()
    return table


_PAIR = _digit_table(6, 7) | np.uint64(int.from_bytes(b"000000", "little"))
_QUAD = _digit_table(0, 1, 2, 3, dtype=np.uint32)
_TRIPLE = _digit_table(4, 5, 6)
_EXPONENT = np.frombuffer(b"".join(b"\0\0\0e-%02d\0" % (k - 8) for k in range(13, 23)), "<u8")
_SEPARATORS = np.frombuffer(b",,,,,,,,,\n", np.uint8)
_NAN = 29


def _class_tables():
    """Per class, 16 bytes each: the digits kept, the digits taken from one higher, the marks."""
    right, left, marks = bytearray(16), bytearray(16), bytearray(16)  # class 0
    for sign in (b"\0", b"-"):
        for form in range(14):  # min(k, 13)
            point = max(14 - form, 2)
            start = 13 - min(max(form, 8), 12)  # the first byte of the unsigned text
            right += bytes(point + 1) + b"\xff" * (14 - point) + bytes(1)
            left += bytes(start) + b"\xff" * (point - start) + bytes(16 - point)
            marks += bytes(start - 1) + sign + bytes(point - start) + b"." + bytes(15 - point)
    right, left, marks = right + bytes(16), left + bytes(16), marks + bytes(12) + b"nan\0"
    return tuple(np.frombuffer(table, np.uint8).reshape(-1, 16) for table in (right, left, marks))


_RIGHT, _LEFT, _MARKS = _class_tables()


def _decimal_parts(values: np.ndarray):
    """(m, k + 1, literals): the 9-digit mantissa and its power-of-ten index.

    For finite ``v != 0`` with ``e = floor(log10|v|)`` and ``k = 8 - e`` in
    [0, 22], ``10**k`` is exact, so ``fl(|v| 10**k)`` is off by less than
    1.2e-7 from the exact scaled value below 1e9, and its ``rint`` is the
    correctly rounded 9-digit mantissa unless it lies within 1e-6 of a
    half.  A zero or a NaN gets ``m = 0`` and ``k = 8``.  ``literals`` maps
    the index of every other value to its ``_format_real`` text:
    infinities, near-ties, every other ``k``, a scaled value below 1e8
    (``log10`` rounded across a power of ten) and a mantissa that rounds up
    to 1e9.
    """
    magnitude = np.abs(values)
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = np.log10(magnitude)
        np.floor(scaled, out=scaled)
        np.subtract(9.0, scaled, out=scaled)
        index = np.fmax(np.fmin(scaled, 24.0, out=scaled), 0.0, out=scaled).astype(np.intp)
        np.multiply(magnitude, _POWERS.take(index), out=scaled)  # NaN unless 0 <= k <= 22
        mantissa = np.rint(scaled)
        exact = (scaled >= 1e8) & (mantissa < 1e9)
        exact &= np.abs(np.subtract(scaled, mantissa, out=scaled), out=scaled) < 0.5 - 1e-6
    inexact = ~exact
    literals = {i: _format_real(values.item(i))  # > 0: neither zero nor NaN
                for i in np.flatnonzero(inexact & (magnitude > 0)).tolist()}
    mantissa[inexact] = 0
    index[inexact] = 9
    return mantissa.astype(np.uint32), index, literals


def _format_chunk(chunk: np.ndarray) -> str:
    """CSV text of ``chunk`` (rows of 10 values), each field ``"%#.9g" % v``.

    A NaN prints ``nan``, or nothing in the ratio column.
    """
    values = chunk.ravel()
    mantissa, index, literals = _decimal_parts(values)
    words = np.empty((len(values), 2), np.uint64)
    rest = mantissa % 10**7
    words[:, 0] = _PAIR.take(mantissa // 10**7)
    words[:, 1] = _QUAD.take(rest // 1000)
    words[:, 1] |= _TRIPLE.take(rest % 1000)
    del mantissa, rest  # each stage frees its temporaries: they set the peak memory
    exponent = np.flatnonzero(index > 13)
    if exponent.size:
        low, high = words[exponent, 0], words[exponent, 1]
        words[exponent, 0] = (low >> np.uint64(32)) | (high << np.uint64(32))
        words[exponent, 1] = (high >> np.uint64(32)) | _EXPONENT.take(index[exponent] - 14)
    klass = np.minimum(index, 14, out=index)
    np.add(klass, 14, out=klass, where=np.signbit(values))
    nan = np.isnan(values)
    if nan.any():
        klass[nan] = _NAN
        ratio = klass.reshape(-1, 10)[:, 9]
        ratio[ratio == _NAN] = 0
    if literals:
        klass[list(literals)] = 0

    digits = words.view(np.uint8).reshape(-1)
    text = _RIGHT.take(klass, axis=0)
    flat = text.reshape(-1)
    flat &= digits
    shifted = _LEFT.take(klass, axis=0).reshape(-1)
    np.bitwise_and(shifted[:-1], digits[1:], out=shifted[:-1])
    flat |= shifted
    flat |= _MARKS.take(klass, axis=0, out=shifted.reshape(text.shape), mode="clip").reshape(-1)
    del words, digits, shifted
    text.reshape(-1, 10, 16)[:, :, 15] = _SEPARATORS
    for i, literal in literals.items():
        tail = literal[-15:].encode("ascii")
        text[i, 15 - len(tail):15] = np.frombuffer(tail, np.uint8)
    out = str(text[text != 0], "ascii")
    for i in sorted(literals, reverse=True):
        if len(literals[i]) > 15:  # the head of a 16-byte text goes in here
            at = np.count_nonzero(text[:i])
            out = out[:at] + literals[i][:-15] + out[at:]
    return out


def _csv_text(grid: GridValues) -> Iterator[str]:
    """Yield the header, then the rows of ``_CHUNK_ROWS`` points at a time.

    A row is (q, theta, nu, mu, upsilon, eta, C, S, QFE, ratio) with a NaN
    ratio blank; ``_format_chunk`` builds each chunk's text in one pass.
    """
    yield CSV_HEADER + "\n"
    for start in range(0, len(grid.q), _CHUNK_ROWS):
        yield _format_chunk(np.column_stack([column[start:start + _CHUNK_ROWS]
                                             for column in grid]))


def _emit(pieces: Iterable[str], destination: str | None) -> None:
    """Write ``pieces``, each ending in a newline, to ``destination`` or stdout."""
    if destination is None:
        sys.stdout.writelines(pieces)
    else:
        with open(destination, "w", encoding="utf-8", newline="") as handle:
            handle.writelines(pieces)


def write_csv(grid: GridValues, destination: str | None = None) -> None:
    """Emit one row per grid point under the fixed header; ``None`` writes to stdout."""
    _emit(_csv_text(grid), destination)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfesim",
        description="Entanglement and entanglement-fluctuation measures for "
        "an accelerated detector pair, emitted as CSV.",
    )
    sub = parser.add_subparsers(dest="verb", required=True, metavar="verb")
    verb_parsers = {}
    for verb, (text, _) in _VERBS.items():
        p = verb_parsers[verb] = sub.add_parser(verb, help=text)
        p.add_argument("--config", help="flat key = value preset file; flags win")
    for key, (parse, verbs, keywords) in _OPTIONS.items():
        if "action" not in keywords:
            keywords = dict(keywords, type=parse)
        for verb in verbs:
            verb_parsers[verb].add_argument(f"--{key}", **keywords)
    return parser


def _option(args, key, default):
    value = getattr(args, key)
    return default if value is None else value


def _make_params(args) -> DetectorParams:
    if (args.omega is None) != (args.accel is None):
        given, missing = ("omega", "accel") if args.accel is None else ("accel", "omega")
        raise ValueError(
            f"--{given} needs --{missing}: q = exp(-2*pi*omega/accel) takes both"
        )
    return DetectorParams(
        theta=_option(args, "theta", DEFAULT_THETA),
        nu=_option(args, "nu", DEFAULT_NU),
        q=args.q,
        omega=args.omega,
        accel=args.accel,
    )


def _warn_validity(params: DetectorParams) -> None:
    for note in validity_check(params):
        print(f"warning: {note}", file=sys.stderr)


def _run_state(args) -> int:
    params = _make_params(args)
    _warn_validity(params)
    grid = evaluate_grid(params.theta, params.nu, params.q, cross_check=bool(args.oracle))
    write_csv(grid, args.output)
    return 0


def _run_sweep(args) -> int:
    if args.variable is None or args.min is None or args.max is None or args.steps is None:
        raise ValueError("sweep requires --variable, --min, --max and --steps")
    params = _make_params(args)
    _warn_validity(params)
    spec = SweepSpec(variable=args.variable, min=args.min, max=args.max, steps=args.steps,
                     fixed=params)
    write_csv(sweep_grid([spec], cross_check=bool(args.oracle)), args.output)
    return 0


def _run_figure(args) -> int:
    if args.which is None:
        raise ValueError("figure requires --which (fig1, fig2 or fig3)")
    write_csv(sweep_grid(figure_preset(args.which), cross_check=bool(args.oracle)),
              args.output)
    return 0


def _run_peak(args) -> int:
    if args.variable is None:
        raise ValueError("peak requires --variable (q or theta)")
    default_hi = DEFAULT_Q_MAX if args.variable == "q" else math.pi / 2
    lo = _option(args, "min", 0.0)
    hi = _option(args, "max", default_hi)
    params = _make_params(args)
    _warn_validity(params)
    result = find_qfe_peak(params, args.variable, (lo, hi))
    _emit(
        [f"{PEAK_HEADER}\n", f"{_format_real(result.location)},{_format_real(result.value)}\n"],
        args.output,
    )
    return 0


def _run_check(args) -> int:
    result = oracle_scan()
    _emit(
        [
            f"{CHECK_HEADER}\n",
            f"max_concurrence_deviation,{_format_real(result.max_concurrence_deviation)}\n",
            f"max_eigenvalue_deviation,{_format_real(result.max_eigenvalue_deviation)}\n",
            f"grid_points,{result.points}\n",
        ],
        args.output,
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


_VERBS = {
    "state": ("evaluate a single parameter point", _run_state),
    "sweep": ("sweep q or theta over a uniform grid", _run_sweep),
    "figure": ("run a preset collection of sweeps", _run_figure),
    "peak": ("locate the fluctuation maximum", _run_peak),
    "check": ("run the closed-form vs matrix-route self check grid", _run_check),
}


_NUMBER_PARSERS = (_parse_theta, _parse_float, _parse_int)


def _takes_negative(flag: str, verb: str, token: str) -> bool:
    """Whether ``token`` is a value of ``flag``, a number flag of ``verb``.

    Like argparse, ``flag`` names an option exactly or by a unique prefix
    of the verb's long flags.
    """
    if not flag.startswith("--"):
        return False
    name = flag[2:]
    keys = [key for key, (_, verbs, _) in _OPTIONS.items() if verb in verbs] + ["config", "help"]
    matches = [name] if name in keys else [key for key in keys if key.startswith(name)]
    parse = _OPTIONS.get(matches[0], (None,))[0] if len(matches) == 1 else None
    if parse not in _NUMBER_PARSERS:
        return False
    try:
        parse(token)
    except argparse.ArgumentTypeError:
        return False
    return True


def _attach_negative_values(argv: list[str]) -> list[str]:
    """Write ``--key -value`` as ``--key=-value`` where ``-value`` is a number for ``key``.

    argparse reads a token such as ``-1e-3`` or ``-inf`` as a flag of its own;
    only plain negatives such as ``-1`` and ``-.5`` pass as values.
    """
    joined = []
    for index, token in enumerate(argv):
        if token == "--":
            return joined + argv[index:]
        if joined and token.startswith("-") and _takes_negative(joined[-1], argv[0], token):
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(_attach_negative_values(sys.argv[1:] if argv is None else list(argv)))
    try:
        if args.config:
            for key, value in load_config(args.config).items():
                if getattr(args, key, None) is None:  # a given flag wins
                    setattr(args, key, value)
        return _VERBS[args.verb][1](args)
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
