"""Command-line interface.

Verbs: ``state`` (one parameter point), ``sweep`` (explicit grid),
``figure`` (preset grids fig1/fig2/fig3), ``peak`` (fluctuation maximum)
and ``check`` (closed-form vs matrix-route self check).  Results go to the
data stream as CSV with 9-significant-digit reals, evaluated, formatted
and written 1,024 points at a time, so the process's memory grows with the
grid only by the grid's own (theta, nu, q); diagnostics go to the error
stream; the exit status is nonzero on any error.
"""

from __future__ import annotations

import argparse
import math
import sys
from collections.abc import Iterable, Iterator

import numpy as np

from .detector import DetectorParams, validity_check
from .measures import GridValues, evaluate_grid
from .sweep import (
    DEFAULT_Q_MAX,
    MAX_STEPS,
    SweepSpec,
    _chunks,
    _sweep_points,
    figure_preset,
    find_qfe_peak,
    oracle_scan,
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


# The %#.9g kernel.  A field takes 16 bytes, two little-endian uint64 words,
# and every zero byte is dropped when a chunk is joined into text.  A finite
# v with 1e-14 <= |v| < 100 has the form k + 1, with k = 8 - floor(log10|v|)
# in [7, 22]; forms 8-13 print fixed notation and forms 14-23 exponent
# notation.  The low word is one table lookup by sign, form and the 2 leading
# digits: the sign, a leading "0." and zeros, the 2 digits and the point.
# The high word holds the other 7 digits, in bytes 8-14, and the separator;
# in exponent notation all 7 move 4 bytes lower, before "e-XX," (``_SUFFIX``).
# A zero takes form 9 with no digits but zeros.  Every other field takes the
# empty low word of the unused form 0 and a high word that holds only the
# separator: a blank ratio, or a literal text written in afterwards.
_FORMS = 24  # per sign
_ZERO = 9  # the form of a zero: "0.00000000"
_POWERS = np.array([math.nan] * 8 + [float(10**k) for k in range(7, 23)] + [math.nan])  # at k + 1
_LAYOUTS = {7: b"____SAB.", 8: b"____SA.B", 9: b"___S0.AB", 10: b"__S0.0AB",
            11: b"_S0.00AB", 12: b"S0.000AB"}  # the low word by k: sign, digits 1 and 2
_EXPONENT = b"SA.B____"  # k = 13-22


def _digit_table(count: int, zero: int, dtype=np.uint64) -> np.ndarray:
    """Little-endian words of the digit strings "0..0" to "9..9", the first in byte 0.

    The digit d is the byte ``zero + d``.
    """
    table = np.zeros(1, dtype)
    for byte in range(count):
        digit = np.arange(zero, zero + 10, dtype=dtype) << dtype(8 * byte)
        table = (table[:, None] | digit).ravel()
    return table


# The high word is _QUAD[digits 3-6] | _TRIPLE[digits 7-9].  _QUAD holds its
# digits as the bytes 0-9; a _TRIPLE entry holds "0000" under them, its own 3
# digits and ",".  Entry 1000 holds only ",": with the middle digits 0, such
# a field prints nothing of its own.
_QUAD = _digit_table(4, 0, np.uint32)
_TRIPLE = np.append(_digit_table(3, ord("0")) << np.uint64(32) | np.uint64(0x30303030),
                    np.uint64(0)) | np.uint64(ord(",") << 56)
_BLANK = 1000
_NEWLINE = np.uint64((ord(",") ^ ord("\n")) << 56)  # turns the separator in byte 15 into "\n"
_SUFFIX = np.array([int.from_bytes(b"\0\0\0e-%02d," % (k - 8), "little") for k in range(13, 23)],
                   np.uint64)  # the high word's bytes 3-7 by k - 13


def _low_words() -> np.ndarray:
    """The low word by sign, form and leading digit pair; forms 0-7 stay empty."""
    pair = _digit_table(2, ord("0"))
    low = np.zeros((2, _FORMS, 100), np.uint64)
    for k in range(7, 23):
        layout = _LAYOUTS.get(k, _EXPONENT)
        a, b = (np.uint64(8 * layout.index(letter)) for letter in (b"A", b"B"))
        digits = (pair & np.uint64(0xFF)) << a | (pair >> np.uint64(8)) << b
        for sign, mark in enumerate((b"\0", b"-")):
            marks = layout.translate(bytes.maketrans(b"_ABS", b"\0\0\0" + mark))
            low[sign, k + 1] = digits | np.uint64(int.from_bytes(marks, "little"))
    return low.reshape(-1)


_LOW = _low_words()


def _decimal_parts(values: np.ndarray):
    """(m, k + 1, exact): the 9-digit mantissa, its power-of-ten index and where both hold.

    For finite ``v != 0`` with ``e = floor(log10|v|)`` and ``k = 8 - e`` in
    [7, 22], ``10**k`` is exact, so ``fl(|v| 10**k)`` is off by less than
    1.2e-7 from the exact scaled value below 1e9, and its ``rint`` is the
    correctly rounded 9-digit mantissa unless it lies within 1e-6 of a
    half.  ``e`` comes from a float32 ``log10``, and each step is checked:
    ``exact`` is False for zeros, NaNs, infinities, near-ties, every other
    ``k`` (values below 1e-14 or from 100 up), a scaled value below 1e8 and
    a mantissa of 1e9 (``e`` off by one near a power of ten).
    """
    magnitude = np.abs(values)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        estimate = np.log10(magnitude.astype(np.float32))
        np.subtract(9.0, estimate, out=estimate)
        # k + 1 = ceil(9 - log10|v|); a NaN or an infinity casts to some
        # integer, and the clipped take gives it a NaN power
        index = np.ceil(estimate, out=estimate).astype(np.intp)
        scaled = np.multiply(magnitude, _POWERS.take(index, mode="clip"))
        mantissa = np.rint(scaled)
        np.subtract(scaled, mantissa, out=magnitude)
        exact = np.abs(magnitude, out=magnitude) < 0.5 - 1e-6
        exact &= scaled >= 1e8
        exact &= mantissa < 1e9
    return mantissa, index, exact


def _field_words(values: np.ndarray, ratio: slice):
    """The 16 bytes of each value's field as two uint64 words, or None.

    ``values[ratio]`` are ratios: a NaN among them is blank and ends its
    row.  Every other value that ``_decimal_parts`` leaves out, but a zero,
    has its ``_format_real`` text written into its field; the result is None
    when one such text is 16 characters long, one more than a field holds.
    """
    mantissa, index, exact = _decimal_parts(values)
    special = np.flatnonzero(~exact)
    mantissa[special] = 0
    index[special] = _ZERO
    mantissa = mantissa.astype(np.uint32)
    pair = mantissa // 10**7
    rest = mantissa - pair * 10**7
    middle = rest // 1000
    rest -= middle * 1000
    key = index * 100
    key += pair
    np.add(key, _FORMS * 100, out=key, where=np.signbit(values))
    del mantissa, exact, pair  # each stage frees its temporaries: they set the peak memory
    literals = {}
    if special.size:  # a NaN, an infinity or a literal has no digits of its own
        bare = special[values[special] != 0.0]
        key[bare] = 0  # form 0: an empty low word
        rest[bare] = _BLANK
        blank = np.isnan(values[bare]) & (bare >= ratio.start) & (bare < ratio.stop)
        literals = {i: _format_real(values.item(i)) for i in bare[~blank].tolist()}
        if any(len(text) > 15 for text in literals.values()):
            return None
    words = np.empty((len(values), 2), np.uint64)
    words[:, 0] = _LOW.take(key)
    np.bitwise_or(_QUAD.take(middle), _TRIPLE.take(rest), out=words[:, 1])
    del rest, middle, key
    exponent = np.flatnonzero(index > 13)  # forms 14-23
    if exponent.size:  # digits 3-6 to bytes 4-7, digits 7-9 to bytes 8-10, then "e-XX,"
        low, high = words[exponent].T
        words[exponent, 0] = low | high << 32
        words[exponent, 1] = high >> 32 & 0xFFFFFF | _SUFFIX[index[exponent] - 14]
    words[ratio, 1] ^= _NEWLINE
    if literals:  # right-aligned in bytes 0-14
        texts = b"".join(text.encode("ascii").rjust(15, b"\0") + b"\0"
                         for text in literals.values())
        words[list(literals)] |= np.frombuffer(texts, "<u8").reshape(-1, 2)
    return words


def _is_constant(column: np.ndarray) -> bool:
    """Whether ``column`` holds one value, bit for bit, in two rows or more."""
    bits = column.view(np.uint64)
    return len(bits) > 1 and bits.item(0) == bits.item(-1) and not (bits != bits.item(0)).any()


def _format_chunk(columns) -> str:
    """CSV text of the rows of ``columns``, each field ``"%#.9g" % v``.

    A NaN prints ``nan``, or nothing in the last (ratio) column.  A column
    that is bitwise constant over the chunk is formatted once: ``values``
    holds each varying column, then one value of each constant column.  A
    chunk with a 16-character text prints through ``%`` row by row.
    """
    rows = len(columns[0])
    constant = [j for j, column in enumerate(columns) if _is_constant(column)]
    varying = [j for j in range(len(columns)) if j not in constant]
    values = np.concatenate([columns[j] for j in varying] + [columns[j][:1] for j in constant])
    if constant[-1:] == [len(columns) - 1]:  # the ratio, the last column, is the last value
        ratio = slice(len(values) - 1, len(values))
    else:  # or the last varying block
        ratio = slice((len(varying) - 1) * rows, len(varying) * rows)
    words = _field_words(values, ratio)
    if words is None:  # a row ends in "nan" only where its ratio is NaN, which prints blank
        return "".join(",".join(map(_format_real, row)).removesuffix("nan") + "\n"
                       for row in zip(*(column.tolist() for column in columns)))
    fields = words.view("V16").reshape(-1)
    grid = np.empty((len(columns), rows), fields.dtype)
    grid[varying] = fields[:len(varying) * rows].reshape(-1, rows)
    grid[constant] = fields[len(varying) * rows:, None]
    del words, fields, values
    data = grid.T.tobytes()
    del grid
    text = data.translate(None, b"\0")
    del data
    return text.decode("ascii")


def _csv_text(chunks: Iterable) -> Iterator[str]:
    """Yield the header, then the rows of each chunk of ``GridValues`` columns.

    A row is (q, theta, nu, mu, upsilon, eta, C, S, QFE, ratio) with a NaN
    ratio blank; ``_format_chunk`` builds each chunk's text.
    """
    yield CSV_HEADER + "\n"
    for chunk in chunks:
        yield _format_chunk(chunk)


def _emit(pieces: Iterable[str], destination: str | None) -> None:
    """Write ``pieces``, each ending in a newline, to ``destination`` or stdout."""
    if destination is None:
        sys.stdout.writelines(pieces)
    else:
        with open(destination, "w", encoding="utf-8", newline="") as handle:
            handle.writelines(pieces)


def write_csv(grid: GridValues, destination: str | None = None) -> None:
    """Emit one row per grid point under the fixed header; ``None`` writes to stdout."""
    _emit(_csv_text(_chunks(grid)), destination)


def _write_points(points, args) -> int:
    """Evaluate and emit the flat (theta, nu, q) ``points``, one chunk at a time.

    With ``--oracle`` every chunk is cross-checked first, so a disagreement
    anywhere prints no CSV and creates no ``--output`` file.
    """
    if args.oracle:
        for chunk in _chunks(points):
            evaluate_grid(*chunk, cross_check=True)
    _emit(_csv_text(evaluate_grid(*chunk) for chunk in _chunks(points)), args.output)
    return 0


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
    return _write_points([np.array([v]) for v in (params.theta, params.nu, params.q)], args)


def _run_sweep(args) -> int:
    if args.variable is None or args.min is None or args.max is None or args.steps is None:
        raise ValueError("sweep requires --variable, --min, --max and --steps")
    params = _make_params(args)
    _warn_validity(params)
    spec = SweepSpec(variable=args.variable, min=args.min, max=args.max, steps=args.steps,
                     fixed=params)
    return _write_points(_sweep_points([spec]), args)


def _run_figure(args) -> int:
    if args.which is None:
        raise ValueError("figure requires --which (fig1, fig2 or fig3)")
    return _write_points(_sweep_points(figure_preset(args.which)), args)


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
    return 0


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
    except RuntimeError as exc:  # a cross-check or an internal fault
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
