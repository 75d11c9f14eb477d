"""Byte-equality of CLI output against committed golden files.

Each case runs one CLI invocation in process and compares its stdout, byte
for byte, with ``tests/golden/<name>.csv`` (``.csv.gz`` for the figure
presets: gzip level 9, no file name or timestamp).  A change that alters
any printed digit fails here and must announce the change and regenerate
the files.  ``tests/golden/usage_errors.txt`` holds the exit status and
stderr of argparse's usage errors (a missing verb, an unknown verb or flag,
a bad choice or value, a flag given a value it does not take), at an
80-column width.  That text is Python's own and its wording varies between
Python versions, so it is compared only under the version that wrote it.
``tests/golden/check_deviations.sha256`` pins the bits of every per-point
deviation behind ``check`` (``oracle_deviations`` over the 13,200 points
of ``oracle_scan``), of which ``check.csv`` prints only the maxima; a
change that moves one of them announces it and regenerates the digest
with the files.  Regenerate with:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import gzip
import hashlib
import io
import os
import pathlib
import sys
from unittest import mock

import pytest

from qfesim import cli, sweep

GOLDEN_DIR = pathlib.Path(__file__).with_name("golden")

CASES = {
    "figure_fig1": ["figure", "--which", "fig1"],
    "figure_fig2": ["figure", "--which", "fig2"],
    "figure_fig3": ["figure", "--which", "fig3"],
    "peak_q_pi3": ["peak", "--variable", "q", "--theta", "pi/3", "--nu", "0.05"],
    "peak_q_pi4": ["peak", "--variable", "q", "--theta", "pi/4", "--nu", "0.05"],
    "peak_q_pi5": ["peak", "--variable", "q", "--theta", "pi/5", "--nu", "0.05"],
    "peak_q_pi8_bracket": [
        "peak", "--variable", "q", "--theta", "pi/8", "--nu", "0.02",
        "--min", "0.5", "--max", "0.999",
    ],
    "peak_theta_q0": ["peak", "--variable", "theta", "--nu", "0.05", "--q", "0"],
    "peak_theta_q05": ["peak", "--variable", "theta", "--nu", "0.05", "--q", "0.5"],
    "peak_theta_q08": ["peak", "--variable", "theta", "--nu", "0.05", "--q", "0.8"],
    "check": ["check"],
    "sweep_q_nu0": [
        "sweep", "--variable", "q", "--min", "0", "--max", "0.9999", "--steps", "201",
        "--theta", "pi/4", "--nu", "0",
    ],
    "sweep_q_nu01": [
        "sweep", "--variable", "q", "--min", "0", "--max", "0.999", "--steps", "201",
        "--theta", "pi/3", "--nu", "0.1",
    ],
}

VERBS = ("state", "sweep", "figure", "peak", "check")
USAGE_CASES = (
    [[], ["render"]]
    + [[verb, "--frobnicate", "1"] for verb in VERBS]
    + [[verb, "--output"] for verb in VERBS]
    + [
        ["sweep", "--variable", "x"],
        ["peak", "--variable", "z"],
        ["figure", "--which", "fig9"],
        ["state", "--nu", "abc"],
        ["peak", "--min", "1e"],
        ["sweep", "--steps", "2.5"],
        ["state", "--theta", "pi/7"],
        ["state", "--oracle=1"],
        ["sweep", "--oracle=yes"],
        ["figure", "--oracle=1"],
        ["peak", "--oracle"],
    ]
)
USAGE_GOLDEN = GOLDEN_DIR / "usage_errors.txt"
USAGE_PYTHON = (3, 11)  # the version whose argparse wrote USAGE_GOLDEN
DEVIATIONS_GOLDEN = GOLDEN_DIR / "check_deviations.sha256"


def usage_transcript() -> str:
    """Each usage case's argv, exit status and stderr, at an 80-column width."""
    parts = []
    for argv in USAGE_CASES:
        err = io.StringIO()
        with mock.patch.dict(os.environ, COLUMNS="80"), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:
                code = exc.code
        parts.append(f"$ {' '.join(['qfesim', *argv])}\nexit {code}\n{err.getvalue()}")
    return "".join(parts)


def check_deviations_sha256() -> str:
    """SHA-256 of the deviations ``check`` computes, float64 (13200, 3) in grid order."""
    digest = hashlib.sha256()
    real = sweep.oracle_deviations

    def hashing(grid):
        deviations = real(grid)
        digest.update(deviations.tobytes())
        return deviations

    with mock.patch.object(sweep, "oracle_deviations", hashing):
        assert sweep.oracle_scan().points == 13200
    return digest.hexdigest()


def golden_path(name: str) -> pathlib.Path:
    suffix = ".csv.gz" if name.startswith("figure_") else ".csv"
    return GOLDEN_DIR / f"{name}{suffix}"


def read_golden(name: str) -> bytes:
    data = golden_path(name).read_bytes()
    return gzip.decompress(data) if name.startswith("figure_") else data


def write_golden(name: str, data: bytes) -> None:
    path = golden_path(name)
    if name.startswith("figure_"):
        data = gzip.compress(data, compresslevel=9, mtime=0)
    path.write_bytes(data)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, capsys):
    assert cli.main(list(CASES[name])) == 0
    assert capsys.readouterr().out.encode("ascii") == read_golden(name)


@pytest.mark.skipif(sys.version_info[:2] != USAGE_PYTHON,
                    reason="argparse's wording differs between Python versions")
def test_usage_errors_match_golden(capsys):
    assert usage_transcript().encode("ascii") == USAGE_GOLDEN.read_bytes()
    assert capsys.readouterr().out == ""


def test_check_deviations_match_golden_digest():
    assert check_deviations_sha256() + "\n" == DEVIATIONS_GOLDEN.read_text(encoding="ascii")


def _regenerate() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = cli.main(list(argv))
        if code != 0:
            raise SystemExit(f"{name}: exit status {code}")
        write_golden(name, buffer.getvalue().encode("ascii"))
        print(f"wrote {golden_path(name)}", file=sys.stderr)
    DEVIATIONS_GOLDEN.write_text(check_deviations_sha256() + "\n", encoding="ascii")
    print(f"wrote {DEVIATIONS_GOLDEN}", file=sys.stderr)
    if sys.version_info[:2] == USAGE_PYTHON:
        USAGE_GOLDEN.write_bytes(usage_transcript().encode("ascii"))
        print(f"wrote {USAGE_GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    _regenerate()
