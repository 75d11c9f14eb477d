import contextlib
import io
import math
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qfesim import cli
from qfesim.measures import GridValues, evaluate_grid
from qfesim.sweep import figure_preset, run_sweep, sweep_grid

C_WORKED = 0.9927416847761567
QFE_WORKED = 0.1730857541653741


def parse_csv(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def test_state_worked_point(capsys):
    code = cli.main(["state", "--theta", "pi/4", "--nu", "0.05", "--q", "0.5"])
    assert code == 0
    out = capsys.readouterr().out
    header, rows = parse_csv(out)
    assert ",".join(header) == cli.CSV_HEADER
    assert len(rows) == 1
    row = dict(zip(header, rows[0]))
    assert abs(float(row["concurrence"]) - C_WORKED) <= 1e-8
    assert abs(float(row["qfe"]) - QFE_WORKED) <= 1e-8
    assert abs(float(row["q"]) - 0.5) <= 1e-12
    assert abs(float(row["mu"]) - 400.0 / 803.0) <= 1e-8


def test_state_theta_token_matches_decimal(capsys):
    cli.main(["state", "--theta", "pi/8", "--nu", "0.05", "--q", "0.2"])
    token_out = capsys.readouterr().out
    cli.main(["state", "--theta", repr(math.pi / 8), "--nu", "0.05", "--q", "0.2"])
    decimal_out = capsys.readouterr().out
    assert token_out == decimal_out


def test_state_defaults(capsys):
    assert cli.main(["state"]) == 0
    header, rows = parse_csv(capsys.readouterr().out)
    row = dict(zip(header, rows[0]))
    assert abs(float(row["theta"]) - math.pi / 4) <= 1e-8
    assert abs(float(row["nu"]) - 0.05) <= 1e-12
    assert float(row["q"]) == 0.0


def test_state_separable_ratio_empty(capsys):
    cli.main(["state", "--theta", "0", "--nu", "0.05", "--q", "0.5"])
    header, rows = parse_csv(capsys.readouterr().out)
    row = dict(zip(header, rows[0]))
    assert row["ratio"] == ""
    assert float(row["qfe"]) == 0.0


def test_state_oracle_flag(capsys):
    assert cli.main(["state", "--q", "0.3", "--oracle"]) == 0
    assert capsys.readouterr().out.count("\n") == 2


def test_state_accepts_omega_accel(capsys):
    accel = 2.0 * math.pi / math.log(2.0)
    assert cli.main(["state", "--omega", "1", "--accel", repr(accel)]) == 0
    header, rows = parse_csv(capsys.readouterr().out)
    row = dict(zip(header, rows[0]))
    assert abs(float(row["q"]) - 0.5) <= 1e-8


def test_state_domain_error_names_interval(capsys):
    code = cli.main(["state", "--q", "1.2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "[0, 1)" in captured.err


def test_unknown_flag_is_an_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["state", "--frobnicate", "1"])
    assert exc.value.code == 2
    assert "frobnicate" in capsys.readouterr().err


def test_unknown_verb_is_an_error():
    with pytest.raises(SystemExit) as exc:
        cli.main(["render"])
    assert exc.value.code == 2


def test_sweep_requires_bounds(capsys):
    code = cli.main(["sweep", "--variable", "q", "--min", "0"])
    assert code == 2
    assert "requires" in capsys.readouterr().err


def test_sweep_basic(capsys):
    code = cli.main(
        ["sweep", "--variable", "q", "--min", "0", "--max", "0.9", "--steps", "10",
         "--theta", "pi/4", "--nu", "0.05"]
    )
    assert code == 0
    header, rows = parse_csv(capsys.readouterr().out)
    assert len(rows) == 10
    assert abs(float(rows[5][0]) - 0.5) <= 1e-12
    assert abs(float(dict(zip(header, rows[5]))["qfe"]) - QFE_WORKED) <= 1e-8


def test_sweep_rejects_bad_bounds(capsys):
    code = cli.main(
        ["sweep", "--variable", "q", "--min", "0", "--max", "1.0", "--steps", "10"]
    )
    assert code == 2
    assert "[0, 1)" in capsys.readouterr().err


def test_figure_fig2_row_count(tmp_path):
    out = tmp_path / "fig2.csv"
    assert cli.main(["figure", "--which", "fig2", "--output", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").split("\n")
    assert lines[0] == cli.CSV_HEADER
    assert len(lines) == 1 + 3 * 721 + 1  # header + rows + trailing newline
    assert lines[-1] == ""


def test_figure_byte_identical_runs(tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert cli.main(["figure", "--which", "fig3", "--output", str(first)]) == 0
    assert cli.main(["figure", "--which", "fig3", "--output", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_figure_unknown_preset():
    with pytest.raises(SystemExit) as exc:
        cli.main(["figure", "--which", "fig9"])
    assert exc.value.code == 2


def test_peak_output(capsys):
    code = cli.main(["peak", "--variable", "q", "--theta", "pi/4", "--nu", "0.05"])
    assert code == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "location,value"
    location, value = (float(x) for x in lines[1].split(","))
    assert 0.9 < location < 1.0
    assert abs(value - 0.956136644476859) <= 1e-6


def test_check_verb(capsys):
    code = cli.main(["check"])
    captured = capsys.readouterr()
    assert code == 0
    header, rows = parse_csv(captured.out)
    assert header == ["metric", "value"]
    values = {row[0]: row[1] for row in rows}
    assert float(values["max_concurrence_deviation"]) < 1e-9
    assert float(values["max_eigenvalue_deviation"]) < 1e-10
    assert int(values["grid_points"]) == 33 * 4 * 100


def test_config_provides_defaults(tmp_path, capsys):
    config = tmp_path / "preset.cfg"
    config.write_text("theta = pi/8\nnu = 0.01\nq = 0.25\n", encoding="utf-8")
    assert cli.main(["state", "--config", str(config)]) == 0
    header, rows = parse_csv(capsys.readouterr().out)
    row = dict(zip(header, rows[0]))
    assert abs(float(row["theta"]) - math.pi / 8) <= 1e-8
    assert abs(float(row["nu"]) - 0.01) <= 1e-12
    assert abs(float(row["q"]) - 0.25) <= 1e-12


def test_flags_override_config(tmp_path, capsys):
    config = tmp_path / "preset.cfg"
    config.write_text("theta = pi/8\nq = 0.25\n", encoding="utf-8")
    assert cli.main(["state", "--config", str(config), "--q", "0.5"]) == 0
    header, rows = parse_csv(capsys.readouterr().out)
    row = dict(zip(header, rows[0]))
    assert abs(float(row["q"]) - 0.5) <= 1e-12
    assert abs(float(row["theta"]) - math.pi / 8) <= 1e-8


def test_config_rejects_unknown_key(tmp_path, capsys):
    config = tmp_path / "preset.cfg"
    config.write_text("thetta = 0.5\n", encoding="utf-8")
    code = cli.main(["state", "--config", str(config)])
    assert code == 2
    assert "unknown config key" in capsys.readouterr().err


def test_missing_config_file_is_an_error(capsys):
    code = cli.main(["state", "--config", "/nonexistent/preset.cfg"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")


def test_write_csv_empty(capsys):
    cli.write_csv(evaluate_grid(0.5, 0.05, np.empty(0)))
    assert capsys.readouterr().out == cli.CSV_HEADER + "\n"


def test_csv_nine_significant_digits(tmp_path):
    out = tmp_path / "row.csv"
    assert cli.main(
        ["state", "--theta", "pi/4", "--nu", "0.05", "--q", "0.5", "--output", str(out)]
    ) == 0
    line = out.read_text(encoding="utf-8").split("\n")[1]
    fields = line.split(",")
    assert fields[0] == "0.500000000"
    assert fields[6] == "0.992741685"
    assert fields[8] == "0.173085754"


def test_csv_round_trip(tmp_path):
    # 9 significant digits resolve to half an ulp in the ninth digit,
    # i.e. <= max(1e-9 absolute, 5e-9 relative)
    out = tmp_path / "fig2.csv"
    assert cli.main(["figure", "--which", "fig2", "--output", str(out)]) == 0
    records = []
    for spec in figure_preset("fig2"):
        records.extend(run_sweep(spec))
    lines = out.read_text(encoding="utf-8").strip().split("\n")
    assert len(lines) == len(records) + 1
    for line, record in zip(lines[1:], records):
        fields = line.split(",")
        original = [
            record.q, record.theta, record.nu, record.mu, record.upsilon,
            record.eta, record.concurrence, record.entropy, record.qfe,
        ]
        for text, value in zip(fields[:9], original):
            assert abs(float(text) - value) <= max(1e-9, 5e-9 * abs(value))
        if record.ratio is None:
            assert fields[9] == ""
        else:
            assert abs(float(fields[9]) - record.ratio) <= max(1e-9, 5e-9 * record.ratio)


def test_stderr_gets_validity_warnings(capsys):
    assert cli.main(["state", "--nu", "0.5", "--q", "0.1"]) == 0
    captured = capsys.readouterr()
    assert "warning:" in captured.err
    assert "warning" not in captured.out


REPRO_ORACLE_SWEEP = [
    "sweep", "--variable", "theta", "--min", "0.0", "--max", "1.5707963267948966",
    "--steps", "1001", "--theta", "0.0", "--nu", "0.0001232179123712207",
    "--q", "0.959146319643572", "--oracle",
]


def test_oracle_sweep_at_small_coupling(capsys):
    # the matrix route once lost sqrt(eta upsilon) ~ 1e-8 here and exited 1
    assert cli.main(REPRO_ORACLE_SWEEP) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert len(captured.out.splitlines()) == 1 + 1001


def test_oracle_failure_names_the_point(monkeypatch, capsys):
    from qfesim import measures

    real = measures._spin_flip

    def shifted(eig):
        r = real(eig)
        assert r.shape == (len(eig.eigenvalues), 4) == (4, 4)  # the whole chunk of states
        return r + np.array([1e-6, 0.0, 0.0, 0.0])

    monkeypatch.setattr(measures, "_spin_flip", shifted)
    code = cli.main(["sweep", "--variable", "q", "--min", "0.2", "--max", "0.5",
                     "--steps", "4", "--theta", "0.5", "--nu", "0.05", "--oracle"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "(theta, nu, q) = (0.5, 0.05, 0.2)" in captured.err


@pytest.mark.parametrize("variable, bounds", [("theta", ("0", "1.5707963267948966")),
                                              ("q", ("0", "0.9999"))])
def test_pure_state_rows_print_zero_entropy(capsys, variable, bounds):
    assert cli.main(["sweep", "--variable", variable, "--min", bounds[0], "--max", bounds[1],
                     "--steps", "301", "--theta", "pi/3", "--nu", "0", "--q", "0.3"]) == 0
    header, rows = parse_csv(capsys.readouterr().out)
    column = header.index("entropy")
    assert len(rows) == 301
    assert {row[column] for row in rows} == {"0.00000000"}


@pytest.mark.parametrize("given, missing", [("omega", "accel"), ("accel", "omega")])
def test_omega_and_accel_come_together(capsys, given, missing):
    code = cli.main(["state", f"--{given}", "1.0"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"--{given} needs --{missing}" in captured.err


def test_sweep_steps_cap(capsys):
    # rejected by validation before any grid is built
    code = cli.main(["sweep", "--variable", "q", "--min", "0", "--max", "0.5",
                     "--steps", str(10**15)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "1000000" in captured.err


def test_check_stdout_is_exactly_three_metrics(capsys):
    assert cli.main(["check"]) == 0
    lines = capsys.readouterr().out.split("\n")
    assert lines[0] == cli.CHECK_HEADER
    assert [line.split(",")[0] for line in lines[1:-1]] == [
        "max_concurrence_deviation", "max_eigenvalue_deviation", "grid_points",
    ]
    assert lines[3] == "grid_points,13200"
    assert lines[-1] == ""


@pytest.mark.parametrize("side", ["--min", "--max"])
@pytest.mark.parametrize("variable", ["q", "theta"])
def test_peak_rejects_a_nan_bound_as_not_finite(capsys, variable, side):
    code = cli.main(["peak", "--variable", variable, side, "nan"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", "error: bracket must be finite\n")


ORACLE_SWEEP = ["sweep", "--variable", "q", "--min", "0.2", "--max", "0.5", "--steps", "4",
                "--theta", "0.5"]

# key -> (argv without the key, a value for it).  Each value changes the
# outcome of the argv, so a config key that is parsed but never read fails.
CONFIG_CASES = {
    "output": (["state", "--q", "0.3"], "{tmp}/row.csv"),
    "theta": (["state"], "pi/8"),
    "nu": (["state"], "0.02"),
    "q": (["state"], "0.5"),
    "omega": (["state", "--accel", "9.0"], "1"),
    "accel": (["state", "--omega", "1"], "9.0"),
    "variable": (["peak"], "theta"),
    "min": (["peak", "--variable", "q"], "0.995"),
    "max": (["peak", "--variable", "q"], "0.5"),
    "steps": (["sweep", "--variable", "q", "--min", "0", "--max", "0.9"], "7"),
    "which": (["figure"], "fig3"),
    "oracle": (ORACLE_SWEEP, "yes"),  # the oracle is made to fail: exit 1 only if it runs
}


@pytest.mark.parametrize("key", list(cli._OPTIONS))
def test_config_key_acts_like_its_flag(key, tmp_path, capsys, monkeypatch):
    from qfesim import measures

    argv, value = CONFIG_CASES[key]
    value = value.format(tmp=tmp_path)
    if key == "oracle":
        real = measures._spin_flip
        monkeypatch.setattr(measures, "_spin_flip", lambda eig: real(eig) + 1e-6)
    config = tmp_path / "preset.cfg"
    config.write_text(f"{key} = {value}\n", encoding="utf-8")
    destination = tmp_path / "row.csv"
    outcomes = []
    for extra in ([f"--{key}"] if key == "oracle" else [f"--{key}", value],
                  ["--config", str(config)],
                  []):
        code = cli.main(argv + extra)
        captured = capsys.readouterr()
        written = destination.read_text(encoding="utf-8") if destination.exists() else None
        destination.unlink(missing_ok=True)
        outcomes.append((code, captured.out, captured.err, written))
    by_flag, by_config, without = outcomes
    assert by_config == by_flag
    assert without != by_flag


@pytest.mark.parametrize("line, message", [
    ("theta = pi/7", "invalid theta 'pi/7': expected a decimal or one of pi/3, pi/4, pi/5, pi/8"),
    ("nu = abc", "invalid number 'abc'"),
    ("steps = 2.5", "invalid integer '2.5'"),
    ("oracle = maybe", "invalid boolean 'maybe'"),
    ("theta 0.5", "expected 'key = value', got 'theta 0.5'"),
])
def test_config_errors_name_the_path_and_line(line, message, tmp_path, capsys):
    config = tmp_path / "preset.cfg"
    config.write_text(f"q = 0.5\n\n{line}\n", encoding="utf-8")
    code = cli.main(["state", "--config", str(config)])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", f"error: {config}:3: {message}\n")


CHUNK = cli._CHUNK_ROWS
ROW_COUNTS = (0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1)
# NaN of both signs, infinities, signed zeros, the %g switch points, extremes;
# then the writer's hard cases: powers of ten and their neighbours, 9-digit
# ties and near-ties (the doubles nearest (n + 0.5) 10**-j, whose scaled
# value often rounds to exactly n + 0.5), carries into the next power of ten,
# and magnitudes whose 9-digit mantissa needs a power of ten beyond 1e22
POOL = (math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 9.99999999e-05, 1e-4,
        999999999.5, 1.0, 0.1, -2.5, 5e-324, 1.7976931348623157e308,
        9.9999999995e-05, 99999999.95, 999999999.7, -9.999999997e-15, 1e-20, 1e12,
        -123456789.5, 2.5e-15,
        *(x for j in range(-30, 21)
          for x in (10.0**j, np.nextafter(10.0**j, 0.0), np.nextafter(10.0**j, math.inf))),
        961425.5485, 50.76087415, 2.007809635e-08, 8.471448545e-07, 3.859702565,
        *(float(f"{n}5e-{j + 1}") for n in (100000000, 123456789, 999999999)
          for j in range(0, 23, 2)),
        -1.5e200, 0.99999999995, -123456.789)  # a 16-character text, a carry, moving digits
KINDS = ("constant", "per_chunk", "last_row", "edges", "random", "signed_zeros")


def reference_csv(grid) -> str:
    """One ``%`` per row: the writer's rule stated row by row."""
    lines = [cli.CSV_HEADER]
    for row in zip(*(column.tolist() for column in grid)):
        ratio = row[9]
        tail = "," if ratio != ratio else ",%#.9g" % ratio
        lines.append(",".join(["%#.9g"] * 9) % row[:9] + tail)
    return "\n".join(lines) + "\n"


def plan_column(kind, a, b, rows, rng):
    """A column of ``rows`` values built from the pool indices ``a`` and ``b``."""
    column = np.full(rows, POOL[a])
    chunk_ends = np.arange(CHUNK - 1, rows, CHUNK)
    if kind == "per_chunk":  # constant within each chunk, different in the next
        column = np.array([POOL[(a + i // CHUNK) % len(POOL)] for i in range(rows)])
    elif kind == "last_row":  # differs only in each chunk's last row and the grid's last
        column[np.append(chunk_ends, rows - 1) if rows else chunk_ends] = POOL[b]
    elif kind == "edges":  # differs on both sides of every chunk edge
        edges = np.concatenate([chunk_ends, chunk_ends + 1, [0, rows - 1]]).astype(int)
        column[edges[(edges >= 0) & (edges < rows)]] = POOL[b]
    elif kind == "random":
        column = rng.choice(np.array(POOL), rows)
    elif kind == "signed_zeros":
        column = rng.choice(np.array([0.0, -0.0]), rows)
    return column


def plan_grid(plan) -> GridValues:
    rows, columns, seed = plan
    rng = np.random.default_rng(seed)
    return GridValues(*(plan_column(kind, a, b, rows, rng) for kind, a, b in columns))


def written(grid) -> tuple[str, str]:
    """What ``write_csv`` prints to stdout, and what it writes to a file."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        cli.write_csv(grid)
    with tempfile.TemporaryDirectory() as directory:
        path = f"{directory}/out.csv"
        cli.write_csv(grid, path)
        with open(path, "rb") as handle:
            return stdout.getvalue(), handle.read().decode("ascii")


def pool_index(value) -> int:
    """The index of ``value`` in POOL, bit for bit: ``POOL.index(-0.0)`` finds 0.0."""
    bits = np.float64(value).view(np.uint64)
    return next(i for i, v in enumerate(POOL) if np.float64(v).view(np.uint64) == bits)


NAN, ONE, MINUS_ZERO, TENTH, INF, NEAR_TIE, LONG, CARRY, LARGE = (
    pool_index(v) for v in (math.nan, 1.0, -0.0, 0.1, math.inf, 9.9999999995e-05, -1.5e200,
                            0.99999999995, -123456.789))
PLANS = st.tuples(
    st.sampled_from(ROW_COUNTS),
    st.lists(st.tuples(st.sampled_from(KINDS), st.integers(0, len(POOL) - 1),
                       st.integers(0, len(POOL) - 1)), min_size=10, max_size=10),
    st.integers(0, 2**32 - 1),
)


@settings(max_examples=60, deadline=None)
@given(plan=PLANS)
@example(plan=(0, [("constant", ONE, ONE)] * 10, 0))
@example(plan=(1, [("random", NAN, NAN)] * 10, 1))
@example(plan=(2 * CHUNK + 1, [("edges", ONE, NAN)] * 10, 2))  # NaN ratios at chunk edges
@example(plan=(CHUNK + 1, [("per_chunk", ONE, ONE)] * 9 + [("constant", NAN, NAN)], 3))
@example(plan=(CHUNK, [("last_row", ONE, MINUS_ZERO)] * 9 + [("random", NAN, NAN)], 4))
@example(plan=(CHUNK - 1, [("signed_zeros", ONE, ONE)] * 9 + [("last_row", ONE, NAN)], 5))
# columns that are constant in a chunk, formatted once, beside plain varying
# ones: texts of their own, a near-tie and a carry to the next power of ten,
# 16-character texts in every row, -0.0, NaN after and before the ratio, and
# digits that move around the point
@example(plan=(CHUNK + 1, [("constant", INF, ONE)] * 3 + [("edges", ONE, TENTH)] * 6
               + [("constant", INF, ONE)], 6))
@example(plan=(CHUNK, [("edges", ONE, TENTH)] * 4 + [("constant", NEAR_TIE, ONE)] * 3
               + [("constant", CARRY, ONE)] * 3, 7))
@example(plan=(2 * CHUNK + 1, [("constant", LONG, ONE), ("last_row", ONE, LONG)]
               + [("edges", ONE, TENTH)] * 7 + [("constant", LONG, ONE)], 8))
@example(plan=(CHUNK - 1, [("constant", MINUS_ZERO, ONE)] * 4 + [("edges", ONE, TENTH)] * 5
               + [("constant", MINUS_ZERO, ONE)], 9))
@example(plan=(CHUNK + 1, [("constant", NAN, ONE)] * 5 + [("edges", ONE, TENTH)] * 4
               + [("edges", ONE, NAN)], 10))
@example(plan=(CHUNK, [("edges", ONE, TENTH)] * 3 + [("constant", NAN, ONE)] * 7, 11))
@example(plan=(CHUNK + 1, [("constant", LARGE, ONE), ("edges", ONE, LARGE)]
               + [("edges", ONE, TENTH)] * 8, 12))
def test_write_csv_matches_the_per_row_writer(plan):
    grid = plan_grid(plan)
    expected = reference_csv(grid)
    assert written(grid) == (expected, expected)


# A double's raw bits, drawn as sign, biased exponent and fraction so that every
# exponent is as likely as any other: NaNs, infinities, subnormals, zeros and
# the 16-character texts of negative values beyond 1e99 or below 1e-99.
DOUBLE_BITS = st.one_of(
    st.integers(0, 2**64 - 1),
    st.builds(lambda sign, exponent, fraction: sign << 63 | exponent << 52 | fraction,
              st.integers(0, 1), st.integers(0, 2047), st.integers(0, 2**52 - 1)),
)


@settings(max_examples=60, deadline=None)
@given(bits=st.lists(DOUBLE_BITS, min_size=1, max_size=300))
@example(bits=np.array([-1.5e200, -5e-324, -math.inf, math.nan]).view(np.uint64).tolist())
def test_each_field_is_the_per_value_format_of_any_double(bits):
    values = np.array(bits + [0] * (-len(bits) % 10), dtype=np.uint64).view(np.float64)
    rows = values.reshape(-1, 10)
    stdout, _ = written(GridValues(*rows.T.copy()))
    fields = [line.split(",") for line in stdout.splitlines()[1:]]
    expected = [["%#.9g" % v for v in row] for row in rows.tolist()]
    for want, ratio in zip(expected, rows[:, 9]):
        if math.isnan(ratio):
            want[9] = ""  # a NaN ratio prints blank; a NaN elsewhere prints nan
    assert fields == expected


def test_write_csv_streams_in_bounded_memory(tmp_path):
    # A q sweep at nu = 0 varies in q alone, which keeps tracemalloc's per-object
    # cost small; a writer that keeps every line peaks above 70 MB here.
    grid = evaluate_grid(math.pi / 4, 0.0, np.linspace(0.0, 0.999, 200_000))
    destination = tmp_path / "big.csv"
    tracemalloc.start()
    try:
        cli.write_csv(grid, str(destination))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20
    assert destination.read_bytes().count(b"\n") == 1 + 200_000


def test_one_fig1_chunk_peaks_below_700_kib():
    # what formatting one chunk holds at once (about 550 KiB), so that the
    # writer's speed is not bought with memory
    grid = sweep_grid(figure_preset("fig1"))
    chunk = GridValues(*(column[:CHUNK] for column in grid))
    tracemalloc.start()
    try:
        text = "".join(cli._csv_text(chunk))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 700 * 1024
    assert text.count("\n") == 1 + CHUNK


@pytest.mark.parametrize("argv, flag, value", [
    (["state"], "--theta", "-1e-3"),
    (["state"], "--theta", "-.5"),
    (["state", "--q", "0.5"], "--nu", "-1E-2"),
    (["peak", "--variable", "q"], "--min", "-inf"),
    (["peak", "--variable", "theta"], "--min", "-.5"),
    (["sweep", "--variable", "theta", "--max", "0.5", "--steps", "3"], "--min", "-1e-3"),
    (["state"], "--thet", "-1e-3"),  # a unique prefix, as argparse reads it
])
def test_a_negative_flag_value_reads_like_the_attached_form(argv, flag, value, capsys):
    outcomes = []
    for extra in ([flag, value], [f"{flag}={value}"]):
        code = cli.main(argv + extra)
        captured = capsys.readouterr()
        outcomes.append((code, captured.out, captured.err))
    assert outcomes[0] == outcomes[1]


def test_peak_reads_a_negative_infinite_bound(capsys):
    code = cli.main(["peak", "--variable", "q", "--min", "-inf"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", "error: bracket must be finite\n")


@pytest.mark.parametrize("argv, message", [
    (["state", "--theta", "-pi/4"], "argument --theta: expected one argument"),
    (["sweep", "--steps", "-1e3"], "argument --steps: expected one argument"),
    (["state", "--output", "-x"], "argument --output: expected one argument"),
    (["figure", "--theta", "-1e-3"], "unrecognized arguments: --theta -1e-3"),
])
def test_a_dash_token_that_is_no_value_of_the_flag_stays_an_error(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f"error: {message}\n")
