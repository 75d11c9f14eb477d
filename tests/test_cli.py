import math

import numpy as np
import pytest

from qfesim import cli
from qfesim.measures import evaluate_grid
from qfesim.sweep import figure_preset, run_sweep

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
