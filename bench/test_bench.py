"""Tests of the benchmark itself:  python3 -m pytest bench -q"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import reference
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@functools.cache
def _bench(workload: str, trace: int) -> subprocess.CompletedProcess:
    # One round per run: the smallest run the benchmark makes.
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )


def _cli(*argv: str) -> str:
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import qfesim.cli
    finally:
        sys.path.pop(0)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert qfesim.cli.main(list(argv)) == 0
    return out.getvalue()


WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def test_benchmark_names_the_implemented_workloads():
    assert sorted(WORKLOADS) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_prints_exactly_the_declared_metrics(workload, trace, section):
    proc = _bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for name in declared:
        assert f"\n{name}: " in "\n" + proc.stdout


def _per_verb(workload: str) -> dict:
    proc = _bench(workload, 1)
    line = next(l for l in proc.stdout.splitlines() if l.startswith("# per_verb "))
    return json.loads(line.removeprefix("# per_verb "))


def test_trace_reproduces_the_solve_counts():
    assert _per_verb("oracle")["check"]["solves_per_point"] == 3.0
    assert _per_verb("oracle")["check"]["points"] == 13200
    for verb, row in _per_verb("sweep-closed").items():
        assert row["solves_per_point"] == 1.0, verb
        assert row["spin_flip_calls"] == 0, verb
    peak = _per_verb("peak-scalar")["peak"]
    assert peak["entropy_calls"] == 0 and peak["eigen_calls"] == 0
    assert 2000 < peak["detector_calls"] / peak["calls"] < 2100


def test_trace_points_match_the_harness_count():
    proc = _bench("sweep-closed", 1)
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    points = sum(row["points"] for row in _per_verb("sweep-closed").values())
    assert metrics["sweep.points"]["value"] == points
    assert metrics["qmatrix.eigen_calls"]["value"] == points


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_worker_leaves_checking_to_the_parent():
    # The checker must not run in the process whose peak RSS is reported.
    probe = textwrap.dedent("""
        import contextlib, io, json, shutil, sys
        import worker
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            worker.main(["--workload", "peak-scalar", "--seed", "1", "--seconds", "0.01"])
        result = json.loads(out.getvalue())
        shutil.rmtree(result["outputs"])
        assert "reference" not in sys.modules
        assert len(result["records"]) == 21  # the warm-up call and one round of 20
    """)
    subprocess.run([sys.executable, "-c", probe], cwd=HERE, check=True, timeout=60)


def test_smoke_run_removes_the_stored_outputs():
    _bench("peak-scalar", 0)
    assert not list((ROOT / ".bench_out").glob("calls-*"))


def test_generator_is_seeded_and_covers_the_special_regimes():
    def argvs(seed, n=30):
        stream = workloads.rounds("peak-scalar", seed)
        return [call.argv for _ in range(n) for call in next(stream)]

    assert argvs(5) == argvs(5)
    assert argvs(5) != argvs(6)
    calls = [call for w in workloads.WORKLOADS for seed in (1, 2)
             for _, batch in zip(range(10), workloads.rounds(w, seed)) for call in batch]
    specs = [c.spec for c in calls if c.spec["kind"] in ("sweep", "peak", "state")]
    assert any(s["nu"] == 0.0 for s in specs)
    assert any(s.get("hi") == 0.9999 and s["variable"] == "q" for s in specs if "hi" in s)
    thetas = {s["theta"] for s in specs} | {s["hi"] for s in specs if s.get("variable") == "theta"}
    assert {0.0, math.pi / 4, math.pi / 2} <= thetas
    # A q sweep to 0.9999 with nu >= 0.02 passes sudden death (1 - q = nu^2 sqrt(q)).
    assert any(s["kind"] == "sweep" and s["variable"] == "q" and s["nu"] >= 0.02 for s in specs)


def test_reference_never_imports_the_program():
    probe = ("import sys, reference, workloads; "
             "batch = next(workloads.rounds('sweep-closed', 1)); "
             "reference.check(batch[0].spec, 0, ''); "
             "assert not any(m.startswith('qfesim') for m in sys.modules)")
    subprocess.run([sys.executable, "-c", probe], cwd=HERE, check=True, timeout=60)


SWEEP = ("sweep", "--variable", "q", "--min", "0.0", "--max", "0.9999", "--steps", "400",
         "--theta", "pi/4", "--nu", "0.05")


def _sweep_problems(text: str) -> list[str]:
    spec = dict(kind="sweep", variable="q", lo=0.0, hi=0.9999, steps=400,
                theta=math.pi / 4, nu=0.05, q=0.0)
    return reference.check(spec, 0, text)


def test_checker_accepts_the_cli_output_across_sudden_death():
    text = _cli(*SWEEP)
    assert ",\n" in text  # the grid reaches C = 0, where the ratio is blank
    assert _sweep_problems(text) == []


@pytest.mark.parametrize("column", [3, 6, 7, 8, 9])
def test_checker_rejects_a_perturbed_row(column):
    lines = _cli(*SWEEP).split("\n")
    fields = lines[100].split(",")
    fields[column] = "%#.9g" % (float(fields[column]) * (1 + 3e-8))
    lines[100] = ",".join(fields)
    problems = _sweep_problems("\n".join(lines))
    assert len(problems) == 1 and problems[0].startswith("row 99 ")


def test_checker_rejects_missing_rows_and_bad_exit():
    text = _cli(*SWEEP)
    assert _sweep_problems(text.replace(text.split("\n")[-2] + "\n", ""))
    assert reference.check(dict(kind="check"), 1, "") == ["exit status 1"]


def test_checker_treats_negative_zero_as_zero():
    argv = ("sweep", "--variable", "q", "--min", "0.0", "--max", "0.5", "--steps", "5",
            "--theta", "0.3", "--nu", "0.0")
    text = _cli(*argv)
    assert "-0.00000000" in text  # pure-state entropy prints as negative zero
    spec = dict(kind="sweep", variable="q", lo=0.0, hi=0.5, steps=5, theta=0.3, nu=0.0, q=0.0)
    assert reference.check(spec, 0, text) == []
    assert reference.check(spec, 0, text.replace("-0.00000000", "0.00000000")) == []


def test_checker_judges_peaks():
    argv = ("peak", "--variable", "q", "--theta", "0.6", "--nu", "0.05",
            "--min", "0.2", "--max", "0.9999")
    spec = dict(kind="peak", variable="q", theta=0.6, nu=0.05, q=0.0, lo=0.2, hi=0.9999)
    text = _cli(*argv)
    assert reference.check(spec, 0, text) == []
    location, value = text.split("\n")[1].split(",")
    lower = "%#.9g" % (float(value) - 1e-6)
    assert reference.check(spec, 0, text.replace(value, lower))
    # The value at another location of the bracket is not the peak.
    moved = "%#.9g" % (float(location) - 0.05)
    assert reference.check(spec, 0, text.replace(location, moved))


def test_checker_judges_the_self_check():
    good = ("metric,value\nmax_concurrence_deviation,1.44328993e-15\n"
            "max_eigenvalue_deviation,2.44249065e-15\ngrid_points,13200\n")
    assert reference.check(dict(kind="check"), 0, good) == []
    assert reference.check(dict(kind="check"), 0, good.replace("13200", "13199"))
    assert reference.check(dict(kind="check"), 0, good.replace("1.44328993e-15", "2.0e-09"))
