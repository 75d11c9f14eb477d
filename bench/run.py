"""qfesim benchmark: one workload, one seed, every metric by name and unit.

    python3 bench/run.py --workload sweep-closed --seed 1 --seconds 30 --trace 0

Run from the repository root or anywhere else: the package is imported from
``src/`` next to this directory, never from an installed copy, and the run
fails without a result when that source is missing.

``--trace 0`` prints the end-to-end metrics.  ``setup_s`` is the median
import time of ``qfesim.cli`` over several fresh interpreters; the rest come
from one fresh single-threaded worker process that runs the workload's
seeded calls in a closed loop through ``qfesim.cli.main``.  Once the worker
has exited, every output it stored is checked here against an independent
reference, so the checker adds nothing to the worker's peak RSS.
``--trace 1`` prints the per-layer metrics of one traced round instead and
writes its spans under ``.bench_out/``.  The last line of standard output is
one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

MAX_REPORTED = 10
SETUP_PROBES = 4  # before and again after the workload, so they sample the run's span
WORKER_TIMEOUT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END_UNITS = {
    "points_per_s": "1/s",
    "call_p50_ms": "ms",
    "call_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    # Imports read cached bytecode, as from an installed package, whatever the
    # caller's setting; the cache lives inside the checkout.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(OUT / "pycache")
    for var in THREAD_VARS:
        env[var] = str(_nproc())
    return env


def _git_head():
    if not (ROOT / ".git").exists():
        return None  # not a clone; git would answer for an enclosing repository
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def _worker(args: list[str], env: dict, deadline: float, stdin: str = "") -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run(cmd, env=env, input=stdin, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker exceeded {timeout:.0f} s: {' '.join(args)}") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _import_probes(env: dict, deadline: float, n: int) -> list[float]:
    return [_worker(["--probe"], env, deadline)["import_s"] for _ in range(n)]


def _check(workload: str, seed: int, result: dict) -> tuple[list, list[str]]:
    """Judge every call the worker recorded; return the timed calls as
    ``(verb, seconds, points or 0 if it failed)`` and the failure reports."""
    stream = workloads.rounds(workload, seed)
    batches = []
    outputs = Path(result["outputs"])
    verdicts = {}
    calls, problems = [], []
    try:
        for round_index, index, verb, seconds, status, digest, stderr in result["records"]:
            if round_index is None:
                call = workloads.WARMUP
            else:
                while len(batches) <= round_index:
                    batches.append(next(stream))
                call = batches[round_index][index]
            key = (call.argv, status, digest)
            if key not in verdicts:
                verdicts[key] = reference.check(call.spec, status,
                                                (outputs / digest).read_text())
            found = verdicts[key]
            if round_index is not None:
                calls.append((verb, seconds, 0 if found else call.points))
            if found:
                problems.append(f"{' '.join(call.argv)}: {'; '.join(found)}"
                                + (f" [stderr: {stderr.strip()}]" if stderr.strip() else ""))
    finally:
        shutil.rmtree(outputs, ignore_errors=True)
    return calls, problems


def _end_to_end(calls: list, maxrss_kb: int, setup_s: float) -> dict:
    latencies = [1e3 * seconds for _, seconds, _ in calls]
    busy = sum(seconds for _, seconds, _ in calls)
    points = sum(p for _, _, p in calls)
    deciles = statistics.quantiles(latencies, n=10)
    return {
        "points_per_s": points / busy,
        "call_p50_ms": statistics.median(latencies),
        "call_p90_ms": deciles[8],
        "peak_rss_mb": maxrss_kb / 1024.0,
        "setup_s": setup_s,
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one benchmark and return the printed report (``lines``, ``result``)."""
    deadline = time.monotonic() + WORKER_TIMEOUT_S
    if not (SRC / "qfesim" / "cli.py").is_file():
        raise BenchError(f"no qfesim sources under {SRC}")
    env = _child_env()
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "python": platform.python_version(), "nproc": _nproc(),
        "thread_caps": {var: env[var] for var in THREAD_VARS},
        "git_head": _git_head(), "src_lines": _src_lines(),
        "loadavg_before": os.getloadavg(),
    }
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(int(trace))]
    lines = []
    if trace:
        result = _worker(args, env, deadline, stdin=json.dumps(record))
        _, problems = _check(workload, seed, result)
        metrics = result["per_layer"]
        units = spans.PER_LAYER_UNITS
        lines.append(f"# per_verb {json.dumps(result['per_verb'], sort_keys=True)}")
        lines.append(f"# spans {result['spans']} written to {result['trace_file']}")
    else:
        _worker(["--probe"], env, deadline)  # compiles bytecode and warms the file cache
        samples = _import_probes(env, deadline, SETUP_PROBES)
        result = _worker(args, env, deadline)
        calls, problems = _check(workload, seed, result)
        samples += _import_probes(env, deadline, SETUP_PROBES)
        metrics = _end_to_end(calls, result["maxrss_kb"], statistics.median(samples))
        units = END_TO_END_UNITS
        verbs = sorted({verb for verb, _, _ in calls})
        lines.append(f"# calls {len(calls)} ({', '.join(verbs)}), "
                     f"setup samples {[round(s, 4) for s in samples]}")
    record.update(numpy=result["numpy"], loadavg_after=os.getloadavg())
    lines.insert(0, f"# env {json.dumps(record)}")
    attempted, failed = len(result["records"]), len(problems)
    lines.extend(f"# FAILED {problem}" for problem in problems[:MAX_REPORTED])
    lines.append(f"error_rate: {failed / attempted:.6g} ({failed} of {attempted} calls)")
    lines.extend(f"{name}: {metrics[name]:.6g} {unit}" for name, unit in units.items())
    return {
        "lines": lines,
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items()},
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="busy time of the closed loop (whole rounds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("\n".join(report["lines"]))
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
