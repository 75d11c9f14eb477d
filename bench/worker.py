"""One benchmark process: runs a workload's calls through ``qfesim.cli.main``.

``run.py`` starts this script in a fresh interpreter, so the first thing it
does is import ``qfesim.cli`` (and with it numpy) from ``src/`` and time that
import.  With ``--probe`` that is all it does.  Otherwise it runs the
workload as a closed loop -- one caller, the next call only after the
previous returned.  It does not judge the outputs, so the checker's memory
stays out of this process's peak RSS: each distinct output is written once
under ``.bench_out/calls-<pid>/``, named by its digest, and every call's
record names the digest for ``run.py`` to check after this process exits.
The result is one JSON object on the last line of standard output.

Untraced (``--trace 0``) it runs whole rounds until the calls have taken
``--seconds`` in total.  Traced (``--trace 1``) it runs the first round
``TRACE_REPEATS`` times untraced and as often under the span recorder,
alternating; the per-layer metrics come from the first traced round, whose
spans are written under ``.bench_out/`` with the JSON header read from
standard input.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

TRACE_REPEATS = 5


def _import_cli():
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import qfesim.cli as cli  # the process's first numpy import happens here

    import_s = time.perf_counter() - t0
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: qfesim was imported from {cli.__file__}, not from {SRC}")
    return cli, import_s


class Runner:
    """Times calls and stores what each printed and how it exited."""

    def __init__(self, cli):
        self.cli = cli
        self.outputs = OUT / f"calls-{os.getpid()}"
        self.outputs.mkdir(parents=True, exist_ok=True)
        self.records: list[list] = []
        self.bytes_out = 0

    def call(self, call, round_index, index) -> float:
        """Run one call and return its seconds.

        The record is ``[round, index in round, verb, seconds, status,
        digest, stderr]``; the warm-up call has round ``None``.
        """
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                status = self.cli.main(list(call.argv))
        except SystemExit as exc:  # argparse rejected the arguments
            status = exc.code
        except Exception as exc:  # a crash fails this call; the loop goes on
            status = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        data = out.getvalue().encode()
        self.bytes_out += len(data)
        digest = hashlib.sha256(data).hexdigest()
        path = self.outputs / digest
        if not path.exists():
            path.write_bytes(data)
        self.records.append([round_index, index, call.verb, seconds, status, digest,
                             err.getvalue()[-300:]])
        return seconds


def _closed_loop(runner, workloads, args) -> None:
    busy = 0.0
    for round_index, batch in enumerate(workloads.rounds(args.workload, args.seed)):
        for index, call in enumerate(batch):
            busy += runner.call(call, round_index, index)
        if busy >= args.seconds:
            break


def _traced(runner, workloads, spans, args) -> dict:
    batch = next(workloads.rounds(args.workload, args.seed))
    overheads = []
    first = None
    for _ in range(TRACE_REPEATS):
        untraced_s = sum(runner.call(call, 0, index) for index, call in enumerate(batch))
        tracer = spans.Tracer()
        bytes_before = runner.bytes_out
        ranges = []
        traced_s = 0.0
        tracer.install()
        try:
            for index, call in enumerate(batch):
                start = len(tracer)
                traced_s += runner.call(call, 0, index)
                ranges.append((call.verb, (start, len(tracer)), call.points))
        finally:
            tracer.uninstall()
        overheads.append(traced_s - untraced_s)
        if first is None:
            first = tracer, ranges, runner.bytes_out - bytes_before
    tracer, ranges, bytes_out = first

    table = spans.SpanTable(tracer)
    points = sum(call_points for _, _, call_points in ranges)
    per_layer = table.per_layer((0, len(tracer)), points, bytes_out,
                                statistics.median(overheads))
    per_verb = {}
    for verb, span_range, call_points in ranges:
        row = per_verb.setdefault(verb, dict.fromkeys(
            ("calls", "points", "eigen_calls", "entropy_calls", "spin_flip_calls",
             "detector_calls"), 0))
        row["calls"] += 1
        row["points"] += call_points
        row["eigen_calls"] += table.count(["qmatrix.hermitian_eigen"], span_range)
        row["entropy_calls"] += table.count(["measures.von_neumann_entropy"], span_range)
        row["spin_flip_calls"] += table.count(["measures.wootters_spectrum"], span_range)
        row["detector_calls"] += table.count(["detector.build_final_state"], span_range)
    for row in per_verb.values():
        row["solves_per_point"] = row["eigen_calls"] / row["points"] if row["points"] else 0.0

    path = OUT / f"trace-{args.workload}-seed{args.seed}.json.gz"
    header = dict(json.load(sys.stdin), per_layer=per_layer, per_verb=per_verb,
                  overheads_s=overheads)
    tracer.write(path, header)
    return {"per_layer": per_layer, "per_verb": per_verb, "spans": len(tracer),
            "trace_file": str(path)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--probe", action="store_true", help="only time the import")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli, import_s = _import_cli()
    result = {"import_s": import_s}
    if not args.probe:
        import numpy

        import spans
        import workloads

        runner = Runner(cli)
        runner.call(workloads.WARMUP, None, 0)
        if args.trace:
            result.update(_traced(runner, workloads, spans, args))
        else:
            _closed_loop(runner, workloads, args)
        result.update(
            numpy=numpy.__version__,
            records=runner.records,
            outputs=str(runner.outputs),
            maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
