"""Span recorder for the traced benchmark run.

The recorder wraps qfesim's functions from outside the package: every
public function of ``cli``, ``sweep``, ``detector``, ``measures`` and
``qmatrix``, at every module attribute that binds it.  ``from .x import f``
copies the binding, so ``hermitian_eigen`` is wrapped both in
``qfesim.qmatrix`` and in ``qfesim.measures``; each span is named after the
module that defines the function, which is its layer.  ``cli._emit`` is
private but is the writer behind every verb, so it is wrapped too.

A span is (name, start, end, parent, items).  Spans stay in flat arrays in
memory until the run ends and :meth:`Tracer.write` stores them.  ``items``
is the number of parameter points a sweep-layer call returned.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import time
from array import array

import numpy as np

LAYERS = ("cli", "sweep", "detector", "measures", "qmatrix")
PRIVATE_WRAPPED = {"cli._emit"}
POINT_COUNTS = {
    "sweep.run_sweep": len,
    "sweep.oracle_scan": lambda scan: scan.points,
    "sweep.find_qfe_peak": lambda peak: 1,
    "sweep.evaluate_point": lambda record: 1,
}

SPIN_FLIP = ("measures.spin_flip", "measures.wootters_spectrum", "measures.concurrence_numeric")
CLOSED_FORM = ("measures.concurrence_analytic", "measures.qfe_from_concurrence",
               "measures.analytic_eigenvalues")
FORMAT = ("cli.write_csv", "cli._emit")

# name -> unit, in the order they are reported.  What each should move:
#   qmatrix.*            points_per_s on oracle, and on sweep-closed through the
#                        entropy; solves_per_point is 3 on check, 1 on sweep and
#                        figure, and nothing here should move on peak-scalar
#   measures.spin_flip_* points_per_s on oracle
#   measures.entropy_*   points_per_s on sweep-closed
#   measures.closed_form call_p50_ms on peak-scalar
#   detector.*           call_p50_ms on peak-scalar, points_per_s on sweep-closed
#   sweep.*              call_p50_ms on peak-scalar (evals_per_peak is ~2,027
#                        closed-form evaluations for one result)
#   cli.*                points_per_s on sweep-closed (format_s is the CSV writers)
#   trace.overhead_s     traced minus untraced wall time of the same round
PER_LAYER_UNITS = {
    "qmatrix.eigen_calls": "count",
    "qmatrix.eigen_s": "s",
    "qmatrix.eigen_us_per_call": "us",
    "qmatrix.sqrt_s": "s",
    "qmatrix.solves_per_point": "solves/point",
    "measures.spin_flip_calls": "count",
    "measures.spin_flip_s": "s",
    "measures.entropy_calls": "count",
    "measures.entropy_s": "s",
    "measures.closed_form_s": "s",
    "detector.calls": "count",
    "detector.self_s": "s",
    "detector.us_per_call": "us",
    "sweep.points": "count",
    "sweep.self_s": "s",
    "sweep.evals_per_peak": "evals/peak",
    "cli.self_s": "s",
    "cli.format_s": "s",
    "cli.bytes_out": "bytes",
    "trace.overhead_s": "s",
}


class Tracer:
    """Wraps the qfesim layers and records one span per wrapped call."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.items = array("q")
        self._stack = [-1]
        self._installed = []

    def __len__(self) -> int:
        return len(self.name)

    def _wrap(self, span_name: str, fn):
        nid = self._ids.setdefault(span_name, len(self._ids))
        if nid == len(self.names):
            self.names.append(span_name)
        count = POINT_COUNTS.get(span_name)
        names, parents, starts, ends, items = self.name, self.parent, self.start, self.end, self.items
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(names)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0)
            ends.append(0)
            items.append(0)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[sid] = t0
                ends[sid] = t1
            if count is not None:
                items[sid] = count(result)
            return result

        return traced

    def install(self) -> None:
        for layer in LAYERS:
            module = importlib.import_module(f"qfesim.{layer}")
            for attr, value in list(vars(module).items()):
                if not inspect.isfunction(value) or not value.__module__.startswith("qfesim."):
                    continue
                span_name = f"{value.__module__.removeprefix('qfesim.')}.{value.__name__}"
                if value.__name__.startswith("_") and span_name not in PRIVATE_WRAPPED:
                    continue
                setattr(module, attr, self._wrap(span_name, value))
                self._installed.append((module, attr, value))

    def uninstall(self) -> None:
        while self._installed:
            module, attr, value = self._installed.pop()
            setattr(module, attr, value)

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "start_ns": np.frombuffer(self.start, dtype=np.int64),
            "end_ns": np.frombuffer(self.end, dtype=np.int64),
            "items": np.frombuffer(self.items, dtype=np.int64),
        }

    def write(self, path, header: dict) -> None:
        """Store every span as columnar JSON, gzip-compressed."""
        doc = dict(header, names=self.names,
                   spans={key: column.tolist() for key, column in self.arrays().items()})
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump(doc, handle)


class SpanTable:
    """Self times, ancestry flags and per-name totals over recorded spans."""

    def __init__(self, tracer: Tracer):
        cols = tracer.arrays()
        self.names = tracer.names
        self.name = cols["name"]
        parent = cols["parent"]
        duration = (cols["end_ns"] - cols["start_ns"]).astype(float) * 1e-9
        n = len(self.name)
        child = parent >= 0
        covered = np.bincount(parent[child], weights=duration[child], minlength=n)
        self.self_s = duration - covered
        layer_of = np.array([name.split(".", 1)[0] for name in self.names] + [""])
        layer = layer_of[self.name]
        parent_layer = layer_of[np.where(child, self.name[parent], len(self.names))]
        # Points are counted at the outermost sweep-layer call only.
        self.point_items = np.where((layer == "sweep") & (parent_layer != "sweep"),
                                    cols["items"], 0)
        # Parents are recorded before their children, so one forward pass
        # marks every span that runs inside a peak search.
        peak_id = self._id("sweep.find_qfe_peak")
        in_peak = np.zeros(n, dtype=bool)
        for i in range(n):
            p = parent[i]
            in_peak[i] = p >= 0 and (in_peak[p] or self.name[p] == peak_id)
        self.in_peak = in_peak

    def _id(self, name: str) -> int:
        return self.names.index(name) if name in self.names else -1

    def _mask(self, names, span_range):
        ids = [self._id(n) for n in names]
        mask = np.isin(self.name, ids)
        lo, hi = span_range
        mask[:lo] = False
        mask[hi:] = False
        return mask

    def count(self, names, span_range) -> int:
        return int(self._mask(names, span_range).sum())

    def self_time(self, names, span_range) -> float:
        return float(self.self_s[self._mask(names, span_range)].sum())

    def layer_names(self, layer: str, exclude=()) -> list[str]:
        return [n for n in self.names if n.startswith(layer + ".") and n not in exclude]

    def per_layer(self, span_range, points: int, bytes_out: int, overhead_s: float) -> dict:
        """Per-layer metric values over the spans in ``span_range``."""
        eigen_calls = self.count(["qmatrix.hermitian_eigen"], span_range)
        eigen_s = self.self_time(["qmatrix.hermitian_eigen"], span_range)
        detector_calls = self.count(["detector.build_final_state"], span_range)
        detector_s = self.self_time(self.layer_names("detector"), span_range)
        peaks = self.count(["sweep.find_qfe_peak"], span_range)
        lo, hi = span_range
        evals_in_peaks = int((self._mask(["detector.build_final_state"], span_range)
                              & self.in_peak).sum())
        return {
            "qmatrix.eigen_calls": eigen_calls,
            "qmatrix.eigen_s": eigen_s,
            "qmatrix.eigen_us_per_call": 1e6 * eigen_s / eigen_calls if eigen_calls else 0.0,
            "qmatrix.sqrt_s": self.self_time(["qmatrix.matrix_sqrt_psd"], span_range),
            "qmatrix.solves_per_point": eigen_calls / points if points else 0.0,
            "measures.spin_flip_calls": self.count(["measures.wootters_spectrum"], span_range),
            "measures.spin_flip_s": self.self_time(SPIN_FLIP, span_range),
            "measures.entropy_calls": self.count(["measures.von_neumann_entropy"], span_range),
            "measures.entropy_s": self.self_time(["measures.von_neumann_entropy"], span_range),
            "measures.closed_form_s": self.self_time(CLOSED_FORM, span_range),
            "detector.calls": detector_calls,
            "detector.self_s": detector_s,
            "detector.us_per_call": 1e6 * detector_s / detector_calls if detector_calls else 0.0,
            "sweep.points": int(self.point_items[lo:hi].sum()),
            "sweep.self_s": self.self_time(self.layer_names("sweep"), span_range),
            "sweep.evals_per_peak": evals_in_peaks / peaks if peaks else 0.0,
            "cli.self_s": self.self_time(self.layer_names("cli", exclude=FORMAT), span_range),
            "cli.format_s": self.self_time(FORMAT, span_range),
            "cli.bytes_out": bytes_out,
            "trace.overhead_s": overhead_s,
        }
