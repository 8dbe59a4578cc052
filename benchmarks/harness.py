"""Measurement loop, machine facts and result assembly.

A run sets a workload up several times (``setup_s`` is the median), then
drives it as a closed loop: one caller, each public call finished
before the next starts.  Only the package's public entry points are
timed, and every timed result is checked.

``--trace 0`` runs the loop for ``seconds`` and reports the end-to-end
metrics.  ``--trace 1`` runs a fixed number of units untraced, then sets
up and runs the same units again with every wrapped function recording
spans, and reports the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import time
from array import array
from pathlib import Path

import numpy as np

import spans
import workloads

SETUPS_PER_RUN = 5
METHODS = ("deeplift", "grad_input", "lrp")

# Machine-speed calibration.  The machine's speed drifts (other tenants of
# the host); raw 15 s throughputs of identical code moved by 20% and more
# between runs.  After every unit the loop runs a fixed reference kernel
# of the same character as the package's work (small numpy products and
# Python dispatch): one untimed warm-up run, since the unit has just
# evicted the kernel's data, then KERNEL_RUNS_PER_UNIT timed runs, the
# same number whatever the unit's length.  Each timed call is divided by
# the slowdown measured around it: the mean kernel time over the
# CALIBRATION_HALF_WINDOW units on each side, over REFERENCE_KERNEL_NS,
# the kernel's time on an unloaded 2.0 GHz Xeon vCPU.  Times are
# therefore reported at that reference speed; the report line also
# gives the raw values.
REFERENCE_KERNEL_NS = 500_000
KERNEL_RUNS_PER_UNIT = 4
CALIBRATION_HALF_WINDOW = 5
KERNEL_RUNS_PER_SETUP = 10
_KERNEL_X = np.linspace(-1.0, 1.0, 200).reshape(50, 4)
_KERNEL_W = np.linspace(-0.5, 0.5, 64).reshape(16, 4)


def reference_kernel() -> int:
    """Run the fixed calibration work; returns its duration in ns."""
    start = time.perf_counter_ns()
    acc = {}
    for i in range(60):
        z = _KERNEL_X @ _KERNEL_W.T + i
        acc[i % 7] = float(np.maximum(z, 0.0).sum())
    return time.perf_counter_ns() - start


def kernel_mean_ns(runs: int) -> float:
    """Mean time of ``runs`` kernel runs after one untimed warm-up run."""
    reference_kernel()
    return sum(reference_kernel() for _ in range(runs)) / runs


def slowdowns(kernel_ns) -> np.ndarray:
    """Per-unit slowdown: rolling mean of kernel times over the reference."""
    sums = np.concatenate([[0.0], np.cumsum(np.asarray(kernel_ns, dtype=np.float64))])
    units = np.arange(len(sums) - 1)
    lo = np.maximum(units - CALIBRATION_HALF_WINDOW, 0)
    hi = np.minimum(units + CALIBRATION_HALF_WINDOW + 1, len(units))
    return (sums[hi] - sums[lo]) / (hi - lo) / REFERENCE_KERNEL_NS


class Recorder:
    """Times public calls and counts the checks made on their results."""

    def __init__(self, tracer: spans.Tracer | None = None):
        # one entry per timed call
        self.methods: list[str] = []
        self.ns = array("q")
        self.done = array("q")  # items the call completed
        self.latency = array("b")  # 1 when the call is a latency sample
        self.unit_of = array("q")
        # one entry per unit: the reference kernel's time after it
        self.kernel_ns = array("q")
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.tracer = tracer

    def oracle(self):
        """Block for a check's own reference computation: it is not timed,
        and a tracer does not record it."""
        return self.tracer.paused() if self.tracer else contextlib.nullcontext()

    def call(self, method, items, fn, *args, latency=True, **kwargs):
        """Time ``fn(*args, **kwargs)``; a call that raises counts as failed.

        ``items`` is the work the call completes, or a callable that
        derives it from the result.  Returns None when the call raised.
        """
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # a raised call is a failure, the loop goes on
            self.attempted += 1
            self._fail(f"{method} raised {type(exc).__name__}: {exc}")
            return None
        elapsed = time.perf_counter_ns() - start
        self.methods.append(method)
        self.ns.append(elapsed)
        self.done.append(items(result) if callable(items) else items)
        self.latency.append(latency)
        self.unit_of.append(len(self.kernel_ns))
        return result

    def end_unit(self) -> None:
        """Sample the machine's speed right after a unit."""
        self.kernel_ns.append(int(kernel_mean_ns(KERNEL_RUNS_PER_UNIT)))

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self._fail(what)

    def _fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(what)

    def merge(self, other: "Recorder") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.failures.extend(other.failures[: 10 - len(self.failures)])

    # -- reductions over timed calls --------------------------------------

    def slowdown(self) -> float:
        """Mean slowdown over the whole phase."""
        return float(np.mean(self.kernel_ns)) / REFERENCE_KERNEL_NS

    def _select(self, methods):
        return np.array([methods is None or m in methods for m in self.methods], dtype=bool)

    def _durations_ns(self, calibrated: bool) -> np.ndarray:
        ns = np.asarray(self.ns, dtype=np.float64)
        if calibrated and len(ns):
            ns = ns / slowdowns(self.kernel_ns)[np.asarray(self.unit_of)]
        return ns

    def items(self, methods=None) -> int:
        return int(np.asarray(self.done)[self._select(methods)].sum()) if self.methods else 0

    def rate(self, methods=None, calibrated=True) -> float:
        """Items per second of time spent inside the selected calls."""
        if not self.methods:
            return 0.0
        chosen = self._select(methods)
        busy = self._durations_ns(calibrated)[chosen].sum() / 1e9
        return self.items(methods) / busy if busy else 0.0

    def latencies_ms(self, calibrated=True) -> np.ndarray:
        return self._durations_ns(calibrated)[np.asarray(self.latency, dtype=bool)] / 1e6


# ---------------------------------------------------------------------------
# Machine facts


def _loadavg():
    with open("/proc/loadavg", encoding="ascii") as fh:
        fields = fh.read().split()
    running, total = fields[3].split("/")
    return {"1m": float(fields[0]), "5m": float(fields[1]), "15m": float(fields[2]),
            "runnable": int(running), "tasks": int(total)}


def _openblas():
    """Config string and thread count of the OpenBLAS numpy loaded, if any."""
    with open("/proc/self/maps", encoding="utf-8", errors="replace") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in paths:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                try:
                    threads = getattr(lib, f"{prefix}get_num_threads{suffix}")
                    config = getattr(lib, f"{prefix}get_config{suffix}")
                except AttributeError:
                    continue
                threads.restype = ctypes.c_int
                config.restype = ctypes.c_char_p
                return {"library": os.path.basename(path),
                        "config": config().decode(), "threads": threads()}
    return {"library": None, "config": None, "threads": None}


def machine_facts() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_build": f"{blas.get('name')} {blas.get('version')}",
        "blas_runtime": _openblas(),
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# The run


def _fresh(path: Path) -> Path:
    path.mkdir(parents=True, exist_ok=False)
    return path


def _loop(workload, rec: Recorder, seconds: float | None = None, units: int | None = None):
    """Closed loop over the workload's units, by time or by count."""
    deadline = time.perf_counter() + seconds if seconds is not None else None
    i = 0
    while True:
        workload.unit(i, rec)
        rec.end_unit()
        i += 1
        if (units is not None and i >= units) or (deadline is not None and time.perf_counter() >= deadline):
            break
    workload.finish(rec)


def _set_up(cls, seed, workdir: Path, tiny: bool, checks: Recorder):
    """Build the workload; returns it with its raw and calibrated set-up time."""
    start = time.perf_counter_ns()
    workload = cls(seed, _fresh(workdir), tiny, checks)
    elapsed = time.perf_counter_ns() - start
    slowdown = kernel_mean_ns(KERNEL_RUNS_PER_SETUP) / REFERENCE_KERNEL_NS
    return workload, elapsed / 1e9, elapsed / 1e9 / slowdown


def _value(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def _percentile(values, q) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def run(name: str, seed: int, seconds: float, trace: bool, root: Path, tiny: bool = False):
    """Run one workload; returns (result, report)."""
    cls = workloads.WORKLOADS[name]
    load_start = _loadavg()
    workdir = root / ".bench_work" / f"{name}-{os.getpid()}"
    checks = Recorder()
    tracer = traced = None
    try:
        setups = []  # (raw, calibrated) seconds of each set-up
        for r in range(1 if trace else SETUPS_PER_RUN):
            workload = None  # free the previous set-up before building the next
            workload, raw, calibrated = _set_up(cls, seed, workdir / f"setup{r}", tiny, checks)
            setups.append((raw, calibrated))
        rec = Recorder()
        if not trace:
            _loop(workload, rec, seconds=seconds)
            metrics = {
                "setup_s": _value(statistics.median(s for _, s in setups), "s"),
                "items_per_s": _value(rec.rate(), "1/s"),
                "call_ms_p50": _value(_percentile(rec.latencies_ms(), 50), "ms"),
                "call_ms_p90": _value(_percentile(rec.latencies_ms(), 90), "ms"),
                "peak_rss_mb": _value(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
        else:
            _loop(workload, rec, units=workload.trace_units)
            tracer = spans.Tracer()
            traced = Recorder(tracer)
            tracer.install(TRACE_TABLE)
            try:
                with tracer.phase("setup"):
                    workload = cls(seed, _fresh(workdir / "traced"), tiny, checks)
                with tracer.phase("measure"):
                    _loop(workload, traced, units=workload.trace_units)
            finally:
                tracer.uninstall()
            metrics = layer_metrics(tracer, rec, traced)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it, or it is already gone

    for part in (rec, traced):
        if part is not None:
            checks.merge(part)
    error_rate = checks.failed / max(checks.attempted, 1)
    report = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "calls": len(rec.methods),
        "items": rec.items(),
        "error_rate": error_rate,
        "failures": checks.failures,
        "slowdown": rec.slowdown(),
        "raw": {
            "setup_s_each": [raw for raw, _ in setups],
            "items_per_s": rec.rate(calibrated=False),
            "call_ms_p50": _percentile(rec.latencies_ms(calibrated=False), 50),
            "call_ms_p90": _percentile(rec.latencies_ms(calibrated=False), 90),
        },
        "per_method_per_s": {m: rec.rate((m,)) for m in METHODS if rec.items((m,))},
        "machine": machine_facts(),
        "loadavg_start": load_start,
        "loadavg_end": _loadavg(),
        # another process was runnable when the run started
        "busy": load_start["runnable"] > 1,
    }
    if trace:
        metrics["error_rate"] = _value(error_rate, "ratio")
        report["absent_targets"] = tracer.absent
        report["absent_metrics"] = absent_metrics(tracer.absent)
        report["spans"] = {
            n: {"calls": s.calls, "total_s": s.total_ns / 1e9, "self_s": s.self_ns / 1e9}
            for n, s in sorted(spans.summarize(tracer.spans).items())
        }
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }
    return result, report


# ---------------------------------------------------------------------------
# Traced run: what is wrapped and how spans become per-layer metrics


def _file_bytes(args, kwargs):
    path = kwargs.get("path", args[-1])
    return {"bytes": os.path.getsize(path)}


TRACE_TABLE = [
    ("deltalift.graph:forward", "graph.forward", None),
    ("deltalift.graph:validate_graph", "graph.validate", None),
    ("deltalift.graph:Graph.replace_params", "graph.replace_params", None),
    ("deltalift.serialize:save_model", "serialize.save", _file_bytes),
    ("deltalift.serialize:load_model", "serialize.load", _file_bytes),
    ("deltalift.autodiff:backward", "autodiff.backward", None),
    ("deltalift.autodiff:vjp_sweep", "autodiff.vjp_sweep", None),
    ("deltalift.train:train_loop", "train.train_loop", None),
    ("deltalift.train:train_step", "train.train_step", None),
    ("deltalift.train:evaluate", "train.evaluate", None),
    ("deltalift.engine:deeplift", "engine.deeplift", None),
    ("deltalift.engine:propagate_multipliers", "engine.propagate", None),
    ("deltalift.engine:compute_reference", "engine.reference", None),
    ("deltalift.engine:compute_deltas", "engine.deltas", None),
    ("deltalift.engine:contributions", "engine.contributions", None),
    ("deltalift.engine:local_multipliers_rescale", "engine.rescale", None),
    ("deltalift.engine:maxout_segments", "engine.maxout", None),
    ("deltalift.normalize:mean_normalize_softmax_weights", "normalize.softmax_head", None),
    ("deltalift.normalize:normalize_constrained_weights", "normalize.constrained", None),
    ("deltalift.baselines:gradient_times_input", "baselines.grad_input", None),
    ("deltalift.baselines:lrp_epsilon", "baselines.lrp", None),
    ("deltalift.baselines:lrp_as_contribution_report", "baselines.lrp_report", None),
    ("deltalift.genomics:generate_dataset", "genomics.dataset", None),
    ("deltalift.genomics:build_genomics_cnn", "genomics.build_cnn", None),
    ("deltalift.genomics:one_hot_encode", "genomics.encode", None),
    ("deltalift.genomics:encode_dataset", "genomics.encode", None),
    ("deltalift.genomics:compare_methods", "genomics.compare", None),
    ("deltalift.genomics:motif_recovery_score", "genomics.motif", None),
    ("deltalift.genomics:read_fasta", "genomics.io", None),
    ("deltalift.genomics:write_fasta", "genomics.io", None),
    ("deltalift.genomics:write_score_tracks", "genomics.io", None),
    ("deltalift.genomics:write_comparison_tsv", "genomics.io", None),
    ("deltalift.cli:main", "cli.main", None),
    ("deltalift.cli:cmd_attribute", "cli.attribute", None),
    ("deltalift.cli:cmd_compare", "cli.compare", None),
]

MEASURE = ("measure",)
BOTH = ("setup", "measure")

# metric name, unit, span names, statistic, phases the spans are taken from
LAYER_METRICS = [
    ("graph.forward.self_s", "s", ("graph.forward",), "self_s", MEASURE),
    ("graph.forward.calls_per_item", "calls/item", ("graph.forward",), "calls_per_item", MEASURE),
    ("graph.validate.calls", "count", ("graph.validate",), "calls", MEASURE),
    ("graph.validate.self_s", "s", ("graph.validate",), "self_s", MEASURE),
    ("autodiff.vjp_sweep.self_s", "s", ("autodiff.vjp_sweep",), "self_s", MEASURE),
    ("autodiff.vjp_sweep.calls_per_item", "calls/item", ("autodiff.vjp_sweep",), "calls_per_item", MEASURE),
    ("train.train_step.ms_p50", "ms", ("train.train_step",), "ms_p50", MEASURE),
    ("train.evaluate.self_s", "s", ("train.evaluate",), "self_s", MEASURE),
    ("engine.propagate.self_s", "s", ("engine.propagate",), "self_s", MEASURE),
    ("engine.deeplift.self_s", "s", ("engine.deeplift",), "self_s", MEASURE),
    ("engine.maxout.self_s", "s", ("engine.maxout",), "self_s", MEASURE),
    ("engine.reference.calls_per_item", "calls/item", ("engine.reference",), "calls_per_item", MEASURE),
    ("normalize.softmax_head.calls_per_item", "calls/item", ("normalize.softmax_head",), "calls_per_item", MEASURE),
    ("baselines.grad_input.self_s", "s", ("baselines.grad_input",), "self_s", MEASURE),
    ("baselines.lrp.self_s", "s", ("baselines.lrp",), "self_s", MEASURE),
    ("serialize.save.s", "s", ("serialize.save",), "total_s", BOTH),
    ("serialize.load.s", "s", ("serialize.load",), "total_s", BOTH),
    ("serialize.bytes", "bytes", ("serialize.save", "serialize.load"), "bytes", BOTH),
    ("genomics.dataset.s", "s", ("genomics.dataset",), "total_s", BOTH),
    ("genomics.encode.self_s", "s", ("genomics.encode",), "self_s", BOTH),
    ("genomics.compare.self_s", "s", ("genomics.compare",), "self_s", MEASURE),
    ("genomics.io.self_s", "s", ("genomics.io",), "self_s", BOTH),
    ("cli.attribute.self_s", "s", ("cli.attribute",), "self_s", MEASURE),
    ("cli.compare.self_s", "s", ("cli.compare",), "self_s", MEASURE),
]


def layer_metrics(tracer: spans.Tracer, untraced: Recorder, traced: Recorder) -> dict:
    """Per-layer metrics from the traced run.  A metric whose functions
    were all absent reads 0 and is listed by :func:`absent_metrics`."""
    by_phase = {phases: spans.summarize(tracer.spans, phases) for phases in (MEASURE, BOTH)}
    items = max(traced.items(), 1)
    slowdown = traced.slowdown()
    metrics = {}
    for metric, unit, names, stat, phases in LAYER_METRICS:
        entries = [by_phase[phases][n] for n in names if n in by_phase[phases]]
        if stat == "self_s":
            value = sum(e.self_ns for e in entries) / 1e9 / slowdown
        elif stat == "total_s":
            value = sum(e.total_ns for e in entries) / 1e9 / slowdown
        elif stat == "calls":
            value = sum(e.calls for e in entries)
        elif stat == "calls_per_item":
            value = sum(e.calls for e in entries) / items
        elif stat == "ms_p50":
            durations = [d for e in entries for d in e.durations_ns]
            value = statistics.median(durations) / 1e6 / slowdown if durations else 0.0
        else:  # bytes
            value = sum(e.attrs.get("bytes", 0) for e in entries)
        metrics[metric] = _value(value, unit)
    for method in METHODS:
        metrics[f"{method}_per_s"] = _value(untraced.rate((method,)), "1/s")
    metrics["trace.overhead_ratio"] = _value(
        untraced.rate() / traced.rate() if traced.rate() else 0.0, "ratio")
    return metrics


def absent_metrics(absent_targets) -> list[str]:
    """Metrics none of whose wrapped functions exist any more."""
    present = {name for target, name, _ in TRACE_TABLE if target not in absent_targets}
    return [metric for metric, _, names, _, _ in LAYER_METRICS
            if not present.intersection(names)]


def print_result(result: dict, report: dict) -> None:
    print("report " + json.dumps(report))
    print(json.dumps(result))
