"""Tests of the benchmark itself: span arithmetic, the tracer's patching,
and a tiny-size run of every workload in both modes."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import harness
import spans
from spans import Span

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_self_time_subtracts_nested_children():
    # a [0,100] holds b [10,40] and c [50,60]; c holds d [52,58]
    tree = [
        Span("a", 0, 100, -1),
        Span("b", 10, 40, 0),
        Span("c", 50, 60, 0),
        Span("d", 52, 58, 2),
    ]
    assert spans.self_times_ns(tree) == [60, 30, 4, 6]
    assert spans.phase_of(tree) == ["a", "a", "a", "a"]
    stats = spans.summarize(tree)
    assert (stats["c"].calls, stats["c"].total_ns, stats["c"].self_ns) == (1, 10, 4)


def test_self_time_counts_overlapping_children_once():
    tree = [Span("a", 0, 100, -1), Span("b", 10, 50, 0), Span("c", 30, 120, 0)]
    assert spans.self_times_ns(tree)[0] == 10


def test_summarize_filters_by_phase_and_sums_attributes():
    tree = [
        Span("setup", 0, 10, -1),
        Span("io", 1, 3, 0, {"bytes": 5}),
        Span("measure", 10, 20, -1),
        Span("io", 11, 12, 2, {"bytes": 7}),
    ]
    measured = spans.summarize(tree, ("measure",))
    assert measured["io"].calls == 1 and measured["io"].attrs == {"bytes": 7}
    assert spans.summarize(tree)["io"].attrs == {"bytes": 12}


def test_tracer_patches_from_imports_and_skips_absent_names():
    import deltalift
    from deltalift import engine, graph

    original = graph.forward
    tracer = spans.Tracer()
    tracer.install([
        ("deltalift.graph:forward", "graph.forward", None),
        ("deltalift.graph:renamed_away", "graph.gone", None),
        ("deltalift.nowhere:forward", "nowhere.forward", None),
    ])
    try:
        assert engine.forward is graph.forward is deltalift.forward
        assert engine.forward is not original
        g = graph.GraphBuilder()
        x = g.input("x", (2,))
        built = g.build(outputs=[g.relu("y", x)])
        with tracer.phase("measure"):
            engine.compute_reference(built, engine.zeros_reference(built))
            with tracer.paused():
                graph.forward(built, {"x": [1.0, 2.0]})
    finally:
        tracer.uninstall()
    assert engine.forward is original and deltalift.forward is original
    assert tracer.absent == ["deltalift.graph:renamed_away", "deltalift.nowhere:forward"]
    assert [s.name for s in tracer.spans] == ["measure", "graph.forward"]
    assert harness.absent_metrics(["deltalift.graph:forward"]) == [
        "graph.forward.self_s", "graph.forward.calls_per_item"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_of_each_workload(workload, trace, tmp_path):
    result, report = harness.run(workload, seed=3, seconds=0.05, trace=bool(trace),
                                 root=tmp_path, tiny=True)
    assert result["correct"], report["failures"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}
    if trace:
        assert report["absent_targets"] == []
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert not (tmp_path / ".bench_work").exists()


def test_run_without_package_source_fails_without_result(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"), "--workload", "train",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
