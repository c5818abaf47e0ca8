"""scripts/bench_pairs.py assembles its record from perfbench result lines;
here from canned ones, without running perfbench."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

MANIFEST = {"nproc": 2, "environment": {
    "python": "3.11.7", "numpy": "2.4.6", "scipy": "1.17.1",
    "scipy_blas": {"name": "scipy-openblas", "version": "0.3.30"}}}


def result(seed, run_s, rate, failed=0, cpu_s=110.0, passes=50):
    return {"correct": True, "attempted": 1000, "failed": failed, "seed": seed,
            "manifest": MANIFEST, "cpu_s": cpu_s, "passes": passes, "metrics": {
                "setup_s": {"value": 0.5, "unit": "s"},
                "run_s": {"value": run_s, "unit": "s"},
                "solve_s": {"value": 0.2, "unit": "s"},
                "mc_samples_per_s": {"value": rate, "unit": "1/s"},
                "peak_rss_mb": {"value": 75.0, "unit": "MiB"}}}


def test_record_from_canned_results():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent_run = [1.0, 1.2, 0.9, 1.1]
    change_run = [0.8, 1.3, 0.7, 0.9]
    parent_rate = [40e3, 42e3, 44e3, 41e3]
    change_rate = [60e3, 61e3, 43e3, 62e3]
    parent_passes = [50, 40, 55, 50]  # CPU per pass: 2.2, 2.75, 2.0, 2.2 s
    change_passes = [55, 110, 44, 50]  # 2.0, 1.0, 2.5, 2.2 s
    runs = {name: {
        "parent": [result(111 + i, r, q, passes=n) for i, (r, q, n)
                   in enumerate(zip(parent_run, parent_rate, parent_passes))],
        "change": [result(111 + i, r, q, failed=i, passes=n) for i, (r, q, n)
                   in enumerate(zip(change_run, change_rate, change_passes))],
    } for name in ("cc_eight_node", "eps_sweep")}
    zero = {"steady.mc": {"calls": 12000, "without_iterations": 12000}}
    traced = {name: {side: {"metrics": {"nlp.iterations": {"value": 42, "unit": "count"}},
                            "calls_without_iterations": zero}
                     for side in ("parent", "change")} for name in runs}
    record = bench_pairs.assemble(bench, runs, traced, parent="abc1234", change="a change",
                                  artifacts={"compared": 0})

    # the keys every earlier BENCH_*.json shares
    shared = set.intersection(*(set(json.loads((ROOT / f"BENCH_pr{n}.json").read_text()))
                                for n in (12, 13, 14)))
    assert shared <= set(record)
    assert record["parent"] == "abc1234" and record["change"] == "a change"
    assert "4 per workload, seeds 111-114" in record["pairs"]
    assert "--seconds 55" in record["harness"]

    entry = record["workloads"]["eps_sweep"]
    assert entry["seeds_trace0"] == [111, 112, 113, 114]
    assert entry["failed"] == {"parent": 0, "change": 6}
    assert entry["attempted"] == {"parent": 4000, "change": 4000}
    assert entry["trace1"] == {"seed": 301, "parent": {"nlp.iterations": 42},
                               "change": {"nlp.iterations": 42}}
    assert entry["trace1_calls_without_iterations"] == {"parent": zero, "change": zero}
    run_s = entry["trace0"]["run_s"]
    assert run_s["parent"] == {"median": 1.05, "q1": pytest.approx(0.975),
                               "q3": pytest.approx(1.125)}
    assert run_s["change_better_pairs"] == 3  # lower is better; 1.3 lost to 1.2
    assert run_s["median_change"] == round(0.85 / 1.05 - 1, 4)
    assert run_s["parent_iqr"] == pytest.approx(0.15)
    assert run_s["runs"] == {"parent": parent_run, "change": change_run}
    rate = entry["trace0"]["mc_samples_per_s"]
    assert rate["change_better_pairs"] == 3  # higher is better; 43k lost to 44k
    assert set(entry["trace0"]) == {m["name"] for m in bench["end_to_end"]}
    cpu = entry["cpu_s_per_pass"]
    assert cpu["parent"] == {"median": pytest.approx(2.2), "q1": pytest.approx(2.15),
                             "q3": pytest.approx(2.3375)}
    assert cpu["change"]["median"] == pytest.approx(2.1)
    assert cpu["parent_iqr"] == pytest.approx(0.1875)
    assert cpu["change_iqr"] == pytest.approx(2.275 - 1.75)
    assert cpu["change_better_pairs"] == 2  # 2.2 against 2.2 is no gain
    assert "cpu_s_per_pass" in record["cpu_note"]


def test_work_counts_side_by_side():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = {"eps_sweep": {side: [result(111 + i, 1.0, 40e3) for i in range(2)]
                          for side in ("parent", "change")}}
    counts = {"nlp.iterations": 42, "nlp.factorizations": 42, "ogf.callback_calls": 208,
              "steady.mc_calls": 12000, "steady.mc_newton_iters": 0,
              "stochastic.build_grid_calls": 3}
    moved = counts | {"nlp.iterations": 43}
    del moved["steady.mc_newton_iters"]
    traced = {"eps_sweep": {side: {"metrics": {k: {"value": v, "unit": "count"}
                                               for k, v in (c | {"report_s": 0.1}).items()},
                                   "calls_without_iterations": {}}
                            for side, c in (("parent", counts), ("change", moved))}}
    record = bench_pairs.assemble(bench, runs, traced, parent="abc1234", change="a change",
                                  artifacts={})
    block = record["work_counts"]
    assert list(record).index("work_counts") < list(record).index("workloads")
    assert block["differs"] == ["eps_sweep:nlp.iterations", "eps_sweep:steady.mc_newton_iters"]
    sweep = block["workloads"]["eps_sweep"]
    assert list(sweep) == list(bench_pairs.WORK_COUNTS)
    assert sweep["nlp.iterations"] == {"parent": 42, "change": 43}
    assert sweep["steady.mc_newton_iters"] == {"parent": 0, "change": None}
    assert sweep["steady.mc_calls"] == {"parent": 12000, "change": 12000}


def test_artifact_comparison(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d, penalty, status in ((a, 0.25, "optimal"), (b, 0.25 * (1 + 1e-15), "optimal")):
        (d / "run").mkdir(parents=True)
        (d / "run" / "same.csv").write_text("x,y\n1,2\n")
        (d / "run" / "violation.json").write_text(json.dumps(
            [{"node": "N3", "mc_mean_penalty": penalty, "n_failed": 0}]))
        (d / "run" / "sweep.csv").write_text(f"epsilon,status\n0.05,{status}\n")
    (b / "run" / "sweep.csv").write_text("epsilon,status\n0.05,failed\n")
    (b / "run" / "extra.txt").write_text("only here\n")
    out = bench_pairs.compare_outputs(a, b)
    assert out["compared"] == 4 and out["byte_identical"] == 1
    moved = out["moved"]
    assert set(moved["run/violation.json"]) == {"mc_mean_penalty"}
    penalty = moved["run/violation.json"]["mc_mean_penalty"]
    assert penalty["abs_change"] == pytest.approx(0.25e-15, rel=0.2)
    assert penalty["scale"] == 0.25 * (1 + 1e-15)
    assert moved["run/sweep.csv"] == {"status": "text differs"}
    assert moved["run/extra.txt"] == "differs in structure"


def test_artifact_comparison_names_the_fields_read_first(tmp_path):
    # a noise-floor price that moves by its whole size must not hide the
    # objective, ratio and Monte-Carlo fields, moved or not
    a, b = tmp_path / "a", tmp_path / "b"
    for d, objective, price in ((a, -5200.0, 1e-12), (b, -5200.0 * (1 + 3e-8), -1e-12)):
        (d / "run").mkdir(parents=True)
        (d / "run" / "solution.json").write_text(json.dumps(
            {"objective": objective, "alpha": {"C1": 1.25, "C2": 1.5},
             "cells": {"lambda_q": {"J1": [price, 2.0, float("nan")]}}}))
        (d / "run" / "sweep.csv").write_text(
            "epsilon,mc_mean_penalty,mc_violation_probability\n0.05,0.125,0.5\n")
    out = bench_pairs.compare_outputs(a, b)
    assert out["byte_identical"] == 1
    assert out["moved"] == {"run/solution.json": {
        "objective": {"abs_change": pytest.approx(5200.0 * 3e-8), "scale": 5200.0 * (1 + 3e-8)},
        "cells.lambda_q.J1": {"abs_change": 2e-12, "scale": 2.0}}}
    named = out["named"]
    assert set(named) == {"run/solution.json:objective", "run/solution.json:alpha.C1",
                          "run/solution.json:alpha.C2", "run/sweep.csv:mc_mean_penalty",
                          "run/sweep.csv:mc_violation_probability"}
    assert named["run/solution.json:objective"] == out["moved"]["run/solution.json"]["objective"]
    assert named["run/solution.json:alpha.C2"] == {"abs_change": 0.0, "scale": 1.5}
    assert named["run/sweep.csv:mc_violation_probability"] == {"abs_change": 0.0, "scale": 0.5}


def test_one_thread_series_beside_the_default():
    # the short series with BLAS at one thread is summarized like the default
    # one, under its own key; the default series and its gate are unchanged
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    one_thread = dict(MANIFEST, thread_env={"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"})
    runs = {"eps_sweep": {side: [result(111 + i, 1.0, 40e3) for i in range(4)]
                          for side in ("parent", "change")}}
    blas1 = {"eps_sweep": {
        "parent": [result(111 + i, r, 40e3, cpu_s=c) | {"manifest": one_thread}
                   for i, (r, c) in enumerate(zip([0.9, 1.1, 1.0], [100.0, 120.0, 110.0]))],
        "change": [result(111 + i, r, 40e3, failed=1, cpu_s=c) | {"manifest": one_thread}
                   for i, (r, c) in enumerate(zip([0.8, 1.2, 0.7], [90.0, 125.0, 100.0]))],
    }}
    traced = {"eps_sweep": {side: {"metrics": {}, "calls_without_iterations": {}}
                            for side in ("parent", "change")}}
    record = bench_pairs.assemble(bench, runs, traced, parent="abc1234", change="a change",
                                  artifacts={}, blas1=blas1)
    entry = record["workloads"]["eps_sweep"]
    assert entry["trace0"]["run_s"]["runs"]["parent"] == [1.0] * 4
    one = entry["blas1"]
    assert one["seeds"] == [111, 112, 113]
    assert one["thread_env"] == bench_pairs.BLAS1_ENV
    assert one["failed"] == {"parent": 0, "change": 3}
    assert set(one["trace0"]) == {m["name"] for m in bench["end_to_end"]}
    run_s = one["trace0"]["run_s"]
    assert run_s["parent"] == {"median": 1.0, "q1": pytest.approx(0.95),
                               "q3": pytest.approx(1.05)}
    assert run_s["change"]["median"] == 0.8
    assert run_s["change_better_pairs"] == 2  # 1.2 lost to 1.1
    assert run_s["parent_iqr"] == pytest.approx(0.1)
    cpu = one["cpu_s_per_pass"]  # 50 passes each
    assert cpu["parent"]["median"] == pytest.approx(2.2)
    assert cpu["change"]["median"] == pytest.approx(2.0)
    assert cpu["change_better_pairs"] == 2  # 2.5 lost to 2.4
    assert "OPENBLAS_NUM_THREADS=1" in record["blas1_note"]
