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


def result(seed, run_s, rate, failed=0):
    return {"correct": True, "attempted": 1000, "failed": failed, "seed": seed,
            "manifest": MANIFEST, "metrics": {
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
    runs = {name: {
        "parent": [result(111 + i, r, q) for i, (r, q) in enumerate(zip(parent_run, parent_rate))],
        "change": [result(111 + i, r, q, failed=i) for i, (r, q)
                   in enumerate(zip(change_run, change_rate))],
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
    assert moved["run/violation.json"]["mc_mean_penalty"] == pytest.approx(1e-15, rel=0.2)
    assert moved["run/sweep.csv"] == {"status": "text differs"}
    assert moved["run/extra.txt"] == "differs in structure"
