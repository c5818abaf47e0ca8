"""Tests of the benchmark itself: output checks, repeatable counts, contract.

Run from the root of a checkout: ``python3 -m pytest perfbench -q`` (about
three minutes; each workload runs twice in fresh processes).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from run import END_TO_END, PER_LAYER
from spans import EXACT_COUNTS
from workloads import check_outputs, workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = workloads(ROOT)
REFERENCE = json.loads((HERE / "reference.json").read_text())


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER


def _write_validate(out: Path, ref: dict, samples: int, *, objective=None, sfv=0.05,
                    n_failed=0, passed=True):
    out.mkdir(parents=True, exist_ok=True)
    sol = {"status": "optimal", "alpha": ref["alpha"],
           "objective": ref["objective"] if objective is None else objective}
    (out / "solution.json").write_text(json.dumps(sol))
    est = {"epsilon": 0.1, "sfv_expectation": sfv, "n_failed": n_failed, "n_samples": samples}
    (out / "violation.json").write_text(json.dumps({"estimates": [est]}))
    (out / "kkt_report.json").write_text(json.dumps({"reports": [{"passed": passed}]}))


@pytest.mark.parametrize("fault, expect", [
    ({}, None),
    ({"objective": -5199.9}, "objective"),
    ({"sfv": 0.11}, "sfv"),
    ({"n_failed": 1}, "failed"),
    ({"passed": False}, "kkt_report"),
    ({"samples": 10}, "samples"),
])
def test_validate_checks_catch_faults(tmp_path, fault, expect):
    workload = WORKLOADS["cc_eight_node"]
    inv = workload.invocations[0]
    ref = REFERENCE["cc_eight_node"][inv.label]
    _write_validate(tmp_path, ref, **{"samples": inv.mc_samples, **fault})
    errors = check_outputs(workload, inv, tmp_path, ref)
    if expect is None:
        assert errors == []
    else:
        assert len(errors) == 1 and expect in errors[0]


def test_sweep_check_rejects_rising_objective(tmp_path):
    workload = WORKLOADS["eps_sweep"]
    inv = workload.invocations[0]
    ref = REFERENCE["eps_sweep"][inv.label]
    rows = ["epsilon,alpha:C1,objective,sfv_expectation,mc_mean_penalty,"
            "mc_violation_probability,status"]
    for eps, r in ref.items():
        rows.append(f"{eps},{r['alpha']['C1']!r},{r['objective']!r},{float(eps) / 2},0,0,optimal")
    (tmp_path / "sweep.csv").write_text("\n".join(rows) + "\n")
    assert check_outputs(workload, inv, tmp_path, ref) == []
    rows[1], rows[3] = rows[3], rows[1]
    (tmp_path / "sweep.csv").write_text("\n".join(rows) + "\n")
    errors = check_outputs(workload, inv, tmp_path, ref)
    assert any("rose" in e for e in errors)


def _traced_run(name: str, seed: int) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name, "--seed", str(seed),
           "--seconds", "0", "--trace", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300,
                          check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_counts_and_artifacts_repeat_across_processes(name):
    runs = [_traced_run(name, seed=5) for _ in range(2)]
    traced = [p["layers"] for r in runs for p in r["passes"] if p["traced"]]
    assert len(traced) == 2
    assert traced[0]["nlp.iterations"] > 0
    for count in EXACT_COUNTS:
        assert traced[0][count] == traced[1][count], count
    passes = [p for r in runs for p in r["passes"]]
    assert all(not inv["errors"] for p in passes for inv in p["invocations"])
    digests = {(inv["label"], inv["digest"]) for p in passes for inv in p["invocations"]}
    assert len(digests) == len(WORKLOADS[name].invocations)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "eps_sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
