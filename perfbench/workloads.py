"""Workload definitions and output checks for the gasflow benchmark.

A workload is a fixed list of ``gasflow`` CLI invocations. One pass runs them
in order, one after the other (a closed loop with a single client). The
benchmark seed becomes the CLI ``--seed``, which drives the Monte-Carlo draws
and the KDE samples; the solves themselves do not depend on it.

This module does not import gasflow, so the worker can time that import.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

GAMMA = "2500"

# Allowance on ``sfv_expectation <= epsilon``: the interior-point tolerance,
# the same allowance the acceptance suite grants (criterion 3).
SFV_ALLOWANCE = 1e-8
# Objective and compressor ratios must match the recorded values this closely.
REFERENCE_RTOL = 1e-6


@dataclass(frozen=True)
class Invocation:
    """One CLI call; ``argv`` omits ``--seed`` and ``--out``."""

    label: str
    argv: tuple[str, ...]
    solves: int
    mc_samples: int


@dataclass(frozen=True)
class Workload:
    name: str
    networks: tuple[str, ...]
    invocations: tuple[Invocation, ...]
    kkt_report: bool = False


def config_path(root: Path, name: str) -> str:
    return str(root / "src" / "gasflow" / "configs" / f"{name}.json")


def _validate(label: str, network: str, cells: int, mc: int, *extra: str) -> Invocation:
    argv = ("validate", "--network", network, "--cells", str(cells), "--gamma", GAMMA,
            "--mc-samples", str(mc), *extra)
    return Invocation(label=label, argv=argv, solves=1, mc_samples=mc)


def _sweep(network: str, cells: int, mc: int, epsilons: tuple[str, ...]) -> Invocation:
    argv = ("sweep", "--network", network, "--cells", str(cells), "--gamma", GAMMA,
            "--epsilons", ",".join(epsilons), "--mc-samples", str(mc))
    return Invocation(label="sweep", argv=argv, solves=len(epsilons),
                      mc_samples=mc * len(epsilons))


EPS_SWEEP = ("0.01", "0.05", "0.1")


def workloads(root: Path) -> dict[str, Workload]:
    eight = config_path(root, "eight_node")
    pipe = config_path(root, "single_pipe")
    items = [
        Workload(
            name="cc_eight_node",
            networks=("eight_node",),
            invocations=tuple(
                _validate(f"qmax={cap}", eight, 50, 7000, "--qmax", f"J3={cap}")
                for cap in ("200", "300", "inf")
            ),
            kkt_report=True,
        ),
        Workload(
            name="eps_sweep",
            networks=("single_pipe",),
            invocations=(_sweep(pipe, 100, 4000, EPS_SWEEP),),
        ),
    ]
    return {w.name: w for w in items}


def artifact_digest(out_dir: Path) -> tuple[str, int, int]:
    """SHA-256 over the sorted artifact names and contents; also file count and bytes."""
    h = hashlib.sha256()
    files = sorted(p for p in out_dir.rglob("*") if p.is_file())
    total = 0
    for p in files:
        data = p.read_bytes()
        total += len(data)
        h.update(p.relative_to(out_dir).as_posix().encode() + b"\0")
        h.update(hashlib.sha256(data).digest())
    return h.hexdigest(), len(files), total


def _close(value: float, ref: float) -> bool:
    return abs(value - ref) <= REFERENCE_RTOL * abs(ref)


def _check_reference(errors: list[str], where: str, objective: float,
                     alpha: dict[str, float], ref: dict) -> None:
    if not _close(objective, ref["objective"]):
        errors.append(f"{where}: objective {objective!r} != reference {ref['objective']!r}")
    if sorted(alpha) != sorted(ref["alpha"]):
        errors.append(f"{where}: compressors {sorted(alpha)} != {sorted(ref['alpha'])}")
        return
    for cid, a in alpha.items():
        if not _close(a, ref["alpha"][cid]):
            errors.append(f"{where}: alpha[{cid}] {a!r} != reference {ref['alpha'][cid]!r}")


def _check_validate(workload: Workload, inv: Invocation, out: Path, ref: dict) -> list[str]:
    errors: list[str] = []
    sol = json.loads((out / "solution.json").read_text())
    if sol["status"] != "optimal":
        errors.append(f"{inv.label}: status {sol['status']}")
    _check_reference(errors, inv.label, sol["objective"], sol["alpha"], ref)
    estimates = json.loads((out / "violation.json").read_text())["estimates"]
    if not estimates:
        errors.append(f"{inv.label}: no violation estimates")
    for est in estimates:
        if not est["sfv_expectation"] <= est["epsilon"] + SFV_ALLOWANCE:
            errors.append(f"{inv.label}: sfv {est['sfv_expectation']} above epsilon {est['epsilon']}")
        if est["n_failed"] != 0:
            errors.append(f"{inv.label}: {est['n_failed']} Monte-Carlo samples failed")
        if est["n_samples"] != inv.mc_samples:
            errors.append(f"{inv.label}: {est['n_samples']} samples, expected {inv.mc_samples}")
    if workload.kkt_report:
        reports = json.loads((out / "kkt_report.json").read_text())["reports"]
        if not reports or not all(r["passed"] for r in reports):
            errors.append(f"{inv.label}: kkt_report failed")
    return errors


def _check_sweep(inv: Invocation, out: Path, ref: dict) -> list[str]:
    errors: list[str] = []
    with (out / "sweep.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != inv.solves:
        return [f"{inv.label}: {len(rows)} rows, expected {inv.solves}"]
    previous = math.inf
    for row in rows:
        eps = float(row["epsilon"])
        where = f"{inv.label} eps={row['epsilon']}"
        if row["status"] != "optimal":
            errors.append(f"{where}: status {row['status']}")
            continue
        objective = float(row["objective"])
        alpha = {k.split(":", 1)[1]: float(v) for k, v in row.items() if k.startswith("alpha:")}
        _check_reference(errors, where, objective, alpha, ref[row["epsilon"]])
        if not float(row["sfv_expectation"]) <= eps + SFV_ALLOWANCE:
            errors.append(f"{where}: sfv {row['sfv_expectation']} above epsilon")
        if objective > previous:
            errors.append(f"{where}: objective rose from {previous!r} to {objective!r}")
        previous = objective
    return errors


def check_outputs(workload: Workload, inv: Invocation, out: Path, ref: dict) -> list[str]:
    """Errors found in the artifacts one invocation wrote; empty when all checks pass."""
    try:
        if inv.argv[0] == "sweep":
            return _check_sweep(inv, out, ref)
        return _check_validate(workload, inv, out, ref)
    except (OSError, KeyError, ValueError) as exc:
        return [f"{inv.label}: unreadable artifacts ({type(exc).__name__}: {exc})"]
