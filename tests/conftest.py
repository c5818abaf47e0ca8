"""Shared heavyweight fixtures for the acceptance suite.

The chance-constrained solves and Monte-Carlo revalidations are expensive, so
they run once per session here and every criterion reads from them.  A
terminal-summary hook prints one PASS/FAIL line per acceptance criterion.
"""

import math
import time
from dataclasses import dataclass, replace

import pytest

from gasflow import configs
from gasflow.ogf import CcSolution, PenaltyConfig, solve_chance_constrained
from gasflow.pricing import ViolationEstimate, violation_probability

# Penalty curvature used throughout the acceptance runs.  The acceptable
# violation level is measured against the one-sided quadratic penalty in
# scaled squared pressure, and the curvature fixes how deep a pressure dip
# one unit of budget buys: 1/sqrt(2500) = 2% of the slack squared pressure.
ACCEPT_PEN = PenaltyConfig(gamma=2500.0, delta=1e-3)
MC_SAMPLES = 10_000
MC_SEED = 11


@dataclass
class CcCase:
    net: object
    solution: CcSolution
    grid: object
    estimate: ViolationEstimate
    solve_seconds: float


def _run_case(net, K, epsilon=None) -> CcCase:
    t0 = time.perf_counter()
    sol = solve_chance_constrained(net, K=K, penalty=ACCEPT_PEN, epsilon=epsilon)
    dt = time.perf_counter() - t0
    grid = sol.layout.grid
    est = violation_probability(sol, mc_samples=MC_SAMPLES, seed=MC_SEED)[0]
    return CcCase(net=net, solution=sol, grid=grid, estimate=est, solve_seconds=dt)


@pytest.fixture(scope="session")
def eight_node_cases() -> dict:
    """8-node chance-constrained solves for nomination caps 200, 300, inf."""
    base = configs.load("eight_node")
    out = {}
    for qmax in (200.0, 300.0, math.inf):
        net = base.with_node(replace(base.node("J3"), demand_max=qmax))
        out[qmax] = _run_case(net, K=50)
    return out


@pytest.fixture(scope="session")
def single_pipe_cases() -> dict:
    """Single-pipe sweeps over epsilon for both uncertainty measures."""
    out = {}
    for dist, cfg in (("uniform", "single_pipe"), ("truncnormal", "single_pipe_truncnormal")):
        net = configs.load(cfg)
        for eps in (0.01, 0.05, 0.1):
            out[(dist, eps)] = _run_case(net, K=100, epsilon=eps)
    return out


_ACCEPTANCE_RESULTS: dict[str, str] = {}


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    if "test_acceptance" in report.nodeid:
        name = report.nodeid.split("::")[-1]
        _ACCEPTANCE_RESULTS[name] = "PASS" if report.passed else "FAIL"


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for name in sorted(_ACCEPTANCE_RESULTS):
        terminalreporter.write_line(f"{_ACCEPTANCE_RESULTS[name]}  {name}")
