"""Locational price distributions from the dual variables of one solve.

Solves the 8-node system for three nomination caps on the optimized
withdrawal at J3.  The balance duals per stochastic cell form discrete price
distributions: at J3 the balance dual and the cap dual always sum to the bid
price divided by the cell count (0.4 here), while the price of gas at the
uncertain node J5 switches from identically zero, to occasionally positive,
to a continuous distribution as the cap is relaxed.
"""

import math
from dataclasses import replace

import numpy as np

from gasflow import configs
from gasflow.ogf import PenaltyConfig, solve_chance_constrained
from gasflow.pricing import kkt_report

K = 50
PEN = PenaltyConfig(gamma=2500.0, delta=1e-3)
base = configs.load("eight_node")

for qmax in (200.0, 300.0, math.inf):
    net = base.with_node(replace(base.node("J3"), demand_max=qmax))
    sol = solve_chance_constrained(net, K=K, penalty=PEN)
    rep = kkt_report(sol)[0]
    lq3, ld3, lq5 = sol.lambda_q["J3"], sol.lambda_d["J3"], sol.lambda_q["J5"]
    cap = "inf" if math.isinf(qmax) else f"{qmax:.0f}"
    print(f"\nnomination cap q3max = {cap} kg/s  ({sol.status.value}):")
    print(f"  d3 range        [{sol.d['J3'].min():8.2f}, {sol.d['J3'].max():8.2f}] kg/s")
    print(f"  lambda_q,3      [{lq3.min():8.5f}, {lq3.max():8.5f}]")
    print(f"  lambda_d,3      [{ld3.min():8.5f}, {ld3.max():8.5f}]")
    print(f"  identity check  max |lq3 + ld3 - 0.4| = {rep.max_abs_residual:.2e}"
          f"  ({'ok' if rep.passed else 'FAILED'})")
    print(f"  lambda_q,5      [{lq5.min():8.5f}, {lq5.max():8.5f}],"
          f" {np.unique(np.round(lq5, 6)).size} distinct values")
    print(f"  budget: E[penalty] = {sol.sfv_expectation['J5']:.4f}"
          f" of eps = {sol.epsilon['J5']}, shadow price {sol.lambda_cc['J5']:.2f}")
