"""Chance-constrained solves of the single-pipe system over violation levels.

Reproduces the case-study structure: for each uncertainty measure, the
compressor ratio decreases as more expected violation is tolerated, the
uniform measure always needs more compression than the truncated normal, and
the resimulated violation probability grows with the budget.  The exact
pressure densities at the delivery node are written as CSVs.
"""

import csv
from pathlib import Path

from gasflow import configs
from gasflow.ogf import PenaltyConfig, solve_chance_constrained
from gasflow.pricing import distribution_of, violation_probability

K = 100
PEN = PenaltyConfig(gamma=2500.0, delta=1e-3)
EPSILONS = (0.01, 0.05, 0.1)
OUT = Path("demos_out")
OUT.mkdir(exist_ok=True)

print(f"{'measure':14s} {'eps':>5s} {'alpha':>8s} {'E[penalty]':>10s} {'P(p<pmin)':>9s}")
for label, cfg in (("uniform", "single_pipe"), ("truncnormal", "single_pipe_truncnormal")):
    net = configs.load(cfg)
    prev = None
    for eps in EPSILONS:
        sol = solve_chance_constrained(net, K=K, penalty=PEN, epsilon=eps, x0=prev)
        prev = sol
        est = violation_probability(sol, mc_samples=5000, seed=11)[0]
        print(f"{label:14s} {eps:5.2f} {sol.alpha['C1']:8.5f} "
              f"{est.mc_mean_penalty:10.5f} {est.mc_violation_probability:9.4f}")
        dist = distribution_of(sol, "pressure@N3")
        xs, ys = dist.density
        path = OUT / f"pressure_pdf_{label}_eps{eps}.csv"
        with path.open("w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["pressure_pa", "density"])
            w.writerows(zip(xs, ys))
print(f"\npressure density CSVs written to {OUT}/")
