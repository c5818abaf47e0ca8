"""Monte-Carlo revalidation of a chance-constrained solution.

The optimizer enforces the violation budget through the spline expansion on
the stochastic grid.  This script freezes the solved controls, redraws the
uncertain withdrawal by inverse CDF, re-solves the exact steady physics per
sample, and compares the resimulated penalty mean and violation frequency
against the in-solver expansion value.
"""

from gasflow import configs
from gasflow.ogf import PenaltyConfig, solve_chance_constrained
from gasflow.pricing import violation_probability

K = 100
EPS = 0.05
PEN = PenaltyConfig(gamma=2500.0, delta=1e-3)

net = configs.load("single_pipe")
sol = solve_chance_constrained(net, K=K, penalty=PEN, epsilon=EPS)
print(f"solved: alpha = {sol.alpha['C1']:.5f}, E[penalty] = "
      f"{sol.sfv_expectation['N3']:.5f} (budget {EPS})")

for n in (1000, 10000):
    est = violation_probability(sol, mc_samples=n, seed=11)[0]
    print(f"\n{n} resimulations:")
    print(f"  mean penalty        {est.mc_mean_penalty:.5f} +- {est.mc_penalty_se:.5f}")
    print(f"  violation frequency {est.mc_violation_probability:.4f}"
          f" +- {est.mc_violation_se:.4f}")
    print(f"  failed solves       {est.n_failed}")
gap = abs(est.mc_mean_penalty - est.sfv_expectation)
print(f"\n|resimulated - expansion| = {gap:.5f}"
      f"  (3 SE + 2% allowance = {3 * est.mc_penalty_se + 0.02 * EPS:.5f})")
