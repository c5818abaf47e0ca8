"""Steady-state optimal gas flow on pipeline networks under withdrawal uncertainty.

The package solves the chance-constrained optimal gas flow problem on a pipeline
network with compressors: the uncertainty interval of a random withdrawal is
discretized into finite-volume cells, the steady-flow physics is enforced per
cell, and the minimum-pressure chance constraint is expressed through a cubic
B-spline expansion of a quadratic violation penalty.  A single interior-point
solve returns compressor ratios, optimized nominations, per-cell states, and
the Lagrange multipliers used to reconstruct locational price distributions.
"""

from gasflow.network import (
    Compressor,
    Network,
    NetworkError,
    Node,
    NodeKind,
    Pipe,
    SchemaError,
    incidence,
    load_network,
    parse_network,
    serialize_network,
)
from gasflow.stochastic import (
    StochasticGrid,
    UncertaintySpec,
    build_grid,
    measure_basis_integrals,
)
from gasflow.physics import Scaling, nondimensionalize
from gasflow.steady import SteadySolveError, SteadyState, solve_steady
from gasflow.nlp import (
    NlpOptions,
    NlpProblem,
    NlpSolution,
    SolveStatus,
    check_derivatives,
    solve,
)
from gasflow.ogf import (
    CcLayout,
    CcSolution,
    PenaltyConfig,
    assemble_chance_constrained,
    assemble_deterministic,
    decode,
    solve_chance_constrained,
    solve_deterministic,
)
from gasflow.pricing import (
    ValueDistribution,
    distribution_of,
    kkt_report,
    violation_probability,
)

__all__ = [
    "Compressor",
    "Network",
    "NetworkError",
    "Node",
    "NodeKind",
    "Pipe",
    "SchemaError",
    "incidence",
    "load_network",
    "parse_network",
    "serialize_network",
    "StochasticGrid",
    "UncertaintySpec",
    "build_grid",
    "measure_basis_integrals",
    "Scaling",
    "SteadySolveError",
    "SteadyState",
    "nondimensionalize",
    "solve_steady",
    "NlpOptions",
    "NlpProblem",
    "NlpSolution",
    "SolveStatus",
    "check_derivatives",
    "solve",
    "CcLayout",
    "CcSolution",
    "PenaltyConfig",
    "assemble_chance_constrained",
    "assemble_deterministic",
    "decode",
    "solve_chance_constrained",
    "solve_deterministic",
    "ValueDistribution",
    "distribution_of",
    "kkt_report",
    "violation_probability",
]

__version__ = "0.1.0"
