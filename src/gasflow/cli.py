"""Command-line harness: simulate, optimize, validate and price in one run.

Artifacts are written to the output directory as deterministic JSON/CSV files
(fixed key order; the seed drives only the Monte-Carlo check), so identical
invocations produce byte-identical outputs.  Verbosity is controlled by the
``GASFLOW_LOG`` environment variable (DEBUG, INFO, WARNING, ...).
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import math
import os
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

from gasflow.network import Network, NetworkError, load_network
from gasflow.nlp import SolveStatus
from gasflow.ogf import (
    CcSolution,
    OgfError,
    PenaltyConfig,
    solve_chance_constrained,
    solve_deterministic,
)
from gasflow.pricing import (
    PricingError,
    distribution_of,
    kkt_report,
    violation_probability,
)
from gasflow.steady import SteadySolveError, solve_steady
from gasflow.stochastic import build_grid  # noqa: F401  (perfbench/spans.py wraps cli.build_grid)

log = logging.getLogger("gasflow.cli")

_MODES = ("simulate", "opt-det", "opt-cc", "validate", "prices")


@dataclass
class RunConfig:
    """One reproducible run: every knob that affects the outputs.

    ``epsilons`` lists violation levels to sweep in ``opt-cc`` mode; ``None``
    solves once at ``epsilon``.
    """

    network_path: str
    mode: str = "opt-cc"
    cells: int = 50
    epsilon: float | None = None
    gamma: float = 1.0
    delta: float = 1e-3
    mc_samples: int = 10000
    seed: int = 0
    out_dir: str = "gasflow_out"
    qmax: dict[str, float] = field(default_factory=dict)
    epsilons: list[float] | None = None

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "opt-cc" and self.cells < 4:
            raise ValueError("chance-constrained mode needs at least 4 cells")
        if self.mode in ("opt-cc", "validate", "prices") and self.mc_samples < 2:
            raise ValueError("the Monte-Carlo check needs at least 2 samples, "
                             f"got {self.mc_samples}")


def _finite(value):
    """``value`` with every non-finite float replaced by None (JSON null)."""
    if isinstance(value, dict):
        return {k: _finite(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_finite(v) for v in value]
    return None if isinstance(value, float) and not math.isfinite(value) else value


def _json_dump(path: Path, payload: dict):
    text = json.dumps(_finite(payload), indent=2, sort_keys=True, allow_nan=False)
    path.write_text(text + "\n")


def _write_csv(path: Path, header: list[str], rows):
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows([repr(float(x)) for x in row] for row in rows)


def _write_distribution_csvs(out: Path, tag: str, dist):
    _write_csv(out / f"{tag}_discrete.csv", ["omega", "mass", "value"],
               zip(dist.omega, dist.mass, dist.support))
    # both files are always written, so the artifact set does not depend on the data
    _write_csv(out / f"{tag}_density.csv", ["grid", "density"],
               zip(*dist.density) if dist.density else [])
    _write_csv(out / f"{tag}_atoms.csv", ["value", "mass"], [dist.atom] if dist.atom else [])


def _apply_qmax(net: Network, qmax: dict[str, float]) -> Network:
    for nid, value in qmax.items():
        node = net.node(nid)
        net = net.with_node(replace(node, demand_max=value))
    return net


def _mean_loads(net: Network) -> dict[str, float]:
    loads = {}
    for n in net.uncertain_nodes:
        loads[n.id] = n.base_withdrawal + n.uncertainty.measure_mean()
    return loads


def _status_exit(status: SolveStatus) -> int:
    if status is SolveStatus.OPTIMAL:
        return 0
    if status is SolveStatus.MAX_ITER:
        return 2
    return 1


def _failed(solution: CcSolution) -> bool:
    """A solve that ended away from any operating point: its controls are not
    worth a Monte-Carlo check or price distributions."""
    return solution.status in (SolveStatus.INFEASIBLE, SolveStatus.NUMERICAL)


def _say_why(solution: CcSolution, where: str = ""):
    """Print the solver's diagnostic to stderr when the solve is not optimal."""
    if not solution.optimal:
        print(f"solver {solution.status.value}{where}: {solution.nlp.diagnostic}", file=sys.stderr)


def _cc_artifacts(config: RunConfig, solution: CcSolution, out: Path):
    if _failed(solution):
        _json_dump(out / "solution.json", solution.to_json_dict())
        return
    estimates = violation_probability(solution, mc_samples=config.mc_samples, seed=config.seed)
    mc_payload = {e.node: e.to_json_dict() for e in estimates}
    _json_dump(out / "solution.json", solution.to_json_dict(mc_estimates=mc_payload))
    _json_dump(out / "violation.json", {"estimates": [e.to_json_dict() for e in estimates]})
    if solution.d:
        reports = kkt_report(solution)
        _json_dump(out / "kkt_report.json", {"reports": [r.to_json_dict() for r in reports]})
    quantities = []
    for cid in solution.layout.chance_nodes:
        quantities += [f"pressure@{cid}", f"lambda_q@{cid}", f"lambda_q_per_mass@{cid}"]
    for nid in sorted(solution.d):
        quantities += [f"d@{nid}", f"lambda_q@{nid}", f"lambda_d@{nid}"]
    for qty in quantities:
        dist = distribution_of(solution, qty)
        _write_distribution_csvs(out, qty.replace("@", "_"), dist)


def _chance_slack(solution: CcSolution) -> float:
    slacks = [
        solution.epsilon[nid] - solution.sfv_expectation[nid]
        for nid in solution.sfv_expectation
    ]
    return max(slacks) if slacks else math.nan


def run(config: RunConfig) -> int:
    """Execute one mode and write its artifacts; returns the process exit code.

    In ``opt-cc`` mode a list of ``epsilons`` runs a sweep instead of one
    solve.  Input errors print ``error: ...`` to stderr and return 1.  A
    solve that does not end optimal, a sweep row included, prints its status
    and the solver's diagnostic to stderr.
    """
    try:
        out = Path(config.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        net = _apply_qmax(load_network(config.network_path), config.qmax)

        if config.mode == "simulate":
            loads = _mean_loads(net)
            q = {n.id: loads.get(n.id, n.base_withdrawal) for n in net.nodes}
            state = solve_steady(net, None, q)
            payload = {
                "pressures": {n.id: float(state.pressure[i]) for i, n in enumerate(net.nodes)},
                "squared_pressures": {n.id: float(state.Pi[i]) for i, n in enumerate(net.nodes)},
                "flows": {e.id: float(state.phi[i]) for i, e in enumerate(net.edges)},
                "slack_injection": state.slack_injection,
                "residual_norm": state.residual_norm,
            }
            _json_dump(out / "steady_state.json", payload)
            print(f"simulate status=converged residual={state.residual_norm:.3e}")
            return 0

        penalty = PenaltyConfig(gamma=config.gamma, delta=config.delta)
        if config.mode == "opt-det":
            if net.uncertain_nodes:
                log.warning(
                    "deterministic mode ignores uncertainty; solving at the mean load"
                )
                print("warning: uncertainty ignored, deterministic solve at mean load",
                      file=sys.stderr)
            solution = solve_deterministic(net, loads=_mean_loads(net), penalty=penalty)
            _say_why(solution)
            _json_dump(out / "solution.json", solution.to_json_dict())
            print(
                f"opt-det status={solution.status.value} objective={solution.objective:.6f}"
            )
            return _status_exit(solution.status)

        if config.mode == "opt-cc" and config.epsilons is not None:
            return _sweep(net, penalty, config, out)

        solution = solve_chance_constrained(
            net, K=config.cells, penalty=penalty, epsilon=config.epsilon
        )
        _say_why(solution)
        _cc_artifacts(config, solution, out)
        slack = _chance_slack(solution)
        print(
            f"{config.mode} status={solution.status.value} "
            f"objective={solution.objective:.6f} max_chance_slack={slack:.3e}"
        )
        return _status_exit(solution.status)
    except (NetworkError, OgfError, PricingError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SteadySolveError as exc:
        print(f"error: steady solve failed: {exc}", file=sys.stderr)
        return 1


def sweep(config: RunConfig, epsilons: list[float]) -> int:
    """Chance-constrained solves over a list of violation levels.

    Writes ``sweep.csv`` ordered by epsilon; failed rows are recorded and the
    sweep continues.  Each solve warm-starts from the last one that did not
    fail.  Each row revalidates by Monte Carlo with the same seed so
    estimates are comparable across rows.
    """
    return run(replace(config, mode="opt-cc", epsilons=list(epsilons)))


def _sweep(net: Network, penalty: PenaltyConfig, config: RunConfig, out: Path) -> int:
    comp_ids = [c.id for c in net.compressors]
    header = (
        ["epsilon"]
        + [f"alpha:{cid}" for cid in comp_ids]
        + ["objective", "sfv_expectation", "mc_mean_penalty", "mc_violation_probability",
           "status"]
    )
    rows = []
    x_prev = None
    # NaN compares false with everything, so it would stop sorted() from ordering the rest
    for eps in sorted(config.epsilons, key=lambda e: (math.isnan(e), e)):
        try:
            solution = solve_chance_constrained(
                net, K=config.cells, penalty=penalty, epsilon=eps, x0=x_prev
            )
            _say_why(solution, f" at epsilon={eps!r}")
            chance = None
            if not _failed(solution):
                x_prev = solution  # a failed point never seeds the next one
                est = violation_probability(
                    solution, mc_samples=config.mc_samples, seed=config.seed
                )
                chance = est[0] if est else None
            rows.append(
                [repr(eps)]
                + [repr(solution.alpha[cid]) for cid in comp_ids]
                + [
                    repr(solution.objective),
                    repr(max(solution.sfv_expectation.values())) if solution.sfv_expectation else "",
                    repr(chance.mc_mean_penalty) if chance else "",
                    repr(chance.mc_violation_probability) if chance else "",
                    solution.status.value,
                ]
            )
        except (NetworkError, OgfError, PricingError, SteadySolveError, ValueError) as exc:
            rows.append([repr(eps)] + [""] * len(comp_ids) + ["", "", "", "", f"error: {exc}"])
    with (out / "sweep.csv").open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
    print(f"sweep rows={len(rows)} -> {out / 'sweep.csv'}")
    return 0


def _parse_qmax(values: list[str]) -> dict[str, float]:
    out = {}
    for item in values:
        if "=" not in item:
            raise ValueError(f"--qmax expects NODE=VALUE, got {item!r}")
        nid, _, raw = item.partition("=")
        out[nid] = math.inf if raw.lower() in ("inf", "infinity") else float(raw)
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gasflow",
        description="Chance-constrained steady-state optimal gas flow runs",
    )
    parser.add_argument(
        "command",
        nargs="?",
        choices=["simulate", "optimize", "validate", "prices", "sweep"],
        help="shorthand for --mode (optimize uses --mode det/cc)",
    )
    parser.add_argument("--network", required=True, help="network JSON path")
    parser.add_argument(
        "--mode",
        default=None,
        choices=list(_MODES) + ["det", "cc"],
        help="run mode (det/cc are aliases of opt-det/opt-cc)",
    )
    parser.add_argument("--cells", type=int, default=50, help="stochastic cell count K")
    parser.add_argument("--epsilon", type=float, default=None, help="violation level override")
    parser.add_argument(
        "--epsilons",
        default=None,
        help="comma-separated violation levels; triggers a sweep in cc mode",
    )
    parser.add_argument("--gamma", type=float, default=1.0, help="penalty curvature")
    parser.add_argument("--delta", type=float, default=1e-3, help="flow smoothing width kg/s")
    parser.add_argument("--mc-samples", type=int, default=10000, help="Monte-Carlo samples")
    parser.add_argument("--seed", type=int, default=0, help="sampling seed")
    parser.add_argument("--out", default="gasflow_out", help="output directory")
    parser.add_argument(
        "--qmax",
        action="append",
        default=[],
        metavar="NODE=VALUE",
        help="override a node's demand_max (VALUE may be 'inf'); repeatable",
    )
    return parser


def _resolve_mode(args) -> str:
    if args.command in ("simulate", "validate", "prices"):
        return args.command
    if args.command == "sweep":
        return "opt-cc"
    return {"det": "opt-det", "cc": "opt-cc"}.get(args.mode, args.mode or "opt-cc")


def main(argv: list[str] | None = None) -> int:
    level = os.environ.get("GASFLOW_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    args = build_parser().parse_args(argv)
    try:
        if args.command == "sweep" and args.epsilons is None:
            raise ValueError("sweep requires --epsilons")
        epsilons = [float(tok) for tok in (args.epsilons or "").split(",") if tok.strip()]
        config = RunConfig(
            network_path=args.network,
            mode=_resolve_mode(args),
            cells=args.cells,
            epsilon=args.epsilon,
            gamma=args.gamma,
            delta=args.delta,
            mc_samples=args.mc_samples,
            seed=args.seed,
            out_dir=args.out,
            qmax=_parse_qmax(args.qmax),
            # an empty --epsilons sweeps only under the sweep command
            epsilons=epsilons if epsilons or args.command == "sweep" else None,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
