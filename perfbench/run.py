"""gasflow benchmark: end-to-end and per-layer metrics of two CLI workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cc_eight_node --seed 1 --seconds 55 --trace 0

Each workload runs in fresh interpreters started one after the other: first
set-up probes (import ``gasflow.cli`` and parse the networks), then one worker
that runs passes of the workload's CLI invocations in a closed loop for about
``--seconds``. BLAS keeps its default thread count; the thread variables in
effect are recorded in the manifest.

With ``--trace 0`` the result holds the end-to-end metrics, with ``--trace 1``
the per-layer metrics of the traced passes. Every pass checks its artifacts
against reference values and the byte-identity of same-seed outputs. The last
line of standard output is the result object; the full record, manifest
included, is written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

from spans import EXACT_COUNTS, MC_CHUNK  # noqa: E402
from workloads import config_path, workloads  # noqa: E402

SETUP_SAMPLES = 5
TIME_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "GOTO_NUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "solve_s": "s",
    "mc_samples_per_s": "1/s",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {
    "report_s": "s",
    "network.parse_s": "s",
    "network.self_s": "s",
    "stochastic.build_grid_calls": "count",
    "stochastic.build_grid_s": "s",
    "stochastic.self_s": "s",
    "ogf.assemble_s": "s",
    "ogf.warm_start_s": "s",
    "ogf.callback_calls": "count",
    "ogf.callback_s": "s",
    "ogf.hessian_s": "s",
    "ogf.jacobian_s": "s",
    "ogf.decode_s": "s",
    "ogf.self_s": "s",
    "nlp.iterations": "count",
    "nlp.self_s": "s",
    "nlp.self_s_per_iter": "s",
    "nlp.factorizations": "count",
    "nlp.factor_s": "s",
    "nlp.factor_useful_ratio": "ratio",
    "nlp.trial_points": "ratio",
    "nlp.kkt_dim": "count",
    "nlp.kkt_dense_mb": "MiB-computed",
    "steady.mc_calls": "count",
    "steady.mc_s_per_call": "s",
    "steady.mc_newton_iters": "count",
    "steady.mc_failed": "count",
    "steady.warm_calls": "count",
    "steady.warm_s": "s",
    "steady.self_s": "s",
    "pricing.violation_self_s": "s",
    "pricing.kde_calls": "count",
    "pricing.kde_s": "s",
    "pricing.kkt_report_s": "s",
    "pricing.self_s": "s",
    "cli.self_s": "s",
    "cli.artifact_files": "count",
    "cli.artifact_bytes": "bytes",
    "trace.run_s": "s",
    "trace.coverage": "ratio",
    "trace.overhead_s": "s",
}


class BenchmarkError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def _worker(args: list[str], deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(deadline - monotonic(), 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"worker timed out: {' '.join(args)}") from exc
    if proc.returncode != 0:
        raise BenchmarkError(f"worker failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _stats(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    counts = all(isinstance(v, int) for v in values)
    median = statistics.median_low(values) if counts else statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def _source_identity() -> dict:
    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*")):
        if p.is_file() and "__pycache__" not in p.parts:
            h.update(p.relative_to(ROOT).as_posix().encode() + b"\0" + p.read_bytes())
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"git_sha": sha, "src_sha256": h.hexdigest()}


def _manifest(workload, args, environment: dict) -> dict:
    def shown(arg: str) -> str:
        return os.path.relpath(arg, ROOT) if arg.startswith(str(ROOT)) else arg

    epsilon = {}
    for name in workload.networks:
        doc = json.loads(Path(config_path(ROOT, name)).read_text())
        epsilon[name] = {n["id"]: n["epsilon"] for n in doc["nodes"] if "epsilon" in n}
    return {
        "source": _source_identity(),
        "environment": environment,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "workload": workload.name,
        "networks": list(workload.networks),
        "config_epsilon": epsilon,
        "invocations": [{"label": i.label, "argv": [shown(a) for a in i.argv]}
                        for i in workload.invocations],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _checks(passes: list[dict]) -> list[str]:
    errors = [e for p in passes for inv in p["invocations"] for e in inv["errors"]]
    digests: dict[str, set] = {}
    for p in passes:
        for inv in p["invocations"]:
            digests.setdefault(inv["label"], set()).add(inv["digest"])
    errors += [f"{label}: artifacts differ between same-seed passes"
               for label, seen in digests.items() if len(seen) > 1]
    traced = [p["layers"] for p in passes if p["traced"]]
    for name in EXACT_COUNTS:
        if len({t[name] for t in traced}) > 1:
            errors.append(f"{name} differs between traced passes: {[t[name] for t in traced]}")
    return errors


def _mc_rate(passes: list[dict]) -> float:
    """Monte-Carlo samples per second in the fastest hundredth of the run's chunks.

    The speed of interpreted code on a shared machine drifts by up to 2x over
    tens of seconds, so the mean rate of one run says more about the machine
    than about the code. The 1st percentile of chunk time measures the chunks
    that ran at the machine's full speed; unlike the minimum, it does not grow
    with the number of chunks a run happens to hold.
    """
    chunks = [c for p in passes for c in p["mc_chunk_s"]]
    return MC_CHUNK / statistics.quantiles(chunks, n=100)[0] if len(chunks) > 1 else 0.0


def _end_to_end(passes: list[dict], setups: list[float], peak_rss_kib: int) -> dict:
    per_pass = {
        "run_s": [p["run_s"] for p in passes],
        "solve_s": [p["solve_s"] for p in passes],
        "mc_mean_samples_per_s": [p["mc_samples"] / p["mc_s"] if p["mc_s"] else 0.0
                                  for p in passes],
    }
    stats = {"setup_s": _stats(setups), **{k: _stats(v) for k, v in per_pass.items()}}
    stats["mc_samples_per_s"] = _stats([_mc_rate(passes)])
    stats["peak_rss_mb"] = _stats([peak_rss_kib / 1024])
    return stats


def _per_layer(passes: list[dict]) -> dict:
    untraced = [p for p in passes if not p["traced"]]
    series: dict[str, list[float]] = {
        "report_s": [p["run_s"] - p["solve_s"] - p["mc_s"] for p in untraced],
    }
    for p in passes:
        if not p["traced"]:
            continue
        layers = dict(p["layers"])
        layers["trace.run_s"] = p["run_s"]
        layers["trace.coverage"] = layers["trace.library_self_s"] / p["run_s"]
        for name, value in layers.items():
            series.setdefault(name, []).append(value)
    stats = {name: _stats(values) for name, values in series.items()}
    overhead = (statistics.median(series["trace.run_s"])
                - statistics.median(p["run_s"] for p in untraced))
    stats["trace.overhead_s"] = _stats([overhead])
    return stats


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        if not (ROOT / "src" / "gasflow" / "cli.py").is_file():
            raise BenchmarkError(f"no gasflow sources under {ROOT / 'src'}")
        known = workloads(ROOT)
        if args.workload not in known:
            raise BenchmarkError(f"unknown workload {args.workload!r}; known: {sorted(known)}")
        workload = known[args.workload]
        deadline = monotonic() + TIME_LIMIT_S
        common = ["--workload", workload.name]
        setups = []
        if not args.trace:
            setups = [_worker([*common, "--setup-only"], deadline)["setup_s"]
                      for _ in range(SETUP_SAMPLES - 1)]
        result = _worker([*common, "--seed", str(args.seed), "--seconds", str(args.seconds),
                          "--trace", str(args.trace)], deadline)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    passes = result["passes"]
    errors = _checks(passes)
    if args.trace:
        stats = _per_layer(passes)
        units = PER_LAYER
    else:
        stats = _end_to_end(passes, setups + [result["setup_s"]], result["peak_rss_kib"])
        units = END_TO_END
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    record = {
        "manifest": _manifest(workload, args, result["environment"]),
        "correct": not errors,
        "errors": errors,
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "stats": stats,
        "passes": passes,
        "trace_file": result["trace_file"],
    }
    out = HERE / "out" / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)
    print(json.dumps({"record": str(out.relative_to(ROOT)), "manifest": record["manifest"],
                      "stats": {k: stats[k] for k in units}}, sort_keys=True))
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": stats[k]["median"], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
