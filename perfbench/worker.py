"""One benchmark process: set up gasflow in a fresh interpreter, then run passes.

Usage (normally started by ``run.py``, from the root of a checkout):

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload NAME --setup-only

Set-up is importing ``gasflow.cli`` and parsing the workload's networks. A
pass runs the workload's CLI invocations in-process through
``gasflow.cli.main``, one after the other. Passes repeat while the next one is
expected to end within ``--seconds``. With ``--trace 1`` passes alternate
between untraced and traced, starting untraced, with at least one of each.
The last line of standard output is one JSON object with the pass records.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

from spans import (  # noqa: E402
    ATTRS,
    END,
    NAME,
    START,
    Instrumentation,
    Tracer,
    layer_metrics,
    mc_chunks,
)
from workloads import artifact_digest, check_outputs, config_path, workloads  # noqa: E402


def _setup(names):
    """Import gasflow.cli and parse the networks; returns (cli module, seconds)."""
    t0 = perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import gasflow.cli as cli
    from gasflow.network import load_network

    for name in names:
        load_network(config_path(ROOT, name))
    setup_s = perf_counter() - t0
    import gasflow

    src = (ROOT / "src").resolve()
    if src not in Path(gasflow.__file__).resolve().parents:
        raise SystemExit(f"gasflow imported from {gasflow.__file__}, not from {src}")
    return cli, setup_s


def _environment() -> dict:
    import numpy
    import scipy

    def blas(module):
        deps = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {k: deps.get(k) for k in ("name", "version", "openblas configuration")}

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
    }


def _span_total(spans, name: str) -> float:
    return sum(s[END] - s[START] for s in spans if s[NAME] == name)


def run_pass(cli, tracer: Tracer, workload, reference, seed: int, index: int,
             traced: bool, out_root: Path) -> dict:
    t_pass = perf_counter()
    lo = len(tracer.spans)
    tracer.mc_starts.clear()
    main = tracer.wrap("cli.main", "cli", cli.main)
    results = []
    with Instrumentation(tracer, full=traced):
        for j, inv in enumerate(workload.invocations):
            out = out_root / f"p{index}-i{j}"
            tracer.run = f"p{index}.i{j}"
            argv = [*inv.argv, "--seed", str(seed), "--out", str(out)]
            first = len(tracer.spans)
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    rc = main(argv)
                crash = None
            except Exception as exc:  # a crash is a failed invocation, not a benchmark error
                rc, crash = None, f"{type(exc).__name__}: {exc}"
            results.append((inv, out, rc, crash, first, len(tracer.spans)))
    spans = tracer.spans[lo:]

    invocations = []
    attempted = failed = 0
    for inv, out, rc, crash, first, last in results:
        if crash:
            errors = [f"{inv.label}: crashed ({crash})"]
        elif rc != 0:
            errors = [f"{inv.label}: exit code {rc}"]
        else:
            errors = check_outputs(workload, inv, out, reference[inv.label])
        digest, files, size = artifact_digest(out) if out.is_dir() else ("", 0, 0)
        shutil.rmtree(out, ignore_errors=True)
        own = tracer.spans[first:last]
        good_samples = sum(s[ATTRS]["samples"] - s[ATTRS]["failed"] for s in own
                           if s[NAME] == "pricing.violation_probability"
                           and s[ATTRS] and "samples" in s[ATTRS])
        attempted += inv.solves + inv.mc_samples
        failed += (inv.solves if errors else 0) + max(inv.mc_samples - good_samples, 0)
        invocations.append({"label": inv.label, "rc": rc, "errors": errors, "digest": digest,
                            "files": files, "bytes": size,
                            "run_s": _span_total(own, "cli.main")})

    record = {
        "index": index,
        "traced": traced,
        "run_s": _span_total(spans, "cli.main"),
        "solve_s": _span_total(spans, "ogf.solve_chance_constrained"),
        "mc_s": _span_total(spans, "pricing.violation_probability"),
        "mc_samples": sum(s[ATTRS]["samples"] for s in spans
                          if s[NAME] == "pricing.violation_probability"
                          and s[ATTRS] and "samples" in s[ATTRS]),
        "mc_chunk_s": mc_chunks(tracer.mc_starts, spans),
        "attempted": attempted,
        "failed": failed,
        "invocations": invocations,
        "layers": None,
    }
    if traced:
        layers = layer_metrics(spans, lo)
        layers["cli.artifact_files"] = sum(i["files"] for i in invocations)
        layers["cli.artifact_bytes"] = sum(i["bytes"] for i in invocations)
        record["layers"] = layers
    record["wall_s"] = perf_counter() - t_pass
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = workloads(ROOT)[args.workload]
    cli, setup_s = _setup(workload.networks)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    reference = json.loads((HERE / "reference.json").read_text())[workload.name]
    out_root = HERE / "out" / f"{workload.name}-{os.getpid()}"
    tracer = Tracer()
    origin = perf_counter()
    passes: list[dict] = []
    try:
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            passes.append(run_pass(cli, tracer, workload, reference, args.seed,
                                   len(passes), traced, out_root))
            elapsed = perf_counter() - origin
            typical = statistics.median(p["wall_s"] for p in passes)
            untried = args.trace and not any(p["traced"] for p in passes)
            if not untried and elapsed + typical > args.seconds:
                break
    finally:
        shutil.rmtree(out_root, ignore_errors=True)

    trace_file = None
    if args.trace:
        trace_file = HERE / "out" / f"trace-{workload.name}-seed{args.seed}.jsonl.gz"
        tracer.write(trace_file, origin)
    print(json.dumps({
        "setup_s": setup_s,
        "environment": _environment(),
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "passes": passes,
        "trace_file": str(trace_file.relative_to(ROOT)) if trace_file else None,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
