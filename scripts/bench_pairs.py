"""Alternating benchmark pairs of a parent commit and the working tree.

Run it from any folder; it works on the repository it lives in:

    python3 scripts/bench_pairs.py --parent HEAD --out BENCH_prN.json

It exports two fresh copies with ``git archive``: the parent ref, and the
working tree as it stands (tracked and untracked files that ``.gitignore``
does not exclude; the index is not touched).  In each of ten pairs it runs
``perfbench/run.py --trace 0`` once on each copy, one process at a time, for
every workload of ``BENCHMARK.json``; the side that runs first alternates
between pairs.  A short series of alternating pairs follows with BLAS at one
thread (``OPENBLAS_NUM_THREADS=1`` and ``OMP_NUM_THREADS=1`` in the child
environment).  Then it makes one traced run per side and workload, runs the
workloads' CLI invocations at one seed on both copies, and on the change
twice, and compares their artifacts.  The result file holds, per workload and
end-to-end metric, the median and quartiles of each side, the pairs in which
the change was better, and every run; the same for the CPU time and the
minor page faults of each ``perfbench/run.py`` call per pass; the same
summaries for the one-thread series, which is evidence beside the default one
(the benchmark's gate stays its wall-time metrics at the default thread
count); and per traced span that reports iterations, how many of its calls
took none.  At its top, the traced work counts of both sides stand side by
side, and any count that differs is named there.

The script reads ``BENCHMARK.json`` and what ``perfbench`` prints and writes
in its copies (result lines, records, trace files); it changes neither, and
it does not import gasflow.
"""

from __future__ import annotations

import argparse
import csv
import gzip
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

CLI = "import sys; sys.path.insert(0, 'src'); from gasflow.cli import main; sys.exit(main(sys.argv[1:]))"
SIDES = ("parent", "change")
PAIRS = 10  # per workload; fewer cannot tell a gain from the machine's drift
BLAS1_PAIRS = 3  # per workload, with BLAS at one thread
BLAS1_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
FIRST_SEED = 111  # pair i runs seed FIRST_SEED + i on both sides
TRACE_SEED = 301
ARTIFACT_SEED = 1
# traced counts of the work a run does: the same on both sides unless the
# change alters the algorithm
WORK_COUNTS = ("nlp.iterations", "nlp.factorizations", "ogf.callback_calls", "steady.mc_calls",
               "steady.mc_newton_iters", "stochastic.build_grid_calls")


def _git(repo: Path, *args: str, env: dict | None = None) -> str:
    return subprocess.run(["git", "-C", str(repo), *args], check=True, capture_output=True,
                          text=True, env=env).stdout.strip()


def worktree_tree(repo: Path) -> str:
    """The tree object of the working tree, written through a scratch index."""
    with tempfile.TemporaryDirectory() as tmp:
        env = dict(os.environ, GIT_INDEX_FILE=str(Path(tmp) / "index"))
        _git(repo, "read-tree", "HEAD", env=env)
        _git(repo, "add", "-A", env=env)
        return _git(repo, "write-tree", env=env)


def export(repo: Path, treeish: str, dest: Path) -> None:
    """A fresh copy of ``treeish`` at ``dest``."""
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(repo), "archive", "--format=tar", treeish],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def perfbench(copy: Path, workload: str, seed: int, seconds: int, trace: int,
              env: dict | None = None) -> dict:
    """The result line of one ``perfbench/run.py`` process, with its manifest,
    its passes, and the user plus system CPU time and the minor page faults
    of it and its children; ``env`` adds to the environment the process
    inherits."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=copy, capture_output=True, text=True, env=dict(os.environ, **(env or {})),
    )
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"perfbench {workload} seed {seed} in {copy} exited "
                           f"{proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(lines[-1])
    summary = json.loads(lines[-2])
    result["manifest"] = summary["manifest"]
    result["cpu_s"] = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    result["minflt"] = after.ru_minflt - before.ru_minflt
    result["passes"] = len(json.loads((copy / summary["record"]).read_text())["passes"])
    if trace:
        result["calls_without_iterations"] = calls_without_iterations(copy, summary["record"])
    return result


def calls_without_iterations(copy: Path, record: str) -> dict:
    """Per span of a traced run that reports its iterations (the steady
    solves and the interior point), its calls and those that took none."""
    trace_file = json.loads((copy / record).read_text())["trace_file"]
    counts: dict[str, dict] = {}
    with gzip.open(copy / trace_file, "rt") as fh:
        for line in fh:
            span = json.loads(line)
            if span["attrs"] and "iterations" in span["attrs"]:
                c = counts.setdefault(span["name"], {"calls": 0, "without_iterations": 0})
                c["calls"] += 1
                c["without_iterations"] += span["attrs"]["iterations"] == 0
    return counts


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(parent: list[float], change: list[float], better: str) -> dict:
    """One metric over the pairs: each side's quartiles, the pairs in which
    the change was better, and the change of the median."""
    p, c = quartiles(parent), quartiles(change)
    if better == "lower":
        wins = sum(b < a for a, b in zip(parent, change))
    else:
        wins = sum(b > a for a, b in zip(parent, change))
    return {
        "parent": p,
        "change": c,
        "change_better_pairs": wins,
        "median_change": round(c["median"] / p["median"] - 1.0, 4),
        "parent_iqr": p["q3"] - p["q1"],
        "change_iqr": c["q3"] - c["q1"],
        "runs": {"parent": parent, "change": change},
    }


def series(sides: dict, better: dict) -> dict:
    """Each end-to-end metric over the pairs of one series (``trace0``), the
    CPU time per pass (``cpu_s_per_pass``) and the minor page faults per
    pass (``minflt_per_pass``)."""
    return {
        "trace0": {
            metric: summarize(*([r["metrics"][metric]["value"] for r in sides[s]] for s in SIDES),
                              direction)
            for metric, direction in better.items()
        },
        "cpu_s_per_pass": summarize(
            *([r["cpu_s"] / r["passes"] for r in sides[s]] for s in SIDES), "lower"),
        "minflt_per_pass": summarize(
            *([r["minflt"] / r["passes"] for r in sides[s]] for s in SIDES), "lower"),
    }


def work_counts(traced: dict) -> dict:
    """Per workload, each of ``WORK_COUNTS`` in the traced run of each side
    (``None`` where a side does not report it), and the ``workload:count``
    names whose sides differ."""
    counts = {
        name: {c: {s: sides[s]["metrics"].get(c, {}).get("value") for s in SIDES}
               for c in WORK_COUNTS}
        for name, sides in traced.items()
    }
    differs = [f"{name}:{c}" for name, by_count in counts.items()
               for c, v in by_count.items() if v["parent"] != v["change"]]
    return {"differs": differs, "workloads": counts}


def assemble(bench: dict, runs: dict, traced: dict, *, parent: str, change: str,
             artifacts: dict, blas1: dict | None = None) -> dict:
    """The ``BENCH_*.json`` record.

    ``runs[workload][side]`` lists the untraced result lines in pair order,
    each with its ``seed``, ``manifest``, ``cpu_s``, ``minflt`` and ``passes``;
    ``blas1[workload][side]`` the same for the series with BLAS at one thread;
    ``traced[workload][side]`` is the traced result line of each side."""
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    workloads = {}
    for name, sides in runs.items():
        n = len(sides["parent"])
        entry = {
            "seeds_trace0": [r["seed"] for r in sides["parent"]],
            **series(sides, better),
            "correct": {s: all(r["correct"] for r in sides[s]) for s in SIDES},
            "failed": {s: sum(r["failed"] for r in sides[s]) for s in SIDES},
            "attempted": {s: sum(r["attempted"] for r in sides[s]) for s in SIDES},
        }
        entry["trace1"] = {"seed": TRACE_SEED} | {
            s: {k: v["value"] for k, v in traced[name][s]["metrics"].items()} for s in SIDES
        }
        entry["trace1_calls_without_iterations"] = {
            s: traced[name][s]["calls_without_iterations"] for s in SIDES
        }
        if blas1:
            one = blas1[name]
            entry["blas1"] = {
                "seeds": [r["seed"] for r in one["parent"]],
                "thread_env": one["parent"][0]["manifest"]["thread_env"],
                **series(one, better),
                "failed": {s: sum(r["failed"] for r in one[s]) for s in SIDES},
            }
        workloads[name] = entry
    manifest = next(iter(runs.values()))["parent"][0]["manifest"]
    env = manifest["environment"]
    blas = env.get("scipy_blas", {})
    first = runs[next(iter(runs))]["parent"][0]["seed"]
    record = {
        "harness": ("python3 perfbench/run.py --workload <w> --seed <s> "
                    f"--seconds {bench['run_seconds']} "
                    "--trace 0|1, run from the root of a fresh copy (git archive) of each tree, "
                    "one process at a time, by scripts/bench_pairs.py"),
        "machine": (f"{manifest['nproc']}-vCPU {platform.system()} "
                    f"{platform.machine()}, {blas.get('name', 'BLAS')} "
                    f"{blas.get('version', '')} at its default threads, Python {env['python']}, "
                    f"numpy {env['numpy']}, scipy {env['scipy']}"),
        "parent": parent,
        "change": change,
        "pairs": (f"{n} per workload, seeds {first}-{first + n - 1}; "
                  "the side that ran first alternated between pairs"),
        "work_counts": work_counts(traced),
        "workloads": workloads,
        "cpu_note": ("cpu_s_per_pass: user plus system CPU time of one perfbench/run.py "
                     "call and its children (set-up probes included), over its passes; "
                     "minflt_per_pass: their minor page faults (RUSAGE_CHILDREN ru_minflt), "
                     "over the same passes"),
        "blas1_note": ("blas1: a short series of alternating pairs with OPENBLAS_NUM_THREADS=1 "
                       "and OMP_NUM_THREADS=1, summarized like trace0; evidence only, the "
                       "gate is trace0 at the default threads"),
        "trace1_note": ("one traced run per side and workload at the seed shown; values are "
                        "medians over its traced passes, and the calls without iterations "
                        "are counted over all of them"),
        "artifacts": artifacts,
    }
    return record


def _leaves(value, path=""):
    """(path, number) for every numeric leaf of a JSON value."""
    if isinstance(value, dict):
        for k, v in value.items():
            yield from _leaves(v, f"{path}.{k}" if path else str(k))
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from _leaves(v, f"{path}[{i}]")
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield path, float(value)


def _value(text: str) -> float | str:
    try:
        return float(text)
    except ValueError:
        return text


def _fields(name: str, text: str) -> dict[str, list] | None:
    """Values of a JSON or CSV artifact by field: a CSV column, or a JSON
    leaf path with its list indices dropped."""
    fields: dict[str, list] = {}
    if name.endswith(".json"):
        for path, v in _leaves(json.loads(text)):
            key = "".join(part.split("[")[0] for part in path.split("]")).lstrip(".")
            fields.setdefault(key, []).append(v)
    elif name.endswith(".csv"):
        for row in csv.DictReader(io.StringIO(text)):
            for k, v in row.items():
                fields.setdefault(k, []).append(_value(v))
    else:
        return None
    return fields


def _abs_change(x: float, y: float) -> float:
    """|x - y|, zero for two NaNs and NaN for one."""
    return 0.0 if x == y or (x != x and y != y) else abs(x - y)


def _named(field: str) -> bool:
    """A field read first: an objective, a compressor ratio or a Monte-Carlo
    estimate."""
    parts = field.split(".")
    return parts[-1] == "objective" or parts[0] == "alpha" or parts[-1].startswith("mc_")


def compare_outputs(a: Path, b: Path) -> dict:
    """Files of two output folders: how many are byte-identical; per differing
    file and numeric field that moved, the largest absolute change next to the
    field's scale (its largest magnitude on either side); and the same for
    every objective, compressor ratio and Monte-Carlo field (``file:field``),
    moved or not, so that no larger move elsewhere hides them."""
    names = sorted({p.relative_to(a).as_posix() for p in a.rglob("*") if p.is_file()}
                   | {p.relative_to(b).as_posix() for p in b.rglob("*") if p.is_file()})
    same, moved, named = 0, {}, {}
    for name in names:
        pa, pb = a / name, b / name
        identical = pa.is_file() and pb.is_file() and pa.read_bytes() == pb.read_bytes()
        same += identical
        fa = _fields(name, pa.read_text()) if pa.is_file() else None
        fb = _fields(name, pb.read_text()) if pb.is_file() else None
        if fa is None or fb is None or fa.keys() != fb.keys() or any(
                len(fa[k]) != len(fb[k]) for k in fa):
            if not identical:
                moved[name] = "differs in structure"
            continue
        change = {}
        for k in fa:
            if any(isinstance(x, str) for x in fa[k] + fb[k]):
                if fa[k] != fb[k]:
                    change[k] = "text differs"
                continue
            change[k] = {"abs_change": max((_abs_change(x, y) for x, y in zip(fa[k], fb[k])),
                                           key=lambda v: (v != v, v)),
                         "scale": max((abs(x) for x in fa[k] + fb[k] if x == x), default=0.0)}
        named |= {f"{name}:{k}": v for k, v in change.items() if _named(k)}
        if not identical:
            moved[name] = {k: v for k, v in change.items()
                           if v == "text differs" or v["abs_change"]} or "differs in layout only"
    return {"compared": len(names), "byte_identical": same, "named": named, "moved": moved}


def run_invocations(copy: Path, manifest: dict, seed: int, out: Path) -> None:
    """The workload's CLI invocations on ``copy``, each into its own folder."""
    for inv in manifest["invocations"]:
        dest = out / inv["label"]
        subprocess.run([sys.executable, "-c", CLI, *inv["argv"], "--seed", str(seed),
                        "--out", str(dest)], cwd=copy, check=True, capture_output=True)


def run_pairs(copies: dict, names: list[str], pairs: int, seconds: int,
              env: dict | None = None) -> dict:
    """Untraced result lines per workload and side, in pair order; pair i
    runs seed ``FIRST_SEED + i`` on both sides, and the side that runs first
    alternates."""
    runs = {name: {s: [] for s in SIDES} for name in names}
    for i in range(pairs):
        seed = FIRST_SEED + i
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for name in names:
            for side in order:
                result = perfbench(copies[side], name, seed, seconds, 0, env=env)
                runs[name][side].append(result | {"seed": seed})
                print(f"pair {i + 1}/{pairs} {name} {side} {env or ''}: " + ", ".join(
                    f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
    return runs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git ref of the parent commit")
    parser.add_argument("--out", required=True, help="the BENCH_*.json to write")
    parser.add_argument("--change", default="the working tree", help="one line on the change")
    args = parser.parse_args(argv)

    repo = Path(__file__).resolve().parents[1]
    bench = json.loads((repo / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    parent_sha = _git(repo, "rev-parse", "--short", args.parent)
    work = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    copies = {"parent": work / "parent", "change": work / "change"}
    export(repo, parent_sha, copies["parent"])
    export(repo, worktree_tree(repo), copies["change"])

    runs = run_pairs(copies, names, PAIRS, seconds)
    blas1 = run_pairs(copies, names, BLAS1_PAIRS, seconds, env=BLAS1_ENV)
    traced = {name: {side: perfbench(copies[side], name, TRACE_SEED, seconds, 1)
                     for side in SIDES} for name in names}

    outs = {"parent": work / "out-parent", "change": work / "out-change",
            "again": work / "out-change-again"}
    for name in names:
        manifest = runs[name]["parent"][0]["manifest"]
        for key, dest in outs.items():
            copy = copies["parent" if key == "parent" else "change"]
            run_invocations(copy, manifest, ARTIFACT_SEED, dest / name)
    artifacts = {
        "invocations": f"the CLI invocations of every workload at seed {ARTIFACT_SEED}",
        "against_the_parent": compare_outputs(outs["parent"], outs["change"]),
        "same_seed_runs_of_the_change": compare_outputs(outs["change"], outs["again"]),
    }

    record = assemble(bench, runs, traced, parent=parent_sha, change=args.change,
                      artifacts=artifacts, blas1=blas1)
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    shutil.rmtree(work)
    return 0


if __name__ == "__main__":
    sys.exit(main())
