"""Alternating benchmark pairs of a parent commit and the working tree.

Run it from any folder; it works on the repository it lives in:

    python3 scripts/bench_pairs.py --parent HEAD --out BENCH_prN.json

It exports two fresh copies with ``git archive``: the parent ref, and the
working tree as it stands (tracked and untracked files that ``.gitignore``
does not exclude; the index is not touched).  In each of ten pairs it runs
``perfbench/run.py --trace 0`` once on each copy, one process at a time, for
every workload of ``BENCHMARK.json``; the side that runs first alternates
between pairs.  Then it makes one traced run per side and workload, runs the
workloads' CLI invocations at one seed on both copies, and on the change
twice, and compares their artifacts.  The result file holds, per workload and
end-to-end metric, the median and quartiles of each side, the pairs in which
the change was better, and every run; and per traced span that reports
iterations, how many of its calls took none.

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
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

CLI = "import sys; sys.path.insert(0, 'src'); from gasflow.cli import main; sys.exit(main(sys.argv[1:]))"
SIDES = ("parent", "change")
PAIRS = 10  # per workload; fewer cannot tell a gain from the machine's drift
FIRST_SEED = 111  # pair i runs seed FIRST_SEED + i on both sides
TRACE_SEED = 301
ARTIFACT_SEED = 1


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


def perfbench(copy: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    """The result line of one ``perfbench/run.py`` process, with its manifest."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=copy, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"perfbench {workload} seed {seed} in {copy} exited "
                           f"{proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(lines[-1])
    summary = json.loads(lines[-2])
    result["manifest"] = summary["manifest"]
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
        "runs": {"parent": parent, "change": change},
    }


def assemble(bench: dict, runs: dict, traced: dict, *, parent: str, change: str,
             artifacts: dict) -> dict:
    """The ``BENCH_*.json`` record.

    ``runs[workload][side]`` lists the untraced result lines in pair order,
    each with its ``seed`` and ``manifest``; ``traced[workload][side]`` is the
    traced result line of each side."""
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    workloads = {}
    for name, sides in runs.items():
        n = len(sides["parent"])
        entry = {
            "seeds_trace0": [r["seed"] for r in sides["parent"]],
            "trace0": {
                metric: summarize([r["metrics"][metric]["value"] for r in sides["parent"]],
                                  [r["metrics"][metric]["value"] for r in sides["change"]],
                                  direction)
                for metric, direction in better.items()
            },
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
        "workloads": workloads,
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


def compare_outputs(a: Path, b: Path) -> dict:
    """Files of two output folders: how many are byte-identical, and per
    differing file the largest relative move of each numeric field that moved."""
    names = sorted({p.relative_to(a).as_posix() for p in a.rglob("*") if p.is_file()}
                   | {p.relative_to(b).as_posix() for p in b.rglob("*") if p.is_file()})
    same, moved = 0, {}
    for name in names:
        pa, pb = a / name, b / name
        if pa.is_file() and pb.is_file() and pa.read_bytes() == pb.read_bytes():
            same += 1
            continue
        fa = _fields(name, pa.read_text()) if pa.is_file() else None
        fb = _fields(name, pb.read_text()) if pb.is_file() else None
        if fa is None or fb is None or fa.keys() != fb.keys() or any(
                len(fa[k]) != len(fb[k]) for k in fa):
            moved[name] = "differs in structure"
            continue
        rel = {}
        for k in fa:
            pairs = [(x, y) for x, y in zip(fa[k], fb[k]) if x != y]
            if any(isinstance(x, str) or isinstance(y, str) for x, y in pairs):
                rel[k] = "text differs"
            elif pairs:
                rel[k] = max(abs(x - y) / max(abs(x), abs(y)) for x, y in pairs)
        moved[name] = rel or "differs in layout only"
    return {"compared": len(names), "byte_identical": same, "moved": moved}


def run_invocations(copy: Path, manifest: dict, seed: int, out: Path) -> None:
    """The workload's CLI invocations on ``copy``, each into its own folder."""
    for inv in manifest["invocations"]:
        dest = out / inv["label"]
        subprocess.run([sys.executable, "-c", CLI, *inv["argv"], "--seed", str(seed),
                        "--out", str(dest)], cwd=copy, check=True, capture_output=True)


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

    runs = {name: {s: [] for s in SIDES} for name in names}
    for i in range(PAIRS):
        seed = FIRST_SEED + i
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for name in names:
            for side in order:
                result = perfbench(copies[side], name, seed, seconds, 0)
                runs[name][side].append(result | {"seed": seed})
                print(f"pair {i + 1}/{PAIRS} {name} {side}: " + ", ".join(
                    f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)

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
                      artifacts=artifacts)
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    shutil.rmtree(work)
    return 0


if __name__ == "__main__":
    sys.exit(main())
