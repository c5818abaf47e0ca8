"""In-memory spans recorded around gasflow's public boundaries.

The library is not changed: the benchmark replaces the module attributes that
callers look up (``gasflow.cli.violation_probability``,
``gasflow.ogf.solve``, ...) with wrappers that record a span per call, and
restores them afterwards. The layers are the gasflow modules.

With tracing off only the boundaries the end-to-end metrics need are wrapped:
the CLI's calls to ``solve_chance_constrained`` and ``violation_probability``
(the worker wraps ``gasflow.cli.main`` itself, traced or not), and the
Monte-Carlo steady solves, whose start times are stamped without a span.
"""

from __future__ import annotations

import functools
import gzip
import json
from bisect import bisect_left, bisect_right
from pathlib import Path
from time import perf_counter

LAYERS = ("network", "stochastic", "ogf", "nlp", "steady", "pricing", "cli")
CALLBACKS = ("objective", "gradient", "constraints", "jacobian", "hessian")
# Counts that must repeat exactly across runs of the same code and seed.
EXACT_COUNTS = ("nlp.iterations", "nlp.factorizations", "ogf.callback_calls",
                "steady.mc_newton_iters")

# Monte-Carlo samples per timed chunk.
MC_CHUNK = 50

# Span fields, in record order.
NAME, LAYER, PARENT, RUN, START, END, ATTRS = range(7)


class Tracer:
    """Spans as lists ``[name, layer, parent, run, start, end, attrs]``."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.run = ""
        # Start time of every Monte-Carlo steady solve, traced or not.
        self.mc_starts: list[float] = []

    def wrap(self, name: str, layer: str, fn, attrs=None):
        """``fn`` recording one span per call; ``attrs(result)`` annotates it."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, layer, stack[-1] if stack else -1, self.run, perf_counter(), 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                rec[ATTRS] = {"error": type(exc).__name__}
                raise
            finally:
                rec[END] = perf_counter()
                stack.pop()
            if attrs is not None:
                rec[ATTRS] = attrs(result)
            return result

        return traced

    def stamp(self, fn):
        """``fn`` appending its start time to ``mc_starts``, with no span."""
        starts = self.mc_starts

        @functools.wraps(fn)
        def stamped(*args, **kwargs):
            starts.append(perf_counter())
            return fn(*args, **kwargs)

        return stamped

    def write(self, path: Path, origin: float) -> None:
        """Write the spans as gzip-compressed JSON lines, times relative to ``origin``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s[NAME], "layer": s[LAYER], "parent": s[PARENT],
                    "run": s[RUN], "start": s[START] - origin, "end": s[END] - origin,
                    "attrs": s[ATTRS],
                }, sort_keys=True) + "\n")


class _LinalgProxy:
    """Stands in for ``scipy.linalg`` inside ``gasflow.nlp`` with a traced ``ldl``."""

    def __init__(self, module, ldl):
        self._module = module
        self.ldl = ldl

    def __getattr__(self, name):
        return getattr(self._module, name)


class Instrumentation:
    """Context manager that installs the wrappers and restores the originals."""

    def __init__(self, tracer: Tracer, full: bool):
        self.tracer = tracer
        self.full = full
        self._saved: list[tuple[object, str, object]] = []

    def _replace(self, module, attr: str, value) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def _wrap(self, module, attr: str, name: str, layer: str, attrs=None) -> None:
        self._replace(module, attr, self.tracer.wrap(name, layer, getattr(module, attr), attrs))

    def _assemble(self, original):
        tracer = self.tracer

        def assemble(*args, **kwargs):
            problem, layout = original(*args, **kwargs)
            for cb in CALLBACKS:
                fn = getattr(problem, cb)
                if fn is not None:
                    setattr(problem, cb, tracer.wrap(f"ogf.{cb}", "ogf", fn))
            return problem, layout

        return tracer.wrap("ogf.assemble", "ogf", assemble)

    def __enter__(self):
        import gasflow.cli as cli
        import gasflow.nlp as nlp
        import gasflow.ogf as ogf
        import gasflow.pricing as pricing

        mc_attrs = lambda est: {"samples": sum(e.n_samples for e in est),  # noqa: E731
                                "failed": sum(e.n_failed for e in est)}
        self._wrap(cli, "solve_chance_constrained", "ogf.solve_chance_constrained", "ogf")
        self._wrap(cli, "violation_probability", "pricing.violation_probability", "pricing",
                   mc_attrs)
        self._replace(pricing, "solve_steady", self.tracer.stamp(pricing.solve_steady))
        if not self.full:
            return self
        newton = lambda st: {"iterations": st.iterations}  # noqa: E731
        self._wrap(cli, "load_network", "network.load_network", "network")
        self._wrap(cli, "build_grid", "stochastic.build_grid", "stochastic")
        self._wrap(ogf, "build_grid", "stochastic.build_grid", "stochastic")
        self._wrap(cli, "kkt_report", "pricing.kkt_report", "pricing")
        self._wrap(cli, "distribution_of", "pricing.distribution_of", "pricing")
        self._wrap(ogf, "initial_point_chance_constrained", "ogf.warm_start", "ogf")
        self._wrap(ogf, "decode", "ogf.decode", "ogf")
        self._wrap(ogf, "solve", "nlp.solve", "nlp",
                   lambda s: {"iterations": s.iterations, "n": s.x.size,
                              "m": s.lambda_eq.size, "status": s.status.value})
        self._wrap(ogf, "solve_steady", "steady.warm", "steady", newton)
        self._wrap(pricing, "solve_steady", "steady.mc", "steady", newton)
        for attr in ("assemble_chance_constrained", "assemble_deterministic"):
            self._replace(ogf, attr, self._assemble(getattr(ogf, attr)))
        ldl = self.tracer.wrap("nlp.ldl", "nlp", nlp.sla.ldl)
        self._replace(nlp, "sla", _LinalgProxy(nlp.sla, ldl))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        return False


def layer_metrics(spans: list[list], base: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass from its spans, which start at index ``base``
    of the tracer's list; a layer's self time excludes the time of its child spans."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= base:
            child[s[PARENT] - base] += s[END] - s[START]
    dur: dict[str, float] = {}
    calls: dict[str, int] = {}
    self_s = dict.fromkeys(LAYERS, 0.0)
    for i, s in enumerate(spans):
        d = s[END] - s[START]
        dur[s[NAME]] = dur.get(s[NAME], 0.0) + d
        calls[s[NAME]] = calls.get(s[NAME], 0) + 1
        self_s[s[LAYER]] += d - child[i]

    def total(name: str) -> float:
        return dur.get(name, 0.0)

    def count(name: str) -> int:
        return calls.get(name, 0)

    def attr_sum(name: str, key: str) -> int:
        return sum(s[ATTRS][key] for s in spans
                   if s[NAME] == name and s[ATTRS] and key in s[ATTRS])

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    iterations = attr_sum("nlp.solve", "iterations")
    factorizations = count("nlp.ldl")
    kkt_dim = max((s[ATTRS]["n"] + s[ATTRS]["m"] for s in spans
                   if s[NAME] == "nlp.solve" and s[ATTRS] and "n" in s[ATTRS]), default=0)
    mc_calls = count("steady.mc")
    m = {
        "network.parse_s": total("network.load_network"),
        "stochastic.build_grid_calls": count("stochastic.build_grid"),
        "stochastic.build_grid_s": total("stochastic.build_grid"),
        "ogf.assemble_s": total("ogf.assemble"),
        "ogf.warm_start_s": total("ogf.warm_start"),
        "ogf.callback_calls": sum(count(f"ogf.{cb}") for cb in CALLBACKS),
        "ogf.callback_s": sum(total(f"ogf.{cb}") for cb in CALLBACKS),
        "ogf.hessian_s": total("ogf.hessian"),
        "ogf.jacobian_s": total("ogf.jacobian"),
        "ogf.decode_s": total("ogf.decode"),
        "nlp.iterations": iterations,
        "nlp.self_s_per_iter": ratio(self_s["nlp"], iterations),
        "nlp.factorizations": factorizations,
        "nlp.factor_s": total("nlp.ldl"),
        "nlp.factor_useful_ratio": ratio(iterations, factorizations),
        "nlp.trial_points": ratio(count("ogf.constraints"), iterations),
        "nlp.kkt_dim": kkt_dim,
        "nlp.kkt_dense_mb": kkt_dim**2 * 8 / 2**20,
        "steady.mc_calls": mc_calls,
        "steady.mc_s_per_call": ratio(total("steady.mc"), mc_calls),
        "steady.mc_newton_iters": attr_sum("steady.mc", "iterations"),
        "steady.mc_failed": sum(1 for s in spans
                                if s[NAME] == "steady.mc" and s[ATTRS] and "error" in s[ATTRS]),
        "steady.warm_calls": count("steady.warm"),
        "steady.warm_s": total("steady.warm"),
        "pricing.violation_self_s": total("pricing.violation_probability") - total("steady.mc"),
        "pricing.kde_calls": count("pricing.distribution_of"),
        "pricing.kde_s": total("pricing.distribution_of"),
        "pricing.kkt_report_s": total("pricing.kkt_report"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_s[layer]
    m["trace.library_self_s"] = sum(v for k, v in self_s.items() if k != "cli")
    m["trace.spans"] = len(spans)
    return m


def mc_chunks(starts: list[float], spans: list[list]) -> list[float]:
    """Wall time of each run of ``MC_CHUNK`` consecutive Monte-Carlo samples in ``spans``.

    ``starts`` holds the start time of every Monte-Carlo steady solve. A sample
    lasts from the start of its steady solve to the start of the next one, so a
    chunk holds the per-sample work of ``pricing`` as well. Chunks do not cross
    ``violation_probability`` calls; a call's set-up before its first sample and
    the samples after its last whole chunk are left out.
    """
    chunks = []
    for s in spans:
        if s[NAME] != "pricing.violation_probability":
            continue
        edges = starts[bisect_left(starts, s[START]):bisect_right(starts, s[END])]
        chunks += [edges[i + MC_CHUNK] - edges[i]
                   for i in range(0, len(edges) - MC_CHUNK, MC_CHUNK)]
    return chunks
