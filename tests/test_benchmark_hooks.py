"""The benchmark's hooks still reach the library.

``perfbench/spans.py`` times gasflow by replacing module attributes that the
library calls through (``gasflow.pricing.solve_steady``, ``gasflow.ogf.solve``,
...).  A refactor that stops calling through one of them leaves the benchmark
running but silently empties a metric, e.g. ``mc_samples_per_s``, which is cut
from the start stamps of the per-sample steady solves.
"""

import importlib.util
from pathlib import Path

import gasflow.cli as cli
import gasflow.nlp as nlp
import gasflow.ogf as ogf
import gasflow.pricing as pricing
from gasflow import configs

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_validate_records_every_layer(tmp_path):
    spans = load_spans()
    network = tmp_path / "single_pipe.json"
    network.write_text(configs.config_text("single_pipe"))
    modules = (cli, nlp, ogf, pricing)
    before = [dict(vars(m)) for m in modules]
    tracer = spans.Tracer()
    with spans.Instrumentation(tracer, full=True):
        assert pricing.solve_steady is not before[-1]["solve_steady"]
        code = cli.main(["validate", "--network", str(network), "--cells", "8",
                         "--mc-samples", "50", "--seed", "1", "--out", str(tmp_path / "o")])
    assert code == 0
    for module, saved in zip(modules, before):
        now = vars(module)
        assert now.keys() == saved.keys()
        assert [k for k in saved if now[k] is not saved[k]] == [], module.__name__
    names = [s[spans.NAME] for s in tracer.spans]
    assert len(tracer.mc_starts) == 50
    assert names.count("steady.mc") == 50
    assert names.count("steady.warm") == 8  # one warm-start steady solve per cell
    assert names.count("nlp.ldl") >= 1
