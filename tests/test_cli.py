import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gasflow
import gasflow.cli as cli
import gasflow.pricing as pricing
from gasflow import configs
from gasflow.cli import RunConfig, _json_dump, build_parser, main, sweep
from gasflow.nlp import SolveStatus


@pytest.fixture()
def single_pipe_path(tmp_path):
    p = tmp_path / "single_pipe.json"
    p.write_text(configs.config_text("single_pipe"))
    return p


@pytest.fixture()
def eight_node_path(tmp_path):
    p = tmp_path / "eight_node.json"
    p.write_text(configs.config_text("eight_node"))
    return p


def reject_constant(name: str):
    raise ValueError(f"{name} is not JSON")


def read_dir_bytes(path: Path) -> dict[str, bytes]:
    return {f.name: f.read_bytes() for f in sorted(path.iterdir()) if f.is_file()}


CC_FILES = {"solution.json", "violation.json"} | {
    f"{qty}_N3_{kind}.csv"
    for qty in ("pressure", "lambda_q", "lambda_q_per_mass")
    for kind in ("discrete", "density", "atoms")
}


class TestCliSurface:
    @pytest.mark.parametrize(
        "argv, files",
        [
            (["simulate"], {"steady_state.json"}),
            (["optimize"], CC_FILES),
            (["optimize", "--mode", "simulate"], {"steady_state.json"}),
            (["optimize", "--mode", "opt-det"], {"solution.json"}),
            (["optimize", "--mode", "det"], {"solution.json"}),
            (["optimize", "--mode", "opt-cc"], CC_FILES),
            (["optimize", "--mode", "cc"], CC_FILES),
            (["optimize", "--mode", "validate"], CC_FILES),
            (["optimize", "--mode", "prices"], CC_FILES),
            (["optimize", "--mode", "cc", "--epsilons", "0.05"], {"sweep.csv"}),
            (["validate"], CC_FILES),
            (["validate", "--epsilons", "0.05"], CC_FILES),
            (["prices"], CC_FILES),
            (["sweep", "--epsilons", "0.05"], {"sweep.csv"}),
        ],
    )
    def test_command_writes_its_artifacts(self, single_pipe_path, tmp_path, argv, files):
        out = tmp_path / "o"
        common = ["--network", str(single_pipe_path), "--cells", "8", "--mc-samples", "50"]
        assert main(argv + common + ["--out", str(out)]) == 0
        assert {f.name for f in out.iterdir()} == files

    def test_parser_offers_the_readme_surface(self):
        parser = build_parser()
        actions = {a.dest: a for a in parser._actions}
        assert set(actions["command"].choices) == {
            "simulate", "optimize", "validate", "prices", "sweep"
        }
        assert set(actions["mode"].choices) == {
            "simulate", "opt-det", "opt-cc", "validate", "prices", "det", "cc"
        }
        flags = {opt for a in parser._actions for opt in a.option_strings}
        assert flags == {
            "-h", "--help", "--network", "--mode", "--cells", "--epsilon", "--epsilons",
            "--gamma", "--delta", "--mc-samples", "--seed", "--out", "--qmax",
        }


# scipy subpackages that gasflow does without: each loaded one costs start-up
# time and resident memory in every CLI process
UNUSED_SCIPY = ("scipy.stats", "scipy.sparse", "scipy.special", "scipy.interpolate",
                "scipy.optimize")


def test_import_does_not_load_scipy_stats():
    # scipy.stats costs about 0.4 s and 20 MiB at start-up, and nothing needs
    # it; scipy.sparse and scipy.special about 7 MiB, and nothing needs them
    src = str(Path(gasflow.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = ("import sys, gasflow.cli; "
            f"print(sorted(m for m in sys.modules if m.startswith({UNUSED_SCIPY!r})))")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    assert done.stdout.strip() == "[]"


def test_validate_loads_neither_scipy_interpolate_nor_optimize(single_pipe_path, tmp_path):
    # gasflow evaluates its own splines; scipy.interpolate would pull in
    # scipy.optimize, scipy.fft and scipy.spatial, about 0.3 s at start-up.
    # Its spline operators and normal CDF need neither scipy.sparse nor
    # scipy.special
    src = str(Path(gasflow.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    argv = ["validate", "--network", str(single_pipe_path), "--cells", "8", "--mc-samples", "50",
            "--out", str(tmp_path / "o")]
    code = (
        "import sys, gasflow.cli\n"
        f"assert gasflow.cli.main({argv!r}) == 0\n"
        f"print(sorted(m for m in sys.modules if m.startswith({UNUSED_SCIPY!r})))"
    )
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    assert done.stdout.strip().splitlines()[-1] == "[]"
    assert (tmp_path / "o" / "violation.json").is_file()


class TestModes:
    def test_simulate(self, single_pipe_path, tmp_path, capsys):
        code = main(
            ["simulate", "--network", str(single_pipe_path), "--out", str(tmp_path / "o")]
        )
        assert code == 0
        payload = json.loads((tmp_path / "o" / "steady_state.json").read_text())
        assert payload["flows"]["P1"] == pytest.approx(250.0, rel=1e-9)
        assert "simulate" in capsys.readouterr().out

    def test_opt_det_warns_about_uncertainty(self, single_pipe_path, tmp_path, capsys):
        code = main(
            [
                "optimize",
                "--mode", "det",
                "--network", str(single_pipe_path),
                "--out", str(tmp_path / "o"),
            ]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "uncertainty ignored" in err
        payload = json.loads((tmp_path / "o" / "solution.json").read_text())
        assert payload["status"] == "optimal"

    def test_opt_cc_artifacts(self, single_pipe_path, tmp_path, capsys):
        out = tmp_path / "cc"
        code = main(
            [
                "optimize",
                "--mode", "cc",
                "--network", str(single_pipe_path),
                "--cells", "8",
                "--epsilon", "0.05",
                "--gamma", "2500",
                "--mc-samples", "400",
                "--seed", "7",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert (out / "solution.json").exists()
        assert (out / "violation.json").exists()
        assert (out / "pressure_N3_discrete.csv").exists()
        assert (out / "pressure_N3_density.csv").exists()
        assert (out / "lambda_q_N3_discrete.csv").exists()
        summary = capsys.readouterr().out
        assert "status=optimal" in summary and "max_chance_slack" in summary
        with (out / "pressure_N3_discrete.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["omega", "mass", "value"]
        assert len(rows) == 9
        # the omega column holds the centers of 8 equal cells on [-50, 50]
        omega = [float(r[0]) for r in rows[1:]]
        assert omega == pytest.approx([-50.0 + 12.5 * (k + 0.5) for k in range(8)], rel=1e-12)

    def test_infeasible_solve_skips_the_monte_carlo_check(self, tmp_path, monkeypatch, capsys):
        # a 900 kg/s load cannot be delivered above the pressure floors: the
        # solve ends infeasible, so no sample is simulated, solution.json stays
        # strict JSON, and the run still fails
        doc = json.loads(configs.config_text("single_pipe"))
        doc["nodes"][2]["demand"] = 900.0
        network = tmp_path / "overloaded.json"
        network.write_text(json.dumps(doc))
        calls = []
        monkeypatch.setattr(pricing, "solve_steady", lambda *a, **k: calls.append(a))
        common = ["--network", str(network), "--cells", "20", "--mc-samples", "2000"]
        out = tmp_path / "o"
        assert main(["optimize", "--mode", "cc", *common, "--out", str(out)]) == 1
        assert "status=infeasible" in capsys.readouterr().out
        assert {f.name for f in out.iterdir()} == {"solution.json"}
        payload = json.loads((out / "solution.json").read_text(), parse_constant=reject_constant)
        assert payload["status"] == "infeasible"

        assert main(["sweep", *common, "--epsilons", "0.05", "--out", str(tmp_path / "s")]) == 0
        with (tmp_path / "s" / "sweep.csv").open() as fh:
            (row,) = csv.DictReader(fh)
        assert row["status"] == "infeasible"
        assert row["mc_mean_penalty"] == row["mc_violation_probability"] == ""
        assert calls == []

    def test_solver_diagnostic_on_stderr(self, tmp_path, capsys):
        # at a 338 kg/s load no ratio meets the 0.05 budget and the solve
        # stalls in its line search: the run and the sweep row say why on
        # stderr, and stdout and the exit code are as before
        doc = json.loads(configs.config_text("single_pipe"))
        doc["nodes"][2]["demand"] = 338.0
        network = tmp_path / "stalled.json"
        network.write_text(json.dumps(doc))
        common = ["--network", str(network), "--cells", "32", "--gamma", "2500",
                  "--mc-samples", "50"]
        assert main(["optimize", "--mode", "cc", *common, "--epsilon", "0.05",
                     "--out", str(tmp_path / "o")]) == 2
        out, err = capsys.readouterr()
        assert out.startswith("opt-cc status=max_iter ")
        assert err.startswith("solver max_iter: line search failed three times in a row")
        assert main(["sweep", *common, "--epsilons", "0.05", "--out", str(tmp_path / "s")]) == 0
        out, err = capsys.readouterr()
        assert out.startswith("sweep rows=1 ")
        assert err.startswith("solver max_iter at epsilon=0.05: line search failed three times")

    def test_non_finite_values_written_as_null(self, tmp_path):
        _json_dump(tmp_path / "x.json", {"a": [1.0, math.nan], "b": {"c": -math.inf}, "d": 2})
        text = (tmp_path / "x.json").read_text()
        expect = {"a": [1.0, None], "b": {"c": None}, "d": 2}
        assert json.loads(text, parse_constant=reject_constant) == expect

    def test_solution_json_schema(self, single_pipe_path, tmp_path):
        out = tmp_path / "schema"
        code = main(
            [
                "optimize", "--mode", "cc",
                "--network", str(single_pipe_path),
                "--cells", "8", "--gamma", "2500", "--mc-samples", "100",
                "--out", str(out),
            ]
        )
        assert code == 0
        payload = json.loads((out / "solution.json").read_text())
        for key in ("status", "objective", "expected_compressor_power",
                    "expected_economic_value", "alpha", "d", "s", "cells",
                    "lambda_d", "chance"):
            assert key in payload, key
        cell = payload["cells"][0]
        for key in ("omega", "mass", "pressures", "flows", "lambda_q"):
            assert key in cell, key
        chance = payload["chance"][0]
        for key in ("node", "epsilon", "sfv_expectation", "mc_estimate"):
            assert key in chance, key
        assert (out / "lambda_q_per_mass_N3_discrete.csv").exists()

    def test_eight_node_cc_writes_kkt_report(self, eight_node_path, tmp_path):
        out = tmp_path / "en"
        code = main(
            [
                "optimize",
                "--mode", "cc",
                "--network", str(eight_node_path),
                "--cells", "8",
                "--gamma", "2500",
                "--mc-samples", "200",
                "--out", str(out),
            ]
        )
        assert code == 0
        report = json.loads((out / "kkt_report.json").read_text())
        assert report["reports"][0]["node"] == "J3"
        assert report["reports"][0]["passed"] is True
        assert (out / "d_J3_discrete.csv").exists()
        assert (out / "lambda_d_J3_discrete.csv").exists()
        # d3 sits at its 200 kg/s cap in every cell: one atom, no density rows
        with (out / "d_J3_atoms.csv").open() as fh:
            header, (value, mass) = list(csv.reader(fh))
        assert header == ["value", "mass"]
        assert float(value) == pytest.approx(200.0, abs=1e-3)
        assert float(mass) == 1.0
        assert (out / "d_J3_density.csv").read_text().splitlines() == ["grid,density"]
        with (out / "pressure_J5_atoms.csv").open() as fh:
            assert list(csv.reader(fh)) == [["value", "mass"]]

    def test_validate_seeded_runs_are_identical(self, single_pipe_path, tmp_path):
        args = [
            "validate",
            "--network", str(single_pipe_path),
            "--cells", "8",
            "--gamma", "2500",
            "--mc-samples", "300",
            "--seed", "7",
        ]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        assert read_dir_bytes(out_a) == read_dir_bytes(out_b)

    def test_distributions_do_not_depend_on_the_seed(self, single_pipe_path, tmp_path):
        args = ["validate", "--network", str(single_pipe_path), "--cells", "8",
                "--gamma", "2500", "--mc-samples", "50"]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--seed", "1", "--out", str(out_a)]) == 0
        assert main(args + ["--seed", "2", "--out", str(out_b)]) == 0
        a, b = read_dir_bytes(out_a), read_dir_bytes(out_b)
        csvs = {name for name in a if name.endswith(".csv")}
        assert len(csvs) == 9
        assert {n: a[n] for n in csvs} == {n: b[n] for n in csvs}
        assert a["violation.json"] != b["violation.json"]


class TestSweep:
    def test_empty_epsilon_list(self, single_pipe_path, tmp_path):
        config = RunConfig(
            network_path=str(single_pipe_path),
            mode="opt-cc",
            cells=8,
            gamma=2500.0,
            out_dir=str(tmp_path / "s"),
        )
        assert sweep(config, []) == 0
        with (tmp_path / "s" / "sweep.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1
        assert rows[0][0] == "epsilon"

    def test_alpha_decreases_with_epsilon(self, single_pipe_path, tmp_path):
        out = tmp_path / "sw"
        code = main(
            [
                "sweep",
                "--network", str(single_pipe_path),
                "--cells", "12",
                "--gamma", "2500",
                "--epsilons", "0.02,0.08",
                "--mc-samples", "200",
                "--out", str(out),
            ]
        )
        assert code == 0
        with (out / "sweep.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert [row["status"] for row in rows] == ["optimal", "optimal"]
        alphas = [float(row["alpha:C1"]) for row in rows]
        assert alphas[0] > alphas[1]

    def test_failed_row_recorded(self, tmp_path, single_pipe_path):
        config = RunConfig(
            network_path=str(single_pipe_path),
            mode="opt-cc",
            cells=8,
            gamma=2500.0,
            out_dir=str(tmp_path / "bad"),
        )
        rows_code = sweep(config, [-1.0])  # negative epsilon is invalid
        assert rows_code == 0
        with (tmp_path / "bad" / "sweep.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert rows[0]["status"].startswith("error")

    def test_failed_point_does_not_seed_the_next(self, single_pipe_path, tmp_path,
                                                  monkeypatch):
        # the first epsilon ends NUMERICAL: the next solve starts cold, and the
        # one after that from the first solution that did not fail
        real_solve = cli.solve_chance_constrained
        starts = []

        def first_fails(*args, **kwargs):
            starts.append(kwargs["x0"])
            sol = real_solve(*args, **kwargs)
            if len(starts) == 1:
                return dataclasses.replace(sol, status=SolveStatus.NUMERICAL)
            return sol

        monkeypatch.setattr(cli, "solve_chance_constrained", first_fails)
        out = tmp_path / "f"
        assert main(["sweep", "--network", str(single_pipe_path), "--cells", "8",
                     "--gamma", "2500", "--epsilons", "0.02,0.05,0.08",
                     "--mc-samples", "50", "--out", str(out)]) == 0
        with (out / "sweep.csv").open() as fh:
            statuses = [row["status"] for row in csv.DictReader(fh)]
        assert statuses == ["numerical", "optimal", "optimal"]
        assert starts[0] is None and starts[1] is None
        assert starts[2] is not None and starts[2].status is SolveStatus.OPTIMAL

    def test_non_finite_epsilon_row_recorded(self, single_pipe_path, tmp_path):
        out = tmp_path / "nan"
        code = main(["sweep", "--network", str(single_pipe_path), "--cells", "8",
                     "--gamma", "2500", "--epsilons", "0.05,nan,0.02", "--mc-samples", "50",
                     "--out", str(out)])
        assert code == 0
        with (out / "sweep.csv").open() as fh:
            rows = [(row["epsilon"], row["status"]) for row in csv.DictReader(fh)]
        assert [eps for eps, _ in rows] == ["0.02", "0.05", "nan"]
        assert rows[0][1] == rows[1][1] == "optimal"
        assert rows[2][1].startswith("error") and "epsilon" in rows[2][1]


class TestArgumentHandling:
    def test_qmax_override_parsing(self, eight_node_path, tmp_path):
        out = tmp_path / "q"
        code = main(
            [
                "optimize",
                "--mode", "cc",
                "--network", str(eight_node_path),
                "--cells", "8",
                "--gamma", "2500",
                "--mc-samples", "100",
                "--qmax", "J3=inf",
                "--out", str(out),
            ]
        )
        assert code == 0
        payload = json.loads((out / "solution.json").read_text())
        assert payload["lambda_d"]["J3"] == pytest.approx(0.0, abs=1e-4)

    def test_bad_qmax(self, single_pipe_path, capsys):
        assert main(["optimize", "--network", str(single_pipe_path), "--qmax", "J3"]) == 1
        assert "qmax" in capsys.readouterr().err

    def test_steady_solve_failure_exits_one(self, tmp_path, capsys):
        # no steady state carries 900 kg/s to N3 above zero squared pressure
        doc = json.loads(configs.config_text("single_pipe"))
        next(n for n in doc["nodes"] if n["id"] == "N3")["demand"] = 900.0
        path = tmp_path / "heavy.json"
        path.write_text(json.dumps(doc))
        assert main(["simulate", "--network", str(path), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: steady solve failed") and "'N3'" in err

    def test_missing_network_file(self, tmp_path, capsys):
        code = main(["simulate", "--network", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o")])
        assert code == 1

    def test_sweep_missing_network_file(self, tmp_path, capsys):
        code = main(["sweep", "--network", str(tmp_path / "nope.json"),
                     "--epsilons", "0.1", "--out", str(tmp_path / "o")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "validate", "sweep"])
    def test_out_under_a_regular_file(self, single_pipe_path, tmp_path, capsys, command):
        blocker = tmp_path / "file"
        blocker.write_text("")
        code = main([command, "--network", str(single_pipe_path), "--epsilons", "0.1",
                     "--out", str(blocker / "o")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_sweep_requires_epsilons(self, single_pipe_path, capsys):
        assert main(["sweep", "--network", str(single_pipe_path)]) == 1
        assert "epsilons" in capsys.readouterr().err

    def test_too_few_cells(self, single_pipe_path, capsys):
        code = main(
            ["optimize", "--mode", "cc", "--network", str(single_pipe_path), "--cells", "2"]
        )
        assert code == 1

    def test_negative_greville_weight(self, tmp_path, capsys):
        path = tmp_path / "single_pipe_truncnormal.json"
        path.write_text(configs.config_text("single_pipe_truncnormal"))
        code = main(["validate", "--network", str(path), "--cells", "4",
                     "--out", str(tmp_path / "o")])
        assert code == 1
        assert "error: node 'N3': K=4 cells" in capsys.readouterr().err

    @pytest.mark.parametrize("samples", ["0", "1", "-5"])
    def test_too_few_mc_samples(self, single_pipe_path, tmp_path, capsys, samples):
        out = tmp_path / "o"
        code = main(["optimize", "--mode", "cc", "--network", str(single_pipe_path),
                     "--cells", "8", "--mc-samples", samples, "--out", str(out)])
        assert code == 1
        assert "error:" in capsys.readouterr().err
        assert not (out / "violation.json").exists()

    def test_zero_delta(self, eight_node_path, tmp_path, capsys):
        code = main(["optimize", "--mode", "det", "--network", str(eight_node_path),
                     "--delta", "0", "--out", str(tmp_path / "o")])
        assert code == 1
        assert "delta" in capsys.readouterr().err

    @pytest.mark.parametrize("cap", ["nan", "0", "-5"])
    def test_bad_qmax_value_names_the_node(self, eight_node_path, tmp_path, capsys, cap):
        # a NaN cap once solved as no cap, and a non-positive one failed in
        # the solver without naming the node
        code = main(["validate", "--network", str(eight_node_path), "--cells", "8",
                     "--mc-samples", "50", "--qmax", f"J3={cap}", "--out", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: node 'J3': ")

    @pytest.mark.parametrize("flag,value", [("--epsilon", "nan"), ("--epsilon", "inf"),
                                            ("--gamma", "nan"), ("--gamma", "inf"),
                                            ("--delta", "nan"), ("--delta", "inf")])
    def test_non_finite_input(self, single_pipe_path, tmp_path, capsys, flag, value):
        code = main(["optimize", "--mode", "cc", "--network", str(single_pipe_path),
                     "--cells", "8", "--mc-samples", "50", flag, value,
                     "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and flag[2:] in err

    def test_non_finite_epsilon_in_network(self, tmp_path, capsys):
        doc = json.loads(configs.config_text("single_pipe"))
        for node in doc["nodes"]:
            if "epsilon" in node:
                node["epsilon"] = float("nan")
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(doc))  # json writes and reads NaN
        code = main(["optimize", "--mode", "cc", "--network", str(path), "--cells", "8",
                     "--mc-samples", "50", "--out", str(tmp_path / "o")])
        assert code == 1
        assert "epsilon" in capsys.readouterr().err

    def test_exit_code_mapping(self):
        from gasflow.cli import _status_exit
        from gasflow.nlp import SolveStatus

        assert _status_exit(SolveStatus.OPTIMAL) == 0
        assert _status_exit(SolveStatus.MAX_ITER) == 2
        assert _status_exit(SolveStatus.INFEASIBLE) == 1
        assert _status_exit(SolveStatus.NUMERICAL) == 1
