import dataclasses
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import warnings
import zipfile

import numpy as np
import pytest

from psg import (
    FamilyPolicy,
    InvalidParameterError,
    NesterovPolicy,
    SolverConfig,
    generate_lasso,
    load_lasso_csv,
    make_abs_problem,
    make_sqrt_example,
    run,
)
from psg.cli import (
    ConfigError,
    build_policy,
    build_problem,
    config_to_dict,
    emit_trace,
    emit_trace_csv,
    load_config,
    main,
    parse_config,
    read_trace,
    read_trace_csv,
    resolve_initial_point,
    run_experiment,
)
from psg.bounds import bracket, evaluate
from psg.core import CSV_CHUNK_ROWS


def write_config(path, data):
    path.write_text(json.dumps(data, indent=1))
    return str(path)


def assert_one_error_line(capsys, start="error: "):
    """stderr holds one line, starting with `start`, and no traceback; stdout is empty."""
    out, err = capsys.readouterr()
    assert len(err.splitlines()) == 1 and err.startswith(start), err
    assert "Traceback" not in err and out == "", out


ABS_CONFIG = {
    "problem": {"kind": "abs", "dim": 1},
    "policy": {"kind": "family", "a": 1.0},
    "weight_ks": [0.0],
    "iterations": 10,
    "initial_point": [1.0],
    "trace_path": "trace.csv",
    "summary_path": "summary.json",
}


class TestConfigParsing:
    def test_round_trip(self):
        config = parse_config(ABS_CONFIG)
        assert parse_config(config_to_dict(config)) == config

    def test_round_trip_lasso_sweep(self):
        data = {
            "problem": {"kind": "lasso", "seed": 1, "n": 64, "m": 40,
                        "radius": 50.0, "lambda": 10.0},
            "policy": [{"kind": "family", "a": 0.5}, {"kind": "nesterov"}],
            "weight_ks": [-1.0, 0.0, 2.0],
            "iterations": 100,
            "initial_point": {"random": 7},
            "restart_factor": 10.0,
        }
        config = parse_config(data)
        assert parse_config(config_to_dict(config)) == config

    def test_single_policy_normalizes_to_list(self):
        config = parse_config(ABS_CONFIG)
        assert len(config.policy) == 1
        assert config.policy[0].kind == "family"

    @pytest.mark.parametrize("mutate,field", [
        (lambda d: d.pop("problem"), "problem"),
        (lambda d: d.pop("iterations"), "iterations"),
        (lambda d: d.update(problem={"kind": "nope"}), "problem.kind"),
        (lambda d: d.update(weight_ks=[-3.0]), "weight_ks"),
        (lambda d: d.update(policy={"kind": "warp"}), "policy.kind"),
        (lambda d: d.update(restart_factor=0.5), "restart_factor"),
        (lambda d: d.update(unexpected=1), "unexpected"),
        (lambda d: d.update(problem={"kind": "abs"}), "problem.dim"),
        (lambda d: d.update(iterations=0), "iterations: must be >= 1"),
    ], ids=lambda v: v if isinstance(v, str) else "")
    def test_errors_name_the_field(self, mutate, field):
        data = json.loads(json.dumps(ABS_CONFIG))
        mutate(data)
        with pytest.raises(ConfigError, match=field.replace(".", r"\.")):
            parse_config(data)

    def test_sqrt_default_initial_point_avoids_the_boundary(self):
        config = parse_config({"problem": {"kind": "sqrt-example"},
                               "policy": {"kind": "family"}, "iterations": 5})
        problem = build_problem(config.problem)
        x = resolve_initial_point(config.initial_point, problem)
        assert x[0] == 0.5

    def test_explicit_zero_for_sqrt_is_honored(self):
        config = parse_config({"problem": {"kind": "sqrt-example"},
                               "policy": {"kind": "family"}, "iterations": 5,
                               "initial_point": "zero"})
        problem = build_problem(config.problem)
        assert resolve_initial_point(config.initial_point, problem)[0] == 0.0

    def test_random_initial_point_is_seeded(self):
        config = parse_config({"problem": {"kind": "abs", "dim": 4},
                               "policy": {"kind": "family"}, "iterations": 5,
                               "initial_point": {"random": 9}})
        problem = build_problem(config.problem)
        a = resolve_initial_point(config.initial_point, problem)
        b = resolve_initial_point(config.initial_point, problem)
        assert np.array_equal(a, b)

    def test_classic_without_L_on_lasso_is_a_config_error(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {
            "problem": {"kind": "lasso", "seed": 1, "n": 8, "m": 6},
            "policy": {"kind": "classic"},
            "iterations": 5,
        })
        assert main(["run", "--config", cfg, "--out-dir", str(tmp_path)]) == 1

    @pytest.mark.parametrize("section,obj,field", [
        ("problem", {"kind": "lasso", "seed": 1, "n": 8, "m": 6, "lamda": 1.0}, "problem.lamda"),
        ("problem", {"kind": "abs", "dim": 1, "f_star": -1000.0}, "problem.f_star"),
        ("problem", {"kind": "sqrt-example", "dim": 1}, "problem.dim"),
        ("problem", {"kind": "lasso-file", "path": "x.csv", "seed": 1}, "problem.seed"),
        ("policy", {"kind": "family", "A": 0.25}, "policy.A"),
        ("policy", [{"kind": "nesterov"}, {"kind": "nesterov", "a": 0.5}], "policy.a"),
        ("policy", {"kind": "classic", "L": 1.0, "a": 1.0}, "policy.a"),
    ], ids=lambda v: v if isinstance(v, str) else "")
    def test_unknown_problem_and_policy_fields(self, section, obj, field):
        data = dict(ABS_CONFIG, **{section: obj})
        with pytest.raises(ConfigError, match=re.escape(f"{field}: unknown field")):
            parse_config(data)

    def test_reference_iterations_is_an_unknown_field(self, tmp_path):
        data = dict(ABS_CONFIG, reference_iterations=20000)
        with pytest.raises(ConfigError, match="reference_iterations: unknown field"):
            parse_config(data)
        cfg = write_config(tmp_path / "c.json", data)
        assert main(["run", "--config", cfg, "--out-dir", str(tmp_path)]) == 1

    @pytest.mark.parametrize("field,value,where", [
        ("iterations", "many", "iterations"),
        ("iterations", 2.7, "iterations"),
        ("weight_ks", ["x"], "weight_ks[0]"),
        ("weight_ks", [float("nan")], "weight_ks[0]"),
        ("restart_factor", "big", "restart_factor"),
        ("weight_ks", [0, 2, 0], "weight_ks"),
        ("weight_ks", [0.0, -0.0], "weight_ks"),
        ("initial_point", {"random": -1}, "initial_point.random"),
        ("weight_ks", [], "weight_ks"),
        ("trace_path", 3, "trace_path"),
        ("initial_point", "ones", "initial_point"),
        ("problem", {"dim": 1}, "problem"),
        ("policy", [], "policy"),
        (None, [ABS_CONFIG], "top level"),
    ], ids=["iterations-str", "iterations-fraction", "weight_ks-str", "weight_ks-nan",
            "restart_factor-str", "weight_ks-repeated", "weight_ks-signed-zero",
            "random-seed-negative", "weight_ks-empty", "trace_path-int",
            "initial_point-word", "problem-without-kind", "policy-empty", "top-level-list"])
    def test_malformed_numbers_name_the_field(self, tmp_path, capsys, field, value, where):
        # a field of None replaces the whole config by `value`
        data = value if field is None else dict(ABS_CONFIG, **{field: value})
        with pytest.raises(ConfigError, match=re.escape(f"{where}: expected")):
            parse_config(data)
        cfg = write_config(tmp_path / "c.json", data)  # NaN is written as NaN
        assert main(["run", "--config", cfg, "--out-dir", str(tmp_path)]) == 1
        assert_one_error_line(capsys, f"error: {where}: expected")
        assert not (tmp_path / "summary.json").exists()

    def test_initial_point_of_the_wrong_dimension_is_one_error_line(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", dict(ABS_CONFIG, initial_point=[1.0, 2.0]))
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out-dir", str(out), "--strict"]) == 1
        assert_one_error_line(capsys, "error: initial_point has dimension 2, expected 1")
        assert not out.exists()

    @pytest.mark.parametrize("field,value", [
        ("trace_path", ""), ("trace_path", "sub/"), ("trace_path", "."),
        ("summary_path", ""), ("summary_path", "sub/"), ("summary_path", "sub/.."),
    ])
    def test_path_that_cannot_hold_a_file_fails_before_any_cell(self, tmp_path, capsys,
                                                              field, value):
        data = dict(ABS_CONFIG, **{field: value})
        out = tmp_path / "out"
        with pytest.raises(ConfigError, match=f"{field}: expected a file name"):
            run_experiment(parse_config(data), out_dir=str(out))
        cfg = write_config(tmp_path / "c.json", data)
        assert main(["run", "--config", cfg, "--out-dir", str(out), "--strict"]) == 1
        assert_one_error_line(capsys, f"error: {field}: expected a file name")
        assert not out.exists()

    @pytest.mark.parametrize("trace", ["same.json", "./same.json", "sub/../same.json"])
    def test_one_cell_trace_path_that_is_the_summary_path(self, tmp_path, capsys, trace):
        data = dict(ABS_CONFIG, trace_path=trace, summary_path="same.json")
        out = tmp_path / "out"
        with pytest.raises(ConfigError, match=re.escape(
                "trace_path: is the summary_path; the summary would overwrite it")):
            run_experiment(parse_config(data), out_dir=str(out))
        cfg = write_config(tmp_path / "c.json", data)
        assert main(["run", "--config", cfg, "--out-dir", str(out), "--strict"]) == 1
        assert_one_error_line(capsys, "error: trace_path: is the summary_path")
        assert not out.exists()
        # several cells derive their own trace names, none of them the summary's
        cfg = write_config(tmp_path / "c.json", dict(
            data, policy=[{"kind": "family"}, {"kind": "nesterov"}]))
        assert main(["run", "--config", cfg, "--out-dir", str(out), "--strict"]) == 0
        summary = json.loads((out / "same.json").read_text())
        assert [cell["trace_path"] for cell in summary["cells"]] == [
            os.path.join(out, trace.replace("same.json", f"same__{i}_{label}.json"))
            for i, label in enumerate(("family_a1", "nesterov"))]

    def test_integral_float_is_a_count(self):
        config = parse_config(dict(ABS_CONFIG, iterations=2000.0))
        assert config.iterations == 2000 and isinstance(config.iterations, int)
        assert config_to_dict(config)["iterations"] == 2000

    def test_json_decode_error_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{\n  \"problem\": ???\n}")
        with pytest.raises(ConfigError, match="line 2"):
            load_config(path)


class TestOutputPaths:
    """Every file a run writes is vetted before its first cell runs."""

    TWO_CELLS = dict(ABS_CONFIG, problem={"kind": "abs", "dim": 2}, initial_point=[0.7, -0.4],
                     policy=[{"kind": "family"}, {"kind": "nesterov"}], iterations=50)

    def fails_before_any_cell(self, capsys, cfg, out, start):
        """`psg run` exits 1 with one error line starting `start` and writes nothing."""
        before = sorted(out.rglob("*")) if out.exists() else None
        assert main(["run", "--config", cfg, "--out-dir", str(out), "--strict"]) == 1
        assert_one_error_line(capsys, start)
        assert (sorted(out.rglob("*")) if out.exists() else None) == before

    def test_summary_over_a_derived_trace(self, tmp_path, capsys):
        data = dict(self.TWO_CELLS, trace_path="t.csv", summary_path="t__1_nesterov.csv")
        cfg = write_config(tmp_path / "c.json", data)
        out = tmp_path / "out"
        derived = out / "t__1_nesterov.csv"
        self.fails_before_any_cell(capsys, cfg, out, f"error: trace_path ({derived}): is the"
                                   " summary_path; the summary would overwrite it")

    def test_directory_summary_path(self, tmp_path, capsys):
        out = tmp_path / "out"
        (out / "d").mkdir(parents=True)
        cfg = write_config(tmp_path / "c.json", dict(self.TWO_CELLS, summary_path="d"))
        self.fails_before_any_cell(capsys, cfg, out,
                                   f"error: summary_path: {out / 'd'} is a directory")

    def test_directory_trace_path(self, tmp_path, capsys):
        out = tmp_path / "out"
        (out / "trace.csv").mkdir(parents=True)
        cfg = write_config(tmp_path / "c.json", ABS_CONFIG)
        self.fails_before_any_cell(capsys, cfg, out, "error: trace_path: ")

    @pytest.mark.parametrize("field,name,out_dir", [
        ("trace_path", "inst.csv", None), ("trace_path", "./inst.csv", None),
        ("trace_path", "inst.csv", "link"), ("summary_path", "inst.csv", None),
        ("summary_path", "../data/inst.csv", "out"),
    ], ids=["trace", "dot-slash", "symlinked-out-dir", "summary", "summary-up"])
    def test_output_over_the_problem_file(self, tmp_path, monkeypatch, capsys,
                                          field, name, out_dir):
        monkeypatch.chdir(tmp_path)
        data_dir = tmp_path / "data"
        data_dir.mkdir()
        assert main(["gen-lasso", "--seed", "3", "--n", "4", "--m", "6",
                     "--out", str(data_dir / "inst.csv")]) == 0
        instance = (data_dir / "inst.csv").read_bytes()
        (tmp_path / "link").symlink_to(data_dir)
        (tmp_path / "out").mkdir()
        cfg = write_config(tmp_path / "c.json", {
            "problem": {"kind": "lasso-file", "path": "data/inst.csv"},
            "policy": {"kind": "family"}, "iterations": 50, field: name})
        out = tmp_path / (out_dir or "data")
        self.fails_before_any_cell(capsys, cfg, out, f"error: {field}: is the problem's input"
                                   " file; the run would overwrite it")
        assert (data_dir / "inst.csv").read_bytes() == instance
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json", "data", "link", "out"]

    @pytest.mark.parametrize("field,name,out_dir", [
        ("trace_path", "e.json", None), ("summary_path", "e.json", None),
        ("trace_path", "../e.json", "out"), ("summary_path", "./e.json", "."),
    ], ids=["trace", "summary", "trace-up", "summary-dot"])
    def test_output_over_the_config_file(self, tmp_path, monkeypatch, capsys,
                                         field, name, out_dir):
        # the config file is an input of the run, as a lasso-file instance is
        monkeypatch.chdir(tmp_path)
        (tmp_path / "out").mkdir()
        write_config(tmp_path / "e.json", dict(ABS_CONFIG, iterations=5, **{field: name}))
        config = (tmp_path / "e.json").read_bytes()
        argv = ["run", "--config", "e.json"] + (["--out-dir", out_dir] if out_dir else [])
        assert main(argv) == 1
        assert_one_error_line(capsys, f"error: {field}: is the config file; the run would"
                                      " overwrite it")
        assert (tmp_path / "e.json").read_bytes() == config
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["e.json", "out"]

    @pytest.mark.parametrize("field,name", [
        ("trace_path", "s.json/t.csv"), ("summary_path", "s.json/sub/summary.json"),
    ], ids=["trace", "summary-deeper"])
    def test_output_under_a_file(self, tmp_path, capsys, field, name):
        out = tmp_path / "out"
        out.mkdir()
        (out / "s.json").write_text("{}\n")
        cfg = write_config(tmp_path / "c.json", dict(self.TWO_CELLS, **{field: name}))
        where = field if field == "summary_path" else f"{field} ({out / 's.json/t__0_family_a1.csv'})"
        self.fails_before_any_cell(capsys, cfg, out,
                                   f"error: {where}: {out / 's.json'} is a file, not a directory")
        assert (out / "s.json").read_text() == "{}\n"


class TestRunCommand:
    def test_abs_family_summary(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", ABS_CONFIG)
        assert main(["run", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        cell = summary["cells"][0]
        assert cell["status"] == "ok"
        assert cell["best_value"] == 0.0
        assert cell["stop_reason"] == "zero-subgradient"
        assert cell["certificates"]["family"] is True
        assert cell["max_g_norm"] == 1.0
        assert "family" in cell["bounds"] and "weak_k0" in cell["bounds"]
        assert (tmp_path / "trace.csv").exists()

    def test_negative_zero_exponent_runs_as_zero(self, tmp_path, capsys):
        # -0.0 weighs as 0.0 and takes its labels, weak_k0 included
        cells, traces = {}, {}
        for name, k in (("zero", 0.0), ("negative", -0.0)):
            data = dict(ABS_CONFIG, problem={"kind": "abs", "dim": 2}, weight_ks=[k],
                        initial_point=[0.7, -0.4], iterations=50)
            cfg = write_config(tmp_path / f"{name}.json", data)
            out = tmp_path / name
            assert main(["run", "--config", cfg, "--out-dir", str(out), "--strict"]) == 0
            cells[name] = json.loads((out / "summary.json").read_text())["cells"]
            traces[name] = (out / "trace.csv").read_text().split("\n", 1)
            capsys.readouterr()
            trace = str(out / "trace.csv")
            assert main(["check", "--strict", "--trace", trace, "--problem", cfg]) == 0
            assert "PASS weak_k0\n" in capsys.readouterr().out
        for cell in cells["zero"] + cells["negative"]:
            del cell["trace_path"]
        assert cells["negative"] == cells["zero"]
        assert '"weight_ks": [-0.0]' in traces["negative"][0]  # the header keeps the config's k
        assert traces["negative"][1] == traces["zero"][1]

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", ABS_CONFIG)
        main(["run", "--config", cfg, "--out-dir", str(tmp_path)])
        first_trace = (tmp_path / "trace.csv").read_bytes()
        first_summary = (tmp_path / "summary.json").read_bytes()
        main(["run", "--config", cfg, "--out-dir", str(tmp_path)])
        assert (tmp_path / "trace.csv").read_bytes() == first_trace
        assert (tmp_path / "summary.json").read_bytes() == first_summary

    def test_single_iteration_trace_has_two_lines(self, tmp_path):
        data = dict(ABS_CONFIG, iterations=1)
        cfg = write_config(tmp_path / "c.json", data)
        main(["run", "--config", cfg, "--out-dir", str(tmp_path)])
        header, *lines = (tmp_path / "trace.csv").read_text().splitlines()
        assert header == ('# {"iterations": 1, "policy": {"a": 1.0, "kind": "family"}, '
                          '"problem": {"dim": 1, "kind": "abs"}, "restart_factor": null, '
                          '"weight_ks": [0.0]}')
        assert len(lines) == 2
        assert lines[0] == "s,epoch,eta,g_norm,G,f_x,f_best,bound_family,bound_weak_k0"
        assert lines[1].startswith("1,0,1,")

    def test_header_tracks_configured_ks(self, tmp_path):
        data = dict(ABS_CONFIG, weight_ks=[-1.0, 0.5, 2.0])
        cfg = write_config(tmp_path / "c.json", data)
        main(["run", "--config", cfg, "--out-dir", str(tmp_path)])
        header = (tmp_path / "trace.csv").read_text().splitlines()[1]
        assert header == ("s,epoch,eta,g_norm,G,f_x,f_best,"
                          "bound_family,bound_weak_k-1,bound_weak_k0.5,bound_weak_k2")

    def test_sqrt_from_zero_stops_empty(self, tmp_path):
        # the cell stops before its first iteration: no trace file
        cfg = write_config(tmp_path / "c.json", {
            "problem": {"kind": "sqrt-example"},
            "policy": {"kind": "family"},
            "iterations": 5,
            "initial_point": "zero",
            "trace_path": "trace.csv",
        })
        assert main(["run", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["cells"][0]["stop_reason"] == "empty-subdifferential"
        assert summary["cells"][0]["trace_path"] is None
        assert not (tmp_path / "trace.csv").exists()

    def test_sweep_writes_one_trace_per_cell(self, tmp_path):
        data = {
            "problem": {"kind": "abs", "dim": 2},
            "policy": [{"kind": "family", "a": 1.0}, {"kind": "classic"},
                       {"kind": "nesterov"}],
            "weight_ks": [-1.0, 0.0],
            "iterations": 40,
            "initial_point": [0.7, -0.4],
            "trace_path": "traces/run.csv",
        }
        cfg = write_config(tmp_path / "c.json", data)
        assert main(["run", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
        names = sorted(p.name for p in (tmp_path / "traces").iterdir())
        assert names == ["run__0_family_a1.csv", "run__1_classic.csv", "run__2_nesterov.csv"]

    def test_lasso_certifies_against_its_own_bracket(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {
            "problem": {"kind": "lasso", "seed": 1, "n": 8, "m": 6,
                        "radius": 5.0, "lambda": 1.0},
            "policy": {"kind": "family"},
            "iterations": 50,
        })
        assert main(["run", "--config", cfg, "--out-dir", str(tmp_path), "--strict"]) == 0
        cell = json.loads((tmp_path / "summary.json").read_text())["cells"][0]
        assert "optimum_is_reference" not in cell
        assert cell["optimum_bracket"]["low"] <= cell["best_value"]
        assert cell["optimum_bracket"]["high"] == cell["best_value"]
        assert cell["certificates"] == {"family": True, "weak_k0": True, "monotone_k0": True}
        assert cell["undecided"] == []

    @staticmethod
    def count_oracle_calls(monkeypatch):
        """Count every oracle call of the problems that `psg run` builds."""
        import psg.cli

        count = [0]
        build = psg.cli.build_problem

        def counted_build(spec):
            problem = build(spec)
            oracle = problem.oracle

            def counted(x):
                count[0] += 1
                return oracle(x)

            return dataclasses.replace(problem, oracle=counted)

        monkeypatch.setattr(psg.cli, "build_problem", counted_build)
        return count

    @pytest.mark.parametrize("name,calls", [("lasso_desk.json", 4006), ("sweep_a.json", 10005)])
    def test_shipped_lasso_oracle_calls(self, tmp_path, monkeypatch, name, calls):
        # the Lasso iterate moves at every step: cells x iterations, plus one
        # final call per cell and average; each cell reports its own
        import pathlib

        count = self.count_oracle_calls(monkeypatch)
        cfg = pathlib.Path(__file__).resolve().parent.parent / "configs" / name
        assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path), "--strict"]) == 0
        assert count[0] == calls
        summary = json.loads((tmp_path / json.loads(cfg.read_text())["summary_path"]).read_text())
        cells = summary["cells"]
        assert [cell["oracle_calls"] for cell in cells] == [calls // len(cells)] * len(cells)

    def test_restarted_sqrt_oracle_calls(self, tmp_path, monkeypatch):
        # the sqrt example values its averages from the iterates alone, so
        # its only calls are the loop's and the final values': x_1 = 0.9, then
        # x = 1.0 from row 2 on, where the projection pins every later
        # iterate and the last epoch's averages, which the memo serves
        count = self.count_oracle_calls(monkeypatch)
        cfg = write_config(tmp_path / "c.json", {
            "problem": {"kind": "sqrt-example"}, "policy": {"kind": "family", "a": 0.0},
            "weight_ks": [-1.0, 0.0, 2.0], "iterations": 2000, "initial_point": [0.9],
            "restart_factor": 2.0, "trace_path": "trace.csv",
        })
        assert main(["run", "--config", cfg, "--out-dir", str(tmp_path), "--strict"]) == 0
        cell = json.loads((tmp_path / "summary.json").read_text())["cells"][0]
        assert cell["iterations_run"] == 2000
        _, columns = read_trace_csv(tmp_path / "trace.csv")
        assert columns["epoch"][-1] >= 2
        assert columns["f_x"][0] != -1.0 and columns["f_x"][1:].tolist() == [-1.0] * 1999
        assert cell["averaged_values"] == {"k-1": -1.0, "k0": -1.0, "k2": -1.0}
        assert count[0] == cell["oracle_calls"] == 2

    @pytest.mark.parametrize("iterations", [4, 5])
    def test_restart_on_the_last_iteration_keeps_averages(self, tmp_path, iterations):
        # the restart fires at iteration 5; the report keeps epoch 0's
        # averages and bounds either way
        cfg = write_config(tmp_path / "c.json", {
            "problem": {"kind": "sqrt-example"}, "policy": {"kind": "family", "a": 0.0},
            "weight_ks": [0.0, 2.0], "iterations": iterations, "initial_point": [0.9],
            "restart_factor": 2.0})
        assert main(["run", "--config", cfg, "--out-dir", str(tmp_path), "--strict"]) == 0
        cell = json.loads((tmp_path / "summary.json").read_text())["cells"][0]
        assert set(cell["averaged_values"]) == {"k0", "k2"}
        assert set(cell["bounds"]) == {"family", "weak_k0", "weak_k2"}

    def test_overflowing_weight_fails_the_cell(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", {
            "problem": {"kind": "abs", "dim": 2}, "policy": {"kind": "family"},
            "weight_ks": [0.0, 300.0], "iterations": 3000, "initial_point": [0.7, -0.4],
        })
        assert main(["run", "--config", cfg, "--out-dir", str(tmp_path)]) == 2
        cell = json.loads((tmp_path / "summary.json").read_text())["cells"][0]
        assert cell["status"] == "failed"
        assert cell["error"] == "weight of k=300 overflows at iteration 114"
        assert "overflows at iteration 114" in capsys.readouterr().err

    @pytest.mark.parametrize("k", [2047.0, 2047.5])
    def test_overflowing_bound_term_leaves_its_certificate_undecided(self, tmp_path, capsys, k):
        # at t = 2 the weak bound's top term 2^((k+1)/2) passes the float range,
        # formed by squaring (k = 2047) or by Python's pow (k = 2047.5)
        cfg = write_config(tmp_path / "c.json", {
            "problem": {"kind": "abs", "dim": 1}, "policy": {"kind": "family"},
            "weight_ks": [k], "iterations": 2, "initial_point": [0.7],
            "trace_path": "trace.csv"})
        label = f"weak_k{k:g}"
        assert main(["run", "--config", cfg, "--out-dir", str(tmp_path), "--strict"]) == 3
        cell = json.loads((tmp_path / "summary.json").read_text())["cells"][0]
        assert cell["status"] == "ok" and cell["undecided"] == [label]
        assert cell["bounds"][label] is None  # inf, which strict JSON writes as null
        _, columns = read_trace_csv(tmp_path / "trace.csv")
        bound = columns[f"bound_{label}"]
        assert math.isfinite(bound[0]) and bound[1] == math.inf
        capsys.readouterr()
        assert main(["check", "--trace", str(tmp_path / "trace.csv"), "--problem", cfg,
                     "--strict"]) == 3
        out = capsys.readouterr().out
        assert f"PASS bound_{label}_recomputed" in out and f"FAIL {label} (undecided)" in out

    def test_missing_config_file(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.json")]) == 1

    def test_binary_input_is_an_input_error(self, tmp_path, capsys):
        binary = tmp_path / "binary"
        binary.write_bytes(b"\x89PNG\r\n\x1a\n\xff\xfe")
        cfg = write_config(tmp_path / "c.json", ABS_CONFIG)
        assert main(["run", "--config", str(binary)]) == 1
        assert main(["check", "--trace", str(binary), "--problem", cfg]) == 1
        assert main(["check", "--trace", str(binary), "--problem", str(binary)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 3 and all(line.startswith("error: ") for line in err)

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_numeric_failure_marks_cell_and_exits_2(self, tmp_path):
        # an instance with astronomically large data overflows the objective
        instance = generate_lasso(seed=1, n=4, m=3)
        huge = type(instance)(phi=instance.phi, y=instance.y * 1e200,
                              lam=instance.lam, radius=instance.radius,
                              seed=instance.seed)
        from psg import save_lasso_csv
        save_lasso_csv(huge, tmp_path / "huge.csv")
        cfg = write_config(tmp_path / "c.json", {
            "problem": {"kind": "lasso-file", "path": str(tmp_path / "huge.csv")},
            "policy": {"kind": "family"},
            "iterations": 5,
        })
        assert main(["run", "--config", cfg, "--out-dir", str(tmp_path)]) == 2
        cell = json.loads((tmp_path / "summary.json").read_text())["cells"][0]
        assert cell["status"] == "failed"
        assert "iteration" in cell["error"]

    def test_strict_flags_forced_violation(self, tmp_path, monkeypatch, capsys):
        # planting an impossibly low optimum makes every gap certificate fail
        import psg.cli

        build = psg.cli.build_problem
        monkeypatch.setattr(psg.cli, "build_problem", lambda spec: dataclasses.replace(
            build(spec), known_optimum_value=-1000.0))
        cfg = write_config(tmp_path / "c.json", {
            "problem": {"kind": "abs", "dim": 1},
            "policy": {"kind": "family"},
            "iterations": 10,
            "initial_point": [1.0],
        })
        assert main(["run", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
        assert main(["run", "--config", cfg, "--out-dir", str(tmp_path),
                     "--strict"]) == 3
        assert "certificate refuted: family_a1: family" in capsys.readouterr().err
        cell = json.loads((tmp_path / "summary.json").read_text())["cells"][0]
        assert cell["optimum_bracket"] == {"low": -1000.0, "high": -1000.0}
        assert cell["undecided"] == []

    def test_strict_names_undecided_certificates(self, tmp_path, monkeypatch, capsys):
        import psg.cli

        cell = {"policy": "family_a1", "status": "ok", "undecided": ["weak_k0"],
                "certificates": {"family": True, "weak_k0": False, "monotone_k0": True}}
        monkeypatch.setattr(psg.cli, "run_experiment",
                            lambda config, out_dir=None, config_path=None: {"cells": [cell]})
        cfg = write_config(tmp_path / "c.json", ABS_CONFIG)
        assert main(["run", "--config", cfg]) == 0
        assert main(["run", "--config", cfg, "--strict"]) == 3
        assert capsys.readouterr().err == "certificate undecided: family_a1: weak_k0\n"


class TestGenLasso:
    def test_matches_library_generator(self, tmp_path):
        out = tmp_path / "inst.csv"
        assert main(["gen-lasso", "--seed", "11", "--n", "20", "--m", "12",
                     "--out", str(out)]) == 0
        loaded = load_lasso_csv(out)
        direct = generate_lasso(seed=11, n=20, m=12)
        assert np.array_equal(loaded.phi, direct.phi)
        assert np.array_equal(loaded.y, direct.y)

    def test_config_can_reuse_the_file(self, tmp_path):
        out = tmp_path / "inst.csv"
        main(["gen-lasso", "--seed", "11", "--n", "8", "--m", "6", "--out", str(out),
              "--radius", "5.0", "--lambda", "1.0"])
        cfg = write_config(tmp_path / "c.json", {
            "problem": {"kind": "lasso-file", "path": str(out)},
            "policy": {"kind": "family"},
            "iterations": 20,
        })
        assert main(["run", "--config", cfg, "--out-dir", str(tmp_path)]) == 0

    @pytest.mark.parametrize("n,m", [(2, 8), (3, 40), (64, 40)])
    def test_file_run_reproduces_the_generated_run(self, tmp_path, n, m):
        out = tmp_path / "inst.csv"
        assert main(["gen-lasso", "--seed", "5", "--n", str(n), "--m", str(m),
                     "--out", str(out)]) == 0
        cells = {}
        for kind, problem in (("lasso", {"kind": "lasso", "seed": 5, "n": n, "m": m}),
                              ("file", {"kind": "lasso-file", "path": str(out)})):
            cfg = write_config(tmp_path / f"{kind}.json", {
                "problem": problem, "policy": {"kind": "family"},
                "weight_ks": [-1.0, 0.0, 2.0], "iterations": 300,
                "summary_path": f"{kind}_summary.json"})
            assert main(["run", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
            cells[kind] = json.loads((tmp_path / f"{kind}_summary.json").read_text())["cells"]
        assert cells["file"] == cells["lasso"]

    @pytest.mark.parametrize("option,field", [("--lambda", "lam"), ("--radius", "radius")])
    def test_infinite_lambda_or_radius_is_an_input_error(self, tmp_path, capsys, option, field):
        out = tmp_path / "inst.csv"
        assert main(["gen-lasso", "--seed", "1", "--n", "4", "--m", "3", "--out", str(out),
                     option, "inf"]) == 1
        assert_one_error_line(capsys, f"error: {field} must be positive and finite, got inf")
        assert not out.exists()
        # a file that says so, as an earlier gen-lasso wrote it, is rejected on load
        assert main(["gen-lasso", "--seed", "1", "--n", "4", "--m", "3", "--out", str(out)]) == 0
        text = out.read_text()
        out.write_text(text.replace({"lam": "lambda=10", "radius": "radius=50"}[field],
                                    {"lam": "lambda=inf", "radius": "radius=inf"}[field], 1))
        cfg = write_config(tmp_path / "c.json", {
            "problem": {"kind": "lasso-file", "path": str(out)}, "policy": {"kind": "family"},
            "iterations": 5, "summary_path": "summary.json"})
        assert main(["run", "--config", cfg, "--out-dir", str(tmp_path)]) == 1
        assert_one_error_line(capsys,
                              f"error: {out}: {field} must be positive and finite, got inf")
        assert not (tmp_path / "summary.json").exists()

    @pytest.mark.parametrize("damage", ["seed", "row"])
    def test_malformed_file_is_an_input_error_for_run_and_check(self, tmp_path, capsys,
                                                                damage):
        out = tmp_path / "inst.csv"
        assert main(["gen-lasso", "--seed", "1", "--n", "4", "--m", "3", "--out", str(out)]) == 0
        cfg = write_config(tmp_path / "c.json", {
            "problem": {"kind": "lasso-file", "path": str(out)}, "policy": {"kind": "family"},
            "iterations": 5, "trace_path": "trace.csv"})
        assert main(["run", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
        lines = out.read_text().splitlines()
        if damage == "seed":
            lines[0] = lines[0].replace("seed=1", "seed=x")
        else:
            lines[3] = "abc" + lines[3][lines[3].index(","):]
        out.write_text("\n".join(lines) + "\n")
        with pytest.raises(InvalidParameterError, match=re.escape(f"{out}: malformed")):
            load_lasso_csv(out)
        capsys.readouterr()
        assert main(["run", "--config", cfg, "--out-dir", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {out}: malformed")
        assert main(["check", "--trace", str(tmp_path / "trace.csv"), "--problem", cfg]) == 1
        assert capsys.readouterr().err.startswith(f"error: {out}: malformed")


@pytest.mark.parametrize("command", ["run", "check", "gen-lasso"])
def test_input_error_inside_a_command_is_one_error_line(tmp_path, capsys, command):
    cfg = write_config(tmp_path / "c.json", ABS_CONFIG)
    argv = {"run": ["run", "--config", str(tmp_path / "missing.json")],
            "check": ["check", "--trace", str(tmp_path / "missing.csv"), "--problem", cfg],
            "gen-lasso": ["gen-lasso", "--seed", "1", "--n", "4", "--m", "3",
                          "--out", str(tmp_path / "no-such-dir" / "inst.csv")]}[command]
    assert main(argv) == 1
    assert_one_error_line(capsys)


@pytest.mark.parametrize("command,policy,message", [
    ("run", {"kind": "family", "a": 2}, "policy: a must lie in [0, 1], got 2.0"),
    ("run", {"kind": "classic", "L": -1}, "policy: L must be positive and finite, got -1.0"),
    ("run", {"kind": "constant", "L": 0}, "policy: L must be positive and finite, got 0.0"),
    ("check", {"kind": "family", "a": 2}, "header.policy: a must lie in [0, 1], got 2.0"),
], ids=["run-family-a", "run-classic-L", "run-constant-L", "check-family-a"])
def test_policy_value_the_rule_rejects_names_the_policy(tmp_path, capsys, command, policy,
                                                        message):
    if command == "run":
        cfg = write_config(tmp_path / "c.json", dict(ABS_CONFIG, policy=policy))
        argv = ["run", "--config", cfg, "--out-dir", str(tmp_path / "out")]
    else:  # a trace whose header holds the policy
        cfg = write_config(tmp_path / "c.json", ABS_CONFIG)
        assert main(["run", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
        meta, columns = read_trace(tmp_path / "trace.csv")
        emit_trace(columns, tmp_path / "bad.csv", meta | {"policy": policy})
        argv = ["check", "--trace", str(tmp_path / "bad.csv"), "--problem", cfg]
    files = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    assert main(argv) == 1
    assert_one_error_line(capsys, f"error: {message}\n")
    assert sorted(tmp_path.rglob("*")) == files


class TestNegativeSeed:
    """numpy's generator raises ValueError on a negative seed; each route stops before it.

    The random start's seed is a row of test_malformed_numbers_name_the_field.
    """

    def test_lasso_problem_in_run_and_check(self, tmp_path, capsys):
        lasso = {"problem": {"kind": "lasso", "seed": 1, "n": 4, "m": 3},
                 "policy": {"kind": "family"}, "iterations": 5, "trace_path": "trace.csv"}
        cfg = write_config(tmp_path / "c.json", lasso)
        assert main(["run", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
        lasso["problem"]["seed"] = -3
        bad = write_config(tmp_path / "bad.json", lasso)
        capsys.readouterr()
        assert main(["run", "--config", bad, "--out-dir", str(tmp_path)]) == 1
        assert_one_error_line(capsys, "error: seed must be >= 0, got -3")
        assert main(["check", "--trace", str(tmp_path / "trace.csv"), "--problem", bad]) == 1
        assert_one_error_line(capsys, "error: seed must be >= 0, got -3")

    def test_gen_lasso(self, tmp_path, capsys):
        out = tmp_path / "inst.csv"
        assert main(["gen-lasso", "--seed", "-1", "--n", "4", "--m", "3",
                     "--out", str(out)]) == 1
        assert_one_error_line(capsys, "error: seed must be >= 0, got -1")
        assert not out.exists()


def corrupt(trace, tmp_path, column, row, change):
    """Copy of `trace` with `change` applied to one entry (`row` counts from 0)."""
    header, names, *rows = trace.read_text().splitlines()
    j = names.split(",").index(column)
    cells = rows[row].split(",")
    cells[j] = change(cells[j])
    rows[row] = ",".join(cells)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join([header, names, *rows]) + "\n")
    return bad


class TestCheckCommand:
    @pytest.fixture()
    def restarted_outputs(self, tmp_path):
        # f(x) = -sqrt(x): the norm maximum keeps growing and trips restarts
        cfg = write_config(tmp_path / "c.json", {
            "problem": {"kind": "sqrt-example"},
            "policy": {"kind": "family", "a": 0.0},
            "weight_ks": [-1.0, 0.0, 2.0],
            "iterations": 300,
            "initial_point": [0.9],
            "restart_factor": 2.0,
            "trace_path": "trace.csv",
        })
        assert main(["run", "--config", cfg, "--out-dir", str(tmp_path), "--strict"]) == 0
        trace = tmp_path / "trace.csv"
        assert read_trace_csv(trace)[1]["epoch"][-1] >= 2
        return trace, cfg

    @pytest.fixture()
    def run_outputs(self, tmp_path):
        data = dict(ABS_CONFIG, iterations=60, weight_ks=[-1.0, 0.0, 2.0],
                    initial_point=[0.7])
        cfg = write_config(tmp_path / "c.json", data)
        main(["run", "--config", cfg, "--out-dir", str(tmp_path)])
        problem_json = tmp_path / "problem.json"
        problem_json.write_text(json.dumps({"kind": "abs", "dim": 1}))
        return tmp_path / "trace.csv", problem_json

    def test_valid_trace_passes(self, run_outputs, capsys):
        trace, problem = run_outputs
        assert main(["check", "--trace", str(trace), "--problem", str(problem),
                     "--strict"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "PASS family\n" in out

    def test_corrupted_trace_fails_strict(self, run_outputs, tmp_path):
        trace, problem = run_outputs
        bad = corrupt(trace, tmp_path, "f_best", 1, lambda v: "-5.0")
        assert main(["check", "--trace", str(bad), "--problem", str(problem)]) == 0
        assert main(["check", "--trace", str(bad), "--problem", str(problem),
                     "--strict"]) == 3

    @pytest.mark.parametrize("column", ["bound_family", "bound_weak_k-1", "bound_weak_k2"])
    def test_scaled_bound_entry_fails_strict(self, run_outputs, tmp_path, capsys, column):
        trace, problem = run_outputs
        bad = corrupt(trace, tmp_path, column, 30, lambda v: repr(float(v) * (1 + 1e-6)))
        assert main(["check", "--trace", str(bad), "--problem", str(problem),
                     "--strict"]) == 3
        assert f"FAIL {column}_recomputed" in capsys.readouterr().out

    def test_restarted_trace_passes(self, restarted_outputs, capsys):
        trace, config = restarted_outputs
        assert main(["check", "--trace", str(trace), "--problem", str(config),
                     "--strict"]) == 0
        out = capsys.readouterr().out
        for label in ("family", "weak_k-1", "weak_k0", "weak_k2", "monotone_k-1"):
            assert f"PASS {label}\n" in out

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("step", ["0", "-0.5", "inf", "nan"])
    def test_invalid_step_fails_strict_without_a_warning(self, restarted_outputs, tmp_path,
                                                         capsys, step):
        trace, config = restarted_outputs
        bad = corrupt(trace, tmp_path, "eta", 100, lambda v: step)
        capsys.readouterr()
        assert main(["check", "--trace", str(bad), "--problem", str(config),
                     "--strict"]) == 3
        captured = capsys.readouterr()
        assert captured.err == ""
        lines = captured.out.splitlines()
        assert all(line.startswith(("PASS ", "FAIL ")) for line in lines)
        assert "FAIL eta_positive" in lines
        for k in ("-1", "0", "2"):
            assert f"FAIL monotone_k{k} (refuted)" in lines

    @pytest.mark.parametrize("shift", [-1, 1])
    def test_moved_epoch_boundary_fails_strict(self, restarted_outputs, tmp_path, shift):
        trace, config = restarted_outputs
        epochs = read_trace_csv(trace)[1]["epoch"]
        first = int(np.flatnonzero(np.diff(epochs))[1]) + 1  # first row of epoch 2
        row = first - 1 if shift < 0 else first  # the row that changes epoch
        bad = corrupt(trace, tmp_path, "epoch", row, lambda v: str(int(v) - shift))
        assert main(["check", "--trace", str(bad), "--problem", str(config),
                     "--strict"]) == 3

    @pytest.mark.parametrize("change", [{}, {"seed": 7, "lambda": 0.5}],
                             ids=["same-problem", "seed7-lambda0.5"])
    def test_trace_of_another_problem_is_an_input_error(self, tmp_path, capsys, change):
        # the desk family trace checked against a Lasso of the same n and
        # radius: its bounds and bracket would pass, but the header names its problem
        desk = pathlib.Path(__file__).resolve().parent.parent / "configs" / "lasso_desk.json"
        assert main(["run", "--config", str(desk), "--out-dir", str(tmp_path), "--strict"]) == 0
        data = json.loads(desk.read_text())
        cfg = write_config(tmp_path / "c.json", dict(data, problem=data["problem"] | change))
        trace = tmp_path / "lasso_desk_trace__0_family_a1.npz"
        capsys.readouterr()
        code = main(["check", "--strict", "--trace", str(trace), "--problem", cfg])
        if change:
            assert code == 1
            assert_one_error_line(capsys, "error: problem: differs from the header.problem of ")
        else:
            assert code == 0 and "FAIL" not in capsys.readouterr().out

    def test_trace_without_its_problem_is_an_input_error(self, run_outputs, tmp_path, capsys):
        # a trace written before headers named their problem
        trace, problem = run_outputs
        meta, columns = read_trace(trace)
        del meta["problem"]
        emit_trace(columns, tmp_path / "old.csv", meta)
        capsys.readouterr()
        assert main(["check", "--trace", str(tmp_path / "old.csv"), "--problem", str(problem),
                     "--strict"]) == 1
        assert_one_error_line(capsys, "error: header.problem: expected an object")

    def test_restart_without_restart_factor_fails_strict(self, run_outputs, tmp_path, capsys):
        # the header's restart_factor is null, so the run had one epoch; a
        # restart forged from mid-run, its bound columns recomputed to match,
        # fails on the epochs alone
        trace, problem_json = run_outputs
        meta, columns = read_trace(trace)
        assert meta["restart_factor"] is None and not columns["epoch"].any()
        columns["epoch"][30:] = 1.0
        problem = make_abs_problem(1)
        bounds, _, _ = evaluate(FamilyPolicy(R=problem.radius_R), (-1.0, 0.0, 2.0),
                                problem.radius_R, problem.lipschitz_L, columns)
        columns.update((f"bound_{label}", column) for label, column in bounds.items())
        bad = tmp_path / "bad.csv"
        emit_trace(columns, bad, meta)
        capsys.readouterr()
        assert main(["check", "--trace", str(bad), "--problem", str(problem_json),
                     "--strict"]) == 3
        lines = capsys.readouterr().out.splitlines()
        assert "FAIL epoch_counts_restarts" in lines
        assert [line for line in lines if "_recomputed" in line] == [
            f"PASS bound_{label}_recomputed" for label in bounds]

    def test_crossed_bracket_in_header_fails_strict(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", {
            "problem": {"kind": "lasso", "seed": 1, "n": 8, "m": 6,
                        "radius": 5.0, "lambda": 1.0},
            "policy": {"kind": "family"},
            "iterations": 50,
            "trace_path": "trace.csv",
        })
        assert main(["run", "--config", cfg, "--out-dir", str(tmp_path), "--strict"]) == 0
        trace = tmp_path / "trace.csv"
        assert main(["check", "--trace", str(trace), "--problem", cfg, "--strict"]) == 0
        # c_sum raised until the low end that check derives exceeds the final f_best
        meta, columns = read_trace_csv(trace)
        problem, high = build_problem(load_config(cfg).problem), columns["f_best"][-1]
        sums = meta["minorant_sums"]
        sums["c_sum"] += sums["count"] * (high - bracket(problem, sums, high)[0] + 1.0)
        assert bracket(problem, sums, high)[0] > high
        bad = tmp_path / "bad.csv"
        emit_trace_csv(columns, bad, meta)
        capsys.readouterr()
        assert main(["check", "--trace", str(bad), "--problem", cfg, "--strict"]) == 3
        out = capsys.readouterr().out
        for label in ("family", "weak_k0"):
            assert f"FAIL {label} (" in out

    def test_forged_averaged_values_fail_strict(self, tmp_path, capsys):
        # ROADMAP item 1's Lasso refutes weak_k0 and weak_k2. A forger adds
        # the columns of f at the averages that traces used to carry, every
        # entry at the bracket's low end: the verdicts read the value mean
        # of f_x, which the forgery leaves alone, so both stay refuted
        cfg = write_config(tmp_path / "c.json", {
            "problem": {"kind": "lasso", "seed": 38, "n": 8, "m": 5, "radius": 0.3,
                        "lambda": 0.05},
            "policy": {"kind": "family", "a": 1.0}, "weight_ks": [0.0, 2.0],
            "iterations": 300, "initial_point": [-1.0] * 8, "trace_path": "trace.csv"})
        assert main(["run", "--config", cfg, "--out-dir", str(tmp_path), "--strict"]) == 3
        meta, columns = read_trace_csv(tmp_path / "trace.csv")
        summary = json.loads((tmp_path / "summary.json").read_text())
        low = np.full(len(columns["s"]), summary["cells"][0]["optimum_bracket"]["low"])
        forged = {}
        for name, column in columns.items():
            if not name.startswith("f_avg_"):
                forged[name] = column
            if name == "f_best":
                forged.update(f_avg_k0=low, f_avg_k2=low)
        bad = tmp_path / "forged.csv"
        emit_trace_csv(forged, bad, meta)
        capsys.readouterr()
        assert main(["check", "--strict", "--trace", str(bad), "--problem", cfg]) == 3
        out = capsys.readouterr().out.splitlines()
        assert [line for line in out if line.startswith("FAIL")] == [
            "FAIL weak_k0 (refuted)", "FAIL weak_k2 (refuted)"]

    def test_falling_G_fails_strict(self, run_outputs, tmp_path, capsys):
        trace, problem = run_outputs
        bad = corrupt(trace, tmp_path, "G", 10, lambda v: repr(float(v) / 2))
        assert main(["check", "--trace", str(bad), "--problem", str(problem),
                     "--strict"]) == 3
        assert "FAIL G_nondecreasing" in capsys.readouterr().out

    @staticmethod
    def check_forged(trace, problem, tmp_path, capsys, forge):
        """The exit code and FAIL lines of ``psg check --strict`` on `trace` after `forge`."""
        meta, columns = read_trace_csv(trace)
        forge(meta, columns)
        bad = tmp_path / "forged.csv"
        emit_trace_csv(columns, bad, meta)
        capsys.readouterr()
        code = main(["check", "--trace", str(bad), "--problem", str(problem), "--strict"])
        return code, [line for line in capsys.readouterr().out.splitlines()
                      if line.startswith("FAIL")]

    def test_rewritten_s_fails_strict(self, run_outputs, tmp_path, capsys):
        # 2s + 7.5 still increases strictly; s must be 1..t
        trace, problem = run_outputs

        def forge(meta, columns):
            columns["s"] = 2.0 * columns["s"] + 7.5

        assert self.check_forged(trace, problem, tmp_path, capsys, forge) == (
            3, ["FAIL s_counts_1_to_t"])

    def test_untracked_G_of_a_family_trace_fails_strict(self, run_outputs, tmp_path, capsys):
        trace, problem = run_outputs

        def forge(meta, columns):
            columns["G"] = np.full(len(columns["G"]), np.nan)

        assert self.check_forged(trace, problem, tmp_path, capsys, forge) == (
            3, ["FAIL G_nondecreasing (within each epoch)"])

    def test_finite_G_of_a_nesterov_trace_fails_strict(self, tmp_path, capsys):
        # the rule tracks no G, so its trace's G must stay nan
        data = dict(ABS_CONFIG, policy={"kind": "nesterov"}, iterations=60,
                    weight_ks=[-1.0], initial_point=[0.7])
        cfg = write_config(tmp_path / "c.json", data)
        assert main(["run", "--config", cfg, "--out-dir", str(tmp_path), "--strict"]) == 0
        trace = tmp_path / "trace.csv"
        assert main(["check", "--trace", str(trace), "--problem", cfg, "--strict"]) == 0

        def forge(meta, columns):
            columns["G"] = np.maximum.accumulate(columns["g_norm"])

        assert self.check_forged(trace, cfg, tmp_path, capsys, forge) == (
            3, ["FAIL G_nondecreasing (not tracked)"])

    @pytest.fixture()
    def lasso_outputs(self, tmp_path):
        # a Lasso run brackets f* itself, and check from the header's minorant sums
        cfg = write_config(tmp_path / "c.json", {
            "problem": {"kind": "lasso", "seed": 1, "n": 8, "m": 6,
                        "radius": 5.0, "lambda": 1.0},
            "policy": {"kind": "family"},
            "iterations": 50,
            "trace_path": "trace.csv",
        })
        assert main(["run", "--config", cfg, "--out-dir", str(tmp_path), "--strict"]) == 0
        return tmp_path / "trace.csv", cfg

    @staticmethod
    def with_header(trace, tmp_path, change):
        """Copy of `trace` whose header object went through `change`."""
        header, rest = trace.read_text().split("\n", 1)
        meta = json.loads(header[2:])
        change(meta)
        bad = tmp_path / "bad.csv"
        bad.write_text("# " + json.dumps(meta) + "\n" + rest)
        return bad

    def test_raised_bracket_low_fails_strict(self, tmp_path, capsys):
        # ten iterations leave family and weak_k0 undecided; a header bracket
        # of older traces, its low end raised to its high end, would prove
        # both if check read it: check derives the bracket and ignores it
        cfg = write_config(tmp_path / "c.json", {
            "problem": {"kind": "lasso", "seed": 1, "n": 16, "m": 10},
            "policy": {"kind": "family"}, "weight_ks": [0.0], "iterations": 10,
            "trace_path": "trace.csv"})
        assert main(["run", "--config", cfg, "--out-dir", str(tmp_path), "--strict"]) == 3
        trace = tmp_path / "trace.csv"
        meta = read_trace_csv(trace)[0]
        assert meta["minorant_sums"]["count"] == 10
        assert len(meta["minorant_sums"]["g_sum"]) == 16
        capsys.readouterr()
        assert main(["check", "--trace", str(trace), "--problem", cfg, "--strict"]) == 3
        out = capsys.readouterr().out
        assert "FAIL family (undecided)" in out and "optimum_bracket" not in out

        def add_raised_bracket(meta):
            high = read_trace_csv(trace)[1]["f_best"][-1]
            meta["optimum_bracket"] = {"low": high, "high": high}

        bad = self.with_header(trace, tmp_path, add_raised_bracket)
        assert main(["check", "--trace", str(bad), "--problem", cfg, "--strict"]) == 3
        assert capsys.readouterr().out == out

    def test_missing_minorant_sums_fail_strict(self, lasso_outputs, tmp_path, capsys):
        trace, cfg = lasso_outputs
        bad = self.with_header(trace, tmp_path, lambda meta: meta.pop("minorant_sums"))
        capsys.readouterr()
        assert main(["check", "--trace", str(bad), "--problem", cfg, "--strict"]) == 3
        assert "FAIL family (undecided)" in capsys.readouterr().out

    def test_known_optimum_trace_has_no_minorant_sums(self, run_outputs, capsys):
        trace, problem = run_outputs
        assert "minorant_sums" not in read_trace_csv(trace)[0]
        assert main(["check", "--trace", str(trace), "--problem", str(problem),
                     "--strict"]) == 0
        assert "optimum_bracket_low" not in capsys.readouterr().out

    @pytest.mark.parametrize("field,value,where", [
        (None, [1.0], "header.minorant_sums: expected an object"),
        ("g_sum", [1.0, 2.0], "header.minorant_sums: g_sum does not fit the problem"),
        ("g_sum", None, "header.minorant_sums.g_sum: required field missing"),
        ("c_sum", "x", "header.minorant_sums.c_sum: expected a finite number"),
        ("count", 0, "header.minorant_sums: g_sum does not fit the problem, or count"),
        ("extra", 1, "header.minorant_sums.extra: unknown field"),
    ])
    def test_malformed_minorant_sums_are_an_input_error(self, lasso_outputs, tmp_path,
                                                        capsys, field, value, where):
        trace, cfg = lasso_outputs

        def damage(meta):
            if field is None:
                meta["minorant_sums"] = value
            else:
                meta["minorant_sums"][field] = value

        bad = self.with_header(trace, tmp_path, damage)
        capsys.readouterr()
        assert main(["check", "--trace", str(bad), "--problem", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {where}") and err.count("\n") == 1

    def test_trace_without_rows_is_one_error_line(self, run_outputs, tmp_path, capsys):
        trace, problem = run_outputs
        bad = tmp_path / "bad.csv"
        bad.write_text("".join(trace.read_text().splitlines(keepends=True)[:2]))
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["check", "--trace", str(bad), "--problem", str(problem)]) == 1
        assert caught == []
        assert capsys.readouterr().err == f"error: {bad}: expected rows of 11 columns\n"

    @pytest.mark.parametrize("damage", ["ragged", "headerless"])
    def test_malformed_trace_is_an_input_error(self, run_outputs, tmp_path, capsys, damage):
        trace, problem = run_outputs
        lines = trace.read_text().splitlines()
        if damage == "ragged":
            lines[5] = lines[5].rsplit(",", 1)[0]
        else:
            lines = lines[1:]
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        assert main(["check", "--trace", str(bad), "--problem", str(problem),
                     "--strict"]) == 1
        assert capsys.readouterr().err.startswith(f"error: {bad}: ")

    @pytest.mark.parametrize("damage,message", [
        ("column", "trace has no column G"),
        ("bounds", "trace has no column bound_family, bound_weak_k-1, bound_weak_k0,"
                   " bound_weak_k2"),
        ("header", "header.iterations: expected an integer, got None"),
        ("repeated", "header.weight_ks: expected distinct exponents, k=0 repeats"),
    ])
    def test_trace_no_run_writes_is_an_input_error(self, run_outputs, tmp_path, capsys,
                                                   damage, message):
        trace, problem = run_outputs
        meta, columns = read_trace_csv(trace)
        if damage == "column":
            del columns["G"]
        elif damage == "bounds":  # every column that psg check recomputes
            columns = {name: col for name, col in columns.items()
                       if not name.startswith("bound_")}
        elif damage == "repeated":
            meta["weight_ks"].append(0.0)
        else:
            del meta["iterations"]
        bad = tmp_path / "bad.csv"
        emit_trace_csv(columns, bad, meta)
        assert main(["check", "--trace", str(bad), "--problem", str(problem)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("field,value,message", [
        ("restart_factor", "abc", "restart_factor: expected a finite number, got 'abc'"),
        ("restart_factor", 0.5, "restart_factor: must exceed 1"),
        ("restart_factor", -3, "restart_factor: must exceed 1"),
        ("iterations", -5, "iterations: must be >= 1"),
    ])
    def test_header_run_length_is_read_as_in_a_config(self, tmp_path, capsys, field, value,
                                                      message):
        data = dict(ABS_CONFIG, iterations=20, initial_point=[0.7])
        with pytest.raises(ConfigError) as caught:
            parse_config(dict(data, **{field: value}))
        assert str(caught.value) == message
        cfg = write_config(tmp_path / "c.json", data)
        assert main(["run", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
        meta, columns = read_trace(tmp_path / "trace.csv")
        meta[field] = value
        bad = tmp_path / "bad.csv"
        emit_trace(columns, bad, meta)
        capsys.readouterr()
        assert main(["check", "--strict", "--trace", str(bad), "--problem", cfg]) == 1
        assert capsys.readouterr() == ("", f"error: header.{message}\n")

    def test_header_policy_error_names_the_header_field(self, tmp_path, capsys):
        # the Lasso declares no L, so a classic trace's header must carry it
        cfg = write_config(tmp_path / "c.json", {
            "problem": {"kind": "lasso", "seed": 1, "n": 8, "m": 6,
                        "radius": 5.0, "lambda": 1.0},
            "policy": {"kind": "classic", "L": 100.0},
            "iterations": 50,
            "trace_path": "trace.csv",
        })
        assert main(["run", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
        meta, columns = read_trace_csv(tmp_path / "trace.csv")
        del meta["policy"]["L"]
        bad = tmp_path / "bad.csv"
        emit_trace_csv(columns, bad, meta)
        capsys.readouterr()
        assert main(["check", "--trace", str(bad), "--problem", cfg]) == 1
        assert capsys.readouterr().err == (
            "error: header.policy.L: required for kind 'classic'"
            " (problem declares no Lipschitz bound)\n")

    def test_repeated_column_is_an_input_error(self, lasso_outputs, tmp_path, capsys):
        # f_x again, far below f*, before the run's columns: a reader that
        # kept one column per name would check the other and pass
        trace, cfg = lasso_outputs
        header, names, *rows = trace.read_text().splitlines()
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join([header, "f_x," + names, *("-1e300," + row for row in rows)])
                       + "\n")
        capsys.readouterr()
        assert main(["check", "--strict", "--trace", str(bad), "--problem", cfg]) == 1
        assert capsys.readouterr().err == f"error: {bad}: column f_x repeats\n"

    def test_accepts_full_config_as_problem_file(self, run_outputs, tmp_path):
        trace, _ = run_outputs
        full = tmp_path / "full.json"
        full.write_text(json.dumps(dict(ABS_CONFIG)))
        assert main(["check", "--trace", str(trace), "--problem", str(full)]) == 0

    def test_round_trip_through_csv_parser(self, run_outputs):
        trace, _ = run_outputs
        meta, columns = read_trace_csv(trace)
        assert meta["weight_ks"] == [-1.0, 0.0, 2.0]
        assert len(columns["s"]) > 0


@pytest.mark.parametrize("problem,L", [({"kind": "abs", "dim": 3}, None),
                                       ({"kind": "lasso", "seed": 3, "n": 6, "m": 8}, 60.0)],
                         ids=["abs", "lasso"])
@pytest.mark.parametrize("rule", ["family", "nesterov", "classic", "constant"])
def test_each_rule_writes_and_checks_its_own_bounds(tmp_path, capsys, problem, L, rule):
    # abs declares its Lipschitz bound, so every rule has its own bound there;
    # the Lasso declares none, so only the family rule's bounds hold for it
    ks = [-1.0, 0.0, 2.0]
    cfg = write_config(tmp_path / "c.json", {
        "problem": problem,
        "policy": {"kind": rule, "L": L} if rule in ("classic", "constant") else {"kind": rule},
        "weight_ks": ks, "iterations": 400, "initial_point": {"random": 0},
        "trace_path": "trace.csv"})
    assert main(["run", "--config", cfg, "--out-dir", str(tmp_path), "--strict"]) == 0
    config = load_config(cfg)
    built = build_problem(config.problem)
    policy = build_policy(config.policy[0], built, config.iterations, "policy")
    labels = policy.bound_labels(ks, built.lipschitz_L)
    if rule == "family":
        assert labels == ["family", "weak_k-1", "weak_k0", "weak_k2"]
    else:
        assert labels == ([rule] if L is None else [])

    meta, columns = read_trace_csv(tmp_path / "trace.csv")
    assert [name for name in columns if name.startswith("bound_")] == [
        f"bound_{label}" for label in labels]
    cell = json.loads((tmp_path / "summary.json").read_text())["cells"][0]
    assert sorted(cell["bounds"]) == sorted(labels)
    gap = [name for name in cell["certificates"]
           if name != "per_step" and not name.startswith("monotone_")]
    assert gap == [c.label for c in policy.certificates(ks, built.lipschitz_L)]
    assert set(gap) <= set(labels)

    capsys.readouterr()
    assert main(["check", "--strict", "--trace", str(tmp_path / "trace.csv"),
                 "--problem", cfg]) == 0
    recomputed = [line for line in capsys.readouterr().out.splitlines() if "bound_" in line]
    assert recomputed == [f"PASS bound_{label}_recomputed" for label in labels]
    for label in labels:
        dropped = tmp_path / "dropped.csv"
        emit_trace_csv({name: col for name, col in columns.items()
                        if name != f"bound_{label}"}, dropped, meta)
        assert main(["check", "--trace", str(dropped), "--problem", cfg]) == 1
        assert capsys.readouterr().err == f"error: trace has no column bound_{label}\n"


@pytest.mark.parametrize("L", [100.0, 0.01])
def test_lipschitz_rules_at_another_L_run_uncertified(tmp_path, capsys, L):
    # the classic and constant bounds hold for the L the step divides by, not
    # for the problem's sqrt(3): the cells write no bound and prove nothing
    cfg = write_config(tmp_path / "c.json", {
        "problem": {"kind": "abs", "dim": 3},
        "policy": [{"kind": "classic", "L": L}, {"kind": "constant", "L": L}],
        "weight_ks": [0.0], "iterations": 500, "initial_point": [0.7, -0.4, 0.2],
        "trace_path": "trace.csv"})
    assert main(["run", "--config", cfg, "--out-dir", str(tmp_path), "--strict"]) == 0
    for cell in json.loads((tmp_path / "summary.json").read_text())["cells"]:
        assert cell["bounds"] == {} and cell["undecided"] == []
    for name in ("trace__0_classic.csv", "trace__1_constant.csv"):
        _, columns = read_trace_csv(tmp_path / name)
        assert not [column for column in columns if column.startswith("bound_")]
        capsys.readouterr()
        assert main(["check", "--strict", "--trace", str(tmp_path / name),
                     "--problem", cfg]) == 0
        assert "FAIL" not in capsys.readouterr().out


@pytest.mark.parametrize("case", ["restarted", "nesterov", "family"])
def test_read_trace_csv_returns_the_emitted_columns(tmp_path, case):
    # every case tracks k = -0.5, which only the family rule bounds; nesterov
    # tracks no G, which is written as nan
    if case == "restarted":
        problem, x1, policy = make_sqrt_example(), [0.9], FamilyPolicy(R=1.0, a=0.0)
    else:
        problem, x1 = make_abs_problem(2), [0.7, -0.4]
        policy = NesterovPolicy(R=2.0) if case == "nesterov" else FamilyPolicy(R=2.0, a=0.5)
    ks = (-1.0, -0.5, 2.0)
    _, trace = run(problem, SolverConfig(
        max_iterations=300, initial_point=np.array(x1), policy=policy, weight_ks=ks,
        restart_factor=2.0 if case == "restarted" else None))
    assert (trace["epoch"][-1] >= 2) == (case == "restarted")
    assert np.all(np.isnan(trace["G"])) == (case == "nesterov")
    # nesterov writes its own bound (abs declares L) and none of the family rule's
    assert ("bound_weak_k-0.5" in trace) == (case != "nesterov")
    assert ("bound_nesterov" in trace) == (case == "nesterov")
    path, again = tmp_path / "t.csv", tmp_path / "again.csv"
    emit_trace_csv(trace, path, {"weight_ks": list(ks)})
    meta, columns = read_trace_csv(path)
    assert meta == {"weight_ks": list(ks)}
    assert list(columns) == list(trace)
    for name, col in trace.items():
        assert np.array_equal(columns[name], col, equal_nan=True), name
    emit_trace_csv(columns, again, meta)
    assert again.read_bytes() == path.read_bytes()


@pytest.mark.parametrize("rows", [CSV_CHUNK_ROWS - 1, CSV_CHUNK_ROWS, CSV_CHUNK_ROWS + 1,
                                  2 * CSV_CHUNK_ROWS + 1])
def test_emit_trace_csv_writes_savetxt_bytes_across_chunks(tmp_path, rows):
    rng = np.random.default_rng(rows)
    # integers, nan, -0.0 and floats at both ends of the range, as %.17g writes them
    trace = {"s": np.arange(1.0, rows + 1.0), "epoch": np.arange(rows) // 100.0,
             "G": np.full(rows, np.nan), "f_x": rng.standard_normal(rows) * 1e-300,
             "bound_weak_k2": rng.standard_normal(rows) * 1e300}
    trace["f_x"][::7] = -0.0
    path, again = tmp_path / "t.csv", tmp_path / "again.csv"
    emit_trace_csv(trace, path, {"weight_ks": [2.0]})
    reference = io.StringIO()
    np.savetxt(reference, np.column_stack(list(trace.values())), fmt="%.17g", delimiter=",")
    head = '# {"weight_ks": [2.0]}\n' + ",".join(trace) + "\n"
    assert path.read_text(encoding="utf-8") == head + reference.getvalue()
    meta, columns = read_trace_csv(path)
    emit_trace_csv(columns, again, meta)
    assert again.read_bytes() == path.read_bytes()


@pytest.mark.parametrize("trace", [{}, {"s": np.array([]), "eta": np.array([])},
                                   {"s": np.ones(3), "eta": np.ones(2)},
                                   {"s": np.ones((3, 2))}],
                         ids=["no-columns", "no-rows", "ragged", "2d"])
@pytest.mark.parametrize("write,name", [(emit_trace, "x.csv"), (emit_trace, "x.npz"),
                                        (emit_trace_csv, "x.csv")],
                         ids=["emit_trace-csv", "emit_trace-npz", "emit_trace_csv"])
def test_trace_writers_refuse_what_they_cannot_read(tmp_path, write, name, trace):
    # each writer checks the columns before it opens its file
    with pytest.raises(InvalidParameterError):
        write(trace, tmp_path / name, {})
    assert not (tmp_path / name).exists()


# Configs that run once with a .npz and once with a .csv trace path.
NPZ_CONFIGS = {
    # every rule on a problem that declares L
    "abs_rules": {"problem": {"kind": "abs", "dim": 3},
                  "policy": [{"kind": "nesterov"}, {"kind": "classic"}, {"kind": "constant"},
                             {"kind": "family"}],
                  "weight_ks": [-1.0, 0.0, 0.5], "iterations": 500,
                  "initial_point": [0.7, -0.4, 0.2]},
    # the weights of k = -0.5, 1 and 3 are sqrt and product powers, and
    # monotone_k<k> is decided on the weights the run averages with
    "abs_half_powers": {"problem": {"kind": "abs", "dim": 3},
                        "policy": [{"kind": "family", "a": 0.5}, {"kind": "nesterov"}],
                        "weight_ks": [-0.5, 1.0, 3.0], "iterations": 3000,
                        "initial_point": [0.7, -0.4, 0.2]},
    # 8,000 iterations fill a whole 4,096-row block inside one epoch
    "restarted": {"problem": {"kind": "sqrt-example"}, "policy": {"kind": "family", "a": 0.0},
                  "weight_ks": [-1.0, 0.0, 2.0], "iterations": 8000, "initial_point": [0.9],
                  "restart_factor": 2.0},
    "lasso": {"problem": {"kind": "lasso", "seed": 1, "n": 8, "m": 6,
                          "radius": 5.0, "lambda": 1.0},
              "policy": [{"kind": "family"}, {"kind": "nesterov"}],
              "weight_ks": [-1.0, 0.0, 2.0], "iterations": 200},
}


CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"

# psg as a fresh process runs it, with its arguments after -c
PSG = "import sys; from psg.cli import main; sys.exit(main(sys.argv[1:]))"


@pytest.mark.parametrize("name", sorted(path.name for path in CONFIGS.glob("*.json"))
                         + sorted(NPZ_CONFIGS))
def test_check_derives_the_bracket_of_the_summary(tmp_path, name):
    # bounds.bracket of each trace's minorant sums and final f_best, as psg
    # check forms it, is its summary cell's bracket bit for bit; known f* included
    data = (dict(NPZ_CONFIGS[name], trace_path="trace.npz") if name in NPZ_CONFIGS
            else json.loads((CONFIGS / name).read_text()))
    config = parse_config(data)
    problem = build_problem(config.problem)
    for cell in run_experiment(config, out_dir=str(tmp_path))["cells"]:
        meta, columns = read_trace(cell["trace_path"])
        derived = bracket(problem, meta.get("minorant_sums"), columns["f_best"][-1])
        # none for a cell without gap certificates: nesterov on a Lasso, which has no L
        expected = cell["optimum_bracket"] and (cell["optimum_bracket"]["low"],
                                                cell["optimum_bracket"]["high"])
        assert "optimum_bracket" not in meta
        assert (derived and [float(end).hex() for end in derived]) == (
            expected and [end.hex() for end in expected])


def _save_npz(path, **entries):
    with open(path, "wb") as fh:
        np.savez(fh, **entries)


def _members(meta, trace, **change):
    """The three members of the .npz trace of `meta` and `trace`, `change` replacing some."""
    return {"header": np.array(json.dumps(meta)), "names": np.array(list(trace)),
            "columns": np.stack(list(trace.values()))} | change


def _save_members(meta, trace, bad, **change):
    _save_npz(bad, **_members(meta, trace, **change))


def _append_member(path, name, array):
    with warnings.catch_warnings():  # zipfile warns of a repeated name
        warnings.simplefilter("ignore", UserWarning)
        with zipfile.ZipFile(path, "a") as zf, zf.open(name, "w") as fh:
            np.lib.format.write_array(fh, array)


def _flip_a_byte(good, bad, meta, columns):
    data = bytearray(good.read_bytes())
    data[data.find(columns["eta"].tobytes()) + 8] ^= 1  # the CRC of columns.npy no longer matches
    bad.write_bytes(bytes(data))


def _npy_file(good, bad, meta, columns):
    with open(bad, "wb") as fh:  # np.save would append .npy to the name
        np.save(fh, columns["s"])


def _non_npy_member(good, bad, meta, columns):
    bad.write_bytes(good.read_bytes())
    with zipfile.ZipFile(bad, "a") as zf:
        zf.writestr("notes.txt", "not an array")


def _repeated_column(good, bad, meta, columns):
    # f_x again, far below f*: a reader that kept one column per name would pass
    names, matrix = list(columns) + ["f_x"], np.stack([*columns.values(), columns["f_x"] - 1e300])
    _save_members(meta, columns, bad, names=np.array(names), columns=matrix)


MEMBERS = "expected the members header.npy, names.npy, columns.npy, got"
MATRIX = ("expected names, a 1-D str array, and columns, a float64 matrix with one nonempty row"
          " per name")

# damage(good, bad, meta, columns) writes `bad` from the trace `good`, and the
# error line names `bad` and then says `message`
MALFORMED_NPZ = {
    "truncated": (lambda good, bad, meta, columns: bad.write_bytes(
        good.read_bytes()[:good.stat().st_size // 2]), "not a NumPy zip of arrays"),
    "empty": (lambda good, bad, meta, columns: bad.write_bytes(b""),
              "not a NumPy zip of arrays"),
    "csv": (lambda good, bad, meta, columns: emit_trace_csv(columns, bad, meta),
            "not a NumPy zip of arrays"),
    "npy": (_npy_file, "not a NumPy zip of arrays"),
    "bad-crc": (_flip_a_byte, "not a NumPy zip of arrays (Bad CRC-32 for file 'columns.npy'"),
    "object-column": (lambda good, bad, meta, columns: _save_members(
        meta, columns, bad, columns=np.stack(list(columns.values())).astype(object)),
        "not a NumPy zip of arrays (Object arrays cannot be loaded"),
    "no-header": (lambda good, bad, meta, columns: _save_npz(
        bad, names=np.array(list(columns)), columns=np.stack(list(columns.values()))),
        f"{MEMBERS} names.npy, columns.npy"),
    "header-1d": (lambda good, bad, meta, columns: _save_members(
        meta, columns, bad, header=np.array([json.dumps(meta)])),
        "expected header, a 0-d str array"),
    "header-number": (lambda good, bad, meta, columns: _save_members(
        meta, columns, bad, header=np.array(1.0)), "expected header, a 0-d str array"),
    "header-twice": (lambda good, bad, meta, columns: (
        bad.write_bytes(good.read_bytes()),
        _append_member(bad, "header.npy", np.array(json.dumps(meta)))),
        f"{MEMBERS} header.npy, names.npy, columns.npy, header.npy"),
    "header-list": (lambda good, bad, meta, columns: _save_members(
        meta, columns, bad, header=np.array("[1, 2]")), "header: expected a JSON object"),
    "header-json": (lambda good, bad, meta, columns: _save_members(
        meta, columns, bad, header=np.array("{nope")), "header: Expecting property name"),
    "int-column": (lambda good, bad, meta, columns: _save_members(
        meta, columns, bad, columns=np.stack(list(columns.values())).astype(int)), MATRIX),
    "2d-column": (lambda good, bad, meta, columns: _save_members(
        meta, columns, bad, columns=np.stack(list(columns.values()))[:, :, None]), MATRIX),
    "float-names": (lambda good, bad, meta, columns: _save_members(
        meta, columns, bad, names=np.arange(float(len(columns)))), MATRIX),
    "non-npy-member": (_non_npy_member,
                       f"{MEMBERS} header.npy, names.npy, columns.npy, notes.txt"),
    "unequal-lengths": (lambda good, bad, meta, columns: _save_members(
        meta, columns, bad, names=np.array(list(columns)[:-1])), MATRIX),
    "no-rows": (lambda good, bad, meta, columns: _save_members(
        meta, columns, bad, columns=np.stack(list(columns.values()))[:, :0]), MATRIX),
    "no-columns": (lambda good, bad, meta, columns: _save_members(
        meta, columns, bad, names=np.array([], dtype=str),
        columns=np.empty((0, len(columns["s"])))), MATRIX),
    "repeated-column": (_repeated_column, "column f_x repeats"),
    # the older layout: the header, then one 1-D member per column
    "per-column": (lambda good, bad, meta, columns: _save_npz(
        bad, header=np.array(json.dumps(meta)), **columns),
        f"{MEMBERS} header.npy, s.npy, epoch.npy, eta.npy"),
}


class TestNpzTrace:
    @pytest.mark.parametrize("name", sorted(NPZ_CONFIGS))
    def test_npz_trace_holds_the_bits_of_the_csv_trace(self, tmp_path, capsys, name):
        runs = {}
        for suffix in ("npz", "csv"):
            cfg = write_config(tmp_path / f"{suffix}.json",
                               dict(NPZ_CONFIGS[name], trace_path=f"trace.{suffix}"))
            out = tmp_path / suffix
            assert main(["run", "--config", cfg, "--out-dir", str(out), "--strict"]) == 0
            runs[suffix] = cfg, json.loads((out / "summary.json").read_text())
        (npz_cfg, npz_summary), (csv_cfg, csv_summary) = runs["npz"], runs["csv"]
        assert npz_summary["config"].pop("trace_path") == "trace.npz"
        assert csv_summary["config"].pop("trace_path") == "trace.csv"
        for npz_cell, csv_cell in zip(npz_summary["cells"], csv_summary["cells"]):
            npz_trace, csv_trace = npz_cell.pop("trace_path"), csv_cell.pop("trace_path")
            assert npz_trace == csv_trace.replace("/csv/", "/npz/")[:-3] + "npz"
            meta, columns = read_trace(npz_trace)
            csv_meta, csv_columns = read_trace_csv(csv_trace)
            assert meta == csv_meta and list(columns) == list(csv_columns)
            for column, col in csv_columns.items():  # every bit, nan included
                assert columns[column].dtype == np.float64
                assert np.array_equal(columns[column].view(np.int64), col.view(np.int64))
            # only the family rule tracks G; the others write it as nan
            assert np.all(np.isnan(columns["G"])) != npz_cell["policy"].startswith("family")
            converted = tmp_path / "converted.csv"
            emit_trace_csv(columns, converted, meta)
            assert converted.read_bytes() == pathlib.Path(csv_trace).read_bytes()
            checked = []
            for trace, cfg in ((npz_trace, npz_cfg), (csv_trace, csv_cfg)):
                capsys.readouterr()
                assert main(["check", "--strict", "--trace", trace, "--problem", cfg]) == 0
                checked.append(capsys.readouterr().out)
            assert checked[0] == checked[1] and "PASS" in checked[0]
        assert npz_summary == csv_summary

    def test_reruns_write_identical_npz_bytes(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", dict(NPZ_CONFIGS["lasso"], trace_path="t.npz"))
        for out in ("first", "second"):
            assert main(["run", "--config", cfg, "--out-dir", str(tmp_path / out)]) == 0
        # several cells keep the .npz suffix in their derived names
        names = ["summary.json", "t__0_family_a1.npz", "t__1_nesterov.npz"]
        assert sorted(p.name for p in (tmp_path / "first").iterdir()) == names
        cells = json.loads((tmp_path / "first" / "summary.json").read_text())["cells"]
        assert [cell["trace_path"] for cell in cells] == [
            str(tmp_path / "first" / name) for name in names[1:]]
        for name in names[1:]:
            assert (tmp_path / "second" / name).read_bytes() == (
                tmp_path / "first" / name).read_bytes()
        trace = tmp_path / "first" / names[1]
        with zipfile.ZipFile(trace) as zf:
            infos = zf.infolist()
        assert [info.filename for info in infos] == ["header.npy", "names.npy", "columns.npy"]
        assert {(info.date_time, info.compress_type) for info in infos} == {
            ((1980, 1, 1, 0, 0, 0), zipfile.ZIP_STORED)}
        # the bytes of np.savez of the header, the names and the stacked
        # columns, each column read back as a contiguous row of one matrix
        meta, columns = read_trace(trace)
        _save_members(meta, columns, tmp_path / "savez.npz")
        assert (tmp_path / "savez.npz").read_bytes() == trace.read_bytes()
        rows = list(columns.values())
        assert all(col.flags.c_contiguous and col.base is rows[0].base for col in rows)

    @pytest.fixture()
    def npz_outputs(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", dict(
            NPZ_CONFIGS["lasso"], policy={"kind": "family"}, trace_path="trace.npz"))
        assert main(["run", "--config", cfg, "--out-dir", str(tmp_path), "--strict"]) == 0
        return tmp_path / "trace.npz", cfg

    @pytest.mark.parametrize("damage", sorted(MALFORMED_NPZ))
    def test_malformed_npz_is_one_error_line(self, npz_outputs, tmp_path, capsys, damage):
        good, cfg = npz_outputs
        write, message = MALFORMED_NPZ[damage]
        bad = tmp_path / "bad.npz"
        write(good, bad, *read_trace(good))
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["check", "--strict", "--trace", str(bad), "--problem", cfg]) == 1
        assert caught == []
        assert_one_error_line(capsys, f"error: {bad}: {message}")


def _main_in_process(capsys, args) -> tuple:
    try:
        code = main(args)
    except SystemExit as exc:  # argparse's usage error
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def test_one_process_answers_each_command_as_a_fresh_one(tmp_path, monkeypatch, capsys):
    # main parses with one parser per process: a run, a check, a usage error
    # and an input error in one process print and exit as each command does
    # in a fresh psg process
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage line to the terminal
    cfg = write_config(tmp_path / "c.json", dict(ABS_CONFIG, trace_path="trace.npz"))
    trace, missing = str(tmp_path / "trace.npz"), str(tmp_path / "missing.npz")
    commands = [["run", "--config", cfg, "--out-dir", str(tmp_path)],
                ["check", "--trace", trace, "--problem", cfg],
                ["check", "--trace", trace],
                ["check", "--trace", missing, "--problem", cfg],
                ["check", "--strict", "--trace", trace, "--problem", cfg]]
    capsys.readouterr()
    in_process = [_main_in_process(capsys, args) for args in commands]
    env = dict(os.environ, PYTHONPATH=str(CONFIGS.parent / "src"))
    fresh = [subprocess.run([sys.executable, "-c", PSG, *args], env=env, capture_output=True,
                            text=True) for args in commands]
    assert in_process == [(done.returncode, done.stdout, done.stderr) for done in fresh]
    assert [code for code, _, _ in in_process] == [0, 0, 2, 1, 0]
    assert in_process[1][1].startswith("PASS ") and in_process[1] == in_process[4]


def test_run_experiment_returns_summary_dict(tmp_path):
    config = parse_config({
        "problem": {"kind": "abs", "dim": 1},
        "policy": {"kind": "family"},
        "iterations": 5,
        "initial_point": [0.5],
        "summary_path": "s.json",
    })
    summary = run_experiment(config, out_dir=str(tmp_path))
    assert summary["cells"][0]["status"] == "ok"
    assert summary["config"]["problem"] == {"kind": "abs", "dim": 1}


def test_shipped_desk_config_runs_clean(tmp_path):
    # the desk-scale benchmark config is the CI target; the full-scale one
    # is shipped for manual runs only
    import pathlib

    cfg = pathlib.Path(__file__).resolve().parent.parent / "configs" / "lasso_desk.json"
    assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path),
                 "--strict"]) == 0
    summary = json.loads((tmp_path / "lasso_desk_summary.json").read_text())
    assert {c["policy"] for c in summary["cells"]} == {"family_a1", "nesterov"}
    assert all(c["status"] == "ok" for c in summary["cells"])
    trace_files = [c["trace_path"] for c in summary["cells"]]
    assert all(f and pathlib.Path(f).exists() for f in trace_files)
    fam = next(c for c in summary["cells"] if c["policy"] == "family_a1")
    assert fam["optimum_bracket"]["low"] <= fam["best_value"]
    for cell in summary["cells"]:
        assert cell["certificates"] and all(cell["certificates"].values())
        assert cell["undecided"] == []
    assert set(fam["certificates"]) == {"family", "weak_k-1", "weak_k0", "weak_k2",
                                        "monotone_k-1", "monotone_k0", "monotone_k2"}


def _reject_constant(name):
    raise ValueError(f"nonstandard JSON constant {name}")


SHIPPED_CONFIGS = ["abs_quick.json", "lasso_desk.json", "lasso_full.json", "sweep_a.json"]


@pytest.mark.parametrize("name", ["edge"] + SHIPPED_CONFIGS)
def test_summary_is_strict_json(tmp_path, name):
    import pathlib

    if name == "edge":
        # stops at s=1 on an empty subdifferential: no finite best value
        cfg = write_config(tmp_path / "c.json", {
            "problem": {"kind": "sqrt-example"},
            "policy": {"kind": "family"},
            "iterations": 10,
            "initial_point": [0.0],
        })
        summary_name = "summary.json"
    else:
        cfg = pathlib.Path(__file__).resolve().parent.parent / "configs" / name
        summary_name = json.loads(cfg.read_text())["summary_path"]
    assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / summary_name).read_text(),
                         parse_constant=_reject_constant)
    if name == "edge":
        assert summary["cells"][0]["best_value"] is None
        assert summary["cells"][0]["stop_reason"] == "empty-subdifferential"
