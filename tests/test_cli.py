import dataclasses
import json

import numpy as np
import pytest

from psg import generate_lasso, load_lasso_csv
from psg.cli import (
    ConfigError,
    build_problem,
    config_to_dict,
    emit_trace_csv,
    load_config,
    main,
    parse_config,
    read_trace_csv,
    resolve_initial_point,
    run_experiment,
)


def write_config(path, data):
    path.write_text(json.dumps(data, indent=1))
    return str(path)


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
        assert len(config.policies) == 1
        assert config.policies[0].kind == "family"

    @pytest.mark.parametrize("mutate,field", [
        (lambda d: d.pop("problem"), "problem"),
        (lambda d: d.pop("iterations"), "iterations"),
        (lambda d: d.update(problem={"kind": "nope"}), "problem.kind"),
        (lambda d: d.update(weight_ks=[-3.0]), "weight_ks"),
        (lambda d: d.update(policy={"kind": "warp"}), "policy.kind"),
        (lambda d: d.update(restart_factor=0.5), "restart_factor"),
        (lambda d: d.update(unexpected=1), "unexpected"),
        (lambda d: d.update(problem={"kind": "abs"}), "problem.dim"),
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

    def test_reference_iterations_is_an_unknown_field(self, tmp_path):
        data = dict(ABS_CONFIG, reference_iterations=20000)
        with pytest.raises(ConfigError, match="reference_iterations: unknown field"):
            parse_config(data)
        cfg = write_config(tmp_path / "c.json", data)
        assert main(["run", "--config", cfg, "--out-dir", str(tmp_path)]) == 1

    def test_json_decode_error_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{\n  \"problem\": ???\n}")
        with pytest.raises(ConfigError, match="line 2"):
            load_config(path)


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
        lines = (tmp_path / "trace.csv").read_text().splitlines()
        assert len(lines) == 2
        assert lines[0] == "s,eta,g_norm,G,f_x,f_best,f_avg_k0,bound_family,bound_weak_k0"
        assert lines[1].startswith("1,1,")

    def test_header_tracks_configured_ks(self, tmp_path):
        data = dict(ABS_CONFIG, weight_ks=[-1.0, 0.5, 2.0])
        cfg = write_config(tmp_path / "c.json", data)
        main(["run", "--config", cfg, "--out-dir", str(tmp_path)])
        header = (tmp_path / "trace.csv").read_text().splitlines()[0]
        assert header == ("s,eta,g_norm,G,f_x,f_best,"
                          "f_avg_k-1,f_avg_k0.5,f_avg_k2,"
                          "bound_family,bound_weak_k-1,bound_weak_k0.5,bound_weak_k2")

    def test_sqrt_from_zero_stops_empty(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {
            "problem": {"kind": "sqrt-example"},
            "policy": {"kind": "family"},
            "iterations": 5,
            "initial_point": "zero",
        })
        assert main(["run", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["cells"][0]["stop_reason"] == "empty-subdifferential"
        assert summary["cells"][0]["trace_path"] is None

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
        assert cell["optimum_is_reference"] is False
        assert cell["optimum_bracket"]["low"] <= cell["best_value"]
        assert cell["optimum_bracket"]["high"] == cell["best_value"]
        assert cell["certificates"] == {"family": True, "weak_k0": True, "monotone_k0": True}
        assert cell["undecided"] == []

    @pytest.mark.parametrize("name,calls", [("lasso_desk.json", 4006), ("sweep_a.json", 10005)])
    def test_shipped_lasso_oracle_calls(self, tmp_path, monkeypatch, name, calls):
        # cells x iterations, plus one final call per cell and average
        import pathlib

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
        cfg = pathlib.Path(__file__).resolve().parent.parent / "configs" / name
        assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path), "--strict"]) == 0
        assert count[0] == calls

    def test_missing_config_file(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.json")]) == 1

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

    def test_strict_flags_forced_violation(self, tmp_path, capsys):
        # planting an impossibly low optimum makes every gap certificate fail
        cfg = write_config(tmp_path / "c.json", {
            "problem": {"kind": "abs", "dim": 1, "f_star": -1000.0},
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
                            lambda config, out_dir=None: {"cells": [cell]})
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


class TestCheckCommand:
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
        assert "certificate_family" in out

    def test_corrupted_trace_fails_strict(self, run_outputs, tmp_path):
        trace, problem = run_outputs
        lines = trace.read_text().splitlines()
        header = lines[0].split(",")
        row = lines[2].split(",")
        row[header.index("f_best")] = "-5.0"
        lines[2] = ",".join(row)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        assert main(["check", "--trace", str(bad), "--problem", str(problem)]) == 0
        assert main(["check", "--trace", str(bad), "--problem", str(problem),
                     "--strict"]) == 3

    def test_accepts_full_config_as_problem_file(self, run_outputs, tmp_path):
        trace, _ = run_outputs
        full = tmp_path / "full.json"
        full.write_text(json.dumps(dict(ABS_CONFIG)))
        assert main(["check", "--trace", str(trace), "--problem", str(full)]) == 0

    def test_round_trip_through_csv_parser(self, run_outputs):
        trace, _ = run_outputs
        table = read_trace_csv(trace)
        assert table.ks == [-1.0, 0.0, 2.0]
        assert table.length == 60 or table.length > 0


def test_emit_trace_csv_rejects_empty(tmp_path):
    from psg import InvalidParameterError

    with pytest.raises(InvalidParameterError):
        emit_trace_csv([], tmp_path / "x.csv")


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
