"""Fresh-interpreter side of the psg benchmark.

    python3 bench/child.py setup CONFIG
    python3 bench/child.py exec CONFIG OUT_DIR TRACED

``setup`` imports psg, parses CONFIG and builds its problem, then prints
``ready``; the parent times it from process start. ``exec`` runs
``psg run --strict`` on CONFIG through ``psg.cli.main``, then ``psg check`` on
every trace the run wrote, and prints one JSON line with the start and end
of each timed part (``time.perf_counter``, a clock all processes of the
machine share), counts, the run's cells and the check verdicts. With TRACED
set to 1 every psg call is recorded by :class:`tracer.Tracer` and
per-layer metrics are added.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import resource
import sys
import time


def setup(config_path: str) -> None:
    from psg import cli

    config = cli.load_config(config_path)
    cli.build_problem(config.problem)
    print("ready", flush=True)


def _install_probes(cli) -> dict:
    """Count oracle calls and time the cells' solver runs, nothing else."""
    counts = {"oracle_calls": 0, "cells_at": []}
    build, solve = cli.build_problem, cli.run

    def counted_build(spec):
        problem = build(spec)
        oracle = problem.oracle

        def counted(x):
            counts["oracle_calls"] += 1
            return oracle(x)

        return dataclasses.replace(problem, oracle=counted)

    def timed_solve(problem, config):
        start = time.perf_counter()
        report, trace = solve(problem, config)
        counts["cells_at"].append((start, time.perf_counter(), report.iterations_run))
        return report, trace

    # The reference run imports psg.solver.run itself, so only the cells'
    # calls pass through cli.run.
    cli.build_problem, cli.run = counted_build, timed_solve
    return counts


def _layer_metrics(tracer, trace_bytes: int) -> dict:
    totals = tracer.totals()

    def get(name, key):
        return totals.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})[key]

    iterations = sum(tracer.kept.values())
    reference_iterations = sum(tracer.kept.get(i, 0)
                               for i in tracer.nested_under("problems.reference"))
    calls = get("problems.oracle", "calls")
    flop, nbytes = tracer.cost
    metrics = {f"{name}.{key}": get(name, key) for name, key in (
        ("core.ensure_vector", "calls"), ("core.ensure_vector", "self_s"),
        ("core.leq_with_tol", "calls"),
        ("projection.project", "calls"), ("projection.project", "self_s"),
        ("solver.psg_step", "self_s"), ("solver.run", "self_s"),
        ("stepsize.step_size", "calls"), ("stepsize.step_size", "self_s"),
        ("averaging.update", "calls"), ("averaging.update", "self_s"),
        ("averaging.weight", "self_s"), ("averaging.best", "self_s"),
        ("bounds.sums", "calls"), ("bounds.sums", "self_s"),
        ("bounds.check", "calls"), ("bounds.check", "self_s"),
        ("problems.oracle", "calls"), ("problems.oracle", "self_s"),
        ("problems.reference", "s"), ("problems.build", "s"),
        ("solver.run", "calls"),
        ("cli.load_config", "s"), ("cli.run_experiment", "self_s"),
        ("cli.emit_trace_csv", "s"), ("cli.read_trace_csv", "s"),
        ("cli.check_trace", "s"),
    )}
    metrics.update({
        "problems.oracle.value_calls": calls - iterations,
        "problems.oracle.useful_share": iterations / calls,
        "problems.oracle.computed_flop": flop * calls,
        "problems.oracle.computed_bytes": nbytes * calls,
        "problems.reference.iterations": reference_iterations,
        "solver.iterations": iterations,
        "solver.restarts": get("stepsize.reset", "calls") - get("solver.run", "calls"),
        "cli.trace_bytes": trace_bytes,
    })
    return metrics


def execute(config_path: str, out_dir: str, traced: bool) -> dict:
    from psg import cli

    if traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    else:
        counts = _install_probes(cli)

    run_at = [time.perf_counter()]
    run_exit = cli.main(["run", "--config", config_path, "--out-dir", out_dir, "--strict"])
    run_at.append(time.perf_counter())

    with open(config_path, encoding="utf-8") as fh:
        summary_path = os.path.join(out_dir, json.load(fh)["summary_path"])
    cells = []
    if os.path.exists(summary_path):
        with open(summary_path, encoding="utf-8") as fh:
            cells = json.load(fh)["cells"]

    checks = []
    check_at = [time.perf_counter()]
    for cell in cells:
        if cell.get("trace_path"):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(["check", "--trace", cell["trace_path"],
                                 "--problem", config_path])
            checks.append((cell["policy"], code, out.getvalue()))
    check_at.append(time.perf_counter())

    result = {
        "run_exit": run_exit,
        "run_at": run_at,
        "check_at": check_at,
        "summary": {"cells": cells},
        "checks": [{"policy": policy, "exit": code,
                    "verdicts": [(line.split()[1], line.startswith("PASS"))
                                 for line in text.splitlines()]}
                   for policy, code, text in checks],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if traced:
        trace_bytes = sum(os.path.getsize(c["trace_path"]) for c in cells
                          if c.get("trace_path"))
        result["layers"] = _layer_metrics(tracer, trace_bytes)
        result["oracle_calls"] = result["layers"]["problems.oracle.calls"]
    else:
        result.update(counts)
    return result


def main(argv) -> int:
    if argv[:1] == ["setup"] and len(argv) == 2:
        setup(argv[1])
        return 0
    if argv[:1] == ["exec"] and len(argv) == 4:
        print(json.dumps(execute(argv[1], argv[2], argv[3] == "1")))
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
