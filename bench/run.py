#!/usr/bin/env python3
"""Benchmark of psg through its public CLI entry, ``psg.cli.main``.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each workload is one `psg run` config
(see ``workloads.py``). The load is a closed loop from one client: one
execution at a time, each in a fresh interpreter (CLI users pay the import
on every run), until S seconds have passed. An execution is
``psg run --strict`` followed by ``psg check`` on every trace it wrote.

With ``--trace 0`` the run reports the end-to-end metrics: medians over the
executions, and for ``setup_s`` the median of several fresh set-ups. With
``--trace 1`` one execution runs with every psg call traced from outside
(``tracer.py``) and the others untraced; it reports the per-layer metrics
and the tracing overhead. Every time reported is scaled to a reference host
speed by the witness loop of ``witness.py``, which runs beside each
execution. Every execution passes the correctness gate of
``workloads.gate``. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
name every metric with its unit, every failed operation, and the machine
record (versions, BLAS threads, load average, unscaled times and the
witness's speed factors).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
WORK = os.path.join(HERE, "_work")
RECORDED = os.path.join(HERE, "expected.json")

sys.path.insert(0, HERE)
import workloads  # noqa: E402
from witness import Witness  # noqa: E402

# One BLAS thread: one client on a 2-core machine, and no thread start-up or
# contention noise in the matvecs.
BLAS_THREADS = 1
SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 170

E2E_UNITS = {
    "run_s": "s", "cell_us_per_iter": "us", "check_s": "s", "setup_s": "s",
    "peak_rss_mb": "MB", "oracle_calls": "count", "ok_ops_share": "ratio",
}


class BenchError(RuntimeError):
    """The benchmark could not run or measure the workload."""


def layer_unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_share"):
        return "ratio"
    if name.endswith("_flop"):
        return "flop"
    if name.endswith("_bytes"):
        return "B"
    return "count"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def time_setup(config_path: str) -> tuple:
    """(start, end): a fresh interpreter starting until psg has built the problem."""
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, CHILD, "setup", config_path], env=child_env(),
                          stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        end = time.perf_counter()
        proc.stdout.read()
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    if line.strip() != "ready" or code != 0:
        raise BenchError(f"set-up child exited with {code}")
    return start, end


def execute(config_path: str, out_dir: str, traced: bool) -> dict:
    """One execution in a fresh interpreter; returns the child's result."""
    shutil.rmtree(out_dir, ignore_errors=True)
    try:
        proc = subprocess.run(
            [sys.executable, CHILD, "exec", config_path, out_dir, str(int(traced))],
            env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"execution did not end within {CHILD_TIMEOUT_S} s") from None
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    if proc.returncode != 0:
        raise BenchError(f"execution child exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def blas_info() -> str:
    try:
        import numpy
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"numpy {numpy.__version__}, {blas.get('name')} {blas.get('version')}"
    except (ImportError, KeyError, TypeError) as exc:
        return f"unknown ({exc})"


def check_checkout() -> None:
    for rel in ("src/psg/cli.py", *(f"configs/{f}" for f in workloads.SHIPPED.values())):
        if not os.path.isfile(os.path.join(ROOT, rel)):
            raise BenchError(f"{rel} not found under {ROOT}: run from a psg checkout")


def load_recorded(name: str) -> dict | None:
    with open(RECORDED, encoding="utf-8") as fh:
        return json.load(fh)["workloads"].get(name)


def measure(name: str, seed: int, seconds: float, traced: bool) -> dict:
    """Run workload `name` for about `seconds` and return the result object."""
    check_checkout()
    recorded = load_recorded(name)
    work = os.path.join(WORK, f"{name}-{seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    config = workloads.make_config(name, seed, ROOT)
    config_path = os.path.join(work, "config.json")
    out_dir = os.path.join(work, "out")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=2)

    # Every process of the run shares one core with the witness.
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    machine = {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
               "blas": blas_info(), "blas_threads": BLAS_THREADS,
               "loadavg_before": os.getloadavg()}
    witness = Witness(env=child_env())
    windows = []   # (start, end, result) of each untraced execution
    try:
        time_setup(config_path)  # fills the bytecode cache; not measured
        start = time.perf_counter()
        deadline = start + seconds
        setups = [] if traced else [time_setup(config_path) for _ in range(SETUP_REPEATS)]
        setup_window = (start, time.perf_counter())
        if traced:
            began = time.perf_counter()
            traced_result = execute(config_path, out_dir, True)
            traced_window = (began, time.perf_counter())
        while True:
            began = time.perf_counter()
            result = execute(config_path, out_dir, False)
            windows.append((began, time.perf_counter(), result))
            typical = statistics.median(end - begin for begin, end, _ in windows)
            if time.perf_counter() + typical > deadline:
                break
        measured_s = time.perf_counter() - start
    finally:
        witness.stop()
        shutil.rmtree(work, ignore_errors=True)

    results = [r for _, _, r in windows]
    runs = [witness.scaled(*r["run_at"], wider=(b, e)) for b, e, r in windows]
    machine.update({
        "loadavg_after": os.getloadavg(),
        "executions": len(results),
        "measured_s": measured_s,
        "unscaled_run_s": [r["run_at"][1] - r["run_at"][0] for r in results],
        "speed_factor": [witness.factor(b, e) for b, e, _ in windows],
        "witness_samples": witness.samples,
    })

    scored = [workloads.gate(config, seed, r, recorded)
              for r in results + ([traced_result] if traced else [])]
    attempted = sum(s["ops"] for s in scored)
    failed = sum(s["failed"] for s in scored)
    misses = sorted({m for s in scored for m in s["misses"]})
    failures = sorted({f for s in scored for f in s["failures"]})

    if traced:
        began, ended = traced_window
        ratio = witness.scaled(began, ended, traced_window) / (ended - began)
        machine["traced_scale"] = ratio
        layers = {k: v * ratio if layer_unit(k) == "s" else v
                  for k, v in traced_result["layers"].items()}
        layers["trace.overhead_share"] = (
            witness.scaled(*traced_result["run_at"], wider=traced_window)
            / statistics.median(runs) - 1.0)
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in layers.items()}
    else:
        values = {
            "run_s": statistics.median(runs),
            "cell_us_per_iter": statistics.median(
                1e6 * sum(witness.scaled(a, b, (began, ended)) for a, b, _ in r["cells_at"])
                / sum(n for _, _, n in r["cells_at"])
                for began, ended, r in windows),
            "check_s": statistics.median(
                witness.scaled(*r["check_at"], wider=(b, e)) for b, e, r in windows),
            "setup_s": statistics.median(
                witness.scaled(a, b, setup_window) for a, b in setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
            "oracle_calls": statistics.median(r["oracle_calls"] for r in results),
            "ok_ops_share": (attempted - failed) / attempted,
        }
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
    return {"machine": machine, "failures": failures, "misses": misses,
            "line": {"correct": not misses, "attempted": attempted, "failed": failed,
                     "metrics": metrics}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    # On SIGTERM unwind, so that the witness and the running child are stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        out = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError, ValueError, subprocess.SubprocessError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print("machine: " + json.dumps(out["machine"]))
    for failure in out["failures"]:
        note = "  (gate miss)" if failure in out["misses"] else "  (known false FAIL)"
        print(f"failed: {failure}{note}")
    for name, metric in out["line"]["metrics"].items():
        print(f"{args.workload:>7} {name:<34} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps(out["line"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
