"""Write the byte-comparison set of a refactor: every output of 27 `psg` runs.

    python tools/byte_set.py OUT_DIR

Each run gets a directory under OUT_DIR holding its ``config.json``, what
``psg run --strict`` writes under ``out/``, and ``psg check --strict`` of
every trace that the summary lists. Each command leaves its exit code,
stdout and stderr beside those outputs, in ``<command>.exit``,
``<command>.stdout`` and ``<command>.stderr``. The runs are:

* the shipped ``configs/*.json``;
* the ``nonlip`` benchmark workload at seeds 1 and 7
  (``bench/workloads.make_config``), and at seed 1 run for 70,000
  iterations with a ``.npz`` trace, past the first 2^15 rows of the run's
  record, so that the set covers the record's growth;
* the ``NPZ_CONFIGS`` of ``tests/test_cli.py``, each with a ``.npz`` and a
  ``.csv`` trace path;
* ROADMAP item 1's Lasso case, with both trace suffixes;
* ten configs that ``psg run`` rejects (``ERRORS``), whose exit code and
  error line are their only output.

The commands run the ``psg`` package under ``src/`` of the checkout that holds
this script, from inside each run's directory, so every path they write is
relative. A refactor runs the script in the parent's checkout and in its own
and compares the two directories with ``diff -r``; ``tools/byte_diff.py``
reports what moved between them.
"""

from __future__ import annotations

import ast
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PSG = "import sys; from psg.cli import main; sys.exit(main(sys.argv[1:]))"

# ROADMAP item 1: the weak bounds at k = 0 and 2 are refuted on this Lasso
ITEM1 = {"problem": {"kind": "lasso", "seed": 38, "n": 8, "m": 5, "radius": 0.3,
                     "lambda": 0.05},
         "policy": {"kind": "family", "a": 1.0}, "weight_ks": [0.0, 2.0],
         "iterations": 300, "initial_point": [-1.0] * 8}

# Configs that psg run rejects, each ABS with one or both of its objects
# replaced: their exit code and error line are the error path's bytes
ABS = {"problem": {"kind": "abs", "dim": 3}, "policy": {"kind": "family"}, "iterations": 10}
LASSO = {"kind": "lasso", "seed": 1, "n": 8, "m": 5}
ERRORS = {
    "unknown_problem": {"problem": {"kind": "ridge"}},
    "lasso_without_n": {"problem": {"kind": "lasso", "seed": 1, "m": 5}},
    "abs_dim_string": {"problem": {"kind": "abs", "dim": "two"}},
    "unknown_policy": {"policy": {"kind": "polyak"}},
    "nesterov_with_a": {"policy": {"kind": "nesterov", "a": 0.5}},
    "classic_without_L_on_lasso": {"problem": LASSO, "policy": {"kind": "classic"}},
    "family_a_2": {"policy": {"kind": "family", "a": 2}},
    "constant_L_0": {"policy": {"kind": "constant", "L": 0}},
    "abs_dim_0": {"problem": {"kind": "abs", "dim": 0}},
    "lasso_lambda_0": {"problem": LASSO | {"lambda": 0}},
}


def npz_configs() -> dict:
    """The ``NPZ_CONFIGS`` literal of ``tests/test_cli.py``, read without importing it."""
    tree = ast.parse((ROOT / "tests" / "test_cli.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "NPZ_CONFIGS"
                for target in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError("tests/test_cli.py defines no NPZ_CONFIGS")


def cases() -> dict:
    """Each run's directory name and config."""
    runs = {f"config_{path.stem}": json.loads(path.read_text(encoding="utf-8"))
            for path in sorted((ROOT / "configs").glob("*.json"))}
    sys.path.insert(0, str(ROOT / "bench"))
    from workloads import make_config
    for seed in (1, 7):
        runs[f"nonlip_seed{seed}"] = make_config("nonlip", seed, str(ROOT))
    runs["nonlip_long_npz"] = dict(runs["nonlip_seed1"], iterations=70_000,
                                   trace_path="nonlip_trace.npz")
    for name, config in sorted(npz_configs().items()) + [("item1", ITEM1)]:
        for suffix in ("npz", "csv"):
            runs[f"{name}_{suffix}"] = dict(config, trace_path=f"trace.{suffix}")
    runs.update((f"error_{name}", ABS | change) for name, change in ERRORS.items())
    return runs


def psg(directory: Path, name: str, *args: str) -> int:
    """Run ``psg ARGS`` in `directory`; keep its exit code, stdout and stderr as `name`.*."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", PSG, *args], cwd=directory, env=env,
                          capture_output=True, text=True)
    (directory / f"{name}.exit").write_text(f"{done.returncode}\n", encoding="utf-8")
    (directory / f"{name}.stdout").write_text(done.stdout, encoding="utf-8")
    (directory / f"{name}.stderr").write_text(done.stderr, encoding="utf-8")
    return done.returncode


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python tools/byte_set.py OUT_DIR", file=sys.stderr)
        return 2
    out = Path(argv[0])
    for name, config in cases().items():
        directory = out / name
        shutil.rmtree(directory, ignore_errors=True)
        directory.mkdir(parents=True)
        (directory / "config.json").write_text(json.dumps(config, indent=2) + "\n",
                                               encoding="utf-8")
        code = psg(directory, "run", "run", "--config", "config.json", "--out-dir", "out",
                   "--strict")
        summary = directory / "out" / config.get("summary_path", "summary.json")
        cells = json.loads(summary.read_text())["cells"] if summary.exists() else []
        traces = [cell["trace_path"] for cell in cells if cell.get("trace_path")]
        for trace in traces:
            psg(directory, f"check_{Path(trace).name}", "check", "--trace", trace,
                "--problem", "config.json", "--strict")
        print(f"{name}: run exit {code}, {len(traces)} traces checked")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
