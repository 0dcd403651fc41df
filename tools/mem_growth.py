"""Print how far `psg run` and `psg check` raise a fresh process's peak memory.

    python tools/mem_growth.py [ITERATIONS]    # default: 100000

The config is the ``nonlip`` benchmark workload at seed 1
(``bench/workloads.make_config``: the 1-D sqrt example, the family rule with
a = 0, k = -1, 0 and 2, restarts), run for ITERATIONS iterations, once with a
``.csv`` and once with a ``.npz`` trace. Each command runs in a fresh
interpreter that imports psg, reads the config and builds its problem, then
reads ``ru_maxrss``, runs the command through ``psg.cli.main`` and reads
``ru_maxrss`` again. The growth is the difference, in MB of 2^20 bytes: what
the command adds to the peak beyond the import. The report gates nothing; it
exits 1 only when a command does not exit 0.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# argv: the config path, then the psg command's own arguments
CHILD = """
import contextlib, io, json, resource, sys
from psg import cli
cli.build_problem(cli.load_config(sys.argv[1]).problem)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[2:])
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({"exit": code, "growth_mb": (after - before) / 1024}))
"""


def nonlip_config(iterations: int, suffix: str) -> dict:
    """The ``nonlip`` workload's config at seed 1, `iterations` long, with a `suffix` trace."""
    sys.path.insert(0, str(ROOT / "bench"))
    from workloads import make_config
    return dict(make_config("nonlip", 1, str(ROOT)), iterations=iterations,
                trace_path=f"trace.{suffix}")


def growth(config_path: str, *args: str) -> dict:
    """{"exit", "growth_mb"} of ``psg ARGS`` in a fresh interpreter, beyond import and build."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", CHILD, config_path, *args],
                          env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def measure(iterations: int, suffix: str, work_dir: str) -> dict:
    """The growth of ``psg run`` and then ``psg check`` of its trace, by command."""
    config_path = os.path.join(work_dir, f"config_{suffix}.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(nonlip_config(iterations, suffix), fh)
    out = os.path.join(work_dir, suffix)
    return {
        "run": growth(config_path, "run", "--config", config_path, "--out-dir", out),
        "check": growth(config_path, "check", "--trace",
                        os.path.join(out, f"trace.{suffix}"), "--problem", config_path),
    }


def main(argv: list[str]) -> int:
    iterations = int(argv[0]) if argv else 100_000
    failed = False
    print(f"nonlip, {iterations} iterations: ru_maxrss growth in MB")
    with tempfile.TemporaryDirectory() as work_dir:
        for suffix in ("csv", "npz"):
            for command, result in measure(iterations, suffix, work_dir).items():
                print(f"{suffix:<4} {command:<6} {result['growth_mb']:7.2f}"
                      f"   exit {result['exit']}")
                failed = failed or result["exit"] != 0
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
