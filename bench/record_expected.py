#!/usr/bin/env python3
"""Record the correctness-gate values of every workload at the default seed.

    python3 bench/record_expected.py

Writes ``bench/expected.json``: per workload, each cell's ``policy``,
``iterations_run``, ``stop_reason``, ``certificates``, ``best_value`` and
``averaged_values`` as `psg run` produces them, plus the operation count and
the failed operations of that run. Re-record only when a change to psg is
meant to change these values, and say so where the change is described.
"""

from __future__ import annotations

import json
import os
import sys

import run
import workloads

KEPT = ("policy", "iterations_run", "stop_reason", "certificates", "best_value",
        "averaged_values")

NOTE = ("failures are the known false FAILs of psg check at this commit: the nesterov "
        "rule does not guarantee w/eta nondecreasing for k != -1, and psg check does not "
        "split a restarted trace into epochs (ROADMAP item 5)")


def main() -> int:
    run.check_checkout()
    os.makedirs(run.WORK, exist_ok=True)
    out = {"seed": workloads.DEFAULT_SEED, "note": NOTE, "workloads": {}}
    for name in workloads.NAMES:
        config = workloads.make_config(name, workloads.DEFAULT_SEED, run.ROOT)
        config_path = os.path.join(run.WORK, f"record-{name}.json")
        with open(config_path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        result = run.execute(config_path, os.path.join(run.WORK, "record-out"), False)
        os.remove(config_path)
        cells = [{k: cell[k] for k in KEPT} for cell in result["summary"]["cells"]]
        scored = workloads.gate(config, workloads.DEFAULT_SEED, result, None)
        if scored["misses"]:
            print(f"{name}: not recorded, gate misses: {scored['misses']}", file=sys.stderr)
            return 1
        out["workloads"][name] = {"cells": cells, "ops": scored["ops"],
                                  "failed": scored["failed"], "failures": scored["failures"]}
        print(f"{name}: {scored['ops']} operations, {scored['failed']} failed")
    with open(run.RECORDED, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
