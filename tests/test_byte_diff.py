import importlib.util
import json
import pathlib

import numpy as np

from psg.cli import emit_trace

ROOT = pathlib.Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("byte_diff", ROOT / "tools" / "byte_diff.py")
byte_diff = importlib.util.module_from_spec(spec)
spec.loader.exec_module(byte_diff)


def write_tree(root, f_x, c_sum, best_value, line):
    """One run directory of a byte-set tree: two traces, a summary and a check's stdout."""
    out = root / "run" / "out"
    out.mkdir(parents=True)
    trace = {"s": np.array([1.0, 2.0]), "f_x": np.array(f_x)}
    header = {"minorant_sums": {"c_sum": c_sum, "count": 2}}
    for suffix in ("npz", "csv"):
        emit_trace(trace, out / f"trace.{suffix}", header)
    (out / "summary.json").write_text(json.dumps(
        {"cells": [{"best_value": best_value, "certificates": {"family": True}}]}))
    (root / "run" / "check.stdout").write_text(f"PASS eta_positive\n{line}\n")


def test_reports_moved_columns_keys_and_lines(tmp_path, capsys):
    write_tree(tmp_path / "a", [3.0, 1.0], 5.0, 1.0, "PASS s_old")
    write_tree(tmp_path / "b", [3.0, 1.0 + 2.0 ** -52], 5.0 + 2.0 ** -50, 1.0,
               "PASS s_new")
    assert byte_diff.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 0
    out = capsys.readouterr().out
    trace = ("  column f_x: 1 of 2 entries moved, max rel change 2.22e-16\n"
             "  header minorant_sums.c_sum: max rel change 1.78e-16\n")
    assert out == ("run/check.stdout\n  -PASS s_old\n  +PASS s_new\n"
                   f"run/out/trace.csv\n{trace}run/out/trace.npz\n{trace}"
                   "1 of 4 files identical\n")


def test_json_keys_that_moved():
    a = {"cells": [{"best_value": 2.0, "status": "ok", "g": [1.0, 2.0]}]}
    b = {"cells": [{"best_value": -2.0, "status": "failed", "g": [1.0, 2.5]}], "new": 1}
    assert byte_diff.json_changes(a, b) == [
        "cells[0].best_value: max rel change 2",
        'cells[0].status: "ok" -> "failed"',
        "cells[0].g: max rel change 0.2",
        "new: added"]


def test_relative_change_of_special_values():
    assert byte_diff.relative_change([0.0], [-0.0]) == 0.0
    assert byte_diff.relative_change([np.nan, 1.0], [1.0, 1.0]) == np.inf
    assert byte_diff.relative_change([1.0], [1.0]) == 0.0
