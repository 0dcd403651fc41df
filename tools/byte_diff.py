"""Report what differs between two output trees of ``tools/byte_set.py``.

    python tools/byte_diff.py A B

A report, not a gate: it exits 0 whatever differs (2 on a usage error). It
prints each file that is in one tree only, then each file whose bytes differ
and below it what moved:

* a trace (``.npz``, or ``.csv`` with a ``# {json}`` header), read with
  ``psg.cli.read_trace``: each column whose bits moved, with the number of
  entries that moved and their largest relative change, and each header key
  that moved;
* a JSON file: each key that moved, by its path (``cells[0].best_value``);
  a list of numbers is one key;
* any other file: the lines that differ, ``-`` from A and ``+`` from B.

The largest relative change of numbers is max |a - b| / max(|a|, |b|) over
the entries whose bits differ; a nan or infinite entry that moved counts as
``inf``. The ``psg`` package comes from ``src/`` of the checkout that holds
this script.
"""

from __future__ import annotations

import difflib
import json
import math
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def relative_change(a, b) -> float:
    """The largest relative change of two equal-shape float arrays where their bits differ."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    moved = a.view(np.uint64) != b.view(np.uint64)
    a, b = a[moved], b[moved]
    scale = np.maximum(np.abs(a), np.abs(b))
    with np.errstate(invalid="ignore", over="ignore"):
        rel = np.abs(a - b) / np.where(scale > 0, scale, 1.0)  # 0.0 against -0.0 is 0
    rel[np.isnan(rel)] = math.inf  # a nan or an infinite entry moved
    return float(rel.max(initial=0.0))


def leaves(obj, path: str = ""):
    """Each scalar, and each list of numbers, of a JSON value, with its path."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from leaves(value, f"{path}.{key}" if path else str(key))
    elif isinstance(obj, list) and not all(isinstance(v, (int, float)) for v in obj):
        for i, value in enumerate(obj):
            yield from leaves(value, f"{path}[{i}]")
    else:
        yield path, obj


def numeric(value) -> bool:
    """True for a number or a list of numbers (bools are not numbers)."""
    values = value if isinstance(value, list) else [value]
    return all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in values)


def json_changes(a, b) -> list:
    """One line per key of two JSON values that was removed, added or moved."""
    old, new = dict(leaves(a)), dict(leaves(b))
    lines = []
    for key in list(old) + [key for key in new if key not in old]:
        if key not in new:
            lines.append(f"{key}: removed")
        elif key not in old:
            lines.append(f"{key}: added")
        elif json.dumps(old[key]) != json.dumps(new[key]):
            if (numeric(old[key]) and numeric(new[key])
                    and np.shape(old[key]) == np.shape(new[key])):
                lines.append(f"{key}: max rel change {relative_change(old[key], new[key]):.3g}")
            else:
                lines.append(f"{key}: {json.dumps(old[key])} -> {json.dumps(new[key])}")
    return lines


def trace_changes(a: Path, b: Path) -> list:
    """The columns and header keys of two traces that moved."""
    from psg.cli import read_trace

    (old_meta, old), (new_meta, new) = read_trace(a), read_trace(b)
    lines = []
    for name in list(old) + [name for name in new if name not in old]:
        if name not in new or name not in old:
            lines.append(f"column {name}: {'removed' if name not in new else 'added'}")
        elif old[name].shape != new[name].shape:
            lines.append(f"column {name}: {len(old[name])} -> {len(new[name])} rows")
        elif old[name].tobytes() != new[name].tobytes():
            count = int(np.count_nonzero(old[name].view(np.uint64) != new[name].view(np.uint64)))
            lines.append(f"column {name}: {count} of {len(old[name])} entries moved,"
                         f" max rel change {relative_change(old[name], new[name]):.3g}")
    return lines + [f"header {line}" for line in json_changes(old_meta, new_meta)]


def is_trace(path: Path) -> bool:
    return path.suffix == ".npz" or (path.suffix == ".csv" and path.read_bytes()[:3] == b"# {")


def changes(a: Path, b: Path) -> list:
    """What moved between two files with different bytes."""
    if is_trace(a) and is_trace(b):
        return trace_changes(a, b)
    if a.suffix == ".json":
        return json_changes(json.loads(a.read_text(encoding="utf-8")),
                            json.loads(b.read_text(encoding="utf-8")))
    diff = difflib.unified_diff(a.read_text(encoding="utf-8").splitlines(),
                                b.read_text(encoding="utf-8").splitlines(), n=0, lineterm="")
    return [line for line in diff if not line.startswith(("---", "+++", "@@"))]


def files(tree: Path) -> set:
    return {path.relative_to(tree) for path in tree.rglob("*") if path.is_file()}


def main(argv: list[str]) -> int:
    if len(argv) != 2 or not all(Path(arg).is_dir() for arg in argv):
        print("usage: python tools/byte_diff.py A B  (two tools/byte_set.py output trees)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    a, b = Path(argv[0]), Path(argv[1])
    in_a, in_b = files(a), files(b)
    for rel in sorted(in_a ^ in_b):
        print(f"only in {a if rel in in_a else b}: {rel}")
    same = 0
    for rel in sorted(in_a & in_b):
        if (a / rel).read_bytes() == (b / rel).read_bytes():
            same += 1
            continue
        print(rel)
        for line in changes(a / rel, b / rel):
            print(f"  {line}")
    print(f"{same} of {len(in_a | in_b)} files identical")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
