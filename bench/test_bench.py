"""Tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py

The exact counts are hand counts at the default seed. ``desk``, for example:
20,000 reference iterations + 1 reference final report + 2 cells x 2,000 x
(1 step call + 3 averaged-point calls) + 2 x 3 final reports = 36,007 oracle
calls. If the traced run reproduces them, the wrappers see every call.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402

EXACT = {
    "desk": {"problems.oracle.calls": 36007, "projection.project.calls": 24003},
    "sweep": {"problems.oracle.calls": 40006},
    "full": {"problems.oracle.calls": 90007},
    "nonlip": {"problems.oracle.calls": 80003, "solver.restarts": 6},
}


@pytest.fixture(scope="module")
def work():
    path = os.path.join(run.WORK, f"tests-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _config_path(work, name, seed=workloads.DEFAULT_SEED):
    path = os.path.join(work, f"{name}-{seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(workloads.make_config(name, seed, run.ROOT), fh)
    return path


@pytest.mark.parametrize("name", sorted(EXACT))
def test_traced_counts_match_hand_counts(work, name):
    result = run.execute(_config_path(work, name), os.path.join(work, "out"), True)
    layers = result["layers"]
    for metric, count in EXACT[name].items():
        assert layers[metric] == count, metric
    recorded = run.load_recorded(name)
    scored = workloads.gate(workloads.make_config(name, workloads.DEFAULT_SEED, run.ROOT),
                            workloads.DEFAULT_SEED, result, recorded)
    assert scored["misses"] == []
    assert (scored["ops"], scored["failed"]) == (recorded["ops"], recorded["failed"])


def test_untraced_probe_counts_every_oracle_call(work):
    result = run.execute(_config_path(work, "desk"), os.path.join(work, "out"), False)
    assert result["oracle_calls"] == EXACT["desk"]["problems.oracle.calls"]
    assert [n for _, _, n in result["cells_at"]] == [2000, 2000]


@pytest.mark.parametrize("name", sorted(workloads.SHIPPED))
def test_default_seed_reproduces_shipped_config(name):
    with open(os.path.join(run.ROOT, "configs", workloads.SHIPPED[name]),
              encoding="utf-8") as fh:
        shipped = json.load(fh)
    assert workloads.make_config(name, workloads.DEFAULT_SEED, run.ROOT) == shipped
    assert workloads.make_config(name, 7, run.ROOT)["problem"]["seed"] == 7


def test_nonlip_start_is_seeded_and_interior():
    assert workloads.nonlip_start(workloads.DEFAULT_SEED) == 0.9
    starts = [workloads.nonlip_start(seed) for seed in range(50)]
    assert starts == [workloads.nonlip_start(seed) for seed in range(50)]
    assert all(0.3 <= s <= 0.95 for s in starts)


def _result_from_recorded(name):
    cells = [dict(copy.deepcopy(cell), status="ok") for cell in run.load_recorded(name)["cells"]]
    return {"run_exit": 0, "summary": {"cells": cells}, "checks": []}


def test_gate_names_a_value_off_by_more_than_the_tolerance():
    config = workloads.make_config("desk", workloads.DEFAULT_SEED, run.ROOT)
    recorded = run.load_recorded("desk")
    result = _result_from_recorded("desk")
    result["summary"]["cells"][0]["best_value"] *= 1 + 1e-12
    assert workloads.gate(config, workloads.DEFAULT_SEED, result, recorded)["misses"] == []
    result["summary"]["cells"][0]["best_value"] *= 1 + 1e-8
    scored = workloads.gate(config, workloads.DEFAULT_SEED, result, recorded)
    assert scored["failed"] == 1
    assert "best_value" in scored["misses"][0]
    # away from the default seed only status and certificates are gated
    assert workloads.gate(config, 5, result, recorded)["misses"] == []


def test_gate_fails_a_false_certificate_at_any_seed():
    config = workloads.make_config("sweep", 5, run.ROOT)
    result = _result_from_recorded("sweep")
    result["summary"]["cells"][2]["certificates"]["family"] = False
    scored = workloads.gate(config, 5, result, run.load_recorded("sweep"))
    assert scored["failed"] == 1
    assert scored["misses"] == ["cell family_a0.5: certificate family failed"]


def test_only_known_false_fails_are_excused():
    desk = workloads.make_config("desk", 3, run.ROOT)
    nonlip = workloads.make_config("nonlip", 3, run.ROOT)
    ratio_k0 = "weight_step_ratio_nondecreasing_k0"
    assert workloads.known_false_fail(desk, "nesterov", ratio_k0)
    assert not workloads.known_false_fail(desk, "nesterov", "weight_step_ratio_nondecreasing_k-1")
    assert not workloads.known_false_fail(desk, "family_a1", ratio_k0)
    assert workloads.known_false_fail(nonlip, "family_a0", "G_nondecreasing")
    assert workloads.known_false_fail(nonlip, "family_a0", "bound_weak_k2_recomputed")
    assert not workloads.known_false_fail(nonlip, "family_a0", "certificate_weak_k0")
    assert not workloads.known_false_fail(nonlip, "family_a0", "f_best_running_min")
