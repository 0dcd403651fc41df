"""The chunked evaluator against the whole-column one it replaced.

``reference_evaluate`` below is ``psg.bounds.evaluate`` as it was before the
evaluator took its rows a chunk at a time: every column built whole, every
sum one ``np.cumsum`` per epoch. Fed the same rows in any chunks, the chunked
evaluator must give the same bound columns bit for bit, the same verdicts
and the same undecided list.
"""

import math
import os
import sys

import numpy as np
import pytest

from psg import ClassicPolicy, ConstantPolicy, FamilyPolicy, NesterovPolicy, weak_ergodic_bound
from psg.averaging import WeightRule
from psg.bounds import (CLASSIC, CONSTANT, FAMILY, NESTEROV, PROVEN, REFUTED, UNDECIDED,
                        Evaluator, classic_bound, constant_bound, evaluate, family_bound,
                        monotone_label, nesterov_bound, weak_label)
from psg.cli import check_trace, main, read_trace
from psg.core import REL_TOL, VALUE_BLOCK_CAP, leq_with_tol, power


# --- the whole-column evaluator, as it was ----------------------------------

def reference_weak_column(k, R, t, max_g, epochs):
    with np.errstate(over="ignore", invalid="ignore"):
        sum_low, sum_mid = power(t, 0.5 * (k - 1.0)), power(t, 0.5 * k)
        for start, end in epochs:
            for terms in (sum_low[start:end], sum_mid[start:end]):
                np.cumsum(terms, out=terms)
        top = power(t, 0.5 * (k + 1.0))
        top += sum_low
        top /= sum_mid
        top *= 0.5
        top *= R
        top *= max_g
        return top


def reference_weak_bound(R, t, k, max_g_norm):
    return reference_weak_column(float(k), R, np.arange(1.0, t + 1.0), max_g_norm, [(0, t)])[-1]


def reference_gap_verdict(avg, bound, low, high):
    avg, bound = np.asarray(avg, dtype=np.float64), np.asarray(bound, dtype=np.float64)
    finite = np.isfinite(avg) & np.isfinite(bound)
    provable = bool(finite.all())
    if not finite.any():
        return PROVEN if provable else UNDECIDED
    if not provable:
        avg, bound = avg[finite], bound[finite]
    excess = avg - avg[0]
    excess *= 1.0 - REL_TOL
    excess -= bound
    worst = int(np.argmax(excess))
    avg, bound = float(avg[worst]), float(bound[worst])
    if not leq_with_tol(avg - high, bound):
        return REFUTED
    if (provable and math.isfinite(low) and leq_with_tol(low, high)
            and leq_with_tol(avg - low, bound)):
        return PROVEN
    return UNDECIDED


def reference_value_mean(w, f_x, epochs):
    with np.errstate(over="ignore", invalid="ignore"):
        v = w * f_x
        for start, end in epochs:
            for sums in (v[start:end], w[start:end]):
                np.cumsum(sums, out=sums)
        return v / w


def reference_nondecreasing(x, new_epoch):
    prev, cur = x[:-1], x[1:]
    return bool(np.all(new_epoch[1:] | (prev <= cur) | leq_with_tol(prev, cur)))


def reference_evaluate(policy, ks, R, L, columns, bracket=None):
    eta = np.asarray(columns["eta"], dtype=np.float64)
    g_norm = np.asarray(columns["g_norm"], dtype=np.float64)
    epoch = np.asarray(columns["epoch"])
    new_epoch = np.ones(len(eta), dtype=bool)
    np.not_equal(epoch[1:], epoch[:-1], out=new_epoch[1:])
    t = np.arange(1.0, len(eta) + 1.0)
    max_g = np.empty(len(eta))
    starts = np.flatnonzero(new_epoch).tolist()
    epochs = list(zip(starts, starts[1:] + [len(eta)]))
    for start, end in epochs:
        t[start:end] -= start
        np.maximum.accumulate(g_norm[start:end], out=max_g[start:end])

    weak = {weak_label(k): float(k) for k in ks}
    lipschitz = {CLASSIC: classic_bound, CONSTANT: constant_bound, NESTEROV: nesterov_bound}
    bounds = {}
    for label in policy.bound_labels(ks, L):
        if label == FAMILY:
            bounds[label] = family_bound(R, t, max_g)
        elif label in weak:
            bounds[label] = reference_weak_column(weak[label], R, t, max_g, epochs)
        else:
            bounds[label] = lipschitz[label](R, L, t)

    certificates, undecided = {}, []
    certs = policy.certificates(ks, L)
    means = {k: reference_value_mean(WeightRule(k)(t, eta), columns["f_x"], epochs)
             for k in {cert.k for cert in certs}}
    for cert in certs:
        avg, bound = means[cert.k], bounds[cert.label]
        if cert.horizon is not None:
            decided = len(t) and t[-1] == cert.horizon
            avg, bound = (avg[-1:], bound[-1:]) if decided else ((), ())
        verdict = reference_gap_verdict(avg, bound, *(bracket or (-math.inf, math.inf)))
        certificates[cert.label] = verdict == PROVEN
        if verdict == UNDECIDED:
            undecided.append(cert.label)
    steps_valid = bool(np.all((eta > 0) & (eta < math.inf)))
    for k in policy.monotone_ks(ks):
        if not steps_valid:
            certificates[monotone_label(k)] = False
            continue
        with np.errstate(over="ignore"):
            ratio = WeightRule(k)(t, eta)
            ratio /= eta
        certificates[monotone_label(k)] = reference_nondecreasing(ratio, new_epoch)
    return bounds, certificates, undecided


# --- random runs, random chunks ---------------------------------------------

KS = (-1.0, -0.5, 0.0, 0.5, 2.0)
KINDS = ("family", "nesterov", "classic", "constant")


def random_case(seed):
    """(policy, ks, R, L, columns, bracket) of a random run with restarts."""
    rng = np.random.default_rng(seed)
    rows = int(rng.integers(1, 260))
    restarts = rng.random(rows) < rng.choice([0.0, 0.02, 0.3])
    restarts[0] = False
    epoch = np.cumsum(restarts).astype(np.float64)
    t = np.ones(rows)
    for start in np.flatnonzero(np.r_[True, restarts[1:]]):
        t[start:] = np.arange(1.0, rows - start + 1.0)
    R, L = float(rng.uniform(0.1, 3.0)), float(rng.uniform(0.5, 4.0))
    g_norm = rng.uniform(0.0, 2.0, rows) * (rng.random(rows) < 0.95)
    if rng.random() < 0.5:  # nonincreasing steps within each epoch, maybe one raised
        eta = R / (L * np.sqrt(t))
        if rng.random() < 0.5:
            eta[rng.integers(rows)] *= 1.5
    else:
        eta = np.exp(rng.normal(-1.0, 1.0, rows))
    if rng.random() < 0.1:
        eta[rng.integers(rows)] = rng.choice([0.0, -0.5, math.inf, math.nan])
    scale = 10.0 ** rng.uniform(-3, 1)
    f_x = np.abs(rng.normal(0.0, scale, rows)) / np.sqrt(t)
    if rng.random() < 0.2:  # a nonfinite value mean from here on in its epoch
        f_x[rng.integers(rows)] = rng.choice([math.inf, 1e308, -math.inf])
    kind = KINDS[seed % len(KINDS)]
    ks = tuple(k for k in KS if rng.random() < 0.5)
    if kind == "family":
        policy = FamilyPolicy(R=R, a=float(rng.uniform(0, 1)))
    elif kind == "nesterov":
        policy = NesterovPolicy(R=R)
    elif kind == "classic":
        policy = ClassicPolicy(R=R, L=L)
    else:  # the horizon is the last epoch's length half the time
        horizon = int(t[-1]) if rng.random() < 0.5 else int(rng.integers(1, 300))
        policy = ConstantPolicy(R=R, L=L, horizon_t=horizon)
    bracket = [None, (0.0, 0.0), (-scale, float(f_x.min())), (-math.inf, math.inf),
               (1.0, -1.0)][int(rng.integers(5))]
    columns = {"epoch": epoch, "eta": eta, "g_norm": g_norm, "f_x": f_x}
    return policy, ks, R, L, columns, bracket


def random_cuts(rng, rows):
    """Chunk edges 0 < ... < rows: one row each, a few at random, or none."""
    mode = int(rng.integers(3))
    if mode == 0:
        return list(range(1, rows))
    if mode == 1 and rows > 1:
        return sorted(set(rng.integers(1, rows, int(rng.integers(1, 8))).tolist()))
    return []


def chunked_evaluate(policy, ks, R, L, columns, bracket, cuts):
    evaluator = Evaluator(policy, ks, R, L)
    edges = [0, *cuts, len(columns["eta"])]
    pieces = [evaluator.feed({name: col[a:b] for name, col in columns.items()})
              for a, b in zip(edges, edges[1:])]
    bounds = {label: np.concatenate([piece[label] for piece in pieces])
              for label in evaluator.labels}
    return (bounds, *evaluator.verdicts(bracket))


def assert_same(got, want):
    (bounds, verdicts, undecided), (ref_bounds, ref_verdicts, ref_undecided) = got, want
    assert list(bounds) == list(ref_bounds)
    for label, column in bounds.items():
        assert column.tobytes() == np.asarray(ref_bounds[label]).tobytes(), label
    assert list(verdicts.items()) == list(ref_verdicts.items())
    assert undecided == ref_undecided


@pytest.mark.parametrize("seed", range(120))
def test_chunked_evaluator_keeps_the_bits_of_the_whole_column_one(seed):
    policy, ks, R, L, columns, bracket = random_case(seed)
    want = reference_evaluate(policy, ks, R, L, {n: c.copy() for n, c in columns.items()},
                              bracket)
    assert_same(evaluate(policy, ks, R, L, columns, bracket), want)
    rng = np.random.default_rng(1000 + seed)
    for _ in range(3):
        cuts = random_cuts(rng, len(columns["eta"]))
        assert_same(chunked_evaluate(policy, ks, R, L, columns, bracket, cuts), want)


def test_random_cases_cover_every_verdict_and_policy():
    seen_verdicts, seen_kinds = set(), set()
    for seed in range(120):
        policy, ks, R, L, columns, bracket = random_case(seed)
        _, verdicts, undecided = reference_evaluate(policy, ks, R, L, columns, bracket)
        seen_kinds.add(type(policy).__name__)
        for label, ok in verdicts.items():
            if not label.startswith("monotone_"):
                seen_verdicts.add(PROVEN if ok else UNDECIDED if label in undecided else REFUTED)
            else:
                seen_verdicts.add(("monotone", ok))
    assert seen_verdicts == {PROVEN, REFUTED, UNDECIDED, ("monotone", True), ("monotone", False)}
    assert len(seen_kinds) == 4


def test_a_horizon_is_decided_on_the_last_row_of_the_last_chunk():
    # constant, horizon 5: decided only when the last epoch has exactly 5 rows
    policy = ConstantPolicy(R=1.0, L=1.0, horizon_t=5)
    columns = {"epoch": np.array([0.0] * 3 + [1.0] * 5), "eta": np.full(8, 0.1),
               "g_norm": np.ones(8), "f_x": np.array([9.0] * 3 + [0.1] * 5)}
    want = reference_evaluate(policy, (0.0,), 1.0, 1.0, columns, (0.0, 0.0))
    assert want[1][CONSTANT] is True
    for cuts in ([3], [7], [4, 7], list(range(1, 8))):
        assert_same(chunked_evaluate(policy, (0.0,), 1.0, 1.0, columns, (0.0, 0.0), cuts), want)


@pytest.mark.parametrize("k", KS)
@pytest.mark.parametrize("t", [1, VALUE_BLOCK_CAP - 1, VALUE_BLOCK_CAP, VALUE_BLOCK_CAP + 1,
                               100_000])
def test_weak_ergodic_bound_keeps_its_bits(t, k):
    assert weak_ergodic_bound(1.7, t, k, 2.3) == reference_weak_bound(1.7, t, k, 2.3)


# --- psg check a chunk at a time ---------------------------------------------

def nonlip_trace(tmp_path, iterations, suffix="csv"):
    """A restarted sqrt-example trace, as the nonlip benchmark workload writes it."""
    config = tmp_path / "c.json"
    config.write_text(
        '{"problem": {"kind": "sqrt-example"}, "policy": {"kind": "family", "a": 0.0},'
        ' "weight_ks": [-1.0, 0.0, 2.0], "iterations": %d, "initial_point": [0.9],'
        ' "restart_factor": 2.0, "trace_path": "trace.%s"}' % (iterations, suffix))
    assert main(["run", "--config", str(config), "--out-dir", str(tmp_path), "--strict"]) == 0
    return tmp_path / f"trace.{suffix}", config


@pytest.mark.parametrize("suffix", ["csv", "npz"])
def test_check_in_chunks_is_check_of_whole_columns(tmp_path, suffix):
    from psg.problems import make_sqrt_example

    trace, _ = nonlip_trace(tmp_path, 9000, suffix)
    meta, cols = read_trace(trace)
    assert cols["epoch"][-1] >= 4
    whole = check_trace(meta, [cols], make_sqrt_example())
    assert all(ok for _, ok, _ in whole), whole
    rng = np.random.default_rng(5)
    for cuts in ([VALUE_BLOCK_CAP, 2 * VALUE_BLOCK_CAP], sorted(rng.integers(1, 9000, 40)),
                 list(range(1, 40))):
        edges = [0, *cuts, 9000]
        chunks = ({name: col[a:b] for name, col in cols.items()} for a, b in zip(edges, edges[1:]))
        assert check_trace(meta, chunks, make_sqrt_example()) == whole


def test_check_carries_each_structural_check_across_a_chunk_edge(tmp_path):
    from psg.problems import make_sqrt_example

    trace, _ = nonlip_trace(tmp_path, 300)
    meta, cols = read_trace(trace)
    edge = int(np.flatnonzero(np.diff(cols["epoch"]))[0]) + 1  # the first restart's row
    # each defect sits across the edge between two chunks; each fails its check alone
    defects = {
        "s_counts_1_to_t": ("s", lambda c: np.r_[c[:edge], c[edge:] + 1]),
        "epoch_counts_restarts": ("epoch", lambda c: np.r_[c[:edge], c[edge:] + 1]),
        "G_nondecreasing": ("G", lambda c: np.r_[c[:edge + 1], c[edge] / 2, c[edge + 2:]]),
        "f_best_running_min": ("f_best", lambda c: np.r_[c[:edge], c[edge:] - 1]),
    }
    for name, (column, change) in defects.items():
        bad = dict(cols, **{column: change(cols[column])})
        for cuts in ([edge], [edge + 1], [edge - 1, edge, edge + 1]):
            edges = [0, *cuts, len(cols["s"])]
            chunks = ({n: c[a:b] for n, c in bad.items()} for a, b in zip(edges, edges[1:]))
            results = {check: ok for check, ok, _ in check_trace(meta, chunks,
                                                                 make_sqrt_example())}
            assert results[name] is False, (name, cuts)


# --- the run's record ------------------------------------------------------------

def test_growing_the_record_keeps_every_row(tmp_path):
    from psg.problems import make_sqrt_example

    # 70,000 rows: the record grows past 2^15 rows twice
    (tmp_path / "long").mkdir()
    (tmp_path / "short").mkdir()
    meta, cols = read_trace(nonlip_trace(tmp_path / "long", 70_000, "npz")[0])
    _, head = read_trace(nonlip_trace(tmp_path / "short", 20_000, "npz")[0])
    assert len(cols["s"]) == 70_000 and cols["epoch"][-1] >= 4
    for name, column in head.items():
        assert column.tobytes() == cols[name][:20_000].tobytes(), name
    results = check_trace(meta, [cols], make_sqrt_example())
    assert all(ok for _, ok, _ in results), results


# --- memory --------------------------------------------------------------------

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tools"))
import mem_growth  # noqa: E402


def test_run_and_check_memory_grows_with_the_trace_not_with_temporaries(tmp_path):
    # nonlip at 100,000 iterations: the returned trace is 8.8 MB of the run's
    # growth; before the chunked evaluator run grew 15.1 MB and check 19.1 MB
    growth = mem_growth.measure(100_000, "csv", str(tmp_path))
    assert growth["run"]["exit"] == 0 and growth["check"]["exit"] == 0
    assert growth["run"]["growth_mb"] <= 11.0, growth
    assert growth["check"]["growth_mb"] <= 5.0, growth
    # a .npz trace is written from the same record; its check reads the trace whole
    growth = mem_growth.measure(100_000, "npz", str(tmp_path))
    assert growth["run"]["exit"] == 0 and growth["check"]["exit"] == 0
    assert growth["run"]["growth_mb"] <= 11.0, growth
