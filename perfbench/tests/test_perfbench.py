"""Tests of the benchmark itself: its references, inputs, tracing and output contract.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import itertools
import json
import math
import pickle
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from perfbench import harness, layers, oracles
from perfbench.tracer import NullTracer, Tracer
from perfbench.workloads import WORKLOADS, Check, graded

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _sign(perm) -> int:
    inversions = sum(1 for i, j in itertools.combinations(range(len(perm)), 2) if perm[i] > perm[j])
    return -1 if inversions % 2 else 1


def _permanent_brute(rows) -> tuple[int, int]:
    """Permanent by the defining sum over all n! permutations."""
    re, im = 0, 0
    for perm in itertools.permutations(range(len(rows))):
        t_re, t_im = 1, 0
        for i, j in enumerate(perm):
            a, b = rows[i][j]
            t_re, t_im = t_re * a - t_im * b, t_re * b + t_im * a
        re += t_re
        im += t_im
    return re, im


@pytest.mark.parametrize("n", range(1, 7))
def test_ryser_matches_brute_force_permanent(n):
    for seed in range(4):
        rows = oracles.gaussian_ints(np.random.default_rng([seed, n]), n, 5)
        assert oracles.permanent_exact(rows) == _permanent_brute(rows)


def _eps3_by_permutation_pairs(mats) -> tuple[Fraction, Fraction]:
    """(1/3!) sum_{sigma, mu} sgn(sigma) sgn(mu) prod_k A_k[sigma(k), mu(k)], in integers."""
    re = im = 0
    for sigma in itertools.permutations(range(3)):
        for mu in itertools.permutations(range(3)):
            acc = (1, 0)
            for k in range(3):
                z = mats[k][sigma[k], mu[k]]
                a, b = int(z.real), int(z.imag)
                acc = (acc[0] * a - acc[1] * b, acc[0] * b + acc[1] * a)
            s = _sign(sigma) * _sign(mu)
            re += s * acc[0]
            im += s * acc[1]
    return Fraction(re, 6), Fraction(im, 6)


def test_exact_eps3_matches_permutation_pairs_on_integer_matrices():
    rng = np.random.default_rng(7)
    for _ in range(20):
        mats = [rng.integers(-9, 10, (3, 3)) + 1j * rng.integers(-9, 10, (3, 3)) for _ in range(3)]
        assert oracles.eps3_exact(mats) == _eps3_by_permutation_pairs(mats)
        a = mats[0]
        assert oracles.eps3_exact([a, a, a]) == oracles.det3_exact(a)


def test_exact_eps3_is_exact_on_binary_fractions():
    # entries with many bits and mixed exponents still give the exact value
    a = np.array([[1e-30, 3.0, 0.5], [2.0**-60, 1.0, 7.0], [1.0, 2.0, 3e20]], dtype=complex)
    scaled = oracles.eps3_exact([2.0 * a, a, a])
    plain = oracles.eps3_exact([a, a, a])
    assert scaled == (2 * plain[0], 2 * plain[1])


@pytest.fixture(scope="module")
def prog():
    return harness.load_program()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_are_deterministic_in_the_seed(prog, name):
    same = [pickle.dumps(WORKLOADS[name](prog, 3).inputs(1)) for _ in range(2)]
    other = pickle.dumps(WORKLOADS[name](prog, 4).inputs(1))
    assert same[0] == same[1]
    assert other != same[0]


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def passes(request, prog):
    """One untraced and two traced passes of a workload on the same inputs."""
    wl = WORKLOADS[request.param](prog, 5)
    inp = wl.inputs(0)
    plain, attempt = wl.run(inp, NullTracer())
    tracer = Tracer()
    traced = []
    for _ in range(2):
        layers.instrument(prog, tracer)
        tracer.counts.clear()
        lo = tracer.mark()
        try:
            out, _ = wl.run(inp, tracer)
        finally:
            tracer.restore()
        traced.append((out, layers.pass_metrics(tracer.totals(lo), tracer.counts)))
    return wl, inp, plain, attempt, tracer, traced


def test_traced_and_untraced_outputs_are_identical(passes):
    wl, inp, plain, attempt, _, traced = passes
    assert not attempt.errors
    assert pickle.dumps(traced[0][0]) == pickle.dumps(plain)
    assert all(not c.hard for c in wl.check(inp, wl.references(inp), plain))


def test_every_call_of_a_pass_is_timed_in_its_own_slot(passes):
    wl, inp, plain, attempt, _, _ = passes
    assert attempt.times and all(t > 0 for t in attempt.times.values())
    if wl.name == "ladder":
        assert sorted(attempt.times) == [f"eps.n{n}" for n in wl.SIZES]
    else:
        # one slot per call; every output of the pass comes from one call
        assert len(attempt.times) >= len([v for v in plain.values() if v is not None])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_set_up_computes_no_reference(prog, name, monkeypatch):
    def refuse(*args):
        raise AssertionError("a reference was computed during set-up")

    for oracle in ("permanent_exact", "eps3_exact", "det3_exact"):
        monkeypatch.setattr(oracles, oracle, refuse)
    WORKLOADS[name](prog, 2).warm_up()


def test_a_failing_property_is_a_failed_operation(prog):
    wl = WORKLOADS["verify"](prog, 1)

    def graded_property(name, max_dev):
        result = SimpleNamespace(name=name, n=5, max_dev=max_dev, passed=max_dev <= 1e-9)
        (size, check) = wl.check(0, None, {"suite": [result] * 40})[:2]
        return size.ok, check.ok, check.hard

    assert graded_property("linearity", 1e-12) == (True, True, False)
    assert graded_property("linearity", 2e-9) == (True, False, True)
    assert graded_property("conjugation_invariance", 2e-9) == (True, False, False)
    assert graded_property("conjugation_invariance", 2e-6) == (True, False, True)


def test_no_self_time_is_negative(passes):
    tracer = passes[4]
    _, self_ns = tracer.self_ns()
    assert len(self_ns) > 0
    assert self_ns.min() >= 0


def test_two_traced_passes_give_the_same_counts(passes):
    (_, first), (_, second) = passes[5]
    assert {k: first[k] for k in layers.REPEATABLE_COUNTS} == {k: second[k] for k in layers.REPEATABLE_COUNTS}


def test_instrumentation_is_fully_undone(prog):
    def bound():
        return (prog.engines.det, prog.anomaly.det, prog.verify.det, prog.engines.polydet, dict(prog.engines.ENGINES))

    before = bound()
    tracer = Tracer()
    assert layers.instrument(prog, tracer) == []
    tracer.restore()
    assert bound() == before


def test_a_lost_hook_is_reported(prog, monkeypatch):
    monkeypatch.delattr(prog.engines, "validate_matrix_tuple")
    tracer = Tracer()
    try:
        missing = layers.instrument(prog, tracer)
    finally:
        tracer.restore()
    assert missing == ["polydet.engines.validate_matrix_tuple"]


def test_graded_checks():
    assert graded("x", 1e-10) == Check("x", True, False, 1e-10)
    assert graded("x", 2e-9) == Check("x", False, True, 2e-9)
    assert graded("x", 1e20, known_defect=True) == Check("x", False, False, 1e20)
    assert graded("x", math.inf, known_defect=True).hard


def test_self_time_excludes_children():
    tracer = Tracer()
    tracer.call("outer", lambda: tracer.call("inner", lambda: sum(range(20000))))
    totals = tracer.totals()
    outer, inner = totals["outer"], totals["inner"]
    assert outer.self_ns == outer.total_ns - inner.total_ns
    assert inner.self_ns == inner.total_ns


def test_percentile_tail_needs_ten_samples_above():
    assert harness.series_stats([1.0] * 39)["tail"] is None
    stats = harness.series_stats(list(range(100)))
    assert stats["tail_pct"] == 90.0 and stats["tail"] == 89


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, *BENCHMARK["command"][1:], *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_last_line_follows_the_contract(trace):
    proc = _run(ROOT, "--workload", "expand", "--seed", "1", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {k: v["unit"] for k, v in result["metrics"].items()}


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "ladder", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
