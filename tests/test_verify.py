import json

import numpy as np
import pytest

import polydet.engines as engines_module
from polydet import verify
from polydet.combinatorics import GuardLimitError
from polydet.engines import ENGINES, PolydetResult
from polydet.matrices import det, identity, max_deviation
from polydet.verify import (
    MAX_CONJUGATOR_COND,
    PROPERTY_NAMES,
    TOL,
    PropertyResult,
    report_json,
    report_lines,
    run_property_suite,
)


def property_suite_reference(seed, trials, n_values):
    """The suite as one ``subset_sum`` call per tuple, with the suite's draws in the suite's order."""

    def rand_matrix(rng, n):
        return rng.uniform(-1.0, 1.0, (n, n)) + 1j * rng.uniform(-1.0, 1.0, (n, n))

    def rand_invertible(rng, n):
        while True:
            m = rand_matrix(rng, n)
            if np.linalg.cond(m, 1) < MAX_CONJUGATOR_COND:
                return m

    def rand_tuple(rng, n):
        return [rand_matrix(rng, n) for _ in range(n)]

    def run(name, n):
        rng = np.random.default_rng([seed, PROPERTY_NAMES.index(name), n])
        ref = ENGINES["subset_sum"]
        pairs = []
        for _ in range(trials):
            if name == "determinant_collapse":
                a = rand_matrix(rng, n)
                pairs.append((ref([a] * n).value, det(a)))
            elif name == "exchange_symmetry":
                mats = rand_tuple(rng, n)
                i, j = rng.choice(n, size=2, replace=False)
                swapped = list(mats)
                swapped[i], swapped[j] = swapped[j], swapped[i]
                pairs.append((ref(mats).value, ref(swapped).value))
            elif name == "linearity":
                mats = rand_tuple(rng, n)
                b, c = rand_matrix(rng, n), rand_matrix(rng, n)
                alpha = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                beta = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                combined = ref([alpha * b + beta * c] + mats[1:]).value
                split = alpha * ref([b] + mats[1:]).value + beta * ref([c] + mats[1:]).value
                pairs.append((combined, split))
            elif name == "identity_trace":
                a = rand_matrix(rng, n)
                pairs.append((ref([a] + [identity(n)] * (n - 1)).value, np.trace(a) / n))
            elif name == "conjugation_invariance":
                mats = rand_tuple(rng, n)
                u = rand_invertible(rng, n)
                uinv = np.linalg.inv(u)
                pairs.append((ref([u @ m @ uinv for m in mats]).value, ref(mats).value))
            elif name == "subset_det_identity":
                mats = rand_tuple(rng, n)
                pairs.append((ref(mats).value, ENGINES["permutation_pair"](mats).value))
            elif name == "det_of_sum_identity":
                mats = rand_tuple(rng, n)
                pairs.append((det(np.sum(mats, axis=0)), engines_module.det_of_sum(mats)))
            elif name == "factorization":
                mats = rand_tuple(rng, n)
                m = rand_matrix(rng, n)
                expected = det(m) * ref(mats).value
                pairs.append((ref([m @ a for a in mats]).value, expected))
                pairs.append((ref([a @ m for a in mats]).value, expected))
            elif name == "volume_form":
                mats = rand_tuple(rng, n)
                pairs.append((ENGINES["volume"](mats).value, ref(mats).value))
            elif name == "cross_engine":
                mats = rand_tuple(rng, n)
                base = ref(mats).value
                for other in ("naive", "permutation_pair", "trace_formula", "volume"):
                    try:
                        pairs.append((ENGINES[other](mats).value, base))
                    except GuardLimitError:
                        continue
        dev = max_deviation(pairs)
        return PropertyResult(name, n, trials, dev, TOL, dev <= TOL)

    return [run(name, n) for name in PROPERTY_NAMES for n in n_values]


@pytest.mark.parametrize(
    "seed, trials", [(0, 1), (7, 1), (2024, 1), (0, 3), (891916286, 3), (643643832, 3), (5, 50), (9, 70), (11, 70)]
)
def test_suite_equals_one_call_per_tuple(seed, trials):
    # the batched reference values give every result bit for bit; 70 trials take two blocks
    assert run_property_suite(seed, trials, (2, 3, 4, 5)) == property_suite_reference(seed, trials, (2, 3, 4, 5))


def test_reference_values_take_one_batch_per_property_and_block(monkeypatch):
    # one polydet_many call per (property, n, block of 64 trials), none for
    # det_of_sum_identity, and the default engine is not read from ``engines``
    batches = []
    many = engines_module.polydet_many

    def counting(tuples, engine=None):
        batches.append(len(tuples))
        return many(tuples, engine)

    monkeypatch.setattr(engines_module, "polydet_many", counting)
    others = {name: fn for name, fn in ENGINES.items() if name != "subset_sum"}
    per_trial = {"exchange_symmetry": 2, "linearity": 3, "conjugation_invariance": 2, "factorization": 3}
    for name in PROPERTY_NAMES:
        for n in (2, 4):
            batches.clear()
            assert verify._run_property(name, n, 70, 3, others).passed
            k = 0 if name == "det_of_sum_identity" else per_trial.get(name, 1)
            assert batches == ([64 * k, 6 * k] if k else [])


def test_suite_passes_on_small_run():
    results = run_property_suite(seed=3, trials=4, n_values=(2, 3))
    assert results
    assert all(r.passed for r in results)
    assert {r.name for r in results} == set(PROPERTY_NAMES)


def test_suite_threaded_matches_sequential():
    seq = run_property_suite(seed=9, trials=3, n_values=(2, 3), threads=0)
    par = run_property_suite(seed=9, trials=3, n_values=(2, 3), threads=4)
    assert seq == par


def test_suite_passes_where_conjugation_cancels_hard():
    # at this seed the first n = 5 conjugator drawn has cond 4.7e3; the 0/1
    # subset-sum kernel gave conjugation_invariance a deviation of 4.3e-9 (tol
    # 1e-9), the +-1 form 7e-11.  Since conjugators are bounded by
    # MAX_CONJUGATOR_COND that one is redrawn.
    results = run_property_suite(seed=643643832, trials=1, n_values=(5,))
    assert {r.name for r in results} == set(PROPERTY_NAMES)
    assert all(r.passed for r in results), [(r.name, r.max_dev) for r in results if not r.passed]


def test_suite_passes_where_the_conjugator_was_ill_conditioned():
    # this suite seed (pass 272 of the verify benchmark at seed 2106) drew an
    # n = 3 conjugator with cond 5.9e3, and conjugation_invariance deviated by
    # 5.2e-7 on correct engines; the conjugator redrawn below MAX_CONJUGATOR_COND
    # gives 3.5e-16
    results = run_property_suite(seed=891916286, trials=1, n_values=(3,))
    assert all(r.passed for r in results), [(r.name, r.max_dev) for r in results if not r.passed]


def test_suite_detects_corrupted_engine():
    broken = dict(ENGINES)
    good = broken["volume"]
    broken["volume"] = lambda mats: PolydetResult(good(mats).value + 0.5, "volume", len(mats))
    results = run_property_suite(seed=1, trials=2, n_values=(2,), engines=broken)
    failing = {r.name for r in results if not r.passed}
    assert "volume_form" in failing
    assert "cross_engine" in failing


def test_suite_refuses_an_empty_n_values():
    # a run over no n checks nothing, so report_json must not get to say it passed
    with pytest.raises(ValueError, match="n_values is empty"):
        run_property_suite(seed=5, trials=2, n_values=())


def test_report_lines_format():
    results = run_property_suite(seed=5, trials=2, n_values=(2,))
    lines = report_lines(results)
    assert len(lines) == len(results)
    assert all(line.startswith("PASS") for line in lines)


def test_report_json_shape():
    results = run_property_suite(seed=5, trials=2, n_values=(2, 3))
    payload = json.loads(report_json(results))
    assert payload["passed"] is True
    assert len(payload["properties"]) == len(PROPERTY_NAMES) * 2
    entry = payload["properties"][0]
    assert set(entry) == {"name", "n", "trials", "max_dev", "tol", "passed"}
