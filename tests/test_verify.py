import json

import pytest

from polydet.engines import ENGINES, PolydetResult
from polydet.verify import (
    PROPERTY_NAMES,
    report_json,
    report_lines,
    run_property_suite,
)


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
