"""Where the benchmark records spans and counts, and the per-layer metrics they give.

Every polydet module binds its imports with ``from ... import``, so each
name is swapped where its caller looks it up:

    polydet.engines.det                    span matrices.det, ops counted from n,
                                           count engines.det_calls
    polydet.anomaly.det, polydet.verify.det
                                           span matrices.det, ops counted from n
    polydet.engines.validate_matrix_tuple  span matrices.validate
    polydet.engines.iterate_subsets        count combinatorics.subsets.yielded
    polydet.engines.compositions           count combinatorics.compositions.yielded
    polydet.engines.polydet                span engines.dispatch
    polydet.anomaly.polydet                span engines.dispatch, count anomaly.polydet_calls
    polydet.engines.det_of_sum             span engines.det_of_sum (verify calls it as
                                           polydet.verify._engines.det_of_sum)
    polydet.engines.ENGINES[name]          span engines.<name>, count engines.guard_skips
    polydet.anomaly._eps3_table            span anomaly.eps3_table
    polydet.verify._run_property           span verify.<property>

The anomaly and symbolic entry points are called by the workloads
themselves, which open their spans (anomaly.*, symbolic.*) at the call site.

The metric names and units are declared once, in BENCHMARK.json's
``per_layer`` list; ``pass_metrics`` computes a figure for each of them.
"""

from __future__ import annotations

import statistics
from typing import Sequence

from .tracer import SpanTotals, Tracer

ENGINE_NAMES = ("naive", "permutation_pair", "subset_sum", "trace_formula", "volume")

PROPERTY_NAMES = (
    "determinant_collapse",
    "exchange_symmetry",
    "linearity",
    "identity_trace",
    "conjugation_invariance",
    "subset_det_identity",
    "det_of_sum_identity",
    "factorization",
    "volume_form",
    "cross_engine",
)

#: counts that must repeat exactly between passes of the same workload
REPEATABLE_COUNTS = (
    "matrices.validate.calls",
    "matrices.det.calls",
    "matrices.det.ops_computed",
    "engines.det_calls",
    "combinatorics.subsets.yielded",
    "combinatorics.compositions.yielded",
    "engines.eps_calls",
    "engines.dets_per_eps",
    "anomaly.polydet_calls",
    "symbolic.terms",
) + tuple(f"engines.{e}.calls" for e in ENGINE_NAMES)


def det_ops(n: int) -> int:
    """Complex arithmetic operations of one determinant, computed from n (not measured).

    n <= 3 follows the closed-form cofactor route (0, 3 and 14 operations);
    n >= 4 counts the 2n^3/3 operations of an LU factorization.
    """
    if n <= 3:
        return (0, 0, 3, 14)[n]
    return round(2 * n**3 / 3)


def instrument(prog, tracer: Tracer) -> list[str]:
    """Swap the traced stand-ins in; ``tracer.restore()`` undoes it.

    Returns the names the program no longer binds.  They are left alone, and
    the run reports each as a failure: their metrics would read 0, which must
    not pass for a gain.
    """
    eng, anomaly, verify = prog.engines, prog.anomaly, prog.verify
    guard_error = prog.combinatorics.GuardLimitError
    missing: list[str] = []

    def swap(owner, attr: str, make) -> None:
        if hasattr(owner, attr):
            tracer.patch(owner, attr, make(getattr(owner, attr)))
        else:
            missing.append(f"{owner.__name__}.{attr}")

    def det_counting_ops(count_key: str | None = None):
        def make(det):
            def counted(m, *args, **kwargs):
                tracer.count("matrices.det.ops_computed", det_ops(len(m)))
                if count_key:
                    tracer.count(count_key)
                return det(m, *args, **kwargs)

            return tracer.wrap("matrices.det", counted)

        return make

    swap(eng, "det", det_counting_ops("engines.det_calls"))
    swap(anomaly, "det", det_counting_ops())
    swap(verify, "det", det_counting_ops())
    swap(eng, "validate_matrix_tuple", lambda fn: tracer.wrap("matrices.validate", fn))
    swap(eng, "iterate_subsets", lambda fn: tracer.counting("combinatorics.subsets.yielded", fn))
    swap(eng, "compositions", lambda fn: tracer.counting("combinatorics.compositions.yielded", fn))

    dispatch = tracer.wrap("engines.dispatch", eng.polydet)

    def anomaly_dispatch(*args, **kwargs):
        tracer.count("anomaly.polydet_calls")
        return dispatch(*args, **kwargs)

    tracer.patch(eng, "polydet", dispatch)
    swap(anomaly, "polydet", lambda _: anomaly_dispatch)
    swap(eng, "det_of_sum", lambda fn: tracer.wrap("engines.det_of_sum", fn))

    def guard_counting(fn):
        def engine(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except guard_error:
                tracer.count("engines.guard_skips")
                raise

        return engine

    for name, fn in list(eng.ENGINES.items()):
        tracer.patch_item(eng.ENGINES, name, tracer.wrap(f"engines.{name}", guard_counting(fn)))
    swap(anomaly, "_eps3_table", lambda fn: tracer.wrap("anomaly.eps3_table", fn))
    swap(verify, "_run_property", lambda fn: tracer.wrap(lambda args: f"verify.{args[0]}", fn))
    return missing


def pass_metrics(spans: dict[str, SpanTotals], counts: dict[str, int]) -> dict[str, float]:
    """Per-layer figures of one traced pass: every per_layer metric but trace.overhead_s."""
    zero = SpanTotals(0, 0, 0)

    def calls(name: str) -> int:
        return spans.get(name, zero).calls

    def self_s(name: str) -> float:
        return spans.get(name, zero).self_ns / 1e9

    def total_s(name: str) -> float:
        return spans.get(name, zero).total_ns / 1e9

    eps_calls = sum(calls(f"engines.{e}") for e in ENGINE_NAMES)
    engine_dets = counts.get("engines.det_calls", 0)
    out: dict[str, float] = {
        "matrices.validate.calls": calls("matrices.validate"),
        "matrices.validate.self_s": self_s("matrices.validate"),
        "engines.dispatch.self_s": self_s("engines.dispatch"),
        "matrices.det.calls": calls("matrices.det"),
        "matrices.det.self_s": self_s("matrices.det"),
        "matrices.det.ops_computed": counts.get("matrices.det.ops_computed", 0),
        "combinatorics.subsets.yielded": counts.get("combinatorics.subsets.yielded", 0),
        "combinatorics.compositions.yielded": counts.get("combinatorics.compositions.yielded", 0),
        "engines.det_calls": engine_dets,
        "engines.eps_calls": eps_calls,
        "engines.dets_per_eps": engine_dets / eps_calls if eps_calls else 0.0,
        "engines.det_of_sum.self_s": self_s("engines.det_of_sum"),
        "engines.guard_skips": counts.get("engines.guard_skips", 0),
        "anomaly.eps3_table_s": total_s("anomaly.eps3_table"),
        "anomaly.enumerate_vertices.self_s": self_s("anomaly.enumerate_vertices"),
        "anomaly.field_expansion.self_s": self_s("anomaly.field_expansion"),
        "anomaly.check_invariance.self_s": self_s("anomaly.check_invariance"),
        "anomaly.lorentz.self_s": self_s("anomaly.lorentz"),
        "anomaly.polydet_calls": counts.get("anomaly.polydet_calls", 0),
        "symbolic.expand.self_s": self_s("symbolic.expand"),
        "symbolic.render.self_s": self_s("symbolic.render"),
        "symbolic.parse.self_s": self_s("symbolic.parse"),
        "symbolic.evaluate.self_s": self_s("symbolic.evaluate"),
        "symbolic.terms": counts.get("symbolic.terms", 0),
    }
    for e in ENGINE_NAMES:
        out[f"engines.{e}.calls"] = calls(f"engines.{e}")
        out[f"engines.{e}.self_s"] = self_s(f"engines.{e}")
    for p in PROPERTY_NAMES:
        out[f"verify.{p}_s"] = total_s(f"verify.{p}")
    return out


def combine(per_pass: Sequence[dict[str, float]]) -> dict[str, float]:
    """Median of each figure over the traced passes."""
    return {key: statistics.median(p[key] for p in per_pass) for key in per_pass[0]}
