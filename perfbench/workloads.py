"""The four workloads: their seeded inputs, the program calls they time, and their checks.

Each workload is a closed loop with one caller and no extra threads.  A pass
is one unit of the workload's fixed work; ``inputs(k)`` makes the inputs of
pass k from (seed, k) alone, ``references`` computes the benchmark's own
references for them (``oracles``; timed neither as set-up nor as a pass),
``run`` makes only program calls, each timed on its own under a slot name
(``Attempts``), and ``check`` compares the outputs with those references,
never with another polydet engine.

Why these four (each stresses a different layer):

* ladder   default-engine eps at n = 10, 12, 14: 2^n - 1 determinants per call,
           so the determinant kernel and subset enumeration do nearly all the
           work.  Half the tuples spread their argument norms over 1e-3..1e3,
           which keeps the default engine's known scale defect in view.
* anomaly  the three-flavor pipeline: thousands of n = 3 calls, so per-call
           overhead (validation, dispatch, cofactor det) dominates.
* verify   the property suite (CLI defaults, one trial per pass): the only
           workload with repeated arguments (det_of_sum) and the only one that
           drives the four non-default engines.
* expand   the symbolic layer: expand_polydet(6), render, parse, evaluate.
"""

from __future__ import annotations

import cmath
import json
import math
import statistics
import time
from functools import cached_property
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import oracles
from .tracer import NullTracer

ROOT = Path(__file__).resolve().parent.parent

#: an operation whose relative error is above this has failed; the program's REL_TOL
ACC_TOL = 1e-9
#: conjugation_invariance draws its conjugator U with only |det U| > 1e-3, so cond(U)
#: is unbounded and the property FAILs now and then on correct engines: 1 of 3000
#: n = 5 trials reached 1.16e-9 (seed 1009, pass 96).  Such a FAIL is a miss; only
#: a deviation above this is a failed operation
CONDITIONING_TOL = 1e-6

KAPPA = 96.0 * math.sqrt(2.0)
VERTEX_COUNT = 987
EXPAND_TERMS = 720


class Check(NamedTuple):
    label: str
    ok: bool  # within ACC_TOL, or the gate holds; otherwise a miss (fail_frac)
    hard: bool  # a failed operation (failed, correct); a known-defect input only when not finite
    err: Optional[float]  # relative error against the benchmark's reference


def graded(label: str, err: float, known_defect: bool = False) -> Check:
    """A miss above ACC_TOL.  It is a failed operation too, unless the input is one
    of the known-defect inputs, which are measured and never gated."""
    ok = err <= ACC_TOL
    return Check(label, ok, not math.isfinite(err) or not (ok or known_defect), err)


def accuracy(label: str, value: complex, ref: complex, known_defect: bool = False) -> Check:
    return graded(label, oracles.rel_err(complex(value), complex(ref)), known_defect)


def gate(label: str, holds: bool) -> Check:
    return Check(label, bool(holds), not holds, None)


class Attempts:
    """Runs and times program calls, recording guard skips and failures instead of raising.

    Only the program's GuardLimitError is a skip.  Any other exception is a
    failed operation, recorded with its type and message.  ``times`` maps each
    call's slot (its place in the pass; the label unless given) to its seconds.
    """

    def __init__(self, tracer, guard_error: type) -> None:
        self.tracer = tracer
        self.guard_error = guard_error
        self.skips: list[tuple[str, str]] = []
        self.errors: list[tuple[str, str]] = []
        self.times: dict[str, float] = {}

    def __call__(self, label: str, fn: Callable, *args, span: Optional[str] = None, slot: Optional[str] = None):
        start = time.perf_counter()
        try:
            if span is None:
                return fn(*args)
            return self.tracer.call(span, fn, *args)
        except self.guard_error as exc:
            self.skips.append((label, str(exc)))
        except Exception as exc:  # the run goes on; the failure is counted and reported
            self.errors.append((label, f"{type(exc).__name__}: {exc}"))
        finally:
            self.times[slot or label] = time.perf_counter() - start
        return None


class Workload:
    name = ""
    pass_series = "pass_ms"
    #: wall_s is the sum over the pass's slots of this statistic of the slot's
    #: untraced call times: each call at its fastest (perfbench/README.md says why)
    slot_statistic = staticmethod(min)

    def __init__(self, prog, seed: int) -> None:
        self.prog = prog
        self.seed = seed

    def attempts(self, tracer) -> Attempts:
        return Attempts(tracer, self.prog.combinatorics.GuardLimitError)

    def warm_up(self) -> None:
        """Fill lazy state before timing; part of set-up, so it computes no reference."""
        self.run(self.inputs(0), NullTracer())

    def inputs(self, k: int):
        raise NotImplementedError

    def references(self, inp):
        """The benchmark's own references for ``inp``, computed outside every timer."""
        return None

    def run(self, inp, tracer) -> tuple[dict, Attempts]:
        """Program calls only: (outputs by label, attempts with the call times)."""
        raise NotImplementedError

    def check(self, inp, refs, outputs: dict) -> list[Check]:
        raise NotImplementedError


class LadderCase(NamedTuple):
    label: str
    n: int
    scaled: bool
    mats: list
    rows: list  # Gaussian-integer diagonals, divided by DIVISOR in the matrices
    scales: np.ndarray


#: diagonals are Gaussian integers in [-DIVISOR, DIVISOR], divided by DIVISOR
DIVISOR = 4


class Ladder(Workload):
    name = "ladder"
    pass_series = "ladder_pass_ms"
    # ~30 n = 14 calls of ~0.4 s a run: their fastest hangs on rare fast bursts of the host
    slot_statistic = staticmethod(statistics.median)
    SIZES = (10, 12, 14)

    def case(self, k: int, n: int) -> LadderCase:
        # odd passes are scaled; a traced run traces passes 2, 3, 6, 7, ... so both kinds
        scaled = k % 2 == 1
        rng = np.random.default_rng([self.seed, k, n])
        rows = oracles.gaussian_ints(rng, n, DIVISOR)
        scales = 10.0 ** rng.uniform(-3.0, 3.0, n) if scaled else np.ones(n)
        mats = oracles.conjugated_diagonals(rng, rows, DIVISOR, scales)
        return LadderCase(f"eps.n{n}.{'scaled' if scaled else 'unit'}", n, scaled, mats, rows, scales)

    def inputs(self, k: int) -> list[LadderCase]:
        return [self.case(k, n) for n in self.SIZES]

    def references(self, inp: list[LadderCase]) -> list[complex]:
        return [oracles.diagonal_reference(c.rows, DIVISOR, c.scales) for c in inp]

    def warm_up(self) -> None:
        self.prog.engines.polydet(self.case(0, self.SIZES[0]).mats)

    def run(self, inp: list[LadderCase], tracer):
        attempt = self.attempts(tracer)
        values = {}
        for c in inp:
            result = attempt(c.label, self.prog.engines.polydet, c.mats, slot=f"eps.n{c.n}")
            if result is not None:
                values[c.label] = result.value
        return values, attempt

    def check(self, inp: list[LadderCase], refs: list[complex], outputs):
        # the scaled tuples are the default engine's known scale defect
        return [
            accuracy(c.label, outputs[c.label], ref, known_defect=c.scaled)
            for c, ref in zip(inp, refs)
            if c.label in outputs
        ]


def _special_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    u = oracles.haar_unitary(rng, n)
    return u * complex(np.linalg.det(u)) ** (-1.0 / n)


def _boost(rapidity: float, axis: int) -> np.ndarray:
    lam = np.eye(4)
    lam[0, 0] = lam[axis, axis] = math.cosh(rapidity)
    lam[0, axis] = lam[axis, 0] = -math.sinh(rapidity)
    return lam


def _lorentz_exact(vec: tuple, ten: tuple) -> complex:
    """sum_{mu,nu} eps(V_mu, V_nu, T^{mu nu}), exact, for lower V and upper-upper T."""
    re = im = Fraction(0)
    for mu in range(4):
        for nu in range(4):
            z = oracles.eps3_exact([vec[mu], vec[nu], ten[4 * mu + nu]])
            re += z[0]
            im += z[1]
    return oracles.to_complex((re, im))


class AnomalyInputs(NamedTuple):
    su_pairs: list
    thetas: np.ndarray
    fe_seed: int
    vec: tuple
    ten: tuple
    lam: np.ndarray


class AnomalyRefs(NamedTuple):
    shifted: list  # per F0_SERIES entry
    lagrangian: dict  # by shifted
    lorentz: complex


class Anomaly(Workload):
    name = "anomaly"
    pass_series = "pipeline_ms"
    F0_SERIES = (0.9, 1e2, 1e5)
    TRIALS = 20

    def __init__(self, prog, seed: int) -> None:
        super().__init__(prog, seed)
        an = prog.anomaly
        with open(ROOT / "configs" / "fields_n3.json", encoding="utf-8") as fh:
            self.cfg = an.field_config_from_json(json.load(fh))
        with open(ROOT / "configs" / "couplings.json", encoding="utf-8") as fh:
            self.couplings = an.couplings_from_json(json.load(fh))
        basis = an.build_generators(3)
        self.a1, self.a2 = (an.assemble_field_matrix(basis, m.s, m.p) for m in self.cfg.multiplets)
        # the vacuum shift f0 t^0 with t^0 = 1/sqrt(6), spelled as the library spells it
        self.t0 = np.eye(3, dtype=np.complex128) / math.sqrt(6.0)
        self.shifted = [(f0, f0 * self.t0 + self.a1) for f0 in self.F0_SERIES]
        # the cached table, cleared before every pass so each pass starts cold
        self.clear_eps3_table = getattr(getattr(an, "_eps3_table", None), "cache_clear", lambda: None)

    def _lagrangian_exact(self, a1: np.ndarray) -> float:
        c, a2 = self.couplings, self.a2
        terms = (
            (c.c1, oracles.det3_exact(a1)),
            (c.c2, oracles.det3_exact(a2)),
            (c.c3, oracles.eps3_exact([a1, a1, a2])),
            (c.c4, oracles.eps3_exact([a1, a2, a2])),
        )
        return float(2 * sum(Fraction(k.real) * z[0] - Fraction(k.imag) * z[1] for k, z in terms))

    @cached_property
    def _fixed_refs(self) -> tuple[list, dict]:
        shifted = [oracles.to_complex(oracles.eps3_exact([b, b, self.a2])) for _, b in self.shifted]
        lagrangian = {
            False: self._lagrangian_exact(self.a1),
            True: self._lagrangian_exact(self.couplings.f0 * self.t0 + self.a1),
        }
        return shifted, lagrangian

    def inputs(self, k: int) -> AnomalyInputs:
        rng = np.random.default_rng([self.seed, k])
        su_pairs = [(_special_unitary(rng, 3), _special_unitary(rng, 3)) for _ in range(self.TRIALS)]
        thetas = rng.uniform(-math.pi, math.pi, self.TRIALS)
        fe_seed = int(rng.integers(2**31))
        vec = tuple(rng.uniform(-1, 1, (3, 3)) + 1j * rng.uniform(-1, 1, (3, 3)) for _ in range(4))
        ten = tuple(rng.uniform(-1, 1, (3, 3)) + 1j * rng.uniform(-1, 1, (3, 3)) for _ in range(16))
        lam = _boost(float(rng.uniform(-1.2, 1.2)), int(rng.integers(1, 4)))
        return AnomalyInputs(su_pairs, thetas, fe_seed, vec, ten, lam)

    def references(self, inp: AnomalyInputs) -> AnomalyRefs:
        return AnomalyRefs(*self._fixed_refs, _lorentz_exact(inp.vec, inp.ten))

    def run(self, inp: AnomalyInputs, tracer):
        an, eng = self.prog.anomaly, self.prog.engines
        attempt = self.attempts(tracer)
        out: dict = {}
        mats = [self.a1, self.a1, self.a2]
        self.clear_eps3_table()
        out["vertices"] = attempt("vertices", an.enumerate_vertices, self.couplings, span="anomaly.enumerate_vertices")
        out["field_expansion"] = attempt(
            "field_expansion", an.verify_field_expansion, inp.fe_seed, 200, span="anomaly.field_expansion"
        )
        for i, (u_l, u_r) in enumerate(inp.su_pairs):
            out[f"su.{i}"] = attempt(f"su.{i}", an.check_invariance, mats, u_l, u_r, span="anomaly.check_invariance")
        for i, theta in enumerate(inp.thetas):
            phase = cmath.exp(-1j * theta / math.sqrt(6.0))
            u_l, u_r = phase * np.eye(3), phase.conjugate() * np.eye(3)
            out[f"axial.{i}"] = attempt(
                f"axial.{i}", an.check_invariance, mats, u_l, u_r, span="anomaly.check_invariance"
            )
        for shifted in (False, True):
            label = f"lagrangian.{'shifted' if shifted else 'unshifted'}"
            out[label] = attempt(label, an.lagrangian_value, self.cfg, self.couplings, shifted, span="anomaly.lagrangian")

        vec = an.LorentzIndexedFamily(1, inp.vec, ("lower",))
        ten = an.LorentzIndexedFamily(2, inp.ten, ("upper", "upper"))

        def boosted():
            v, t = an.transform_family(vec, inp.lam), an.transform_family(ten, inp.lam)
            return an.lorentz_contracted_polydet(v, t), v, t

        out["lorentz.base"] = attempt("lorentz.base", an.lorentz_contracted_polydet, vec, ten, span="anomaly.lorentz")
        out["lorentz.boosted"] = attempt("lorentz.boosted", boosted, span="anomaly.lorentz")
        for f0, b in self.shifted:
            label = f"shifted_vacuum[f0={f0:g}]"
            result = attempt(label, eng.polydet, [b, b, self.a2])
            out[label] = None if result is None else result.value
        return out, attempt

    def check(self, inp: AnomalyInputs, refs: AnomalyRefs, out: dict) -> list[Check]:
        checks = []
        if out["vertices"] is not None:
            checks.append(gate("vertices", len(out["vertices"]) == VERTEX_COUNT))
        fe = out["field_expansion"]
        if fe is not None:
            checks.append(graded("field_expansion", max(abs(fe.kappa - KAPPA) / KAPPA, fe.max_residual)))
        for i in range(self.TRIALS):
            if out[f"su.{i}"] is not None:
                checks.append(accuracy(f"su.{i}", out[f"su.{i}"].ratio, 1.0))
            if out[f"axial.{i}"] is not None:
                predicted = cmath.exp(-1j * inp.thetas[i] * math.sqrt(6.0))
                checks.append(accuracy(f"axial.{i}", out[f"axial.{i}"].ratio, predicted))
        for shifted in (False, True):
            label = f"lagrangian.{'shifted' if shifted else 'unshifted'}"
            if out[label] is not None:
                checks.append(accuracy(label, out[label], refs.lagrangian[shifted]))
        if out["lorentz.base"] is not None:
            checks.append(accuracy("lorentz.base", out["lorentz.base"], refs.lorentz))
        if out["lorentz.boosted"] is not None:
            value, v, t = out["lorentz.boosted"]
            exact = _lorentz_exact(v.components, t.components)
            checks.append(accuracy("lorentz.boosted", value, exact))
            checks.append(accuracy("lorentz.invariance", exact, refs.lorentz))
        for (f0, _), ref in zip(self.shifted, refs.shifted):
            label = f"shifted_vacuum[f0={f0:g}]"
            if out[label] is not None:
                # f0 >= 1e2 spreads the argument norms: the known scale defect, measured not gated
                checks.append(accuracy(label, out[label], ref, known_defect=f0 >= 1e2))
        return checks


class Verify(Workload):
    name = "verify"
    pass_series = "suite_ms"
    N_VALUES = (2, 3, 4, 5)
    # One trial per property and n, with a fresh suite seed every pass: 50 passes
    # do the work of one CLI-default suite (50 trials).  A 50-trial suite takes
    # about 6 s, and on a shared host 6-second samples could not be timed steadily.
    TRIALS = 1

    def inputs(self, k: int) -> int:
        return int(np.random.default_rng([self.seed, k]).integers(2**31))

    def run(self, suite_seed: int, tracer):
        attempt = self.attempts(tracer)
        results = attempt(
            "suite", self.prog.verify.run_property_suite, suite_seed, self.TRIALS, self.N_VALUES, None, 0
        )
        return {"suite": results}, attempt

    def check(self, suite_seed: int, refs, out: dict) -> list[Check]:
        results = out["suite"]
        if results is None:
            return []
        checks = [gate("suite.size", len(results) == 10 * len(self.N_VALUES))]
        for r in results:
            ok = r.passed and r.max_dev <= ACC_TOL
            conditioning = r.name == "conjugation_invariance" and r.max_dev <= CONDITIONING_TOL
            checks.append(Check(f"{r.name}.n{r.n}", ok, not (ok or conditioning), r.max_dev))
        return checks


class Expand(Workload):
    name = "expand"
    pass_series = "expand_pass_ms"
    LABELS = ("A", "B", "C", "D", "E", "F")
    BINDINGS = 8

    def inputs(self, k: int) -> list[tuple[dict, list]]:
        """(binding, its Gaussian-integer diagonals) for each of the BINDINGS evaluations."""
        out = []
        for b in range(self.BINDINGS):
            rng = np.random.default_rng([self.seed, k, b])
            rows = oracles.gaussian_ints(rng, len(self.LABELS), DIVISOR)
            mats = oracles.conjugated_diagonals(rng, rows, DIVISOR, np.ones(len(self.LABELS)))
            out.append((dict(zip(self.LABELS, mats)), rows))
        return out

    def references(self, inp) -> list[complex]:
        return [oracles.diagonal_reference(rows, DIVISOR, np.ones(len(rows))) for _, rows in inp]

    def run(self, inp, tracer):
        sym = self.prog.symbolic
        attempt = self.attempts(tracer)
        out: dict = {}
        e = out["expansion"] = attempt("expand", sym.expand_polydet, 6, self.LABELS, span="symbolic.expand")
        if e is None:
            return out, attempt
        tracer.count("symbolic.terms", len(e.terms))
        for fmt in ("text", "latex", "json"):
            out[fmt] = attempt(f"render.{fmt}", sym.render, e, fmt, span="symbolic.render")
        if out["json"] is not None:
            parsed = out["parsed"] = attempt("parse", sym.parse_expansion, out["json"], span="symbolic.parse")
            if parsed is not None:
                out["json_again"] = attempt("render.again", sym.render, parsed, "json", span="symbolic.render")
        for i, (binding, _) in enumerate(inp):
            out[f"evaluate.{i}"] = attempt(f"evaluate.{i}", sym.evaluate, e, binding, span="symbolic.evaluate")
        return out, attempt

    def check(self, inp, refs: list[complex], out: dict) -> list[Check]:
        e = out["expansion"]
        if e is None:
            return []
        checks = [gate("expand.terms", len(e.terms) == EXPAND_TERMS)]
        for fmt in ("text", "latex"):
            if out[fmt] is not None:
                separators = out[fmt].count(" + ") + out[fmt].count(" - ")
                checks.append(gate(f"render.{fmt}", separators == EXPAND_TERMS - 1))
        if out.get("json_again") is not None:
            same = out["json_again"] == out["json"] and out["parsed"] == e
            checks.append(gate("json.round_trip", same))
        for i, ref in enumerate(refs):
            if out[f"evaluate.{i}"] is not None:
                checks.append(accuracy(f"evaluate.{i}", out[f"evaluate.{i}"], ref))
        return checks


WORKLOADS: dict[str, type[Workload]] = {w.name: w for w in (Ladder, Anomaly, Verify, Expand)}
