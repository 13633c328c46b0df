"""Randomized property suite over the engines, runnable from the CLI.

Every property is checked on seeded random instances; per-task RNG streams
are derived from (seed, property, n) so results do not depend on execution
order and the suite may run across threads.  A property's default-engine
values come from one ``polydet_many`` batch per block of at most 64 trials:
its draw function queues the tuples each trial needs and turns their values
into the trial's (value, expected) pairs.  Rows of a batch equal single
``polydet`` calls bit for bit, so the results are those of one call per tuple.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from . import engines as _engines
from .combinatorics import GuardLimitError
# ``det`` is the trusted stack kernel: the matrices are drawn here, finite and square
from .matrices import REL_TOL, det_stack as det, identity, max_deviation

__all__ = ["PropertyResult", "run_property_suite", "PROPERTY_NAMES", "report_lines", "report_json"]

TOL = REL_TOL

class PropertyResult(NamedTuple):
    name: str
    n: int
    trials: int
    max_dev: float
    tol: float
    passed: bool


def _rand_matrix(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.uniform(-1.0, 1.0, (n, n)) + 1j * rng.uniform(-1.0, 1.0, (n, n))


#: A conjugator is redrawn until its 1-norm condition number is below this.
#: Over 3000 suites at n = 2..5, conjugation_invariance then deviates by at
#: most 8.5e-12, two orders under TOL, and 2.7% of draws or fewer are redrawn.
#: Bounding only |det U| let cond(U) reach 5.9e3 and the deviation 5.2e-7 on
#: correct engines.  The 1-norm takes an LU inverse, not the SVD of the 2-norm.
MAX_CONJUGATOR_COND = 100.0


def _rand_invertible(rng: np.random.Generator, n: int) -> np.ndarray:
    while True:
        m = _rand_matrix(rng, n)
        if np.linalg.cond(m, 1) < MAX_CONJUGATOR_COND:
            return m


def _rand_tuple(rng: np.random.Generator, n: int) -> list[np.ndarray]:
    return [_rand_matrix(rng, n) for _ in range(n)]


# One trial of each property: draw its instance, run the engines other than the
# default, and return (the tuples whose default-engine values it needs, the
# function from those values, in that order, to its (value, expected) pairs).
Draw = tuple[list, Callable[[list], list]]


def _determinant_collapse(rng, n, engines) -> Draw:
    a = _rand_matrix(rng, n)
    expected = det(a[None]).item()
    return [[a] * n], lambda v: [(v[0], expected)]


def _exchange_symmetry(rng, n, engines) -> Draw:
    mats = _rand_tuple(rng, n)
    i, j = rng.choice(n, size=2, replace=False)
    swapped = list(mats)
    swapped[i], swapped[j] = swapped[j], swapped[i]
    return [mats, swapped], lambda v: [(v[0], v[1])]


def _linearity(rng, n, engines) -> Draw:
    mats = _rand_tuple(rng, n)
    b, c = _rand_matrix(rng, n), _rand_matrix(rng, n)
    alpha = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    beta = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    rest = mats[1:]
    return [[alpha * b + beta * c] + rest, [b] + rest, [c] + rest], lambda v: [(v[0], alpha * v[1] + beta * v[2])]


def _identity_trace(rng, n, engines) -> Draw:
    a = _rand_matrix(rng, n)
    return [[a] + [identity(n)] * (n - 1)], lambda v: [(v[0], np.trace(a) / n)]


def _conjugation_invariance(rng, n, engines) -> Draw:
    mats = _rand_tuple(rng, n)
    u = _rand_invertible(rng, n)
    uinv = np.linalg.inv(u)
    return [[u @ m @ uinv for m in mats], mats], lambda v: [(v[0], v[1])]


def _subset_det_identity(rng, n, engines) -> Draw:
    mats = _rand_tuple(rng, n)
    other = engines["permutation_pair"](mats).value
    return [mats], lambda v: [(v[0], other)]


def _det_of_sum_identity(rng, n, engines) -> Draw:
    mats = _rand_tuple(rng, n)
    pair = (det(np.sum(mats, axis=0)[None]).item(), _engines.det_of_sum(mats))
    return [], lambda v: [pair]


def _factorization(rng, n, engines) -> Draw:
    mats = _rand_tuple(rng, n)
    m = _rand_matrix(rng, n)
    scale = det(m[None]).item()

    def pairs(v):
        expected = scale * v[0]
        return [(v[1], expected), (v[2], expected)]

    return [mats, [m @ a for a in mats], [a @ m for a in mats]], pairs


def _volume_form(rng, n, engines) -> Draw:
    mats = _rand_tuple(rng, n)
    other = engines["volume"](mats).value
    return [mats], lambda v: [(other, v[0])]


def _cross_engine(rng, n, engines) -> Draw:
    mats = _rand_tuple(rng, n)
    others = []
    for name in ("naive", "permutation_pair", "trace_formula", "volume"):
        try:
            others.append(engines[name](mats).value)
        except GuardLimitError:
            continue
    return [mats], lambda v: [(other, v[0]) for other in others]


_DRAWS: dict[str, Callable[..., Draw]] = {
    "determinant_collapse": _determinant_collapse,
    "exchange_symmetry": _exchange_symmetry,
    "linearity": _linearity,
    "identity_trace": _identity_trace,
    "conjugation_invariance": _conjugation_invariance,
    "subset_det_identity": _subset_det_identity,
    "det_of_sum_identity": _det_of_sum_identity,
    "factorization": _factorization,
    "volume_form": _volume_form,
    "cross_engine": _cross_engine,
}

#: The property names in suite order; a property's RNG stream is keyed on its index here.
PROPERTY_NAMES = tuple(_DRAWS)

#: Trials per ``polydet_many`` batch, a memory bound.  A 500-trial suite at
#: n = 2..6 peaks at 43 MB RSS with it and at 52 MB with one batch per property
#: and n, in 17-21 s and 16-20 s (5 alternating runs each, 2-CPU VM).
_BLOCK = 64


def _run_property(
    name: str,
    n: int,
    trials: int,
    seed: int,
    engines: Mapping[str, Callable],
) -> PropertyResult:
    if name not in _DRAWS:
        raise ValueError(f"unknown property {name!r}")
    draw = _DRAWS[name]
    rng = np.random.default_rng([seed, PROPERTY_NAMES.index(name), n])
    pairs: list[tuple[complex, complex]] = []
    for start in range(0, trials, _BLOCK):
        drawn = [draw(rng, n, engines) for _ in range(min(_BLOCK, trials - start))]
        queued = [mats for tuples, _ in drawn for mats in tuples]
        # rows of one batch equal single calls bit for bit; tolist gives Python complex
        values = _engines.polydet_many(queued).tolist() if queued else []
        at = 0
        for tuples, pairs_of in drawn:
            pairs += pairs_of(values[at : at + len(tuples)])
            at += len(tuples)
    dev = max_deviation(pairs)
    return PropertyResult(name, n, trials, dev, TOL, dev <= TOL)


def run_property_suite(
    seed: int = 0,
    trials: int = 50,
    n_values: Sequence[int] = (2, 3, 4, 5),
    engines: Optional[Mapping[str, Callable]] = None,
    threads: int = 0,
) -> list[PropertyResult]:
    """Run every property for every dimension; deterministic for fixed inputs.

    The default engine's values come from ``polydet_many``, one batch per
    property, n and block of 64 trials.  ``engines`` (default ``ENGINES``)
    supplies only the four engines checked against it: ``naive``,
    ``permutation_pair``, ``trace_formula`` and ``volume``; its
    ``subset_sum`` entry is not read.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if len(n_values) == 0:
        raise ValueError("n_values is empty, so the suite would check nothing")
    if bad := [n for n in n_values if n < 2]:
        raise ValueError(f"every n in n_values must be >= 2, got {bad[0]}")
    if engines is None:
        engines = _engines.ENGINES
    tasks = [(name, n) for name in PROPERTY_NAMES for n in n_values]
    if threads and threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            futures = [
                pool.submit(_run_property, name, n, trials, seed, engines)
                for name, n in tasks
            ]
            return [f.result() for f in futures]
    return [_run_property(name, n, trials, seed, engines) for name, n in tasks]


def report_lines(results: Sequence[PropertyResult]) -> list[str]:
    return [
        f"{'PASS' if r.passed else 'FAIL'} {r.name:<24s} n={r.n} trials={r.trials} "
        f"max_dev={r.max_dev:.3e} tol={r.tol:.1e}"
        for r in results
    ]


def report_json(results: Sequence[PropertyResult]) -> str:
    return json.dumps(
        {
            "passed": all(r.passed for r in results),
            "properties": [r._asdict() for r in results],
        },
        sort_keys=True,
    )
