"""Randomized property suite over the engines, runnable from the CLI.

Every property is checked on seeded random instances; per-task RNG streams
are derived from (seed, property, n) so results do not depend on execution
order and the suite may run across threads.
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


def _run_property(
    name: str,
    n: int,
    trials: int,
    seed: int,
    engines: Mapping[str, Callable],
) -> PropertyResult:
    rng = np.random.default_rng([seed, PROPERTY_NAMES.index(name), n])
    ref = engines["subset_sum"]
    pairs: list[tuple[complex, complex]] = []
    for _ in range(trials):
        if name == "determinant_collapse":
            a = _rand_matrix(rng, n)
            pairs.append((ref([a] * n).value, det(a[None]).item()))
        elif name == "exchange_symmetry":
            mats = _rand_tuple(rng, n)
            i, j = rng.choice(n, size=2, replace=False)
            swapped = list(mats)
            swapped[i], swapped[j] = swapped[j], swapped[i]
            pairs.append((ref(mats).value, ref(swapped).value))
        elif name == "linearity":
            mats = _rand_tuple(rng, n)
            b, c = _rand_matrix(rng, n), _rand_matrix(rng, n)
            alpha = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            beta = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            combined = ref([alpha * b + beta * c] + mats[1:]).value
            split = alpha * ref([b] + mats[1:]).value + beta * ref([c] + mats[1:]).value
            pairs.append((combined, split))
        elif name == "identity_trace":
            a = _rand_matrix(rng, n)
            pairs.append((ref([a] + [identity(n)] * (n - 1)).value, np.trace(a) / n))
        elif name == "conjugation_invariance":
            mats = _rand_tuple(rng, n)
            u = _rand_invertible(rng, n)
            uinv = np.linalg.inv(u)
            moved = [u @ m @ uinv for m in mats]
            pairs.append((ref(moved).value, ref(mats).value))
        elif name == "subset_det_identity":
            mats = _rand_tuple(rng, n)
            pairs.append((ref(mats).value, engines["permutation_pair"](mats).value))
        elif name == "det_of_sum_identity":
            mats = _rand_tuple(rng, n)
            lhs = det(np.sum(mats, axis=0)[None]).item()
            pairs.append((lhs, _engines.det_of_sum(mats)))
        elif name == "factorization":
            mats = _rand_tuple(rng, n)
            m = _rand_matrix(rng, n)
            expected = det(m[None]).item() * ref(mats).value
            pairs.append((ref([m @ a for a in mats]).value, expected))
            pairs.append((ref([a @ m for a in mats]).value, expected))
        elif name == "volume_form":
            mats = _rand_tuple(rng, n)
            pairs.append((engines["volume"](mats).value, ref(mats).value))
        elif name == "cross_engine":
            mats = _rand_tuple(rng, n)
            base = ref(mats).value
            for other in ("naive", "permutation_pair", "trace_formula", "volume"):
                try:
                    pairs.append((engines[other](mats).value, base))
                except GuardLimitError:
                    continue
        else:
            raise ValueError(f"unknown property {name!r}")
    dev = max_deviation(pairs)
    return PropertyResult(name, n, trials, dev, TOL, dev <= TOL)


def run_property_suite(
    seed: int = 0,
    trials: int = 50,
    n_values: Sequence[int] = (2, 3, 4, 5),
    engines: Optional[Mapping[str, Callable]] = None,
    threads: int = 0,
) -> list[PropertyResult]:
    """Run every property for every dimension; deterministic for fixed inputs."""
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
