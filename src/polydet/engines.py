"""Five evaluators of the mixed discriminant of a matrix tuple.

For an argument tuple (A_1, ..., A_N) of N complex N x N matrices the value
is the symmetric N-linear function that collapses to det(A) when all
arguments coincide.  The engines compute it by these routes:

    naive             index sums against the antisymmetric symbol, over
                      the N! index tuples where it is non-zero:
                      (1/N!) sum_{i,i'} eps(i) eps(i') prod_k A_k[i_k, i'_k]
    permutation_pair  double sum over permutation pairs (sigma, mu):
                      (1/N!) sum sgn(sigma) sgn(mu) prod_k A_k[sigma(k), mu(k)]
    subset_sum        inclusion-exclusion over +-1 sign vectors delta
                      with delta_1 = +1 fixed (the pair delta, -delta gives
                      equal terms), 2^(N-1) determinants:
                      1/(2^(N-1) N!) sum_delta prod(delta) det(sum_k delta_k A_k),
                      on arguments scaled to unit max-abs entry, with the
                      determinants taken 2^8 at a time by one stacked ``det``
    trace_formula     the cycle form of the determinant, polarized, with one
                      trace per distinct index cycle:
                      (1/N!) sum_sigma sgn(sigma) prod_{cycles (i_1 ... i_L) of sigma}
                      Tr(A_{i_1} ... A_{i_L})
    volume            signed average of N! row-mixed oriented volumes:
                      (1/N!) sum_sigma sgn(sigma) det(slot i holds row sigma(i) of A_i)

``naive`` and ``permutation_pair`` evaluate the same double sum, vectorized
differently.  Agreement of all five on random tuples is the package's core
cross-check.  One table maps each engine name to its kernel and its guard
(the largest N it accepts).  A public call validates its tuple once, into
an (N, N, N) stack, and the kernel works on that trusted stack;
``det_of_sum`` validates its summands once and calls the kernel for every
composition.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

from .combinatorics import (
    SUBSET_MAX_N,
    GuardLimitError,
    compositions,
    cycle_covers,
    iterate_subsets,  # noqa: F401  kept bound here for perfbench's traced run
    levi_civita,
    multinomial,
    permutation_sign,
)
from .matrices import as_stack, det, validate_matrix_tuple, word_traces

__all__ = [
    "PolydetResult",
    "polydet",
    "polydet_naive",
    "polydet_permutation_pair",
    "polydet_subset_sum",
    "polydet_trace_formula",
    "polydet_volume",
    "det_of_sum",
    "ENGINES",
    "DEFAULT_ENGINE",
]

# elements per temporary block in the vectorized permutation-pair product
_CHUNK_ELEMENTS = 1 << 22
# subset_sum: free signs in the sign-combination table, so one chunk is 2^8 matrices
_SUBSET_LOW_BITS = 8


@dataclass(frozen=True)
class PolydetResult:
    value: complex
    engine: str
    n: int


@lru_cache(maxsize=16)
def _perm_table(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Zero-based permutations of range(n) in lexicographic order, with signs."""
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
    signs = np.array([permutation_sign(p) for p in perms], dtype=np.float64)
    return perms, signs


def _naive_value(stack: np.ndarray) -> complex:
    n = stack.shape[0]
    perms, signs = _perm_table(n)
    cols = perms.T  # cols[k, b] = column index of slot k in the b-th inner term
    inner = np.empty((n, perms.shape[0]), dtype=np.complex128)
    acc = 0.0 + 0.0j
    # the n! permutations are the support of the Levi-Civita symbol
    for idx in itertools.permutations(range(1, n + 1)):
        for k in range(n):
            inner[k] = stack[k, idx[k] - 1, cols[k]]
        acc += levi_civita(idx) * (signs @ np.prod(inner, axis=0))
    return acc / math.factorial(n)


def _permutation_pair_value(mats: Sequence[np.ndarray]) -> complex:
    n = len(mats)
    perms, signs = _perm_table(n)
    m = perms.shape[0]
    chunk = max(1, _CHUNK_ELEMENTS // m)
    acc = 0.0 + 0.0j
    for start in range(0, m, chunk):
        rows = perms[start : start + chunk]
        block = mats[0][rows[:, 0][:, None], perms[None, :, 0]].copy()
        for k in range(1, n):
            block *= mats[k][rows[:, k][:, None], perms[None, :, k]]
        acc += signs[start : start + chunk] @ block @ signs
    return acc / math.factorial(n)


def _subset_sum_value(stack: np.ndarray) -> complex:
    """Inclusion-exclusion over the +-1 sign vectors with the first sign fixed.

    With U_k = A_k / max|A_k| and T = sum_k U_k, over a validated stack,

        eps = prod_k max|A_k| / (2^(N-1) N!)
              * sum_{I subset of {2..N}} (-1)^|I| det(T - 2 sum_{i in I} U_i).

    Summing prod(delta) det(sum_k delta_k U_k) over every delta in {+-1}^N
    keeps only the part linear in each U_k, which is 2^N N! eps(U).  delta
    and -delta give the same term, since both factors change by (-1)^N, so
    delta_1 = +1 is fixed and 2^(N-1) determinants remain.  Dividing each
    argument by its max-abs entry first (the value is multilinear) lets
    arguments of very different size cancel as accurately as unit-scale
    ones; an all-zero argument gives exactly 0.  The first k = min(N - 1, 8)
    free arguments give a table of 2^k sign combinations, built from T by
    doubling with one broadcast subtract of 2 U_i per argument.  Each subset
    of the other N - 1 - k subtracts twice its sum from the whole table, and
    that chunk's 2^k determinants come from one stacked ``det`` call.
    Memory is a few 2^k-row arrays at every n, never one row per sign vector.
    """
    n = stack.shape[0]
    norms = np.abs(stack).max(axis=(1, 2))
    if not norms.all():
        return 0j
    unit = stack / norms[:, None, None]
    twice = 2.0 * unit[1:]
    k = min(n - 1, _SUBSET_LOW_BITS)
    # low[s] = T - 2 (sum of the free arguments whose bits are set in s), signs[s] = (-1)^|s|
    low = np.empty((1 << k, n, n), dtype=np.complex128)
    unit.sum(axis=0, out=low[0])
    signs = np.ones(1 << k)
    for i in range(k):
        np.subtract(low[: 1 << i], twice[i], out=low[1 << i : 2 << i])
        signs[1 << i : 2 << i] = -signs[: 1 << i]
    high = twice[k:]
    acc = 0.0 + 0.0j
    for mask in range(1 << (n - 1 - k)):
        picked = [j for j in range(n - 1 - k) if mask >> j & 1]
        chunk = low - high[picked].sum(axis=0) if picked else low
        acc += (-1) ** len(picked) * complex((signs * det(chunk)).sum())
    return acc * float(np.prod(norms)) / (2 ** (n - 1) * math.factorial(n))


def _trace_formula_value(stack: np.ndarray) -> complex:
    n = stack.shape[0]
    tr = word_traces(stack)
    total = sum(math.prod(map(tr, cycles), start=sign) for sign, cycles in cycle_covers(n))
    return total / math.factorial(n)


def _volume_value(stack: np.ndarray) -> complex:
    n = stack.shape[0]
    perms, signs = _perm_table(n)
    # slot i of the mixed matrix holds row sigma(i) of A_i (stack[k, r, :] = row r of A_k)
    mixed = stack[np.arange(n)[None, :], perms, :]
    dets = np.linalg.det(mixed)
    return complex(signs @ dets) / math.factorial(n)


#: engine name -> (kernel on a validated (N, N, N) stack, largest accepted N)
_TABLE: dict[str, tuple[Callable[[np.ndarray], complex], int]] = {
    "naive": (_naive_value, 6),
    "permutation_pair": (_permutation_pair_value, 7),
    "subset_sum": (_subset_sum_value, SUBSET_MAX_N),
    "trace_formula": (_trace_formula_value, 7),
    "volume": (_volume_value, 8),
}

DEFAULT_ENGINE = "subset_sum"


def _kernel(name: str, n: int) -> Callable[[np.ndarray], complex]:
    """The kernel of engine ``name`` for N = n arguments, past its guard."""
    if name not in _TABLE:
        raise ValueError(f"unknown engine {name!r}; expected one of {sorted(_TABLE)}")
    kernel, max_n = _TABLE[name]
    if n > max_n:
        raise GuardLimitError(f"engine {name!r} guarded at n <= {max_n}, got n={n}")
    return kernel


def _engine(name: str) -> Callable[[Sequence], PolydetResult]:
    def run(mats: Sequence) -> PolydetResult:
        n, stack = validate_matrix_tuple(mats)
        return PolydetResult(_kernel(name, n)(stack), name, n)

    run.__name__ = run.__qualname__ = f"polydet_{name}"
    return run


ENGINES: dict[str, Callable[[Sequence], PolydetResult]] = {name: _engine(name) for name in _TABLE}

polydet_naive = ENGINES["naive"]
polydet_permutation_pair = ENGINES["permutation_pair"]
polydet_subset_sum = ENGINES["subset_sum"]
polydet_trace_formula = ENGINES["trace_formula"]
polydet_volume = ENGINES["volume"]


def polydet(mats: Sequence, engine: Optional[str] = None) -> PolydetResult:
    """Dispatch to a named engine (default: subset_sum)."""
    name = DEFAULT_ENGINE if engine is None else engine
    if name not in ENGINES:
        _kernel(name, 0)  # raises the unknown-engine error
    return ENGINES[name](mats)


def det_of_sum(mats: Sequence, engine: Optional[str] = None) -> complex:
    """det(A_1 + ... + A_r) evaluated through the multinomial expansion.

    Sums multinomial(N; k_1..k_r) * eps({A_1}^k_1, ..., {A_r}^k_r) over all
    compositions of N = matrix dimension into r non-negative parts.  The r
    summands are validated once; each repeated tuple goes to the engine's
    kernel as a row selection of that stack.
    """
    stack = as_stack(mats, name="summands")
    r, n = len(stack), stack.shape[-1]
    kernel = _kernel(DEFAULT_ENGINE if engine is None else engine, n)
    total = 0.0 + 0.0j
    for comp in compositions(n, r):
        total += multinomial(n, comp) * kernel(stack[np.repeat(np.arange(r), comp)])
    return total
