"""Five independent evaluators of the mixed discriminant of a matrix tuple.

For an argument tuple (A_1, ..., A_N) of N complex N x N matrices the value
is the symmetric N-linear function that collapses to det(A) when all
arguments coincide.  The engines compute it by genuinely different routes:

    naive             full index sums against the antisymmetric symbol,
                      zero terms skipped:
                      (1/N!) sum_{i,i'} eps(i) eps(i') prod_k A_k[i_k, i'_k]
    permutation_pair  double sum over permutation pairs (sigma, mu):
                      (1/N!) sum sgn(sigma) sgn(mu) prod_k A_k[sigma(k), mu(k)]
    subset_sum        inclusion-exclusion over non-empty subsets I:
                      (1/N!) sum_I (-1)^(N-|I|) det(sum_{i in I} A_i),
                      on arguments scaled to unit max-abs entry, with the
                      determinants taken 2^8 at a time by one stacked ``det``
    trace_formula     sum over partition classes of exact coefficients times
                      symmetrized trace-monomial averages
    volume            signed average of N! row-mixed oriented volumes:
                      (1/N!) sum_sigma sgn(sigma) det(slot i holds row sigma(i) of A_i)

Agreement of all five on random tuples is the package's core cross-check.
Each public engine validates its tuple once, into an (N, N, N) stack, and
its kernel works on that stack.
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
    cayley_hamilton_coefficient,
    compositions,
    enumerate_partition_vectors,
    iterate_subsets,  # noqa: F401  kept bound here for perfbench's traced run
    levi_civita,
    multinomial,
    permutation_sign,
)
from .matrices import det, validate_matrix_tuple

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

NAIVE_MAX_N = 6
PERMUTATION_PAIR_MAX_N = 8
TRACE_FORMULA_MAX_N = 7
VOLUME_MAX_N = 8

# elements per temporary block in the vectorized permutation-pair product
_CHUNK_ELEMENTS = 1 << 22
# subset_sum: arguments in the subset-sum table, so one chunk is 2^8 matrices
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


def _guard(n: int, limit: int, engine: str) -> None:
    if n > limit:
        raise GuardLimitError(f"engine {engine!r} guarded at n <= {limit}, got n={n}")


def _naive_value(mats: Sequence[np.ndarray]) -> complex:
    n = len(mats)
    perms, signs = _perm_table(n)
    # columns of the inner sum: all index tuples surviving the zero skip
    colsel = perms.T  # colsel[k, b] = b-th surviving column index for slot k
    inner = np.empty((n, perms.shape[0]), dtype=np.complex128)
    acc = 0.0 + 0.0j
    for idx in itertools.product(range(1, n + 1), repeat=n):
        lc = levi_civita(idx)
        if lc == 0:
            continue
        for k in range(n):
            inner[k] = mats[k][idx[k] - 1, colsel[k]]
        acc += lc * (signs @ np.prod(inner, axis=0))
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
    """(1/N!) sum_I (-1)^(N-|I|) det(sum_{i in I} A_i) over a validated stack.

    Each argument is first divided by its max-abs entry and the product of
    those norms multiplied back in (the value is multilinear), so arguments
    of very different size cancel as accurately as unit-scale ones.  The
    first k = min(N, 8) arguments give a table of 2^k subset sums, built by
    doubling with one broadcast add per argument.  Each subset of the other
    N - k adds its sum to the whole table, and that chunk's 2^k determinants
    come from one stacked ``det`` call.  The empty subset is the zero matrix,
    whose determinant is exactly 0.  Memory is a few 2^k-row arrays at every
    n, never one row per subset.
    """
    n = stack.shape[0]
    norms = np.abs(stack).max(axis=(1, 2))
    if not norms.all():
        return 0j
    unit = stack / norms[:, None, None]
    k = min(n, _SUBSET_LOW_BITS)
    # low[s] sums the arguments whose bits are set in s, and signs[s] = (-1)^|s|
    low = np.zeros((1 << k, n, n), dtype=np.complex128)
    signs = np.ones(1 << k)
    for i in range(k):
        np.add(low[: 1 << i], unit[i], out=low[1 << i : 2 << i])
        signs[1 << i : 2 << i] = -signs[: 1 << i]
    high = unit[k:]
    acc = 0.0 + 0.0j
    for mask in range(1 << (n - k)):
        picked = [j for j in range(n - k) if mask >> j & 1]
        chunk = low + high[picked].sum(axis=0) if picked else low
        acc += (-1) ** len(picked) * complex((signs * det(chunk)).sum())
    return (-1) ** n * acc * float(np.prod(norms)) / math.factorial(n)


@lru_cache(maxsize=16)
def _partition_segments(n: int) -> list[tuple[tuple[int, ...], list[tuple[int, int]]]]:
    """Per partition vector, the (offset, length) slots of its trace template."""
    out = []
    for counts in enumerate_partition_vectors(n):
        segs: list[tuple[int, int]] = []
        pos = 0
        for length, ct in enumerate(counts, start=1):
            for _ in range(ct):
                segs.append((pos, length))
                pos += length
        out.append((counts, segs))
    return out


def _canonical_rotation(word: tuple[int, ...]) -> tuple[int, ...]:
    return min(word[i:] + word[:i] for i in range(len(word)))


def _trace_formula_value(mats: Sequence[np.ndarray]) -> complex:
    n = len(mats)
    classes = _partition_segments(n)
    word_trace: dict[tuple[int, ...], complex] = {}

    def tr(word: tuple[int, ...]) -> complex:
        key = _canonical_rotation(word)
        got = word_trace.get(key)
        if got is None:
            prod = mats[key[0]]
            for k in key[1:]:
                prod = prod @ mats[k]
            got = complex(np.trace(prod))
            word_trace[key] = got
        return got

    sums = [0.0 + 0.0j] * len(classes)
    for sigma in itertools.permutations(range(n)):
        for ci, (_, segs) in enumerate(classes):
            term = 1.0 + 0.0j
            for pos, length in segs:
                term *= tr(sigma[pos : pos + length])
            sums[ci] += term
    fact = math.factorial(n)
    total = 0.0 + 0.0j
    for ci, (counts, _) in enumerate(classes):
        total += float(cayley_hamilton_coefficient(counts)) * sums[ci] / fact
    return total


def _volume_value(stack: np.ndarray) -> complex:
    n = stack.shape[0]
    perms, signs = _perm_table(n)
    # slot i of the mixed matrix holds row sigma(i) of A_i (stack[k, r, :] = row r of A_k)
    mixed = stack[np.arange(n)[None, :], perms, :]
    dets = np.linalg.det(mixed)
    return complex(signs @ dets) / math.factorial(n)


def polydet_naive(mats: Sequence) -> PolydetResult:
    """Full Levi-Civita index sums, nonzero terms only.  Guarded at n <= 6."""
    n, mats = validate_matrix_tuple(mats)
    _guard(n, NAIVE_MAX_N, "naive")
    return PolydetResult(_naive_value(mats), "naive", n)


def polydet_permutation_pair(mats: Sequence) -> PolydetResult:
    """Signed double sum over permutation pairs.  Guarded at n <= 8."""
    n, mats = validate_matrix_tuple(mats)
    _guard(n, PERMUTATION_PAIR_MAX_N, "permutation_pair")
    return PolydetResult(_permutation_pair_value(mats), "permutation_pair", n)


def polydet_subset_sum(mats: Sequence) -> PolydetResult:
    """Inclusion-exclusion over subset sums of the arguments.

    Cost 2^N determinants, taken in stacked chunks of 2^8 with memory bounded
    at every n, so this is the scalable route and the default.  Arguments
    are scaled to unit size first, so widely different norms do not cost
    accuracy.  Guarded at n <= 24.
    """
    n, mats = validate_matrix_tuple(mats)
    _guard(n, SUBSET_MAX_N, "subset_sum")
    return PolydetResult(_subset_sum_value(mats), "subset_sum", n)


def polydet_trace_formula(mats: Sequence) -> PolydetResult:
    """Exact-coefficient trace expansion, symmetrized over all argument
    permutations without deduplication.  Guarded at n <= 7."""
    n, mats = validate_matrix_tuple(mats)
    _guard(n, TRACE_FORMULA_MAX_N, "trace_formula")
    return PolydetResult(_trace_formula_value(mats), "trace_formula", n)


def polydet_volume(mats: Sequence) -> PolydetResult:
    """Signed average over row mixings of oriented-volume determinants.
    Guarded at n <= 8."""
    n, mats = validate_matrix_tuple(mats)
    _guard(n, VOLUME_MAX_N, "volume")
    return PolydetResult(_volume_value(mats), "volume", n)


ENGINES: dict[str, Callable[[Sequence], PolydetResult]] = {
    "naive": polydet_naive,
    "permutation_pair": polydet_permutation_pair,
    "subset_sum": polydet_subset_sum,
    "trace_formula": polydet_trace_formula,
    "volume": polydet_volume,
}

DEFAULT_ENGINE = "subset_sum"


def polydet(mats: Sequence, engine: Optional[str] = None) -> PolydetResult:
    """Dispatch to a named engine (default: subset_sum)."""
    name = DEFAULT_ENGINE if engine is None else engine
    try:
        fn = ENGINES[name]
    except KeyError:
        raise ValueError(f"unknown engine {name!r}; expected one of {sorted(ENGINES)}") from None
    return fn(mats)


def det_of_sum(mats: Sequence, engine: Optional[str] = None) -> complex:
    """det(A_1 + ... + A_r) evaluated through the multinomial expansion.

    Sums multinomial(N; k_1..k_r) * eps({A_1}^k_1, ..., {A_r}^k_r) over all
    compositions of N = matrix dimension into r non-negative parts; repeated
    arguments are passed by plain repetition.
    """
    mats = [np.asarray(m, dtype=np.complex128) for m in mats]
    if not mats:
        raise ValueError("need at least one matrix")
    n = mats[0].shape[0]
    for i, m in enumerate(mats):
        if m.shape != (n, n):
            raise ValueError(f"matrix {i} has shape {m.shape}, expected {(n, n)}")
    total = 0.0 + 0.0j
    for comp in compositions(n, len(mats)):
        repeated: list[np.ndarray] = []
        for m, k in zip(mats, comp):
            repeated.extend([m] * k)
        total += multinomial(n, comp) * polydet(repeated, engine).value
    return total
