"""Five evaluators of the mixed discriminant of a matrix tuple.

For an argument tuple (A_1, ..., A_N) of N complex N x N matrices the value
is the symmetric N-linear function that collapses to det(A) when all
arguments coincide.  The engines compute it by these routes:

    naive             the full index contraction against the dense N^N
                      Levi-Civita tensor eps of the signed permutations:
                      (1/N!) sum_{i,j} eps(i) eps(j) prod_k A_k[i_k, j_k],
                      as N matrix products, each contracting one row index
                      of eps with A_k, then one dot with eps over the columns
    permutation_pair  double sum over permutation pairs (sigma, mu):
                      (1/N!) sum sgn(sigma) sgn(mu) prod_k A_k[sigma(k), mu(k)],
                      as volume's sum with Leibniz determinants (the mu-sums),
                      32 sigma at a time
    subset_sum        inclusion-exclusion over +-1 sign vectors delta
                      with delta_1 = +1 fixed (the pair delta, -delta gives
                      equal terms), 2^(N-1) determinants:
                      1/(2^(N-1) N!) sum_delta prod(delta) det(sum_k delta_k A_k),
                      on arguments scaled to unit max-abs entry, with the
                      determinants taken 2^8 at a time by one stacked ``det``
    trace_formula     the cycle form of the determinant, polarized:
                      (1/N!) sum_sigma sgn(sigma) prod_{cycles (i_1 ... i_L) of sigma}
                      Tr(A_{i_1} ... A_{i_L}),
                      compiled once per N into a trace-sum plan: the
                      cycle prefixes of each length in one stacked matmul,
                      the traces of the cycles of each length in one
                      einsum, and the N! signed products in one gather
    volume            signed average of N! row-mixed oriented volumes, by LU:
                      (1/N!) sum_sigma sgn(sigma) det(M_sigma), 256 sigma at
                      a time, where row i of M_sigma is row sigma(i) of A_i

Agreement of all five on random tuples is the package's core cross-check.
One table maps each engine name to its kernel and its guard (the largest N
it accepts).  A kernel takes a validated (B, N, N, N) batch of tuples and
returns their B values: ``subset_sum`` evaluates the whole batch in stacked
``det`` calls of at most 2^8 matrices, the other four run their one-tuple
kernel on each row.  ``polydet`` validates one tuple and runs it as a batch
of one; ``polydet_many`` validates a whole batch once; ``det_of_sum``
validates its summands once and evaluates the repeated tuples of its
compositions in batches of at most 2^8 matrices.
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
    multinomial,
)
# the kernels call their determinants through the module name ``det``, bound to
# the trusted stack kernel: stacks made here are already validated
from .matrices import as_stack, det_leibniz, signed_permutations, trace_sum_plan, validate_matrix_tuple
from .matrices import det_stack as det

__all__ = [
    "PolydetResult",
    "polydet",
    "polydet_many",
    "polydet_naive",
    "polydet_permutation_pair",
    "polydet_subset_sum",
    "polydet_trace_formula",
    "polydet_volume",
    "det_of_sum",
    "ENGINES",
    "DEFAULT_ENGINE",
]

# sigma per chunk of the row-mixed sums.  A Leibniz chunk gathers 32 N! N entries
# (18 MB at N = 7), and numpy loops over the chunk innermost, so fewer are slower;
# 256 LU determinants a call amortize LAPACK's per-call cost
_LEIBNIZ_CHUNK = 32
_LU_CHUNK = 256
# subset_sum: free signs in the sign-combination table, so one chunk is 2^8 matrices
_SUBSET_LOW_BITS = 8


@dataclass(frozen=True)
class PolydetResult:
    value: complex
    engine: str
    n: int


def _naive_value(stack: np.ndarray) -> complex:
    n = stack.shape[0]
    _, perms, signs = signed_permutations(n)
    eps = np.zeros((n,) * n)
    eps[tuple(perms.T)] = signs
    # each step is one matrix product: it contracts the leading row index i_k
    # of t with A_k and appends A_k's column index j_k last, so after N steps
    # t holds t[j_1, ..., j_N]
    t = eps
    for a in stack:
        t = t.reshape(n, -1).T @ a
    return complex(np.vdot(eps, t)) / math.factorial(n)


def _row_mixed_sum(stack: np.ndarray, det_of: Callable[[np.ndarray], np.ndarray], chunk: int) -> complex:
    """(1/N!) sum_sigma sgn(sigma) det_of(M_sigma), ``chunk`` sigma at a time.

    Row k of the row-mixed matrix M_sigma is row sigma(k) of A_k; the Leibniz
    sum over mu of det(M_sigma) makes this the permutation-pair sum.
    """
    n = stack.shape[0]
    rows, perms, signs = signed_permutations(n)
    total = 0.0 + 0.0j
    for start in range(0, len(perms), chunk):
        part = slice(start, start + chunk)
        # stack[k, r, :] is row r of A_k
        total += signs[part] @ det_of(stack[rows, perms[part]])
    return complex(total) / math.factorial(n)


@lru_cache(maxsize=64)
def _subset_tables(n: int, k: int) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
    """The sign tables of the subset-sum kernel for N = n with k free table bits.

    Returns (table, high).  Row s of the (2^k, n) table is the sign vector
    delta with delta_(1+i) = -1 for each bit i set in s and +1 in every
    other slot.  ``high`` has one entry for each subset of the other
    n - 1 - k free arguments: their indices in the tuple, and the (2^k,)
    vector of prod(delta) over the table rows with those arguments' signs
    flipped too.
    """
    bits = np.arange(1 << k)[:, None] >> np.arange(k) & 1
    table = np.ones((1 << k, n))
    table[:, 1 : k + 1] -= 2 * bits
    signs = table.prod(axis=1)
    flipped = -signs
    # the cached arrays are shared by every later call
    table.flags.writeable = signs.flags.writeable = flipped.flags.writeable = False
    rest = np.arange(n - 1 - k)
    high = []
    for mask in range(1 << len(rest)):
        picked = np.flatnonzero(mask >> rest & 1)
        high.append((k + 1 + picked, flipped if len(picked) % 2 else signs))
    return table, high


def _subset_sum_values(batch: np.ndarray) -> np.ndarray:
    """Inclusion-exclusion over the +-1 sign vectors with the first sign fixed.

    With U_k = A_k / max|A_k| and T = sum_k U_k, for each tuple of a
    validated (B, N, N, N) batch,

        eps = prod_k max|A_k| / (2^(N-1) N!)
              * sum_{I subset of {2..N}} (-1)^|I| det(T - 2 sum_{i in I} U_i).

    Summing prod(delta) det(sum_k delta_k U_k) over every delta in {+-1}^N
    keeps only the part linear in each U_k, which is 2^N N! eps(U).  delta
    and -delta give the same term, since both factors change by (-1)^N, so
    delta_1 = +1 is fixed and 2^(N-1) determinants remain.  Dividing each
    argument by its max-abs entry first (the value is multilinear) lets
    arguments of very different size cancel as accurately as unit-scale
    ones; an all-zero argument keeps norm 0 in the product, so its tuple
    gives exactly 0.  The first k = min(N - 1, 8) free arguments give a
    table of 2^k sign combinations, sum_j delta_j U_j, made by one real
    ``matmul`` of the cached (2^k, N) sign table with the arguments' real
    and imaginary parts.  Each subset of the other N - 1 - k subtracts
    twice its sum from the whole table.  The batch is cut into slices of
    2^(8 - k) tuples, so every stacked ``det`` call takes at most 2^8
    matrices and memory is a few 2^8-matrix arrays at every n and B.
    Every operation acts on each tuple alone, so a tuple's value does not
    depend on the rest of its batch.
    """
    b, n = batch.shape[:2]
    k = min(n - 1, _SUBSET_LOW_BITS)
    table, high_masks = _subset_tables(n, k)
    per_slice = (1 << _SUBSET_LOW_BITS) >> k
    out = np.empty(b, dtype=np.complex128)
    for start in range(0, b, per_slice):
        part = batch[start : start + per_slice]
        rows = len(part)
        norms = np.abs(part).max(axis=(2, 3))
        # an all-zero argument is divided by 1 and keeps its norm 0 in the product
        unit = part / (norms if norms.all() else np.where(norms == 0.0, 1.0, norms))[:, :, None, None]
        # low[:, s] = sum_j table[s, j] U_j, on the (re, im) pairs of the entries
        low = (table @ unit.view(np.float64).reshape(rows, n, 2 * n * n)).view(np.complex128)
        low = low.reshape(rows, 1 << k, n, n)
        acc = 0.0
        for picked, signs in high_masks:
            chunk = low - 2.0 * unit[:, picked].sum(axis=1)[:, None] if len(picked) else low
            acc += (signs * det(chunk.reshape(-1, n, n)).reshape(rows, 1 << k)).sum(axis=1)
        out[start : start + rows] = acc * norms.prod(axis=1)
    # a true division of every real and imaginary part; a complex division by a
    # real number would multiply by its reciprocal, one more rounding
    parts = out.view(np.float64)
    parts /= 2 ** (n - 1) * math.factorial(n)
    return out


@lru_cache(maxsize=16)
def _cycle_plan(n: int) -> Callable[[np.ndarray], complex]:
    """sum_sigma sgn(sigma) prod_{cycles c of sigma} Tr(c), compiled once per n."""
    return trace_sum_plan((float(sign), cycles) for sign, cycles in cycle_covers(n))


def _trace_formula_value(stack: np.ndarray) -> complex:
    n = stack.shape[0]
    return _cycle_plan(n)(stack) / math.factorial(n)


def _rows(kernel: Callable[[np.ndarray], complex]) -> Callable[[np.ndarray], np.ndarray]:
    """The batch kernel that runs a one-tuple kernel on each row of a batch."""
    return lambda batch: np.array([kernel(stack) for stack in batch], dtype=np.complex128)


#: engine name -> (kernel from a validated (B, N, N, N) batch to B values, largest accepted N)
_TABLE: dict[str, tuple[Callable[[np.ndarray], np.ndarray], int]] = {
    "naive": (_rows(_naive_value), 6),
    "permutation_pair": (_rows(lambda stack: _row_mixed_sum(stack, det_leibniz, _LEIBNIZ_CHUNK)), 7),
    "subset_sum": (_subset_sum_values, SUBSET_MAX_N),
    "trace_formula": (_rows(_trace_formula_value), 7),
    "volume": (_rows(lambda stack: _row_mixed_sum(stack, np.linalg.det, _LU_CHUNK)), 8),
}

DEFAULT_ENGINE = "subset_sum"


def _kernel(name: str, n: int) -> Callable[[np.ndarray], np.ndarray]:
    """The batch kernel of engine ``name`` for N = n arguments, past its guard."""
    if name not in _TABLE:
        raise ValueError(f"unknown engine {name!r}; expected one of {sorted(_TABLE)}")
    kernel, max_n = _TABLE[name]
    if n > max_n:
        raise GuardLimitError(f"engine {name!r} guarded at n <= {max_n}, got n={n}")
    return kernel


def _engine(name: str) -> Callable[[Sequence], PolydetResult]:
    def run(mats: Sequence) -> PolydetResult:
        n, stack = validate_matrix_tuple(mats)
        return PolydetResult(complex(_kernel(name, n)(stack[None])[0]), name, n)

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


def polydet_many(tuples: Sequence, engine: Optional[str] = None) -> np.ndarray:
    """The value of each argument tuple of a batch, as a (B,) complex array.

    ``tuples`` is B tuples of N matrices, each N x N, or one (B, N, N, N)
    array.  The batch is validated once; the default engine evaluates it in
    stacked ``det`` calls of at most 2^8 matrices, the others tuple by tuple.
    Row b equals ``polydet(tuples[b], engine).value`` exactly.
    """
    name = DEFAULT_ENGINE if engine is None else engine
    if len(tuples) == 0:
        _kernel(name, 0)  # an unknown name still raises
        return np.empty(0, dtype=np.complex128)
    n, batch = validate_matrix_tuple(tuples, batched=True)
    return _kernel(name, n)(batch)


def det_of_sum(mats: Sequence, engine: Optional[str] = None) -> complex:
    """det(A_1 + ... + A_r) evaluated through the multinomial expansion.

    Sums multinomial(N; k_1..k_r) * eps({A_1}^k_1, ..., {A_r}^k_r) over all
    compositions of N = matrix dimension into r non-negative parts.  The r
    summands are validated once; the repeated tuples of the compositions
    are row selections of that stack and go to the engine's kernel in
    batches of at most 2^8 matrices, so memory stays that of the kernel's
    own slices however many compositions there are.
    """
    stack = as_stack(mats, name="summands")
    r, n = len(stack), stack.shape[-1]
    kernel = _kernel(DEFAULT_ENGINE if engine is None else engine, n)
    comps = compositions(n, r)
    total = 0.0 + 0.0j
    while group := list(itertools.islice(comps, max(1, (1 << _SUBSET_LOW_BITS) // n))):
        values = kernel(stack[np.array([np.repeat(np.arange(r), comp) for comp in group])])
        for comp, value in zip(group, values.tolist()):
            total += multinomial(n, comp) * value
    return total
