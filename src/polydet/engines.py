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
    subset_sum        a mixed-radix roots-of-unity grid: for r distinct
                      arguments repeated m_1 <= ... <= m_r times, s_1 = 1
                      and s_j = (m_j/m_1) w_j with w_j on the (m_j+1)-th
                      roots of unity,
                      C(N; m) eps(U^m) = mean_s prod_{j>=2} s_j^(-m_j) det(sum_j s_j U_j),
                      prod_{j>=2} (m_j+1) determinants, on arguments scaled
                      to unit max-abs entry, taken 2^8 at a time by one
                      stacked ``det``.  With every m_j = 1 the grid is the
                      +-1 sign table with delta_1 = +1 fixed (the pair
                      delta, -delta gives equal terms), 2^(N-1) determinants:
                      1/(2^(N-1) N!) sum_delta prod(delta) det(sum_k delta_k A_k);
                      a tuple whose grid would take more than half of
                      2^(N-1) (a complex combination costs about twice a
                      +-1 one) runs as that all-ones pattern
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
of one; ``polydet_many`` validates a whole batch once.  With the default
engine both find repeated arguments by exact equality of their bytes (a
batch of four or more tuples first sorts each tuple's integer keys of its
matrices, so only rows whose grid may pay are checked one by one) and run
one grid kernel per multiplicity pattern; every other tuple, all-distinct
or not, takes the all-ones pattern over its own argument positions.
``det_of_sum`` validates its summands once and takes its compositions from
a table cached per (N, r), each on its own grid.
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
# subset_sum: points in the low table of the roots grid, so one chunk is at most 2^8 matrices
_SUBSET_LOW_BITS = 8
# det_of_sum: most compositions C(N + r - 1, r - 1) in one call; 10^4 take about 1 s at N, r near 8
_DET_OF_SUM_MAX_COMPOSITIONS = 10_000


@dataclass(frozen=True)
class PolydetResult:
    value: complex
    engine: str
    n: int
    #: "roots" when the default kernel read the value off the roots-of-unity grid, else "signs"
    grid: str = "signs"


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


@lru_cache(maxsize=256)
def _roots_grid_pays(pattern: tuple[int, ...]) -> bool:
    """Whether the roots grid of the ascending multiplicities ``pattern`` takes
    at most half the 2^(N-1) determinants of the +-1 table: a complex
    combination costs about twice a real +-1 one."""
    return 4 * math.prod(m + 1 for m in pattern[1:]) <= 1 << sum(pattern)


def _roots(sizes: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Every point s of the grid of (size_j)-th roots of unity, the last s_j
    fastest, as (points, prod_j s_j); zero real and imaginary parts are
    exact, so +-1 and +-i are."""
    steps = np.array(list(itertools.product(*map(range, sizes))), dtype=np.float64, ndmin=2)
    points = np.exp(2j * np.pi * (steps / sizes))
    points.real[np.abs(points.real) < 1e-15] = 0.0
    points.imag[np.abs(points.imag) < 1e-15] = 0.0
    return points, points.prod(axis=1)


@lru_cache(maxsize=64)
def _grid_table(pattern: tuple[int, ...], k: int) -> tuple:
    """The roots grid of the ascending multiplicities ``pattern``, in tables of at most 2^k points.

    A point is s = (1, s_2, ..., s_r) with s_j = rho_j w_j, w_j one of the
    (m_j + 1)-th roots of unity and rho_j = m_j / m_1, G = prod_{j >= 2}
    (m_j + 1) points in all.  The radii put the peak of the multinomial
    terms C(N; a) prod_j s_j^(a_j) of the grid's polynomial at a = m, so the
    extraction cancels little; on the unit circle, terms 2^N / C(N; m)
    times larger could cancel.  A point's extraction weight is
    X = prod_{j >= 2} w_j^(-m_j) / scale with scale = G C(N; m)
    prod_{j >= 2} rho_j^(m_j), and w_j^(-m_j) = w_j since w_j^(m_j + 1) = 1.
    With every m_j = 1 the points are the +-1 sign vectors with s_1 = +1
    and scale = 2^(N-1) N!: inclusion-exclusion over subsets.

    The leading s_j whose points number at most 2^k make the low table, its
    other s_j at their first point (w_j = 1); each high point is stored as
    its shift from that first point.  scale X is the product of a low and a
    high point's prod_j w_j.  Returns (low, high, low_x, high_x, m, scale):
    the (G_low, K) low table and the (G_high, K) shifts, real parts then,
    when any is non-zero, imaginary parts (K = r or 2 r); the (2 G_low, 2)
    real matrix that maps the (re, im) pairs of G_low determinants to those
    of their sum weighted by the low points' prod_j w_j, and for each high
    point the (2, 2) real matrix of its own factor, whose entries are all
    exact (+-1 and 0 on the sign grid); m; and scale, by which the kernel
    divides once.
    """
    sizes = [m + 1 for m in pattern[1:]]
    radii = [m / pattern[0] for m in pattern[1:]]
    split = 0
    while split < len(sizes) and math.prod(sizes[: split + 1]) <= 1 << k:
        split += 1
    low_points, low_x = _roots(sizes[:split])
    high_points, high_x = _roots(sizes[split:])
    high_points = high_points * radii[split:]
    low = np.empty((len(low_points), len(pattern)), dtype=np.complex128)
    low[:, 0] = 1.0
    low[:, 1 : split + 1] = low_points * radii[:split]
    low[:, split + 1 :] = high_points[0]
    high = np.zeros((len(high_points), len(pattern)), dtype=np.complex128)
    high[:, split + 1 :] = high_points - high_points[0]
    # (re, im) @ [[x.re, x.im], [-x.im, x.re]] is the (re, im) of (re + i im) x
    low_x, high_x = (
        np.stack([np.stack([x.real, x.imag], -1), np.stack([-x.imag, x.real], -1)], -2) for x in (low_x, high_x)
    )
    # real parts, then imaginary parts when a point is off the real axis
    parts = 2 if low.imag.any() or high.imag.any() else 1
    low, high = (np.hstack([a.real, a.imag][:parts]) for a in (low, high))
    table = low, high, low_x.reshape(-1, 2), high_x, np.array(pattern)
    for a in table:
        a.flags.writeable = False
    scale = math.prod(sizes) * multinomial(sum(pattern), pattern)
    return (*table, scale * math.prod(rho**m for rho, m in zip(radii, pattern[1:])))


def _grid_values(mats: np.ndarray, index: Optional[np.ndarray], pattern: tuple[int, ...]) -> np.ndarray:
    """eps of each tuple whose distinct arguments are mats[index[b]], read off the roots grid.

    With ``index`` None, ``mats`` is a (B, r, n, n) batch and tuple b is
    mats[b].  ``pattern`` is the multiplicities m_1 <= ... <= m_r of the
    distinct arguments, in the order of ``index``'s columns.  With U_j = A_j / max|A_j|, det(sum_j s_j U_j) is
    sum_a C(N; a) eps(U^a) prod_j s_j^(a_j).  With s_1 = 1 and each other
    s_j on a circle through the (m_j + 1)-th roots of unity, the sum of
    X det(sum_j s_j U_j) over the grid (``_grid_table``) keeps every
    exponent a with a_j = m_j mod (m_j + 1) for j >= 2.  Any such a other
    than m has some a_j >= 2 m_j + 1 >= m_j + m_1 + 1, which leaves
    a_1 < 0, so the sum is eps(U^m) alone.  Dividing each argument by its
    max-abs entry first (the value is multilinear) lets arguments of very
    different size cancel as accurately as unit-scale ones; an all-zero
    argument keeps norm 0 in the product, so its tuple gives exactly 0.

    A slice of tuples forms its low table's combinations by one real
    ``matmul`` of the table with the (re, im) pairs of the U_j's entries
    (and of the i U_j's, on a grid off the real axis), then adds each high
    point's shift to all of them.  A slice holds 2^8 / G_low tuples, so
    every stacked ``det`` call takes at most 2^8 matrices and memory is a
    few 2^8-matrix arrays at every n.  Every operation acts on each tuple
    alone, so a tuple's value does not depend on the rest of its batch.
    """
    low, high, low_x, high_x, powers, scale = _grid_table(pattern, _SUBSET_LOW_BITS)
    g, width = low.shape
    r, n = len(pattern), mats.shape[-1]
    per_slice = max(1, (1 << _SUBSET_LOW_BITS) // g)
    parts = []
    for start in range(0, len(mats if index is None else index), per_slice):
        stop = start + per_slice
        part = mats[start:stop] if index is None else mats.take(index[start:stop], axis=0)
        rows = len(part)
        norms = np.abs(part).max(axis=(2, 3))
        # an all-zero argument is divided by 1 and keeps its norm 0 in the product
        unit = part / (norms if norms.all() else np.where(norms == 0.0, 1.0, norms))[:, :, None, None]
        if width > r:
            unit = np.concatenate([unit, 1j * unit], axis=1)
        basis = unit.view(np.float64).reshape(rows, width, 2 * n * n)
        low_sums = low @ basis
        acc = 0.0
        for h, (shift, turn) in enumerate(zip(high, high_x)):
            sums = low_sums + (shift @ basis)[:, None] if h else low_sums
            sums = sums.view(np.complex128).reshape(-1, n, n)
            # a lone 2 x 2 or 3 x 3 matrix goes in a stack of two, so it rounds as
            # inside a larger stack (see ``matrices.det_leibniz``); 1 x 1 is exact
            dets = det(np.concatenate([sums, sums]))[:1] if len(sums) == 1 and 1 < n <= 3 else det(sums)
            # X det in real arithmetic, tuple by tuple: numpy's complex product
            # rounds differently in its vector loop, whose reach depends on
            # how many tuples share the slice; the first high point's factor is 1
            part = dets.view(np.float64).reshape(rows, 1, 2 * g) @ low_x
            acc += part @ turn if h else part
        # prod_j max|A_j|^(m_j), each m_j = 1 on the sign grid
        acc *= (norms if r == n else norms**powers).prod(axis=1)[:, None, None]
        parts.append(acc)
    out = parts[0] if len(parts) == 1 else np.concatenate(parts)
    # a true division of every real and imaginary part; a complex division by a
    # real number would multiply by its reciprocal, one more rounding
    out /= scale
    return out.view(np.complex128).ravel()


def _row_plan(stack: np.ndarray) -> Optional[tuple[tuple[int, ...], list[int]]]:
    """(pattern, first position of each distinct argument) of one tuple whose roots grid pays.

    Arguments are equal when their bytes are; the distinct ones are listed
    by multiplicity, then by first position.  Equal arguments have equal
    first entries, so those bound the multiplicities from above; merging
    runs never makes the grid larger, so when the first entries' runs do
    not pay, the arguments' own do not either.
    """
    firsts = stack[:, 0, 0].tolist()
    distinct = set(firsts)
    if len(distinct) == len(firsts) or not _roots_grid_pays(tuple(sorted(map(firsts.count, distinct)))):
        return None
    places: dict[bytes, list[int]] = {}
    for k, m in enumerate(stack):
        places.setdefault(m.tobytes(), []).append(k)
    runs = sorted(places.values(), key=len)
    pattern = tuple(map(len, runs))
    if len(runs) == len(stack) or not _roots_grid_pays(pattern):
        return None
    return pattern, [run[0] for run in runs]


def _candidate_rows(batch: np.ndarray) -> list[int]:
    """The rows of a validated (B, N, N, N) batch whose roots grid may pay.

    A matrix's key is a position-weighted sum of its 64-bit words, so equal
    matrices have equal keys; each tuple's runs of equal sorted keys bound
    its multiplicities from above.  Keys shared by distinct matrices only
    merge runs, which never makes the grid larger, so no row whose grid
    pays is missed.
    """
    b, n = batch.shape[:2]
    keys = np.ascontiguousarray(batch).reshape(b, n, -1).view(np.int64) @ np.arange(1, 2 * n * n + 1)
    keys.sort(axis=1)
    # bit i of a row's code is set when its sorted keys i and i + 1 are equal
    codes = ((keys[:, 1:] == keys[:, :-1]) @ (1 << np.arange(n - 1))).tolist()
    paying = {code for code in set(codes) if code and _code_pays(n, code)}
    return [row for row, code in enumerate(codes) if code in paying] if paying else []


@lru_cache(maxsize=1024)
def _code_pays(n: int, code: int) -> bool:
    """Whether the roots grid pays for the runs of N = n sorted keys whose bit i
    of ``code`` says that keys i and i + 1 are equal."""
    cuts = [0, *(i + 1 for i in range(n - 1) if not code >> i & 1), n]
    return _roots_grid_pays(tuple(sorted(end - start for start, end in zip(cuts, cuts[1:]))))


def _default_values(batch: np.ndarray) -> np.ndarray:
    """The values of a validated batch by the default kernel.

    One ``_grid_values`` call per multiplicity pattern: tuples with
    repeated arguments whose roots grid pays are taken on it, the rest,
    every all-distinct tuple among them, as pattern (1, ..., 1) over their
    own argument positions, on the +-1 sign grid.
    """
    b, n = batch.shape[:2]
    groups: dict[tuple[int, ...], tuple[list[int], list[list[int]]]] = {}
    # up to three rows are cheaper to plan one by one than to key and sort
    for row in range(b) if b < 4 else _candidate_rows(batch):
        plan = _row_plan(batch[row])
        if plan:
            rows, index = groups.setdefault(plan[0], ([], []))
            rows.append(row)
            index.append([row * n + k for k in plan[1]])
    if not groups:
        return _grid_values(batch, None, (1,) * n)
    mats = batch.reshape(-1, n, n)
    rest = np.delete(np.arange(b), [row for rows, _ in groups.values() for row in rows])
    groups[(1,) * n] = (rest, rest[:, None] * n + np.arange(n))
    out = np.empty(b, dtype=np.complex128)
    for pattern, (rows, index) in groups.items():
        if len(rows):
            out[rows] = _grid_values(mats, np.asarray(index), pattern)
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
    "subset_sum": (_default_values, SUBSET_MAX_N),
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
        kernel = _kernel(name, n)
        if kernel is not _default_values:
            return PolydetResult(complex(kernel(stack[None])[0]), name, n)
        plan = _row_plan(stack)
        if plan:
            value = _grid_values(stack, np.array([plan[1]]), plan[0])[0]
        else:  # the sign grid over the tuple's own positions
            value = _grid_values(stack[None], None, (1,) * n)[0]
        return PolydetResult(complex(value), name, n, "roots" if plan else "signs")

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


@lru_cache(maxsize=16)
def _composition_table(n: int, r: int):
    """The compositions of n into r parts, in ``compositions`` order, for ``det_of_sum``.

    Returns (weights, rows, grids): the (C,) float multinomial of each
    composition; its repeated tuple as summand indices, row by row as
    ``np.repeat`` spells it; and, for each multiplicity pattern,
    (pattern, positions, order).  A composition whose roots grid pays has
    the pattern of its non-zero parts, and order[i] lists those summands by
    part and then index, as ``polydet`` orders the distinct arguments of
    the repeated tuple; any other has pattern (1, ..., 1), and order[i] is
    its repeated tuple's row.
    """
    comps = np.array(list(compositions(n, r)), dtype=np.intp).reshape(-1, r)
    weights = np.array([float(multinomial(n, comp)) for comp in comps.tolist()])
    rows = np.repeat(np.tile(np.arange(r), len(comps)), comps.ravel()).reshape(-1, n)
    groups: dict[tuple[int, ...], tuple[list[int], list[list[int]]]] = {}
    for position, (comp, row) in enumerate(zip(comps.tolist(), rows.tolist())):
        order = sorted((j for j in range(r) if comp[j]), key=comp.__getitem__)
        pattern = tuple(comp[j] for j in order)
        if not _roots_grid_pays(pattern):
            pattern, order = (1,) * n, row
        positions, orders = groups.setdefault(pattern, ([], []))
        positions.append(position)
        orders.append(order)
    grids = [(pattern, np.array(positions), np.array(orders)) for pattern, (positions, orders) in groups.items()]
    for a in (weights, rows):
        a.flags.writeable = False
    return weights, rows, grids


def det_of_sum(mats: Sequence, engine: Optional[str] = None) -> complex:
    """det(A_1 + ... + A_r) evaluated through the multinomial expansion.

    Sums multinomial(N; k_1..k_r) * eps({A_1}^k_1, ..., {A_r}^k_r) over all
    compositions of N = matrix dimension into r non-negative parts, as a
    running sum in ``compositions`` order; each composition's value is the
    engine's own value on its repeated tuple.  The r summands are validated
    once and the compositions come from a table cached per (N, r).  With
    the default engine, the compositions are taken pattern by pattern, each
    on its own grid with its own extraction row (never read off one shared
    transform of the summands, which would make the sum equal det(sum A_k)
    by construction).  With any other engine the repeated tuples are row
    selections of the summand stack and go to the engine's kernel in
    batches of 2^8 / N tuples.  More than 10^4 compositions,
    C(N + r - 1, r - 1), raise ``GuardLimitError`` before any is listed.
    """
    stack = as_stack(mats, name="summands")
    r, n = len(stack), stack.shape[-1]
    kernel = _kernel(DEFAULT_ENGINE if engine is None else engine, n)
    count = math.comb(n + r - 1, r - 1)
    if count > _DET_OF_SUM_MAX_COMPOSITIONS:
        raise GuardLimitError(
            f"det_of_sum guarded at {_DET_OF_SUM_MAX_COMPOSITIONS} compositions, got {count} for n={n}, r={r}"
        )
    weights, rows, grids = _composition_table(n, r)
    values = np.empty(len(weights), dtype=np.complex128)
    if kernel is _default_values:
        for pattern, where, order in grids:
            values[where] = _grid_values(stack, order, pattern)
    else:
        per_batch = max(1, (1 << _SUBSET_LOW_BITS) // n)
        for start in range(0, len(weights), per_batch):
            values[start : start + per_batch] = kernel(stack[rows[start : start + per_batch]])
    # a running sum in composition order adds the terms as a loop of += would
    return complex(np.cumsum(weights * values)[-1])
