"""Dense complex matrix helpers shared by every engine.

Matrices are plain ``numpy.ndarray`` values of dtype complex128 with shape
(n, n).  :func:`det` also takes a (B, n, n) stack and returns B values in
one call.  It validates its argument and runs :func:`det_stack`, the
trusted kernel that the engines and :func:`inverse` call on stacks they
have already made or checked.  :func:`trace_sum_plan` compiles a weighted
sum of products of word traces once, to be evaluated on any stack in
stacked products; the trace-formula engine and the symbolic layer share
it.  All functions are pure; nothing here holds global state apart from
the per-call PRNG created by :func:`random_matrix`.
"""

from __future__ import annotations

import json
from collections import defaultdict
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "SingularMatrixError",
    "as_matrix",
    "as_stack",
    "validate_matrix_tuple",
    "trace_sum_plan",
    "det",
    "det_stack",
    "trace",
    "dagger",
    "inverse",
    "identity",
    "random_matrix",
    "matrix_to_json",
    "matrix_from_json",
    "load_matrix_file",
]

#: relative tolerance used for floating comparisons throughout the package
REL_TOL = 1e-9
#: absolute floor below which two values are considered equal regardless of scale
ABS_TOL = 1e-12

RANDOM_KINDS = ("general", "unitary", "special-unitary", "traceless-hermitian")


class SingularMatrixError(ValueError):
    """Raised when inverting a matrix whose determinant is below the floor."""


def _as_square(m, name: str, ndim: int) -> np.ndarray:
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != ndim or a.shape[-1] != a.shape[-2] or a.shape[-1] < 1:
        what = ("square", "a stack of square matrices", "a batch of stacks of square matrices")[ndim - 2]
        raise ValueError(f"{name} must be {what} with n >= 1, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} contains non-finite entries")
    return a


def as_matrix(m, *, name: str = "matrix") -> np.ndarray:
    """Coerce to a square complex128 array and reject non-finite entries."""
    return _as_square(m, name, 2)


def as_stack(mats: Sequence, *, name: str = "matrix tuple") -> np.ndarray:
    """Coerce equal-size square matrices to one finite (N, n, n) complex128
    stack in one conversion; such an array is returned as it is."""
    try:
        return _as_square(mats, name, 3)
    except ValueError:
        shapes = sorted({np.shape(m) for m in mats})
        if len(shapes) > 1:
            raise ValueError(f"{name} mixes matrix shapes {shapes}") from None
        raise


def validate_matrix_tuple(mats: Sequence, *, batched: bool = False) -> tuple[int, np.ndarray]:
    """Validate an argument tuple: n matrices, each n x n, all finite.

    Returns (n, stack) with the matrices coerced to complex128 and stacked
    into one (n, n, n) array; ``stack[k]`` is argument k.  With ``batched``,
    ``mats`` is a batch of B such tuples and the stack is (B, n, n, n).
    """
    stack = _as_square(mats, "matrix tuple", 4) if batched else as_stack(mats)
    n = stack.shape[-1]
    if stack.shape[-3] != n:
        raise ValueError(f"tuple of {stack.shape[-3]} matrices does not match dimension {n}")
    return n, stack


def trace_sum_plan(terms: Iterable[tuple[float, Sequence[tuple[int, ...]]]]) -> Callable[[np.ndarray], complex]:
    """Compile sum_t w_t prod_{words w of t} Tr(stack[w_0] @ stack[w_1] @ ...).

    ``terms`` are (weight, words) pairs whose words are non-empty tuples of
    indices into a stack; pass one spelling per cyclic word, since words
    are numbered as given.  The returned function takes an (N, n, n) stack.
    It multiplies the needed prefixes of each length in one stacked
    ``matmul`` from those one letter shorter, takes the traces of the words
    of each length by one ``einsum`` of prefix and last letter, and sums the
    terms by one gather into the trace vector, whose trailing 1.0 pads the
    terms with fewer words.
    """
    ids: dict[tuple, int] = {}  # word -> its entry in the trace vector
    weights, counts, entries = [], [], []
    for weight, words in terms:
        weights.append(weight)
        counts.append(len(words))
        entries.extend(ids.setdefault(w, len(ids)) for w in words)
    weights = np.array(weights, dtype=np.float64)
    counts = np.array(counts, dtype=np.intp)
    pad = len(ids)
    index = np.full((len(counts), counts.max(initial=0)), pad, dtype=np.intp)
    index[np.arange(index.shape[1]) < counts[:, None]] = entries  # row by row, as listed

    rows: dict[tuple, int] = {}  # prefix of length >= 2 -> its row among the prefixes of its length
    steps = defaultdict(list)  # length -> (parent row, last letter) of each prefix of that length
    by_length = defaultdict(list)  # length -> (trace entry, prefix row, last letter) of each word
    for w, entry in ids.items():
        parent = w[0]  # the row of w[:k - 1]; a one-letter prefix is its letter's row in the stack
        for k in range(2, len(w)):
            got = rows.get(w[:k])
            if got is None:
                got = rows[w[:k]] = len(steps[k])
                steps[k].append((parent, w[k - 1]))
            parent = got
        by_length[len(w)].append((entry, parent, w[-1]))
    words = [(length, *np.array(by_length[length], dtype=np.intp).T) for length in sorted(by_length)]
    levels = [np.array(steps[k], dtype=np.intp).T for k in range(2, max(by_length, default=0))]

    def value(stack: np.ndarray) -> complex:
        prods = [None, stack]  # prods[k][r] = product of the length-k prefix in row r
        for parent, last in levels:
            prods.append(prods[-1][parent] @ stack[last])
        tr = np.ones(pad + 1, dtype=np.complex128)
        for length, entry, parent, last in words:
            if length == 1:
                tr[entry] = np.einsum("bii->b", stack[last])
            else:
                tr[entry] = np.einsum("bij,bji->b", prods[length - 1][parent], stack[last])
        return complex(weights @ tr[index].prod(axis=1))

    return value


#: (rows, permutations, signs) of the closed-form expansion for n = 1, 2, 3
_CLOSED_FORM = {
    n: (np.arange(n), np.array(perms), np.array(signs))
    for n, perms, signs in (
        (1, [[0]], [1.0]),
        (2, [[0, 1], [1, 0]], [1.0, -1.0]),
        (3, [[0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]],
         [1.0, -1.0, -1.0, 1.0, 1.0, -1.0]),
    )
}


def _det_cofactor(a: np.ndarray) -> np.ndarray:
    """Closed-form determinants of a (B, n, n) stack, n <= 3.

    The n! signed products sum_sigma sgn(sigma) prod_i a[i, sigma(i)] (the
    rule of Sarrus at n = 3), gathered by one index; exact on small-integer
    entries.
    """
    rows, perms, signs = _CLOSED_FORM[a.shape[-1]]
    return (a[:, rows, perms].prod(axis=-1) * signs).sum(axis=-1)


def det_stack(stack: np.ndarray) -> np.ndarray:
    """Determinants of a trusted (B, n, n) complex128 stack, as B values.

    Nothing is checked: the caller passes a finite stack of square matrices
    that it made or validated.  The closed-form cofactor expansion for
    n <= 3, LU factorization with partial pivoting (LAPACK) for n >= 4.
    """
    return _det_cofactor(stack) if stack.shape[-1] <= 3 else np.linalg.det(stack)


def det(m):
    """Determinant of a complex square matrix, or of every matrix in a stack.

    An (n, n) matrix gives a complex; a (B, n, n) stack gives a (B,)
    complex128 array.  The argument is validated, then both run
    :func:`det_stack`, a matrix as a stack of one.
    """
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 3:
        return complex(det_stack(_as_square(a, "matrix", 2)[None])[0])
    return det_stack(_as_square(a, "matrix stack", 3))


def trace(m) -> complex:
    """Sum of diagonal entries."""
    return complex(np.trace(as_matrix(m)))


def dagger(m) -> np.ndarray:
    """Conjugate transpose."""
    return as_matrix(m).conj().T


def identity(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.complex128)


def inverse(m) -> np.ndarray:
    """Matrix inverse via LU, guarded by the singularity floor.

    A matrix is treated as singular when |det| <= 1e-12 * (max row norm)^n,
    where the row norm is the maximum absolute row sum; the zero matrix is
    singular.
    """
    a = as_matrix(m)
    n = a.shape[0]
    row_norm = float(np.max(np.sum(np.abs(a), axis=1)))
    d = det_stack(a[None])[0]
    if abs(d) <= ABS_TOL * row_norm**n:
        raise SingularMatrixError(f"matrix is numerically singular (|det|={abs(d):.3e})")
    return np.linalg.inv(a)


def random_matrix(n: int, seed: int, kind: str = "general") -> np.ndarray:
    """Deterministic random n x n complex matrix.

    The generator is numpy's ``default_rng`` (PCG64), freshly seeded per call,
    so a given (n, seed, kind) always yields the same matrix.

    kind:
        "general"             re and im of every entry uniform on [-1, 1]
        "unitary"             QR orthonormalization of a general sample with
                              the R-diagonal phases absorbed into Q
        "special-unitary"     unitary sample rescaled by det^(-1/n)
        "traceless-hermitian" Hermitian part of a general sample with the
                              trace projected out
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    kind = kind.replace("_", "-")
    if kind not in RANDOM_KINDS:
        raise ValueError(f"unknown matrix kind {kind!r}; expected one of {RANDOM_KINDS}")
    rng = np.random.default_rng(seed)
    g = rng.uniform(-1.0, 1.0, (n, n)) + 1j * rng.uniform(-1.0, 1.0, (n, n))
    if kind == "general":
        return g
    if kind in ("unitary", "special-unitary"):
        q, r = np.linalg.qr(g)
        d = np.diagonal(r).copy()
        d[d == 0] = 1.0
        u = q * (d / np.abs(d))
        if kind == "special-unitary":
            u = u * complex(np.linalg.det(u)) ** (-1.0 / n)
        return u
    h = (g + g.conj().T) / 2.0
    return h - (np.trace(h) / n) * np.eye(n)


def matrix_to_json(m) -> str:
    """Serialize to the CLI's JSON matrix format."""
    a = as_matrix(m)
    payload = {
        "n": int(a.shape[0]),
        "re": a.real.tolist(),
        "im": a.imag.tolist(),
    }
    return json.dumps(payload)


def matrix_from_json(obj) -> np.ndarray:
    """Parse the JSON matrix format (a dict or a JSON string).

    Schema: {"n": 3, "re": [[...], ...], "im": [[...], ...]}; "n" is an
    integer, and "im" may be omitted and then defaults to zero.  Row index
    first.
    """
    if isinstance(obj, (str, bytes)):
        obj = json.loads(obj)
    if not isinstance(obj, dict) or "n" not in obj or "re" not in obj:
        raise ValueError('matrix JSON must be an object with "n" and "re" fields')
    n = obj["n"]
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError(f'"n" must be an integer, got {n!r}')
    re = np.asarray(obj["re"], dtype=float)
    im = np.asarray(obj["im"], dtype=float) if "im" in obj else np.zeros_like(re)
    if re.shape != (n, n) or im.shape != (n, n):
        raise ValueError(f'"re"/"im" must be {n}x{n} arrays, got {re.shape} and {im.shape}')
    return as_matrix(re + 1j * im)


def load_matrix_file(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        return matrix_from_json(json.load(fh))


def max_deviation(pairs: Sequence[tuple[complex, complex]]) -> float:
    """Largest relative deviation over (value, reference) pairs, floored absolutely."""
    worst = 0.0
    for a, b in pairs:
        scale = max(abs(a), abs(b), ABS_TOL / REL_TOL)
        worst = max(worst, float(abs(a - b) / scale))
    return worst
