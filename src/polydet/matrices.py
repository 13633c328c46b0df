"""Dense complex matrix helpers shared by every engine.

Matrices are plain ``numpy.ndarray`` values of dtype complex128 with shape
(n, n).  :func:`det` also takes a (B, n, n) stack and returns B values in
one call.  It validates its argument and runs :func:`det_stack`, the
trusted kernel that the engines and :func:`inverse` call on stacks they
have already made or checked: :func:`det_leibniz` for n <= 3, over the one
cached table :func:`signed_permutations`, and LAPACK LU above.
:func:`trace_sum_plan` compiles a weighted sum of products of word traces
once, to be evaluated on any complex stack in stacked real products,
which numpy runs several times faster than small complex ones.  The
symbolic layer compiles every expansion's plan, and the trace-formula
engine's, by it.  All functions are pure.
"""

from __future__ import annotations

import itertools
import json
from collections import defaultdict
from functools import lru_cache
from typing import Callable, Iterable, Sequence

import numpy as np

from .combinatorics import permutation_sign

__all__ = [
    "SingularMatrixError",
    "as_matrix",
    "as_stack",
    "validate_matrix_tuple",
    "trace_sum_plan",
    "det",
    "det_stack",
    "det_leibniz",
    "signed_permutations",
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

#: largest n whose determinants :func:`det_stack` takes as Leibniz gathers, not by LU
LEIBNIZ_MAX_N = 3


class SingularMatrixError(ValueError):
    """Raised when inverting a matrix whose determinant is below the floor."""


def _shape(part, name: str) -> tuple[int, ...]:
    """np.shape(part); a part whose nested lists do not form an array raises ValueError naming it."""
    try:
        return np.shape(part)
    except ValueError:
        raise ValueError(f"{name} is ragged: its nested lists do not form an array") from None


def _numbers(part, name: str) -> None:
    """Raise ValueError naming the field if an entry of ``part`` is not a
    number; a boolean or a string is none, though ``float`` reads them."""
    for entry in np.asarray(part, dtype=object).flat:
        try:
            if isinstance(entry, (bool, np.bool_, str, bytes)):
                raise TypeError
            float(entry)
        except OverflowError:  # a JSON integer beyond the float range
            raise ValueError(f"{name} contains non-finite entries") from None
        except (TypeError, ValueError):
            raise ValueError(f"{name} must hold numbers, got {entry!r}") from None


def _float_array(part, name: str) -> np.ndarray:
    """A JSON field as a float array; a ragged one, or one holding a non-number (a
    boolean, a string or a null), raises ValueError naming it.  A JSON NaN or Infinity
    passes, for the caller's finite check."""
    try:
        a = np.asarray(part, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        _shape(part, name)
        _numbers(part, name)
        raise
    entries = [part]
    for _ in range(a.ndim):
        entries = itertools.chain.from_iterable(entries)
    if not {int, float}.issuperset(map(type, entries)):  # a boolean, a string or a null converts without error
        _numbers(part, name)
    return a


def _as_square(m, name: str, ndim: int) -> np.ndarray:
    try:
        a = np.asarray(m, dtype=np.complex128)
    except ValueError:
        if ndim == 2:
            _shape(m, name)  # a ragged matrix names itself
            raise
        # parts of different shapes do not stack: name their shapes; a batch's tuple that does not stack names its own
        shapes = sorted({_shape(p, f"{name}[{k}]") if ndim == 3 else _as_square(p, name, 3).shape for k, p in enumerate(m)})
        if len(shapes) > 1:
            raise ValueError(f"{name} mixes {('matrix', 'tuple')[ndim - 3]} shapes {shapes}") from None
        raise
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
    return _as_square(mats, name, 3)


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
    are numbered as given.  The returned function takes an (N, n, n)
    complex stack and multiplies in real arithmetic: each letter A, once
    per call, as the (2n, 2n) form [[Re A, Im A], [-Im A, Re A]], and each
    prefix product P as the (n, 2n) [Re P | Im P], which times A's form is
    [Re PA | Im PA].  Into one buffer of prefixes it copies the first
    letters of the longer words and multiplies the needed prefixes of each
    length in one stacked ``matmul`` from those one letter shorter.
    Tr(P A) is the sum of P's entries times A^T's, so one product of the
    (prefixes, 2n^2) buffer with the top and bottom halves of the last
    letters' transposed forms holds (Re, Im) of the trace of every prefix
    times every letter; viewed as complex, one gather takes each word of
    two or more letters from it, and a plan without such words builds no
    forms.  One ``trace`` of the stack gives the one-letter words.  A
    (words, terms) gather of the trace vector, whose trailing 1.0 pads the
    terms with fewer words, is multiplied row by row into the terms'
    products.
    """
    terms = list(terms)
    listed = [w for _, words in terms for w in words]
    distinct = dict.fromkeys(listed)
    singles = [w for w in distinct if len(w) == 1]
    longer = [w for w in distinct if len(w) > 1]
    ids = {w: entry for entry, w in enumerate(singles + longer)}  # word -> its entry in the trace vector
    weights = np.array([weight for weight, _ in terms], dtype=np.float64)
    counts = np.array([len(words) for _, words in terms], dtype=np.intp)
    pad = len(ids)
    index = np.full((counts.max(initial=0), len(counts)), pad, dtype=np.intp)
    index.T[np.arange(len(index)) < counts[:, None]] = list(map(ids.__getitem__, listed))  # term by term

    # rows[k]: (parent row, last letter) of each prefix of length k -> its row among them;
    # a one-letter prefix is keyed by its letter
    rows: defaultdict[int, dict] = defaultdict(dict)
    ends = []  # (length, row) of each longer word's prefix without its last letter, and that letter
    for w in longer:
        parent = rows[1].setdefault(w[0], len(rows[1]))
        for k in range(2, len(w)):
            parent = rows[k].setdefault((parent, w[k - 1]), len(rows[k]))
        ends.append((len(w) - 1, parent, w[-1]))
    starts = np.cumsum([0] + [len(rows[k]) for k in range(1, len(rows) + 1)])  # the buffer's row of each level
    levels = []
    for k in range(2, len(rows) + 1):
        parent, last = np.array(list(rows[k]), dtype=np.intp).T
        levels.append((starts[k - 2] + parent, last, slice(starts[k - 1], starts[k])))
    columns = {letter: c for c, letter in enumerate(dict.fromkeys(last for _, _, last in ends))}
    gather = np.array([(starts[k - 1] + row) * len(columns) + columns[last] for k, row, last in ends], dtype=np.intp)
    firsts, lasts = (np.array(list(letters), dtype=np.intp) for letters in (rows[1], columns))
    single_letters = np.array([w[0] for w in singles], dtype=np.intp)

    def value(stack: np.ndarray) -> complex:
        n = stack.shape[-1]
        tr = np.empty(pad + 1, dtype=np.complex128)
        tr[: len(singles)] = np.trace(stack[single_letters], axis1=1, axis2=2)
        tr[pad] = 1.0
        if longer:
            forms = np.empty((len(stack), 2 * n, 2 * n))  # [[Re A, Im A], [-Im A, Re A]] of each letter
            forms[:, :n, :n] = forms[:, n:, n:] = stack.real
            forms[:, :n, n:] = stack.imag
            np.negative(stack.imag, out=forms[:, n:, :n])
            prods = np.empty((starts[-1], n, 2 * n))  # [Re P | Im P] of each prefix
            prods[: len(firsts)] = forms[firsts, :n]
            for parent, last, out in levels:
                np.matmul(prods[parent], forms[last], out=prods[out])
            turned = forms[lasts].transpose(0, 2, 1).reshape(2 * len(lasts), 2 * n * n)
            tr[len(singles) : pad] = (prods.reshape(-1, 2 * n * n) @ turned.T).view(np.complex128).ravel()[gather]
        return complex(weights @ np.multiply.reduce(tr[index], axis=0))

    return value


@lru_cache(maxsize=16)
def signed_permutations(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(arange(n), the (n!, n) permutations of range(n) in lexicographic
    order, their (n!,) float signs); cached and read-only, as callers share them."""
    perms = list(itertools.permutations(range(n)))
    table = np.arange(n), np.array(perms), np.array([permutation_sign(p) for p in perms], dtype=np.float64)
    for a in table:
        a.flags.writeable = False
    return table


def det_leibniz(stack: np.ndarray) -> np.ndarray:
    """Leibniz determinants of a trusted (B, n, n) stack, as B values.

    sum_sigma sgn(sigma) prod_i a[i, sigma(i)] over :func:`signed_permutations`,
    gathered by one index of B * n! * n entries; exact on small integers.
    The batch axis is innermost, so numpy reduces a stack of one by its scalar
    complex multiply and a larger stack by its SIMD (fused multiply-add) loop:
    a matrix's value can differ between the two in its last bits, by under
    1e-15 of the sum of the terms' moduli.
    """
    rows, perms, signs = signed_permutations(stack.shape[-1])
    return (stack[:, rows, perms].prod(axis=-1) * signs).sum(axis=-1)


def det_stack(stack: np.ndarray) -> np.ndarray:
    """Determinants of a trusted (B, n, n) complex128 stack, as B values.

    Nothing is checked: the caller passes a finite stack of square matrices
    that it made or validated.  :func:`det_leibniz` for n <= ``LEIBNIZ_MAX_N``
    (3), LU factorization with partial pivoting (LAPACK) above.  A Leibniz
    gather's cost is the call more than the matrix count, and a value's last
    bits depend on the stack's size; see :func:`det_leibniz`.
    """
    return det_leibniz(stack) if stack.shape[-1] <= LEIBNIZ_MAX_N else np.linalg.det(stack)


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
    re = _float_array(obj["re"], '"re"')
    im = _float_array(obj["im"], '"im"') if "im" in obj else np.zeros_like(re)
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
