"""References the benchmark owns: nothing here calls into polydet.

* ``permanent_exact``: Ryser's inclusion-exclusion permanent (Ryser 1963,
  *Combinatorial Mathematics*) over Gaussian integers, walked in Gray-code
  order so each step adds or removes one column.  Exact at any size.
* ``eps3_exact``: the n = 3 mixed discriminant by the subset-sum identity
  eps(A, B, C) = (1/6) sum_{I != {}} (-1)^(3-|I|) det(sum_{i in I} A_i),
  evaluated in exact rational arithmetic on the binary values of the
  float entries.
* ``haar_unitary``: a seeded Haar-random unitary for conjugated inputs.

Complex integers are (re, im) pairs of Python ints; exact complex rationals
are (re, im) pairs of ``Fraction``.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Sequence

import numpy as np

GaussInt = tuple[int, int]
GaussFrac = tuple[Fraction, Fraction]


def _cmul(a, b):
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def permanent_exact(rows: Sequence[Sequence[GaussInt]]) -> GaussInt:
    """Permanent of a square matrix of Gaussian integers, by Ryser's formula.

    perm(D) = (-1)^n sum_{S subset of columns} (-1)^|S| prod_i sum_{j in S} D[i][j].
    """
    n = len(rows)
    sum_re = [0] * n
    sum_im = [0] * n
    total_re = total_im = 0
    prev = 0
    for step in range(1, 1 << n):
        gray = step ^ (step >> 1)
        col = (gray ^ prev).bit_length() - 1
        sign = 1 if gray >> col & 1 else -1
        prev = gray
        for i in range(n):
            re, im = rows[i][col]
            sum_re[i] += sign * re
            sum_im[i] += sign * im
        pr, pi = 1, 0
        for i in range(n):
            a, b = sum_re[i], sum_im[i]
            pr, pi = pr * a - pi * b, pr * b + pi * a
        if gray.bit_count() % 2:
            total_re -= pr
            total_im -= pi
        else:
            total_re += pr
            total_im += pi
    if n % 2:
        return -total_re, -total_im
    return total_re, total_im


def _to_ints(mats: Sequence[np.ndarray]) -> tuple[list[list[list[GaussInt]]], int]:
    """Scale every entry of every matrix by one power of two so all become integers.

    Returns the integer matrices and the exponent e with entry = int / 2^e.
    """
    ratios = [
        [[(float(z.real).as_integer_ratio(), float(z.imag).as_integer_ratio()) for z in row] for row in m]
        for m in mats
    ]
    exp = 0
    for m in ratios:
        for row in m:
            for (_, dr), (_, di) in row:
                exp = max(exp, dr.bit_length() - 1, di.bit_length() - 1)
    out = [
        [[(nr << (exp - dr.bit_length() + 1), ni << (exp - di.bit_length() + 1)) for (nr, dr), (ni, di) in row] for row in m]
        for m in ratios
    ]
    return out, exp


def _det3(m: Sequence[Sequence[GaussInt]]) -> GaussInt:
    def minor(r1, r2, c1, c2):
        a = _cmul(m[r1][c1], m[r2][c2])
        b = _cmul(m[r1][c2], m[r2][c1])
        return a[0] - b[0], a[1] - b[1]

    t0 = _cmul(m[0][0], minor(1, 2, 1, 2))
    t1 = _cmul(m[0][1], minor(1, 2, 0, 2))
    t2 = _cmul(m[0][2], minor(1, 2, 0, 1))
    return t0[0] - t1[0] + t2[0], t0[1] - t1[1] + t2[1]


def eps3_exact(mats: Sequence[np.ndarray]) -> GaussFrac:
    """Exact mixed discriminant of three 3x3 complex matrices."""
    if len(mats) != 3 or any(np.shape(m) != (3, 3) for m in mats):
        raise ValueError("eps3_exact takes three 3x3 matrices")
    ints, exp = _to_ints(mats)
    acc_re = acc_im = 0
    for size in (1, 2, 3):
        sign = -1 if (3 - size) % 2 else 1
        for subset in itertools.combinations(range(3), size):
            summed = [
                [
                    (sum(ints[k][r][c][0] for k in subset), sum(ints[k][r][c][1] for k in subset))
                    for c in range(3)
                ]
                for r in range(3)
            ]
            d = _det3(summed)
            acc_re += sign * d[0]
            acc_im += sign * d[1]
    denom = 6 << (3 * exp)
    return Fraction(acc_re, denom), Fraction(acc_im, denom)


def det3_exact(m: np.ndarray) -> GaussFrac:
    """Exact determinant of a 3x3 complex matrix."""
    ints, exp = _to_ints([m])
    d = _det3(ints[0])
    return Fraction(d[0], 1 << (3 * exp)), Fraction(d[1], 1 << (3 * exp))


def to_complex(z: GaussFrac) -> complex:
    return complex(float(z[0]), float(z[1]))


def rel_err(value: complex, ref: complex) -> float:
    """|value - ref| / |ref|; infinite when the value is not finite."""
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        return math.inf
    return abs(value - ref) / abs(ref)


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-random unitary: QR of a complex Ginibre sample, R's phases absorbed."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def gaussian_ints(rng: np.random.Generator, n: int, bound: int) -> list[list[GaussInt]]:
    """n x n Gaussian integers with real and imaginary parts uniform on [-bound, bound]."""
    re = rng.integers(-bound, bound + 1, (n, n))
    im = rng.integers(-bound, bound + 1, (n, n))
    return [[(int(re[i, j]), int(im[i, j])) for j in range(n)] for i in range(n)]


def conjugated_diagonals(
    rng: np.random.Generator, rows: Sequence[Sequence[GaussInt]], divisor: int, scales: Sequence[float]
) -> list[np.ndarray]:
    """A_k = s_k U diag(rows[k] / divisor) U^dagger for one seeded unitary U.

    All A_k share the eigenbasis U, so eps(A_1..A_N) is ``diagonal_reference``
    of the same rows, divisor and scales.
    """
    u = haar_unitary(rng, len(rows))
    mats = []
    for row, scale in zip(rows, scales):
        d = np.array([complex(re, im) for re, im in row]) / divisor
        mats.append(scale * ((u * d) @ u.conj().T))
    return mats


def diagonal_reference(rows: Sequence[Sequence[GaussInt]], divisor: int, scales: Sequence[float]) -> complex:
    """eps of matrices sharing one eigenbasis: perm(D) / N!, D[k][j] = s_k rows[k][j] / divisor.

    The permanent is exact; the scales enter once, as a product, by multilinearity.
    """
    n = len(rows)
    pre, pim = permanent_exact(rows)
    denom = math.factorial(n) * divisor**n
    return to_complex((Fraction(pre, denom), Fraction(pim, denom))) * float(np.prod(scales))
