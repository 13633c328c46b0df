"""Signs and cycle covers of permutations, subsets, partitions, compositions
and cyclic trace words, shared by the engines and the symbolic layer.

One cycle walk gives both permutation signs and the cycle covers behind the
trace expansion.  Only subsets are one-based, following the tensor
notation; cycle covers, which index matrix stacks, are zero-based.
Partition vectors (n1, ..., nN) count trace factors of each word length and
satisfy n1 + 2*n2 + ... + N*nN = N.
All coefficients are exact ``fractions.Fraction`` values.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Sequence

__all__ = [
    "GuardLimitError",
    "permutation_sign",
    "cycle_covers",
    "enumerate_partition_vectors",
    "canonicalize",
    "cayley_hamilton_coefficient",
    "multinomial",
    "count_distinct_terms",
    "iterate_subsets",
    "compositions",
]

PERMUTATION_MAX_N = 10
SUBSET_MAX_N = 24


class GuardLimitError(ValueError):
    """Raised when an enumeration would blow past its cost guard."""


def _cycle_walk(images: Sequence[int]) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Sign and cycles of the permutation i -> images[i] of range(n).

    Each cycle starts at its smallest index, which is its lexicographically
    minimal rotation, and the cycles come in order of those indices.
    """
    seen = [False] * len(images)
    sign = 1
    cycles = []
    for start in range(len(images)):
        if seen[start]:
            continue
        cycle = []
        j = start
        while not seen[j]:
            seen[j] = True
            cycle.append(j)
            j = images[j]
        if len(cycle) % 2 == 0:
            sign = -sign
        cycles.append(tuple(cycle))
    return sign, tuple(cycles)


def permutation_sign(seq: Sequence[int]) -> int:
    """Parity of a sequence of distinct comparables, by cycle decomposition."""
    return _cycle_walk(sorted(range(len(seq)), key=lambda i: seq[i]))[0]


@lru_cache(maxsize=16)
def cycle_covers(n: int) -> tuple[tuple[int, tuple[tuple[int, ...], ...]], ...]:
    """(sign, cycles) of every permutation of range(n), in lexicographic order.

    The cycles of a permutation cover range(n); each starts at its smallest
    index, so an index cycle is already the canonical spelling of its word.
    """
    if n > PERMUTATION_MAX_N:
        raise GuardLimitError(f"cycle covers guarded at n <= {PERMUTATION_MAX_N}, got {n}")
    return tuple(_cycle_walk(p) for p in itertools.permutations(range(n)))


def _ascending_partitions(n: int, parts: int, smallest: int = 1) -> Iterator[tuple[int, ...]]:
    """Every partition of n into at most ``parts`` parts of at least ``smallest``, ascending."""
    if n == 0:
        yield ()
    elif parts:
        for m in range(smallest, n + 1):
            for rest in _ascending_partitions(n - m, parts - 1, m):
                yield (m, *rest)


def enumerate_partition_vectors(n: int) -> list[tuple[int, ...]]:
    """All (n1, ..., nN) with sum k*nk = N, as the integer partitions of N.

    Deterministic order: descending number of parts, then descending
    lexicographic on the count vector.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    vectors = (tuple(map(p.count, range(1, n + 1))) for p in _ascending_partitions(n, n))
    return sorted(vectors, key=lambda c: (-sum(c), tuple(-x for x in c)))


def canonicalize(word: Sequence) -> tuple:
    """Lexicographically minimal rotation of a cyclic trace word; idempotent."""
    w = tuple(word)
    if not w:
        raise ValueError("empty trace word")
    first = min(w)  # the minimal rotation starts with the minimal letter
    if w.count(first) == 1:  # only one rotation starts with it
        i = w.index(first)
        return w[i:] + w[:i]
    return min(w[i:] + w[:i] for i, letter in enumerate(w) if letter == first)


def _validate_partition_vector(counts: Sequence[int]) -> int:
    n = len(counts)
    if n < 1 or any(c < 0 for c in counts):
        raise ValueError(f"invalid partition vector {tuple(counts)}")
    if sum((k + 1) * c for k, c in enumerate(counts)) != n:
        raise ValueError(f"partition vector {tuple(counts)} does not satisfy sum k*nk = {n}")
    return n


def cayley_hamilton_coefficient(counts: Sequence[int]) -> Fraction:
    """Exact trace-expansion coefficient of a partition vector.

    C = (-1)^(n1+...+nN+N) / (1^n1 * 2^n2 * ... * N^nN * n1! * ... * nN!).
    """
    n = _validate_partition_vector(counts)
    denom = 1
    for k, c in enumerate(counts, start=1):
        denom *= k**c * math.factorial(c)
    sign = -1 if (sum(counts) + n) % 2 else 1
    return Fraction(sign, denom)


def multinomial(n: int, parts: Sequence[int]) -> int:
    """n! / (k1! k2! ... kr!) for non-negative parts summing to n."""
    if any(p < 0 for p in parts):
        raise ValueError(f"parts must be non-negative, got {tuple(parts)}")
    if sum(parts) != n:
        raise ValueError(f"parts {tuple(parts)} do not sum to {n}")
    out = math.factorial(n)
    for p in parts:
        out //= math.factorial(p)
    return out


def count_distinct_terms(counts: Sequence[int]) -> int:
    """Number of distinct trace monomials in the class of a partition vector.

    Equals N! * |C| where C is the class coefficient; always an integer.
    """
    n = _validate_partition_vector(counts)
    value = math.factorial(n) * abs(cayley_hamilton_coefficient(counts))
    assert value.denominator == 1
    return int(value)


def iterate_subsets(n: int) -> Iterator[tuple[int, ...]]:
    """All 2^n - 1 non-empty subsets of {1..n} as sorted index tuples.

    Deterministic bit order: subsets are enumerated by the integer value of
    their bitmask (bit i-1 encodes membership of index i).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > SUBSET_MAX_N:
        raise GuardLimitError(f"subset stream guarded at n <= {SUBSET_MAX_N}, got {n}")
    for mask in range(1, 1 << n):
        yield tuple(i + 1 for i in range(n) if mask >> i & 1)


def compositions(total: int, r: int) -> Iterator[tuple[int, ...]]:
    """All r-tuples of non-negative integers summing to total, lexicographically
    descending (so (total, 0, ..., 0) comes first).

    Composition (k_1, ..., k_r) counts the entries of the sorted tuple that
    repeats j k_j times, as ``itertools.combinations_with_replacement`` lists
    them; sorted tuples ascending are compositions descending.
    """
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    if total < 0:
        raise ValueError(f"total must be >= 0, got {total}")
    for repeated in itertools.combinations_with_replacement(range(r), total):
        counts = [0] * r
        for j in repeated:
            counts[j] += 1
        yield tuple(counts)
