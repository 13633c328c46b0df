import itertools
import math
from collections import Counter, defaultdict
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from polydet.combinatorics import (
    GuardLimitError,
    canonicalize,
    cayley_hamilton_coefficient,
    compositions,
    count_distinct_terms,
    cycle_covers,
    enumerate_partition_vectors,
    iterate_subsets,
    multinomial,
    permutation_sign,
)
from polydet.engines import _composition_table


def inversion_parity(seq):
    inversions = sum(1 for i, j in itertools.combinations(range(len(seq)), 2) if seq[i] > seq[j])
    return -1 if inversions % 2 else 1


def test_permutation_sign_matches_inversion_parity():
    for n in range(1, 7):
        for perm in itertools.permutations(range(n)):
            assert permutation_sign(perm) == inversion_parity(perm)
    seq = (0.5, -1.5, 3.25)  # any distinct comparables: one inversion
    assert permutation_sign(seq) == inversion_parity(seq) == -1


def test_cycle_covers_guard():
    with pytest.raises(GuardLimitError, match="n <= 10, got 11"):
        cycle_covers(11)


def test_partition_vectors_n2():
    assert set(enumerate_partition_vectors(2)) == {(2, 0), (0, 1)}


def test_partition_vectors_n3():
    assert set(enumerate_partition_vectors(3)) == {(3, 0, 0), (1, 1, 0), (0, 0, 1)}


def test_partition_vectors_n5_count():
    assert len(enumerate_partition_vectors(5)) == 7


def partition_vectors_reference(n):
    """The count vectors of n filled in word length by word length, then sorted: the
    recursive enumeration ``enumerate_partition_vectors`` once ran, kept as its oracle."""
    found = []

    def fill(rest, k, counts):
        if k > n:
            if rest == 0:
                found.append(tuple(counts))
            return
        for ct in range(rest // k + 1):
            counts.append(ct)
            fill(rest - k * ct, k + 1, counts)
            counts.pop()

    fill(n, 1, [])
    found.sort(key=lambda c: (-sum(c), tuple(-x for x in c)))
    return found


@pytest.mark.parametrize("n", range(1, 17))
def test_partition_vectors_match_the_recursive_reference(n):
    assert enumerate_partition_vectors(n) == partition_vectors_reference(n)


def test_partition_vectors_deterministic_order():
    assert enumerate_partition_vectors(4) == [
        (4, 0, 0, 0),
        (2, 1, 0, 0),
        (1, 0, 1, 0),
        (0, 2, 0, 0),
        (0, 0, 0, 1),
    ]


@given(st.integers(1, 8))
def test_partition_vectors_satisfy_constraint(n):
    vectors = enumerate_partition_vectors(n)
    assert len(set(vectors)) == len(vectors)
    for counts in vectors:
        assert len(counts) == n
        assert sum(k * c for k, c in enumerate(counts, start=1)) == n


def test_coefficients_n2():
    assert cayley_hamilton_coefficient((2, 0)) == Fraction(1, 2)
    assert cayley_hamilton_coefficient((0, 1)) == Fraction(-1, 2)


def test_coefficients_n3():
    assert cayley_hamilton_coefficient((3, 0, 0)) == Fraction(1, 6)
    assert cayley_hamilton_coefficient((1, 1, 0)) == Fraction(-1, 2)
    assert cayley_hamilton_coefficient((0, 0, 1)) == Fraction(1, 3)


def test_coefficient_top_class_n5():
    assert cayley_hamilton_coefficient((0, 0, 0, 0, 1)) == Fraction(1, 5)


def test_coefficient_rejects_bad_vector():
    with pytest.raises(ValueError):
        cayley_hamilton_coefficient((1, 1))
    with pytest.raises(ValueError):
        cayley_hamilton_coefficient((-1, 0, 1))


def test_collapsed_coefficient_set_n4():
    scaled = {counts: cayley_hamilton_coefficient(counts) * 24 for counts in enumerate_partition_vectors(4)}
    assert scaled == {
        (4, 0, 0, 0): 1,
        (2, 1, 0, 0): -6,
        (0, 2, 0, 0): 3,
        (1, 0, 1, 0): 8,
        (0, 0, 0, 1): -6,
    }


def test_collapsed_coefficient_set_n5():
    scaled = {counts: cayley_hamilton_coefficient(counts) * 120 for counts in enumerate_partition_vectors(5)}
    assert scaled == {
        (5, 0, 0, 0, 0): 1,
        (3, 1, 0, 0, 0): -10,
        (2, 0, 1, 0, 0): 20,
        (1, 2, 0, 0, 0): 15,
        (1, 0, 0, 1, 0): -30,
        (0, 1, 1, 0, 0): -20,
        (0, 0, 0, 0, 1): 24,
    }


def test_multinomial_values():
    assert multinomial(2, (1, 1)) == 2
    assert multinomial(3, (1, 1, 1)) == 6
    assert multinomial(3, (2, 1)) == 3
    assert multinomial(4, (4,)) == 1


def test_multinomial_sum_mismatch():
    with pytest.raises(ValueError):
        multinomial(3, (1, 1))
    with pytest.raises(ValueError):
        multinomial(3, (4, -1))


def test_count_distinct_terms_n4():
    assert count_distinct_terms((4, 0, 0, 0)) == 1
    assert count_distinct_terms((2, 1, 0, 0)) == 6
    assert count_distinct_terms((0, 2, 0, 0)) == 3
    assert count_distinct_terms((1, 0, 1, 0)) == 8
    assert count_distinct_terms((0, 0, 0, 1)) == 6


def test_count_distinct_terms_single_trace_class():
    # the full-length trace class always has (n-1)! distinct cyclic words
    for n in range(2, 7):
        counts = tuple([0] * (n - 1) + [1])
        assert count_distinct_terms(counts) == math.factorial(n - 1)


@given(st.integers(1, 7))
def test_count_distinct_terms_always_integer(n):
    for counts in enumerate_partition_vectors(n):
        value = math.factorial(n) * abs(cayley_hamilton_coefficient(counts))
        assert value.denominator == 1
        assert count_distinct_terms(counts) == value


@pytest.mark.parametrize("n", range(1, 8))
def test_cycle_covers_give_the_class_coefficients(n):
    """Grouped by cycle type, sgn(sigma) / n! sums to each class coefficient."""
    coefficient = defaultdict(Fraction)
    size = Counter()
    for sign, cycles in cycle_covers(n):
        assert sorted(i for c in cycles for i in c) == list(range(n))
        assert all(c[0] == min(c) for c in cycles)
        counts = [0] * n
        for c in cycles:
            counts[len(c) - 1] += 1
        counts = tuple(counts)
        coefficient[counts] += Fraction(sign, math.factorial(n))
        size[counts] += 1
    assert sorted(coefficient) == sorted(enumerate_partition_vectors(n))
    for counts in coefficient:
        assert coefficient[counts] == cayley_hamilton_coefficient(counts)
        assert size[counts] == count_distinct_terms(counts)


def test_subsets_n2():
    assert list(iterate_subsets(2)) == [(1,), (2,), (1, 2)]


def test_subsets_counts():
    assert len(list(iterate_subsets(3))) == 7
    assert len(list(iterate_subsets(5))) == 31


def test_subsets_guard():
    with pytest.raises(GuardLimitError):
        next(iterate_subsets(25))


def test_compositions():
    assert list(compositions(2, 2)) == [(2, 0), (1, 1), (0, 2)]
    assert list(compositions(3, 1)) == [(3,)]
    assert all(sum(c) == 4 for c in compositions(4, 3))
    assert len(list(compositions(4, 3))) == 15


@pytest.mark.parametrize("total", range(6))
@pytest.mark.parametrize("r", range(1, 6))
def test_compositions_are_every_tuple_in_descending_order(total, r):
    expected = sorted((c for c in itertools.product(range(total + 1), repeat=r) if sum(c) == total), reverse=True)
    assert list(compositions(total, r)) == expected


def test_compositions_list_long_tuples_without_recursion():
    # r past the interpreter's recursion limit: the unit vectors in order
    count = 0
    for k, c in enumerate(compositions(1, 3000)):
        assert len(c) == 3000 and c[k] == 1 and sum(c) == 1
        count += 1
    assert count == 3000
    assert list(compositions(0, 3)) == [(0, 0, 0)]


def test_compositions_refuse_a_negative_total():
    with pytest.raises(ValueError, match=r"^total must be >= 0, got -1$"):
        list(compositions(-1, 2))


@pytest.mark.parametrize("n, r", [(3, 9), (5, 5)])
def test_composition_table_counts_to_the_compositions(n, r):
    # det_of_sum's repeated tuples and the compositions are one listing, in one order
    tuples = _composition_table(n, r)[0]
    assert [tuple(np.bincount(t, minlength=r).tolist()) for t in tuples] == list(compositions(n, r))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: enumerate_partition_vectors(0), "n must be >= 1, got 0"),
        (lambda: canonicalize([]), "empty trace word"),
        (lambda: list(iterate_subsets(0)), "n must be >= 1, got 0"),
        (lambda: list(compositions(2, 0)), "r must be >= 1, got 0"),
    ],
    ids=("partition-vectors-of-0", "empty-word", "subsets-of-0", "compositions-into-0-parts"),
)
def test_empty_enumerations_are_refused(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()
