import itertools
import json
import math

import numpy as np
import pytest

from polydet.combinatorics import permutation_sign
from polydet.matrices import (
    SingularMatrixError,
    as_matrix,
    dagger,
    det,
    det_leibniz,
    identity,
    inverse,
    load_matrix_file,
    matrix_from_json,
    matrix_to_json,
    random_matrix,
    signed_permutations,
    trace,
    trace_sum_plan,
    validate_matrix_tuple,
)


def test_det_identity():
    assert det(identity(3)) == 1


def test_det_2x2_closed_form():
    assert det(np.array([[1, 2], [3, 4]])) == -2


def test_det_zero_eigenvalue():
    assert det(np.diag([1.0, -1.0, 0.0])) == 0


@pytest.mark.parametrize("n", range(1, 7))
def test_det_of_stack_matches_each_matrix(n):
    stack = np.stack([random_matrix(n, 700 + k) for k in range(5)])
    got = det(stack)
    assert got.shape == (5,) and got.dtype == np.complex128
    for d, m in zip(got, stack):
        assert abs(d - det(m)) <= 1e-14 * abs(d)
        assert abs(d - np.linalg.det(m)) <= 1e-12 * max(1.0, abs(d))


def test_det_of_stack_methods_and_errors():
    stack = np.stack([random_matrix(3, 710 + k) for k in range(4)])
    assert np.allclose(det(stack), np.linalg.det(stack), rtol=1e-12, atol=0)
    assert det(np.zeros((0, 3, 3))).shape == (0,)
    with pytest.raises(ValueError):
        det(np.zeros((2, 3, 4)))
    with pytest.raises(ValueError):
        det(np.full((2, 2, 2), np.nan))


@pytest.mark.parametrize("n", range(1, 8))
def test_signed_permutations_are_lexicographic_read_only_and_signed(n):
    rows, perms, signs = signed_permutations(n)
    assert rows.tolist() == list(range(n))
    assert [tuple(p) for p in perms.tolist()] == list(itertools.permutations(range(n)))
    assert signs.dtype == np.float64
    assert signs.tolist() == [permutation_sign(p) for p in perms.tolist()]
    for a in (rows, perms, signs):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0
    assert signed_permutations(n)[1] is perms  # one cached table


@pytest.mark.parametrize("n", range(1, 8))
def test_det_leibniz_matches_lu(n):
    rng = np.random.default_rng([91, n])
    stack = rng.uniform(-1, 1, (3, n, n)) + 1j * rng.uniform(-1, 1, (3, n, n))
    want = np.linalg.det(stack)
    assert np.all(np.abs(det_leibniz(stack) - want) <= 1e-13 * np.maximum(1.0, np.abs(want)))


@pytest.mark.parametrize("n", range(1, 8))
def test_det_leibniz_is_exact_on_gaussian_integers(n):
    # entries in {-3..3} + i{-3..3}: every product and partial sum below n = 8
    # is a Gaussian integer of modulus below 2^53, so each operation is exact
    rng = np.random.default_rng([92, n])
    stack = rng.integers(-3, 4, (3, n, n)) + 1j * rng.integers(-3, 4, (3, n, n))
    for d, m in zip(det_leibniz(stack), stack.tolist()):
        exact = sum(
            permutation_sign(p) * np.prod([complex(m[i][p[i]]) for i in range(n)])
            for p in itertools.permutations(range(n))
        )
        assert d == exact


@pytest.mark.parametrize("n", [2, 3])
def test_det_leibniz_depends_on_the_stack_size_only_in_the_last_bits(n):
    # a stack of one and a larger one take different complex multiply loops;
    # the gap stays below 1e-15 of the sum of the terms' moduli
    rows, perms, _ = signed_permutations(n)
    rng = np.random.default_rng([93, n])
    stack = rng.uniform(-1, 1, (1000, n, n)) + 1j * rng.uniform(-1, 1, (1000, n, n))
    alone = np.array([det(m) for m in stack])
    scale = np.abs(stack[:, rows, perms].prod(axis=-1)).sum(axis=-1)
    for together in (det(stack), det(np.repeat(stack, 2, axis=0))[::2]):
        assert np.all(np.abs(together - alone) <= 1e-15 * scale)


def test_det_multiplicative():
    for n in range(2, 7):
        a = random_matrix(n, 2 * n)
        b = random_matrix(n, 2 * n + 1)
        lhs = det(a @ b)
        rhs = det(a) * det(b)
        assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), abs(rhs), 1e-3)


def test_det_conjugation_invariant():
    for n in range(2, 6):
        a = random_matrix(n, 5 * n)
        u = random_matrix(n, 5 * n + 1)
        lhs = det(u @ a @ inverse(u))
        assert abs(lhs - det(a)) <= 1e-9 * max(abs(lhs), 1.0)


def test_trace_examples():
    assert trace(identity(4)) == 4
    assert trace(np.array([[1, 2], [3, 4]])) == 5
    assert trace(np.diag([1.0, -1.0, 0.0])) == 0


def test_inverse_roundtrip():
    a = random_matrix(4, 9)
    assert np.max(np.abs(a @ inverse(a) - identity(4))) < 1e-10


def test_inverse_singular_raises():
    with pytest.raises(SingularMatrixError):
        inverse(np.diag([1.0, -1.0, 0.0]))
    with pytest.raises(SingularMatrixError):
        inverse(np.zeros((3, 3)))


def test_inverse_floor_scales_with_the_matrix():
    # |det| = 1e-15 is tiny, but so is the row norm: the matrix is perfectly conditioned
    assert np.allclose(inverse(1e-5 * identity(3)), 1e5 * identity(3), rtol=1e-14, atol=0)


def test_scaling_commutes_with_product():
    a = random_matrix(3, 1)
    b = random_matrix(3, 2)
    alpha = 0.7 - 1.3j
    assert np.allclose((alpha * a) @ b, alpha * (a @ b), atol=1e-13)


def test_dagger():
    a = random_matrix(3, 3)
    assert np.allclose(dagger(a), a.conj().T)


def test_as_matrix_rejects_bad_shapes():
    with pytest.raises(ValueError):
        as_matrix(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        as_matrix(np.array([[np.inf, 0], [0, 1]]))
    with pytest.raises(ValueError, match=r"^binding\[A\] is ragged: its nested lists do not form an array$"):
        as_matrix([[1, 2], [3]], name="binding[A]")


def test_validate_matrix_tuple():
    n, mats = validate_matrix_tuple([identity(2), identity(2)])
    assert n == 2 and len(mats) == 2
    assert mats.shape == (2, 2, 2) and mats.dtype == np.complex128
    with pytest.raises(ValueError):
        validate_matrix_tuple([identity(2)])
    with pytest.raises(ValueError):
        validate_matrix_tuple([identity(2), identity(2), identity(3)])


def test_validate_matrix_tuple_takes_a_stack_as_it_is():
    stack = np.stack([random_matrix(3, k) for k in range(3)])
    n, got = validate_matrix_tuple(stack)
    assert n == 3 and got is stack


def test_validate_matrix_tuple_names_what_is_wrong():
    with pytest.raises(ValueError, match=r"got shape \(0,\)"):
        validate_matrix_tuple([])
    with pytest.raises(ValueError, match=r"mixes matrix shapes \[\(2, 2\), \(3, 3\)\]"):
        validate_matrix_tuple([identity(2), identity(3)])
    with pytest.raises(ValueError, match="non-finite"):
        validate_matrix_tuple([identity(2), np.array([[np.nan, 0], [0, 1]])])
    with pytest.raises(ValueError, match="square"):
        validate_matrix_tuple([np.zeros((2, 3))] * 2)


def test_random_unitary_is_unitary():
    u = random_matrix(2, 42, "unitary")
    assert np.max(np.abs(u @ u.conj().T - identity(2))) < 1e-12


def test_random_special_unitary_det_one():
    u = random_matrix(3, 7, "special-unitary")
    assert abs(det(u) - 1) < 1e-12
    assert np.max(np.abs(u @ u.conj().T - identity(3))) < 1e-12


def test_random_matrix_deterministic():
    a = random_matrix(3, 7, "general")
    b = random_matrix(3, 7, "general")
    assert a.tobytes() == b.tobytes()


def test_random_traceless_hermitian():
    h = random_matrix(4, 5, "traceless-hermitian")
    assert np.max(np.abs(h - h.conj().T)) < 1e-14
    assert abs(np.trace(h)) < 1e-13


def test_random_matrix_rejects_unknown_kind():
    with pytest.raises(ValueError):
        random_matrix(3, 0, "symplectic")


def test_matrix_json_roundtrip():
    a = random_matrix(3, 11)
    b = matrix_from_json(matrix_to_json(a))
    assert np.array_equal(a, b)


def test_matrix_json_im_optional():
    m = matrix_from_json({"n": 2, "re": [[1, 2], [3, 4]]})
    assert np.array_equal(m, np.array([[1, 2], [3, 4]], dtype=complex))


def test_matrix_json_rejects_bad_payload():
    with pytest.raises(ValueError):
        matrix_from_json({"n": 2, "re": [[1, 2]]})
    with pytest.raises(ValueError):
        matrix_from_json({"re": [[1]]})
    with pytest.raises(ValueError, match='"n" must be an integer'):
        matrix_from_json({"n": "2", "re": [[1, 2], [3, 4]]})
    with pytest.raises(ValueError, match=r"must be 2x2 arrays, got \(2, 2\) and \(1, 2\)"):
        matrix_from_json({"n": 2, "re": [[1, 2], [3, 4]], "im": [[1, 2]]})
    for field in ("re", "im"):
        payload = {"n": 2, "re": [[1, 2], [3, 4]], field: [[1, 2], [3]]}
        with pytest.raises(ValueError, match=f'^"{field}" is ragged: its nested lists do not form an array$'):
            matrix_from_json(payload)


def test_load_matrix_file(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"n": 2, "re": [[1, 2], [3, 4]], "im": [[0, 1], [0, 0]]}))
    m = load_matrix_file(path)
    assert m[0, 1] == 2 + 1j


def test_trace_sum_plan_matches_explicit_products():
    stack = np.array([random_matrix(4, 60 + k) for k in range(3)])
    terms = [
        (0.5, [(0,), (1, 2)]),
        (-2.0, [(2, 0, 1, 1, 0)]),
        (1.25, []),
        (3.0, [(1,), (1,), (0, 2, 2), (1, 2)]),
        (-0.75, [(2, 0, 1, 1, 2), (0, 1)]),
    ]
    expected = 0.0
    for weight, words in terms:
        prod = weight
        for word in words:
            m = np.eye(4)
            for letter in word:
                m = m @ stack[letter]
            prod *= np.trace(m)
        expected += prod
    value = trace_sum_plan(terms)(stack)
    assert isinstance(value, complex)
    assert abs(value - expected) <= 1e-12 * abs(expected)


def explicit_trace_sum(terms, stack):
    """sum_t w_t prod_w Tr(stack[w_0] @ stack[w_1] @ ...), one explicit product at a time."""
    total = 0.0
    for weight, words in terms:
        prod = weight
        for word in words:
            m = np.eye(stack.shape[-1])
            for letter in word:
                m = m @ stack[letter]
            prod *= np.trace(m)
        total += prod
    return total


def random_terms(rng, letters, count, max_words, max_length):
    """``count`` terms of 1..max_words random words of 1..max_length letters."""
    terms = []
    for _ in range(count):
        words = [
            tuple(rng.choice(letters, rng.integers(1, max_length + 1)).tolist())
            for _ in range(rng.integers(1, max_words + 1))
        ]
        terms.append((float(rng.uniform(-2.0, 2.0)), words))
    return terms


@pytest.mark.parametrize("seed", range(6))
def test_trace_sum_plan_matches_explicit_products_on_random_terms(seed):
    rng = np.random.default_rng(4200 + seed)
    n = int(rng.integers(1, 6))
    # letter 2 is never used, and the stack has two rows past the last letter used
    stack = np.array([random_matrix(n, 4300 + 10 * seed + k) for k in range(7)])
    letters = [0, 1, 3, 4]
    cases = [
        random_terms(rng, letters, 12, 5, 6),  # uneven word counts and lengths
        random_terms(rng, letters, 8, 4, 1),  # only one-letter words
        [(1.5, [(3, 0, 1), (3, 0, 1), (1,)]), (-0.5, [(0, 4), (0, 4), (0, 4)])],  # a word repeated in a term
    ]
    norms = [np.linalg.norm(m, 2) for m in stack]
    for terms in cases:
        expected = explicit_trace_sum(terms, stack)
        # |Tr(word)| <= n prod of its letters' spectral norms
        scale = sum(abs(w) * math.prod(n * math.prod(norms[k] for k in word) for word in words) for w, words in terms)
        value = trace_sum_plan(terms)(stack)
        assert isinstance(value, complex)
        assert abs(value - expected) <= 1e-13 * scale


def test_trace_sum_plan_of_no_terms_is_zero():
    assert trace_sum_plan([])(np.empty((0, 2, 2), dtype=complex)) == 0j


def test_random_matrix_refuses_dimension_zero():
    with pytest.raises(ValueError, match="^dimension must be >= 1, got 0$"):
        random_matrix(0, 1)
