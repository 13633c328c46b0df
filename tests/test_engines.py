import itertools
import json
import math
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polydet.anomaly import assemble_field_matrix, build_generators, field_config_from_json
import polydet.engines as engines_module
from polydet.combinatorics import (
    SUBSET_MAX_N,
    GuardLimitError,
    compositions,
    multinomial,
    permutation_sign,
)
from polydet.engines import (
    DEFAULT_ENGINE,
    ENGINES,
    PolydetResult,
    det_of_sum,
    polydet,
    polydet_many,
    polydet_naive,
    polydet_permutation_pair,
    polydet_subset_sum,
    polydet_trace_formula,
    polydet_volume,
)
from polydet.matrices import det, identity, random_matrix, trace

REPO_ROOT = Path(__file__).resolve().parent.parent

A2 = np.array([[1, 2], [3, 4]], dtype=complex)
B2 = np.array([[5, 6], [7, 8]], dtype=complex)


def rand_tuple(n, seed):
    return [random_matrix(n, seed + k) for k in range(n)]


def assert_close(a, b, rel=1e-9):
    assert abs(a - b) <= max(1e-12, rel * max(abs(a), abs(b)))


# --- defining examples, hand-evaluated oracles ------------------------------


def test_naive_collapses_to_det():
    assert_close(polydet_naive([A2, A2]).value, det(A2))


def test_naive_two_matrix_value():
    # independent oracle: (Tr A Tr B - Tr(AB)) / 2 = (5*13 - 69) / 2
    oracle = (trace(A2) * trace(B2) - trace(A2 @ B2)) / 2
    assert oracle == -2
    assert_close(polydet_naive([A2, B2]).value, -2)


def test_naive_identity_slot_gives_half_trace():
    assert_close(polydet_naive([A2, identity(2)]).value, trace(A2) / 2)


def test_permutation_pair_matches_naive():
    for n in (2, 3):
        for seed in range(20):
            mats = rand_tuple(n, 1000 * n + seed)
            assert_close(
                polydet_permutation_pair(mats).value,
                polydet_naive(mats).value,
                rel=1e-10,
            )


def test_permutation_pair_collapse_random():
    a = random_matrix(3, 11)
    assert_close(polydet_permutation_pair([a, a, a]).value, det(a), rel=1e-10)


def test_permutation_pair_identity_tuple():
    assert_close(polydet_permutation_pair([identity(3)] * 3).value, 1)


def test_subset_sum_two_matrix_value():
    # (det(A+B) - det A - det B) / 2 = (-8 + 2 + 2) / 2
    assert det(A2 + B2) == -8
    assert_close(polydet_subset_sum([A2, B2]).value, -2)


def test_subset_sum_repeated_with_identity():
    a = np.diag([1.0, -1.0, 0.0]).astype(complex)
    assert_close(polydet_subset_sum([a, a, identity(3)]).value, -1 / 3)


def test_subset_sum_matches_permutation_pair():
    for n in (4, 5):
        for seed in range(10):
            mats = rand_tuple(n, 2000 * n + seed)
            assert_close(
                polydet_subset_sum(mats).value,
                polydet_permutation_pair(mats).value,
            )


def test_trace_formula_two_matrix():
    assert_close(polydet_trace_formula([A2, B2]).value, -2)


def test_trace_formula_matches_subset_n3():
    for seed in range(10):
        mats = rand_tuple(3, 300 + seed)
        assert_close(
            polydet_trace_formula(mats).value,
            polydet_subset_sum(mats).value,
            rel=1e-10,
        )


@pytest.mark.parametrize("n", (1, 7))
def test_trace_formula_matches_subset_sum_at_the_ends(n):
    for seed in range(3):
        mats = rand_tuple(n, 7100 + 10 * seed)
        assert_close(polydet_trace_formula(mats).value, polydet_subset_sum(mats).value, rel=1e-12)


def test_trace_formula_collapse_n5():
    a = random_matrix(5, 17)
    assert_close(polydet_trace_formula([a] * 5).value, det(a))


def test_volume_two_matrix_hand_value():
    # half of det([[1,2],[7,8]]) + det([[5,6],[3,4]]) = (-6 + 2) / 2
    assert_close(polydet_volume([A2, B2]).value, -2)


def test_volume_collapse():
    a = random_matrix(4, 23)
    assert_close(polydet_volume([a] * 4).value, det(a))


def test_volume_matches_other_engines():
    for n in (3, 4):
        for seed in range(10):
            mats = rand_tuple(n, 4000 * n + seed)
            assert_close(polydet_volume(mats).value, polydet_subset_sum(mats).value)


def test_single_matrix_tuple_reduces_to_entry():
    a = np.array([[3.5 - 1.25j]])
    for name in ENGINES:
        assert_close(polydet([a], name).value, a[0, 0])


def test_engines_agree_at_n7():
    mats = rand_tuple(7, 7700)
    reference = polydet_subset_sum(mats).value
    for name in ("permutation_pair", "trace_formula", "volume"):
        assert_close(ENGINES[name](mats).value, reference)


def test_volume_agrees_at_n8():
    mats = rand_tuple(8, 8800)
    assert_close(polydet_volume(mats).value, polydet_subset_sum(mats).value)


@pytest.mark.parametrize("name, constant", (("permutation_pair", "_LEIBNIZ_CHUNK"), ("volume", "_LU_CHUNK")))
@pytest.mark.parametrize("n", (4, 5))
def test_row_mixed_sum_does_not_depend_on_its_chunks(monkeypatch, name, constant, n):
    # one, seven and all of the n! permutations sigma per chunk; on Gaussian
    # integers every Leibniz sum is exact, so the chunks may only change the order
    rng = np.random.default_rng([3400, n])
    mats = rng.integers(-3, 4, (n, n, n)) + 1j * rng.integers(-3, 4, (n, n, n))
    values = set()
    for chunk in (1, 7, math.factorial(n)):
        monkeypatch.setattr(engines_module, constant, chunk)
        values.add(ENGINES[name](mats).value)
    if name == "permutation_pair":
        assert values == {exact_scaled_eps(mats) / math.factorial(n)}
    else:  # LU rounds, so its chunked sums agree to rounding
        assert max(abs(v - w) for v in values for w in values) <= 1e-13 * max(map(abs, values))


def test_row_mixed_engines_take_their_own_determinants(monkeypatch):
    # Leibniz sums 32 sigma at a time for permutation_pair, LAPACK's LU 256 at
    # a time for volume, and neither through the module's ``det``, which counts
    # the default kernel's determinants
    seen = []

    def spy(name, fn):
        return lambda stack: seen.append((name, len(stack))) or fn(stack)

    monkeypatch.setattr(engines_module, "det", spy("det", engines_module.det))
    monkeypatch.setattr(engines_module, "det_leibniz", spy("leibniz", engines_module.det_leibniz))
    monkeypatch.setattr(np.linalg, "det", spy("lu", np.linalg.det))
    mats = rand_tuple(6, 5500)
    pair = polydet_permutation_pair(mats).value
    assert seen == [("leibniz", 32)] * 22 + [("leibniz", 16)]
    seen.clear()
    assert_close(polydet_volume(mats).value, pair)
    assert seen == [("lu", 256)] * 2 + [("lu", 208)]


# --- dispatcher and guards ---------------------------------------------------


def test_dispatcher_default_engine():
    result = polydet([A2, B2])
    assert result.engine == DEFAULT_ENGINE == "subset_sum"
    assert_close(result.value, -2)
    assert result.n == 2


def test_dispatcher_unknown_engine():
    with pytest.raises(ValueError):
        polydet([A2, B2], "cofactor")


def test_engine_names_route():
    for name in ENGINES:
        assert polydet([A2, B2], name).engine == name


#: the largest N each engine accepts, as documented in the README
GUARDS = {
    "naive": 6,
    "permutation_pair": 7,
    "subset_sum": SUBSET_MAX_N,
    "trace_formula": 7,
    "volume": 8,
}


@pytest.mark.parametrize("name", sorted(ENGINES))
def test_engine_guard_edge(name):
    max_n = GUARDS[name]
    with pytest.raises(GuardLimitError) as info:
        polydet([np.eye(max_n + 1)] * (max_n + 1), name)
    assert f"engine {name!r} guarded at n <= {max_n}, got n={max_n + 1}" == str(info.value)


def test_tuple_validation():
    with pytest.raises(ValueError):
        polydet([A2, B2, A2])  # three 2x2 matrices
    with pytest.raises(ValueError):
        polydet([])


# --- multilinear algebra properties ------------------------------------------


def test_exchange_symmetry_random():
    for n in (2, 3, 4):
        mats = rand_tuple(n, 50 + n)
        base = polydet_subset_sum(mats).value
        swapped = [mats[-1]] + mats[1:-1] + [mats[0]]
        assert_close(polydet_subset_sum(swapped).value, base)


def test_linearity_in_first_slot():
    mats = rand_tuple(3, 60)
    b, c = random_matrix(3, 71), random_matrix(3, 72)
    alpha, beta = 0.3 - 1.1j, -0.8 + 0.4j
    combined = polydet_subset_sum([alpha * b + beta * c] + mats[1:]).value
    split = (
        alpha * polydet_subset_sum([b] + mats[1:]).value
        + beta * polydet_subset_sum([c] + mats[1:]).value
    )
    assert_close(combined, split)


def test_identity_padding_gives_trace():
    for n in (2, 3, 4, 5):
        a = random_matrix(n, 80 + n)
        assert_close(polydet_subset_sum([a] + [identity(n)] * (n - 1)).value, trace(a) / n)


def test_conjugation_invariance():
    for n in (2, 3, 4):
        mats = rand_tuple(n, 90 + n)
        u = random_matrix(n, 99 + n)
        uinv = np.linalg.inv(u)
        moved = [u @ m @ uinv for m in mats]
        assert_close(polydet_subset_sum(moved).value, polydet_subset_sum(mats).value)


def test_left_right_factorization():
    for n in (2, 3, 4):
        mats = rand_tuple(n, 110 + n)
        m = random_matrix(n, 120 + n)
        base = polydet_subset_sum(mats).value
        assert_close(polydet_subset_sum([m @ a for a in mats]).value, det(m) * base)
        assert_close(polydet_subset_sum([a @ m for a in mats]).value, det(m) * base)


@settings(max_examples=30, deadline=None)
@given(
    n=st.sampled_from((2, 3)),
    data=st.data(),
)
def test_argument_permutation_invariance(n, data):
    entries = data.draw(
        st.lists(
            st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
            min_size=n * n * n,
            max_size=n * n * n,
        )
    )
    mats = [
        np.array(
            [[complex(*entries[k * n * n + i * n + j]) for j in range(n)] for i in range(n)]
        )
        for k in range(n)
    ]
    order = data.draw(st.permutations(range(n)))
    base = polydet_subset_sum(mats).value
    permuted = polydet_subset_sum([mats[i] for i in order]).value
    assert abs(base - permuted) <= 1e-12 * max(1.0, abs(base))


# --- additional three-matrix identities --------------------------------------


def test_n3_det_combination_for_repeated_argument():
    for seed in range(10):
        a, b = random_matrix(3, 400 + seed), random_matrix(3, 500 + seed)
        lhs = polydet_subset_sum([a, a, b]).value
        rhs = (
            2 * det(2 * a + b) - det(2 * b + a) - 15 * det(a) + 6 * det(b)
        ) / 18
        assert_close(lhs, rhs)


def test_n3_det_of_pair_sum():
    for seed in range(10):
        a, b = random_matrix(3, 600 + seed), random_matrix(3, 700 + seed)
        eps_aab = polydet_subset_sum([a, a, b]).value
        eps_abb = polydet_subset_sum([a, b, b]).value
        assert_close(det(a + b), det(a) + det(b) + 3 * (eps_aab + eps_abb))


def test_n3_inclusion_exclusion_needs_prefactor_and_signs():
    # the equality only holds with the 1/3! weight and positive singleton terms
    a, b, c = (random_matrix(3, 800 + k) for k in range(3))
    eps = polydet_subset_sum([a, b, c]).value
    correct = (
        det(a + b + c)
        - det(a + b)
        - det(a + c)
        - det(b + c)
        + det(a)
        + det(b)
        + det(c)
    ) / 6
    assert_close(eps, correct)
    unweighted = (
        det(a + b + c)
        - det(a + b)
        - det(a + c)
        - det(b + c)
        - det(a)
        - det(b)
        - det(c)
    )
    assert abs(unweighted - eps) > 1e-6


def test_n3_identity_pair_second_symmetric_function():
    for seed in range(10):
        a = random_matrix(3, 900 + seed)
        value = polydet_subset_sum([a, a, identity(3)]).value
        expected = (trace(a) ** 2 - trace(a @ a)) / 6
        assert_close(value, expected)
        lam = np.linalg.eigvals(a)
        sigma2 = lam[0] * lam[1] + lam[0] * lam[2] + lam[1] * lam[2]
        assert_close(value, sigma2 / 3)


def test_n3_identity_pair_traceless():
    h = random_matrix(3, 950, "traceless-hermitian")
    assert_close(
        polydet_subset_sum([h, h, identity(3)]).value,
        -trace(h @ h) / 6,
    )


# --- determinant-of-sum expansion --------------------------------------------


def test_det_of_sum_two_matrices():
    assert_close(det_of_sum([A2, B2]), -8)
    eps = polydet_subset_sum([A2, B2]).value
    assert_close(det(A2) + det(B2) + 2 * eps, -8)


def test_det_of_sum_three_matrices():
    mats = rand_tuple(3, 1300)
    a, b, c = mats
    direct = det(a + b + c)
    assert_close(det_of_sum(mats), direct)
    by_hand = (
        det(a)
        + det(b)
        + det(c)
        + 6 * polydet_subset_sum([a, b, c]).value
        + 3 * polydet_subset_sum([a, a, b]).value
        + 3 * polydet_subset_sum([a, a, c]).value
        + 3 * polydet_subset_sum([a, b, b]).value
        + 3 * polydet_subset_sum([a, c, c]).value
        + 3 * polydet_subset_sum([b, c, c]).value
        + 3 * polydet_subset_sum([b, b, c]).value
    )
    assert_close(by_hand, direct)


def test_det_of_sum_single_matrix():
    a = random_matrix(4, 1400)
    assert_close(det_of_sum([a]), det(a))


def test_det_of_sum_fewer_summands_than_dimension():
    a, b = random_matrix(4, 1500), random_matrix(4, 1501)
    assert_close(det_of_sum([a, b]), det(a + b))


def test_det_of_sum_dimension_mismatch():
    with pytest.raises(ValueError):
        det_of_sum([identity(2), identity(3)])


@pytest.mark.parametrize(
    "summands",
    ([], [identity(2), np.array([[np.inf, 0], [0, 1]])]),
    ids=("empty", "non-finite"),
)
def test_det_of_sum_rejects_bad_summands(summands):
    with pytest.raises(ValueError):
        det_of_sum(summands)


def test_det_of_sum_unknown_engine():
    with pytest.raises(ValueError, match="unknown engine"):
        det_of_sum([A2, B2], "cofactor")


@pytest.mark.parametrize("name", sorted(ENGINES))
def test_det_of_sum_is_the_multinomial_sum_of_engine_values(name):
    # the kernel on a row selection of the validated stack gives the very
    # values of the public engine on the repeated tuple
    mats = rand_tuple(3, 1600)
    expected = 0.0 + 0.0j
    for comp in compositions(3, 3):
        repeated = [m for m, k in zip(mats, comp) for _ in range(k)]
        expected += multinomial(3, comp) * polydet(repeated, name).value
    assert det_of_sum(mats, name) == expected


# --- stacked, norm-scaled subset-sum kernel -------------------------------------


def subset_loop_reference(mats):
    """Inclusion-exclusion written out subset by subset, one LAPACK det each."""
    n = len(mats)
    total = 0.0 + 0.0j
    for size in range(1, n + 1):
        for subset in itertools.combinations(mats, size):
            total += (-1) ** (n - size) * np.linalg.det(np.sum(subset, axis=0))
    return total / math.factorial(n)


@pytest.mark.parametrize("low_bits", (1, 3, 8))
@pytest.mark.parametrize("n", range(1, 7))
def test_subset_sum_matches_explicit_subset_loop(n, low_bits, monkeypatch):
    # a narrower subset-sum table splits the same sum into more chunks
    monkeypatch.setattr(engines_module, "_SUBSET_LOW_BITS", low_bits)
    for seed in range(5):
        mats = rand_tuple(n, 3000 + 10 * n + seed)
        assert_close(polydet_subset_sum(mats).value, subset_loop_reference(mats))


@pytest.mark.parametrize("low_bits", (1, 3, 8))
def test_subset_sum_takes_half_the_determinants(low_bits, monkeypatch):
    # one determinant per sign vector with the first sign fixed: 2^(N-1) per call
    monkeypatch.setattr(engines_module, "_SUBSET_LOW_BITS", low_bits)
    taken = []

    def counting_det(stack):
        taken.append(len(stack))
        return det(stack)

    monkeypatch.setattr(engines_module, "det", counting_det)
    for n in range(1, 11):
        taken.clear()
        polydet(rand_tuple(n, 3050 + n))
        assert sum(taken) == 2 ** (n - 1)


@pytest.mark.parametrize("n", range(1, 7))
def test_subset_sum_zero_argument_gives_exact_zero(n):
    mats = rand_tuple(n, 3100 + n)
    mats[n // 2] = np.zeros((n, n))
    assert polydet_subset_sum(mats).value == 0
    assert abs(subset_loop_reference(mats)) < 1e-9


def gaussian_rational_permanent(rows):
    """perm of a matrix of (re, im) Fraction pairs by Ryser's formula, exactly."""
    n = len(rows)
    total = (Fraction(0), Fraction(0))
    for size in range(1, n + 1):
        for cols in itertools.combinations(range(n), size):
            prod = (Fraction((-1) ** size), Fraction(0))
            for row in rows:
                re = sum((row[j][0] for j in cols), Fraction(0))
                im = sum((row[j][1] for j in cols), Fraction(0))
                prod = (prod[0] * re - prod[1] * im, prod[0] * im + prod[1] * re)
            total = (total[0] + prod[0], total[1] + prod[1])
    sign = (-1) ** n
    return sign * total[0], sign * total[1]


def haar_unitary(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


@pytest.mark.parametrize("n", (4, 6, 8, 10))
def test_subset_sum_exact_on_scaled_commuting_tuples(n):
    # A_k = s_k U diag(d_k) U^H share an eigenbasis, so eps = prod(s_k) perm(D) / N!
    # with D[k][j] = d_k[j]; norms spread log-uniformly over twelve decades
    for seed in range(3):
        rng = np.random.default_rng([3200, n, seed])
        d = rng.integers(-3, 4, (n, n)) + 1j * rng.integers(-3, 4, (n, n))
        scales = 10.0 ** rng.uniform(-6.0, 6.0, n)
        u = haar_unitary(rng, n)
        mats = [s * (u * row) @ u.conj().T for s, row in zip(scales, d)]
        rows = [[(Fraction(int(x.real)), Fraction(int(x.imag))) for x in row] for row in d]
        re, im = gaussian_rational_permanent(rows)
        weight = math.prod(Fraction(float(s)) for s in scales) / math.factorial(n)
        exact = complex(float(re * weight), float(im * weight))
        assert exact != 0
        got = polydet_subset_sum(mats).value
        assert abs(got - exact) <= 1e-12 * abs(exact)


def exact_scaled_eps(mats):
    """N! eps as the double sum over permutation pairs, on Gaussian-integer entries.

    With entries in {-3..3} + i{-3..3} and N <= 5 every product and partial
    sum is a Gaussian integer of modulus below 2^25, so each complex
    operation is exact.
    """
    n = len(mats)
    perms = [(p, permutation_sign(p)) for p in itertools.permutations(range(n))]
    total = 0j
    for sigma, s_sigma in perms:
        for mu, s_mu in perms:
            term = complex(s_sigma * s_mu)
            for k in range(n):
                term *= complex(mats[k][sigma[k], mu[k]])
            total += term
    return total


@pytest.mark.parametrize("n", range(2, 6))
def test_every_engine_matches_exact_oracle_on_gaussian_integers(n):
    for seed in range(5):
        rng = np.random.default_rng([3300, n, seed])
        mats = rng.integers(-3, 4, (n, n, n)) + 1j * rng.integers(-3, 4, (n, n, n))
        exact = exact_scaled_eps(mats)
        for name, engine in ENGINES.items():
            err = abs(engine(mats).value * math.factorial(n) - exact) / max(abs(exact), 1.0)
            assert err <= 1e-12, (name, seed, err)


def exact_eps3(mats):
    """eps of three 3x3 matrices by the subset-sum identity over exact rationals."""

    def entry(x):
        return Fraction(float(x.real)), Fraction(float(x.imag))

    def mul(p, q):
        return p[0] * q[0] - p[1] * q[1], p[0] * q[1] + p[1] * q[0]

    exact = [[[entry(x) for x in row] for row in np.asarray(m)] for m in mats]
    total = (Fraction(0), Fraction(0))
    for size in range(1, 4):
        for subset in itertools.combinations(exact, size):
            s = [
                [(sum(m[i][j][0] for m in subset), sum(m[i][j][1] for m in subset)) for j in range(3)]
                for i in range(3)
            ]
            for perm in itertools.permutations(range(3)):
                term = (Fraction((-1) ** (3 - size) * permutation_sign(perm)), Fraction(0))
                for i in range(3):
                    term = mul(term, s[i][perm[i]])
                total = (total[0] + term[0], total[1] + term[1])
    return complex(float(total[0] / 6), float(total[1] / 6))


@pytest.mark.parametrize("f0", (1e5, 1e7))
def test_subset_sum_shifted_vacuum_at_large_f0(f0):
    # eps(A1 + f0 t^0, A1 + f0 t^0, A2) on the bundled three-flavor fields: the
    # shifted argument is f0 times the others, and with arguments scaled to unit
    # size the n = 3 value stays within a few hundred ulps of the exact one
    cfg = field_config_from_json(json.loads((REPO_ROOT / "configs" / "fields_n3.json").read_text()))
    basis = build_generators(3)
    a1, a2 = (assemble_field_matrix(basis, m.s, m.p) for m in cfg.multiplets)
    shifted = a1 + f0 * basis.generators[0]
    got = polydet_subset_sum([shifted, shifted, a2]).value
    exact = exact_eps3([shifted, shifted, a2])
    assert abs(got - exact) <= 1e-12 * abs(exact)


@pytest.mark.parametrize("n", range(2, 15))
def test_rank_one_tuples_are_det_u_det_v_over_n_factorial(n):
    # A_k = u_k v_k^T gives eps = det U det V / N!; from n = 10 on the sign grid
    # adds its high points as shifts of the low table
    rng = np.random.default_rng([3450, n])
    u, v = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) for _ in range(2))
    got = polydet([np.outer(u[:, k], v[:, k]) for k in range(n)])
    expected = np.linalg.det(u) * np.linalg.det(v) / math.factorial(n)
    assert got.grid == "signs"
    assert abs(got.value - expected) <= 1e-12 * abs(expected)


@pytest.mark.parametrize("k", (1, 3, 8))
def test_sign_grid_is_exact(k):
    # the all-distinct grid: points exactly +-1 with s_1 = +1, extraction rows in
    # {-1, 0, 1} and the scale 2^(N-1) N! left to one division
    for n in range(1, 11):
        low, high, low_x, high_x, powers, scale = engines_module._grid_table((1,) * n, k)
        # no imaginary columns: every imaginary part is exactly 0
        assert low.shape[1] == high.shape[1] == n
        points = (low[:, None] + high[None]).reshape(-1, n)
        assert np.isin(points, (-1.0, 1.0)).all() and (points[:, 0] == 1.0).all()
        assert len({p.tobytes() for p in points}) == len(points) == 2 ** (n - 1)
        assert np.isin(low_x, (-1.0, 0.0, 1.0)).all() and np.isin(high_x, (-1.0, 0.0, 1.0)).all()
        assert list(powers) == [1] * n and scale == 2 ** (n - 1) * math.factorial(n)


def test_subset_sum_memory_is_bounded_at_n15():
    # a full 2^15-row table of 15 x 15 sums would be 118 MB
    mats = rand_tuple(15, 3400)
    tracemalloc.start()
    try:
        polydet(mats)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_subset_sum_guard():
    n = SUBSET_MAX_N + 1
    with pytest.raises(GuardLimitError):
        polydet([np.eye(n)] * n)


# --- batched entry point ----------------------------------------------------------


def rand_batch(b, n, seed, spread=False):
    """b random n-tuples; with ``spread`` the argument norms span twelve decades."""
    rng = np.random.default_rng([3500, b, n, seed])
    batch = rng.uniform(-1, 1, (b, n, n, n)) + 1j * rng.uniform(-1, 1, (b, n, n, n))
    if spread:
        batch *= 10.0 ** rng.uniform(-6.0, 6.0, (b, n, 1, 1))
    return batch


@pytest.mark.parametrize("low_bits", (1, 3, 8))
@pytest.mark.parametrize("n", range(1, 9))
def test_polydet_many_rows_equal_single_calls(n, low_bits, monkeypatch):
    # a narrow table cuts the batch into many slices; no row may notice
    monkeypatch.setattr(engines_module, "_SUBSET_LOW_BITS", low_bits)
    for spread in (False, True):
        batch = rand_batch(11, n, low_bits, spread)
        got = polydet_many(batch)
        assert got.shape == (11,) and got.dtype == np.complex128
        assert all(got[b] == polydet(list(batch[b])).value for b in range(11))


@pytest.mark.parametrize("n", (1, 3, 5, 9))
def test_polydet_many_zero_argument_row_is_exact_zero(n):
    batch = rand_batch(5, n, 0)
    clean = polydet_many(batch)
    batch[2, n // 2] = 0.0
    got = polydet_many(batch)
    assert got[2] == 0
    assert np.array_equal(np.delete(got, 2), np.delete(clean, 2))


def raised(fn, *args):
    with pytest.raises(Exception) as info:
        fn(*args)
    return info.type, str(info.value)


def test_polydet_many_errors_match_polydet():
    bad_count = [identity(3), identity(3)]
    assert raised(polydet_many, [bad_count]) == raised(polydet, bad_count)
    nan = [identity(2), np.array([[np.nan, 0], [0, 1]])]
    assert raised(polydet_many, [nan, [identity(2)] * 2]) == raised(polydet, nan)
    good = [identity(2)] * 2
    assert raised(polydet_many, [good], "cofactor") == raised(polydet, good, "cofactor")
    big = [np.eye(SUBSET_MAX_N + 1)] * (SUBSET_MAX_N + 1)
    assert raised(polydet_many, [big]) == raised(polydet, big)
    assert raised(polydet_many, [big])[0] is GuardLimitError
    # a shape that is not a batch of square stacks names the shape it got
    for shape in ((1, 2, 2, 3), (2, 2, 2)):
        kind, message = raised(polydet_many, np.zeros(shape))
        assert kind is ValueError and str(shape) in message


def test_polydet_many_empty_batch():
    for empty in ([], np.zeros((0, 3, 3, 3))):
        got = polydet_many(empty)
        assert got.shape == (0,) and got.dtype == np.complex128
    with pytest.raises(ValueError, match="unknown engine"):
        polydet_many([], "cofactor")


@pytest.mark.parametrize("name", [e for e in ENGINES if e != DEFAULT_ENGINE])
def test_polydet_many_other_engines_equal_single_calls(name):
    for n in (2, 4):
        batch = rand_batch(3, n, 1)
        got = polydet_many(batch, name)
        assert all(got[b] == polydet(list(batch[b]), name).value for b in range(3))


@pytest.mark.parametrize("low_bits", (1, 3, 8))
def test_polydet_many_det_calls_stay_in_slices(low_bits, monkeypatch):
    # B 2^(N-1) determinants in all, no stacked call above 2^low_bits matrices
    monkeypatch.setattr(engines_module, "_SUBSET_LOW_BITS", low_bits)
    taken = []

    def counting_det(stack):
        taken.append(len(stack))
        return det(stack)

    monkeypatch.setattr(engines_module, "det", counting_det)
    for n in range(1, 11):
        for b in (1, 7, 40):
            taken.clear()
            polydet_many(rand_batch(b, n, 2))
            assert sum(taken) == b * 2 ** (n - 1)
            assert max(taken) <= 2**low_bits


def test_det_of_sum_batches_the_compositions(monkeypatch):
    # each composition's own determinants, in stacked calls of at most 2^8:
    # prod_{j >= 2} (m_j + 1) on its roots grid when that is at most half of
    # 2^(N-1), else the 2^(N-1) of the +-1 table (2016 for all 126 on the table)
    taken = []

    def counting_det(stack):
        taken.append(len(stack))
        return det(stack)

    monkeypatch.setattr(engines_module, "det", counting_det)
    mats = rand_tuple(5, 3600)
    det_of_sum(mats)
    expected = 0
    for comp in compositions(5, 5):
        parts = sorted(p for p in comp if p)
        grid = math.prod(p + 1 for p in parts[1:])
        expected += grid if 2 * grid <= 2**4 else 2**4
    assert sum(taken) == expected == 1241
    assert max(taken) <= 256 and len(taken) <= 12


def test_det_of_sum_guards_its_composition_count():
    # C(47, 23) = 1.6e13 compositions of 24 into 24 parts: refused before any is listed
    listed = engines_module._composition_table.cache_info().misses
    with pytest.raises(GuardLimitError, match="compositions"):
        det_of_sum([np.eye(24)] * 24)
    assert engines_module._composition_table.cache_info().misses == listed


def test_det_of_sum_memory_is_bounded():
    # the kernel's slices take a few 2^8-matrix arrays (0.7 MB at n = 6); all 462
    # repeated tuples of six 6 x 6 summands in one batch would add 1.6 MB
    mats = rand_tuple(6, 3700)
    tracemalloc.start()
    try:
        det_of_sum(mats)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


# --- roots-of-unity grid for repeated arguments --------------------------------


def multiplicity_patterns(n, smallest=1):
    """Every way to split n arguments into distinct ones, as ascending multiplicities."""
    if n == 0:
        yield ()
        return
    for m in range(smallest, n + 1):
        for rest in multiplicity_patterns(n - m, m):
            yield (m,) + rest


def grid_pays(pattern):
    # prod_{j >= 2} (m_j + 1) determinants, against half of the 2^(N-1) of the +-1 table
    return 2 * math.prod(m + 1 for m in pattern[1:]) <= 2 ** (sum(pattern) - 1)


def repeated_tuple(rng, pattern, n):
    """A shuffled tuple of random distinct matrices repeated by ``pattern``; each a fresh copy."""
    distinct = rng.uniform(-1, 1, (len(pattern), n, n)) + 1j * rng.uniform(-1, 1, (len(pattern), n, n))
    mats = [distinct[j].copy() for j, m in enumerate(pattern) for _ in range(m)]
    return [mats[k] for k in rng.permutation(n)]


def test_multiplicity_patterns_count_the_partitions():
    assert [len(list(multiplicity_patterns(n))) for n in range(1, 9)] == [1, 2, 3, 5, 7, 11, 15, 22]


@pytest.mark.parametrize("n", range(2, 7))
def test_every_multiplicity_pattern_agrees_with_volume_and_trace_formula(n):
    rng = np.random.default_rng([4100, n])
    for pattern in multiplicity_patterns(n):
        for spread in (False, True):
            mats = repeated_tuple(rng, pattern, n)
            if spread:  # each distinct argument at its own scale, from 1e-3 to 1e3
                scales = {m.tobytes(): 10.0 ** rng.uniform(-3, 3) for m in mats}
                mats = [m * scales[m.tobytes()] for m in mats]
            got = polydet(mats)
            assert got.grid == ("roots" if grid_pays(pattern) else "signs")
            for name in ("volume", "trace_formula"):
                ref = polydet(mats, name).value
                assert abs(got.value - ref) <= 1e-12 * max(1.0, abs(ref)), (pattern, spread, name)


@pytest.mark.parametrize("n", (8, 12, 16))
def test_all_but_one_argument_repeated_is_the_trace_of_the_adjugate(n, monkeypatch):
    # eps(A, ..., A, B) = det A Tr(A^-1 B) / N, read off N determinants on the
    # roots grid (pattern (1, N - 1)) in place of 2^(N-1)
    rng = np.random.default_rng([4200, n])
    a = rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n)) + 2 * np.eye(n)
    b = rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))
    expected = np.linalg.det(a) * np.trace(np.linalg.solve(a, b)) / n
    taken = []

    def counting_det(stack):
        taken.append(len(stack))
        return det(stack)

    monkeypatch.setattr(engines_module, "det", counting_det)
    got = polydet([a] * (n - 1) + [b])
    assert got.grid == "roots" and sum(taken) == n
    assert abs(got.value - expected) <= 1e-12 * abs(expected)


@pytest.mark.parametrize("low_bits", (1, 3, 8))
@pytest.mark.parametrize("n", range(2, 7))
def test_polydet_many_rows_with_repeated_arguments_equal_single_calls(n, low_bits, monkeypatch):
    # rows of every pattern, two of each so that a pattern's grid takes a stack of
    # several tuples (at n <= 3 a lone Leibniz determinant rounds differently),
    # among all-distinct rows, a zero argument and an exact copy of a row
    monkeypatch.setattr(engines_module, "_SUBSET_LOW_BITS", low_bits)
    rng = np.random.default_rng([4300, n, low_bits])
    rows = [repeated_tuple(rng, pattern, n) for pattern in multiplicity_patterns(n) for _ in range(2)]
    rows[1][0] = rows[1][0] * 0.0
    rows.append([m.copy() for m in rows[-1]])
    rows = [rows[k] for k in rng.permutation(len(rows))]
    got = polydet_many(np.array(rows))
    singles = [polydet(row) for row in rows]
    assert all(got[k] == single.value for k, single in enumerate(singles))
    assert {single.grid for single in singles} == {"roots", "signs"}


def test_matrices_that_share_a_key_are_told_apart():
    # batches sort tuples by a weighted sum of each matrix's 64-bit words; a
    # matrix changed in two words so that the sum stays put must still count as
    # distinct, in a batch as in a single call
    rng = np.random.default_rng(4400)
    n = 4
    a = rng.uniform(1, 2, (n, n)) + 1j * rng.uniform(1, 2, (n, n))
    words = a.view(np.int64).ravel().copy()
    i, j = 3, 10
    words[i] += j + 1
    words[j] -= i + 1
    b = words.view(np.complex128).reshape(n, n)
    assert not np.array_equal(a, b)
    weights = np.arange(1, 2 * n * n + 1)
    assert weights @ a.view(np.int64).ravel() == weights @ words
    rows = [[a, b, b, b], [b, b, b, b], [a, a, b, b]]
    got = polydet_many(np.array(rows))
    singles = [polydet(row) for row in rows]
    assert [s.grid for s in singles] == ["roots", "roots", "roots"]
    assert all(got[k] == s.value for k, s in enumerate(singles))
    assert abs(singles[0].value - polydet_volume(rows[0]).value) <= 1e-12 * abs(singles[0].value)


def test_distinct_tuples_stay_on_the_sign_table():
    for n in range(1, 8):
        got = polydet(rand_tuple(n, 4500 + n))
        assert got.grid == "signs"
    # a result built with three fields, as callers did before the grid was named
    assert PolydetResult(1.0, "subset_sum", 2).grid == "signs"
    assert polydet(rand_tuple(3, 4510), "volume").grid == "signs"


def test_a_wrong_extraction_row_fails_det_of_sum_identity(monkeypatch):
    # each composition of det_of_sum reads its own value off its own grid; with
    # a wrong extraction row, the property that checks the sum must fail
    from polydet.verify import run_property_suite

    table = engines_module._grid_table

    def shifted(pattern, k):
        # each extraction row moved on by one grid point: it reads another coefficient
        low, high, low_x, high_x, powers, scale = table(pattern, k)
        return low, high, np.roll(low_x, 2, axis=0), high_x, powers, scale

    def det_of_sum_results():
        results = run_property_suite(seed=3, trials=2, n_values=(4, 5))
        return [r for r in results if r.name == "det_of_sum_identity"]

    assert all(r.passed for r in det_of_sum_results())
    monkeypatch.setattr(engines_module, "_grid_table", shifted)
    assert not any(r.passed for r in det_of_sum_results())
