import hashlib
import itertools
import json
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from polydet.combinatorics import (
    GuardLimitError,
    compositions,
    count_distinct_terms,
    cycle_covers,
    enumerate_partition_vectors,
)
import polydet.symbolic as symbolic_module
from polydet.engines import polydet_subset_sum, polydet_trace_formula
from polydet.matrices import det, random_matrix
from polydet.symbolic import (
    TraceExpansion,
    TraceMonomial,
    canonicalize,
    evaluate,
    expand_det_of_sum,
    expand_polydet,
    parse_expansion,
    render,
)


def coefficients_by_words(expansion):
    return {term.words: term.coefficient for term in expansion.terms}


def test_canonicalize_rotation():
    assert canonicalize(("B", "C", "A")) == ("A", "B", "C")


def test_canonicalize_keeps_distinct_cyclic_orders():
    assert canonicalize(("A", "C", "B")) == ("A", "C", "B")
    assert canonicalize(("A", "C", "B")) != canonicalize(("A", "B", "C"))


def test_canonicalize_single_letter():
    assert canonicalize(("A",)) == ("A",)


# words whose minimal letter occurs once take canonicalize's fast path; the
# rest compare every rotation that starts with it, and in the examples the
# minimal rotation does not start at the first occurrence
@given(st.lists(st.sampled_from("ABCD"), min_size=1, max_size=6) | st.lists(st.integers(0, 2), min_size=1, max_size=8))
@example(["B", "A", "C", "A"])
@example([2, 0, 1, 0, 0])
def test_canonicalize_idempotent_and_rotation_invariant(letters):
    word = tuple(letters)
    canon = canonicalize(word)
    assert canonicalize(canon) == canon
    assert canon == min(word[i:] + word[:i] for i in range(len(word)))
    for i in range(len(word)):
        assert canonicalize(word[i:] + word[:i]) == canon


def test_expand_n2_exact():
    e = expand_polydet(2, ["A", "B"])
    assert coefficients_by_words(e) == {
        (("A",), ("B",)): Fraction(1, 2),
        (("A", "B"),): Fraction(-1, 2),
    }


def test_expand_n3_exact():
    e = expand_polydet(3, ["A", "B", "C"])
    sixth = Fraction(1, 6)
    assert coefficients_by_words(e) == {
        (("A",), ("B",), ("C",)): sixth,
        (("A",), ("B", "C")): -sixth,
        (("B",), ("A", "C")): -sixth,
        (("C",), ("A", "B")): -sixth,
        (("A", "B", "C"),): sixth,
        (("A", "C", "B"),): sixth,
    }


def test_expand_n4_selected_coefficients():
    e = expand_polydet(4, ["A", "B", "C", "D"])
    coefs = coefficients_by_words(e)
    assert coefs[(("A", "B"), ("C", "D"))] == Fraction(1, 24)
    assert coefs[(("A", "B", "C", "D"),)] == Fraction(-1, 24)
    assert coefs[(("A",), ("B",), ("C",), ("D",))] == Fraction(1, 24)
    assert coefs[(("A",), ("B", "C", "D"))] == Fraction(1, 24)
    assert coefs[(("A", "B", "D", "C"),)] == Fraction(-1, 24)


def test_term_counts_match_distinct_term_formula():
    for n in range(2, 6):
        labels = [chr(ord("A") + i) for i in range(n)]
        e = expand_polydet(n, labels)
        by_class = {}
        for term in e.terms:
            counts = [0] * n
            for word in term.words:
                counts[len(word) - 1] += 1
            by_class[tuple(counts)] = by_class.get(tuple(counts), 0) + 1
        for counts in enumerate_partition_vectors(n):
            assert by_class[counts] == count_distinct_terms(counts)
        assert len(e.terms) == sum(
            count_distinct_terms(c) for c in enumerate_partition_vectors(n)
        )


def test_collapse_reproduces_det_in_traces_n4():
    e = expand_polydet(4, ["A", "A", "A", "A"])
    coefs = coefficients_by_words(e)
    assert coefs[(("A",),) * 4] == Fraction(1, 24)
    assert coefs[(("A",), ("A",), ("A", "A"))] == Fraction(-6, 24)
    assert coefs[(("A", "A"), ("A", "A"))] == Fraction(3, 24)
    assert coefs[(("A",), ("A", "A", "A"))] == Fraction(8, 24)
    assert coefs[(("A", "A", "A", "A"),)] == Fraction(-6, 24)


def test_collapse_reproduces_det_in_traces_n5():
    e = expand_polydet(5, ["A"] * 5)
    coefs = coefficients_by_words(e)
    assert coefs[(("A",),) * 5] == Fraction(1, 120)
    assert coefs[(("A",), ("A",), ("A",), ("A", "A"))] == Fraction(-10, 120)
    assert coefs[(("A",), ("A",), ("A", "A", "A"))] == Fraction(20, 120)
    assert coefs[(("A",), ("A", "A"), ("A", "A"))] == Fraction(15, 120)
    assert coefs[(("A",), ("A", "A", "A", "A"))] == Fraction(-30, 120)
    assert coefs[(("A", "A"), ("A", "A", "A"))] == Fraction(-20, 120)
    assert coefs[(("A", "A", "A", "A", "A"),)] == Fraction(24, 120)


def test_label_permutation_symmetry():
    base = expand_polydet(3, ["A", "B", "C"])
    for order in itertools.permutations(["A", "B", "C"]):
        assert expand_polydet(3, list(order)) == base


def expansion_loop_reference(n, labels):
    """The expansion by the per-cover loop, spelled in the labels themselves:
    each cycle cover's words canonicalized as the minimal rotation and sorted
    by (length, word), signs counted per monomial, the non-zero counts over n!
    kept in term order."""
    counts = {}
    for sign, cycles in cycle_covers(n):
        words = [tuple(labels[i] for i in cycle) for cycle in cycles]
        words = [min(w[i:] + w[:i] for i in range(len(w))) for w in words]
        key = tuple(sorted(words, key=lambda w: (len(w), w)))
        counts[key] = counts.get(key, 0) + sign
    kept = sorted((key for key, count in counts.items() if count), key=lambda k: (-len(k), [len(w) for w in k], k))
    return TraceExpansion(n, tuple(TraceMonomial(Fraction(counts[key], math.factorial(n)), key) for key in kept))


def multiplicity_patterns(n):
    """Every multiplicity pattern of n slots: the compositions of n into positive parts."""
    return [comp for r in range(1, n + 1) for comp in compositions(n, r) if all(comp)]


def slot_labels(pattern, names, seed):
    """Labels with these multiplicities of the names, in a shuffled slot order."""
    labels = [name for name, m in zip(names, pattern) for _ in range(m)]
    np.random.default_rng(seed).shuffle(labels)
    return labels


def assert_matches_loop_reference(n, labels):
    e = expand_polydet(n, labels)
    reference = expansion_loop_reference(n, [str(label) for label in labels])
    assert e == reference
    assert render(e, "json") == render(reference, "json")


@pytest.mark.parametrize("n", range(2, 6))
def test_expand_matches_the_loop_reference_on_every_multiplicity_pattern(n):
    patterns = multiplicity_patterns(n)
    assert len(patterns) == 2 ** (n - 1)
    for k, pattern in enumerate(patterns):
        assert_matches_loop_reference(n, slot_labels(pattern, "ABCDEF", 100 * n + k))


@pytest.mark.parametrize("pattern", [(1,) * 6, (6,), (1, 5), (3, 2, 1), (1, 2, 3), (2, 2, 2), (2, 1, 1, 2)])
def test_expand_matches_the_loop_reference_at_n6(pattern):
    assert_matches_loop_reference(6, slot_labels(pattern, "PQRSTU", sum(pattern) * len(pattern)))


@pytest.mark.parametrize(
    "names",
    [
        ("B", "a", "C", "b"),  # "B" < "C" < "a" < "b" as strings
        ("A2", "A10", "A1", "B"),  # "A1" < "A10" < "A2" as strings
        ("\u00e9", "e", "f\u0301", "\u00c9"),
        ("gamma", "alpha", "beta", "delta"),
        (7, 10, 8, 9),  # labels are their str(): "10" < "7"
    ],
)
def test_expand_matches_the_loop_reference_for_labels_that_sort_as_strings(names):
    for n in (4, 5):
        for k, pattern in enumerate(multiplicity_patterns(n)):
            if len(pattern) <= len(names):
                assert_matches_loop_reference(n, slot_labels(pattern, names, 10 * n + k))


@pytest.mark.parametrize("n", range(2, 5))
def test_every_slot_order_gives_the_same_expansion(n):
    for k, pattern in enumerate(multiplicity_patterns(n)):
        labels = slot_labels(pattern, ["x2", "x10", "x1", "X"], 10 * n + k)
        base = expand_polydet(n, labels)
        for order in itertools.permutations(labels):
            assert expand_polydet(n, order) == base


def test_numeric_equivalence_with_engine():
    for n in range(2, 6):
        labels = [chr(ord("A") + i) for i in range(n)]
        e = expand_polydet(n, labels)
        for seed in range(8):
            mats = [random_matrix(n, 3000 + 10 * seed + k) for k in range(n)]
            binding = dict(zip(labels, mats))
            lhs = evaluate(e, binding)
            rhs = polydet_subset_sum(mats).value
            assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), abs(rhs), 1e-3)


def test_repeated_labels_merge_and_evaluate():
    e = expand_polydet(3, ["A", "A", "B"])
    assert len(e.terms) < len(expand_polydet(3, ["A", "B", "C"]).terms)
    a, b = random_matrix(3, 3500), random_matrix(3, 3501)
    lhs = evaluate(e, {"A": a, "B": b})
    rhs = polydet_subset_sum([a, a, b]).value
    assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)


def test_evaluate_collapse_five_equal():
    a = random_matrix(5, 4001)
    e = expand_polydet(5, ["A", "B", "C", "D", "E"])
    value = evaluate(e, {label: a for label in "ABCDE"})
    assert abs(value - det(a)) <= 1e-8 * max(abs(value), 1.0)


def test_evaluate_unbound_label():
    e = expand_polydet(2, ["A", "B"])
    with pytest.raises(KeyError):
        evaluate(e, {"A": np.eye(2)})


def test_evaluate_dimension_mismatch():
    e = expand_polydet(2, ["A", "B"])
    with pytest.raises(ValueError):
        evaluate(e, {"A": np.eye(3), "B": np.eye(3)})


def test_evaluate_empty_expansion_is_zero():
    cancelled = parse_expansion(
        '{"n": 2, "terms": ['
        '{"coef": ["1", "2"], "words": [["A", "B"]]},'
        '{"coef": ["-1", "2"], "words": [["B", "A"]]}]}'
    )
    assert cancelled.terms == ()
    assert evaluate(cancelled, {}) == 0j
    assert evaluate(cancelled, {"A": np.eye(2)}) == 0j


@pytest.mark.parametrize("labels", (["B", "A", "B", "C"], ["A"] * 4))
def test_evaluate_repeated_labels_matches_engine(labels):
    e = expand_polydet(len(labels), labels)
    binding = {label: random_matrix(len(labels), 3600 + ord(label)) for label in set(labels)}
    value = evaluate(e, binding)
    reference = polydet_subset_sum([binding[label] for label in labels]).value
    assert abs(value - reference) <= 1e-12 * max(abs(reference), 1.0)


def test_evaluate_ignores_extra_labels():
    e = expand_polydet(3, ["A", "B", "C"])
    binding = {label: random_matrix(3, 3700 + k) for k, label in enumerate("ABC")}
    extra = {**binding, "Z": np.full((5, 5), np.nan), "Y": "not a matrix"}
    assert evaluate(e, extra) == evaluate(e, binding)


def test_evaluate_rejects_non_finite_binding():
    e = expand_polydet(2, ["A", "B"])
    with pytest.raises(ValueError, match="non-finite"):
        evaluate(e, {"A": np.eye(2), "B": np.array([[1.0, np.inf], [0.0, 1.0]])})


def refuse_as_matrix(*args, **kwargs):
    raise AssertionError("validated a label on its own")


def test_evaluate_stacks_a_valid_binding_in_one_conversion(monkeypatch):
    # a valid binding never reaches the per-label loop; an empty expansion is still 0
    e = expand_polydet(3, ["A", "B", "A"])
    binding = {"A": random_matrix(3, 3760), "B": random_matrix(3, 3761).tolist(), "Z": np.eye(5)}
    value = evaluate(e, binding)
    monkeypatch.setattr(symbolic_module, "as_matrix", refuse_as_matrix)
    assert evaluate(e, binding) == value
    assert evaluate(TraceExpansion(2, ()), {"A": np.eye(3)}) == 0j


def test_evaluate_names_the_binding_at_fault():
    # a binding that does not stack falls back to the per-label loop, which names the first
    # label at fault in sorted order; an unused binding of another dimension is ignored
    e = expand_polydet(2, ["A", "B"])
    good = {"A": random_matrix(2, 3770), "B": random_matrix(2, 3771), "Z": np.eye(3)}
    cases = [
        ({"B": np.array([[1.0, np.inf], [0.0, 1.0]])}, "binding[B] contains non-finite entries"),
        ({"B": np.eye(3)}, "binding[B] has dimension 3, expected 2"),
        ({"A": np.eye(3), "B": np.eye(3)}, "binding[A] has dimension 3, expected 2"),
        ({"A": [[1.0, 2.0], [3.0]]}, "binding[A] is ragged: its nested lists do not form an array"),
        ({"B": np.ones((2, 3))}, "binding[B] must be square with n >= 1, got shape (2, 3)"),
        ({"A": np.ones((3, 2)), "B": np.full((2, 2), np.nan)}, "binding[A] must be square with n >= 1, got shape (3, 2)"),
    ]
    for changed, message in cases:
        with pytest.raises(ValueError) as error:
            evaluate(e, {**good, **changed})
        assert str(error.value) == message
    assert evaluate(e, good) == evaluate(e, {"A": good["A"], "B": good["B"]})


def test_evaluate_names_the_first_unbound_label_in_term_order():
    # words sort by length, so Z comes first though A sorts before it
    e = parse_expansion('{"n": 3, "terms": [{"coef": ["1", "1"], "words": [["A", "Y"], ["Z"]]}]}')
    assert e.terms[0].words == (("Z",), ("A", "Y"))
    with pytest.raises(KeyError, match="'Z'"):
        evaluate(e, {"Y": np.eye(3)})
    with pytest.raises(KeyError, match="'A'"):
        evaluate(e, {"Y": np.eye(3), "Z": np.eye(3)})
    # slots given in order C, A, B: the first term is Tr(A) Tr(B) Tr(C)
    e = expand_polydet(3, ["C", "A", "B"])
    assert e.terms[0].words == (("A",), ("B",), ("C",))
    with pytest.raises(KeyError, match="'A'"):
        evaluate(e, {"B": np.eye(3)})
    with pytest.raises(KeyError, match="'C'"):
        evaluate(e, {"A": np.eye(3), "B": np.eye(3)})


def test_evaluate_plan_holds_no_binding_state():
    labels = ["A", "B", "C", "D"]
    e = expand_polydet(4, labels)
    for seed in (3800, 3900, 3800):
        mats = [random_matrix(4, seed + k) for k in range(4)]
        value = evaluate(e, dict(zip(labels, mats)))
        reference = polydet_subset_sum(mats).value
        assert abs(value - reference) <= 1e-12 * max(abs(reference), 1.0)


def refuse(*args, **kwargs):
    raise AssertionError("compiled a plan")


@pytest.mark.parametrize(
    "labels",
    [pytest.param([f"M{k}" for k in range(n)], id=str(n)) for n in range(2, 7)]
    + [pytest.param(list(word), id=word) for word in ("AAABBC", "BACCAB", "ABABAB")],
)
def test_fresh_expansions_evaluate_on_their_class_plan(monkeypatch, labels):
    # a fresh expansion, and one parsed from its json render, carry their class table's plan:
    # evaluate compiles nothing and agrees bit for bit with the plan compiled from the same
    # terms, and with polydet; the trace-formula engine evaluates the all-distinct class's plan
    n, names = len(labels), sorted(set(labels))
    binding = {label: random_matrix(n, 4400 + 10 * n + k) for k, label in enumerate(names)}
    mats = [binding[label] for label in labels]
    e = expand_polydet(n, labels)
    blob = render(e, "json")
    parsed = [parse_expansion(blob), parse_expansion(blob + "\n")]  # the latter as `expand --out` writes it
    copy = TraceExpansion(e.n, e.terms)
    with monkeypatch.context() as patched:
        patched.setattr(symbolic_module, "trace_sum_plan", refuse)
        value = evaluate(e, binding)
        assert [evaluate(p, binding) for p in parsed] == [value, value]
        with pytest.raises(AssertionError):
            evaluate(copy, binding)
        if len(names) == n:
            assert polydet_trace_formula(mats).value == value
    assert evaluate(copy, binding) == value
    reference = polydet_subset_sum(mats).value
    assert abs(value - reference) <= 1e-12 * abs(reference)


def test_evaluated_expansion_still_round_trips():
    e = expand_polydet(4, ["A", "B", "C", "D"])
    fresh = expand_polydet(4, ["A", "B", "C", "D"])
    binding = {label: random_matrix(4, 3950 + k) for k, label in enumerate("ABCD")}
    value = evaluate(e, binding)
    rendered = {format: render(e, format) for format in ("text", "latex", "json")}
    assert parse_expansion(rendered["json"]) == e
    assert e == fresh and hash(e) == hash(fresh)
    assert rendered == {format: render(fresh, format) for format in rendered}
    assert pickle.dumps(e) == pickle.dumps(fresh)
    copy = TraceExpansion(e.n, e.terms)
    assert render(copy, "json") == rendered["json"]
    assert pickle.dumps(copy) == pickle.dumps(TraceExpansion(e.n, e.terms))
    reloaded = pickle.loads(pickle.dumps(e))
    assert reloaded == e
    # the reloaded expansion carries no form and compiles its own plan
    assert abs(evaluate(reloaded, binding) - value) <= 1e-12 * abs(value)
    assert render(reloaded, "latex") == rendered["latex"]


def eager_terms(n, labels):
    """The terms of expand_polydet(n, labels) spelled in full, as a call once built them:
    the class table's words spelled in the sorted labels, and each term's words picked
    from them."""
    names = tuple(sorted(set(labels)))
    form = symbolic_module._class_table(tuple(map(labels.count, names)))
    spelled = tuple(speller(names) for speller in form.spellers)
    return tuple(TraceMonomial(coef, pick(spelled)) for (coef, _), pick in zip(form.terms, form.pickers))


@pytest.mark.parametrize("n", range(2, 7))
def test_lazy_terms_equal_the_eager_spelling_on_every_multiplicity_pattern(n):
    for k, pattern in enumerate(multiplicity_patterns(n)):
        labels = slot_labels(pattern, "PQRSTU", 700 + 10 * n + k)
        e = expand_polydet(n, labels)
        assert "terms" not in e.__dict__
        reference = eager_terms(n, labels)
        assert e.terms == reference and all(type(term) is TraceMonomial for term in e.terms)
        assert e.terms is e.terms  # spelled once, then kept


@pytest.mark.parametrize("labels", ["ABCDEF", "AAABBC", "ABC", "xx"])
def test_a_lazy_expansion_agrees_with_its_eager_copy(labels):
    # pickle and hash read the terms; the pickle is taken first, while the terms are unbuilt
    n = len(labels)
    lazy, eager = expand_polydet(n, labels), TraceExpansion(n, eager_terms(n, labels))
    assert pickle.dumps(lazy) == pickle.dumps(eager)
    assert hash(expand_polydet(n, labels)) == hash(eager)
    assert expand_polydet(n, labels) == eager and eager == expand_polydet(n, labels)
    assert repr(expand_polydet(n, labels)) == repr(eager)
    reloaded = pickle.loads(pickle.dumps(expand_polydet(n, labels)))
    assert reloaded == lazy and reloaded.__dict__.keys() == {"n", "terms"}
    with pytest.raises(AttributeError):
        lazy.terms = eager.terms


def test_expansions_of_one_form_compare_by_their_labels():
    a, b, c = expand_polydet(3, "ABC"), expand_polydet(3, "CBA"), expand_polydet(3, "XYZ")
    assert a == b and a != c
    assert all("terms" not in e.__dict__ for e in (a, b, c))


def test_expand_render_evaluate_and_parse_leave_the_terms_unbuilt():
    labels = "ABCDEF"
    e = expand_polydet(6, labels)
    rendered = {format: render(e, format) for format in ("text", "latex", "json")}
    evaluate(e, {label: random_matrix(6, 3960 + k) for k, label in enumerate(labels)})
    parsed = parse_expansion(rendered["json"])
    assert render(parsed, "json") == rendered["json"] and parsed == e
    assert "terms" not in e.__dict__ and "terms" not in parsed.__dict__


def commuting_tuple(rng, rows, scales):
    """A_k = s_k U diag(d_k) U^H with d_k the Gaussian integers rows[k] / 4, U Haar-random."""
    n = len(rows[0])
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    u = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    return [s * (u * (np.asarray(row) / 4)) @ u.conj().T for s, row in zip(scales, rows)]


def exact_commuting_eps(rows, scales):
    """eps of commuting_tuple(rows, scales): prod(s_k) perm(D) / N!, D[k][j] = rows[k][j] / 4,
    with perm(4 D) by Ryser's formula on the Gaussian integers and the rest over Fraction."""
    n = len(rows)
    re = im = 0
    for size in range(1, n + 1):
        for cols in itertools.combinations(range(n), size):
            pr, pi = (-1) ** size, 0
            for row in rows:
                sr, si = sum(int(row[j].real) for j in cols), sum(int(row[j].imag) for j in cols)
                pr, pi = pr * sr - pi * si, pr * si + pi * sr
            re, im = re + pr, im + pi
    weight = (-1) ** n * math.prod(map(Fraction, scales)) / (4**n * math.factorial(n))
    return complex(re * weight, im * weight)


def gaussian_rows(rng, n):
    return rng.integers(-4, 5, (n, n)) + 1j * rng.integers(-4, 5, (n, n))


SCALES = {"unit": lambda rng, n: np.ones(n), "spread": lambda rng, n: 10.0 ** rng.uniform(-3.0, 3.0, n)}


@pytest.mark.parametrize("spread", SCALES)
@pytest.mark.parametrize("n", range(2, 8))
def test_trace_formula_matches_the_exact_eps_of_commuting_tuples(n, spread):
    # a commuting normal tuple's eps is a permanent of its eigenvalues; the plan's
    # value is within 1e-12 of it, relative, at unit norms and at norms over six decades
    for seed in range(3):
        rng = np.random.default_rng([4600, n, seed])
        rows, scales = gaussian_rows(rng, n), SCALES[spread](rng, n)
        exact = exact_commuting_eps(rows, scales)
        assert exact != 0
        got = polydet_trace_formula(commuting_tuple(rng, rows, scales)).value
        assert abs(got - exact) <= 1e-12 * abs(exact), (seed, abs(got - exact) / abs(exact))


@pytest.mark.parametrize("spread", SCALES)
def test_evaluate_matches_the_exact_eps_on_every_n6_pattern(spread):
    patterns = multiplicity_patterns(6)
    assert len(patterns) == 32
    for k, pattern in enumerate(patterns):
        rng = np.random.default_rng([4700, k])
        labels = slot_labels(pattern, "ABCDEF", 4700 + k)
        names = sorted(set(labels))
        rows, scales = gaussian_rows(rng, 6)[: len(names)], SCALES[spread](rng, len(names))
        binding = dict(zip(names, commuting_tuple(rng, rows, scales)))
        slots = [names.index(label) for label in labels]
        exact = exact_commuting_eps(rows[slots], scales[slots])
        assert exact != 0
        got = evaluate(expand_polydet(6, labels), binding)
        assert abs(got - exact) <= 1e-12 * abs(exact), (pattern, abs(got - exact) / abs(exact))


def test_expand_guards():
    with pytest.raises(GuardLimitError):
        expand_polydet(7, list("ABCDEFG"))
    with pytest.raises(GuardLimitError):
        expand_polydet(1, ["A"])
    with pytest.raises(ValueError):
        expand_polydet(3, ["A", "B"])


def test_expand_det_of_sum_n2():
    assert expand_det_of_sum(2, 2) == [((2, 0), 1), ((1, 1), 2), ((0, 2), 1)]


def test_expand_det_of_sum_n3_weights():
    listing = dict(expand_det_of_sum(3, 3))
    assert listing[(1, 1, 1)] == 6
    assert sum(1 for comp, w in listing.items() if w == 3) == 6
    assert sum(1 for comp, w in listing.items() if w == 1) == 3
    assert len(listing) == 10


def test_expand_det_of_sum_single_summand():
    assert expand_det_of_sum(3, 1) == [((3,), 1)]


def test_expand_det_of_sum_guards():
    with pytest.raises(GuardLimitError):
        expand_det_of_sum(7, 2)
    with pytest.raises(GuardLimitError):
        expand_det_of_sum(3, 4)


def test_render_text_n2():
    e = expand_polydet(2, ["A", "B"])
    assert render(e, "text") == "1/2*Tr(A)*Tr(B) - 1/2*Tr(A*B)"


def test_render_latex_n3_structure():
    text = render(expand_polydet(3, ["A", "B", "C"]), "latex")
    assert "\\frac{1}{6}" in text
    assert "\\mathrm{Tr}(ABC)" in text
    assert "\\mathrm{Tr}(ACB)" in text
    assert text.count("\\mathrm{Tr}") == 11


def json_payload_reference(expansion):
    """render(..., "json") as one json.dumps of the whole payload."""
    terms = [
        {
            "coef": [str(t.coefficient.numerator), str(t.coefficient.denominator)],
            "words": [list(w) for w in t.words],
        }
        for t in expansion.terms
    ]
    return json.dumps({"n": expansion.n, "terms": terms}, sort_keys=True)


@pytest.mark.parametrize(
    "expansion",
    [
        expand_polydet(4, ["\u00e9", '"q"', "a\\b", "Z"]),
        expand_polydet(3, ["B", "A", "B"]),
        parse_expansion('{"n": 3, "terms": [{"coef": [3, -6], "words": [["2", "1"], ["1"]]}, {"coef": ["4", "1"], "words": [["1", "1", "2"]]}]}'),
        TraceExpansion(2, ()),
    ],
    ids=("escaped-labels", "repeated-labels", "integer-coefficients", "no-terms"),
)
def test_render_json_is_json_dumps_of_the_payload(expansion):
    assert render(expansion, "json") == json_payload_reference(expansion)
    assert parse_expansion(render(expansion, "json")) == expansion


def render_loop_reference(expansion, format):
    """render by a loop over the terms, as it was before templates: each term's coefficient
    head joined with its words, each word spelled letter by letter, and the terms joined."""
    spell = json.dumps if format == "json" else str
    opening, letters, joiner = {"text": ("Tr(", "*", "*"), "latex": ("\\mathrm{Tr}(", "", ""), "json": ("[", ", ", ", ")}[format]
    closing = "]" if format == "json" else ")"

    def head(coef):
        if format == "json":
            return '{"coef": ' + json.dumps([str(coef.numerator), str(coef.denominator)]) + ', "words": ['
        mag = abs(coef)
        spelled = "" if mag == 1 else f"{mag}*" if format == "text" else f"\\frac{{{mag.numerator}}}{{{mag.denominator}}}"
        return (" + " if coef > 0 else " - ") + spelled

    terms = [head(coef) + joiner.join(opening + letters.join(map(spell, word)) + closing for word in words) for coef, words in expansion.terms]
    if format == "json":
        return '{"n": ' + json.dumps(expansion.n) + ', "terms": [' + "]}, ".join(terms) + ("]}" if terms else "") + "]}"
    body = "".join(terms)
    if not body:
        return "0"
    return body[3:] if body.startswith(" + ") else "-" + body[3:]


FORMATS = ("text", "latex", "json")
LABEL_SETS = ("ABCDEF", ["\u00e9", '"q"', "a\\b", "Z", "x10", "x2"], ["{a}", "%s", '"q"', "a\\b", "\u00e9", "\x00"])


@pytest.mark.parametrize("n", range(2, 7))
def test_render_matches_the_loop_references_on_every_multiplicity_pattern(n):
    # on every pattern, under each label set: a fresh expansion, a copy that builds its own form,
    # and its shuffled json text read term by term render as the per-term loop does in every
    # format, and as one json.dumps of the payload in json; the pattern's expansions on other
    # labels in the same order share one template per format
    for names in LABEL_SETS:
        for k, pattern in enumerate(multiplicity_patterns(n)):
            labels = slot_labels(pattern, names, 20 * n + k)
            e = expand_polydet(n, labels)
            terms, rng, order = json.loads(render(e, "json"))["terms"], np.random.default_rng(k), []
            while order in ([], terms):
                order = [terms[j] for j in rng.permutation(len(terms))]
            shuffled = parse_expansion(json.dumps({"n": n, "terms": order}))
            assert shuffled == e and shuffled._form[1] is not e._form[1]
            references = {format: render_loop_reference(e, format) for format in FORMATS}
            assert references["json"] == json_payload_reference(e)
            for expansion in (e, TraceExpansion(e.n, e.terms), shuffled):
                assert {format: render(expansion, format) for format in FORMATS} == references
            other = expand_polydet(n, ["PQRSTU"[sorted(names).index(label)] for label in labels])
            for format in FORMATS:
                assert e._form[1].template(format) is other._form[1].template(format)


def parse_reference(payload):
    """parse_expansion of a valid payload by a loop: each word's minimal rotation, each
    term's words sorted by (length, word), equal terms summed, zeros dropped, term order."""
    acc = {}
    for term in payload["terms"]:
        words = [tuple(w) for w in term["words"]]
        words = [min(w[i:] + w[:i] for i in range(len(w))) for w in words]
        key = tuple(sorted(words, key=lambda w: (len(w), w)))
        acc[key] = acc.get(key, 0) + Fraction(*map(int, term["coef"]))
    kept = sorted((key for key, coef in acc.items() if coef), key=lambda k: (-len(k), [len(w) for w in k], k))
    return TraceExpansion(payload["n"], tuple(TraceMonomial(acc[key], key) for key in kept))


@pytest.mark.parametrize("labels", ["ABCDEF", "AAABBC", "BACCAB", "ABC", "xyx"])
def test_parse_expansion_reads_every_other_spelling_term_by_term(labels):
    # other spellings of an expansion, and its json render with whitespace around it: each
    # parses to what the term-by-term reader makes of it, and renders as that expansion does
    e = expand_polydet(len(labels), labels)
    blob = render(e, "json")
    payload = json.loads(blob)
    terms = payload["terms"]
    rotated = [{"coef": t["coef"], "words": [w[1:] + w[:1] for w in t["words"]]} for t in terms]
    inputs = {
        "shuffled": {"n": e.n, "terms": [terms[k] for k in np.random.default_rng(len(terms)).permutation(len(terms))]},
        "duplicates": {"n": e.n, "terms": terms + terms[1::3]},
        "rotations": {"n": e.n, "terms": rotated},
        "partial": {"n": e.n, "terms": terms[: len(terms) // 2]},
        "reversed-words": {"n": e.n, "terms": [{"coef": t["coef"], "words": t["words"][::-1]} for t in terms]},
    }
    texts = list(map(json.dumps, inputs.values()))
    texts += [payload, blob.encode(), json.dumps(payload, indent=1), blob + "\n", " \t" + blob + "\r\n"]
    for text in texts:
        parsed = parse_expansion(text)
        reference = parse_reference(text if isinstance(text, dict) else json.loads(text))
        assert parsed == reference
        for format in ("text", "latex", "json"):
            assert render(parsed, format) == render(reference, format)
    assert parse_expansion(inputs["shuffled"]) == e


def refuse_full_decode(*args, **kwargs):
    raise AssertionError("decoded the whole text")


@pytest.mark.parametrize("labels", ["ABCDEF", "AAABBC", "BACCAB", "AB", "xyx"])
def test_a_render_is_recognized_from_its_head(monkeypatch, labels):
    # with json.loads refusing, a render, bare, with the newline `expand --out` writes after
    # it, or with JSON whitespace around it, parses to its class expansion and table form
    e = expand_polydet(len(labels), labels)
    blob = render(e, "json")
    table = symbolic_module._class_table(tuple(map(labels.count, sorted(set(labels)))))
    monkeypatch.setattr(symbolic_module.json, "loads", refuse_full_decode)
    for text in (blob, blob + "\n", " \t" + blob + "\r\n", "\r\n\t " + blob + "\n\n"):
        parsed = parse_expansion(text)
        assert parsed == e and parsed._form[1] is table


def outcome(parse, text):
    """("value", the expansion) or ("error", its type, its message) of parse(text)."""
    try:
        return "value", parse(text)
    except ValueError as error:
        return "error", type(error), str(error)


def near_misses(blob):
    """A render's near misses: (name, text) pairs that are no render of an expansion."""
    assert json.dumps(json.loads(blob)) == blob  # so an edit re-spells the rest as the render does

    def edited(edit):
        changed = json.loads(blob)
        edit(changed)
        return json.dumps(changed)

    return [
        ("coefficient", edited(lambda p: p["terms"][-1].update(coef=["7", "5"]))),
        ("dropped-term", edited(lambda p: p["terms"].pop(len(p["terms"]) // 2))),
        ("trailing-junk", blob + " {}"),
        ("trailing-bracket", blob + "]"),
        ("n-7", edited(lambda p: p.update(n=7))),
        ("n-1", edited(lambda p: p.update(n=1))),
        ("n-true", edited(lambda p: p.update(n=True))),
        ("n-float", edited(lambda p: p.update(n=float(p["n"])))),
        ("no-words", edited(lambda p: p["terms"][0].pop("words"))),
        ("empty-label", edited(lambda p: p["terms"][0]["words"][0].__setitem__(0, ""))),
        ("bytes", blob.encode()),
    ]


@pytest.mark.parametrize("labels", ["ABCDEF", "AAABBC", "AB"])
def test_a_near_miss_of_a_render_is_read_as_before(monkeypatch, labels):
    # each near miss decodes in full, once, and parses to what its decoded object parses to,
    # or raises the same error: a text that is not valid JSON, json.loads' own
    blob = render(expand_polydet(len(labels), labels), "json")
    loads, decoded = json.loads, []
    monkeypatch.setattr(symbolic_module.json, "loads", lambda text: decoded.append(text) or loads(text))
    for name, text in near_misses(blob):
        decoded.clear()
        got = outcome(parse_expansion, text)
        assert decoded == [text], name
        assert got == outcome(lambda t: parse_expansion(loads(t)), text), name
        if name == "bytes":
            assert got == ("value", expand_polydet(len(labels), labels))


def test_render_json_roundtrip_byte_identical():
    for n in (2, 3, 4):
        e = expand_polydet(n, [chr(ord("A") + i) for i in range(n)])
        blob = render(e, "json")
        again = render(parse_expansion(blob), "json")
        assert blob == again
        assert parse_expansion(blob) == e


@pytest.mark.parametrize(
    "labels, terms, digest",
    [
        ("ABCDEF", 720, "057eb3c4f31966dcd882fbfc8532ebc4be608cf2404dcd2e055c6963f5110f8c"),
        ("AAABBC", 84, "173cafda636d102d1259fbb858318ad90da3a266684962177af170d53e20e875"),
        ("ABABAB", 38, "9903a73d9d007cf27abcec399b07d5a544825c195d15e030dab986b4e61b526d"),
        ("BACCAB", 120, "9cafdb47fd0015c391f4bd40c6215f7054ec9fbea48eeba9d473dd7278b5e4e1"),
    ],
)
def test_expand_n6_json_is_pinned(labels, terms, digest):
    """The full n = 6 json output, byte for byte, as the partition-class expansion
    gave it (BACCAB: as the cycle-cover expansion gave it)."""
    e = expand_polydet(6, labels)
    assert len(e.terms) == terms
    blob = render(e, "json")
    assert hashlib.sha256(blob.encode()).hexdigest() == digest
    assert e == expand_polydet(6, "".join(sorted(labels)))
    assert parse_expansion(blob) == e


@pytest.mark.parametrize(
    "labels, format, digest",
    [
        ("ABCDEF", "text", "ff7dbc25f1c403115d859e5efbb1c9d67c2c83e23eec6e7e52e22756731ac671"),
        ("ABCDEF", "latex", "7d1fb65de6d08c55aaf9837b57c4311aef463580582aab34adbd475d1f695c64"),
        ("AAABBC", "text", "a6db2b53d1937b8cff3bb514c4b30be9e9db86705a97537b324ac49a101ed7c4"),
        ("AAABBC", "latex", "34a198b1a7ffac79631de4caba5cf5a3a23648c739d9a7fc11b6a302403bac4f"),
    ],
    ids=("ABCDEF-text", "ABCDEF-latex", "AAABBC-text", "AAABBC-latex"),
)
def test_expand_n6_text_and_latex_are_pinned(labels, format, digest):
    """The full n = 6 text and LaTeX output, byte for byte, as separate
    text and LaTeX render loops gave it."""
    assert hashlib.sha256(render(expand_polydet(6, labels), format).encode()).hexdigest() == digest


def test_render_signs_and_magnitudes():
    negative_first = TraceExpansion(
        1, (TraceMonomial(Fraction(-2), (("A",),)), TraceMonomial(Fraction(1), (("B",),)))
    )
    assert render(negative_first, "text") == "-2*Tr(A) + Tr(B)"
    assert render(negative_first, "latex") == "-\\frac{2}{1}\\mathrm{Tr}(A) + \\mathrm{Tr}(B)"
    assert render(TraceExpansion(2, ()), "text") == render(TraceExpansion(2, ()), "latex") == "0"
    assert render(TraceExpansion(2, ()), "json") == '{"n": 2, "terms": []}'
    for expansion in (negative_first, TraceExpansion(2, ())):
        for format in FORMATS:
            assert render(expansion, format) == render_loop_reference(expansion, format)


def test_render_refuses_a_term_of_no_words_or_a_word_of_no_letters():
    for terms in ((TraceMonomial(Fraction(1), ()),), (TraceMonomial(Fraction(1), (("A",), ())),)):
        with pytest.raises(ValueError, match="has no render"):
            render(TraceExpansion(1, terms), "text")


def test_render_unknown_format():
    with pytest.raises(ValueError):
        render(expand_polydet(2, ["A", "B"]), "html")


def test_parse_expansion_normalizes():
    blob = (
        '{"n": 2, "terms": ['
        '{"coef": ["1", "4"], "words": [["B"], ["A"]]},'
        '{"coef": ["1", "4"], "words": [["A"], ["B"]]},'
        '{"coef": ["-1", "2"], "words": [["B", "A"]]}]}'
    )
    assert parse_expansion(blob) == expand_polydet(2, ["A", "B"])


def test_parse_expansion_canonicalizes_sums_and_drops_zeros():
    blob = (
        '{"n": 3, "terms": ['
        '{"coef": ["2", "8"], "words": [["C", "A", "B"]]},'
        '{"coef": ["1", "5"], "words": [["B", "A"], ["C"]]},'
        '{"coef": ["-1", "3"], "words": [["C", "B"], ["A"]]},'
        '{"coef": ["0", "7"], "words": [["B", "A", "C"]]},'
        '{"coef": ["1", "4"], "words": [["B", "C", "A"]]},'
        '{"coef": ["1", "1"], "words": [["C"], ["B"], ["A"]]},'
        '{"coef": ["-1", "5"], "words": [["C"], ["A", "B"]]}]}'
    )
    expected = TraceExpansion(
        3,
        (
            TraceMonomial(Fraction(1), (("A",), ("B",), ("C",))),
            TraceMonomial(Fraction(-1, 3), (("A",), ("B", "C"))),
            TraceMonomial(Fraction(1, 2), (("A", "B", "C"),)),
        ),
    )
    parsed = parse_expansion(blob)
    assert parsed == expected
    assert [type(t.coefficient) for t in parsed.terms] == [Fraction] * 3


TERM_SHAPE = '{"coef": [numerator, denominator], "words": [[label, ...], ...]}'


def terms_of_n2(*terms):
    return {"n": 2, "terms": list(terms)}


@pytest.mark.parametrize(
    "payload, message",
    [
        # a word spelled as one JSON string would read as its letters, Tr(A*B)
        (terms_of_n2({"coef": ["1", "1"], "words": ["AB"]}), "term 0: a word must be a list of labels, got ['AB']"),
        (terms_of_n2({"coef": ["1", "2"], "words": [["A"], ["B"]]}, {"coef": ["1", "1"], "words": [["A", "B", "C"]]}),
         "term 1: word lengths sum to 3, not n = 2"),
        (terms_of_n2({"coef": ["1", "1"], "words": [["A"]]}), "term 0: word lengths sum to 1, not n = 2"),
        # n would have read as int(2.9) == 2, and True, 0 and -3 as themselves
        ({"n": 2.9, "terms": []}, '"n" must be a positive integer, got 2.9'),
        ({"n": True, "terms": []}, '"n" must be a positive integer, got True'),
        ({"n": 0, "terms": []}, '"n" must be a positive integer, got 0'),
        ({"n": -3, "terms": []}, '"n" must be a positive integer, got -3'),
        # a spelling seen first in a later term is checked there
        (terms_of_n2({"coef": ["1", "2"], "words": [["A"], ["B"]]}, {"coef": ["1", "0"], "words": [["A", "B"]]}),
         "term 1: a coefficient must be [numerator, denominator] with a non-zero denominator, got ['1', '0']"),
        (terms_of_n2({"coef": ["1", "2", "3"], "words": [["A", "B"]]}),
         "term 0: a coefficient must be [numerator, denominator] with a non-zero denominator, got ['1', '2', '3']"),
        (terms_of_n2({"coef": ["1/2", "1"], "words": [["A", "B"]]}),
         "term 0: a coefficient must be [numerator, denominator] with a non-zero denominator, got ['1/2', '1']"),
        (terms_of_n2({"coef": "12", "words": [["A", "B"]]}),
         "term 0: a coefficient must be [numerator, denominator] with a non-zero denominator, got '12'"),
        (terms_of_n2({"coef": ["1", "2"], "words": [["A", "B"]]}, {"coef": ["1", ["2"]], "words": [["A", "B"]]}),
         "term 1: a term must read " + TERM_SHAPE + ", got {'coef': ['1', ['2']], 'words': [['A', 'B']]}"),
        (terms_of_n2({"coef": ["1", "1"], "words": [["A", ["B"]]]}),
         "term 0: a term must read " + TERM_SHAPE + ", got {'coef': ['1', '1'], 'words': [['A', ['B']]]}"),
        (terms_of_n2({"coef": ["1", "1"], "words": [5]}),
         "term 0: a term must read " + TERM_SHAPE + ", got {'coef': ['1', '1'], 'words': [5]}"),
        (terms_of_n2({"coef": ["1", "1"]}), "term 0: a term must read " + TERM_SHAPE + ", got {'coef': ['1', '1']}"),
        (terms_of_n2("AB"), "term 0: a term must read " + TERM_SHAPE + ", got 'AB'"),
        ({"n": 2}, 'expansion JSON must be an object with "n" and "terms" fields'),
        # a number would leak a TypeError, and an object would be read as its keys
        ({"n": 2, "terms": 5}, '"terms" must be a list, got 5'),
        ({"n": 2, "terms": {"a": 1}}, '"terms" must be a list, got {\'a\': 1}'),
        ([2, []], 'expansion JSON must be an object with "n" and "terms" fields'),
        # integer labels would parse, then fail to render as text
        (terms_of_n2({"coef": ["1", "1"], "words": [[1], [2]]}),
         "term 0: a word must be a non-empty list of non-empty string labels, got [1]"),
        # an empty label would render Tr(), though expand_polydet rejects it
        (terms_of_n2({"coef": ["1", "1"], "words": [["A", "B"]]}, {"coef": ["1", "1"], "words": [[""], ["A"]]}),
         "term 1: a word must be a non-empty list of non-empty string labels, got ['']"),
        (terms_of_n2({"coef": ["1", "1"], "words": [[], ["A", "B"]]}),
         "term 0: a word must be a non-empty list of non-empty string labels, got []"),
    ],
    ids=(
        "string-word", "too-many-letters", "too-few-letters",
        "float-n", "boolean-n", "zero-n", "negative-n",
        "zero-denominator", "three-part-coefficient", "fraction-string-coefficient",
        "string-coefficient", "unhashable-coefficient-part", "unhashable-label", "word-not-a-list",
        "missing-words", "term-not-an-object", "missing-terms", "number-terms", "object-terms", "not-an-object",
        "integer-labels", "empty-label", "empty-word",
    ),
)
def test_parse_expansion_rejects_a_term_that_is_not_n_letters_of_labels(payload, message):
    with pytest.raises(ValueError) as info:
        parse_expansion(json.dumps(payload))
    assert str(info.value) == message


def test_expand_rejects_an_empty_label():
    with pytest.raises(ValueError, match="label 2 of 3 is empty"):
        expand_polydet(3, ["A", "", "C"])


def test_expansion_term_order_is_deterministic():
    e = expand_polydet(3, ["A", "B", "C"])
    assert [t.words for t in e.terms] == [
        (("A",), ("B",), ("C",)),
        (("A",), ("B", "C")),
        (("B",), ("A", "C")),
        (("C",), ("A", "B")),
        (("A", "B", "C"),),
        (("A", "C", "B"),),
    ]
