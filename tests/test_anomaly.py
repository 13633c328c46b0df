import cmath
import itertools
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

import polydet.anomaly as anomaly_module
import polydet.engines as engines_module
from polydet.anomaly import (
    METRIC,
    Couplings,
    FieldConfiguration,
    IndeterminateRatioError,
    LorentzIndexedFamily,
    Multiplet,
    assemble_field_matrix,
    axial_phase_law,
    boost_matrix,
    build_generators,
    check_invariance,
    chiral_transform,
    couplings_from_json,
    enumerate_vertices,
    evaluate_field_polynomial,
    field_config_from_json,
    lagrangian_value,
    lorentz_contracted_polydet,
    project_field_matrix,
    transform_family,
    verify_field_expansion,
    with_variance,
)
from polydet.engines import polydet, polydet_subset_sum
from polydet.matrices import identity, random_matrix

SQRT6 = math.sqrt(6.0)


def zero_multiplet(n):
    return Multiplet(np.zeros(n * n), np.zeros(n * n))


def random_config(seed, n=3):
    rng = np.random.default_rng(seed)
    return FieldConfiguration(
        n,
        tuple(
            Multiplet(rng.uniform(-1, 1, n * n), rng.uniform(-1, 1, n * n))
            for _ in range(2)
        ),
    )


COUPLINGS = Couplings(c1=1.2, c2=0.8, c3=0.5 + 0.1j, c4=-0.3 + 0.2j, f0=0.9)


# --- generator basis ----------------------------------------------------------


def test_generators_n2_are_half_paulis():
    basis = build_generators(2)
    t0, t1, t2, t3 = basis.generators
    assert np.allclose(t0, identity(2) / 2)
    assert np.allclose(t1, np.array([[0, 1], [1, 0]]) / 2)
    assert np.allclose(t2, np.array([[0, -1j], [1j, 0]]) / 2)
    assert np.allclose(t3, np.array([[1, 0], [0, -1]]) / 2)


def test_generators_n3_singlet_normalization():
    basis = build_generators(3)
    assert np.allclose(basis.generators[0], identity(3) / SQRT6)


def test_generators_n3_diagonal_pair():
    ts = build_generators(3).generators
    assert abs(np.trace(ts[3] @ ts[8])) < 1e-14
    assert abs(np.trace(ts[8] @ ts[8]) - 0.5) < 1e-14
    # the two diagonal generators sit at the conventional positions
    assert np.allclose(ts[3], np.diag([1, -1, 0]) / 2)
    assert np.allclose(ts[8], np.diag([1, 1, -2]) / (2 * math.sqrt(3)))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_generator_orthonormality(n):
    ts = build_generators(n).generators
    assert len(ts) == n * n
    for a, ta in enumerate(ts):
        assert np.max(np.abs(ta - ta.conj().T)) < 1e-14  # Hermitian
        if a >= 1:
            assert abs(np.trace(ta)) < 1e-14  # traceless
        for b, tb in enumerate(ts):
            want = 0.5 if a == b else 0.0
            assert abs(np.trace(ta @ tb) - want) < 1e-12


def test_generators_reject_unsupported_n():
    with pytest.raises(ValueError):
        build_generators(1)
    with pytest.raises(ValueError):
        build_generators(6)


# --- field matrices -----------------------------------------------------------


def test_assemble_zero_fields():
    basis = build_generators(3)
    assert np.all(assemble_field_matrix(basis, np.zeros(9), np.zeros(9)) == 0)


def test_assemble_singlet_scalar_gives_identity():
    basis = build_generators(3)
    s = np.zeros(9)
    s[0] = math.sqrt(12.0)
    assert np.allclose(assemble_field_matrix(basis, s, np.zeros(9)), identity(3))


def test_assemble_project_roundtrip():
    basis = build_generators(3)
    rng = np.random.default_rng(5)
    s, p = rng.uniform(-1, 1, 9), rng.uniform(-1, 1, 9)
    a = assemble_field_matrix(basis, s, p)
    s2, p2 = project_field_matrix(basis, a)
    assert np.allclose(s, s2, atol=1e-12)
    assert np.allclose(p, p2, atol=1e-12)


def test_assemble_length_mismatch():
    basis = build_generators(3)
    with pytest.raises(ValueError):
        assemble_field_matrix(basis, np.zeros(8), np.zeros(9))


# --- transformations ----------------------------------------------------------


def test_chiral_transform_identity():
    a = random_matrix(3, 1)
    assert np.allclose(chiral_transform(a, identity(3), identity(3)), a)


def test_chiral_transform_flavor_case():
    a = random_matrix(3, 2)
    u = random_matrix(3, 3, "unitary")
    assert np.allclose(chiral_transform(a, u, u), u @ a @ u.conj().T)


def test_chiral_transform_abelian_phases_compose():
    a = random_matrix(2, 4)
    theta_l, theta_r = 0.7, -0.4
    u_l = cmath.exp(-1j * theta_l / 2) * identity(2)  # exp(-i theta t0), t0 = 1/2
    u_r = cmath.exp(-1j * theta_r / 2) * identity(2)
    moved = chiral_transform(a, u_l, u_r)
    assert np.allclose(moved, cmath.exp(-1j * (theta_l - theta_r) / 2) * a)


def test_chiral_transform_rejects_non_unitary():
    a = random_matrix(3, 5)
    with pytest.raises(ValueError):
        chiral_transform(a, 2 * identity(3), identity(3))


def test_axial_phase_law_values():
    theta = 0.83
    assert abs(axial_phase_law(2, theta, 2) - cmath.exp(-2j * theta)) < 1e-15
    assert abs(axial_phase_law(3, theta, 3) - cmath.exp(-1j * theta * SQRT6)) < 1e-15
    assert axial_phase_law(3, 0.0, 3) == 1


def test_check_invariance_special_unitary():
    mats = [random_matrix(3, 20), random_matrix(3, 20), random_matrix(3, 21)]
    u_l = random_matrix(3, 22, "special-unitary")
    u_r = random_matrix(3, 23, "special-unitary")
    report = check_invariance(mats, u_l, u_r)
    assert report.su_invariant
    assert abs(report.ratio - 1) < 1e-9


def test_check_invariance_pure_axial_phase():
    theta = 1.1
    mats = [random_matrix(3, 30), random_matrix(3, 30), random_matrix(3, 31)]
    phase = cmath.exp(-1j * theta / SQRT6)  # exp(-i theta / sqrt(2n)) at n=3
    report = check_invariance(mats, phase * identity(3), phase.conjugate() * identity(3))
    assert abs(report.ratio - cmath.exp(-1j * theta * SQRT6)) < 1e-10
    assert not report.su_invariant


def test_check_invariance_vector_phase_is_trivial():
    mats = [random_matrix(3, 40), random_matrix(3, 40), random_matrix(3, 41)]
    u = cmath.exp(0.3j) * random_matrix(3, 42, "special-unitary")
    report = check_invariance(mats, u, u)
    assert abs(report.ratio - 1) < 1e-9


def test_check_invariance_checks_the_factors_once_per_call(monkeypatch):
    # each factor is coerced once and both go through one unitarity check
    coerced, checks = [], []
    as_matrix, unitaries = anomaly_module.as_matrix, anomaly_module._unitaries
    monkeypatch.setattr(anomaly_module, "as_matrix", lambda m, name: coerced.append(name) or as_matrix(m, name=name))
    monkeypatch.setattr(anomaly_module, "_unitaries", lambda *args: checks.append(args) or unitaries(*args))
    mats = [random_matrix(3, 55), random_matrix(3, 56), random_matrix(3, 57)]
    check_invariance(mats, random_matrix(3, 58, "unitary"), random_matrix(3, 59, "unitary"))
    assert coerced == ["u_left", "u_right"]
    assert len(checks) == 1


@pytest.mark.parametrize("bad", ("u_left", "u_right"))
@pytest.mark.parametrize("check", ("check_invariance", "chiral_transform"))
def test_a_non_unitary_factor_is_named(bad, check):
    mats = [random_matrix(3, k) for k in (61, 62, 63)]
    factors = {"u_left": random_matrix(3, 64, "unitary"), "u_right": random_matrix(3, 65, "unitary")}
    factors[bad] = factors[bad] * 1.01
    run = (lambda: check_invariance(mats, **factors)) if check == "check_invariance" else (
        lambda: chiral_transform(mats[0], **factors)
    )
    with pytest.raises(ValueError, match=f"^{bad} is not unitary") as info:
        run()
    assert not isinstance(info.value, IndeterminateRatioError)


def test_when_both_factors_are_bad_u_left_is_named():
    mats = [random_matrix(3, k) for k in (66, 67, 68)]
    with pytest.raises(ValueError, match="^u_left is not unitary"):
        check_invariance(mats, 2 * identity(3), 3 * identity(3))
    with pytest.raises(ValueError, match="^u_left must be 3 x 3"):
        check_invariance(mats, identity(2), identity(4))


@pytest.mark.parametrize("bad", ("u_left", "u_right"))
def test_a_factor_of_the_wrong_size_is_named(bad):
    # a 2 x 2 factor on 3 x 3 arguments is rejected by name before any product
    mats = [random_matrix(3, k) for k in (71, 72, 73)]
    factors = {"u_left": identity(3), "u_right": identity(3)}
    factors[bad] = identity(2)
    message = f"^{bad} must be 3 x 3 to act on 3 x 3 matrices, got shape \\(2, 2\\)$"
    with pytest.raises(ValueError, match=message):
        check_invariance(mats, **factors)
    with pytest.raises(ValueError, match=message):
        chiral_transform(mats[0], **factors)


def counting(calls, fn):
    def counted(m, *args, **kwargs):
        calls.append(len(m))
        return fn(m, *args, **kwargs)

    return counted


def test_check_invariance_per_call_work(monkeypatch):
    # the tuple is validated once; one stacked kernel determinant serves both
    # tuples (2 x 2^(3-1) matrices) and one public det both factors; a single
    # polydet call validates its tuple and takes 2^(3-1) determinants
    kernel, public, validated, revalidated = [], [], [], []
    monkeypatch.setattr(engines_module, "det", counting(kernel, engines_module.det))
    monkeypatch.setattr(anomaly_module, "det", counting(public, anomaly_module.det))
    monkeypatch.setattr(
        anomaly_module, "validate_matrix_tuple", counting(validated, anomaly_module.validate_matrix_tuple)
    )
    monkeypatch.setattr(
        engines_module, "validate_matrix_tuple", counting(revalidated, engines_module.validate_matrix_tuple)
    )
    mats = [random_matrix(3, k) for k in (74, 75, 76)]
    check_invariance(mats, random_matrix(3, 77, "special-unitary"), random_matrix(3, 78, "unitary"))
    assert (kernel, public, validated, revalidated) == ([8], [2], [3], [])
    kernel.clear()
    polydet(mats)
    assert (kernel, revalidated) == ([4], [3])


def test_check_invariance_general_unitary_dets():
    mats = [random_matrix(3, 50), random_matrix(3, 51), random_matrix(3, 52)]
    u_l = random_matrix(3, 53, "unitary")
    u_r = random_matrix(3, 54, "unitary")
    report = check_invariance(mats, u_l, u_r)
    expected = np.linalg.det(u_l) * np.conj(np.linalg.det(u_r))
    assert abs(report.ratio - expected) < 1e-9


def test_check_invariance_indeterminate():
    zeros = [np.zeros((3, 3))] * 3
    with pytest.raises(IndeterminateRatioError):
        check_invariance(zeros, identity(3), identity(3))


def test_check_invariance_floor_scales_with_the_arguments():
    mats = [1e-5 * random_matrix(3, k) for k in (1, 2, 3)]
    u_l = random_matrix(3, 4, "special-unitary")
    u_r = random_matrix(3, 5, "special-unitary")
    report = check_invariance(mats, u_l, u_r)
    assert abs(report.ratio - 1) < 1e-9
    assert report.su_invariant


def test_check_invariance_other_errors_are_not_indeterminate():
    mats = [random_matrix(3, k) for k in (1, 2, 3)]
    with pytest.raises(ValueError, match="u_left must be square") as info:
        check_invariance(mats, np.ones((3, 2)), identity(3))
    assert not isinstance(info.value, IndeterminateRatioError)


# --- Lagrangian ---------------------------------------------------------------


def test_lagrangian_zero_fields_unshifted():
    cfg = FieldConfiguration(3, (zero_multiplet(3), zero_multiplet(3)))
    assert lagrangian_value(cfg, COUPLINGS, shifted=False) == 0


def test_lagrangian_zero_fields_shifted_vacuum_energy():
    cfg = FieldConfiguration(3, (zero_multiplet(3), zero_multiplet(3)))
    value = lagrangian_value(cfg, COUPLINGS, shifted=True)
    expected = 2 * COUPLINGS.c1.real * COUPLINGS.f0**3 / (6 * SQRT6)
    assert abs(value - expected) < 1e-12


def test_lagrangian_is_real_with_conjugate_pair():
    cfg = random_config(60)
    basis = build_generators(3)
    a1 = assemble_field_matrix(basis, cfg.multiplets[0].s, cfg.multiplets[0].p)
    a2 = assemble_field_matrix(basis, cfg.multiplets[1].s, cfg.multiplets[1].p)
    holo = (
        COUPLINGS.c1 * np.linalg.det(a1)
        + COUPLINGS.c2 * np.linalg.det(a2)
        + COUPLINGS.c3 * polydet_subset_sum([a1, a1, a2]).value
        + COUPLINGS.c4 * polydet_subset_sum([a1, a2, a2]).value
    )
    value = lagrangian_value(cfg, COUPLINGS, shifted=False)
    assert isinstance(value, float)
    assert abs(value - (holo + holo.conjugate()).real) < 1e-12


def test_lagrangian_multiplet_count_error():
    cfg = FieldConfiguration(3, (zero_multiplet(3),))
    with pytest.raises(ValueError):
        lagrangian_value(cfg, COUPLINGS)


def test_lagrangian_flavor_count_error():
    cfg = FieldConfiguration(2, (zero_multiplet(2), zero_multiplet(2)))
    with pytest.raises(ValueError):
        lagrangian_value(cfg, COUPLINGS)


def second_derivative(couplings, component, index, step=1e-4):
    """Central finite difference of the shifted Lagrangian at the vacuum."""

    def value(x):
        s = [np.zeros(9), np.zeros(9)]
        p = [np.zeros(9), np.zeros(9)]
        if component == "p1":
            p[0][index] = x
        elif component == "s1":
            s[0][index] = x
        cfg = FieldConfiguration(
            3, (Multiplet(s[0], p[0]), Multiplet(s[1], p[1]))
        )
        return lagrangian_value(cfg, couplings, shifted=True)

    return (value(step) - 2 * value(0.0) + value(-step)) / step**2


def test_pseudoscalar_mass_terms_scale_with_first_coupling():
    for a in range(9):
        fd = second_derivative(COUPLINGS, "p1", a)
        expected = COUPLINGS.c1.real * COUPLINGS.f0 / (2 * SQRT6)
        if a == 0:
            expected = -COUPLINGS.c1.real * COUPLINGS.f0 / SQRT6
        assert abs(fd - expected) <= 1e-3 * abs(expected)


def test_pseudoscalar_mass_term_tracks_coupling_value():
    stronger = Couplings(c1=3.0, c2=0.0, c3=0.0, c4=0.0, f0=0.5)
    fd = second_derivative(stronger, "p1", 4)
    assert abs(fd - 3.0 * 0.5 / (2 * SQRT6)) <= 1e-3 * abs(fd)


# --- explicit cubic field expansion -------------------------------------------


def test_field_expansion_proportional_to_engine():
    report = verify_field_expansion(seed=1, samples=200)
    assert report.max_residual < 1e-8
    assert abs(report.kappa - 96 * math.sqrt(2)) <= 1e-9 * abs(report.kappa)


def test_field_expansion_matches_the_sample_by_sample_fit():
    # the stacked fit draws the same stream and fits the same kappa as a loop
    # that assembles and evaluates one sample at a time
    basis = build_generators(3)
    rng = np.random.default_rng(5)
    ps, es = [], []
    for _ in range(50):
        s1, p1, s2, p2 = (rng.uniform(-1.0, 1.0, 9) for _ in range(4))
        a1 = assemble_field_matrix(basis, s1, p1)
        a2 = assemble_field_matrix(basis, s2, p2)
        ps.append(evaluate_field_polynomial(s1 + 1j * p1, s2 + 1j * p2))
        es.append(polydet([a1, a1, a2]).value)
    ps, es = np.array(ps), np.array(es)
    kappa = np.sum(np.conj(es) * ps) / np.sum(np.abs(es) ** 2)
    report = verify_field_expansion(seed=5, samples=50)
    assert abs(report.kappa - kappa) <= 1e-13 * abs(kappa)


def test_field_polynomial_singlet_restriction():
    phi1 = np.zeros(9, dtype=complex)
    phi2 = np.zeros(9, dtype=complex)
    phi1[0] = 0.37 + 0.21j
    phi2[0] = -0.64 + 0.11j
    value = evaluate_field_polynomial(phi1, phi2)
    assert value == 4.0 * math.sqrt(2.0 / 3.0) * phi1[0] * phi1[0] * phi2[0]


def test_field_polynomial_zero_fields():
    assert evaluate_field_polynomial(np.zeros(9), np.zeros(9)) == 0
    basis = build_generators(3)
    a = assemble_field_matrix(basis, np.zeros(9), np.zeros(9))
    assert polydet_subset_sum([a, a, a]).value == 0


def test_field_expansion_degenerate_input():
    with pytest.raises(ValueError):
        verify_field_expansion(seed=1, samples=1)


# --- Lorentz-contracted form ---------------------------------------------------


def rank1_family(rng, variance=("lower",)):
    comps = tuple(
        rng.uniform(-1, 1, (3, 3)) + 1j * rng.uniform(-1, 1, (3, 3)) for _ in range(4)
    )
    return LorentzIndexedFamily(1, comps, variance)


def rank2_family(rng, variance=("upper", "upper")):
    comps = tuple(
        rng.uniform(-1, 1, (3, 3)) + 1j * rng.uniform(-1, 1, (3, 3)) for _ in range(16)
    )
    return LorentzIndexedFamily(2, comps, variance)


def test_contraction_zero_tensor():
    rng = np.random.default_rng(70)
    v = rank1_family(rng)
    t = LorentzIndexedFamily(2, tuple(np.zeros((3, 3), dtype=complex) for _ in range(16)), ("upper", "upper"))
    assert abs(lorentz_contracted_polydet(v, t)) < 1e-12


def test_contraction_metric_diagonal_case():
    rng = np.random.default_rng(71)
    a = rng.uniform(-1, 1, (3, 3)) + 1j * rng.uniform(-1, 1, (3, 3))
    b = rng.uniform(-1, 1, (3, 3)) + 1j * rng.uniform(-1, 1, (3, 3))
    zero = np.zeros((3, 3), dtype=complex)
    v = LorentzIndexedFamily(1, (a, zero, zero, zero), ("lower",))
    metric_diag = [1.0, -1.0, -1.0, -1.0]
    comps = tuple(
        metric_diag[mu] * b if mu == nu else zero for mu in range(4) for nu in range(4)
    )
    t = LorentzIndexedFamily(2, comps, ("upper", "upper"))
    contracted = lorentz_contracted_polydet(v, t)
    expected = polydet_subset_sum([a, a, b]).value
    assert abs(contracted - expected) < 1e-12


def test_contraction_boost_invariance():
    rng = np.random.default_rng(72)
    v = rank1_family(rng)
    t = rank2_family(rng)
    base = lorentz_contracted_polydet(v, t)
    for rapidity, axis in ((0.6, 1), (-1.1, 3)):
        lam = boost_matrix(rapidity, axis)
        moved = lorentz_contracted_polydet(transform_family(v, lam), transform_family(t, lam))
        assert abs(moved - base) <= 1e-9 * max(1.0, abs(base))


def test_contraction_converts_variance():
    rng = np.random.default_rng(73)
    v = rank1_family(rng, ("lower",))
    t = rank2_family(rng, ("upper", "upper"))
    base = lorentz_contracted_polydet(v, t)
    v_up = with_variance(v, ("upper",))
    t_down = with_variance(t, ("lower", "lower"))
    assert np.allclose(with_variance(v_up, ("lower",)).components[2], v.components[2])
    assert abs(lorentz_contracted_polydet(v_up, t_down) - base) < 1e-9 * max(1.0, abs(base))


def loop_transform(fam, lam):
    """Lorentz transformation written out index by index."""
    lowered = METRIC @ lam @ METRIC
    mats = [lam if v == "upper" else lowered for v in fam.variance]
    if fam.rank == 1:
        return [sum(mats[0][mu, al] * fam.components[al] for al in range(4)) for mu in range(4)]
    return [
        sum(mats[0][mu, al] * mats[1][nu, be] * fam.components[4 * al + be] for al in range(4) for be in range(4))
        for mu in range(4)
        for nu in range(4)
    ]


def loop_flip(fam, index):
    """One index raised or lowered, written out index by index."""
    c = fam.components
    if fam.rank == 1:
        return [sum(METRIC[mu, rho] * c[rho] for rho in range(4)) for mu in range(4)]
    if index == 0:
        return [sum(METRIC[mu, rho] * c[4 * rho + nu] for rho in range(4)) for mu in range(4) for nu in range(4)]
    return [sum(METRIC[nu, rho] * c[4 * mu + rho] for rho in range(4)) for mu in range(4) for nu in range(4)]


def flipped_variance(variance, index):
    """``variance`` with index ``index`` raised or lowered."""
    return tuple(("upper" if v == "lower" else "lower") if i == index else v for i, v in enumerate(variance))


def assert_components_close(got, want):
    got, want = np.array(got), np.array(want)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_transform_and_variance_flip_match_index_loops():
    rng = np.random.default_rng(76)
    for variance in (("lower",), ("upper",)):
        v = rank1_family(rng, variance)
        lam = boost_matrix(0.8, 2)
        assert_components_close(transform_family(v, lam).components, loop_transform(v, lam))
        assert_components_close(with_variance(v, flipped_variance(variance, 0)).components, loop_flip(v, 0))
    for variance in (("upper", "upper"), ("upper", "lower"), ("lower", "upper")):
        t = rank2_family(rng, variance)
        lam = boost_matrix(-1.3, 3) @ boost_matrix(0.4, 1)
        moved = transform_family(t, lam)
        assert moved.variance == variance
        assert_components_close(moved.components, loop_transform(t, lam))
        assert with_variance(t, variance) is t
        for index in (0, 1):
            flipped = with_variance(t, flipped_variance(variance, index))
            assert flipped.variance == flipped_variance(variance, index) != variance
            assert_components_close(flipped.components, loop_flip(t, index))


def test_contraction_rank_mismatch():
    rng = np.random.default_rng(74)
    with pytest.raises(ValueError):
        lorentz_contracted_polydet(rank2_family(rng), rank2_family(rng))


def test_family_validation():
    with pytest.raises(ValueError):
        LorentzIndexedFamily(1, tuple(np.zeros((3, 3)) for _ in range(3)), ("lower",))
    with pytest.raises(ValueError):
        LorentzIndexedFamily(1, tuple(np.zeros((3, 3)) for _ in range(4)), ("sideways",))


# --- vertex enumeration ---------------------------------------------------------


def monomial_degrees(monomial):
    return tuple(sorted(mult for _, mult, _ in monomial))


def test_vertices_pure_third_coupling_mixes_multiplets():
    c = Couplings(c1=0.0, c2=0.0, c3=1.0, c4=0.0, f0=0.0)
    vertices = enumerate_vertices(c)
    assert vertices
    for monomial, _ in vertices:
        assert len(monomial) == 3
        assert monomial_degrees(monomial) == (1, 1, 2)


def test_vertices_condensate_generates_mixing_and_tadpole():
    c = Couplings(c1=0.0, c2=0.0, c3=1.0, c4=0.0, f0=0.9)
    vertices = dict(enumerate_vertices(c))
    linear = [m for m in vertices if len(m) == 1]
    assert linear == [(("s", 2, 0),)]
    bilinears = [m for m in vertices if len(m) == 2]
    assert any(monomial_degrees(m) == (1, 2) for m in bilinears)


def test_vertices_tadpole_requires_both_knobs():
    for c3, f0 in ((0.0, 0.0), (1.0, 0.0), (0.0, 0.9), (1.0, 0.9)):
        c = Couplings(c1=0.0, c2=0.0, c3=c3, c4=0.0, f0=f0)
        vertices = dict(enumerate_vertices(c))
        present = (("s", 2, 0),) in vertices
        assert present == (c3 != 0.0 and f0 != 0.0)


def test_vertices_of_bundled_couplings_count():
    path = Path(__file__).resolve().parent.parent / "configs" / "couplings.json"
    couplings = couplings_from_json(json.loads(path.read_text()))
    assert len(enumerate_vertices(couplings)) == 987


def test_eps3_table_has_exact_zeros_and_no_noise():
    # the 3-flavor table splits into 646 exact zeros and 83 real entries; a
    # kernel that brings back rounding noise at the zeros fails here
    anomaly_module._eps3_table.cache_clear()
    table = anomaly_module._eps3_table()
    assert table.shape == (9, 9, 9)
    assert np.count_nonzero(table == 0) == 646
    assert np.count_nonzero(table) == 83
    assert np.min(np.abs(table[table != 0])) > 1e-3


def vertices_loop_reference(couplings, tol=1e-10):
    """The vertex expansion written out slot choice by slot choice and kind by kind."""
    eps3 = anomaly_module._eps3_table()
    inv_sqrt2 = 1.0 / math.sqrt(2.0)

    def sources(multiplet):
        out = []
        if multiplet == 1 and couplings.f0 != 0.0:
            out.append((complex(couplings.f0), 0, None))
        out.extend((complex(inv_sqrt2), a, (multiplet, a)) for a in range(9))
        return out

    structures = (
        (couplings.c1, (1, 1, 1)),
        (couplings.c2, (2, 2, 2)),
        (couplings.c3, (1, 1, 2)),
        (couplings.c4, (1, 2, 2)),
    )
    complex_monomials = {}
    for coupling, slots in structures:
        if coupling == 0:
            continue
        for choice in itertools.product(*[sources(k) for k in slots]):
            weight = coupling
            gens = []
            symbols = []
            for coef, gen, sym in choice:
                weight *= coef
                gens.append(gen)
                if sym is not None:
                    symbols.append(sym)
            value = eps3[gens[0], gens[1], gens[2]]
            if value == 0:
                continue
            key = tuple(sorted(symbols))
            complex_monomials[key] = complex_monomials.get(key, 0.0) + weight * value

    real_monomials = {}
    for symbols, z in complex_monomials.items():
        for kinds in itertools.product("sp", repeat=len(symbols)):
            coef = 2.0 * (z * (1j) ** kinds.count("p")).real
            if coef == 0.0:
                continue
            key = tuple(sorted((kd, k, a) for kd, (k, a) in zip(kinds, symbols)))
            real_monomials[key] = real_monomials.get(key, 0.0) + coef

    scale = max(
        [abs(c) for c in (couplings.c1, couplings.c2, couplings.c3, couplings.c4)]
        + [1e-300]
    ) * max(1.0, abs(couplings.f0)) ** 2
    out = [(mono, coef) for mono, coef in real_monomials.items() if abs(coef) > tol * scale]
    out.sort(key=lambda item: (len(item[0]), item[0]))
    return out


def vertex_coupling_sets():
    path = Path(__file__).resolve().parent.parent / "configs" / "couplings.json"
    bundled = couplings_from_json(json.loads(path.read_text()))
    c1, c2, c3, c4 = bundled.c1, bundled.c2, bundled.c3, bundled.c4
    sets = [
        bundled,
        Couplings(c1, c2, c3, c4, f0=0.0),
        Couplings(c1, c2, c3, c4, f0=1e5),
        Couplings(0.0, 0.0, 0.0, 0.0, f0=0.9),
        Couplings(0.0, 0.0, 1.0, 0.0, f0=0.9),
        Couplings(1.0, 0.0, 0.0, 0.0, f0=-2.5),
    ]
    rng = np.random.default_rng(2610)
    for _ in range(20):
        z = rng.normal(size=4) + 1j * rng.normal(size=4)
        sets.append(Couplings(*(complex(x) for x in z), f0=float(rng.uniform(-3.0, 3.0))))
    return sets


@pytest.mark.parametrize("tol", (1e-10, 0.0))
def test_vertices_equal_the_loop_reference(tol):
    # same monomials, same order, bitwise-equal coefficients
    for couplings in vertex_coupling_sets():
        assert enumerate_vertices(couplings, tol) == vertices_loop_reference(couplings, tol), couplings


def test_vertices_equal_the_loop_reference_from_a_cold_table():
    couplings = vertex_coupling_sets()[0]
    anomaly_module._eps3_table.cache_clear()
    vertices = enumerate_vertices(couplings)
    assert len(vertices) == 987
    assert vertices == vertices_loop_reference(couplings)


def test_vertices_empty_for_zero_couplings():
    c = Couplings(c1=0.0, c2=0.0, c3=0.0, c4=0.0, f0=0.9)
    assert enumerate_vertices(c) == []


def test_vertices_match_finite_differences():
    vertices = dict(enumerate_vertices(COUPLINGS))
    for a in (0, 3, 7):
        key = (("p", 1, a), ("p", 1, a))
        fd = second_derivative(COUPLINGS, "p1", a)
        assert abs(2 * vertices[key] - fd) <= 1e-3 * max(abs(fd), 1e-6)


def test_vertices_reproduce_lagrangian_value():
    cfg = random_config(75)
    values = {}
    for k, mult in enumerate(cfg.multiplets, start=1):
        for a in range(9):
            values[("s", k, a)] = mult.s[a]
            values[("p", k, a)] = mult.p[a]
    total = 0.0
    for monomial, coef in enumerate_vertices(COUPLINGS, tol=0.0):
        prod = coef
        for sym in monomial:
            prod *= values[sym]
        total += prod
    direct = lagrangian_value(cfg, COUPLINGS, shifted=True)
    assert abs(total - direct) <= 1e-9 * max(1.0, abs(direct))


# --- JSON interfaces ------------------------------------------------------------


def test_field_config_parsing():
    cfg = field_config_from_json(
        '{"n": 2, "multiplets": [{"s": [1, 0, 0, 0], "p": [0, 0, 0, 0]}, {"s": [0, 0, 0, 0], "p": [0, 1, 0, 0]}]}'
    )
    assert cfg.n == 2
    assert cfg.multiplets[0].s[0] == 1
    assert cfg.multiplets[1].p[1] == 1


def test_field_config_rejects_bad_lengths():
    with pytest.raises(ValueError):
        field_config_from_json({"n": 3, "multiplets": [{"s": [1, 2], "p": [3, 4]}]})


@pytest.mark.parametrize("n", (3.7, 3.0, "3", True, None, 1, 6, 3000))
def test_field_config_rejects_a_bad_n(n):
    # nothing is allocated from a declared n outside the generator range 2..5
    with pytest.raises(ValueError, match=f'^"n" must be an integer from 2 to 5, got {re.escape(repr(n))}$'):
        field_config_from_json({"n": n, "multiplets": [{}]})


@pytest.mark.parametrize("entry, kind", (([0.0] * 9, "list"), ("s", "str"), (None, "NoneType")))
def test_field_config_rejects_a_multiplet_that_is_not_an_object(entry, kind):
    with pytest.raises(ValueError, match=f"^multiplet 1 must be an object, got {kind}$"):
        field_config_from_json({"n": 3, "multiplets": [{}, entry]})


def test_field_config_rejects_multiplets_that_are_not_a_list():
    with pytest.raises(ValueError, match='^"multiplets" must be a list, got dict$'):
        field_config_from_json({"n": 3, "multiplets": {"s": [0.0] * 9}})


def test_field_config_defaults_omitted_components_to_zeros():
    cfg = field_config_from_json({"n": 2, "multiplets": [{}, {"p": [0, 1, 0, 0]}]})
    assert cfg.multiplets[0].s.tolist() == [0.0] * 4 and cfg.multiplets[0].p.tolist() == [0.0] * 4
    assert cfg.multiplets[1].p.tolist() == [0.0, 1.0, 0.0, 0.0]


def test_couplings_parsing():
    c = couplings_from_json('{"c1": [1, 2], "c2": 3, "c3": [0, -1], "c4": 0, "f0": 0.5}')
    assert c.c1 == 1 + 2j
    assert c.c2 == 3
    assert c.c3 == -1j
    assert c.f0 == 0.5


def test_couplings_rejects_missing_fields():
    with pytest.raises(ValueError):
        couplings_from_json({"c1": 1, "f0": 2})


@pytest.mark.parametrize("field, bad", [("c1", "inf"), ("c2", "-inf"), ("c3", "nan"), ("c4", "inf"), ("f0", "nan")])
def test_couplings_reject_non_finite_values(field, bad):
    obj = {"c1": [1, 2], "c2": 3, "c3": [0, -1], "c4": 0, "f0": 0.5}
    obj[field] = bad if field == "f0" else [1, bad]
    with pytest.raises(ValueError, match=f"^invalid couplings JSON: {field} must be finite"):
        couplings_from_json(obj)
