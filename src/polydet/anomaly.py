"""Flavor-symmetry application layer: generator bases, meson field matrices,
chiral/axial transformation checks, the anomalous two-multiplet Lagrangian,
its vertex expansion, and the Lorentz-contracted mixed discriminant.

Conventions: N_f x N_f Hermitian generators t^0..t^(N^2-1) normalized to
Tr(t^a t^b) = delta^{ab}/2 with t^0 = 1/sqrt(2 N_f); field matrices
A_k = (1/sqrt(2)) sum_a (s_k^a + i p_k^a) t^a; metric signature (+,-,-,-).
A basis is one read-only (N_f^2, N_f, N_f) stack, and every field matrix,
or stack of them, is assembled from it by ``assemble_field_matrix``.

The 3-flavor eps table is ``det_of_sum``'s compositions of 3 over the nine
generators (``engines._composition_values``).  The field-expansion fit (one
tuple per sample), the Lagrangian (one per term of ``_TERMS``) and the Lorentz
contraction (16) take their tuples from one ``polydet_many`` batch, validated
once.  An invariance ratio validates its tuple and both factors once and hands
its two-row batch to the default kernel.  Lorentz-indexed families are stacked
into one array and transformed or metric-converted by one ``einsum``.

The vertex expansion is array work over integer field codes: each
structure's slot choices are one gather from the 3-flavor eps table, equal
complex monomials are summed by ``bincount``, and each one's 2^d real
monomials are formed, merged and ordered by a stable sort of 16-bit keys.
Python builds only the output tuples.
"""

from __future__ import annotations

import cmath
import itertools
import json
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .engines import DEFAULT_ENGINE, _composition_values, _kernel, polydet_many
from .engines import polydet  # noqa: F401  kept bound here for perfbench's traced run
# ``det`` is the trusted stack kernel: the stacks it gets are assembled or validated here
from .matrices import _float_array, as_matrix, det_stack as det, identity, validate_matrix_tuple

__all__ = [
    "GeneratorBasis",
    "Multiplet",
    "FieldConfiguration",
    "Couplings",
    "LorentzIndexedFamily",
    "build_generators",
    "assemble_field_matrix",
    "project_field_matrix",
    "chiral_transform",
    "axial_phase_law",
    "check_invariance",
    "InvarianceReport",
    "IndeterminateRatioError",
    "lagrangian_value",
    "evaluate_field_polynomial",
    "verify_field_expansion",
    "FieldExpansionReport",
    "lorentz_contracted_polydet",
    "boost_matrix",
    "transform_family",
    "enumerate_vertices",
    "field_config_from_json",
    "couplings_from_json",
]

UNITARY_TOL = 1e-8

#: Minkowski metric, signature (+,-,-,-)
METRIC = np.diag([1.0, -1.0, -1.0, -1.0])


@dataclass(frozen=True, eq=False)
class GeneratorBasis:
    n: int
    generators: np.ndarray  # read-only (n^2, n, n) stack, t^0 first, then the traceless ones

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GeneratorBasis):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.generators, other.generators)


class Multiplet(NamedTuple):
    s: np.ndarray  # scalar components, length n^2
    p: np.ndarray  # pseudoscalar components, length n^2


@dataclass(frozen=True)
class FieldConfiguration:
    n: int
    multiplets: tuple[Multiplet, ...]


@dataclass(frozen=True)
class Couplings:
    c1: complex
    c2: complex
    c3: complex
    c4: complex
    f0: float


#: The anomalous terms, L = 2 Re sum_t c_t eps(A_t): each coupling of
#: ``Couplings`` with the multiplets of its eps.  det A is eps(A, A, A).
_TERMS = (("c1", (1, 1, 1)), ("c2", (2, 2, 2)), ("c3", (1, 1, 2)), ("c4", (1, 2, 2)))


def build_generators(n: int) -> GeneratorBasis:
    """Generalized Gell-Mann basis for 2 <= n <= 5, as one read-only stack.

    Built per block k = 2..n: the symmetric and antisymmetric pair matrices
    (j, k) for j < k, then the k-th diagonal generator; this reproduces the
    conventional n=3 ordering (so index 3 and 8 are the diagonal ones).
    All are halved to satisfy Tr(t^a t^b) = delta^{ab}/2, and
    t^0 = 1/sqrt(2n) leads.
    """
    if not 2 <= n <= 5:
        raise ValueError(f"generator basis supported for 2 <= n <= 5, got {n}")
    ts = np.zeros((n * n, n, n), dtype=np.complex128)
    ts[0] = identity(n) / math.sqrt(2 * n)
    a = 1
    for k in range(2, n + 1):
        for j in range(k - 1):
            ts[a, j, k - 1] = ts[a, k - 1, j] = 0.5
            ts[a + 1, j, k - 1], ts[a + 1, k - 1, j] = -0.5j, 0.5j
            a += 2
        ts[a, range(k), range(k)] = [1.0] * (k - 1) + [-(k - 1)]
        ts[a] *= 1.0 / math.sqrt(2.0 * k * (k - 1))
        a += 1
    ts.flags.writeable = False
    return GeneratorBasis(n, ts)


_BASIS3 = build_generators(3)


def assemble_field_matrix(basis: GeneratorBasis, s, p) -> np.ndarray:
    """A = (1/sqrt(2)) sum_a (s^a + i p^a) t^a, as one ``tensordot``; the n^2
    components run along the last axis, so leading axes give a stack of A."""
    n2 = basis.n * basis.n
    s = np.asarray(s, dtype=float)
    p = np.asarray(p, dtype=float)
    if s.shape != p.shape or s.shape[-1:] != (n2,):
        raise ValueError(f"s and p need one shape ending in {n2}, got {s.shape} and {p.shape}")
    return np.tensordot(s + 1j * p, basis.generators, axes=1) / math.sqrt(2.0)


def project_field_matrix(basis: GeneratorBasis, m) -> tuple[np.ndarray, np.ndarray]:
    """Recover (s, p) from a field matrix via Tr(t^a t^b) = delta^{ab}/2, all in one contraction."""
    coeffs = 2.0 * math.sqrt(2.0) * np.einsum("ij,aji->a", as_matrix(m), basis.generators)
    return coeffs.real.copy(), coeffs.imag.copy()


@lru_cache(maxsize=8)
def _eye(n: int) -> np.ndarray:
    """The real n x n identity, cached and read-only."""
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


def _unitaries(u_left, u_right, n: int) -> np.ndarray:
    """Both chiral factors as one (2, n, n) stack, ``[u_left, u_right]``.

    Each factor must be a finite n x n matrix; both are checked unitary by
    one stacked product.  An error names the factor, u_left first.
    """
    names = ("u_left", "u_right")
    checked = []
    for name, u in zip(names, (u_left, u_right)):
        u = as_matrix(u, name=name)
        if u.shape != (n, n):
            raise ValueError(f"{name} must be {n} x {n} to act on {n} x {n} matrices, got shape {u.shape}")
        checked.append(u)
    factors = np.array(checked)
    gram = factors @ factors.conj().transpose(0, 2, 1)
    gram -= _eye(n)
    devs = np.abs(gram).max(axis=(1, 2))
    for name, dev in zip(names, devs.tolist()):
        if dev > UNITARY_TOL:
            raise ValueError(f"{name} is not unitary (max deviation {dev:.3e})")
    return factors


def chiral_transform(a, u_left, u_right) -> np.ndarray:
    """A -> U_L A U_R^dagger with unitarity enforced on both factors."""
    a = as_matrix(a)
    u_left, u_right = _unitaries(u_left, u_right, a.shape[0])
    return u_left @ a @ u_right.conj().T


def axial_phase_law(n: int, theta_a: float, matrix_count: int) -> complex:
    """Predicted multiplicative factor of a degree-`matrix_count` term when
    every argument picks up the singlet axial phase exp(-i theta sqrt(2/n))."""
    if n < 2:
        raise ValueError(f"flavor count must be >= 2, got {n}")
    return cmath.exp(-1j * theta_a * math.sqrt(2.0 / n) * matrix_count)


class InvarianceReport(NamedTuple):
    ratio: complex
    su_invariant: bool


class IndeterminateRatioError(ValueError):
    """Raised when an invariance ratio's base value is too small, for the
    scale of its arguments, for the ratio to mean anything."""


def check_invariance(mats: Sequence, u_left, u_right) -> InvarianceReport:
    """Ratio of the mixed discriminant after/before A_k -> U_L A_k U_R^dagger.

    For special-unitary factors the ratio must be 1; in general it equals
    det(U_L) * conj(det(U_R)).  Raises IndeterminateRatioError when
    |base| <= 1e-12 * m^N, with m the largest entry modulus of the N
    arguments: the value is N-linear, so the floor scales with the tuple
    and an all-zero tuple always raises.  The tuple and both factors are
    validated once and both factors checked unitary by one stacked
    product; the whole tuple is transformed by one broadcast product, both
    values come from one two-row batch handed straight to the default
    kernel, and both factor determinants, taken only when the ratio is
    within 1e-9 of 1, from one ``det`` of the factors.
    """
    n, stack = validate_matrix_tuple(mats)
    factors = _unitaries(u_left, u_right, n)
    u_left, u_right = factors
    batch = np.array([stack, u_left @ stack @ u_right.conj().T])
    base, moved = _kernel(DEFAULT_ENGINE, n)(batch).tolist()
    if abs(base) <= 1e-12 * float(np.abs(stack).max()) ** n:
        raise IndeterminateRatioError(f"indeterminate ratio: |base value| = {abs(base):.3e}")
    ratio = moved / base
    if not abs(ratio - 1) < 1e-9:  # not invariant, whatever the factors' determinants
        return InvarianceReport(ratio, False)
    det_left, det_right = det(factors).tolist()
    return InvarianceReport(ratio, abs(det_left - 1) < 1e-9 and abs(det_right - 1) < 1e-9)


def lagrangian_value(cfg: FieldConfiguration, couplings: Couplings, shifted: bool = False) -> float:
    """Value of the anomalous two-multiplet interaction Lagrangian.

    L = 2 Re sum_t c_t eps(A_t) over the terms of ``_TERMS``, with A1 shifted
    by the vacuum value f0 t^0 when requested.  Both multiplets are assembled
    by one call, and the terms' eps values come from one ``polydet_many`` batch.
    """
    if cfg.n != 3:
        raise ValueError(f"the Lagrangian layer is fixed at 3 flavors, got n={cfg.n}")
    if len(cfg.multiplets) != 2:
        raise ValueError(f"need exactly 2 multiplets, got {len(cfg.multiplets)}")
    a = assemble_field_matrix(_BASIS3, *np.transpose(cfg.multiplets, (1, 0, 2)))
    if shifted:
        a[0] = couplings.f0 * _BASIS3.generators[0] + a[0]
    eps = polydet_many(a[[[k - 1 for k in slots] for _, slots in _TERMS]]).tolist()
    return 2.0 * sum(getattr(couplings, name) * e for (name, _), e in zip(_TERMS, eps)).real


# --- cubic field expansion of eps(A1, A1, A2) at 3 flavors ----------------
#
# Hard-coded monomial list: ((a, b, c), coefficient) stands for
# coefficient * phi1^a * phi1^b * phi2^c with phi_k^a = s_k^a + i p_k^a.
# The list is exactly proportional to the engine value, with the singlet
# monomial pinned to 4*sqrt(2/3) (phi1^0)^2 phi2^0; the proportionality
# constant recovered by the fit is 96*sqrt(2).

_S23 = math.sqrt(2.0 / 3.0)
_S3 = math.sqrt(3.0)
_S6 = math.sqrt(6.0)

FIELD_EXPANSION_TERMS: tuple[tuple[tuple[int, int, int], float], ...] = tuple(
    [((0, 0, 0), 4.0 * _S23)]
    + [((0, a, a), -4.0 * _S23) for a in range(1, 9)]
    + [((a, a, 0), -4.0 / _S6) for a in range(1, 9)]
    + [((a, a, 8), 4.0 / _S3) for a in (1, 2, 3)]
    + [((a, a, 8), -2.0 / _S3) for a in (4, 5, 6, 7)]
    + [((8, 8, 8), -4.0 / _S3)]
    + [((a, a, 3), 2.0) for a in (4, 5)]
    + [((a, a, 3), -2.0) for a in (6, 7)]
    + [((a, 8, a), 8.0 / _S3) for a in (1, 2, 3)]
    + [((a, 8, a), -4.0 / _S3) for a in (4, 5, 6, 7)]
    + [
        ((1, 4, 6), 4.0),
        ((1, 5, 7), 4.0),
        ((1, 6, 4), 4.0),
        ((1, 7, 5), 4.0),
        ((2, 4, 7), -4.0),
        ((2, 5, 6), 4.0),
        ((2, 6, 5), 4.0),
        ((2, 7, 4), -4.0),
        ((3, 4, 4), 4.0),
        ((3, 5, 5), 4.0),
        ((3, 6, 6), -4.0),
        ((3, 7, 7), -4.0),
        ((4, 6, 1), 4.0),
        ((4, 7, 2), -4.0),
        ((5, 6, 2), 4.0),
        ((5, 7, 1), 4.0),
    ]
)


#: FIELD_EXPANSION_TERMS as index arrays: the slots (a, b, c) of every term, and its coefficient
_TERM_SLOTS = np.array([slots for slots, _ in FIELD_EXPANSION_TERMS]).T
_TERM_COEFS = np.array([coef for _, coef in FIELD_EXPANSION_TERMS])


def _field_polynomial(phi1: np.ndarray, phi2: np.ndarray) -> np.ndarray:
    """The cubic polynomial over the last axis of (..., 9) component arrays."""
    a, b, c = _TERM_SLOTS
    return (_TERM_COEFS * phi1[..., a] * phi1[..., b] * phi2[..., c]).sum(axis=-1)


def evaluate_field_polynomial(phi1: Sequence[complex], phi2: Sequence[complex]) -> complex:
    """The hard-coded cubic polynomial in the complex fields phi_k^a."""
    phi1 = np.asarray(phi1, dtype=np.complex128)
    phi2 = np.asarray(phi2, dtype=np.complex128)
    if phi1.shape != (9,) or phi2.shape != (9,):
        raise ValueError("need 9 complex components per multiplet")
    return complex(_field_polynomial(phi1, phi2))


class FieldExpansionReport(NamedTuple):
    kappa: complex
    max_residual: float
    samples: int


def verify_field_expansion(seed: int, samples: int = 200) -> FieldExpansionReport:
    """Fit P = kappa * eps(A1, A1, A2) over random field configurations.

    P is the hard-coded cubic polynomial; eps is the engine value on the
    assembled matrices.  Returns the least-squares kappa and the largest
    |P - kappa*eps| relative to max|P|.  Each sample draws s1, p1, s2, p2
    in that order; all samples are assembled by one stacked
    ``assemble_field_matrix`` and their eps(A1, A1, A2) come from one batch.
    """
    if samples < 2:
        raise ValueError("need at least 2 samples")
    comps = np.random.default_rng(seed).uniform(-1.0, 1.0, (samples, 4, 9))
    fields = assemble_field_matrix(_BASIS3, comps[:, 0::2], comps[:, 1::2])  # (samples, multiplet, 3, 3)
    phi = comps[:, 0::2] + 1j * comps[:, 1::2]
    # 64 samples at a time keep the polynomial's (samples, terms) temporaries at
    # 53 KB; all 200 at once made 166 KB ones, which raised the peak RSS
    p_arr = np.concatenate([_field_polynomial(f[:, 0], f[:, 1]) for f in np.split(phi, range(64, samples, 64))])
    e_arr = polydet_many(fields[:, [0, 0, 1]])
    denom = float(np.sum(np.abs(e_arr) ** 2))
    scale = float(np.max(np.abs(p_arr)))
    if denom < 1e-24 or scale == 0.0:
        raise ValueError("degenerate sample set")
    kappa = complex(np.sum(np.conj(e_arr) * p_arr) / denom)
    max_residual = float(np.max(np.abs(p_arr - kappa * e_arr)) / scale)
    return FieldExpansionReport(kappa, max_residual, samples)


# --- Lorentz-indexed families ----------------------------------------------


@dataclass(frozen=True)
class LorentzIndexedFamily:
    rank: int
    components: tuple[np.ndarray, ...]  # 4 (rank 1) or 16, mu-major (rank 2)
    variance: tuple[str, ...]  # "upper" or "lower" per index

    def __post_init__(self):
        if self.rank not in (1, 2):
            raise ValueError(f"rank must be 1 or 2, got {self.rank}")
        if len(self.components) != 4**self.rank:
            raise ValueError(
                f"rank {self.rank} needs {4 ** self.rank} components, got {len(self.components)}"
            )
        if len(self.variance) != self.rank or any(v not in ("upper", "lower") for v in self.variance):
            raise ValueError(f"invalid variance declaration {self.variance}")


def _stacked(fam: LorentzIndexedFamily) -> np.ndarray:
    """The components as one array with a length-4 axis per Lorentz index."""
    comps = np.array(fam.components)
    return comps.reshape((4,) * fam.rank + comps.shape[1:])


def _family(rank: int, comps: np.ndarray, variance: Sequence[str]) -> LorentzIndexedFamily:
    return LorentzIndexedFamily(rank, tuple(comps.reshape((4**rank,) + comps.shape[rank:])), tuple(variance))


def _on_indices(
    fam: LorentzIndexedFamily, mats: Sequence[np.ndarray], variance: Sequence[str]
) -> LorentzIndexedFamily:
    """Apply the 4 x 4 matrix mats[i] to index i by one einsum; declare the result ``variance``."""
    subscripts = "ma,a...->m..." if fam.rank == 1 else "ma,nb,ab...->mn..."
    return _family(fam.rank, np.einsum(subscripts, *mats, _stacked(fam)), variance)


def with_variance(fam: LorentzIndexedFamily, variance: Sequence[str]) -> LorentzIndexedFamily:
    """Metric-convert a family to the requested index positions."""
    variance = tuple(variance)
    if len(variance) != fam.rank:
        raise ValueError(f"variance {variance} does not match rank {fam.rank}")
    if variance == fam.variance:
        return fam
    # the (+,-,-,-) metric is its own inverse, so it both raises and lowers
    flips = [METRIC if have != want else np.eye(4) for have, want in zip(fam.variance, variance)]
    return _on_indices(fam, flips, variance)


def lorentz_contracted_polydet(vector: LorentzIndexedFamily, tensor: LorentzIndexedFamily) -> complex:
    """sum_{mu,nu} eps(V_mu, V_nu, T^{mu nu}) for 3x3 matrix components.

    Expects the vector family with a lower index and the tensor family with
    two upper indices; families declared otherwise are metric-converted
    before the plain double sum.
    """
    if vector.rank != 1 or tensor.rank != 2:
        raise ValueError(f"need a rank-1 and a rank-2 family, got {vector.rank} and {tensor.rank}")
    if vector.components[0].shape != (3, 3):
        raise ValueError("components must be 3x3 matrices")
    v = _stacked(with_variance(vector, ("lower",)))
    t = _stacked(with_variance(tensor, ("upper", "upper")))
    mu, nu = np.divmod(np.arange(16), 4)
    return complex(polydet_many(np.stack([v[mu], v[nu], t[mu, nu]], axis=1)).sum())


def boost_matrix(rapidity: float, axis: int = 1) -> np.ndarray:
    """Pure boost along a spatial axis, acting on upper indices."""
    if axis not in (1, 2, 3):
        raise ValueError(f"axis must be 1, 2 or 3, got {axis}")
    lam = np.eye(4)
    ch, sh = math.cosh(rapidity), math.sinh(rapidity)
    lam[0, 0] = lam[axis, axis] = ch
    lam[0, axis] = lam[axis, 0] = -sh
    return lam


def transform_family(fam: LorentzIndexedFamily, lam: np.ndarray) -> LorentzIndexedFamily:
    """Apply a Lorentz transformation; lower indices use g Lam g."""
    lam = np.asarray(lam, dtype=float)
    lowered = METRIC @ lam @ METRIC
    return _on_indices(fam, [lam if v == "upper" else lowered for v in fam.variance], fam.variance)


# --- vertex enumeration -----------------------------------------------------


@lru_cache(maxsize=1)
def _eps3_table() -> np.ndarray:
    """eps(t^a, t^b, t^c) over the 3-flavor basis, all 9^3 combinations."""
    # eps is symmetric, so the compositions' 165 repeated tuples a <= b <= c give the table
    abc, _, values = _composition_values(_BASIS3.generators)
    table = np.zeros((9, 9, 9), dtype=np.complex128)
    for order in itertools.permutations(range(3)):
        table[tuple(abc[:, order].T)] = values
    return table


FieldSymbol = tuple[str, int, int]  # (kind "s"|"p", multiplet 1|2, generator index)

# Field codes of the vertex expansion.  Code 0 is no field: the vacuum source
# f0 t^0, or an empty slot of a monomial of degree below 3.  The complex field
# phi_k^a has the code 1 + 9 (k - 1) + a.  The real field of kind "p" has its
# complex field's code and that of kind "s" the code plus 18, so real codes sort
# as the symbol tuples do.  A monomial is keyed by its three codes sorted
# ascending; its empty slots lead, so keys in base 37 sort by (degree, monomial).
#: the real-field symbol of each code
_SYMBOLS: tuple[Optional[FieldSymbol], ...] = (None,) + tuple(
    (kind, k, a) for kind in "ps" for k in (1, 2) for a in range(9)
)
#: the s/p kinds of three fields in product("sp") order, 1 for "p"
_KINDS = np.array(list(itertools.product((0, 1), repeat=3)))


def _sorted3(x: np.ndarray, y: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sort three integer arrays elementwise by a three-comparator network."""
    x, y = np.minimum(x, y), np.maximum(x, y)
    y, z = np.minimum(y, z), np.maximum(y, z)
    return np.minimum(x, y), np.maximum(x, y), z


def _complex_monomials(couplings: Couplings) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(key, Re z, Im z) of every complex monomial z of the terms of ``_TERMS``.

    A key is the monomial's sorted field codes in base 19.  Each term's
    slot choices are taken at once: one gather from the eps table, and the
    non-zero ones weighted as coupling * c_0 * c_1 * c_2 * eps in that order.
    One ``bincount`` per part sums each monomial in choice order, which is
    the order of a loop over ``itertools.product``.
    """
    eps3 = _eps3_table()
    gens = np.arange(9)
    coefs = np.full(9, complex(1.0 / math.sqrt(2.0)))
    # each multiplet's slot sources as (coefficients, generator indices, field codes)
    sources = {k: (coefs, gens, 1 + 9 * (k - 1) + gens) for k in (1, 2)}
    if couplings.f0 != 0.0:  # the vacuum source f0 t^0 leads multiplet 1's, with code 0
        vacuum = (complex(couplings.f0), 0, 0)
        sources[1] = tuple(np.concatenate([[first], part]) for first, part in zip(vacuum, sources[1]))
    # the empty first entries make all-zero couplings an empty expansion
    keys, weights = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.complex128)]
    for name, slots in _TERMS:
        coupling = getattr(couplings, name)
        if coupling == 0:
            continue
        (c0, g0, code0), (c1, g1, code1), (c2, g2, code2) = (sources[k] for k in slots)
        # the (slot 0, slot 1, slot 2) grid raveled is itertools.product order
        eps = eps3[np.ix_(g0, g1, g2)].ravel()
        nz = np.flatnonzero(eps)
        weights.append((((coupling * c0[:, None, None]) * c1[:, None]) * c2).ravel()[nz] * eps[nz])
        a, b, c = _sorted3(*(x.ravel()[nz] for x in np.broadcast_arrays(*np.ix_(code0, code1, code2))))
        keys.append((a * 19 + b) * 19 + c)
    keys, weights = np.concatenate(keys), np.concatenate(weights)
    re, im = (np.bincount(keys, part, minlength=19**3) for part in (weights.real, weights.imag))
    monos = np.flatnonzero((re != 0) | (im != 0))
    return monos, re[monos], im[monos]


def _real_monomials(monos: np.ndarray, re: np.ndarray, im: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(key, coefficient) of every non-zero real monomial, in key order.

    A complex monomial z of degree d gives 2^d real ones in product("sp")
    order, each with 2 Re(z i^m) for m fields of kind "p".  Those equal after
    sorting (from a repeated field) are summed in that order.
    """
    fields = np.stack([monos // 19**2, monos // 19 % 19, monos % 19], axis=1)
    # 2 Re(z i^m) for m = 0..3 is exactly 2 Re z, -2 Im z, -2 Re z, 2 Im z
    coefs = (2.0 * np.stack([re, -im, -re, im]))[_KINDS.sum(axis=1)].T
    # the 3 - d empty slots lead, so the first 2^d of the 8 kinds, those with
    # "s" in every empty slot, are the monomial's own in product("sp") order
    own = np.arange(8) < 2 ** np.count_nonzero(fields, axis=1)[:, None]
    keep = own & (coefs != 0.0)
    real = np.where(fields[:, None, :] > 0, fields[:, None, :] + 18 * (1 - _KINDS), 0)[keep]
    a, b, c = _sorted3(*real.T.astype(np.uint16))
    keys = (a * 37 + b) * 37 + c
    # stable, so equal keys keep kinds order; on 16-bit keys numpy takes a radix sort
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return keys[first], np.bincount(np.cumsum(first) - 1, coefs[keep][order])


def enumerate_vertices(couplings: Couplings, tol: float = 1e-10) -> list[tuple[tuple[FieldSymbol, ...], float]]:
    """Exact expansion of the shifted Lagrangian into real-field monomials.

    Expands each term of ``_TERMS`` multilinearly over the generator basis
    with A1 = f0 t^0 + fields, applies the +h.c. (twice the real part), and
    merges; returns [(monomial, coefficient), ...] sorted by
    degree then monomial, keeping coefficients with |c| > tol * scale.  Both
    stages are array operations; Python builds only the output tuples.
    """
    keys, coef = _real_monomials(*_complex_monomials(couplings))
    scale = max([abs(getattr(couplings, name)) for name, _ in _TERMS] + [1e-300])
    scale *= max(1.0, abs(couplings.f0)) ** 2
    kept = np.abs(coef) > tol * scale
    digits = np.stack([keys // 37**2, keys // 37 % 37, keys % 37])[:, kept]
    empty = np.count_nonzero(digits == 0, axis=0)
    sym = _SYMBOLS
    return [
        ((sym[a], sym[b], sym[c])[e:], value)
        for e, a, b, c, value in zip(empty.tolist(), *digits.tolist(), coef[kept].tolist())
    ]


# --- JSON interfaces ---------------------------------------------------------


def field_config_from_json(obj) -> FieldConfiguration:
    """Parse {"n": 3, "multiplets": [{"s": [...], "p": [...]}, ...]}.

    "n" is an integer from 2 to 5, the range of the generator bases; each
    multiplet is an object of "s" and "p" only, and an omitted one is zeros.
    """
    if isinstance(obj, (str, bytes)):
        obj = json.loads(obj)
    if not isinstance(obj, dict) or "n" not in obj or "multiplets" not in obj:
        raise ValueError('field configuration JSON needs "n" and "multiplets"')
    n = obj["n"]
    if not isinstance(n, int) or isinstance(n, bool) or not 2 <= n <= 5:
        raise ValueError(f'"n" must be an integer from 2 to 5, got {n!r}')
    if not isinstance(obj["multiplets"], list):
        raise ValueError(f'"multiplets" must be a list, got {type(obj["multiplets"]).__name__}')
    multiplets = []
    for i, entry in enumerate(obj["multiplets"]):
        if not isinstance(entry, dict):
            raise ValueError(f"multiplet {i} must be an object, got {type(entry).__name__}")
        if unknown := [key for key in entry if key not in ("s", "p")]:
            raise ValueError(f'multiplet {i} has unknown key {unknown[0]!r}; expected "s" or "p"')
        s = _float_array(entry.get("s", [0.0] * n * n), f'multiplet {i} "s"')
        p = _float_array(entry.get("p", [0.0] * n * n), f'multiplet {i} "p"')
        if s.shape != (n * n,) or p.shape != (n * n,):
            raise ValueError(f"multiplet {i} components must have length {n * n}")
        if not (np.all(np.isfinite(s)) and np.all(np.isfinite(p))):
            raise ValueError(f"multiplet {i} contains non-finite components")
        multiplets.append(Multiplet(s, p))
    return FieldConfiguration(n, tuple(multiplets))


def _as_complex(value) -> complex:
    if isinstance(value, (list, tuple)):
        re, im = value
        return complex(float(re), float(im))
    return complex(float(value), 0.0)


def couplings_from_json(obj) -> Couplings:
    """Parse {"c1": [re, im], ..., "f0": x}; bare numbers mean real couplings.

    Each coupling of ``_TERMS`` is a number, a numeric string or a [re, im]
    pair of them, f0 a number or a numeric string, and every value must be
    finite.  An error names the field at fault and the shape it expects.
    """
    if isinstance(obj, (str, bytes)):
        obj = json.loads(obj)
    pair = "a number, a numeric string or a [re, im] pair"
    fields = {name: (_as_complex, pair) for name, _ in _TERMS} | {"f0": (float, "a number or a numeric string")}
    if not isinstance(obj, dict):
        names = ", ".join(fields)
        raise ValueError(f"invalid couplings JSON: expected an object of {names}, got {type(obj).__name__}")
    values = {}
    for name, (parse, shape) in fields.items():
        if name not in obj:
            raise ValueError(f"invalid couplings JSON: {name} is missing; expected {shape}")
        try:
            values[name] = parse(obj[name])
        except OverflowError:  # a JSON integer beyond the float range
            values[name] = math.inf
        except (TypeError, ValueError):
            raise ValueError(f"invalid couplings JSON: {name} must be {shape}, got {obj[name]!r}") from None
        if not cmath.isfinite(values[name]):
            raise ValueError(f"invalid couplings JSON: {name} must be finite, got {values[name]}")
    return Couplings(**values)
