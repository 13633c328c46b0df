"""Exact trace-monomial expansions of the mixed discriminant.

Words are tuples of matrix labels read cyclically, so Tr(ABC) and Tr(BCA)
are the same word; the canonical spelling is the lexicographically minimal
rotation.  Tr(ABC) and Tr(ACB) stay distinct.  Coefficients are exact
rationals; floats only appear in :func:`evaluate`, which compiles an
expansion's terms once into the trace-sum plan the trace-formula engine
also uses, keeps it on the expansion, and evaluates each binding in stacked
products.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from .combinatorics import (
    GuardLimitError,
    canonicalize,
    compositions,
    cycle_covers,
    multinomial,
)
from .matrices import as_matrix, trace_sum_plan

__all__ = [
    "TraceMonomial",
    "TraceExpansion",
    "canonicalize",
    "expand_polydet",
    "evaluate",
    "expand_det_of_sum",
    "render",
    "parse_expansion",
]

EXPAND_MAX_N = 6

Word = tuple[str, ...]


class TraceMonomial(NamedTuple):
    coefficient: Fraction
    words: tuple[Word, ...]  # canonical words, sorted


@dataclass(frozen=True)
class TraceExpansion:
    n: int
    terms: tuple[TraceMonomial, ...]

    @cached_property
    def _plan(self) -> tuple[tuple[str, ...], Callable[[np.ndarray], complex]]:
        """The labels in order of first appearance, and the trace-sum plan of
        the terms over the stack of their matrices in that order."""
        slots: dict[str, int] = {}
        words = dict.fromkeys(w for t in self.terms for w in t.words)
        spelled = {w: tuple(slots.setdefault(label, len(slots)) for label in w) for w in words}
        plan = trace_sum_plan((float(t.coefficient), [spelled[w] for w in t.words]) for t in self.terms)
        return tuple(slots), plan

    def __getstate__(self) -> dict:
        """Pickle the fields alone: the plan is a cache, rebuilt on demand."""
        return {name: value for name, value in self.__dict__.items() if name != "_plan"}


def _monomial_key(words: tuple[Word, ...], n: int) -> tuple:
    """Deterministic term order: partition class first, then words."""
    counts = [0] * n
    for w in words:
        counts[len(w) - 1] += 1
    return (-len(words), tuple(-c for c in counts), words)


def _sorted_words(words: Sequence[Word]) -> tuple[Word, ...]:
    return tuple(sorted(words, key=lambda w: (len(w), w)))


def _merged(n: int, acc: Mapping[tuple[Word, ...], Fraction]) -> TraceExpansion:
    """The non-zero terms of a words -> coefficient map, in term order."""
    terms = tuple(
        TraceMonomial(coef, words)
        for words, coef in sorted(acc.items(), key=lambda kv: _monomial_key(kv[0], n))
        if coef != 0
    )
    return TraceExpansion(n, terms)


def expand_polydet(n: int, labels: Sequence[str]) -> TraceExpansion:
    """Exact trace expansion of the mixed discriminant of n labelled slots.

    The cycle form of the determinant, polarized:
    n! eps(A_1, ..., A_n) = sum_sigma sgn(sigma) prod_{cycles (i_1 ... i_L) of sigma}
    Tr(A_{i_1} ... A_{i_L}).  Each permutation's cycles are spelled in the
    slots' labels, canonicalized, and its monomial gains sgn(sigma); each
    monomial's signed count becomes one coefficient count / n!.
    """
    if not 2 <= n <= EXPAND_MAX_N:
        raise GuardLimitError(f"expansion guarded at 2 <= n <= {EXPAND_MAX_N}, got n={n}")
    labels = tuple(str(ell) for ell in labels)
    if len(labels) != n:
        raise ValueError(f"need exactly {n} labels, got {len(labels)}")

    counts: dict[tuple[Word, ...], int] = {}
    for sign, cycles in cycle_covers(n):
        words = _sorted_words([canonicalize(tuple(labels[i] for i in c)) for c in cycles])
        counts[words] = counts.get(words, 0) + sign
    fact = math.factorial(n)
    return _merged(n, {words: Fraction(count, fact) for words, count in counts.items()})


def evaluate(expansion: TraceExpansion, binding: Mapping[str, np.ndarray]) -> complex:
    """Numeric value of an expansion under a label -> matrix binding.

    The expansion's trace-sum plan is compiled on its first evaluation and
    kept on it; labels it does not use are ignored.
    """
    labels, plan = expansion._plan
    mats = []
    for label in labels:
        if label not in binding:
            raise KeyError(f"unbound label {label!r}")
        m = as_matrix(binding[label], name=f"binding[{label}]")
        if m.shape[0] != expansion.n:
            raise ValueError(f"binding[{label}] has dimension {m.shape[0]}, expected {expansion.n}")
        mats.append(m)
    return plan(np.array(mats, dtype=np.complex128).reshape(-1, expansion.n, expansion.n))


def expand_det_of_sum(n: int, r: int) -> list[tuple[tuple[int, ...], int]]:
    """Multiplicity listing of det(A_1 + ... + A_r) in mixed-discriminant terms.

    Returns [(composition (k_1..k_r), multinomial weight), ...] over all
    compositions of n, lexicographically descending.
    """
    if not 1 <= n <= EXPAND_MAX_N:
        raise GuardLimitError(f"guarded at 1 <= n <= {EXPAND_MAX_N}, got n={n}")
    if not 1 <= r <= n:
        raise GuardLimitError(f"need 1 <= r <= n, got r={r}")
    return [(comp, multinomial(n, comp)) for comp in compositions(n, r)]


#: per signed-sum format: the opening of a trace, the joiner of a word's
#: letters, the joiner of a term's traces, and the spelling of a
#: coefficient magnitude other than 1
_SPELLERS = {
    "text": ("Tr(", "*", "*", lambda mag: str(mag) + "*"),
    "latex": ("\\mathrm{Tr}(", "", "", lambda mag: f"\\frac{{{mag.numerator}}}{{{mag.denominator}}}"),
}


def _render_signed(expansion: TraceExpansion, format: str) -> str:
    """The terms as one signed sum: "-" before a negative first term, " + "
    or " - " before each later one, and "0" for no terms."""
    opening, letters, joiner, spell_magnitude = _SPELLERS[format]
    parts = []
    for i, term in enumerate(expansion.terms):
        coef = term.coefficient
        mag = abs(coef)
        body = joiner.join(opening + letters.join(word) + ")" for word in term.words)
        if mag != 1:
            body = spell_magnitude(mag) + body
        if i == 0:
            parts.append(body if coef > 0 else f"-{body}")
        else:
            parts.append(f" + {body}" if coef > 0 else f" - {body}")
    return "".join(parts) if parts else "0"


def _render_json(expansion: TraceExpansion) -> str:
    payload = {
        "n": expansion.n,
        "terms": [
            {
                "coef": [str(t.coefficient.numerator), str(t.coefficient.denominator)],
                "words": [list(w) for w in t.words],
            }
            for t in expansion.terms
        ],
    }
    return json.dumps(payload, sort_keys=True)


def render(expansion: TraceExpansion, format: str = "text") -> str:
    """Deterministic serialization; the json form round-trips losslessly."""
    if format in _SPELLERS:
        return _render_signed(expansion, format)
    if format == "json":
        return _render_json(expansion)
    raise ValueError(f"unknown render format {format!r}")


def parse_expansion(text) -> TraceExpansion:
    """Inverse of render(..., 'json'); normalizes words and term order."""
    obj = json.loads(text) if isinstance(text, (str, bytes)) else text
    n = int(obj["n"])
    acc: dict[tuple[Word, ...], Fraction] = {}
    for entry in obj["terms"]:
        num, den = entry["coef"]
        coef = Fraction(int(num), int(den))
        words = _sorted_words([canonicalize(tuple(w)) for w in entry["words"]])
        acc[words] = acc.get(words, Fraction(0)) + coef
    return _merged(n, acc)
