"""Exact trace-monomial expansions of the mixed discriminant.

Words are tuples of matrix labels read cyclically, so Tr(ABC) and Tr(BCA)
are the same word; the canonical spelling is the lexicographically minimal
rotation.  Tr(ABC) and Tr(ACB) stay distinct.  Coefficients are exact
rationals; floats only appear in :func:`evaluate`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .combinatorics import (
    GuardLimitError,
    canonicalize,
    compositions,
    cycle_covers,
    multinomial,
)
from .matrices import as_matrix, word_traces

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
    slots' labels, canonicalized, and its monomial gains sgn(sigma) / n!.
    """
    if not 2 <= n <= EXPAND_MAX_N:
        raise GuardLimitError(f"expansion guarded at 2 <= n <= {EXPAND_MAX_N}, got n={n}")
    labels = tuple(str(ell) for ell in labels)
    if len(labels) != n:
        raise ValueError(f"need exactly {n} labels, got {len(labels)}")

    fact = math.factorial(n)
    acc: dict[tuple[Word, ...], Fraction] = {}
    for sign, cycles in cycle_covers(n):
        words = _sorted_words([canonicalize(tuple(labels[i] for i in c)) for c in cycles])
        acc[words] = acc.get(words, Fraction(0)) + Fraction(sign, fact)
    return _merged(n, acc)


def evaluate(expansion: TraceExpansion, binding: Mapping[str, np.ndarray]) -> complex:
    """Numeric value of an expansion under a label -> matrix binding."""
    mats = {}
    for term in expansion.terms:
        for word in term.words:
            for label in word:
                if label not in mats:
                    if label not in binding:
                        raise KeyError(f"unbound label {label!r}")
                    m = as_matrix(binding[label], name=f"binding[{label}]")
                    if m.shape[0] != expansion.n:
                        raise ValueError(
                            f"binding[{label}] has dimension {m.shape[0]}, expected {expansion.n}"
                        )
                    mats[label] = m
    tr = word_traces(mats)  # the expansion's words are canonical already
    total = 0.0 + 0.0j
    for term in expansion.terms:
        value = float(term.coefficient)
        prod = 1.0 + 0.0j
        for word in term.words:
            prod *= tr(word)
        total += value * prod
    return total


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


def _format_coef(coef: Fraction) -> str:
    if coef.denominator == 1:
        return str(coef.numerator)
    return f"{coef.numerator}/{coef.denominator}"


def _render_text(expansion: TraceExpansion) -> str:
    parts = []
    for i, term in enumerate(expansion.terms):
        coef = term.coefficient
        mag = abs(coef)
        body = "*".join("Tr(" + "*".join(word) + ")" for word in term.words)
        if mag != 1:
            body = f"{_format_coef(mag)}*{body}"
        if i == 0:
            parts.append(body if coef > 0 else f"-{body}")
        else:
            parts.append(f" + {body}" if coef > 0 else f" - {body}")
    return "".join(parts) if parts else "0"


def _render_latex(expansion: TraceExpansion) -> str:
    parts = []
    for i, term in enumerate(expansion.terms):
        coef = term.coefficient
        mag = abs(coef)
        body = "".join("\\mathrm{Tr}(" + "".join(word) + ")" for word in term.words)
        if mag != 1:
            body = f"\\frac{{{mag.numerator}}}{{{mag.denominator}}}{body}"
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
    if format == "text":
        return _render_text(expansion)
    if format == "latex":
        return _render_latex(expansion)
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
