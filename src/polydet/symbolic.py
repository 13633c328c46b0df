"""Exact trace-monomial expansions of the mixed discriminant.

Words are tuples of matrix labels read cyclically, so Tr(ABC) and Tr(BCA)
are the same word; the canonical spelling is the lexicographically minimal
rotation.  Tr(ABC) and Tr(ACB) stay distinct.  Coefficients are exact
rationals; floats only appear in :func:`evaluate`, which evaluates each
binding in stacked products on the expansion's plan.

:func:`expand_polydet` depends on its labels only through which slots share
one.  It numbers the distinct labels 0, ..., r-1 in sorted order and looks
up the class table of their multiplicities: the expansion over those ids,
built once per pattern by the cycle-cover loop (at most 62 patterns for
n <= 6).  Spelling the ids in the labels is injective and keeps order, so
the table's canonical rotations and word and term order are the labels'
own, and a call only spells each distinct word once.  Every plan is
compiled by ``TraceExpansion._plan``, over the labels in sorted order.  The
class table keeps the plan of its expansion over the ids: each expansion of
its pattern carries it, and the trace-formula engine evaluates the
all-distinct pattern's.  Any other expansion, such as a parsed one,
compiles its own plan on its first evaluation and keeps it.
"""

from __future__ import annotations

import json
import math
from contextlib import suppress
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

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
        """(labels, plan): the plan of the terms over the stack of the labels'
        matrices, the labels in sorted order, whose value is the expansion's.
        Every plan is compiled here; ``expand_polydet`` sets its class table's."""
        spelled: dict[Word, tuple[int, ...]] = dict.fromkeys(chain.from_iterable([t.words for t in self.terms]))
        slots = {label: i for i, label in enumerate(sorted(set(chain.from_iterable(spelled))))}
        for w in spelled:
            spelled[w] = tuple(map(slots.__getitem__, w))
        weights: dict[tuple[int, int], float] = {}  # (numerator, denominator) -> its float
        terms = []
        for coef, words in self.terms:
            key = coef.numerator, coef.denominator
            weight = weights.get(key)
            if weight is None:
                weight = weights[key] = float(coef)
            terms.append((weight, [spelled[w] for w in words]))
        return tuple(slots), trace_sum_plan(terms)

    def __getstate__(self) -> dict:
        """Pickle the fields alone: the plan is a cache, rebuilt on demand."""
        return {name: value for name, value in self.__dict__.items() if name != "_plan"}


def _term_key(words: tuple[Word, ...]) -> tuple:
    """Deterministic term order: partition class first, then words.

    Words are sorted by (length, word), so more words, then more short words,
    come first: the order of descending partition vectors.
    """
    return (-len(words), tuple(map(len, words)), words)


def _sorted_words(keys: Iterable, memo: dict, canon: Callable[[object], Word]) -> tuple[Word, ...]:
    """The canonical words of one term, sorted by (length, word).

    ``memo`` maps each key to its (length, canonical word) pair, which
    ``canon`` makes on a key's first appearance; callers keep it for one
    call, so each distinct word is spelled and canonicalized once.
    """
    pairs = []
    for key in keys:
        pair = memo.get(key)
        if pair is None:
            word = canon(key)
            pair = memo[key] = (len(word), word)
        pairs.append(pair)
    pairs.sort()
    return tuple([word for _, word in pairs])


def _merged(n: int, acc: Mapping[tuple[Word, ...], Fraction]) -> TraceExpansion:
    """The non-zero terms of a words -> coefficient map, in term order."""
    kept = sorted((words for words, coef in acc.items() if coef), key=_term_key)
    return TraceExpansion(n, tuple([TraceMonomial(acc[words], words) for words in kept]))


IdWord = tuple[int, ...]
IdTerm = tuple[Fraction, tuple[int, ...]]  # a coefficient and the indices of its words


@lru_cache(maxsize=64)  # one key per multiplicity pattern: 62 for 2 <= n <= 6, and (1,) * N at N = 1, 7 for trace_formula
def _class_table(multiplicities: tuple[int, ...]) -> tuple[tuple[IdWord, ...], tuple[IdTerm, ...], Callable[[np.ndarray], complex]]:
    """The expansion of slots holding class ids 0, ..., r-1 with these
    multiplicities as (its distinct words in order of first appearance, its
    terms as (coefficient, indices of their words), and the expansion's
    ``TraceExpansion._plan`` over the stack of the r classes' matrices).

    Each permutation's cycles are spelled in the slots' ids, canonicalized,
    and its monomial gains sgn(sigma); each monomial's signed count becomes
    one coefficient count / n!.  Relabeling the slots permutes the cycle
    covers among themselves, so the slots are taken in order of their ids.
    """
    n = sum(multiplicities)
    ids = [c for c, m in enumerate(multiplicities) for _ in range(m)]

    def spell(cycle: tuple[int, ...]) -> IdWord:
        return canonicalize([ids[i] for i in cycle])

    spelled: dict[tuple[int, ...], tuple[int, IdWord]] = {}  # index cycle -> (length, canonical word)
    counts: dict[tuple[IdWord, ...], int] = {}
    for sign, cycles in cycle_covers(n):
        words = _sorted_words(cycles, spelled, spell)
        counts[words] = counts.get(words, 0) + sign
    fact = math.factorial(n)
    coefficients = {count: Fraction(count, fact) for count in set(counts.values())}
    expansion = _merged(n, {words: coefficients[count] for words, count in counts.items()})
    index = {w: j for j, w in enumerate(dict.fromkeys(chain.from_iterable([t.words for t in expansion.terms])))}
    terms = tuple([(coef, tuple(map(index.__getitem__, words))) for coef, words in expansion.terms])
    return tuple(index), terms, expansion._plan[1]


def expand_polydet(n: int, labels: Sequence[str]) -> TraceExpansion:
    """Exact trace expansion of the mixed discriminant of n labelled slots.

    The cycle form of the determinant, polarized:
    n! eps(A_1, ..., A_n) = sum_sigma sgn(sigma) prod_{cycles (i_1 ... i_L) of sigma}
    Tr(A_{i_1} ... A_{i_L}).  The sum is taken once per multiplicity
    pattern (``_class_table``), over the distinct labels numbered in
    sorted order; each call spells that table in its labels, which keeps
    its canonical rotations and word and term order.  The expansion carries
    the table's plan over the distinct labels in sorted order, so
    ``evaluate`` compiles nothing.
    """
    if not 2 <= n <= EXPAND_MAX_N:
        raise GuardLimitError(f"expansion guarded at 2 <= n <= {EXPAND_MAX_N}, got n={n}")
    labels = tuple(str(ell) for ell in labels)
    if len(labels) != n:
        raise ValueError(f"need exactly {n} labels, got {len(labels)}")
    if "" in labels:
        raise ValueError(f"label {labels.index('') + 1} of {n} is empty")
    names = sorted(set(labels))
    words, terms, plan = _class_table(tuple(map(labels.count, names)))
    spelled = [tuple([names[i] for i in word]) for word in words]
    expansion = TraceExpansion(n, tuple([TraceMonomial(coef, tuple([spelled[j] for j in js])) for coef, js in terms]))
    expansion.__dict__["_plan"] = tuple(names), plan
    return expansion


def evaluate(expansion: TraceExpansion, binding: Mapping[str, np.ndarray]) -> complex:
    """Numeric value of an expansion under a label -> matrix binding.

    An expansion from ``expand_polydet`` evaluates on its class table's
    cached plan; any other, such as a parsed one, compiles its terms into a
    trace-sum plan on its first evaluation and keeps it.  Labels the
    expansion does not use are ignored; a missing one raises KeyError
    naming the first unbound label in term order.
    """
    labels, plan = expansion._plan
    if not all(label in binding for label in labels):
        used = chain.from_iterable(chain.from_iterable([t.words for t in expansion.terms]))
        raise KeyError(f"unbound label {next(label for label in used if label not in binding)!r}")
    mats = []
    for label in labels:
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


def _spelled_terms(
    expansion: TraceExpansion,
    spell_coefficient: Callable[[Fraction], str],
    spell_word: Callable[[Word], str],
    joiner: str,
) -> list[str]:
    """Each term as its coefficient's spelling followed by its words'
    spellings, joined; each distinct coefficient and word is spelled once."""
    heads: dict[tuple[int, int], str] = {}  # (numerator, denominator) -> its spelling
    spelled: dict[Word, str] = {}
    parts = []
    for coef, words in expansion.terms:
        key = coef.numerator, coef.denominator
        head = heads.get(key)
        if head is None:
            head = heads[key] = spell_coefficient(coef)
        texts = []
        for word in words:
            text = spelled.get(word)
            if text is None:
                text = spelled[word] = spell_word(word)
            texts.append(text)
        parts.append(head + joiner.join(texts))
    return parts


def _render_signed(expansion: TraceExpansion, format: str) -> str:
    """The terms as one signed sum: "-" before a negative first term, " + "
    or " - " before each later one, and "0" for no terms."""
    opening, letters, joiner, spell_magnitude = _SPELLERS[format]

    def spell_coefficient(coef: Fraction) -> str:
        mag = abs(coef)
        return (" + " if coef > 0 else " - ") + (spell_magnitude(mag) if mag != 1 else "")

    signed = "".join(_spelled_terms(expansion, spell_coefficient, lambda w: opening + letters.join(w) + ")", joiner))
    if not signed:
        return "0"
    return signed[3:] if signed.startswith(" + ") else "-" + signed[3:]


def _render_json(expansion: TraceExpansion) -> str:
    """The text of json.dumps(payload, sort_keys=True) for the payload
    {"n": n, "terms": [{"coef": [num, den], "words": [[label, ...], ...]}, ...]}
    with its default separators, put together from json.dumps of each
    distinct label and each distinct coefficient's [num, den] strings."""
    labels: dict[object, str] = {}

    def spell_coefficient(coef: Fraction) -> str:
        return '{"coef": ' + json.dumps([str(coef.numerator), str(coef.denominator)]) + ', "words": ['

    def spell_word(word: Word) -> str:
        for label in word:
            if label not in labels:
                labels[label] = json.dumps(label)
        return "[" + ", ".join(map(labels.__getitem__, word)) + "]"

    terms = ", ".join([part + "]}" for part in _spelled_terms(expansion, spell_coefficient, spell_word, ", ")])
    return '{"n": ' + json.dumps(expansion.n) + ', "terms": [' + terms + "]}"


def render(expansion: TraceExpansion, format: str = "text") -> str:
    """Deterministic serialization; the json form round-trips losslessly."""
    if format in _SPELLERS:
        return _render_signed(expansion, format)
    if format == "json":
        return _render_json(expansion)
    raise ValueError(f"unknown render format {format!r}")


def parse_expansion(text) -> TraceExpansion:
    """Inverse of render(..., 'json'); normalizes words and term order.

    ``n`` must be a positive integer.  Each term must be an object with
    "coef" and "words" fields.  Each coefficient must be a
    [numerator, denominator] list of integers or their strings, the
    denominator non-zero; each word a non-empty list of non-empty string
    labels; and each term's words must have n letters in all.  A term that
    breaks any of these raises ValueError naming it.  Each distinct
    coefficient spelling and word is checked once, when first seen.
    """
    obj = json.loads(text) if isinstance(text, (str, bytes)) else text
    if not isinstance(obj, dict) or "n" not in obj or "terms" not in obj:
        raise ValueError('expansion JSON must be an object with "n" and "terms" fields')
    n = obj["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f'"n" must be a positive integer, got {n!r}')

    # both readers name the term k that the loop below is reading
    def read_coefficient(spelling) -> Fraction:
        if type(spelling) is list and len(spelling) == 2 and all(type(part) in (int, str) for part in spelling):
            with suppress(ValueError):  # a string that is no integer
                num, den = map(int, spelling)
                if den:
                    return Fraction(num, den)
        raise ValueError(f"term {k}: a coefficient must be [numerator, denominator] with a non-zero denominator, got {spelling!r}")

    checked: set[str] = set()  # the labels found to be non-empty strings

    def read_word(word: Word) -> Word:
        if not word or not checked.issuperset(word):
            if not (word and all(type(label) is str and label for label in word)):
                raise ValueError(f"term {k}: a word must be a non-empty list of non-empty string labels, got {list(word)!r}")
            checked.update(word)
        return canonicalize(word)

    spelled: dict[Word, tuple[int, Word]] = {}
    coefficients: dict[tuple, Fraction] = {}  # the (num, den) spelling -> its value
    acc: dict[tuple[Word, ...], Fraction] = {}
    for k, entry in enumerate(obj["terms"]):
        try:
            spelling, listed = entry["coef"], entry["words"]
            coef = coefficients.get(tuple(spelling)) if type(spelling) is list else None
            if coef is None:
                coef = coefficients[tuple(spelling)] = read_coefficient(spelling)
            if str in map(type, listed):
                raise ValueError(f"term {k}: a word must be a list of labels, got {listed!r}")
            words = _sorted_words(map(tuple, listed), spelled, read_word)
        except (KeyError, TypeError):  # a field missing, or a part that is not iterable or not hashable
            shape = '{"coef": [numerator, denominator], "words": [[label, ...], ...]}'
            raise ValueError(f"term {k}: a term must read {shape}, got {entry!r}") from None
        letters = sum(map(len, words))
        if letters != n:
            raise ValueError(f"term {k}: word lengths sum to {letters}, not n = {n}")
        acc[words] = acc[words] + coef if words in acc else coef
    return _merged(n, acc)
