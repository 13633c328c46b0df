"""Exact trace-monomial expansions of the mixed discriminant.

Words are tuples of matrix labels read cyclically, so Tr(ABC) and Tr(BCA)
are the same word; the canonical spelling is the lexicographically minimal
rotation.  Tr(ABC) and Tr(ACB) stay distinct.  Coefficients are exact
rationals; floats only appear in :func:`evaluate`, which evaluates each
binding in stacked products on the expansion's plan.

:func:`expand_polydet` depends on its labels only through which slots share
one.  It numbers the distinct labels 0, ..., r-1 in sorted order and looks
up the class table of their multiplicities: the expansion's id form (its
distinct words spelled in label ids, and each term's coefficient and word
indices), built once per pattern by the cycle-cover loop (at most 62
patterns for n <= 6).  Spelling the ids in the labels is injective and
keeps order, so a call only spells each distinct word once.  An expansion
from ``expand_polydet``, or parsed from its json render, carries its class
table's form and the plan compiled with it; any other builds its form on
first use.  :func:`render` and :func:`evaluate` read the form, and the
trace-formula engine evaluates the all-distinct pattern's plan.
"""

from __future__ import annotations

import json
import math
from contextlib import suppress
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain
from operator import itemgetter
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
    def _form(self) -> tuple[tuple[str, ...], _Form]:
        """(labels, form): the labels in sorted order, and the terms spelled
        in their ids.  ``expand_polydet`` sets its class table's."""
        words: dict[Word, IdWord] = dict.fromkeys(chain.from_iterable([t.words for t in self.terms]))
        labels = tuple(sorted(set(chain.from_iterable(words))))
        slots = {label: i for i, label in enumerate(labels)}
        for w in words:
            words[w] = tuple(map(slots.__getitem__, w))
        return labels, _Form([(coef, [words[w] for w in listed]) for coef, listed in self.terms])

    def __getstate__(self) -> dict:
        """Pickle the fields alone: the form is a cache, rebuilt on demand."""
        return {name: value for name, value in self.__dict__.items() if name != "_form"}


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


IdWord = tuple[int, ...]
IdTerm = tuple[Fraction, tuple[int, ...]]  # a coefficient and the indices of its words


def _picker(indices: tuple[int, ...]) -> Callable[[Sequence], Sequence]:
    """The function that takes the items at these indices from a sequence,
    as a sequence: an itemgetter of one index returns the item itself, so
    one is taken as a slice."""
    if len(indices) > 1:
        return itemgetter(*indices)
    return itemgetter(slice(indices[0], indices[0] + 1) if indices else slice(0))


class _Form:
    """An expansion spelled in label ids: its distinct words, in order of
    first appearance, and its terms as (coefficient, indices of their
    words), with the pickers of each word's letters and each term's words.
    Its plan and its terms' heads in each render format are made on first
    use and kept."""

    def __init__(self, terms: Iterable[tuple[Fraction, Sequence[IdWord]]]):
        terms = list(terms)
        index = {w: j for j, w in enumerate(dict.fromkeys(chain.from_iterable([words for _, words in terms])))}
        self.words = tuple(index)
        self.terms: tuple[IdTerm, ...] = tuple([(coef, tuple(map(index.__getitem__, words))) for coef, words in terms])
        self.spellers = tuple(map(_picker, self.words))  # per word: takes its letters from the labels
        self.pickers = tuple([_picker(js) for _, js in self.terms])  # per term: takes its words by index
        self._heads: dict[Callable[[Fraction], str], list[str]] = {}

    def _by_coefficient(self, spell: Callable[[Fraction], object]) -> list:
        """spell of each term's coefficient, called once per distinct coefficient."""
        spelled: dict[tuple[int, int], object] = {}  # (numerator, denominator) -> its spelling
        out = []
        for coef, _ in self.terms:
            key = coef.numerator, coef.denominator
            if key not in spelled:
                spelled[key] = spell(coef)
            out.append(spelled[key])
        return out

    @cached_property
    def plan(self) -> Callable[[np.ndarray], complex]:
        """The terms' plan over the stack of the labels' matrices in id
        order: every plan is compiled here."""
        return trace_sum_plan(zip(self._by_coefficient(float), [pick(self.words) for pick in self.pickers]))

    def heads(self, spell: Callable[[Fraction], str]) -> list[str]:
        """Per term, its coefficient spelled by a render format's speller."""
        if spell not in self._heads:
            self._heads[spell] = self._by_coefficient(spell)
        return self._heads[spell]


@lru_cache(maxsize=64)  # one key per multiplicity pattern: 62 for 2 <= n <= 6, and (1,) * N at N = 1, 7 for trace_formula
def _class_table(multiplicities: tuple[int, ...]) -> _Form:
    """The form of the expansion of slots holding class ids 0, ..., r-1
    with these multiplicities, its plan compiled.

    Each permutation's cycles are spelled in the slots' ids, canonicalized,
    and its monomial gains sgn(sigma); each monomial's signed count becomes
    one coefficient count / n!, and the non-zero ones are kept in term
    order.  Relabeling the slots permutes the cycle covers among
    themselves, so the slots are taken in order of their ids.
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
    kept = sorted((words for words, count in counts.items() if count), key=_term_key)
    form = _Form([(coefficients[counts[words]], words) for words in kept])
    form.plan  # compiled with the table, so no expansion of the class compiles one
    return form


def expand_polydet(n: int, labels: Sequence[str]) -> TraceExpansion:
    """Exact trace expansion of the mixed discriminant of n labelled slots.

    The cycle form of the determinant, polarized:
    n! eps(A_1, ..., A_n) = sum_sigma sgn(sigma) prod_{cycles (i_1 ... i_L) of sigma}
    Tr(A_{i_1} ... A_{i_L}).  The sum is taken once per multiplicity
    pattern (``_class_table``), over the distinct labels numbered in
    sorted order; each call spells that table's words in its labels and
    picks each term's words from them, which keeps its canonical
    rotations and word and term order.  The expansion carries the table's
    form, so ``evaluate`` compiles nothing and ``render`` spells nothing
    per term.
    """
    if not 2 <= n <= EXPAND_MAX_N:
        raise GuardLimitError(f"expansion guarded at 2 <= n <= {EXPAND_MAX_N}, got n={n}")
    labels = tuple(str(ell) for ell in labels)
    if len(labels) != n:
        raise ValueError(f"need exactly {n} labels, got {len(labels)}")
    if "" in labels:
        raise ValueError(f"label {labels.index('') + 1} of {n} is empty")
    names = tuple(sorted(set(labels)))
    form = _class_table(tuple(map(labels.count, names)))
    spelled = tuple([speller(names) for speller in form.spellers])
    new = tuple.__new__  # a TraceMonomial without its Python-level __new__
    terms = [new(TraceMonomial, (coef, pick(spelled))) for (coef, _), pick in zip(form.terms, form.pickers)]
    expansion = TraceExpansion(n, tuple(terms))
    expansion.__dict__["_form"] = names, form
    return expansion


def evaluate(expansion: TraceExpansion, binding: Mapping[str, np.ndarray]) -> complex:
    """Numeric value of an expansion under a label -> matrix binding.

    An expansion from ``expand_polydet``, or parsed from its json render,
    evaluates on its class table's cached plan; any other compiles its
    terms into a trace-sum plan on its first evaluation and keeps it.
    Labels the expansion does not use are ignored; a missing one raises
    KeyError naming the first unbound label in term order.
    """
    labels, form = expansion._form
    if not all(label in binding for label in labels):
        used = chain.from_iterable(chain.from_iterable([t.words for t in expansion.terms]))
        raise KeyError(f"unbound label {next(label for label in used if label not in binding)!r}")
    mats = []
    for label in labels:
        m = as_matrix(binding[label], name=f"binding[{label}]")
        if m.shape[0] != expansion.n:
            raise ValueError(f"binding[{label}] has dimension {m.shape[0]}, expected {expansion.n}")
        mats.append(m)
    return form.plan(np.array(mats, dtype=np.complex128).reshape(-1, expansion.n, expansion.n))


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


def _signed(spell_magnitude: Callable[[Fraction], str]) -> Callable[[Fraction], str]:
    """A coefficient spelled as a term of a signed sum: " + " or " - ", then
    its magnitude unless that is 1."""
    return lambda coef: (" + " if coef > 0 else " - ") + (spell_magnitude(abs(coef)) if abs(coef) != 1 else "")


#: per format: the spelling of a label; a trace's opening, the joiner of its
#: letters and its closing; the joiner of a term's traces; the spelling of a
#: coefficient, which heads its term; and the separator of terms
_FORMATS = {
    "text": (str, "Tr(", "*", ")", "*", _signed(lambda mag: str(mag) + "*"), ""),
    "latex": (str, "\\mathrm{Tr}(", "", ")", "", _signed(lambda mag: f"\\frac{{{mag.numerator}}}{{{mag.denominator}}}"), ""),
    "json": (json.dumps, "[", ", ", "]", ", ",
             lambda coef: '{"coef": ' + json.dumps([str(coef.numerator), str(coef.denominator)]) + ', "words": [', "]}, "),
}


def render(expansion: TraceExpansion, format: str = "text") -> str:
    """Deterministic serialization; the json form round-trips losslessly.

    "text" and "latex" write a signed sum ("0" for no terms); "json" the
    text of json.dumps(payload, sort_keys=True), the payload {"n": n,
    "terms": [{"coef": [num, den], "words": [[label, ...], ...]}, ...]}.
    A call spells the form's distinct words once and joins each term's
    head, its coefficient spelled once per form, with its words.
    """
    if format not in _FORMATS:
        raise ValueError(f"unknown render format {format!r}")
    spell, opening, letters, closing, joiner, spell_coefficient, separator = _FORMATS[format]
    labels, form = expansion._form
    names = list(map(spell, labels))
    words = [opening + letters.join(speller(names)) + closing for speller in form.spellers]
    body = separator.join([head + joiner.join(pick(words)) for head, pick in zip(form.heads(spell_coefficient), form.pickers)])
    if format == "json":
        return '{"n": ' + json.dumps(expansion.n) + ', "terms": [' + body + ("]}" if form.terms else "") + "]}"
    if not form.terms:
        return "0"
    return body[3:] if body.startswith(" + ") else "-" + body[3:]


def parse_expansion(text) -> TraceExpansion:
    """Inverse of render(..., 'json'); normalizes words and term order.

    ``n`` must be a positive integer and "terms" a list.  Each term must be
    an object with "coef" and "words" fields.  Each coefficient must be a
    [numerator, denominator] list of integers or their strings, the
    denominator non-zero; each word a non-empty list of non-empty string
    labels; and each term's words must have n letters in all.  A term that
    breaks any of these raises ValueError naming it.  Each distinct
    coefficient spelling and word is checked once, when first seen.

    A string is first read from its head: only ``{"n": <n>, "terms":
    [<first term>`` is decoded (``json.JSONDecoder.raw_decode``), the
    labels are read off the first term's n one-letter words, and if the
    text is, up to JSON whitespace at either end, the json render of
    ``expand_polydet(n, labels)``, it is that expansion, with its class
    table's form and plan: such a text is valid by construction, and is
    never decoded in full.  Any other input, and any head that does not
    decode so, is decoded in full (``json.loads``) and read term by term.
    """
    if isinstance(text, str):
        body = text.strip(" \t\n\r")
        decode = json.JSONDecoder().raw_decode
        with suppress(ValueError, TypeError, LookupError):  # a head that does not decode: read in full below
            n, end = decode(body, len('{"n": '))
            first, _ = decode(body, end + len(', "terms": ['))
            expansion = expand_polydet(n, [w[0] for w in first["words"]])
            if type(n) is int and body == render(expansion, "json"):
                return expansion
    obj = json.loads(text) if isinstance(text, (str, bytes)) else text
    if not isinstance(obj, dict) or "n" not in obj or "terms" not in obj:
        raise ValueError('expansion JSON must be an object with "n" and "terms" fields')
    n = obj["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f'"n" must be a positive integer, got {n!r}')
    terms = obj["terms"]
    if type(terms) is not list:
        raise ValueError(f'"terms" must be a list, got {terms!r}')

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
    for k, entry in enumerate(terms):
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
    kept = sorted((words for words, coef in acc.items() if coef), key=_term_key)
    return TraceExpansion(n, tuple([TraceMonomial(acc[words], words) for words in kept]))
