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
patterns for n <= 6).  An expansion from ``expand_polydet``, or parsed
from its json render, is that form and the sorted labels: it carries the
plan compiled with the form, and spells its terms only when they are first
read, each distinct word once (spelling the ids in the labels is injective
and keeps order).  Any other expansion holds its terms and builds its form
on first use.  :func:`render` and :func:`evaluate` read the form, and the
trace-formula engine evaluates the all-distinct pattern's plan.  A render
fills the form's template in its format, compiled once per form and format:
static pieces, a few strings shared by all their places, with a slot for
every letter between them, which one picker call fills from the spelled
labels.
"""

from __future__ import annotations

import json
import math
from contextlib import suppress
from dataclasses import FrozenInstanceError
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
from .matrices import as_matrix, as_stack, trace_sum_plan

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


class TraceExpansion:
    """An expansion of n slots: its terms, each an exact coefficient and
    its canonical words.

    ``TraceExpansion(n, terms)`` holds the terms as given.  An expansion
    from ``expand_polydet``, or parsed from its json render, holds its
    class table's form and the labels instead, and spells ``terms`` from
    them on first access, once.  Equality, hashing, repr and pickles read
    ``terms``, so the two kinds agree, byte for byte in a pickle; two
    expansions of the same form and labels are equal without spelling.
    Expansions are immutable.
    """

    __match_args__ = ("n", "terms")

    def __init__(self, n: int, terms: tuple[TraceMonomial, ...]):
        self.__dict__.update(n=n, terms=terms)

    @cached_property
    def terms(self) -> tuple[TraceMonomial, ...]:
        """Spelled from the form: each of its words once, in the labels, and
        each term's words picked from them, which keeps the form's
        canonical rotations and word and term order."""
        labels, form = self._form
        spelled = tuple([speller(labels) for speller in form.spellers])
        new = tuple.__new__  # a TraceMonomial without its Python-level __new__
        return tuple([new(TraceMonomial, (coef, pick(spelled))) for (coef, _), pick in zip(form.terms, form.pickers)])

    @cached_property
    def _form(self) -> tuple[tuple[str, ...], _Form]:
        """(labels, form): the labels in sorted order, and the terms spelled
        in their ids."""
        words: dict[Word, IdWord] = dict.fromkeys(chain.from_iterable([t.words for t in self.terms]))
        labels = tuple(sorted(set(chain.from_iterable(words))))
        slots = {label: i for i, label in enumerate(labels)}
        for w in words:
            words[w] = tuple(map(slots.__getitem__, w))
        return labels, _Form(self.n, [(coef, [words[w] for w in listed]) for coef, listed in self.terms])

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        mine, theirs = self.__dict__.get("_form"), other.__dict__.get("_form")
        if mine is not None and theirs is not None and mine[1] is theirs[1]:
            return mine[0] == theirs[0]  # every term spells every label
        return (self.n, self.terms) == (other.n, other.terms)

    def __hash__(self) -> int:
        return hash((self.n, self.terms))

    def __repr__(self) -> str:
        return f"TraceExpansion(n={self.n!r}, terms={self.terms!r})"

    def __setattr__(self, name: str, *value) -> None:
        raise FrozenInstanceError(f"an expansion is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __getstate__(self) -> dict:
        """Pickle the fields alone: the form is a cache, rebuilt on demand."""
        return {"n": self.n, "terms": self.terms}


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


def _picker(indices: Sequence[int]) -> Callable[[Sequence], Sequence]:
    """The function that takes the items at these indices from a sequence,
    as a sequence: an itemgetter of one index returns the item itself, so
    one is taken as a slice."""
    if len(indices) > 1:
        return itemgetter(*indices)
    return itemgetter(slice(indices[0], indices[0] + 1) if indices else slice(0))


class _Form:
    """An expansion's n and its terms spelled in label ids: its distinct
    words, in order of first appearance, and its terms as (coefficient,
    indices of their words), with the pickers of each word's letters and
    each term's words, and both again as flat numpy arrays.  Its plan, and
    its template in each render format, are made on first use and kept.

    A template is the render with a slot in place of every letter: the
    static pieces between the slots, and the picker of the label ids that
    fill them.  The slots, every letter's id and the gap after it (inside
    a word, between a term's words, or before a term with a given
    coefficient), are made once for all formats; a format spells each
    kind of gap once, so its pieces are a few shared strings.
    """

    def __init__(self, n: int, terms: Iterable[tuple[Fraction, Sequence[IdWord]]]):
        terms = list(terms)
        index = {w: j for j, w in enumerate(dict.fromkeys(chain.from_iterable([words for _, words in terms])))}
        self.n = n
        self.words = tuple(index)
        self.terms: tuple[IdTerm, ...] = tuple([(coef, tuple(map(index.__getitem__, words))) for coef, words in terms])
        listed = [js for _, js in self.terms]
        self.spellers = tuple(map(_picker, self.words))  # per word: takes its letters from the labels
        self.pickers = tuple(map(_picker, listed))  # per term: takes its words by index
        # per word its letters, and per term its words, counted and listed one after another, for the render slots
        self.lengths = np.fromiter(map(len, self.words), np.intp, len(self.words))
        self.letters = np.fromiter(chain.from_iterable(self.words), np.intp, self.lengths.sum())
        self.counts = np.fromiter(map(len, listed), np.intp, len(listed))
        self.slots = np.fromiter(chain.from_iterable(listed), np.intp, self.counts.sum())
        self._templates: dict[str, tuple[list, Callable[[Sequence], Sequence]]] = {}

    @cached_property
    def _coefficients(self) -> tuple[list[Fraction], np.ndarray]:
        """The distinct coefficients, in order of first appearance, and each term's index among them."""
        seen: dict[tuple[int, int], tuple[int, Fraction]] = {}  # (numerator, denominator) -> (index, coefficient)
        ks = [seen.setdefault((coef.numerator, coef.denominator), (len(seen), coef))[0] for coef, _ in self.terms]
        return [coef for _, coef in seen.values()], np.array(ks, dtype=np.intp)

    @cached_property
    def plan(self) -> Callable[[np.ndarray], complex]:
        """The terms' plan over the stack of the labels' matrices in id
        order: every plan is compiled here."""
        coefficients, ks = self._coefficients
        weights = np.array(list(map(float, coefficients)))[ks]
        return trace_sum_plan(zip(weights, [pick(self.words) for pick in self.pickers]))

    @cached_property
    def _slots(self) -> tuple[int, Callable[[Sequence], Sequence], Callable[[Sequence], Sequence]]:
        """What every format's template shares: its count of letters, the
        picker of every letter's label id, term by term and word by word,
        and the picker of the gap after each letter but the last from a
        format's gap pieces: 0 inside a word, 1 between a term's words, and
        2 + k before a term whose coefficient is the k-th distinct one."""
        counts, lengths, slots = self.counts, self.lengths, self.slots
        if not (counts.all() and lengths.all()):
            raise ValueError("an expansion with a term of no words or a word of no letters has no render")
        sizes = lengths[slots]
        ends = np.cumsum(sizes)  # the letters up to the end of each
        owner = np.repeat(np.arange(len(slots)), sizes)  # each letter's place among the words
        shift = np.cumsum(lengths)[slots] - ends  # from a letter's place to its place in the words' letters
        letters = self.letters[np.arange(len(owner)) + shift[owner]]
        gaps = np.zeros(max(len(letters) - 1, 0), np.intp)
        gaps[ends[:-1] - 1] = 1
        gaps[ends[np.cumsum(counts)[:-1] - 1] - 1] = 2 + self._coefficients[1][1:]
        return len(letters), _picker(letters.tolist()), _picker(gaps.tolist())

    def template(self, format: str) -> tuple[list, Callable[[Sequence], Sequence]]:
        """The template in a render format: the list of its pieces, with
        None in each letter's slot, and the picker of the slots' label ids."""
        if format not in self._templates:
            _, opening, letters, closing, joiner, spell_head, separator, frame = _FORMATS[format]
            coefficients, ks = self._coefficients
            heads = list(map(spell_head, coefficients))
            size, fill, spread = self._slots
            start, end = frame(self.n, heads[ks[0]] if size else None)
            pieces = [start + end]
            if size:
                between = [letters, closing + joiner + opening, *[closing + separator + head + opening for head in heads]]
                pieces = [None] * (2 * size + 1)
                pieces[0], pieces[2:-1:2], pieces[-1] = start + opening, spread(between), closing + end
            self._templates[format] = pieces, fill
        return self._templates[format]


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
    form = _Form(n, [(coefficients[counts[words]], words) for words in kept])
    form.plan  # compiled with the table, so no expansion of the class compiles one
    return form


def expand_polydet(n: int, labels: Sequence[str]) -> TraceExpansion:
    """Exact trace expansion of the mixed discriminant of n labelled slots.

    The cycle form of the determinant, polarized:
    n! eps(A_1, ..., A_n) = sum_sigma sgn(sigma) prod_{cycles (i_1 ... i_L) of sigma}
    Tr(A_{i_1} ... A_{i_L}).  The sum is taken once per multiplicity
    pattern (``_class_table``), over the distinct labels numbered in
    sorted order.  A call checks its arguments, looks up that table and
    returns the expansion of its form in the sorted labels, so
    ``evaluate`` compiles nothing and ``render`` spells nothing per term.
    Its ``terms`` are spelled on first access, once: the table's words in
    the labels, and each term's words picked from them, which keeps the
    canonical rotations and word and term order.
    """
    if not 2 <= n <= EXPAND_MAX_N:
        raise GuardLimitError(f"expansion guarded at 2 <= n <= {EXPAND_MAX_N}, got n={n}")
    labels = tuple(str(ell) for ell in labels)
    if len(labels) != n:
        raise ValueError(f"need exactly {n} labels, got {len(labels)}")
    if "" in labels:
        raise ValueError(f"label {labels.index('') + 1} of {n} is empty")
    names = tuple(sorted(set(labels)))
    expansion = TraceExpansion.__new__(TraceExpansion)  # its terms unspelled, until read
    expansion.__dict__.update(n=n, _form=(names, _class_table(tuple(map(labels.count, names)))))
    return expansion


def evaluate(expansion: TraceExpansion, binding: Mapping[str, np.ndarray]) -> complex:
    """Numeric value of an expansion under a label -> matrix binding.

    An expansion from ``expand_polydet``, or parsed from its json render,
    evaluates on its class table's cached plan; any other compiles its
    terms into a trace-sum plan on its first evaluation and keeps it.
    Labels the expansion does not use are ignored; a missing one raises
    KeyError naming the first unbound label in term order.  The binding is
    stacked in one ``as_stack`` conversion; one that does not stack into
    n x n matrices is read label by label, so the error names the first
    label at fault in sorted order.
    """
    labels, form = expansion._form
    if not all(label in binding for label in labels):
        used = chain.from_iterable(chain.from_iterable([t.words for t in expansion.terms]))
        raise KeyError(f"unbound label {next(label for label in used if label not in binding)!r}")
    try:
        stack = as_stack([binding[label] for label in labels])
    except (ValueError, TypeError):
        pass  # the loop below names the label at fault
    else:
        if stack.shape[-1] == expansion.n:
            return form.plan(stack)
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


def _signed_sum(n: int, head: str | None) -> tuple[str, str]:
    """A signed sum's start, its first term's head without " + " (" - "
    becomes "-"), and its end; "0" when it has no first term."""
    if head is None:
        return "0", ""
    return (head[3:] if head.startswith(" + ") else "-" + head[3:]), ""


def _json_payload(n: int, head: str | None) -> tuple[str, str]:
    """The payload's start, up to its first term's head, and its end, which
    closes the last term too."""
    start = '{"n": ' + json.dumps(n) + ', "terms": ['
    return (start, "]}") if head is None else (start + head, "]}]}")


#: per format: the spelling of a label; a trace's opening, the joiner of its
#: letters and its closing; the joiner of a term's traces; the spelling of a
#: coefficient, which heads its term; the separator of terms; and the frame:
#: the start and end of a render, from the n and the first term's head
_FORMATS = {
    "text": (str, "Tr(", "*", ")", "*", _signed(lambda mag: str(mag) + "*"), "", _signed_sum),
    "latex": (str, "\\mathrm{Tr}(", "", ")", "", _signed(lambda mag: f"\\frac{{{mag.numerator}}}{{{mag.denominator}}}"), "", _signed_sum),
    "json": (json.dumps, "[", ", ", "]", ", ",
             lambda coef: '{"coef": ' + json.dumps([str(coef.numerator), str(coef.denominator)]) + ', "words": [', "]}, ", _json_payload),
}


def render(expansion: TraceExpansion, format: str = "text") -> str:
    """Deterministic serialization; the json form round-trips losslessly.

    "text" and "latex" write a signed sum ("0" for no terms); "json" the
    text of json.dumps(payload, sort_keys=True), the payload {"n": n,
    "terms": [{"coef": [num, den], "words": [[label, ...], ...]}, ...]}.
    A call fills the form's template in the format, compiled on the
    form's first render in it: it spells the labels, takes every letter's
    spelling by one picker call into the slots between the template's
    pieces, and joins them once.
    """
    if format not in _FORMATS:
        raise ValueError(f"unknown render format {format!r}")
    labels, form = expansion._form
    pieces, fill = form.template(format)
    parts = pieces.copy()
    parts[1::2] = fill(list(map(_FORMATS[format][0], labels)))
    return "".join(parts)


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
