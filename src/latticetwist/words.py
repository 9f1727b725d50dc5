"""Words in the generators of Z^n x| S_n: parsing, evaluation, closure.

The generator alphabet is fixed:

    s : transposition of points 1, 2 (no translation)
    t : the cycle sending v to v - 1 (and 1 to n), no translation
    g : unit translation of the last coordinate, identity permutation
    a : the product g . t
    b : alias of s

A word is a normalized sequence of (symbol, exponent) letters.  The text
grammar is whitespace-separated terms, where a term is a symbol or a
parenthesized word, optionally raised to a nonzero integer power:

    word := term*       term := SYMBOL ['^' INT] | '(' word ')' ['^' INT]

Each preset relation is its label text, parsed by `parse_word`.  Relation
presets and derived identities are verified by evaluating words in the
concrete group; a report saying "holds" certifies only that the named
words evaluate to the identity, not that any relation set presents the
group.

Words are evaluated by one kernel, `eval_word`, which takes each letter's
power from `_letter_power`, a bounded cache shared by every call in the
process: an entry is built once, in O(n) whatever the exponent, as
`semidirect._power` of the written-out generator.  `_entry` builds it,
as it builds the entries that `generated_closure` steps by: a
permutation is the bytes of its images, composed by one
`bytes.translate`, and a translation is its nonzero moves; both are
immutable, so a shared entry cannot be changed by a caller.  Only the
word and closure walks read this bytes kernel, so it lives here.
`eval_word` reads any sequence of letters, normalized or not, so each
side of a derived identity is written once as a literal tuple of letters.

A word that is not a sequence of (symbol, exponent) pairs is a
ValueError in every function here, and each reads a letter's symbol and
exponent as `normalize_word` does.  The letter loops do not test a
letter's shape; `_word_error` sorts out what they catch.

Word text is checked for bad characters and for its symbol count by
scans that build no token, then tokenized by one `findall`; a token's
position in the text is found only for an error.
"""

from __future__ import annotations

import math
import random
import re
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from . import limits
from .semidirect import SemiElement, _checked, _power, semi_identity
from .twisted import _as_int, as_vector, check_permutation

Letter = tuple[str, int]
Word = tuple[Letter, ...]

SYMBOLS = ("s", "t", "g", "a", "b")


class WordSyntaxError(ValueError):
    """Malformed word text; `position` is the 0-based offending offset."""

    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} (position {position})")


def normalize_word(letters: Iterable[Letter]) -> Word:
    """Merge adjacent equal symbols, dropping letters that cancel to zero."""
    out: list[Letter] = []
    try:
        for sym, exp in letters:
            if type(exp) is not int or sym not in SYMBOLS:
                exp = _exponent(sym, exp)
            if exp == 0:
                continue
            if out and out[-1][0] == sym:
                merged = out[-1][1] + exp
                out.pop()
                if merged:
                    out.append((sym, merged))
            else:
                out.append((sym, exp))
    except (TypeError, ValueError) as exc:
        raise _word_error(exc) from None
    return tuple(out)


def _exponent(sym, exp) -> int:
    """The exponent of the letter (sym, exp) by the integer rule; a symbol
    outside the alphabet is a ValueError."""
    if sym not in SYMBOLS:
        raise ValueError(f"unknown symbol {sym!r}")
    return exp if type(exp) is int else _as_int(exp, f"exponent of {sym!r}")


def _word_error(exc: Exception) -> Exception:
    """`exc`, caught in a letter loop's frame, if it is a letter check's
    ValueError, raised below that frame; else the word error, as for a word
    that is not iterable or a letter that is not a pair."""
    if type(exc) is ValueError and exc.__traceback__.tb_next is not None:
        return exc
    return ValueError("word must be a sequence of (symbol, exponent) letters")


def _read(word: Word) -> list[Letter]:
    """The letters of `word`, each read as `normalize_word` reads it."""
    out: list[Letter] = []
    try:
        for sym, exp in word:
            out.append((sym, _exponent(sym, exp)))
    except (TypeError, ValueError) as exc:
        raise _word_error(exc) from None
    return out


def letter(sym: str, exp: int = 1) -> Word:
    return normalize_word([(sym, exp)])


def word_concat(*words: Word) -> Word:
    return normalize_word(l for w in words for l in w)


def word_inverse(word: Word) -> Word:
    return tuple([(sym, -exp) for sym, exp in reversed(_read(word))])


def word_power(word: Word, k: int) -> Word:
    k = _as_int(k, "power")
    if k < 0:
        return word_power(word_inverse(word), -k)
    try:
        count = len(word) * k
    except TypeError as exc:
        raise _word_error(exc) from None
    if not count:
        return ()
    _check_letters(count)
    return normalize_word(l for _ in range(k) for l in word)


def _check_letters(count: int) -> None:
    if count > limits.MAX_WORD_LETTERS:
        raise limits.BudgetExceededError(
            f"word expands to {count} letters, over the cap "
            f"{limits.MAX_WORD_LETTERS}")


def render_word(word: Word) -> str:
    """The text that `parse_word` reads as `normalize_word(word)`: a letter
    with exponent 0 is left out, and the empty word renders ''."""
    return " ".join(sym if exp == 1 else f"{sym}^{exp}"
                    for sym, exp in _read(word) if exp)


# Every non-space character that is not bad starts a token: one of
# "()^stgab" or an integer -?\d+ (the only token longer than one character)
_TOKEN = re.compile(r"[()^stgab]|-?\d+")
# The characters that start no token
_BAD = re.compile(r"-(?!\d)|[^\s\d()^stgab-]")
_SYMBOL_SET = frozenset(SYMBOLS)
_NOT_INT = _SYMBOL_SET | {"(", ")", "^"}


def parse_word(text: str) -> Word:
    """Parse the grammar above into a normalized word, without recursion.

    Before any token is built, one scan finds the first bad character,
    and the symbols before it are counted.  Each symbol expands to at
    least one letter, so a text with more symbols there than the cap is
    refused, and then a text with a bad character.  These two errors come
    ahead of any other, wherever they are in the text: a text over the cap
    may be refused before a later syntax error, or in place of an earlier
    one.

    Then one pass reads the tokens into a tree of terms, checking the
    letter cap from the letter counts at each group's close and once at
    the end; a second pass expands the tree.  A group of one term folds
    into that term with the exponents multiplied, so every group left in
    the tree has at least two terms and the expansion pops fewer groups
    than it writes letters.  Neither pass copies letters per level, so the
    cost is linear in the text and the expanded word, which the cap
    bounds, whatever the nesting depth.
    """
    if not isinstance(text, str):
        raise ValueError(f"word text is not a str: {text!r}")
    bad = _BAD.search(text)
    stop = len(text) if bad is None else bad.start()
    cap = limits.MAX_WORD_LETTERS
    if stop > cap and sum(text.count(sym, 0, stop) for sym in SYMBOLS) > cap:
        raise limits.BudgetExceededError(
            f"word expands to at least {cap + 1} letters, over the cap {cap}")
    if bad is not None:
        raise WordSyntaxError(f"unexpected character {bad[0]!r}", stop)
    terms = _term_tree(enumerate(_TOKEN.findall(text)), text)
    return normalize_word(_expand(terms))


def _position(text: str, index: int) -> int:
    """The text position of token `index`: an error's, so found by rescanning."""
    return next(islice(_TOKEN.finditer(text), index, None)).start()


def _term_tree(tokens: Iterator[tuple[int, str]], text: str) -> list:
    """The term tree of the (index, token) stream of `text`."""
    # a term is (symbol, exp) or (list of terms, exp); `count` is the number
    # of letters the terms of the innermost open group expand to
    terms: list = []
    count = 0
    # per open group: the enclosing terms, their count, the '(' token index
    stack: list = []
    token = next(tokens, None)
    while token is not None:
        at, value = token
        token = next(tokens, None)
        if value == "(":
            stack.append((terms, count, at))
            terms, count = [], 0
            continue
        if value == ")":
            if not stack:
                raise WordSyntaxError("unmatched ')'", _position(text, at))
            # the closed group is the next term of the enclosing one
            value, size = terms, count
            terms, count, at = stack.pop()
            if not value:
                raise WordSyntaxError("empty parentheses", _position(text, at))
        elif value in _SYMBOL_SET:
            size = None
        else:
            raise WordSyntaxError(f"unexpected token {value!r}", _position(text, at))
        exp = 1
        if token is not None and token[1] == "^":
            hat = token[0]
            token = next(tokens, None)
            if token is None or token[1] in _NOT_INT:
                raise WordSyntaxError("'^' must be followed by an integer",
                                      _position(text, hat))
            try:
                exp = int(token[1])
            except ValueError:  # more digits than `int` converts
                raise WordSyntaxError("exponent has too many digits",
                                      _position(text, token[0])) from None
            if exp == 0:
                raise WordSyntaxError("zero exponent", _position(text, token[0]))
            token = next(tokens, None)
        if size is None:
            count += 1
        else:
            count += size * abs(exp)
            _check_letters(count)
            if len(value) == 1:
                # (x^e)^k is x^(e k), for a symbol or a group x
                value, inner = value[0]
                exp *= inner
        terms.append((value, exp))
    if stack:
        raise WordSyntaxError("missing ')'", len(text))
    # a group's close checks only the letters up to it
    _check_letters(count)
    return terms


def _expand(terms: list) -> list[Letter]:
    """The letters of a term tree, left to right, from an explicit stack."""
    letters: list[Letter] = []
    todo = terms[::-1]  # the next term is on top
    while todo:
        term = todo.pop()
        value, exp = term
        if isinstance(value, str):
            letters.append(term)
        elif exp > 0:
            todo.extend(value[::-1] * exp)
        else:
            # (x y)^-k is (y^-1 x^-1)^k; pushed in order, so x^-1 pops last
            todo.extend([(v, -e) for v, e in value] * -exp)
    return letters


def standard_generators(n: int) -> dict[str, SemiElement]:
    """The five named generators as concrete elements of Z^n x| S_n."""
    return dict(_generators(_as_int(n, "n", 2, limits.MAX_VERIFY_N)))


@lru_cache(maxsize=16, typed=True)
def _generators(n: int) -> dict[str, SemiElement]:
    # Shared by every caller for this n: read it, never mutate it.
    zero = (0,) * n
    s = SemiElement(zero, (2, 1, *range(3, n + 1)))
    t = SemiElement(zero, (n, *range(1, n)))
    g = SemiElement((*zero[1:], 1), tuple(range(1, n + 1)))
    # a = g . t, with g's permutation the identity
    return {"s": s, "t": t, "g": g, "a": SemiElement(g.z, t.s), "b": s}


@lru_cache(maxsize=512)
def _letter_power(n: int, sym: str, exp: int) -> tuple:
    """The kernel entry (table, moves) of `sym^exp` at this n: `_entry` of
    the written-out generator raised by `semidirect._power`, in O(n).

    Cached for the whole process: one verify report at n = 80 reads up
    to about 320 distinct powers, and an entry there holds about 5 KB, so
    512 entries stay under 3 MiB.  An entry is bytes and tuples, which no
    caller can change.  A symbol outside the alphabet is a KeyError.
    """
    return _entry(*_power(_generators(n)[sym], exp))


def _entry(k: Sequence[int], r: Sequence[int]) -> tuple:
    """The product kernel's entry (table, moves) of a right factor (k, r).

    `table` is r as 256 bytes with table[v] = r(v), or None when r fixes
    every point; `moves` are the nonzero (v, k(v)).  A permutation s is
    held as the bytes of its images s(1) .. s(n), which fit since
    n <= MAX_VERIFY_N < 256, and (z, s) . (k, r) = (z + k o s, r o s) is
    then: for each move (v, x), add x to z at the point i with s(i) = v,
    which is s.index(v); and s.translate(table), which is r o s and leaves
    s as it is for a None table.
    """
    table = bytes((0, *r))
    table = None if table == _POINTS[:len(table)] else table.ljust(256, b"\0")
    moves = tuple([(v, x) for v, x in enumerate(k, 1) if x])
    return table, moves


# The bytes 0..255: _POINTS[1:n + 1] is the identity permutation of 1..n.
_POINTS = bytes(range(256))


def eval_word(word: Word, n: int) -> SemiElement:
    """Left-to-right product of generator powers in Z^n x| S_n: the kernel
    that every report calls.

    `word` need not be normalized: equal neighbours and zero exponents are
    evaluated as they stand, which is how the derived identities' letter
    tuples are read.  n is checked before any letter is read.  A symbol
    outside the alphabet raises ValueError, as in `normalize_word`, and an
    exponent is read by the integer rule of `twisted._as_int`, as there
    too: 2.0 is 2 and 1.5 a ValueError.  So the process-wide cache of
    `_letter_power` is keyed by int exponents only, and an unknown symbol,
    hashable or not, or an exponent that is not an integer caches nothing.
    The product is folded into the list z and the bytes s by `_entry`'s
    kernel, so a letter costs one `bytes.translate` and one step per
    nonzero translation entry, and a letter without a permutation or
    without a translation skips that part.
    """
    n = _as_int(n, "n", 2, limits.MAX_VERIFY_N)
    z = [0] * n
    s = _POINTS[1:n + 1]
    sym = SYMBOLS[0]  # a symbol of the alphabet until a letter is unpacked
    try:
        for sym, exp in word:
            if type(exp) is not int:
                exp = _exponent(sym, exp)
            table, moves = _letter_power(n, sym, exp)
            for v, x in moves:
                z[s.index(v)] += x
            if table is not None:
                s = s.translate(table)
    except (KeyError, TypeError, ValueError) as exc:
        # TypeError: the cache hashed an unhashable `sym`; KeyError: no such generator
        if sym not in SYMBOLS:
            raise ValueError(f"unknown symbol {sym!r}") from None
        raise _word_error(exc) from None
    return SemiElement(tuple(z), tuple(s))


class Relation(NamedTuple):
    label: str
    word: Word


@dataclass(frozen=True)
class RelationPreset:
    name: str
    n: int
    relations: tuple[Relation, ...]


_PRESET_MIN_N = {"sn": 4, "three_gen": 4, "two_gen": 2}


def relation_preset(n: int, name: str) -> RelationPreset:
    """Relation families 'sn', 'three_gen', 'two_gen'.

    Each relation is its label text, an L R^-1 word, parsed by `parse_word`:
    the text that `verify-relations` prints is the word it evaluates.
    """
    n = _as_int(n, "n", cap=limits.MAX_VERIFY_N)
    key = name.replace("-", "_").lower() if isinstance(name, str) else None
    least = _PRESET_MIN_N.get(key)
    if least is None:
        raise ValueError(f"unknown preset {name!r}")
    if n < least:
        raise ValueError(f"preset needs n >= {least}, got {n}")
    if key == "two_gen":
        labels = ["b^2"]
        if n > 2:
            labels.append("(b a b a^-1)^3")
        labels += [f"(b a^{k} b a^-{k})^2" for k in range(2, n - 1)]
        labels.append(f"b a^{n} b a^-{n}")
    else:
        labels = ["s^2", "(s t s t^-1)^3"]
        labels += [f"(s t^{m} s t^-{m})^2" for m in range(2, n - 1)]
        labels.append(f"(s t)^{n - 1} t^-{n}")
        if key == "three_gen":
            # g commutes with each conjugate c: g c g^-1 c^-1
            conjugates = ["s"]
            conjugates += [f"t^{k} s t^-{k}" for k in range(1, n - 2)]
            conjugates += [f"t^{l} g t^-{l}" for l in range(1, n)]
            labels += [f"g {c} ({c} g)^-1" for c in conjugates]
    relations = tuple(Relation(label, parse_word(label)) for label in labels)
    return RelationPreset(key, n, relations)


_RELATION_NOTE = (
    "each listed word evaluates to the identity for the concrete generators; "
    "this does not certify that the relation set presents the group"
)


@dataclass(frozen=True)
class RelationCheck:
    label: str
    holds: bool
    value: SemiElement


@dataclass(frozen=True)
class RelationReport:
    preset: str
    n: int
    note: str
    checks: tuple[RelationCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.holds for c in self.checks)


def verify_relations(preset: RelationPreset) -> RelationReport:
    if not isinstance(preset, RelationPreset):
        raise ValueError(
            f"preset must be a RelationPreset, got {type(preset).__name__}")
    ident = semi_identity(preset.n)
    checks = []
    for rel in preset.relations:
        value = eval_word(rel.word, preset.n)
        checks.append(RelationCheck(rel.label, value == ident, value))
    return RelationReport(preset.name, preset.n, _RELATION_NOTE, tuple(checks))


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    instance: str
    holds: bool
    lhs: SemiElement
    rhs: SemiElement


@dataclass(frozen=True)
class IdentityReport:
    n: int
    checks: tuple[IdentityCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.holds for c in self.checks)


def verify_derived_identities(n: int, seed: int = 0, draws: int = 4) -> IdentityReport:
    """Evaluate both sides of the derived word identities and compare.

    For n in {2, 3} only the first two families apply; from n = 4 on the
    full list is checked.  Commutation exponents are drawn from [-5, 5]
    deterministically from `seed`.  Each side is a tuple of letters that
    `eval_word` reads as written.
    """
    n = _as_int(n, "n", 2, limits.MAX_VERIFY_N)
    seed = _as_int(seed, "seed")
    draws = _as_int(draws, "draws", 0, limits.MAX_IDENTITY_DRAWS)
    checks: list[IdentityCheck] = []

    def compare(name: str, instance: str, lhs: Word, rhs: Word) -> None:
        left, right = eval_word(lhs, n), eval_word(rhs, n)
        checks.append(IdentityCheck(name, instance, left == right, left, right))

    for i in range(1, n):
        swap = tuple(
            i + 1 if v == i else i if v == i + 1 else v for v in range(1, n + 1)
        )
        left = eval_word((("t", i - 1), ("s", 1), ("t", 1 - i)), n)
        right = SemiElement((0,) * n, swap)
        checks.append(IdentityCheck(
            "adjacent_swap_conjugate", f"i={i}", left == right, left, right))

    compare("cycle_order", f"t^{n}", (("t", n),), ())

    if n >= 4:
        compare(
            "cycle_from_two_generators", "t",
            (("t", 1),),
            (("a", -1), *(("b", 1), ("a", 1)) * (n - 2), ("b", 1), ("a", 3 - n)),
        )
        compare(
            "translation_from_two_generators", "g",
            (("g", 1),),
            (("a", n - 2), ("b", 1), *(("a", -1), ("b", 1)) * (n - 2), ("a", 1)),
        )
        compare("power_swap", f"a^{n} b = b a^{n}",
                (("a", n), ("b", 1)), (("b", 1), ("a", n)))
        for k in range(2, n - 1):
            compare(
                "prefix_rewrite", f"k={k}",
                (*(("a", -1), ("b", 1)) * (n - k), ("a", n - k), ("b", 1), ("a", -1)),
                (("a", -1), ("b", 1), ("a", 1), ("b", 1), ("a", -2), ("b", 1),
                 *(("a", -1), ("b", 1)) * (n - k - 2), ("a", n - k - 1)),
            )
        rng = random.Random(seed)
        for _ in range(draws):
            alpha = rng.randint(-5, 5)
            beta = rng.randint(-5, 5)
            ga = ("g", alpha)
            for l in range(1, n):
                conj = (("t", l), ("g", beta), ("t", -l))
                compare(
                    "commutation_with_powers",
                    f"g^{alpha} t^{l} g^{beta} t^-{l}",
                    (ga, *conj), (*conj, ga),
                )
            for k in range(0, n - 2):
                conj = (("t", k), ("s", 1), ("t", -k))
                compare(
                    "commutation_with_powers",
                    f"g^{alpha} t^{k} s t^-{k}",
                    (ga, *conj), (*conj, ga),
                )
    return IdentityReport(n, tuple(checks))


def _ext_gcd(x: int, y: int) -> tuple[int, int, int]:
    """(g, p, q) with p*x + q*y = g > 0."""
    old_r, r = x, y
    old_p, p = 1, 0
    old_q, q = 0, 1
    while r:
        quot = old_r // r
        old_r, r = r, old_r - quot * r
        old_p, p = p, old_p - quot * p
        old_q, q = q, old_q - quot * q
    if old_r < 0:
        old_r, old_p, old_q = -old_r, -old_p, -old_q
    return old_r, old_p, old_q


class _IntLattice:
    """Row-echelon accumulator for an integer lattice in Z^n."""

    def __init__(self, n: int):
        self.n = n
        self._rows: dict[int, list[int]] = {}

    def add(self, vec: Sequence[int]) -> None:
        v = list(vec)
        for col in range(self.n):
            if v[col] == 0:
                continue
            row = self._rows.get(col)
            if row is None:
                if v[col] < 0:
                    v = [-x for x in v]
                self._rows[col] = v
                return
            a, c = row[col], v[col]
            if c % a == 0:
                quot = c // a
                v = [y - quot * x for x, y in zip(row, v)]
            else:
                gcd, p, q = _ext_gcd(a, c)
                new_row = [p * x + q * y for x, y in zip(row, v)]
                v = [(a // gcd) * y - (c // gcd) * x for x, y in zip(row, v)]
                self._rows[col] = new_row

    @property
    def rank(self) -> int:
        return len(self._rows)

    def spans_all(self) -> bool:
        """True when the accumulated rows generate all of Z^n."""
        if self.rank != self.n:
            return False
        index = 1
        for col, row in self._rows.items():
            index *= row[col]
        return abs(index) == 1


@dataclass(frozen=True)
class ClosureReport:
    n: int
    generator_count: int
    element_count: int
    closed: bool
    budget: int
    budget_exhausted: bool
    stopped_early: bool
    permutation_count: int
    permutations_complete: bool
    translation_count: int
    translation_rank: int
    translations_span_lattice: bool
    targets_reached: dict[str, bool]


def _closure_layout(n: int, bias: int) -> tuple[tuple[int, ...], int]:
    """The place values R**0..R**(n-1) of the translation digits of a
    `generated_closure` key, and R**n, the place of its permutation id, for
    the odd radix R = 2 * bias + 1."""
    radix = 2 * bias + 1
    return tuple(radix**i for i in range(n)), radix**n


def generated_closure(
    images: Iterable[SemiElement],
    budget: int | None = None,
    targets: Mapping[str, SemiElement] | None = None,
    stop_early: bool = False,
) -> ClosureReport:
    """Breadth-first closure of the identity under images and their inverses.

    Reports how much of S_n the permutation parts cover and the integer
    lattice spanned by the pure translations reached.  With stop_early the
    walk halts as soon as every target element has been seen and the pure
    translations already have full rank; exhausting the element budget is
    reported, not raised.  The budget defaults to `limits.MAX_CLOSURE_BUDGET`
    as it is at the time of the call.

    `images` may be any iterable of (z, s) pairs and `targets` any mapping
    of names to them.  A target is a query: it is read by the rule of
    `_checked`, and one the rule refuses, or with an entry of z beyond the
    walk's reach, is reported as not reached.  Only a target that is not a
    pair is a ValueError.
    """
    try:
        images = tuple(images)
    except TypeError:
        raise ValueError(f"images is not a sequence: {images!r}") from None
    if not images:
        raise ValueError("need at least one generator image")
    try:
        target_items = dict({} if targets is None else targets)
    except (TypeError, ValueError):
        raise ValueError(f"targets is not a mapping: {targets!r}") from None
    budget = _as_int(limits.MAX_CLOSURE_BUDGET if budget is None else budget,
                     "budget", 1, limits.MAX_CLOSURE_BUDGET)
    n = _as_int(len(_checked(images[0], "generator image")[1]), "n",
                cap=limits.MAX_VERIFY_N)
    gens: list[SemiElement] = []
    for img in images:
        img = SemiElement(*_checked(img, "generator image", n))
        for candidate in (img, _power(img, -1)):
            if candidate not in gens:
                gens.append(candidate)
    lattice = _IntLattice(n)

    # Each element (z, s) of the walk is one int key.  The permutation s is
    # interned to a small id, and the key holds z_i + bias and the id as the
    # digits of a mixed radix with the odd base R = 2 * bias + 1:
    #
    #     key = sum_i (z_i + bias) * R**i  +  id * R**n
    #
    # The product (z, s) . (k, r) = (z + k o s, r o s) changes the key by an
    # amount that depends on s and the generator (k, r) only: the digits of
    # k o s plus the change of id from s to r o s.  steps[id] holds that
    # difference for every generator, filled when an element with this
    # permutation is first popped, so a step is one int addition.  A key
    # below R**n has id 0: a pure translation.
    #
    # Digit range: a step changes z_i by an entry of a generator translation,
    # so by at most M = max |k_i|.  Every visited element, and every
    # candidate step from one, is at most `budget` steps from the identity,
    # so |z_i| <= budget * M = bias, and z_i + bias is a digit in [0, R); no
    # digit carries into the next and the addition is exact.  An odd base,
    # unlike a power of two, spreads every digit and the id over the low
    # bits of the key's hash, from which a set takes its first probe slot.
    bias = budget * max((abs(x) for k, _ in gens for x in k), default=0)
    radix = 2 * bias + 1
    places, pure = _closure_layout(n, bias)
    # A permutation s is stored as bytes and each generator as its kernel
    # entry (table, moves), as in `eval_word`: r o s is s.translate(table), and
    # digit i of k o s is k_{s(i)}, so move (v, k_v) lands in digit
    # s.index(v).
    tables = [_entry(k, r) for k, r in gens]

    # Each target waits here, as the digits of its z under the bytes of its
    # s, until the walk interns s; it then moves to target_keys under its
    # whole key.  A target the rule refuses, or with some |z_i| > bias, is no
    # element of the walk: it waits nowhere and stays unreached.
    reached = dict.fromkeys(target_items, False)
    pending_targets: dict[bytes, list[tuple[int, str]]] = {}
    for name, target in target_items.items():
        try:
            z, s = target
        except (TypeError, ValueError):
            raise ValueError(
                f"target {name!r} is not a (z, s) pair: {target!r}") from None
        try:
            s = check_permutation(s, n)
            z = as_vector(z, n)
        except ValueError:
            continue
        if max(map(abs, z)) <= bias:
            digits = sum((x + bias) * place for x, place in zip(z, places))
            pending_targets.setdefault(bytes(s), []).append((digits, name))
    target_keys: dict[int, list[str]] = {}

    perms: list[bytes] = []
    perm_ids: dict[bytes, int] = {}
    steps: list[list[int]] = []
    visited: set[int] = set()

    def intern(perm: bytes) -> int:
        pid = perm_ids.get(perm)
        if pid is None:
            pid = perm_ids[perm] = len(perms)
            perms.append(perm)
            steps.append([])
            for digits, name in pending_targets.pop(perm, ()):
                target_keys.setdefault(digits + pid * pure, []).append(name)
        return pid

    def fill(pid: int, row: list[int]) -> None:
        s = perms[pid]
        for table, moves in tables:
            delta = (intern(s.translate(table)) - pid) * pure
            for v, x in moves:
                delta += x * places[s.index(v)]
            row.append(delta)

    def goal_met() -> bool:
        return (
            stop_early
            and bool(target_items)
            and all(reached.values())
            and lattice.rank == n
        )

    # The start is the identity: id 0 and every digit z_i + bias = bias.
    intern(bytes(range(1, n + 1)))
    start = bias * sum(places)
    for name in target_keys.pop(start, ()):
        reached[name] = True
    visited.add(start)
    queue = deque([start])
    translation_count = 0
    spanned = False
    budget_exhausted = False
    stopped_early = False
    filled = (None, 0)  # the key whose pop last filled a row, and len(perms) before

    while queue and not budget_exhausted and not stopped_early:
        key = queue.popleft()
        pid = key // pure
        row = steps[pid]
        if not row:
            filled = (key, len(perms))
            fill(pid, row)
        for delta in row:
            h = key + delta
            if h in visited:
                continue
            if len(visited) >= budget:
                budget_exhausted = True
                break
            visited.add(h)
            queue.append(h)
            event = False
            if h < pure:
                # A new element over the identity permutation is never the
                # identity itself, so it is a nonzero pure translation.
                translation_count += 1
                # once the translations span Z^n, an add changes nothing
                if not spanned:
                    rank = lattice.rank
                    lattice.add([h // place % radix - bias for place in places])
                    event = lattice.rank > rank
                    spanned = lattice.spans_all()
            if target_keys and h in target_keys:
                for name in target_keys.pop(h):
                    reached[name] = True
                event = True
            if event and goal_met():
                stopped_early = True
                break

    permutation_count = len(perms)
    if (budget_exhausted or stopped_early) and filled[0] == key:
        # The walk was cut in the pop that filled its row, so the fill may
        # have interned permutations of steps never taken.  New ids follow
        # the row's order, so count those of the steps taken: all before h,
        # and h itself when it was added.
        taken = row[:row.index(h - key) + stopped_early]
        permutation_count = max([filled[1]] + [(key + d) // pure + 1 for d in taken])

    return ClosureReport(
        n=n,
        generator_count=len(images),
        element_count=len(visited),
        closed=not queue and not budget_exhausted and not stopped_early,
        budget=budget,
        budget_exhausted=budget_exhausted,
        stopped_early=stopped_early,
        permutation_count=permutation_count,
        permutations_complete=permutation_count == math.factorial(n),
        translation_count=translation_count,
        translation_rank=lattice.rank,
        translations_span_lattice=lattice.spans_all(),
        targets_reached=reached,
    )
