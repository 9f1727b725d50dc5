"""Word parsing, relation presets, derived identities, closure search."""

import math
import random
import re
import time
import tracemalloc
from collections import deque
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from latticetwist import limits, semidirect, words
from latticetwist.limits import BudgetExceededError
from latticetwist.semidirect import (
    SemiElement,
    _mul,
    identity_perm,
    semi_identity,
    semi_inverse,
    semi_multiply,
)
from latticetwist.words import (
    ClosureReport,
    IdentityCheck,
    IdentityReport,
    Relation,
    RelationPreset,
    SYMBOLS,
    WordSyntaxError,
    eval_word,
    generated_closure,
    letter,
    normalize_word,
    parse_word,
    relation_preset,
    render_word,
    standard_generators,
    verify_derived_identities,
    verify_relations,
    word_concat,
    word_inverse,
    word_power,
    _IntLattice,
    _letter_power,
)
from test_semidirect import square_and_multiply


def ext_gcd(x, y):
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


class LatticeOracle:
    """`_IntLattice` as it was before its Euclid loop: an exact quotient
    clears a column, and any other pivot pair is replaced by its gcd row
    from `ext_gcd` and a cleared row."""

    def __init__(self, n):
        self.n = n
        self._rows = {}

    def add(self, vec):
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
                gcd, p, q = ext_gcd(a, c)
                new_row = [p * x + q * y for x, y in zip(row, v)]
                v = [(a // gcd) * y - (c // gcd) * x for x, y in zip(row, v)]
                self._rows[col] = new_row

    @property
    def rank(self):
        return len(self._rows)

    def spans_all(self):
        if self.rank != self.n:
            return False
        index = 1
        for col, row in self._rows.items():
            index *= row[col]
        return abs(index) == 1


def closure_oracle(images, budget=limits.MAX_CLOSURE_BUDGET, targets=None,
                   stop_early=False):
    """Reference breadth-first closure on whole elements, one product each.

    Every element is stored as a (z, s) pair, every step is the product
    (z, s) . (k, r) = (z + k o s, r o s) written out, and the stop-early
    goal is tested after every new element.
    """
    return _oracle_walk(images, budget, targets, stop_early)[0]


def _oracle_walk(images, budget=limits.MAX_CLOSURE_BUDGET, targets=None,
                 stop_early=False):
    """`closure_oracle`'s report, the elements it visited in the order it
    visited them, and whether the walk was cut in the first pop of an
    element with its permutation."""
    n = len(images[0].z)
    gens = []
    for img in images:
        for candidate in (img, semi_inverse(img)):
            if candidate not in gens:
                gens.append(candidate)
    ident = semi_identity(n)
    # Each target as a pair of tuples, which equals the element it names
    # however its parts are held; one whose parts are not iterable is no
    # element, and is never reached.
    target_items = {}
    for name, (z, s) in dict(targets or {}).items():
        try:
            target_items[name] = (tuple(z), tuple(s))
        except TypeError:
            target_items[name] = None
    reached = {name: el == ident for name, el in target_items.items()}
    lattice = LatticeOracle(n)
    translations = set()
    visited = {ident}
    order = [ident]
    queue = deque([ident])
    perms = {ident.s}
    popped_perms = set()
    budget_exhausted = False
    stopped_early = False

    def goal_met():
        return (stop_early and bool(target_items) and all(reached.values())
                and lattice.rank == n)

    while queue and not budget_exhausted and not stopped_early:
        z, s = queue.popleft()
        first_pop = s not in popped_perms
        popped_perms.add(s)
        for k, r in gens:
            nz = tuple(z[i] + k[s[i] - 1] for i in range(n))
            ns = tuple(r[s[i] - 1] for i in range(n))
            h = SemiElement(nz, ns)
            if h in visited:
                continue
            if len(visited) >= budget:
                budget_exhausted = True
                break
            visited.add(h)
            order.append(h)
            queue.append(h)
            perms.add(ns)
            if ns == ident.s and any(nz):
                translations.add(nz)
                lattice.add(nz)
            for name, el in target_items.items():
                if not reached[name] and h == el:
                    reached[name] = True
            if goal_met():
                stopped_early = True
                break

    report = ClosureReport(
        n=n,
        generator_count=len(images),
        element_count=len(visited),
        closed=not queue and not budget_exhausted and not stopped_early,
        budget=budget,
        budget_exhausted=budget_exhausted,
        stopped_early=stopped_early,
        permutation_count=len(perms),
        permutations_complete=len(perms) == math.factorial(n),
        translation_count=len(translations),
        translation_rank=lattice.rank,
        translations_span_lattice=lattice.spans_all(),
        targets_reached=reached,
    )
    cut = budget_exhausted or stopped_early
    return report, order, cut and first_pop


def _commutator(x, y):
    return word_concat(x, y, word_inverse(x), word_inverse(y))


def _conjugate(by, x):
    return word_concat(by, x, word_inverse(by))


def _sn_relations(n):
    if n < 4:
        raise ValueError(f"preset needs n >= 4, got {n}")
    s, t = letter("s"), letter("t")
    rels = [
        Relation("s^2", word_power(s, 2)),
        Relation("(s t s t^-1)^3",
                 word_power(word_concat(s, t, s, letter("t", -1)), 3)),
    ]
    for m in range(2, n - 1):
        rels.append(Relation(
            f"(s t^{m} s t^-{m})^2",
            word_power(word_concat(s, letter("t", m), s, letter("t", -m)), 2),
        ))
    rels.append(Relation(
        f"(s t)^{n - 1} t^-{n}",
        word_concat(word_power(word_concat(s, t), n - 1), letter("t", -n)),
    ))
    return tuple(rels)


def _gamma_relations(n):
    if n < 4:
        raise ValueError(f"preset needs n >= 4, got {n}")
    s, g = letter("s"), letter("g")
    rels = []
    for k in range(0, n - 2):
        conj = _conjugate(letter("t", k), s)
        text = f"t^{k} s t^-{k}" if k else "s"
        rels.append(Relation(
            f"g {text} ({text} g)^-1", _commutator(g, conj)))
    for l in range(1, n):
        conj = _conjugate(letter("t", l), g)
        text = f"t^{l} g t^-{l}"
        rels.append(Relation(
            f"g {text} ({text} g)^-1", _commutator(g, conj)))
    return tuple(rels)


def _two_gen_relations(n):
    if n < 2:
        raise ValueError(f"preset needs n >= 2, got {n}")
    a, b = letter("a"), letter("b")
    square = Relation("b^2", word_power(b, 2))
    if n == 2:
        return (
            square,
            Relation("b a^2 b a^-2",
                     word_concat(b, letter("a", 2), b, letter("a", -2))),
        )
    braid = Relation(
        "(b a b a^-1)^3",
        word_power(word_concat(b, a, b, letter("a", -1)), 3),
    )
    if n == 3:
        return (
            square,
            braid,
            Relation("b a^3 b a^-3",
                     word_concat(b, letter("a", 3), b, letter("a", -3))),
        )
    rels = [square, braid]
    for k in range(2, n - 1):
        rels.append(Relation(
            f"(b a^{k} b a^-{k})^2",
            word_power(word_concat(b, letter("a", k), b, letter("a", -k)), 2),
        ))
    rels.append(Relation(
        f"b a^{n} b a^-{n}",
        word_concat(b, letter("a", n), b, letter("a", -n)),
    ))
    return tuple(rels)


def preset_oracle(n, name):
    """Reference relation presets, each word built by concatenation and
    powers rather than parsed from its label."""
    if n > limits.MAX_VERIFY_N:
        raise BudgetExceededError(f"n={n} exceeds the cap {limits.MAX_VERIFY_N}")
    key = name.replace("-", "_").lower()
    if key == "sn":
        return RelationPreset("sn", n, _sn_relations(n))
    if key == "three_gen":
        rels = _sn_relations(n) + _gamma_relations(n)
        return RelationPreset("three_gen", n, rels)
    if key == "two_gen":
        return RelationPreset("two_gen", n, _two_gen_relations(n))
    raise ValueError(f"unknown preset {name!r}")


def identities_oracle(n, seed=0, draws=4):
    """Reference derived identities: the checks `verify_derived_identities`
    makes, each side built by `letter`/`word_concat`/`word_power` calls,
    so normalized, rather than written as a tuple of letters."""
    checks = []

    def compare(name, instance, lhs, rhs):
        left, right = eval_word(lhs, n), eval_word(rhs, n)
        checks.append(IdentityCheck(name, instance, left == right, left, right))

    s, t, g, a, b = (letter(x) for x in "stgab")

    for i in range(1, n):
        swap = tuple(
            i + 1 if v == i else i if v == i + 1 else v for v in range(1, n + 1)
        )
        lhs = word_concat(letter("t", i - 1), s, letter("t", 1 - i))
        left = eval_word(lhs, n)
        right = SemiElement((0,) * n, swap)
        checks.append(IdentityCheck(
            "adjacent_swap_conjugate", f"i={i}", left == right, left, right))

    compare("cycle_order", f"t^{n}", word_power(t, n), ())

    if n >= 4:
        compare(
            "cycle_from_two_generators", "t",
            t,
            word_concat(letter("a", -1), word_power(word_concat(b, a), n - 2),
                        b, letter("a", 3 - n)),
        )
        compare(
            "translation_from_two_generators", "g",
            g,
            word_concat(letter("a", n - 2), b,
                        word_power(word_concat(letter("a", -1), b), n - 2), a),
        )
        compare("power_swap", f"a^{n} b = b a^{n}",
                word_concat(letter("a", n), b), word_concat(b, letter("a", n)))
        for k in range(2, n - 1):
            compare(
                "prefix_rewrite", f"k={k}",
                word_concat(word_power(word_concat(letter("a", -1), b), n - k),
                            letter("a", n - k), b, letter("a", -1)),
                word_concat(letter("a", -1), b, a, b, letter("a", -2), b,
                            word_power(word_concat(letter("a", -1), b), n - k - 2),
                            letter("a", n - k - 1)),
            )
        rng = random.Random(seed)
        for _ in range(draws):
            alpha = rng.randint(-5, 5)
            beta = rng.randint(-5, 5)
            ga, gb = letter("g", alpha), letter("g", beta)
            for l in range(1, n):
                conj = _conjugate(letter("t", l), gb)
                compare(
                    "commutation_with_powers",
                    f"g^{alpha} t^{l} g^{beta} t^-{l}",
                    word_concat(ga, conj), word_concat(conj, ga),
                )
            for k in range(0, n - 2):
                conj = _conjugate(letter("t", k), s)
                compare(
                    "commutation_with_powers",
                    f"g^{alpha} t^{k} s t^-{k}",
                    word_concat(ga, conj), word_concat(conj, ga),
                )
    return IdentityReport(n, tuple(checks))


_ORACLE_TOKEN = re.compile(r"\s*(?:(?P<lpar>\()|(?P<rpar>\))|(?P<hat>\^)"
                           r"|(?P<int>-?\d+)|(?P<sym>[stgab]))")


def parse_oracle(text):
    """Reference recursive-descent parser for the word grammar.

    Tokenizes the whole text first (so a bad character is reported before
    any syntax error), then descends one call per parenthesis; the letter
    cap is checked before each group is expanded and on the whole word.
    """
    tokens = []
    i = 0
    while i < len(text):
        m = _ORACLE_TOKEN.match(text, i)
        if m is None:
            stripped = text[i:].lstrip()
            if not stripped:
                break
            raise WordSyntaxError(f"unexpected character {stripped[0]!r}",
                                  len(text) - len(stripped))
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        i = m.end()

    def exponent(i):
        if i < len(tokens) and tokens[i][0] == "hat":
            if i + 1 >= len(tokens) or tokens[i + 1][0] != "int":
                raise WordSyntaxError("'^' must be followed by an integer",
                                      tokens[i][2])
            try:
                exp = int(tokens[i + 1][1])
            except ValueError:  # more digits than `int` converts
                raise WordSyntaxError("exponent has too many digits",
                                      tokens[i + 1][2]) from None
            if exp == 0:
                raise WordSyntaxError("zero exponent", tokens[i + 1][2])
            return exp, i + 2
        return 1, i

    def sequence(i, depth):
        letters = []
        while i < len(tokens):
            kind, value, pos = tokens[i]
            if kind == "rpar":
                if depth == 0:
                    raise WordSyntaxError("unmatched ')'", pos)
                return letters, i
            if kind == "sym":
                exp, i = exponent(i + 1)
                letters.append((value, exp))
            elif kind == "lpar":
                inner, j = sequence(i + 1, depth + 1)
                if j >= len(tokens) or tokens[j][0] != "rpar":
                    raise WordSyntaxError("missing ')'", len(text))
                if not inner:
                    raise WordSyntaxError("empty parentheses", pos)
                exp, i = exponent(j + 1)
                count = len(letters) + len(inner) * abs(exp)
                if count > limits.MAX_WORD_LETTERS:
                    raise BudgetExceededError(
                        f"word expands to {count} letters, over the cap "
                        f"{limits.MAX_WORD_LETTERS}")
                if exp < 0:
                    inner = [(sym, -e) for sym, e in reversed(inner)]
                for _ in range(abs(exp)):
                    letters.extend(inner)
            else:
                raise WordSyntaxError(f"unexpected token {value!r}", pos)
        if depth != 0:
            raise WordSyntaxError("missing ')'", len(text))
        return letters, i

    letters = sequence(0, 0)[0]
    if len(letters) > limits.MAX_WORD_LETTERS:
        raise BudgetExceededError(
            f"word expands to {len(letters)} letters, over the cap "
            f"{limits.MAX_WORD_LETTERS}")
    return normalize_word(letters)


def parse_outcome(parse, text):
    """The word, or the error's type and message (the message carries the
    position of a syntax error)."""
    try:
        return parse(text)
    except (WordSyntaxError, BudgetExceededError) as exc:
        return type(exc).__name__, str(exc), getattr(exc, "position", None)


# Pieces of text over the token alphabet and a few characters outside it.
_PIECES = ["s", "t", "g", "a", "b", "(", ")", "(", ")", "()", "^", "^", "-",
           "0", "1", "-1", "^0", "s^0", "(s)^0", "^-2", "^3", "^12", " ", " ",
           "\t", "x", "é"]


def powers():
    """An optional power suffix: '', '^k' or ' ^ k' with 0 < |k| <= 5."""
    return st.tuples(
        st.integers(-5, 5).filter(bool),
        st.sampled_from(["", "^", " ^ "])).map(
            lambda e: "" if not e[1] else f"{e[1]}{e[0]}")


def word_texts():
    """Texts of valid words: symbols and nested groups, each optionally
    powered, joined with whitespace."""
    powered = powers()
    atom = st.tuples(st.sampled_from("stgab"), powered).map("".join)
    return st.recursive(
        atom,
        lambda inner: st.tuples(st.lists(inner, min_size=1, max_size=4),
                                powered).map(
            lambda p: f"({' '.join(p[0])}){p[1]}"),
        max_leaves=12)


def chain_texts():
    """A word text inside a chain of one-term groups, each optionally
    powered."""
    return st.tuples(word_texts(), st.lists(powers(), max_size=30)).map(
        lambda p: "(" * len(p[1]) + p[0] + "".join(f"){e}" for e in p[1]))


def semi_elements(n, lo=-2, hi=2):
    return st.tuples(
        st.tuples(*[st.integers(lo, hi)] * n),
        st.permutations(range(1, n + 1)),
    ).map(lambda pair: SemiElement(pair[0], tuple(pair[1])))


def raw_words(n, max_size=12):
    """Words over stgab as given, not normalized: equal neighbours and zero
    exponents stay, some letters are lists, and the exponents include 0,
    +-1, +-n and +-10^9."""
    exps = st.one_of(st.sampled_from([0, 1, -1, n, -n, 10**9, -10**9]),
                     st.integers(-2 * n, 2 * n))
    letters = st.tuples(st.sampled_from("stgab"), exps, st.booleans()).map(
        lambda l: [l[0], l[1]] if l[2] else l[:2])
    return st.lists(letters, max_size=max_size).map(tuple)


def generators_oracle(n):
    """Oracle for `standard_generators`: the five generators written out as
    elements, a as the product g . t."""
    zero = (0,) * n
    sigma = SemiElement(zero, (2, 1, *range(3, n + 1)))
    tau = SemiElement(zero, (n, *range(1, n)))
    gamma = SemiElement((*((0,) * (n - 1)), 1), identity_perm(n))
    a = _mul(gamma, tau)
    return {"s": sigma, "t": tau, "g": gamma, "a": a, "b": sigma}


def mul_fold_oracle(word, n):
    """Oracle for `eval_word`: the per-letter left fold over
    `generators_oracle(n)`, each letter's power built afresh by
    `square_and_multiply` and multiplied in with `_mul`."""
    gens = generators_oracle(n)
    acc = semi_identity(n)
    for sym, exp in word:
        if sym not in gens:
            raise ValueError(f"unknown symbol {sym!r}")
        acc = _mul(acc, square_and_multiply(gens[sym], exp))
    return acc


def list_fold_oracle(word, n, powers):
    """Oracle for `eval_word`: the fold over lists, on a table of powers (k, r)
    that the caller holds, not the kernel's cache, each 0-padded for
    1-based indexing and built by `square_and_multiply` on
    `generators_oracle(n)`, k None when it is zero and r None when it
    fixes every point.

    (z, s) . (k, r) = (z + k o s, r o s), skipping the pass over z when k is
    None and the one over s when r is."""
    gens = generators_oracle(n)
    ident = identity_perm(n)
    z = [0] * n
    s = list(range(1, n + 1))
    for sym, exp in word:
        entry = powers.get((sym, exp))
        if entry is None:
            k, r = square_and_multiply(gens[sym], exp)
            entry = powers[sym, exp] = ((0, *k) if any(k) else None,
                                        None if r == ident else (0, *r))
        k, r = entry
        if k is not None:
            z = [a + k[v] for a, v in zip(z, s)]
        if r is not None:
            s = [r[v] for v in s]
    return SemiElement(tuple(z), tuple(s))


def closed_form_power(n, sym, exp):
    """Oracle for `_letter_power`: the power (k, r) of a generator, written
    out from its closed form.  Under (z, s) . (k, r) = (z + k o s, r o s):

        s, b : the swap of 1 and 2 when exp is odd, else the identity
        t    : r(v) = 1 + ((v - 1 - exp) mod n)
        g    : exp at point n, identity permutation
        a    : r as for t; for exp > 0, k(v) is the number of j in
               [0, exp) with j = v (mod n), so q + [v mod n < m] with
               (q, m) = divmod(exp, n); for exp < 0, a^exp inverts
               a^|exp|, and k(v) = -(q + [(v + |exp|) mod n < m]) with
               (q, m) = divmod(|exp|, n).
    """
    points = range(1, n + 1)
    zero = (0,) * n
    if sym in "sb":
        return zero, (2, 1, *points[2:]) if exp & 1 else tuple(points)
    if sym == "g":
        return (*zero[1:], exp), tuple(points)
    r = tuple(1 + (v - 1 - exp) % n for v in points)
    if sym == "t":
        return zero, r
    q, m = divmod(abs(exp), n)
    if exp > 0:
        return tuple(q + (v % n < m) for v in points), r
    return tuple(-q - ((v + m) % n < m) for v in points), r


def entry_oracle(k, r):
    """The kernel entry (table, moves) of (k, r), written out: no table for
    the identity r and only the nonzero moves."""
    n = len(r)
    table = None if r == identity_perm(n) else bytes((0, *r)) + bytes(255 - n)
    return table, tuple([(v, x) for v, x in enumerate(k, 1) if x])


def words_in(symbols="stgab", max_exp=4, max_size=8):
    return st.lists(
        st.tuples(st.sampled_from(symbols),
                  st.integers(-max_exp, max_exp).filter(lambda x: x != 0)),
        max_size=max_size).map(tuple)


class TestWordAlgebra:
    def test_normalize_merges_and_cancels(self):
        assert normalize_word([("s", 1), ("s", 1)]) == (("s", 2),)
        assert normalize_word([("s", 1), ("s", -1)]) == ()
        assert normalize_word([("s", 1), ("t", 0), ("t", 2)]) == (
            ("s", 1), ("t", 2))
        assert normalize_word([("s", 1), ("t", 2), ("t", -2), ("s", 1)]) == (
            ("s", 2),)

    def test_normalize_rejects_unknown_symbols(self):
        with pytest.raises(ValueError):
            normalize_word([("q", 1)])

    def test_inverse_reverses_and_negates(self):
        w = (("s", 1), ("t", 2))
        assert word_inverse(w) == (("t", -2), ("s", -1))
        assert normalize_word(word_concat(w, word_inverse(w))) == ()

    def test_power(self):
        w = (("s", 1), ("t", 1))
        assert word_power(w, 0) == ()
        assert word_power(w, 2) == (("s", 1), ("t", 1), ("s", 1), ("t", 1))
        assert word_power(w, -1) == (("t", -1), ("s", -1))

    @pytest.mark.parametrize("call, message", [
        (lambda: normalize_word(None), None),
        (lambda: normalize_word([5]), None),
        (lambda: word_concat(None), None),
        (lambda: word_concat((("s", 1),), [5]), None),
        (lambda: word_inverse(None), None),
        (lambda: word_power(5, 5), None),
        (lambda: word_power(None, -2), None),
        (lambda: render_word(None), None),
        (lambda: eval_word(None, 5), None),
        (lambda: eval_word([5], 4), None),
        (lambda: eval_word([("s", 1), 5], 4), None),
        (lambda: eval_word({"s": 1}, 4), None),
        (lambda: eval_word([("s", 1, 2)], 4), None),
        (lambda: word_power("st", 2), None),
        (lambda: normalize_word([("s",)]), None),
        (lambda: word_inverse({"s": 1}), None),
        (lambda: render_word("st"), None),
        (lambda: verify_relations(None),
         "^preset must be a RelationPreset, got NoneType$"),
    ])
    def test_what_is_not_a_word_is_a_value_error(self, call, message):
        with pytest.raises(ValueError, match=message or (
                r"^word must be a sequence of \(symbol, exponent\) letters$")):
            call()

    @pytest.mark.parametrize("bad", [
        ("q", 1), ("s", 1.5), ("s", None), ("s", "2"), (["s"], 1), ("q", 1.5)])
    def test_every_reader_refuses_a_letter_as_normalize_word_does(self, bad):
        with pytest.raises(ValueError) as want:
            normalize_word([bad])
        message = "^" + re.escape(str(want.value)) + "$"
        for read in (word_inverse, render_word, lambda w: eval_word(w, 4)):
            with pytest.raises(ValueError, match=message):
                read([("s", 1), bad])

    def test_inverse_and_render_read_exponents_by_the_integer_rule(self):
        assert word_inverse([("s", 2.0), ("t", True)]) == (("t", -1), ("s", -2))
        assert render_word([("s", 2.0), ("t", Fraction(1))]) == "s^2 t"


class TestParser:
    def test_seven_letters_after_normalization(self):
        word = parse_word("a^-1 (b a)^2 b a^-1")
        assert word == (
            ("a", -1), ("b", 1), ("a", 1), ("b", 1),
            ("a", 1), ("b", 1), ("a", -1),
        )
        assert len(word) == 7

    def test_adjacent_powers_merge(self):
        assert parse_word("t^2 t^3") == (("t", 5),)
        assert parse_word("s s^-1") == ()

    def test_negative_group_exponent_inverts(self):
        assert parse_word("(s t)^-1") == (("t", -1), ("s", -1))

    def test_nested_groups(self):
        assert parse_word("((s t)^2 g)^-1") == (
            ("g", -1), ("t", -1), ("s", -1), ("t", -1), ("s", -1))

    def test_zero_exponent_position(self):
        with pytest.raises(WordSyntaxError) as info:
            parse_word("t^0")
        assert info.value.position == 2

    def test_exponent_with_too_many_digits_position(self):
        with pytest.raises(WordSyntaxError, match="too many digits") as info:
            parse_word("t^" + "1" * 5000)
        assert info.value.position == 2

    def test_unknown_character_position(self):
        with pytest.raises(WordSyntaxError) as info:
            parse_word("s x")
        assert info.value.position == 2

    def test_unmatched_parens(self):
        with pytest.raises(WordSyntaxError):
            parse_word("(s t")
        with pytest.raises(WordSyntaxError):
            parse_word("s)")
        with pytest.raises(WordSyntaxError):
            parse_word("()")

    def test_dangling_caret(self):
        with pytest.raises(WordSyntaxError):
            parse_word("s^")
        with pytest.raises(WordSyntaxError):
            parse_word("s^t")

    def test_bare_integer_rejected(self):
        with pytest.raises(WordSyntaxError):
            parse_word("3")

    @given(st.lists(
        st.tuples(st.sampled_from("stgab"), st.integers(-4, 4)), max_size=8))
    @example([("s", 0), ("t", 2)])
    def test_render_parse_roundtrip(self, letters):
        # any letter list, zero exponents and equal neighbours included
        word = normalize_word(letters)
        assert parse_word(render_word(word)) == word
        assert parse_word(render_word(letters)) == word

    @settings(max_examples=400, deadline=None)
    @given(st.one_of(
        st.lists(st.sampled_from(_PIECES), max_size=30).map("".join),
        st.lists(word_texts(), max_size=4).map(" ".join),
        st.tuples(word_texts(), st.sampled_from(_PIECES), word_texts()).map(
            " ".join),
        st.text(max_size=12),
        chain_texts()))
    # the cap counts only the letters of the enclosing group: 88, not 87
    @example("s " * 56 + "(t (s)^30 t)")
    # more digits than `int` converts
    @example("t^" + "1" * 5000)
    def test_matches_recursive_oracle(self, text):
        # a low cap makes refusals common among the nested powered words
        with mock.patch.object(limits, "MAX_WORD_LETTERS", 60):
            assert parse_outcome(parse_word, text) == parse_outcome(
                parse_oracle, text)

    def test_long_texts_match_the_recursive_oracle(self):
        # texts of more than 4096 characters, with the token of interest
        # starting at or near offset 4096; some end with a bad character
        tails = ["t^-12345 s", "t^" + "7" * 4200 + " s^-1",
                 "(s t)^-" + "1" * 5000 + " s", "t ^ -3", "t^-",
                 "t^- 3", "t^ s", "s ^0", "-3 s", "- 3", "é t", "s x",
                 "(s t)^-10 ) s", "(s (t g)^-2 a)^3 b^-1 ("]
        piece = 4096
        checked = 0
        for tail in tails:
            for shift in range(-8, 5):
                head = "s " * ((piece + shift) // 2) + " " * ((piece + shift) % 2)
                for end in (" s t g a b", " s t g a x", "é s t g a b"):
                    text = head + tail + end
                    assert len(text) > piece
                    assert parse_outcome(parse_word, text) == parse_outcome(
                        parse_oracle, text), (tail, shift, end)
                    checked += 1
        assert checked == len(tails) * 13 * 3

    def test_text_that_is_not_a_str_is_refused(self):
        for text, shown in [(None, "None"), (5, "5"), (b"s t", "b's t'")]:
            with pytest.raises(ValueError) as info:
                parse_word(text)
            assert str(info.value) == f"word text is not a str: {shown}"

    def test_nesting_depth_is_bounded_only_by_text_length(self):
        deep = "(" * 5000 + "s t" + ")" * 5000
        assert parse_word(deep + "^2") == (
            ("s", 1), ("t", 1), ("s", 1), ("t", 1))
        with pytest.raises(WordSyntaxError) as info:
            parse_word(deep[:-1])
        assert info.value.position == len(deep) - 1
        inverted = "(" * 5001 + "s t" + ")^-1" * 5001
        assert parse_word(inverted) == (("t", -1), ("s", -1))

    def test_cost_does_not_grow_with_depth_times_length(self):
        # 20000 levels around 40000 letters, or under a power of 10^6:
        # copying the letters per level, or walking the chain of one-term
        # groups once per copy, would take minutes
        cases = [
            ("(" * 20000 + "s t " * 20000 + ")^-1" * 20000,
             (("s", 1), ("t", 1)) * 20000),
            ("(" * 20000 + "s" + ")" * 20000 + "^1000000",
             (("s", 1000000),)),
            ("(" * 20001 + "s t^-1" + ")^-1" * 20000 + ")^500000",
             (("s", 1), ("t", -1)) * 500000),
        ]
        for text, word in cases:
            start = time.perf_counter()
            assert parse_word(text) == word
            assert time.perf_counter() - start < 5


class TestGenerators:
    def test_concrete_values_at_n4(self):
        gens = standard_generators(4)
        zero = (0, 0, 0, 0)
        assert gens["s"] == SemiElement(zero, (2, 1, 3, 4))
        assert gens["t"] == SemiElement(zero, (4, 1, 2, 3))
        assert gens["g"] == SemiElement((0, 0, 0, 1), (1, 2, 3, 4))
        assert gens["a"] == SemiElement((0, 0, 0, 1), (4, 1, 2, 3))
        assert gens["b"] == gens["s"]

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            standard_generators(1)

    def test_eval_word(self):
        assert eval_word(parse_word("t^4"), 4) == semi_identity(4)
        assert eval_word(parse_word("a"), 4) == standard_generators(4)["a"]
        assert eval_word((), 4) == semi_identity(4)

    def test_a_equals_g_times_t(self):
        for n in (2, 3, 4, 5):
            assert eval_word(parse_word("g t"), n) == standard_generators(n)["a"]

    def test_cycle_recovered_from_two_generators(self):
        word = parse_word("a^-1 (b a)^2 b a^-1")
        assert eval_word(word, 4) == standard_generators(4)["t"]

    @given(st.integers(2, 6), words_in())
    def test_eval_word_is_left_to_right_product(self, n, word):
        gens = standard_generators(n)
        expect = semi_identity(n)
        for sym, exp in word:
            factor = gens[sym] if exp > 0 else semi_inverse(gens[sym])
            for _ in range(abs(exp)):
                expect = semi_multiply(expect, factor)
        assert eval_word(word, n) == expect

    def test_unknown_symbol_is_a_value_error(self):
        with pytest.raises(ValueError, match="'q'"):
            eval_word((("q", 1),), 4)
        with pytest.raises(ValueError):
            eval_word((("s", 1), ("x", -2)), 4)

    def test_matches_the_written_out_generators(self):
        for n in (*range(2, 13), 80):
            assert standard_generators(n) == generators_oracle(n)

    def test_exponent_that_is_not_an_int_is_a_value_error(self):
        for bad in (("t", 1.5), ("t", "2"), ("a", [1])):
            with pytest.raises(ValueError, match=f"exponent of {bad[0]!r}"):
                eval_word((bad,), 4)
        # 2.0 is read as 2, by the integer rule, and finds the entry of 2
        assert eval_word((("g", 2.0),), 4) == eval_word((("g", 2),), 4)
        _letter_power.cache_clear()
        value = eval_word((("g", 2.0),), 4)
        assert value == eval_word((("g", 2),), 4) and type(value.z[3]) is int
        # the entry was built for the int 2 and found again by it
        info = _letter_power.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
        entry = _letter_power(4, "g", 2)
        assert entry == (None, ((4, 2),)) and type(entry[1][0][1]) is int
        # a bool is an int: True is the exponent 1
        assert eval_word((("g", True),), 4) == standard_generators(4)["g"]
        assert eval_word((("a", True), ("t", False)), 5) == eval_word(
            (("a", 1),), 5)

    def test_standard_generators_returns_a_fresh_dict(self):
        gens = standard_generators(4)
        gens["s"] = gens["t"]
        assert standard_generators(4)["s"] == SemiElement(
            (0, 0, 0, 0), (2, 1, 3, 4))
        assert eval_word(parse_word("s"), 4) == standard_generators(4)["s"]


class TestEvalKernel:
    @settings(max_examples=300)
    @given(st.one_of(st.integers(2, 12), st.just(80)).flatmap(
        lambda n: st.tuples(st.just(n), raw_words(n))))
    def test_matches_the_mul_fold(self, case):
        n, word = case
        assert eval_word(word, n) == mul_fold_oracle(word, n)

    @given(st.one_of(st.integers(2, 12), st.just(80)).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(raw_words(n, 6), max_size=8),
                            st.randoms(use_true_random=False))))
    def test_one_table_for_many_words_equals_fresh_tables(self, case):
        # the one table is the kernel's cache, warmed by the first pass
        n, batch, rng = case
        expect = [mul_fold_oracle(word, n) for word in batch]
        _letter_power.cache_clear()
        for _ in range(2):
            order = list(range(len(batch)))
            rng.shuffle(order)
            for i in order:
                assert eval_word(batch[i], n) == expect[i]
            # the second pass builds nothing
            assert _letter_power.cache_info().misses == len(
                {(sym, exp) for word in batch for sym, exp in word})

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(st.integers(2, 12), st.just(80)).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(raw_words(n, 8), max_size=6))))
    def test_matches_the_list_fold_with_one_shared_table(self, case):
        n, batch = case
        fold_table = {}
        _letter_power.cache_clear()
        for word in batch:
            value = eval_word(word, n)
            assert value == list_fold_oracle(word, n, fold_table)
            assert value == mul_fold_oracle(word, n)
        assert _letter_power.cache_info().currsize == len(fold_table)

    def test_matches_the_list_fold_at_the_largest_n_and_exponents(self):
        n = 80
        rng = random.Random(25)
        exps = (1, -1, 2, n - 1, n, n + 1, -n, 10**9, -10**9, 10**9 + 7)
        batch = [tuple((rng.choice("stgab"), rng.choice(exps))
                       for _ in range(rng.randint(1, 12)))
                 for _ in range(40)]
        fold_table = {}
        _letter_power.cache_clear()
        for _ in range(2):
            for word in batch:
                value = eval_word(word, n)
                assert value == list_fold_oracle(word, n, fold_table)
                assert value == mul_fold_oracle(word, n)
        assert _letter_power.cache_info().currsize == len(fold_table)
        assert any(abs(x) >= 10**9 // n for word in batch
                   for x in eval_word(word, n).z)

    def test_table_entries_are_padded_and_skip_idle_passes(self):
        _letter_power.cache_clear()
        eval_word(parse_word("g^3 s^2 t a^-1"), 4)
        pad = bytes(251)
        want = {
            ("g", 3): (None, ((4, 3),)),
            ("s", 2): (None, ()),
            ("t", 1): (bytes((0, 4, 1, 2, 3)) + pad, ()),
            ("a", -1): (bytes((0, 2, 3, 4, 1)) + pad, ((3, -1),)),
        }
        assert {key: _letter_power(4, *key) for key in want} == want
        # each entry read back was the one the evaluation built
        info = _letter_power.cache_info()
        assert (info.hits, info.misses, info.currsize) == (4, 4, 4)

    def test_unknown_symbol_after_cached_letters(self):
        _letter_power.cache_clear()
        word = parse_word("s t^2 g^-1")
        eval_word(word, 4)
        for _ in range(2):
            with pytest.raises(ValueError, match="unknown symbol 'q'"):
                eval_word((*word, ("q", 1)), 4)
        assert _letter_power.cache_info().currsize == len(set(word))
        assert eval_word(word, 4) == mul_fold_oracle(word, 4)

    def test_unhashable_symbol_on_a_cold_and_a_warm_cache(self):
        _letter_power.cache_clear()
        for _ in range(2):
            for word in ([(["s"], 1)], [("s", 1), (["s"], 1)]):
                with pytest.raises(ValueError, match=r"^unknown symbol \['s'\]$"):
                    eval_word(word, 4)
            # the second round finds ("s", 1) in the cache
            assert eval_word([("s", 1)], 4) == standard_generators(4)["s"]
        assert _letter_power.cache_info().currsize == 1

    def test_n_is_checked_as_before(self):
        cap = limits.MAX_VERIFY_N
        _letter_power.cache_clear()
        for warm in (False, True):
            if warm:
                # an entry under the n that is refused; the swap s needs n >= 2
                _letter_power(1, "g", 1)
            with pytest.raises(ValueError, match="^n must be >= 2, got 1$"):
                eval_word((("s", 1),), 1)
            with pytest.raises(BudgetExceededError):
                eval_word((), cap + 1)
        with pytest.raises(ValueError, match="^n must be >= 2, got 1$"):
            eval_word((), 1)
        with pytest.raises(BudgetExceededError):
            eval_word((), cap + 1)
        # no evaluation read the cache
        info = _letter_power.cache_info()
        assert (info.hits, info.misses) == (0, 1)

    def test_cache_stays_bounded_past_its_size(self):
        n = 80
        letters = [(sym, exp) for sym in "stga" for exp in range(-n, n)]
        assert len(letters) > _letter_power.cache_info().maxsize
        expect = [mul_fold_oracle((l,), n) for l in letters]
        _letter_power.cache_clear()
        for _ in range(2):
            # the second pass rebuilds the entries the first one evicted
            assert [eval_word((l,), n) for l in letters] == expect
            info = _letter_power.cache_info()
            assert info.currsize <= info.maxsize
        assert info.misses > len(letters)


class TestLetterPower:
    EXPS = (10**9, -10**9, 10**9 + 7, -10**9 - 7)

    def test_matches_square_and_multiply(self):
        _letter_power.cache_clear()
        for n in (*range(2, 13), 80):
            gens = generators_oracle(n)
            for sym in SYMBOLS:
                for exp in (*range(-3 * n, 3 * n + 1), *self.EXPS):
                    want = entry_oracle(*square_and_multiply(gens[sym], exp))
                    assert _letter_power(n, sym, exp) == want, (n, sym, exp)

    def test_matches_the_closed_forms(self):
        _letter_power.cache_clear()
        for n in (*range(2, 13), 40, 80):
            for sym in SYMBOLS:
                for exp in (*range(-3 * n, 3 * n + 1), *self.EXPS, 10**40, -10**40):
                    want = entry_oracle(*closed_form_power(n, sym, exp))
                    assert _letter_power(n, sym, exp) == want, (n, sym, exp)

    def test_evaluation_makes_no_product(self, monkeypatch):
        word = parse_word("a^-7 b t^9 g^-3 (a b)^3 a^10 s^3")
        expect = mul_fold_oracle(word, 6)

        def boom(*args):
            raise AssertionError("word evaluation made a product")

        def evaluate():
            assert eval_word(word, 6) == expect
            assert verify_derived_identities(7, seed=3).passed
            assert verify_relations(relation_preset(7, "three_gen")).passed

        # `eval_word` never multiplies: on a cold cache each letter power is
        # built by `_power` alone
        _letter_power.cache_clear()
        words._generators.cache_clear()
        for module in (semidirect, words):
            monkeypatch.setattr(module, "_mul", boom, raising=False)
        evaluate()
        # on a warm cache nothing is built
        for module in (semidirect, words):
            monkeypatch.setattr(module, "_power", boom, raising=False)
        evaluate()


class TestWordLengthCap:
    def test_nested_powers_refused_before_expansion(self):
        start = time.perf_counter()
        with pytest.raises(BudgetExceededError):
            parse_word("(((s t)^1000)^1000)^1000")
        assert time.perf_counter() - start < 0.5

    def test_cap_counts_letters_before_normalization(self, monkeypatch):
        monkeypatch.setattr(limits, "MAX_WORD_LETTERS", 10)
        assert len(parse_word("(s t)^5")) == 10
        assert parse_word("(s s^-1)^5") == ()
        with pytest.raises(BudgetExceededError):
            parse_word("(s s^-1)^6")
        with pytest.raises(BudgetExceededError):
            parse_word("(s t)^-3 (s t)^3")
        assert len(parse_word("s t (s t)^4")) == 10

    def test_cap_counts_letters_outside_every_group(self, monkeypatch):
        monkeypatch.setattr(limits, "MAX_WORD_LETTERS", 10)
        assert len(parse_word("s t " * 5)) == 10
        assert len(parse_word("(s t)^4 s t")) == 10
        for text in ["s t " * 8, "(" + "s t " * 8 + ")", "(s t)^4 s t s",
                     "s^-1 " * 11]:
            with pytest.raises(BudgetExceededError, match="expands to"):
                parse_word(text)

    def test_over_cap_text_is_refused_while_it_is_read(self, monkeypatch):
        # 1.2 * 10^6 symbols: tokenizing the whole text before counting a
        # letter peaked at about 190 MiB, whatever the cap; refusing at the
        # first symbol past the cap holds at most the cap's worth of terms
        # (a low cap keeps the traced run short)
        monkeypatch.setattr(limits, "MAX_WORD_LETTERS", 10_000)
        text = "s t " * 600_000
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceededError, match="at least 10001 letters"):
                parse_word(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_text_is_tokenized_once_and_only_after_its_checks(self, monkeypatch):
        # a text refused for its length or for a bad character builds no
        # token, however long it is; any other text is tokenized by one
        # `findall` over the whole text
        token = words._TOKEN
        calls = []

        class CountingToken:
            def findall(self, *args):
                calls.append(args)
                return token.findall(*args)

            def finditer(self, *args):
                return token.finditer(*args)

        monkeypatch.setattr(words, "_TOKEN", CountingToken())
        monkeypatch.setattr(limits, "MAX_WORD_LETTERS", 5000)
        for text in ["s " * 5001, "s " * 3000 + "é", "é", "s t x", "t -"]:
            with pytest.raises((BudgetExceededError, WordSyntaxError)):
                parse_word(text)
        assert calls == []
        for text in ["(s t)^5", "s^-1 t " * 2000, ")", "(s t)^3000", ""]:
            calls.clear()
            assert parse_outcome(parse_word, text) == parse_outcome(
                parse_oracle, text)
            assert calls == [(text,)]

    def test_refusal_for_length_may_come_before_a_syntax_error(self, monkeypatch):
        monkeypatch.setattr(limits, "MAX_WORD_LETTERS", 10)
        for text in ["s " * 11 + ")", ") " + "s " * 11, "s " * 11 + "é"]:
            with pytest.raises(BudgetExceededError, match="at least 11 letters"):
                parse_word(text)
        # a bad character is still reported ahead of an earlier syntax error
        with pytest.raises(WordSyntaxError, match="'é'"):
            parse_word(") " + "s " * 10 + "é")

    def test_bad_character_before_the_symbol_past_the_cap_comes_first(
            self, monkeypatch):
        monkeypatch.setattr(limits, "MAX_WORD_LETTERS", 10)
        for text in ["é " + "s " * 11, "s " * 10 + "é s", "(s t)^9 x s"]:
            with pytest.raises(WordSyntaxError, match="unexpected character"):
                parse_word(text)
            assert parse_outcome(parse_word, text) == parse_outcome(
                parse_oracle, text)

    def test_word_power_cap(self, monkeypatch):
        monkeypatch.setattr(limits, "MAX_WORD_LETTERS", 10)
        st_word = (("s", 1), ("t", 1))
        assert len(word_power(st_word, -5)) == 10
        with pytest.raises(BudgetExceededError):
            word_power(st_word, 6)
        with pytest.raises(BudgetExceededError):
            word_power(st_word, -6)
        assert word_power((), 10**12) == ()


class TestRelationPresets:
    def test_preset_sizes(self):
        assert len(relation_preset(4, "sn").relations) == 4
        assert len(relation_preset(8, "sn").relations) == 8
        assert len(relation_preset(4, "three_gen").relations) == 9
        assert len(relation_preset(5, "three_gen").relations) == 12
        assert len(relation_preset(2, "two_gen").relations) == 2
        assert len(relation_preset(3, "two_gen").relations) == 3
        assert len(relation_preset(6, "two_gen").relations) == 6

    def test_preset_name_normalization(self):
        assert relation_preset(4, "Three-Gen").name == "three_gen"

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            relation_preset(4, "nope")

    def test_preset_name_that_is_not_a_string_is_unknown(self):
        for name in (5, None, ["sn"]):
            with pytest.raises(ValueError, match=f"^unknown preset {re.escape(repr(name))}$"):
                relation_preset(4, name)

    def test_sn_needs_four_points(self):
        with pytest.raises(ValueError):
            relation_preset(3, "sn")

    def test_all_presets_hold(self):
        for n in range(4, 9):
            assert verify_relations(relation_preset(n, "sn")).passed
            assert verify_relations(relation_preset(n, "three_gen")).passed
        for n in range(2, 9):
            assert verify_relations(relation_preset(n, "two_gen")).passed

    def test_matches_call_built_oracle(self):
        for n in range(-1, limits.MAX_VERIFY_N + 2):
            for name in ("sn", "three_gen", "two_gen", "Three-Gen", "nope"):
                try:
                    want = preset_oracle(n, name)
                except (ValueError, BudgetExceededError) as exc:
                    with pytest.raises(type(exc)) as got:
                        relation_preset(n, name)
                    assert type(got.value) is type(exc), (n, name)
                    assert str(got.value) == str(exc), (n, name)
                else:
                    assert relation_preset(n, name) == want, (n, name)

    def test_mutated_relation_is_caught(self):
        # cubing an order-two word must break exactly that one check
        base = relation_preset(4, "two_gen")
        target = "(b a^2 b a^-2)^2"
        mutated = tuple(
            rel if rel.label != target else Relation(
                "(b a^2 b a^-2)^3",
                word_power(parse_word("b a^2 b a^-2"), 3))
            for rel in base.relations
        )
        report = verify_relations(RelationPreset("mutated", 4, mutated))
        assert not report.passed
        failing = [c.label for c in report.checks if not c.holds]
        assert failing == ["(b a^2 b a^-2)^3"]


class TestVerificationCaps:
    def test_caps_refuse_before_any_work(self):
        cap = limits.MAX_VERIFY_N
        start = time.perf_counter()
        for name in ("sn", "three_gen", "two_gen"):
            with pytest.raises(BudgetExceededError):
                relation_preset(cap + 1, name)
        with pytest.raises(BudgetExceededError):
            verify_derived_identities(cap + 1)
        with pytest.raises(BudgetExceededError):
            verify_derived_identities(4, draws=limits.MAX_IDENTITY_DRAWS + 1)
        assert time.perf_counter() - start < 0.5

    def test_caps_admit_their_own_value(self, monkeypatch):
        monkeypatch.setattr(limits, "MAX_VERIFY_N", 6)
        monkeypatch.setattr(limits, "MAX_IDENTITY_DRAWS", 2)
        assert verify_relations(relation_preset(6, "three_gen")).passed
        assert verify_derived_identities(6, draws=2).passed
        with pytest.raises(BudgetExceededError):
            relation_preset(7, "two_gen")
        with pytest.raises(BudgetExceededError):
            verify_derived_identities(7)
        with pytest.raises(BudgetExceededError):
            verify_derived_identities(6, draws=3)

    def test_negative_draws(self):
        with pytest.raises(ValueError):
            verify_derived_identities(4, draws=-1)
        assert len(verify_derived_identities(4, draws=0).checks) == 8

    def test_closure_and_generators_cap_n(self):
        cap = limits.MAX_VERIFY_N
        with pytest.raises(BudgetExceededError):
            standard_generators(cap + 1)
        with pytest.raises(BudgetExceededError):
            eval_word(parse_word("s t"), cap + 1)
        big = SemiElement((0,) * (cap + 1), tuple(range(1, cap + 2)))
        with pytest.raises(BudgetExceededError):
            generated_closure([big], budget=10)
        gens = standard_generators(cap)
        report = generated_closure([gens["s"], gens["t"]], budget=50)
        assert (report.n, report.element_count) == (cap, 50)


class TestDerivedIdentities:
    def test_all_hold_small_range(self):
        for n in range(2, 9):
            report = verify_derived_identities(n, seed=0)
            assert report.passed, [
                (c.name, c.instance) for c in report.checks if not c.holds]

    def test_check_counts(self):
        assert len(verify_derived_identities(2).checks) == 2
        assert len(verify_derived_identities(3).checks) == 3
        # n=4: 3 swaps + order + 2 rewrites + power swap + 1 prefix
        # + 4 draws * 5 commutators
        assert len(verify_derived_identities(4, draws=4).checks) == 28

    def test_deterministic_under_seed(self):
        a = verify_derived_identities(5, seed=9)
        b = verify_derived_identities(5, seed=9)
        assert a == b

    def test_matches_the_builder_oracle(self):
        cases = [(n, seed, draws) for n in range(2, 13) for seed in range(5)
                 for draws in range(5)]
        for n, seed, draws in cases + [(80, 0, 16)]:
            got = verify_derived_identities(n, seed=seed, draws=draws)
            want = identities_oracle(n, seed=seed, draws=draws)
            assert got == want, (n, seed, draws)

    def test_swap_family_matches_transpositions(self):
        report = verify_derived_identities(6)
        swaps = [c for c in report.checks if c.name == "adjacent_swap_conjugate"]
        assert len(swaps) == 5
        for c in swaps:
            i = int(c.instance.split("=")[1])
            expect = tuple(
                i + 1 if v == i else i if v == i + 1 else v
                for v in range(1, 7))
            assert c.rhs == SemiElement((0,) * 6, expect)


class TestClosure:
    def test_permutation_generators_close_to_factorial(self):
        gens = standard_generators(4)
        report = generated_closure([gens["s"], gens["t"]])
        assert report.closed
        assert report.element_count == math.factorial(4)
        assert report.permutations_complete
        assert report.translation_count == 0
        assert not report.budget_exhausted

    def test_single_involution(self):
        gens = standard_generators(3)
        report = generated_closure([gens["b"]])
        assert report.closed
        assert report.element_count == 2

    def test_two_generators_reach_everything(self):
        for n in (3, 4, 5):
            gens = standard_generators(n)
            targets = {k: gens[k] for k in ("s", "t", "g")}
            report = generated_closure(
                [gens["a"], gens["b"]], targets=targets, stop_early=True)
            assert report.stopped_early
            assert all(report.targets_reached.values())
            assert report.permutations_complete
            assert report.translation_rank == n
            assert report.translations_span_lattice
            assert not report.budget_exhausted

    def test_budget_exhaustion_is_reported(self):
        gens = standard_generators(3)
        report = generated_closure([gens["a"], gens["b"]], budget=20)
        assert report.budget_exhausted
        assert not report.closed
        assert report.element_count == 20

    def test_default_budget_is_read_at_each_call(self, monkeypatch):
        gens = standard_generators(3)
        monkeypatch.setattr(limits, "MAX_CLOSURE_BUDGET", 5)
        report = generated_closure([gens["s"], gens["t"]])
        assert report.budget == 5
        assert report.budget_exhausted
        assert report.element_count == 5

    def test_budget_cap(self):
        gens = standard_generators(3)
        with pytest.raises(BudgetExceededError):
            generated_closure([gens["a"]], budget=10_000_000)

    def test_needs_generators(self):
        with pytest.raises(ValueError):
            generated_closure([])

    def test_invalid_images_rejected(self):
        with pytest.raises(ValueError):
            generated_closure([SemiElement((0, 0), (1, 1))])
        with pytest.raises(ValueError):
            generated_closure([semi_identity(2), semi_identity(3)])
        with pytest.raises(ValueError, match="not integral"):
            generated_closure([SemiElement((0, 1.5), (2, 1))])

    def test_first_image_is_read_as_every_image(self):
        # n is read from the first image only once it has been checked, so
        # a z of None is a ValueError and a plain (z, s) pair is an image
        with pytest.raises(ValueError, match="^vector is not integral: None$"):
            generated_closure([SemiElement(None, (2, 1))])
        with pytest.raises(ValueError,
                           match=r"^generator image is not a \(z, s\) pair: None$"):
            generated_closure([semi_identity(2), None])
        assert (generated_closure([((0, 0), (2, 1))])
                == generated_closure([SemiElement((0, 0), (2, 1))]))

    def test_float_translations_and_budget(self):
        gens = standard_generators(3)
        images = [gens["a"], gens["b"]]
        floats = [SemiElement(tuple(map(float, z)), s) for z, s in images]
        args = ({"g": gens["g"]}, True)
        assert (generated_closure(floats, 500, *args)
                == generated_closure(images, 500, *args)
                == closure_oracle(floats, 500, *args))
        assert (generated_closure(images, 20.0) == generated_closure(images, 20)
                == closure_oracle(images, 20))
        with pytest.raises(ValueError, match="^budget must be an integer, got 20.5$"):
            generated_closure(images, 20.5)

    def test_matches_oracle_on_benchmark_shapes(self):
        cases = [(5, "s t", None, False, 10**6), (4, "a b", "s t g", True, 10**6),
                 (3, "a b", None, False, 1000), (4, "s t g", None, False, 3000),
                 (5, "a b", "s t g", True, 10**6), (5, "s t g", "t", True, 500),
                 # spans Z^3 early, then walks on through pure translations
                 (3, "a b", None, False, 10**4),
                 # n at the cap: images up to 80 in the byte-string permutations
                 (limits.MAX_VERIFY_N, "s t", None, False, 300),
                 (limits.MAX_VERIFY_N, "a b g", "s t", True, 300)]
        for n, names, target_names, stop_early, budget in cases:
            gens = standard_generators(n)
            images = [gens[x] for x in names.split()]
            targets = ({x: gens[x] for x in target_names.split()}
                       if target_names else None)
            args = (images, budget, targets, stop_early)
            assert generated_closure(*args) == closure_oracle(*args), names
        # n = 1: the one-byte permutation (1,) and a pure translation
        for stop_early in (False, True):
            args = ([SemiElement((1,), (1,))], 100,
                    {"far": SemiElement((-7,), (1,))}, stop_early)
            assert generated_closure(*args) == closure_oracle(*args)

    @settings(max_examples=150)
    @given(st.data())
    def test_matches_oracle(self, data):
        n = data.draw(st.integers(1, 5))
        images = data.draw(st.lists(semi_elements(n), min_size=1, max_size=3))
        budget = data.draw(st.integers(1, 3000))
        stop_early = data.draw(st.booleans())
        # Targets are random elements or short products of the images,
        # so that some are reached and the walk can stop early.
        products = st.lists(st.sampled_from(images), min_size=1, max_size=4).map(
            lambda factors: _product(factors, n))
        targets = data.draw(st.dictionaries(
            st.sampled_from("pqrs"), st.one_of(products, semi_elements(n)),
            max_size=3))
        args = (images, budget, targets or None, stop_early)
        assert generated_closure(*args) == closure_oracle(*args)

    @settings(max_examples=80)
    @given(st.data())
    def test_matches_oracle_with_large_translations(self, data):
        # Entries near 10^5 and budgets up to 3000 put the digits of the
        # walk's keys near the base that budget * max|k_i| sets for them.
        n = data.draw(st.integers(1, 3))
        images = data.draw(st.lists(semi_elements(n, -10**5, 10**5),
                                    min_size=1, max_size=2))
        budget = data.draw(st.integers(1, 3000))
        products = st.lists(st.sampled_from(images), min_size=1, max_size=3).map(
            lambda factors: _product(factors, n))
        targets = data.draw(st.dictionaries(
            st.sampled_from("pq"), products, max_size=2))
        args = (images, budget, targets or None, data.draw(st.booleans()))
        assert generated_closure(*args) == closure_oracle(*args)

    def test_matches_oracle_on_random_standard_walks(self):
        # Budgets from 1 to 3000, spread evenly over their logarithm, put
        # many cuts in the first pop of a permutation, the pop that fills
        # its whole row of steps; the walk must not count the permutations
        # of the steps after the cut.
        rng = random.Random(27)
        first_pop_cuts = 0
        for case in range(240):
            n = rng.randint(2, 6)
            gens = standard_generators(n)
            images = [gens[x] for x in rng.sample(SYMBOLS, rng.randint(1, 3))]
            budget = int(3000 ** rng.random())
            targets = {}
            for name in rng.sample("pqr", rng.randint(0, 3)):
                if rng.random() < 0.7:
                    factors = rng.choices(images + [gens["g"]], k=rng.randint(1, 4))
                    targets[name] = _product(factors, n)
                else:
                    perm = rng.sample(range(1, n + 1), n)
                    targets[name] = SemiElement(
                        tuple(rng.randint(-2, 2) for _ in range(n)), tuple(perm))
            for stop_early in (False, True):
                args = (images, budget, targets or None, stop_early)
                report, _, first_pop_cut = _oracle_walk(*args)
                assert generated_closure(*args) == report, (case, args)
                first_pop_cuts += first_pop_cut
        assert first_pop_cuts >= 100

    def test_stop_at_an_element_whose_permutation_its_pop_interned(self):
        # The target is the first element of its permutation, met after the
        # translations span Z^n, so the walk stops at the step of the pop
        # that filled the row and interned that permutation.
        for n in (4, 5):
            gens = standard_generators(n)
            images = [gens["s"], gens["t"], gens["g"]]
            _, elements, _ = _oracle_walk(images, 2000)
            lattice, perms = LatticeOracle(n), set()
            for count, (z, s) in enumerate(elements, start=1):
                if s not in perms and lattice.rank == n:
                    break
                perms.add(s)
                if s == identity_perm(n):
                    lattice.add(z)
            args = (images, 2000, {"x": SemiElement(z, s)}, True)
            report = generated_closure(*args)
            assert report == closure_oracle(*args)
            assert report.stopped_early and report.element_count == count
            assert report.permutation_count == len(perms) + 1

    def test_keys_spread_over_the_low_bits(self):
        # A set takes its first probe slot from the low bits of a key's hash:
        # the int itself below 2**61, and the int mod 2**61 - 1 above, where
        # these keys with a nonzero permutation id lie.
        n, budget = 4, 20_000
        gens = standard_generators(n)
        _, elements, _ = _oracle_walk([gens["s"], gens["t"], gens["g"]], budget)
        # bias = budget * 1, so the odd radix is R = 2 * budget + 1; digit i
        # has place R**i, and the permutation id place R**n
        radix = 2 * budget + 1
        places, pure = [radix**i for i in range(n)], radix**n
        ids = {s: pid for pid, s in enumerate(sorted({s for _, s in elements}))}
        keys = [sum((x + budget) * place for x, place in zip(z, places))
                + ids[s] * pure for z, s in elements]
        assert len(set(keys)) == len(elements) == budget
        assert len({hash(key) & 0xFFFF for key in keys}) >= budget // 2

    def test_walk_reaches_the_edge_of_its_fields(self):
        # Each walk takes z_n out to about +-bias / 2, for bias = budget * k,
        # so its digit z_n + bias spans the middle half of the odd base
        # R = 2 * bias + 1, and the last case's keys pass 2**61.  A base of
        # bias + 1 would carry z_n = 1 into the next digit, and a digit
        # without the bias would borrow from it.
        for n, budget, k in [(1, 2047, 1), (2, 2047, 1), (1, 1905, 140911),
                             (3, 1695, 158369)]:
            g = SemiElement((0,) * (n - 1) + (k,), tuple(range(1, n + 1)))
            for images in ([g], [g, semi_inverse(g)]):
                args = (images, budget, {"far": _product([g] * 600, n)}, False)
                report = generated_closure(*args)
                assert report == closure_oracle(*args)
                assert report.element_count == budget
                assert report.targets_reached["far"] == (budget >= 1200)

    def test_targets_the_walk_cannot_have(self):
        gens = standard_generators(3)
        images = [gens["a"], gens["b"]]
        budget = 2000
        bias = budget  # max |k_i| is 1 for a and b
        ident = (1, 2, 3)
        g2 = _product([gens["g"], gens["g"]], 3)
        targets = {
            "short": SemiElement((0, 1), ident),
            "long": SemiElement((0, 0, 1, 0), ident),
            "edge": SemiElement((0, 0, bias), ident),
            "past": SemiElement((0, 0, bias + 1), ident),
            "huge": SemiElement((0, 0, -10**40), gens["t"].s),
            "float": SemiElement(tuple(float(x) for x in g2.z), g2.s),
            "half": SemiElement((0.0, 0.0, 1.5), ident),
            "nan": SemiElement((0.0, float("nan"), 2.0), ident),
            "inf": SemiElement((float("inf"), 0, 0), ident),
            "z none": (None, ident),
            "z none entry": ((None, 0, 0), ident),
            "z str": ("abc", ident),
            "g": gens["g"],
            # the start and a step of the walk, with list parts
            "e lists": ([0, 0, 0], [1, 2, 3]),
            "e list s": ((0, 0, 0), [1, 2, 3]),
            "g lists": (list(gens["g"].z), list(gens["g"].s)),
        }
        for stop_early in (False, True):
            args = (images, budget, targets, stop_early)
            report = generated_closure(*args)
            assert report == closure_oracle(*args)
            assert [name for name, hit in report.targets_reached.items()
                    if hit] == ["float", "g", "e lists", "e list s", "g lists"]

    def test_target_that_is_not_a_pair_is_a_value_error(self):
        gens = standard_generators(3)
        images = [gens["a"], gens["b"]]
        for bad in (None, 5, ((0, 0, 0),), ((0, 0, 0), (1, 2, 3), ())):
            targets = {"g": gens["g"], "x": bad}
            with pytest.raises(ValueError, match="^target 'x' is not a"):
                generated_closure(images, 100, targets)
        # a pair whose s is no permutation is read, and stays unreached
        report = generated_closure(images, 100, {"x": ((0, 0, 0), None)})
        assert report.targets_reached == {"x": False}

    def test_images_are_any_iterable_and_targets_a_mapping(self):
        gens = standard_generators(3)
        images = [gens["a"], gens["b"]]
        targets = {"s": gens["s"], "t": gens["t"]}
        for stop_early in (False, True):
            report = generated_closure(images, 500, targets, stop_early)
            assert generated_closure(iter(images), 500, targets,
                                     stop_early) == report
            assert generated_closure((g for g in images), 500, targets,
                                     stop_early) == report
        with pytest.raises(ValueError, match="^images is not a sequence: 5$"):
            generated_closure(5)
        with pytest.raises(ValueError, match="^need at least one generator"):
            generated_closure(iter([]))
        with pytest.raises(ValueError, match="^targets is not a mapping: 5$"):
            generated_closure(images, 100, 5)

    def test_target_permutations_are_read_by_the_integer_rule(self):
        gens = standard_generators(3)
        images = [gens["a"], gens["b"]]
        z, s = _product([gens["a"], gens["b"], gens["a"]], 3)
        assert s == (2, 1, 3) and any(z)
        targets = {
            "int": SemiElement(z, s),
            "float": SemiElement(z, tuple(map(float, s))),
            "fraction": SemiElement(z, tuple(map(Fraction, s))),
            "true": SemiElement(z, (2, True, 3)),
            "str": SemiElement(z, "213"),
            "300": SemiElement(z, (2, 300, 3)),
            "-1": SemiElement(z, (2, -1, 3)),
            "nan": SemiElement(z, (2, math.nan, 3)),
            "short": SemiElement(z, (2, 1)),
            "long": SemiElement(z, (2, 1, 3, 4)),
            "past a byte": SemiElement(z, tuple(range(1, 301))),
            "none": SemiElement(z, None),
            "lists": (list(z), list(s)),
            "list s": (z, list(s)),
            "list of floats": (z, list(map(float, s))),
            "start, lists of floats": ([0, 0, 0], [1.0, 2.0, 3.0]),
        }
        for stop_early in (False, True):
            args = (images, 2000, targets, stop_early)
            report = generated_closure(*args)
            assert report == closure_oracle(*args)
            assert [name for name, hit in report.targets_reached.items()
                    if hit] == ["int", "float", "fraction", "true", "lists",
                                "list s", "list of floats",
                                "start, lists of floats"]

    def test_budget_hit_on_a_step_that_interns_a_permutation(self):
        gens = standard_generators(4)
        # Every element of <s, t> has its own permutation, so the step that
        # hits the budget always interns one no visited element has.
        for budget in range(1, 24):
            report = generated_closure([gens["s"], gens["t"]], budget=budget)
            assert report.budget_exhausted
            assert report.permutation_count == report.element_count == budget
        cases = [([gens["a"], gens["b"]], 1), ([gens["g"]], 1),
                 ([gens["g"], gens["t"]], 30),
                 ([SemiElement((3,), (1,)), SemiElement((-5,), (1,))], 40)]
        for images, top in cases:
            for budget in range(1, top + 1):
                args = (images, budget, None, False)
                assert generated_closure(*args) == closure_oracle(*args)


def _product(factors, n):
    acc = semi_identity(n)
    for f in factors:
        acc = semi_multiply(acc, f)
    return acc


class TestIntLattice:
    def test_rank_and_index(self):
        lat = _IntLattice(2)
        lat.add((2, 0))
        lat.add((0, 2))
        assert lat.rank == 2
        assert not lat.spans_all()  # index 4 sublattice
        lat.add((1, 1))
        assert not lat.spans_all()  # index still 2
        lat.add((1, 0))
        assert lat.spans_all()

    def test_dependent_rows_do_not_raise_rank(self):
        lat = _IntLattice(3)
        assert lat.add((1, 2, 3))
        assert not lat.add((2, 4, 6))
        assert lat.rank == 1
        assert lat.add((0, 1, 1))
        assert lat.rank == 2

    def test_matches_the_ext_gcd_oracle(self):
        # Random sets of up to 8 vectors in Z^n, n = 1..6, at three scales;
        # a zero entry is common, so columns are skipped and rows collide.
        rng = random.Random(1)
        spanned = index_above_one = 0
        for case in range(3000):
            n = rng.randint(1, 6)
            scale = rng.choice([1, 6, 10**12])
            lat, oracle = _IntLattice(n), LatticeOracle(n)
            for _ in range(rng.randint(1, 8)):
                vec = [rng.choice([0, rng.randint(-scale, scale)]) for _ in range(n)]
                rank = oracle.rank
                oracle.add(vec)
                assert lat.add(vec) == (oracle.rank > rank), (case, vec)
                assert (lat.rank, lat.spans_all()) == (oracle.rank, oracle.spans_all()), (
                    case, vec)
            spanned += oracle.spans_all()
            index_above_one += oracle.rank == n and not oracle.spans_all()
        # at full rank both answers are common, so the pivots decide
        assert spanned >= 300 and index_above_one >= 300
