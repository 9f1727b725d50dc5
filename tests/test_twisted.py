"""The twisted product: closed form, transport maps, inverses."""

import inspect
import math
import re
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

import latticetwist
from latticetwist import limits, twisted
from latticetwist.geometry import (
    PrismTile,
    check_tiling,
    coordinate_matrices,
    decompose_point,
    generate_patch,
    permutohedron_vertices,
    product_tile_vertices,
)
from latticetwist.semidirect import (
    SemiElement,
    assemble_from_factors,
    general_is_unit,
    identity_perm,
    perm_compose,
    perm_inverse,
    phi_backward,
    phi_forward,
    semi_identity,
    semi_inverse,
    semi_multiply,
    semi_power,
    split_to_factors,
)
from latticetwist.units import (
    cyclic_action,
    deformed_inverse,
    deformed_multiply,
    enumerate_residue_classes,
    is_residue_distinct,
    is_unit_member,
    shift_vector,
)
from latticetwist.words import (
    eval_word,
    generated_closure,
    letter,
    normalize_word,
    parse_word,
    relation_preset,
    render_word,
    standard_generators,
    verify_derived_identities,
    word_concat,
    word_inverse,
    word_power,
)
from latticetwist.twisted import (
    Action,
    NotBijective,
    NotInvertibleError,
    as_vector,
    check_permutation,
    embed_constant,
    identity_element,
    invert,
    ordered_cycles,
    star_multiply,
    transport_permutation,
)


def brute_act(tau, v, g):
    """Iterate tau (or its inverse) |g| times."""
    inv = [0] * (len(tau) + 1)
    for i, img in enumerate(tau, start=1):
        inv[img] = i
    for _ in range(abs(g)):
        v = tau[v - 1] if g > 0 else inv[v]
    return v


@st.composite
def vectors_for(draw, tau):
    """Vectors with entries in [-50, 50]; half of them are units of tau.

    A unit puts the places j - a(w_j) mod m of each cycle (w_0 .. w_{m-1})
    in a drawn order, so its transport map is a bijection.
    """
    n = len(tau)
    x = list(draw(st.tuples(*[st.integers(-50, 50)] * n)))
    if draw(st.booleans()):
        for cycle in ordered_cycles(tuple(tau)):
            m = len(cycle)
            places = draw(st.permutations(range(m)))
            for j, (w, p) in enumerate(zip(cycle, places)):
                x[w - 1] = j - p + m * (x[w - 1] // m)
    return tuple(x)


def transport_oracle(a, tau):
    """The transport map v -> tau^{a(v)}(v) by iteration, or the first
    collision: the least v2 whose image an earlier v1 already has."""
    images = [brute_act(tau, v, g) for v, g in enumerate(a, start=1)]
    for v2, image in enumerate(images, start=1):
        if image in images[:v2 - 1]:
            return NotBijective(images.index(image) + 1, v2, image)
    return tuple(images)


class TestAgainstIteration:
    # star_multiply and the transport map read images off one position
    # table; iterating tau is the independent check.
    @given(st.data())
    def test_star_multiply(self, data):
        n = data.draw(st.integers(1, 7))
        tau = data.draw(st.permutations(range(1, n + 1)))
        a, b = data.draw(vectors_for(tau)), data.draw(vectors_for(tau))
        expect = tuple(a[v - 1] + b[brute_act(tau, v, a[v - 1]) - 1]
                       for v in range(1, n + 1))
        assert star_multiply(a, b, Action.from_permutation(tau)) == expect

    @given(st.data())
    def test_transport_permutation(self, data):
        n = data.draw(st.integers(1, 7))
        tau = data.draw(st.permutations(range(1, n + 1)))
        a = data.draw(vectors_for(tau))
        assert (transport_permutation(a, Action.from_permutation(tau))
                == transport_oracle(a, tau))


class TestAction:
    def test_cyclic_permutation(self):
        assert Action.cyclic(4).tau == (4, 1, 2, 3)
        assert Action.cyclic(1).tau == (1,)

    def test_cyclic_act_closed_form(self):
        act = Action.cyclic(5)
        for v in range(1, 6):
            for g in range(-7, 8):
                assert act.act(v, g) == 1 + ((v - 1 - g) % 5)

    def test_act_matches_iteration(self):
        for tau in [(2, 1, 4, 3), (3, 1, 2), (1, 2, 3, 4), (2, 3, 4, 5, 1)]:
            action = Action.from_permutation(tau)
            for v in range(1, len(tau) + 1):
                for g in range(-6, 7):
                    assert action.act(v, g) == brute_act(tau, v, g)

    def test_trivial_action_fixes_everything(self):
        act = Action.trivial(4)
        for v in range(1, 5):
            for g in (-3, 0, 5):
                assert act.act(v, g) == v

    def test_point_out_of_range(self):
        with pytest.raises(ValueError):
            Action.cyclic(3).act(4, 1)
        with pytest.raises(ValueError):
            Action.cyclic(3).act(0, 1)

    def test_act_reads_its_arguments_by_the_integer_rule(self):
        act = Action.cyclic(3).act
        assert act(2.0, 1) == act(2, Fraction(1)) == act(2, 1) == 1
        # 1.5, "3", nan and inf are the rows of INTEGER_READERS
        for v, g in ((None, 1), (2, None)):
            with pytest.raises(ValueError, match="must be an integer"):
                act(v, g)
        with pytest.raises(ValueError, match=r"^point 4 outside 1\.\.3$"):
            act(4.0, 1)

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            Action.from_permutation((1, 1, 3))
        with pytest.raises(ValueError):
            Action.from_permutation((0, 1, 2))
        with pytest.raises(ValueError):
            Action.cyclic(0)
        for images in ((), []):
            with pytest.raises(ValueError, match="^action needs at least one point$"):
                Action.from_permutation(images)


class TestOrderedCycles:
    def test_two_transpositions(self):
        assert ordered_cycles((2, 1, 4, 3)) == ((1, 2), (3, 4))

    def test_cyclic_is_one_cycle(self):
        assert ordered_cycles((4, 1, 2, 3)) == ((1, 2, 3, 4),)

    def test_identity_is_fixed_points(self):
        assert ordered_cycles((1, 2, 3)) == ((1,), (2,), (3,))

    def test_cycle_labeling_convention(self):
        # within each cycle (w_1..w_m): tau(w_j) = w_{j-1 mod m}
        for tau in [(2, 1, 4, 3), (3, 1, 2), (5, 3, 4, 2, 1)]:
            for cycle in ordered_cycles(tau):
                m = len(cycle)
                for j, w in enumerate(cycle):
                    assert tau[w - 1] == cycle[(j - 1) % m]

    def test_rejects_non_permutation(self):
        for tau in [(1, 1), (3, 1)]:
            with pytest.raises(ValueError, match="^not a permutation: "):
                ordered_cycles(tau)

    def test_cycles_start_at_smallest(self):
        for cycle in ordered_cycles((5, 3, 4, 2, 1)):
            assert cycle[0] == min(cycle)


class TestStarMultiply:
    def test_cyclic_example(self):
        act = Action.cyclic(3)
        assert star_multiply((1, 2, 0), (0, 1, 3), act) == (4, 5, 3)

    def test_cyclic_example_negative_entries(self):
        act = Action.cyclic(3)
        assert star_multiply((-1, 2, 0), (1, -1, 3), act) == (-2, 5, 3)

    def test_matches_displacement_form(self):
        # (a * b)_i = a_i + b at index 1 + ((i - 1 - a_i) mod n)
        act = Action.cyclic(4)
        a, b = (2, -1, 0, 5), (1, 1, -3, 2)
        expect = tuple(
            a[i] + b[(i - a[i]) % 4] for i in range(4)
        )
        assert star_multiply(a, b, act) == expect

    def test_identity_both_sides(self):
        act = Action.from_permutation((2, 3, 1, 4))
        e = identity_element(act)
        for a in [(1, 2, 3, 4), (-2, 0, 7, 1)]:
            assert star_multiply(a, e, act) == a
            assert star_multiply(e, a, act) == a

    def test_trivial_action_is_plain_addition(self):
        act = Action.trivial(3)
        assert star_multiply((1, -2, 5), (4, 4, 4), act) == (5, 2, 9)

    def test_constants_embed_homomorphically(self):
        for tau in [(3, 1, 2), (2, 1, 4, 3)]:
            act = Action.from_permutation(tau)
            for g, h in [(2, 3), (-1, 4), (0, 0), (-5, -2)]:
                assert star_multiply(
                    embed_constant(g, act), embed_constant(h, act), act
                ) == embed_constant(g + h, act)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            star_multiply((1, 2), (1, 2, 3), Action.cyclic(2))

    @given(st.data())
    def test_associativity(self, data):
        n = data.draw(st.integers(1, 6))
        tau = data.draw(st.permutations(range(1, n + 1)))
        action = Action.from_permutation(tau)
        vec = st.tuples(*[st.integers(-50, 50)] * n)
        a, b, c = data.draw(vec), data.draw(vec), data.draw(vec)
        left = star_multiply(star_multiply(a, b, action), c, action)
        right = star_multiply(a, star_multiply(b, c, action), action)
        assert left == right


class TestTransportAndInvert:
    def test_transport_example(self):
        act = Action.cyclic(3)
        assert transport_permutation((1, 0, 2), act) == (3, 2, 1)

    def test_transport_collision_witness(self):
        act = Action.cyclic(3)
        w = transport_permutation((1, 1, 0), act)
        assert w == NotBijective(1, 3, 3)

    def test_invert_example(self):
        act = Action.cyclic(3)
        assert invert((1, 0, 2), act) == (-2, 0, -1)

    def test_invert_raises_with_witness(self):
        act = Action.cyclic(3)
        with pytest.raises(NotInvertibleError) as info:
            invert((1, 1, 0), act)
        assert info.value.witness == NotBijective(1, 3, 3)

    def test_brute_force_two_sided_inverse(self):
        # over every assignment with entries in [0, n): invertibility is
        # exactly transport bijectivity, and the inverse is two-sided
        for n in (1, 2, 3, 4):
            act = Action.cyclic(n)
            e = identity_element(act)
            invertible = 0
            for a in product(range(n), repeat=n):
                pi = transport_permutation(a, act)
                if isinstance(pi, NotBijective):
                    with pytest.raises(NotInvertibleError):
                        invert(a, act)
                    continue
                invertible += 1
                psi = invert(a, act)
                assert star_multiply(a, psi, act) == e
                assert star_multiply(psi, a, act) == e
            import math
            assert invertible == math.factorial(n)

    def test_inverse_under_general_action(self):
        act = Action.from_permutation((2, 1, 4, 3))
        e = identity_element(act)
        a = (1, 1, 2, 0)
        psi = invert(a, act)
        assert star_multiply(a, psi, act) == e
        assert star_multiply(psi, a, act) == e

    @given(st.data())
    def test_inverse_is_two_sided_when_it_exists(self, data):
        n = data.draw(st.integers(1, 6))
        tau = data.draw(st.permutations(range(1, n + 1)))
        action = Action.from_permutation(tau)
        a = data.draw(st.tuples(*[st.integers(-20, 20)] * n))
        pi = transport_permutation(a, action)
        if isinstance(pi, NotBijective):
            with pytest.raises(NotInvertibleError):
                invert(a, action)
        else:
            psi = invert(a, action)
            e = identity_element(action)
            assert star_multiply(a, psi, action) == e
            assert star_multiply(psi, a, action) == e


class TestAsVector:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            as_vector(())

    def test_length_check(self):
        with pytest.raises(ValueError):
            as_vector((1, 2), 3)
        assert as_vector([1, 2], 2) == (1, 2)

    def test_permutation_length_check(self):
        with pytest.raises(ValueError, match="expected length 3, got 2"):
            check_permutation((2, 1), 3)
        assert check_permutation([2, 1], 2) == (2, 1)


def as_vector_oracle(values, n=None):
    """`as_vector` converting every entry, as it did before its tuple path;
    a bytes-like value is no vector, though its entries are ints."""
    try:
        if isinstance(values, (bytes, bytearray, memoryview)):
            raise TypeError(values)
        raw = tuple(values)
        vec = tuple(map(int, raw))
    except (TypeError, ValueError, OverflowError):
        vec = None
    if vec is None or vec != raw:
        raise ValueError(f"vector is not integral: {values!r}")
    if not vec:
        raise ValueError("empty vector")
    if n is not None and len(vec) != n:
        raise ValueError(f"expected length {n}, got {len(vec)}")
    return vec


def check_permutation_oracle(images, n=None):
    """`check_permutation` converting every image and sorting, as it did
    before its bytes path; a bytes-like value is no permutation."""
    try:
        if isinstance(images, (bytes, bytearray, memoryview)):
            raise TypeError(images)
        raw = tuple(images)
        tau = tuple(map(int, raw))
    except (TypeError, ValueError, OverflowError):
        tau = None
    if tau is None or tau != raw or sorted(tau) != list(range(1, len(tau) + 1)):
        raise ValueError(f"not a permutation: {images!r}")
    if n is not None and len(tau) != n:
        raise ValueError(f"expected length {n}, got {len(tau)}")
    return tau


class _Index:
    """An integer by `__index__` only: int() reads it, but it equals no int."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value

    def __repr__(self):
        return f"_Index({self.value})"


class _IntLike(_Index):
    """An `__index__` integer that also equals its value."""

    def __eq__(self, other):
        return self.value == other

    def __hash__(self):
        return hash(self.value)

    def __repr__(self):
        return f"_IntLike({self.value})"


class _OnePass:
    """An iterable that is not a sequence, with a repr that does not change
    from one object to the next, as an iterator's does."""

    def __init__(self, entries):
        self.entries = entries

    def __iter__(self):
        return iter(self.entries)

    def __repr__(self):
        return f"_OnePass({self.entries!r})"


def _bytes_like(kind):
    """A holder that makes entries that are all bytes into a `kind`, and
    leaves any other entries as they are."""
    return lambda e: kind(e) if all(type(x) is int and 0 <= x < 256 for x in e) else e


# Every kind of entry a reader may meet, and every way to hold the entries.
_ENTRIES = st.one_of(
    st.integers(-3, 12), st.integers(250, 300), st.integers(-2**70, 2**70),
    st.booleans(), st.fractions(max_denominator=3), st.floats(),
    st.integers(-3, 12).map(_Index), st.integers(-3, 12).map(_IntLike),
    st.sampled_from(["3", None, b"\x01", (1,)]))
_HOLDERS = {
    "tuple": tuple, "list": list, "one pass": _OnePass,
    # a tuple subclass: its entries pass, its type does not
    "SemiElement": lambda e: SemiElement(*e) if len(e) == 2 else tuple(e),
    # a bytes-like holder of byte entries, which both readers refuse
    "bytes": _bytes_like(bytes), "bytearray": _bytes_like(bytearray),
    "str": lambda e: "".join(map(str, e)),
}


@st.composite
def _reader_inputs(draw):
    """(holder name, entries): near-permutations of 1..m with one entry
    swapped for another kind, or any entries at all."""
    m = draw(st.integers(0, 9))
    entries = list(draw(st.permutations(range(1, m + 1))))
    if entries and draw(st.booleans()):
        i = draw(st.integers(0, m - 1))
        convert = draw(st.sampled_from(
            [float, Fraction, _Index, _IntLike, str, lambda v: v == 1 or v]))
        entries[i] = convert(entries[i])
    entries = draw(st.one_of(st.just(entries), st.lists(_ENTRIES, max_size=9)))
    return draw(st.sampled_from(sorted(_HOLDERS))), entries


def _outcome(read, holder, entries, n):
    """What one reader makes of a fresh holder of the entries: the type and
    repr of its result, or the type and message of its error."""
    try:
        out = read(_HOLDERS[holder](entries), n)
    except Exception as e:  # the kind of error is part of the outcome
        return "raises", type(e), str(e)
    return "returns", type(out), repr(out)


_LONG = tuple(range(1, 256)) + (1,) * 45   # all of 1..255, and 300 long


class TestFastReaders:
    @settings(max_examples=400)
    @given(_reader_inputs(), st.one_of(st.none(), st.integers(0, 10)))
    @example(("tuple", list(_LONG)), None)
    @example(("tuple", list(range(1, 256))), None)
    @example(("tuple", list(range(1, 257))), 256)
    @example(("tuple", [True]), 1)
    @example(("tuple", []), None)
    def test_readers_match_their_entrywise_oracles(self, drawn, n):
        holder, entries = drawn
        for read, oracle in ((as_vector, as_vector_oracle),
                             (check_permutation, check_permutation_oracle)):
            assert (_outcome(read, holder, entries, n)
                    == _outcome(oracle, holder, entries, n)), (read, holder, entries)

    @given(st.lists(st.integers(0, 255), min_size=256, max_size=300).map(tuple))
    def test_long_byte_tuples_are_read_entrywise(self, images):
        assert (_outcome(check_permutation, "tuple", images, None)
                == _outcome(check_permutation_oracle, "tuple", images, None))

    def test_a_tuple_of_exact_ints_is_returned_as_it_is(self):
        v = (3, -1, 2**80)
        assert as_vector(v) is v
        # an entry that is converted gives a new tuple of ints
        for read in (as_vector, check_permutation):
            assert repr(read((True, 2))) == "(1, 2)"

    def test_only_a_tuple_is_read_as_bytes(self, monkeypatch):
        read = []

        def spy(images):
            read.append(images)
            return bytes(images)

        monkeypatch.setattr(twisted, "bytes", spy, raising=False)
        assert check_permutation((2, 1)) == (2, 1)
        assert read == [(2, 1)]
        for images in (10**9, [2, 1], range(1, 3), SemiElement(2, 1), b"\x02\x01"):
            try:
                check_permutation(images)
            except ValueError:
                pass
        assert read == [(2, 1)]


# Each reader of a whole sequence: a value that is not iterable is a
# ValueError, as any other input that is not a vector or permutation.
SEQUENCE_READERS = {"as_vector": as_vector, "check_permutation": check_permutation}


@pytest.mark.parametrize("reader", sorted(SEQUENCE_READERS))
@pytest.mark.parametrize("value", [None, 5])
def test_a_value_that_is_not_iterable_is_a_value_error(reader, value):
    with pytest.raises(ValueError):
        SEQUENCE_READERS[reader](value)


_BYTES_LIKE_VALUES = {
    "bytes": b"\x02\x01", "bytearray": bytearray(b"\x02\x01"),
    "memoryview": memoryview(b"\x02\x01"),
    # iterating a 2D view raises NotImplementedError, not a ValueError
    "memoryview 2D": memoryview(b"\x02\x01").cast("B", (1, 2)),
}


@pytest.mark.parametrize("holder", sorted(_BYTES_LIKE_VALUES))
def test_a_bytes_like_value_is_no_vector_or_permutation(holder):
    # Its entries are the ints 2 and 1, but it is refused as the str "21" is.
    value = _BYTES_LIKE_VALUES[holder]
    message = re.escape(repr(value))
    with pytest.raises(ValueError, match=f"^vector is not integral: {message}$"):
        as_vector(value)
    with pytest.raises(ValueError, match=f"^not a permutation: {message}$"):
        check_permutation(value, 2)


# Each reader of an action, with the action as its one argument; a
# permutation is not an Action, though `Action.from_permutation` reads one.
ACTION_READERS = {
    "identity_element": lambda action: identity_element(action),
    "embed_constant": lambda action: embed_constant(5, action),
    "star_multiply": lambda action: star_multiply((1, 0, 2), (0, 1, 1), action),
    "transport_permutation": lambda action: transport_permutation((1, 0, 2), action),
    "invert": lambda action: invert((1, 0, 2), action),
}


@pytest.mark.parametrize("reader", sorted(ACTION_READERS))
@pytest.mark.parametrize("value, kind", [(None, "NoneType"), (5, "int"),
                                         ((2, 3, 1), "tuple")])
def test_an_action_that_is_not_an_action_is_a_value_error(reader, value, kind):
    with pytest.raises(ValueError, match=f"^action must be an Action, got {kind}$"):
        ACTION_READERS[reader](value)
    # the same call with an Action returns
    ACTION_READERS[reader](cyclic_action(3))


def _perm(x):
    """The identity permutation of 1..3 with x in the place of 1 when x
    equals 1, else in the place of 3."""
    return (x, 2, 3) if x == 1 else (1, 2, x)


def _cycles(x):
    """The cycles (1 2)(3) of 1..3, with x in the place of 1 or 3 as in
    `_perm(x)`."""
    p = _perm(x)
    return p[:2], p[2:]


def _zeros(x):
    """The zero coefficients of a tile of size 1 when x equals 1, else of
    size 3."""
    return (0,) if x == 1 else (0, 0, 0)


# Each public reader with x as one integer input; every call is valid when
# x is the int 1 or 3.
_A3 = cyclic_action(3)
INTEGER_READERS = {
    "star_multiply left": lambda x: star_multiply((x, 0, 2), (0, 0, 0), _A3),
    "star_multiply right": lambda x: star_multiply((0, 0, 0), (x, 0, 2), _A3),
    "transport_permutation": lambda x: transport_permutation((x, 0, 0), _A3),
    "invert": lambda x: invert((x, x, x), _A3),
    "embed_constant": lambda x: embed_constant(x, _A3),
    "Action.act v": lambda x: _A3.act(x, 1),
    "Action.act g": lambda x: _A3.act(2, x),
    "deformed_multiply": lambda x: deformed_multiply((x, 0), (0, x)),
    "deformed_inverse": lambda x: deformed_inverse((x, 0)),
    "is_residue_distinct": lambda x: is_residue_distinct((x, 0)),
    "is_unit_member": lambda x: is_unit_member((x, 0, 0)),
    "phi_forward": lambda x: phi_forward((x, 0)),
    "phi_backward z": lambda x: phi_backward(SemiElement((x, 0), (2, 1))),
    "phi_backward s": lambda x: phi_backward(SemiElement((0, 0, 0), _perm(x))),
    "general_is_unit x": lambda x: general_is_unit((x, 0, 0), (2, 3, 1)),
    "general_is_unit tau": lambda x: general_is_unit((0, 0, 0), _perm(x)),
    "check_permutation": lambda x: check_permutation(_perm(x)),
    "perm_inverse": lambda x: perm_inverse(_perm(x)),
    "semi_multiply s": lambda x: semi_multiply(
        SemiElement((0, 0, 0), _perm(x)), semi_identity(3)),
    "semi_multiply z left": lambda x: semi_multiply(
        SemiElement((x, 0), (2, 1)), semi_identity(2)),
    "semi_multiply z right": lambda x: semi_multiply(
        semi_identity(2), SemiElement((x, 0), (2, 1))),
    "decompose_point": lambda x: decompose_point((x, 0, 2)),
    "split_to_factors": lambda x: split_to_factors((x, 0, 2), ((1, 2), (3,))),
    "split_to_factors cycle": lambda x: split_to_factors((5, 6, 7), _cycles(x)),
    # a part: x is an entry of the first one
    "assemble_from_factors": lambda x: assemble_from_factors(
        [(x, 0), (2,)], ((1, 2), (3,))),
    "assemble_from_factors cycle": lambda x: assemble_from_factors(
        [(5, 6), (7,)], _cycles(x)),
    "ordered_cycles": lambda x: ordered_cycles(_perm(x)),
    "perm_compose": lambda x: perm_compose(_perm(x), (2, 1, 3)),
    "product_tile_vertices": lambda x: product_tile_vertices(_perm(x)),
    "as_vector": lambda x: as_vector((x, 0)),
    "PrismTile": lambda x: PrismTile(3, (x, 0, 2)),
    "generated_closure": lambda x: generated_closure(
        [SemiElement((x, 0), (2, 1))], budget=20),
    "semi_inverse z": lambda x: semi_inverse(SemiElement((x, 0), (2, 1))),
    "semi_inverse s": lambda x: semi_inverse(SemiElement((0, 0, 0), _perm(x))),
    "semi_power": lambda x: semi_power(SemiElement((x, 0), (2, 1)), 3),
    "semi_power z at k = 0": lambda x: semi_power(SemiElement((x, 0), (2, 1)), 0),
    "normalize_word": lambda x: normalize_word([("t", x), ("g", 1)]),
    "letter": lambda x: letter("t", x),
    "word_concat": lambda x: word_concat((("t", x),), (("g", 1),)),
    "word_power": lambda x: word_power((("t", 1),), x),
    "word_inverse": lambda x: word_inverse((("t", x),)),
    "render_word": lambda x: render_word((("t", x),)),
    "eval_word exponent": lambda x: eval_word((("g", x),), 4),
    # size arguments
    "Action.cyclic": lambda x: Action.cyclic(x),
    "Action.trivial": lambda x: Action.trivial(x),
    "cyclic_action": lambda x: cyclic_action(x),
    "shift_vector": lambda x: shift_vector(x),
    "enumerate_residue_classes": lambda x: enumerate_residue_classes(x),
    "permutohedron_vertices": lambda x: permutohedron_vertices(x),
    "coordinate_matrices": lambda x: coordinate_matrices(x),
    "PrismTile n": lambda x: PrismTile(x, _zeros(x)),
    "generate_patch n": lambda x: generate_patch(x, 0),
    "generate_patch radius": lambda x: generate_patch(2, x),
    "check_tiling samples": lambda x: check_tiling(1, (0, 1), samples=x),
    "verify_derived_identities seed": lambda x: verify_derived_identities(4, seed=x),
    "verify_derived_identities draws": lambda x: verify_derived_identities(4, draws=x),
    "generated_closure budget": lambda x: generated_closure(
        [SemiElement((1, 0), (2, 1))], budget=x),
    "semi_power k": lambda x: semi_power(SemiElement((1, 0), (2, 1)), x),
    "identity_perm": lambda x: identity_perm(x),
    "semi_identity": lambda x: semi_identity(x),
}

# Readers of an n that must be at least 2: each call is valid when x is 4,
# and True, read as 1, is not.
SIZE_READERS_FROM_2 = {
    "standard_generators": lambda x: standard_generators(x),
    "eval_word n": lambda x: eval_word(parse_word("s t a g^-1"), x),
    "relation_preset n": lambda x: relation_preset(x, "sn"),
    "verify_derived_identities n": lambda x: verify_derived_identities(x),
}


def _reads_by_one_rule(call, goods):
    """An input equal to an int is that int; any other is a ValueError."""
    for bad in (1.5, "3", math.nan, math.inf):
        with pytest.raises(ValueError):
            call(bad)
    for good in goods:
        # repr tells 3 from 3.0, Fraction(3) and True, so equal reprs
        # mean an int-typed result
        assert repr(call(good)) == repr(call(int(good)))


@pytest.mark.parametrize("reader", sorted(INTEGER_READERS))
def test_every_reader_reads_integers_by_one_rule(reader):
    _reads_by_one_rule(INTEGER_READERS[reader], (3.0, Fraction(3), True))


@pytest.mark.parametrize("reader", sorted(SIZE_READERS_FROM_2))
def test_every_n_from_2_is_read_by_one_rule(reader):
    _reads_by_one_rule(SIZE_READERS_FROM_2[reader], (4.0, Fraction(4)))


IDENTITY_CONSTRUCTORS = {
    "identity_perm": identity_perm, "semi_identity": semi_identity,
    "shift_vector": shift_vector, "Action.cyclic": Action.cyclic,
    "Action.trivial": Action.trivial, "cyclic_action": cyclic_action,
}


@pytest.mark.parametrize("name", sorted(IDENTITY_CONSTRUCTORS))
def test_identity_constructors_bound_n_by_the_box_cap(name, monkeypatch):
    build = IDENTITY_CONSTRUCTORS[name]
    with pytest.raises(limits.BudgetExceededError, match="exceeds the cap"):
        build(10**30)
    # the cap is read at the time of the call
    monkeypatch.setattr(limits, "MAX_BOX_POINTS", 5)
    build(5)
    with pytest.raises(limits.BudgetExceededError, match="n=6 exceeds the cap 5"):
        build(6)


# Public functions that read no integer by the rule above, each with the
# reason.  Every other public function has an entry in one of the tables.
NOT_INTEGER_READERS = {
    "identity_element": "reads an Action, whose constructors read n",
    "parse_word": "reads text",
    "verify_relations": "reads a RelationPreset, which relation_preset builds",
    "export_mesh": "reads tiles, which PrismTile and generate_patch build",
}


def test_every_public_function_is_an_integer_reader_or_says_why_not():
    tabled = {key.split(" ")[0] for key in [*INTEGER_READERS, *SIZE_READERS_FROM_2]}
    public = {name for name in latticetwist.__all__
              # unwrapped, a function behind a cache counts too
              if inspect.isfunction(inspect.unwrap(getattr(latticetwist, name)))}
    assert public - tabled - set(NOT_INTEGER_READERS) == set()
    # the list names only public functions that are in no table
    assert set(NOT_INTEGER_READERS) <= public - tabled
