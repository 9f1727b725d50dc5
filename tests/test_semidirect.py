"""The semidirect product picture and the isomorphism onto it."""

import math
import random
import re
import time
from itertools import product

import pytest
from hypothesis import given, strategies as st

from latticetwist.semidirect import (
    SemiElement,
    _power,
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
from latticetwist.twisted import (
    Action,
    NotBijective,
    ordered_cycles,
    star_multiply,
    transport_permutation,
)
from latticetwist.units import (
    cyclic_action,
    deformed_multiply,
    is_residue_distinct,
    is_unit_member,
)
from test_twisted import vectors_for


def semi_elements(n):
    return st.tuples(
        st.tuples(*[st.integers(-20, 20)] * n),
        st.permutations(range(1, n + 1)),
    ).map(lambda pair: SemiElement(pair[0], tuple(pair[1])))


def residue_distinct_vectors(n):
    return st.tuples(
        st.permutations(range(n)),
        st.tuples(*[st.integers(-10, 10)] * n),
    ).map(lambda pair: tuple(r + n * m for r, m in zip(pair[0], pair[1])))


class TestPermutations:
    def test_compose_applies_right_factor_first(self):
        # (p2 o p1)(i) = p2(p1(i))
        p1 = (2, 1, 3)
        p2 = (3, 1, 2)
        assert perm_compose(p2, p1) == (1, 3, 2)

    def test_inverse(self):
        p = (3, 1, 4, 2)
        q = perm_inverse(p)
        n = len(p)
        assert perm_compose(p, q) == identity_perm(n)
        assert perm_compose(q, p) == identity_perm(n)

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            perm_inverse((1, 1))
        with pytest.raises(ValueError):
            perm_compose((1, 2), (1, 2, 3))


class TestSemidirectGroup:
    def test_multiply_translates_through_left_permutation(self):
        left = SemiElement((1, 0, 0), (3, 1, 2))
        right = SemiElement((5, 7, 9), (1, 2, 3))
        out = semi_multiply(left, right)
        # (z + k o s)_i = z_i + k_{s(i)}
        assert out.z == (1 + 9, 0 + 5, 0 + 7)
        assert out.s == (3, 1, 2)

    def test_inverse_example(self):
        a = SemiElement((0, 0, 0, 1), (4, 1, 2, 3))
        assert semi_inverse(a) == SemiElement((0, 0, -1, 0), (2, 3, 4, 1))

    @given(st.data())
    def test_group_axioms(self, data):
        n = data.draw(st.integers(1, 6))
        x = data.draw(semi_elements(n))
        y = data.draw(semi_elements(n))
        z = data.draw(semi_elements(n))
        assert semi_multiply(semi_multiply(x, y), z) == semi_multiply(
            x, semi_multiply(y, z))
        e = semi_identity(n)
        assert semi_multiply(x, e) == x
        assert semi_multiply(e, x) == x
        xi = semi_inverse(x)
        assert semi_multiply(x, xi) == e
        assert semi_multiply(xi, x) == e

    @given(st.data())
    def test_power_matches_repeated_multiplication(self, data):
        n = data.draw(st.integers(1, 5))
        g = data.draw(semi_elements(n))
        k = data.draw(st.integers(-6, 6))
        acc = semi_identity(n)
        base = g if k >= 0 else semi_inverse(g)
        for _ in range(abs(k)):
            acc = semi_multiply(acc, base)
        assert semi_power(g, k) == acc

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            semi_multiply(semi_identity(2), semi_identity(3))

    def test_first_power_is_an_element_of_tuples(self):
        for k in (1, -1, 3):
            p = semi_power(SemiElement([1, -2, 0], [2, 3, 1]), k)
            assert type(p) is SemiElement
            assert (type(p.z), type(p.s)) == (tuple, tuple)
        assert semi_power(SemiElement([1, -2, 0], [2, 3, 1]), 1) == (
            (1, -2, 0), (2, 3, 1))

    def test_power_zero_validates(self):
        # g^0 reads g as every other power does
        with pytest.raises(ValueError, match=r"^not a permutation: \(1, 1\)$"):
            semi_power(SemiElement((5, 5), (1, 1)), 0)

    def test_power_zero_takes_a_plain_pair(self):
        assert semi_power(((0, 0), (2, 1)), 0) == semi_identity(2)

    def test_power_zero_of_a_translation_without_a_length_is_a_value_error(self):
        for k in (0, 1):
            with pytest.raises(ValueError):
                semi_power(SemiElement(None, (2, 1)), k)
        with pytest.raises(ValueError, match="^vector is not integral: None$"):
            semi_power(SemiElement(None, (2, 1)), 0)

    def test_identity_needs_n_at_least_1(self):
        with pytest.raises(ValueError, match="^n must be >= 1, got 0$"):
            semi_identity(0)
        with pytest.raises(ValueError, match="^n must be >= 1, got -2$"):
            identity_perm(-2)
        # g^0 reads g first, and an empty translation is not a vector
        with pytest.raises(ValueError, match="^empty vector$"):
            semi_power(SemiElement((), ()), 0)


def _old_multiply(left, right):
    # The product before validation moved ahead of a trusted kernel.
    z, s = left
    k, r = right
    if len(z) != len(k):
        raise ValueError(f"length mismatch: {len(z)} vs {len(k)}")
    new_z = tuple(z[i] + k[s[i] - 1] for i in range(len(z)))
    return SemiElement(new_z, perm_compose(r, s))


def _old_inverse(g):
    z, s = g
    s_inv = perm_inverse(s)
    return SemiElement(tuple(-z[s_inv[i] - 1] for i in range(len(z))), s_inv)


def square_and_multiply(g, k):
    """Oracle for `semi_power` and the letter powers: g^k by binary powering
    on the product of `_old_multiply`, through the inverse for k < 0."""
    if k < 0:
        return square_and_multiply(_old_inverse(g), -k)
    acc = semi_identity(len(g.z))
    base = g
    while k:
        if k & 1:
            acc = _old_multiply(acc, base)
        base = _old_multiply(base, base)
        k >>= 1
    return acc


def _raised(func, *args):
    try:
        func(*args)
    except Exception as exc:  # the type is what is compared
        return type(exc)
    return None


def bad_permutations(n):
    """Length-n sequences over 1..n that are not permutations."""
    return st.lists(st.integers(1, n), min_size=n, max_size=n).filter(
        lambda p: sorted(p) != list(range(1, n + 1))).map(tuple)


class TestValidation:
    @given(st.data())
    def test_invalid_permutations_raise_as_before(self, data):
        n = data.draw(st.integers(2, 6))
        good = data.draw(semi_elements(n))
        bad = SemiElement(data.draw(semi_elements(n)).z,
                          data.draw(bad_permutations(n)))
        k = data.draw(st.integers(-5, 5).filter(lambda x: x != 0))
        for new, old, args in [
            (semi_multiply, _old_multiply, (bad, good)),
            (semi_multiply, _old_multiply, (good, bad)),
            (semi_multiply, _old_multiply, (bad, bad)),
            (semi_inverse, _old_inverse, (bad,)),
            (semi_power, square_and_multiply, (bad, k)),
        ]:
            assert _raised(new, *args) is _raised(old, *args) is ValueError

    def test_out_of_range_images_are_value_errors(self):
        # The old product read k[3] here and raised IndexError.
        bad = SemiElement((0, 0), (1, 4))
        assert _raised(_old_multiply, bad, semi_identity(2)) is IndexError
        assert _raised(semi_multiply, bad, semi_identity(2)) is ValueError

    def test_translation_without_a_length_is_a_value_error(self):
        with pytest.raises(ValueError, match="^vector is not integral: None$"):
            semi_multiply(SemiElement(None, (2, 1)), semi_identity(2))
        with pytest.raises(ValueError, match="^vector is not integral: 5$"):
            semi_multiply(semi_identity(2), SemiElement(5, (2, 1)))

    # Each call whose whole argument is not a (z, s) pair, a cycle structure
    # or a list of parts: a ValueError that names the argument.
    @pytest.mark.parametrize("call, message", [
        (lambda: semi_multiply(None, semi_identity(2)),
         "left is not a (z, s) pair: None"),
        (lambda: semi_multiply(semi_identity(2), 5),
         "right is not a (z, s) pair: 5"),
        (lambda: semi_inverse(7), "g is not a (z, s) pair: 7"),
        (lambda: semi_inverse(((0,), (1,), ())),
         "g is not a (z, s) pair: ((0,), (1,), ())"),
        (lambda: semi_power(5, 0), "g is not a (z, s) pair: 5"),
        (lambda: phi_backward(None), "g is not a (z, s) pair: None"),
        (lambda: split_to_factors((1, 2), None),
         "cycles is not a sequence of cycles: None"),
        (lambda: assemble_from_factors(None, ((1,),)),
         "parts is not a sequence: None"),
    ], ids=["semi_multiply left", "semi_multiply right", "semi_inverse",
            "semi_inverse triple", "semi_power", "phi_backward",
            "split_to_factors", "assemble_from_factors"])
    def test_an_argument_of_the_wrong_shape_is_a_value_error(self, call, message):
        with pytest.raises(ValueError, match="^" + re.escape(message)):
            call()

    def test_parts_and_cycles_may_be_any_iterable(self):
        parts, cycles = [(5, 6), (7,)], ((1, 3), (2,))
        expected = assemble_from_factors(parts, cycles)
        assert expected == (5, 7, 6)
        assert assemble_from_factors((p for p in parts), cycles) == expected
        assert assemble_from_factors(iter(parts), iter(cycles)) == expected
        with pytest.raises(ValueError, match="^1 parts for 2 cycles$"):
            assemble_from_factors((p for p in parts[:1]), cycles)

    @given(st.data())
    def test_length_mismatches_raise_as_before(self, data):
        n = data.draw(st.integers(1, 5))
        m = data.draw(st.integers(1, 5).filter(lambda x: x != n))
        x = data.draw(semi_elements(n))
        y = data.draw(semi_elements(m))
        # a translation of the right length over a permutation of another
        mixed = SemiElement(x.z, y.s)
        for args in [(x, y), (y, x), (x, mixed)]:
            assert (_raised(semi_multiply, *args)
                    is _raised(_old_multiply, *args) is ValueError)
        # The old code read out of range here (IndexError) or returned an
        # element whose parts disagree in length; every length mismatch is
        # now the ValueError above.
        assert _raised(semi_multiply, mixed, mixed) is ValueError
        assert _raised(semi_inverse, mixed) is ValueError
        assert _raised(semi_power, mixed, 3) is ValueError


def several_cycles(n, rng):
    """A random element whose permutation has several cycles, often fixed
    points among them: cycles of random lengths over a shuffle of 1..n."""
    points = list(range(1, n + 1))
    rng.shuffle(points)
    s = [0] * n
    i = 0
    while i < n:
        cycle = points[i:i + rng.choice((1, 2, 3, rng.randint(1, n)))]
        for v, image in zip(cycle, cycle[1:] + cycle[:1]):
            s[v - 1] = image
        i += len(cycle)
    return SemiElement(tuple(rng.randint(-9, 9) for _ in range(n)), tuple(s))


def power_by_order(g, k):
    """Oracle for `semi_power` at any k: with L the order of s, g^L = (c, id)
    is a translation, so g^k = (q c, id) . g^r for (q, r) = divmod(k, L),
    with g^L and g^r taken by repeated products."""
    n = len(g.s)
    order = math.lcm(*map(len, ordered_cycles(g.s)))
    powers = [semi_identity(n)]
    for _ in range(order):
        powers.append(_old_multiply(powers[-1], g))
    q, r = divmod(k, order)
    c = powers[order].z
    return _old_multiply(SemiElement(tuple(q * x for x in c), identity_perm(n)),
                         powers[r])


class TestCyclePower:
    def test_matches_square_and_multiply(self):
        rng = random.Random(34)
        for n in (*range(1, 12), 40, 80):
            for _ in range(4):
                g = several_cycles(n, rng)
                lengths = {len(c) for c in ordered_cycles(g.s)}
                ks = {0, 1, 10**9, 10**9 + 7, math.lcm(*lengths), *lengths,
                      *(rng.randint(2, 10**12) for _ in range(3))}
                for k in (*ks, *(-k for k in ks)):
                    assert _power(g, k) == square_and_multiply(g, k), (g, k)

    def test_huge_exponent_is_linear_in_its_digits(self):
        # a 3-cycle, two 2-cycles and a fixed point: the order is 6
        g = SemiElement((3, -1, 4, 1, -5, 9, 2, -6), (2, 3, 1, 5, 4, 6, 8, 7))
        for k in (10**30000, -10**30000 - 1):
            start = time.perf_counter()
            got = semi_power(g, k)
            assert time.perf_counter() - start < 0.5
            assert got == power_by_order(g, k)


class TestIsomorphism:
    def test_forward_example(self):
        assert phi_forward((3, 5, 4)) == SemiElement((1, 1, 1), (1, 2, 3))

    def test_backward_example(self):
        assert phi_backward(SemiElement((1, 1, 1), (3, 1, 2))) == (4, 3, 5)

    def test_forward_rejects_collisions(self):
        with pytest.raises(ValueError):
            phi_forward((2, 2, 1))

    def test_backward_rejects_garbage(self):
        with pytest.raises(ValueError):
            phi_backward(SemiElement((0, 0), (1, 1)))
        with pytest.raises(ValueError):
            phi_backward(SemiElement((0, 0, 0), (1, 2)))

    def test_backward_computes_on_validated_parts(self):
        # both parts are read as integer tuples, as in the other functions
        out = phi_backward(SemiElement((0, 0), (2.0, 1.0)))
        assert out == (1, 0) and all(type(x) is int for x in out)
        with pytest.raises(ValueError):
            phi_backward(SemiElement(("a", "b"), (2, 1)))
        with pytest.raises(ValueError):
            phi_backward(SemiElement((), ()))
        with pytest.raises(ValueError, match="expected length 3, got 2"):
            phi_backward(SemiElement((0, 0), (1, 2, 3)))

    @given(st.data())
    def test_roundtrips(self, data):
        n = data.draw(st.integers(1, 6))
        x = data.draw(residue_distinct_vectors(n))
        assert phi_backward(phi_forward(x)) == x
        g = data.draw(semi_elements(n))
        assert phi_forward(phi_backward(g)) == g

    @given(st.data())
    def test_homomorphism(self, data):
        n = data.draw(st.integers(1, 6))
        x = data.draw(residue_distinct_vectors(n))
        y = data.draw(residue_distinct_vectors(n))
        assert phi_forward(deformed_multiply(x, y)) == semi_multiply(
            phi_forward(x), phi_forward(y))

    def test_product_convention_negative_control(self):
        # the reversed convention (z + k o s^-1, s o r) already fails here
        x, y = (0, 1, 2), (1, 0, 2)
        gx, gy = phi_forward(x), phi_forward(y)
        correct = semi_multiply(gx, gy)
        assert correct == phi_forward(deformed_multiply(x, y))
        assert correct.s == (3, 2, 1)
        s_inv = perm_inverse(gx.s)
        alt = SemiElement(
            tuple(gx.z[i] + gy.z[s_inv[i] - 1] for i in range(3)),
            perm_compose(gx.s, gy.s),
        )
        assert alt.s == (2, 1, 3)
        assert alt != correct


class TestGeneralActions:
    def test_cycle_decompose(self):
        assert ordered_cycles((2, 1, 4, 3)) == ((1, 2), (3, 4))
        assert ordered_cycles((4, 1, 2, 3)) == ((1, 2, 3, 4),)

    def test_general_is_unit_matches_transport(self):
        for tau in [(2, 1, 4, 3), (1, 2, 3), (3, 1, 2), (2, 3, 4, 5, 1)]:
            action = Action.from_permutation(tau)
            n = len(tau)
            for x in product(range(-1, n + 1), repeat=n):
                bijective = not isinstance(
                    transport_permutation(x, action), NotBijective)
                assert general_is_unit(x, tau) == bijective

    def test_cyclic_case_reduces_to_unit_membership(self):
        tau = (4, 1, 2, 3)
        action = Action.from_permutation(tau)
        for x in product(range(4), repeat=4):
            assert general_is_unit(x, tau) == is_unit_member(x)
            # both run one kernel; the transport map is the independent check
            assert is_unit_member(x) == (not isinstance(
                transport_permutation(x, action), NotBijective))

    @given(st.data())
    def test_unit_predicates_match_transport(self, data):
        n = data.draw(st.integers(1, 7))
        tau = tuple(data.draw(st.permutations(range(1, n + 1))))
        x = data.draw(vectors_for(tau))
        assert general_is_unit(x, tau) == (not isinstance(
            transport_permutation(x, Action.from_permutation(tau)), NotBijective))
        cyclic = cyclic_action(n)
        y = data.draw(vectors_for(cyclic.tau))
        expect = not isinstance(transport_permutation(y, cyclic), NotBijective)
        assert is_unit_member(y) == general_is_unit(y, cyclic.tau) == expect

    def test_split_assemble_roundtrip(self):
        cycles = ordered_cycles((2, 1, 4, 3))
        x = (7, -2, 0, 5)
        parts = split_to_factors(x, cycles)
        assert parts == [(7, -2), (0, 5)]
        assert assemble_from_factors(parts, cycles) == x

    def test_split_commutes_with_star(self):
        # multiplying under tau then restricting to a cycle equals
        # restricting first and multiplying under the cyclic action of
        # that cycle's length
        for tau in [(2, 1, 4, 3), (3, 1, 2, 5, 4), (1, 3, 2)]:
            action = Action.from_permutation(tau)
            cycles = ordered_cycles(tau)
            import random
            rng = random.Random(42)
            for _ in range(50):
                n = len(tau)
                x = tuple(rng.randint(-9, 9) for _ in range(n))
                y = tuple(rng.randint(-9, 9) for _ in range(n))
                whole = split_to_factors(star_multiply(x, y, action), cycles)
                parts = [
                    star_multiply(fx, fy, cyclic_action(len(c)))
                    for fx, fy, c in zip(
                        split_to_factors(x, cycles),
                        split_to_factors(y, cycles),
                        cycles,
                    )
                ]
                assert whole == parts

    def test_unit_membership_is_per_cycle_residue_distinct(self):
        # after shifting each cycle by its own length's shift vector
        from latticetwist.units import shift_vector

        tau = (2, 1, 4, 3)
        cycles = ordered_cycles(tau)
        shift = assemble_from_factors(
            [shift_vector(len(c)) for c in cycles], cycles)
        for y in product(range(-1, 4), repeat=4):
            x = tuple(a - b for a, b in zip(y, shift))
            per_cycle = all(
                is_residue_distinct(f) for f in split_to_factors(y, cycles))
            assert per_cycle == general_is_unit(x, tau)

    def test_bad_cycle_structures(self):
        with pytest.raises(ValueError):
            split_to_factors((1, 2, 3), ((1, 2),))
        with pytest.raises(ValueError):
            assemble_from_factors([(1,), (2,)], ((1, 2),))
        with pytest.raises(ValueError):
            assemble_from_factors([(1, 2)], ((1, 2), (3,)))
        with pytest.raises(ValueError, match="^expected length 2, got 1$"):
            assemble_from_factors([(1,)], ((1, 2),))
        # cycles and parts are read by the integer rule of `as_vector`
        assert split_to_factors((5, 6), ((1.0, 2),)) == [(5, 6)]
        for cycles in [((1.5, 2),), ((None,),), (None,), ((),)]:
            with pytest.raises(ValueError):
                split_to_factors((5, 6), cycles)
            with pytest.raises(ValueError):
                assemble_from_factors([(5, 6)], cycles)
        with pytest.raises(ValueError, match="^vector is not integral: None$"):
            assemble_from_factors([None], ((1,),))
