"""Units of the cyclic twisted product and the deformed addition."""

import math
from itertools import product

import pytest
from hypothesis import given, strategies as st

from latticetwist import units
from latticetwist.limits import BudgetExceededError
from latticetwist.twisted import invert, star_multiply
from latticetwist.units import (
    cyclic_action,
    deformed_inverse,
    deformed_multiply,
    enumerate_residue_classes,
    is_residue_distinct,
    is_unit_member,
    shift_vector,
)


def residue_distinct_vectors(n):
    """Strategy: a residue class permutation plus arbitrary multiples of n."""
    return st.tuples(
        st.permutations(range(n)),
        st.tuples(*[st.integers(-10, 10)] * n),
    ).map(lambda pair: tuple(r + n * m for r, m in zip(pair[0], pair[1])))


class TestPredicates:
    def test_shift_vector(self):
        assert shift_vector(1) == (0,)
        assert shift_vector(4) == (0, 3, 2, 1)

    def test_is_unit_member_examples(self):
        assert is_unit_member((1, 0, 2))
        assert not is_unit_member((1, 1, 0))

    def test_cyclic_action_cache_is_bounded(self):
        cache = units._cyclic_action
        cache.cache_clear()
        # membership reads the one cycle (1..n) without building an action
        assert is_unit_member((0,) * 10**5)
        assert not is_unit_member(tuple(range(10**5)))
        for n in range(1, 21):
            is_unit_member(shift_vector(n))
        assert cache.cache_info().currsize == 0
        for n in range(1, 21):
            assert deformed_inverse(shift_vector(n)) == shift_vector(n)
        assert cache.cache_info().currsize <= 16
        # n is read before the cache: a float length is the cached int entry
        assert cyclic_action(2).n == 2
        assert cyclic_action(2.0) is cyclic_action(2)

    def test_cyclic_action_reads_n_before_caching_it(self):
        # a list is refused by the integer rule, not hashed by the cache
        for bad in ([], [3], None, 1.5):
            with pytest.raises(ValueError, match="n must be an integer"):
                cyclic_action(bad)

    def test_is_residue_distinct_examples(self):
        assert is_residue_distinct((3, 5, 4))
        assert not is_residue_distinct((2, 2, 1))
        assert is_residue_distinct((0, -1))  # residues 0, 1 mod 2

    def test_shift_links_the_two_predicates(self):
        for n in (1, 2, 3, 4):
            s = shift_vector(n)
            for y in product(range(-1, n + 1), repeat=n):
                x = tuple(a - b for a, b in zip(y, s))
                assert is_residue_distinct(y) == is_unit_member(x)

    def test_unit_count_is_factorial(self):
        for n in (1, 2, 3, 4):
            units = [x for x in product(range(n), repeat=n) if is_unit_member(x)]
            assert len(units) == math.factorial(n)

    def test_residue_class_count_is_factorial(self):
        for n in (1, 2, 3, 4, 5):
            reps = enumerate_residue_classes(n)
            assert len(reps) == math.factorial(n)
            assert len(set(reps)) == len(reps)
            assert all(is_residue_distinct(x) for x in reps)

    def test_enumeration_matches_brute_force(self):
        for n in (1, 2, 3, 4):
            brute = {
                x for x in product(range(n), repeat=n) if is_residue_distinct(x)
            }
            assert set(enumerate_residue_classes(n)) == brute

    def test_enumeration_cap(self):
        with pytest.raises(BudgetExceededError):
            enumerate_residue_classes(9)


class TestDeformedGroup:
    def test_identity_is_the_shift(self):
        assert shift_vector(3) == (0, 2, 1)

    def test_multiply_example(self):
        assert deformed_multiply((3, 5, 4), (1, 0, 2)) == (4, 3, 5)

    def test_identity_is_neutral(self):
        e = shift_vector(3)
        for x in [(3, 5, 4), (0, 1, 2), (-2, 0, 2)]:
            assert deformed_multiply(x, e) == x
            assert deformed_multiply(e, x) == x

    def test_rejects_residue_collisions(self):
        with pytest.raises(ValueError):
            deformed_multiply((2, 2, 1), (0, 2, 1))
        with pytest.raises(ValueError):
            deformed_multiply((0, 2, 1), (2, 2, 1))
        with pytest.raises(ValueError):
            deformed_inverse((2, 2, 1))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            deformed_multiply((0, 1), (0, 1, 2))

    @given(st.data())
    def test_matches_shift_conjugated_star(self, data):
        n = data.draw(st.integers(1, 5))
        x = data.draw(residue_distinct_vectors(n))
        y = data.draw(residue_distinct_vectors(n))
        s = shift_vector(n)
        act = cyclic_action(n)
        inner = star_multiply(
            tuple(a - b for a, b in zip(x, s)),
            tuple(a - b for a, b in zip(y, s)),
            act,
        )
        assert deformed_multiply(x, y) == tuple(a + b for a, b in zip(s, inner))

    @given(st.data())
    def test_group_axioms(self, data):
        n = data.draw(st.integers(1, 5))
        x = data.draw(residue_distinct_vectors(n))
        y = data.draw(residue_distinct_vectors(n))
        z = data.draw(residue_distinct_vectors(n))
        xy = deformed_multiply(x, y)
        assert is_residue_distinct(xy)  # closure
        assert deformed_multiply(xy, z) == deformed_multiply(
            x, deformed_multiply(y, z))
        e = shift_vector(n)
        xi = deformed_inverse(x)
        assert is_residue_distinct(xi)
        assert deformed_multiply(x, xi) == e
        assert deformed_multiply(xi, x) == e

    @given(st.data())
    def test_inverse_matches_shift_conjugated_invert(self, data):
        # the twisted inverse, moved to the deformed addition by the shift
        # conjugation x -> x - s, as deformed_inverse once computed it
        n = data.draw(st.integers(1, 8))
        x = data.draw(residue_distinct_vectors(n))
        s = shift_vector(n)
        inner = invert(tuple(a - b for a, b in zip(x, s)), cyclic_action(n))
        assert deformed_inverse(x) == tuple(a + b for a, b in zip(s, inner))

    def test_inverse_of_identity(self):
        for n in (1, 2, 3, 4):
            e = shift_vector(n)
            assert deformed_inverse(e) == e
