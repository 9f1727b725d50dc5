"""Semidirect product Z^n x| S_n and its match with the deformed addition.

Elements are pairs (z, s) of a translation vector and a permutation in
one-line notation.  The product is

    (z, s) . (k, r) = (z + k o s, r o s),      (k o s)_i = k_{s(i)}

which is the unique convention making phi_forward below a homomorphism
from the deformed addition (the alternative order fails on concrete
pairs already at n = 3).

phi_forward splits each entry as x_i = n*m_i + l_i with l_i in [0, n-1]
and maps x to z = (m_i), s(i) = 1 + ((-l_i) mod n); phi_backward inverts
this via l_i = (1 - s(i)) mod n.  Unit membership for an arbitrary
permutation action factors through the cycles of the permutation, and
vectors split into one factor per cycle.
"""

from __future__ import annotations

from itertools import accumulate
from typing import NamedTuple, Sequence

from . import limits
from .twisted import Vec, _as_int, _is_unit, _ordered_cycles, as_vector, check_permutation
from .units import _require_residue_distinct

Permutation = tuple[int, ...]
CycleStructure = tuple[tuple[int, ...], ...]


class SemiElement(NamedTuple):
    """Pair (translation vector, permutation in one-line notation)."""

    z: Vec
    s: Permutation


def identity_perm(n: int) -> Permutation:
    return tuple(range(1, _as_int(n, "n", 1, limits.MAX_BOX_POINTS) + 1))


def perm_compose(p2: Sequence[int], p1: Sequence[int]) -> Permutation:
    """(p2 o p1)(i) = p2(p1(i))."""
    q2 = check_permutation(p2)
    q1 = check_permutation(p1, len(q2))
    return tuple(q2[v - 1] for v in q1)


def perm_inverse(p: Sequence[int]) -> Permutation:
    s = check_permutation(p)
    out = [0] * len(s)
    for i, v in enumerate(s, start=1):
        out[v - 1] = i
    return tuple(out)


def semi_identity(n: int) -> SemiElement:
    s = identity_perm(n)
    return SemiElement((0,) * len(s), s)


def semi_multiply(left: SemiElement, right: SemiElement) -> SemiElement:
    """Product left . right = (z + k o s, r o s) for left=(z,s), right=(k,r)."""
    left = _checked(left, "left")
    return _mul(left, _checked(right, "right", len(left[1])))


def semi_inverse(g: SemiElement) -> SemiElement:
    return _power(_checked(g, "g"), -1)


def semi_power(g: SemiElement, k: int) -> SemiElement:
    """g^k in O(n) operations on ints the size of k, negative k too.  g is
    read as every other element is, for k = 0 too."""
    k = _as_int(k, "k")
    return _power(_checked(g, "g"), k)


def _checked(g: SemiElement, what: str, n: int | None = None) -> tuple[Vec, Permutation]:
    """Unpack g as (z, s): a permutation s, of length n when n is given, and
    a vector z of ints as long.  `what` names g when it is not a pair."""
    try:
        z, s = g
    except (TypeError, ValueError):
        raise ValueError(f"{what} is not a (z, s) pair: {g!r}") from None
    s = check_permutation(s, n)
    return as_vector(z, len(s)), s


# The kernels below take pairs that are already valid: s a permutation of
# 1..n in one-line notation and z a vector of the same length n.  Public
# functions validate once and then call them.

def _mul(left, right) -> SemiElement:
    z, s = left
    k, r = right
    return SemiElement(tuple([a + k[v - 1] for a, v in zip(z, s)]),
                       tuple([r[v - 1] for v in s]))


def _power(g, k: int) -> SemiElement:
    """(z, s)^k = (sum_{j<k} z o s^j, s^k) for k >= 0.  On a cycle of length
    m, g^m adds the cycle's sum to each point, so with (q, r) = divmod(k, m),
    r >= 0 for any k, a point's entry is q such turns plus its next r
    entries of z along s, a window of prefix sums.  Each point starts as a
    fixed point, with entry k z_v."""
    z, s = g
    out_z = [k * x for x in z]
    out_s = list(s)
    for cycle in _ordered_cycles(s):
        m = len(cycle)
        if m > 1:
            q, r = divmod(k, m)
            # `_ordered_cycles` steps by s^-1; reversed, f[p + 1] = s(f[p])
            f = cycle[::-1]
            w = [z[v - 1] for v in f]
            sums = list(accumulate(w + w, initial=0))
            turn = q * sums[m]
            for v, lo, hi, image in zip(f, sums, sums[r:], (f + f)[r:]):
                out_z[v - 1] = turn + hi - lo
                out_s[v - 1] = image
    return SemiElement(tuple(out_z), tuple(out_s))


def phi_forward(x: Sequence[int]) -> SemiElement:
    """Isomorphism from residue-distinct vectors to (Z^n, S_n) pairs."""
    xv = _require_residue_distinct(x)
    n = len(xv)
    z = []
    s = []
    for e in xv:
        m, l = divmod(e, n)
        z.append(m)
        s.append(1 + ((-l) % n))
    return SemiElement(tuple(z), tuple(s))


def phi_backward(g: SemiElement) -> Vec:
    """Inverse of phi_forward: x_i = n*z_i + ((1 - s(i)) mod n)."""
    z, s = _checked(g, "g")
    n = len(s)
    return tuple(n * m + ((1 - v) % n) for m, v in zip(z, s))


def general_is_unit(x: Sequence[int], tau: Sequence[int]) -> bool:
    """Invertibility under the action of an arbitrary permutation tau.

    Decided cycle by cycle by `twisted._is_unit`, the kernel that
    `units.is_unit_member` runs too; `transport_permutation` gives a witness.
    """
    t = check_permutation(tau)
    return _is_unit(as_vector(x, len(t)), _ordered_cycles(t))


def split_to_factors(x: Sequence[int], cycles: CycleStructure) -> list[Vec]:
    """Restrict x to each cycle, reindexed along the cycle order.  Each cycle
    is read by `as_vector`, and together they must partition 1..len(x)."""
    xv = as_vector(x)
    return [tuple(xv[w - 1] for w in cycle) for cycle in _read_cycles(cycles, len(xv))]


def assemble_from_factors(parts: Sequence[Sequence[int]], cycles: CycleStructure) -> Vec:
    """Inverse of split_to_factors: each part is read by `as_vector`, as
    long as its cycle."""
    cycles = _read_cycles(cycles)
    try:
        parts = tuple(parts)
    except TypeError:
        raise ValueError(f"parts is not a sequence: {parts!r}") from None
    if len(parts) != len(cycles):
        raise ValueError(f"{len(parts)} parts for {len(cycles)} cycles")
    parts = [as_vector(part, len(cycle)) for part, cycle in zip(parts, cycles)]
    return _assemble(parts, cycles, sum(map(len, cycles)))


def _read_cycles(cycles: CycleStructure, n: int | None = None) -> CycleStructure:
    """`cycles` with each cycle read by `as_vector`; together they must
    partition 1..n, where n is their total length when not given."""
    try:
        each = iter(cycles)
    except TypeError:
        raise ValueError(f"cycles is not a sequence of cycles: {cycles!r}") from None
    cycles = tuple(map(as_vector, each))
    members = sorted(w for cycle in cycles for w in cycle)
    if n is None:
        n = len(members)
    if members != list(range(1, n + 1)):
        raise ValueError(f"cycles do not partition 1..{n}: {cycles!r}")
    return cycles


def _assemble(parts, cycles: CycleStructure, n: int) -> Vec:
    """The vector of length n holding part[j] at cycle[j], for cycles that
    partition 1..n and parts as long as their cycles."""
    out = [0] * n
    for part, cycle in zip(parts, cycles):
        for value, w in zip(part, cycle):
            out[w - 1] = value
    return tuple(out)
