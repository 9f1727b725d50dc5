"""Twisted products on integer vectors over a permutation action.

The point set is V = {1..n}, acted on by the powers of a single
permutation: the integer g moves the point v to tau^g(v).  A vector of
length n is read as a map V -> Z, and the twisted product evaluates its
right factor at points displaced by the left factor's values:

    (a * b)(v) = a(v) + b(v . a(v)),      v . g = tau^g(v)

For the cyclic action tau(v) = v - 1, tau(1) = n this becomes

    (a * b)_i = a_i + b_{1 + ((i - 1 - a_i) mod n)}

All arithmetic is exact; indices into V are 1-based throughout.

Every integer input of the package is read here, by one rule:
`as_vector` for vectors, `check_permutation` for permutations and
`_as_int` for single values.  The common inputs are checked in C and
cost no Python step per entry: a tuple of exact ints is returned as it
is, and a permutation tuple is read as bytes.  Every other input is
converted entry by entry, with the same results.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from . import limits

Vec = tuple[int, ...]

# The images 1..255 in order: `check_permutation` deletes a tuple's bytes
# from its first m.
_IDENTITY_BYTES = bytes(range(1, 256))
# The entry types of a tuple that `as_vector` returns as it is.
_INT_TYPE = {int}
# Its entries are ints, but a bytes-like value is no vector or permutation.
_BYTES_LIKE = (bytes, bytearray, memoryview)


@dataclass(frozen=True)
class NotBijective:
    """Witness that a transport map sends two points to the same image."""

    v1: int
    v2: int
    image: int


class NotInvertibleError(ValueError):
    """Raised when inverting an element whose transport map collides."""

    def __init__(self, witness: NotBijective):
        self.witness = witness
        super().__init__(
            f"not invertible: points {witness.v1} and {witness.v2} "
            f"both transport to {witness.image}"
        )


def check_permutation(images: Sequence[int], n: int | None = None) -> tuple[int, ...]:
    """Validate one-line notation (1-based images), read as `as_vector` reads,
    of length n when n is given.

    A tuple shorter than 256 is first read as bytes, in C: it is a
    permutation when the images delete every byte of 1..m from the
    identity.  Below 256 the m bytes then hold each of 1..m once; longer,
    they could repeat one.  Any other input, or one whose bytes are not the
    same ints (an `__index__` object that is not equal to its index), takes
    the general path, with the same results."""
    if type(images) is tuple and len(images) < 256:
        try:
            b = bytes(images)
        except (TypeError, ValueError):
            pass
        else:
            tau = tuple(b)
            if tau == images and not _IDENTITY_BYTES[:len(b)].translate(None, b):
                if n is not None and len(tau) != n:
                    raise ValueError(f"expected length {n}, got {len(tau)}")
                return tau
    tau = None
    if not isinstance(images, _BYTES_LIKE):
        try:
            raw = tuple(images)
            tau = tuple(map(int, raw))
        except (TypeError, ValueError, OverflowError):
            pass
    if tau is None or tau != raw or sorted(tau) != list(range(1, len(tau) + 1)):
        raise ValueError(f"not a permutation: {images!r}")
    if n is not None and len(tau) != n:
        raise ValueError(f"expected length {n}, got {len(tau)}")
    return tau


def ordered_cycles(tau: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """Disjoint cycles (w_1 .. w_m) of tau with tau(w_j) = w_{j-1 mod m}.

    Each cycle starts at its smallest member and is walked against tau, so
    positions within a cycle transform exactly like the cyclic action on
    {1..m}.  Cycles are listed by increasing smallest member.  `tau` is
    read by `check_permutation`.
    """
    return _ordered_cycles(check_permutation(tau))


def _ordered_cycles(tau: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """`ordered_cycles` of a tau that `check_permutation` has read."""
    n = len(tau)
    prev = [0] * (n + 1)
    for v, image in enumerate(tau, start=1):
        prev[image] = v
    seen = [False] * (n + 1)
    cycles = []
    for start in range(1, n + 1):
        if seen[start]:
            continue
        cycle = []
        v = start
        while not seen[v]:
            seen[v] = True
            cycle.append(v)
            v = prev[v]
        cycles.append(tuple(cycle))
    return tuple(cycles)


@dataclass(frozen=True)
class Action:
    """Z-action on {1..n}: the permutation, its cycles, an O(n) position table."""

    n: int
    tau: tuple[int, ...]
    cycles: tuple[tuple[int, ...], ...]

    @classmethod
    def from_permutation(cls, images: Sequence[int]) -> "Action":
        tau = check_permutation(images)
        if not tau:
            raise ValueError("action needs at least one point")
        return cls(n=len(tau), tau=tau, cycles=_ordered_cycles(tau))

    @classmethod
    def cyclic(cls, n: int) -> "Action":
        """The action with tau(v) = v - 1 and tau(1) = n."""
        n = _as_int(n, "n", 1, limits.MAX_BOX_POINTS)
        return cls.from_permutation((n, *range(1, n)))

    @classmethod
    def trivial(cls, n: int) -> "Action":
        n = _as_int(n, "n", 1, limits.MAX_BOX_POINTS)
        return cls.from_permutation(range(1, n + 1))

    @cached_property
    def _position(self) -> tuple:
        # entry v - 1: (the cycle of v, v's 0-based place j in it, its length m)
        pos: list = [None] * self.n
        for cycle in self.cycles:
            m = len(cycle)
            for j, v in enumerate(cycle):
                pos[v - 1] = (cycle, j, m)
        return tuple(pos)

    def act(self, v: int, g: int) -> int:
        """tau^g(v) = w_{(j-g) mod m} for v = w_j; cyclic: 1 + ((v-1-g) mod n).
        v and g are read by the integer rule of `as_vector`."""
        v, g = _as_int(v, "v"), _as_int(g, "g")
        if not 1 <= v <= self.n:
            raise ValueError(f"point {v} outside 1..{self.n}")
        cycle, j, m = self._position[v - 1]
        return cycle[(j - g) % m]


def as_vector(values: Sequence[int], n: int | None = None) -> Vec:
    """`values` as a nonempty tuple of ints, of length n when n is given.

    Every integer input is read by this rule: an entry equal to an int
    (3, 3.0, Fraction(3), True) is that int, and any other (1.5, "3", nan,
    inf, None) is a ValueError, as is a bytes-like value.  `_as_int` reads
    one value by it.  A tuple whose entries are all exactly `int` is
    already that tuple, so it is returned as it is, after one test in C;
    any other input is converted entry by entry."""
    if type(values) is tuple and set(map(type, values)) == _INT_TYPE:
        if n is not None and len(values) != n:
            raise ValueError(f"expected length {n}, got {len(values)}")
        return values
    vec = None
    if not isinstance(values, _BYTES_LIKE):
        try:
            raw = tuple(values)
            vec = tuple(map(int, raw))
        except (TypeError, ValueError, OverflowError):
            pass
    if vec is None or vec != raw:
        raise ValueError(f"vector is not integral: {values!r}")
    if not vec:
        raise ValueError("empty vector")
    if n is not None and len(vec) != n:
        raise ValueError(f"expected length {n}, got {len(vec)}")
    return vec


def _as_int(value, what: str, least: int | None = None,
            cap: int | None = None) -> int:
    """One value as an int by the rule of `as_vector`; `what` names it.

    Every size argument (n, a radius, box ends, counts, a seed, a budget)
    is read here: below `least` it is a ValueError, and above `cap`, one
    of the caps in `limits`, a `limits.BudgetExceededError`."""
    if type(value) is not int:
        try:
            value = as_vector((value,))[0]
        except ValueError:
            raise ValueError(f"{what} must be an integer, got {value!r}") from None
    if least is not None and value < least:
        raise ValueError(f"{what} must be >= {least}, got {value}")
    if cap is not None and value > cap:
        raise limits.BudgetExceededError(f"{what}={value} exceeds the cap {cap}")
    return value


def _points(action: Action) -> int:
    """The point count n of `action`, read once per call by each function
    below; anything but an `Action` is a ValueError."""
    if not isinstance(action, Action):
        raise ValueError(f"action must be an Action, got {type(action).__name__}")
    return action.n


def identity_element(action: Action) -> Vec:
    """The all-zero vector: two-sided identity for the twisted product."""
    return (0,) * _points(action)


def embed_constant(g: int, action: Action) -> Vec:
    """Constant vector with value g; constants embed Z homomorphically."""
    return (_as_int(g, "g"),) * _points(action)


def star_multiply(a: Sequence[int], b: Sequence[int], action: Action) -> Vec:
    """Twisted product a * b under the given action."""
    n = _points(action)
    av = as_vector(a, n)
    bv = as_vector(b, n)
    return tuple([x + bv[w - 1] for x, w in zip(av, _images(av, action))])


def transport_permutation(
    a: Sequence[int], action: Action
) -> tuple[int, ...] | NotBijective:
    """The map v -> tau^{a(v)}(v), or a collision witness when not bijective.

    A collision is a normal outcome, not an error: it is exactly the
    certificate that `a` has no twisted inverse.
    """
    return _transport(as_vector(a, _points(action)), action)


def invert(a: Sequence[int], action: Action) -> Vec:
    """Two-sided twisted inverse psi(w) = -a(pi^{-1}(w)), pi the transport map.

    Raises NotInvertibleError (carrying the collision witness) when the
    transport map is not a bijection.
    """
    n = _points(action)
    av = as_vector(a, n)
    pi = _transport(av, action)
    if isinstance(pi, NotBijective):
        raise NotInvertibleError(pi)
    out = [0] * n
    for image, g in zip(pi, av):
        out[image - 1] = -g
    return tuple(out)


# The kernels below take a vector already checked by as_vector to have
# length action.n.

def _images(av: Vec, action: Action) -> list[int]:
    """[tau^{a(v)}(v) for v = 1..n]: `Action.act` without its range check."""
    return [c[(j - g) % m] for (c, j, m), g in zip(action._position, av)]


def _transport(av: Vec, action: Action) -> tuple[int, ...] | NotBijective:
    first_preimage: dict[int, int] = {}
    for v, image in enumerate(_images(av, action), start=1):
        if image in first_preimage:
            return NotBijective(first_preimage[image], v, image)
        first_preimage[image] = v
    # no collision: the keys are the n images, in the order of v
    return tuple(first_preimage)


def _is_unit(av: Vec, cycles: Sequence[Sequence[int]]) -> bool:
    """Transport bijective: in each cycle (w_0 .. w_{m-1}) of the action the
    places (j - a(w_j)) mod m that tau^{a(w_j)} sends w_j to are distinct."""
    for cycle in cycles:
        m = len(cycle)
        if len({(j - av[w - 1]) % m for j, w in enumerate(cycle)}) != m:
            return False
    return True
