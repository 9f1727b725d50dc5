"""The group of invertible vectors under the cyclic twisted product.

A vector x is invertible exactly when the displacements (v - x_v) mod n
are pairwise distinct.  Translating the whole unit set by the shift
vector (0, n-1, n-2, ..., 1) turns that criterion into plain residue
distinctness of the entries, and transports the twisted product to a
deformed addition with a closed form:

    (x . y)_i = n * floor(x_i / n) + y_{1 + ((-x_i) mod n)}

Residue-distinct vectors fall into exactly n! classes inside [0, n-1]^n.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations
from typing import Sequence

from . import limits
from .twisted import Action, Vec, _as_int, _is_unit, as_vector


def cyclic_action(n: int) -> Action:
    """`Action.cyclic(n)`, built once for each of the last 16 n read."""
    return _cyclic_action(_as_int(n, "n", 1, limits.MAX_BOX_POINTS))


@lru_cache(maxsize=16)
def _cyclic_action(n: int) -> Action:
    return Action.cyclic(n)


def shift_vector(n: int) -> Vec:
    """(0, n-1, n-2, ..., 2, 1): identity of the deformed addition."""
    return (0, *range(_as_int(n, "n", 1, limits.MAX_BOX_POINTS) - 1, 0, -1))


def is_unit_member(x: Sequence[int]) -> bool:
    """Invertibility under the cyclic twisted product."""
    xv = as_vector(x)
    # the cyclic action has the one cycle (1..n)
    return _is_unit(xv, (range(1, len(xv) + 1),))


def is_residue_distinct(x: Sequence[int]) -> bool:
    """Entries pairwise distinct mod n; membership in the deformed group."""
    return _residue_distinct(as_vector(x))


def _residue_distinct(xv: Sequence[int]) -> bool:
    # xv is a nonempty sequence of ints, already checked
    n = len(xv)
    return len(set(map(n.__rmod__, xv))) == n


def _require_residue_distinct(x: Sequence[int], n: int | None = None) -> Vec:
    xv = as_vector(x, n)
    if not _residue_distinct(xv):
        raise ValueError(f"entries not pairwise distinct mod {len(xv)}: {xv!r}")
    return xv


def deformed_multiply(x: Sequence[int], y: Sequence[int]) -> Vec:
    """Deformed addition of residue-distinct vectors (closed form)."""
    xv = _require_residue_distinct(x)
    n = len(xv)
    yv = _require_residue_distinct(y, n)
    return tuple(n * (xv[i] // n) + yv[(-xv[i]) % n] for i in range(n))


def deformed_inverse(x: Sequence[int]) -> Vec:
    """Inverse for the deformed addition, from the closed form of the
    product: x . y is the identity, whose entry i is (1 - i) mod n, exactly
    when, for every i,

        y_{1 + ((-x_i) mod n)} = ((1 - i) mod n) - n * floor(x_i / n).
    """
    xv = _require_residue_distinct(x)
    n = len(xv)
    out = [0] * n
    for i, xi in enumerate(xv):  # i from 0: (1 - (i + 1)) mod n is -i mod n
        out[-xi % n] = -i % n - n * (xi // n)
    return tuple(out)


def enumerate_residue_classes(n: int) -> list[Vec]:
    """All residue-distinct vectors in [0, n-1]^n: the n! class representatives."""
    n = _as_int(n, "n", 1, limits.MAX_PERMUTOHEDRON_N)
    return [tuple(p) for p in permutations(range(n))]
