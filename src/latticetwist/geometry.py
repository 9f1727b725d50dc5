"""Permutohedral prisms tiling R^n with the residue-distinct vertex set.

The base tile is the convex hull of all permutations of (1..n) together
with their shifts by a = (1,..,1): a prism over the (n-1)-dimensional
permutohedron.  Its translates under the rank-n lattice spanned by

    e_i = (1, .., 1, -(n-1), 1, .., 1)   (i = 1..n-1),   a = (1, .., 1)

tile R^n, and the set of all tile vertices is exactly the set of integer
vectors with pairwise distinct residues mod n (`units.is_residue_distinct`).
`coordinate_matrices(n)` gives the change of basis C, whose columns are
e_1..e_{n-1}, a; a residue-distinct point p splits as p = C t + u with t
integer and u a permutation of (1..n).  The inverse of C is never built:
`decompose_point` applies it in closed form.

Membership in a tile is decided exactly: the a-coordinate of a point
must lie in the unit slab, and its cross-section (the projection back to
the permutohedron layer) must satisfy every subset-sum inequality
sum_{i in S} x_i >= |S|(|S|+1)/2.  The 2^n - 2 inequalities are decided
by one sort: the smallest subset sum of size k is the sum of the k
smallest entries, so the cross-section lies in the permutohedron exactly
when every sorted prefix sum meets its bound (Rado 1952); `_prefix_test`
is that one test, for the classifier and the sampler alike, and it tells
only whether some bound is met with equality, not which.  The mesh export
needs no test to name the facets through a vertex of the base tile: the
vertex u or u + a, u a permutation, lies on the facet of size m at the
positions of u's values 1..m (`_base_face_loops`).  A tiling
sample is tested only against the tiles that its 2n one-coordinate facets
1 <= x_i <= n allow, about one tile whatever n (`_count_containing`).
Those windows are the facets of sizes 1 and n-1 themselves (with the
entries summing to n(n+1)/2, sum_S x >= (n-1)n/2 over |S| = n-1 is
x_k <= n), so a candidate is tight on one of them exactly when an entry
sits at an end of its window, and the sampler sorts only for the sizes
2..n-2 between, that is at n >= 4.  The sampler names each tile that
holds a sample by the pair (c_a, b) its windows fix, and spells out the
coefficients (`_interior_coeffs`) only for an overlap witness, a sample
in two tiles, which the tiling never has.  The json mesh of a tile is
joined from a table of its n(n+1) distinct entry strings
(`_json_chunks`), as every row entry is an offset entry plus 1..n+1.
All predicates and the face order of the exported mesh run in scaled
integer arithmetic; no floats are involved anywhere.

Each growing cost is checked once, before the work, against the count it
bounds: n against `limits.MAX_PERMUTOHEDRON_N` wherever the n!
permutations are listed, and against `limits.MAX_BOX_POINTS` the
(vertex, s) pairs n!*(hi-lo+1) that key a tiling check's box match, its
sample count, the exported vertex rows (2r+1)^n*2*n! of a patch, the
vertices of a product tile and the n*n entries of C.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, cmp_to_key, lru_cache
from heapq import merge
from itertools import islice, permutations, product
from math import factorial, lcm, prod
from operator import add, itemgetter, mul
from typing import Iterator, NamedTuple, Sequence

from . import limits
from .semidirect import CycleStructure, _assemble
from .twisted import Vec, _as_int, _ordered_cycles, as_vector, check_permutation
from .units import _residue_distinct

SAMPLE_DENOMINATOR = 101
FACET_REDRAWS = 64       # draws per sample before check_tiling gives up
SAMPLE_BLOCK = 64        # consecutive samples drawn from one seeded stream


def _check_count(count: int, what: str) -> None:
    if count > limits.MAX_BOX_POINTS:
        raise limits.BudgetExceededError(
            f"{count} {what} exceed the cap {limits.MAX_BOX_POINTS}")


def permutohedron_vertices(n: int) -> list[Vec]:
    """All permutations of (1..n); they share coordinate sum n(n+1)/2."""
    n = _as_int(n, "n", 1, limits.MAX_PERMUTOHEDRON_N)
    return [tuple(p) for p in permutations(range(1, n + 1))]


def coordinate_matrices(n: int) -> tuple[Vec, ...]:
    """C, row by row: its columns are e_1..e_{n-1}, a."""
    n = _as_int(n, "n", 1)
    _check_count(n * n, "matrix entries")
    rows = [
        tuple(-(n - 1) if j == i else 1 for j in range(n)) for i in range(n - 1)
    ]
    rows.append((1,) * n)
    return tuple(rows)


def _lattice_offset(coeffs: Vec) -> Vec:
    """C . coeffs in closed form, in O(n).

    Row i < n-1 of C holds -(n-1) at i and 1 elsewhere, and row n-1 is all
    ones, so with s = sum(coeffs) entry i is s - n*coeffs[i] and the last
    entry is s.
    """
    n = len(coeffs)
    s = sum(coeffs)
    return (*[s - n * c for c in coeffs[:-1]], s)


@dataclass(frozen=True)
class NotAVertex:
    """Witness: positions v1 < v2 share the same residue mod n."""

    v1: int
    v2: int
    residue: int


class Decomposition(NamedTuple):
    t: Vec
    u: Vec


def decompose_point(p: Sequence[int]) -> Decomposition | NotAVertex:
    """Split p = C t + u with t integer, u a permutation of (1..n).

    Returns a NotAVertex witness when two entries collide mod n; such
    points are not vertices of any tile.
    """
    pv = as_vector(p)
    n = len(pv)
    if not _residue_distinct(pv):
        # some residue repeats: walk to its first repeat for the witness
        seen: dict[int, int] = {}
        for v, e in enumerate(pv, start=1):
            res = e % n
            if res in seen:
                return NotAVertex(seen[res], v, res)
            seen[res] = v
    u = tuple(((e - 1) % n) + 1 for e in pv)
    d = [e - f for e, f in zip(pv, u)]
    t = [(d[n - 1] - d[i]) // n for i in range(n - 1)]
    t.append(sum(d) // n)
    return Decomposition(tuple(t), u)


def _prefix_test(Q: Sequence[int], dn: int, n: int) -> bool | None:
    """The sorted-prefix test (Rado 1952) on cross-section numerators.

    Q_i = n*P_i - L is n*den times the cross-section of the point P/den,
    and its entries sum to dn*n(n+1)/2, dn = den*n.  The cross-section
    lies in the permutohedron exactly when every subset S satisfies
    sum_S(Q) >= dn*|S|(|S|+1)/2, and for each size m the smallest such sum
    is that of the m smallest entries.  Returns None when one size falls
    short (outside), else whether some size m < n holds with equality:
    False strictly inside.
    """
    tight = False
    slack = m = 0
    for q in sorted(Q)[:-1]:
        m += 1
        # the m smallest entries' sum less its bound dn*m(m+1)/2
        slack += q - dn * m
        if slack < 0:
            return None
        if not slack:
            tight = True
    return tight


def _scaled(point: Sequence, n: int) -> tuple[list[int], int]:
    """(P, den): the point of length n as numerators over their lcm; an
    entry is anything `Fraction` reads (an int, a float, "5/2", ...), and
    any other point is a ValueError that names it.  An entry that is
    exactly an `int` or a `Fraction` is used as it is."""
    try:
        pt = [x if type(x) in (int, Fraction) else Fraction(x) for x in point]
    except (TypeError, ValueError, OverflowError, ZeroDivisionError):
        raise ValueError(f"point is not rational: {point!r}") from None
    if len(pt) != n:
        raise ValueError(f"expected length {n}, got {len(pt)}")
    den = lcm(*[x.denominator for x in pt])
    return [x.numerator * (den // x.denominator) for x in pt], den


@dataclass(frozen=True)
class PrismTile:
    """One prism: the base tile translated by C . coeffs.

    `coeffs` are the integer coordinates in the basis e_1..e_{n-1}, a.
    """

    n: int
    coeffs: Vec

    def __post_init__(self) -> None:
        n = _as_int(self.n, "n", 1)
        try:
            coeffs = as_vector(self.coeffs, n)
        except ValueError:
            raise ValueError(
                f"coeffs must be {n} integers, got {self.coeffs!r}") from None
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def _of_ints(cls, n: int, coeffs: Vec) -> PrismTile:
        """The tile of n int coefficients, without the checks above: for
        `generate_patch`, which makes the coefficients itself.  Fields are
        set as __init__ sets them: reading `__dict__` would give each tile
        a dict of its own, about 150 more bytes."""
        tile = object.__new__(cls)
        object.__setattr__(tile, "n", n)
        object.__setattr__(tile, "coeffs", coeffs)
        return tile

    @cached_property
    def offset(self) -> Vec:
        return _lattice_offset(self.coeffs)

    @property
    def vertices(self) -> tuple[Vec, ...]:
        """Both layers: permutations of (1..n), then their a-shifts.  Not
        cached, so a tile keeps no rows; `export_mesh` writes its own
        from the base tile's."""
        base = permutohedron_vertices(self.n)
        bottom = self.offset
        top = tuple(o + 1 for o in bottom)
        return tuple([tuple(map(add, bottom, u)) for u in base]
                     + [tuple(map(add, top, u)) for u in base])

    def classify(self, point: Sequence) -> str:
        """'interior', 'boundary' (some inequality tight), or 'outside'.

        Exact and integer-only.  With P/den the point less the offset, the
        a-coordinate numerator is L = sum(P) - den*K with K = n(n+1)/2; the
        slab is 0 <= L <= den*n, and each subset inequality becomes
        n*sum_S(P) - |S|*L >= den*n*B_S after clearing denominators, which
        `_prefix_test` decides on Q = n*P - L.
        """
        n = self.n
        P, den = _scaled(point, n)
        P = [p - den * o for p, o in zip(P, self.offset)]
        dn = den * n
        L = sum(P) - den * (n * (n + 1) // 2)
        if 0 <= L <= dn:
            tight = _prefix_test([n * p - L for p in P], dn, n)
            if tight is not None:
                return "boundary" if tight or L == 0 or L == dn else "interior"
        return "outside"


def generate_patch(n: int, radius: int) -> list[PrismTile]:
    """All tiles with max-norm coefficient at most `radius`, lexicographic.

    Refused when the exported mesh would have more than
    `limits.MAX_BOX_POINTS` vertex rows, (2r+1)^n tiles of 2*n! each.
    """
    n = _as_int(n, "n", 1, limits.MAX_PERMUTOHEDRON_N)
    radius = _as_int(radius, "radius", 0)
    _check_count((2 * radius + 1) ** n * 2 * factorial(n), "patch vertex rows")
    span = range(-radius, radius + 1)
    of_ints = PrismTile._of_ints
    return [of_ints(n, coeffs) for coeffs in product(span, repeat=n)]


@dataclass(frozen=True)
class ProductTile:
    """Vertex model of the unit set for an arbitrary permutation action.

    One permutohedron-prism factor per cycle of tau, assembled along the
    cycle positions: a product of |cycle|-1 dimensional permutohedra and
    one unit interval per cycle.
    """

    tau: tuple[int, ...]
    cycles: CycleStructure
    vertices: tuple[Vec, ...]
    permutohedron_dims: tuple[int, ...]
    interval_count: int

    @property
    def description(self) -> str:
        parts = [f"P{d}" for d in self.permutohedron_dims]
        parts.append(f"I^{self.interval_count}")
        return " x ".join(parts)


def product_tile_vertices(tau: Sequence[int]) -> ProductTile:
    tau = check_permutation(tau)
    cycles = _ordered_cycles(tau)
    n = len(tau)
    # every cycle length before any factorial, then the vertex count
    # prod 2*|c|!, stopping as soon as it passes the cap
    _as_int(max(map(len, cycles), default=0), "cycle length", 1,
            limits.MAX_PERMUTOHEDRON_N)
    count = 1
    for cycle in cycles:
        count *= 2 * factorial(len(cycle))
        _check_count(count, "product tile vertices")
    factor_vertices = [PrismTile(len(c), (0,) * len(c)).vertices for c in cycles]
    return ProductTile(
        tau=tau,
        cycles=cycles,
        vertices=tuple([_assemble(choice, cycles, n)
                        for choice in product(*factor_vertices)]),
        permutohedron_dims=tuple(len(c) - 1 for c in cycles),
        interval_count=len(cycles),
    )


@dataclass(frozen=True)
class TilingReport:
    n: int
    box: tuple[int, int]
    samples: int
    seed: int
    denominator: int
    covered_count: int
    interior_one_count: int
    resample_count: int
    overlap_witnesses: tuple
    vertex_match: bool
    vertex_count: int
    vertex_mismatches: tuple
    tile_count_scanned: int

    @property
    def covered_fraction(self) -> Fraction:
        return Fraction(self.covered_count, self.samples) if self.samples else Fraction(1)

    @property
    def interior_one_fraction(self) -> Fraction:
        return Fraction(self.interior_one_count, self.samples) if self.samples else Fraction(1)

    @property
    def passed(self) -> bool:
        return (
            self.covered_count == self.samples
            and not self.overlap_witnesses
            and self.vertex_match
        )


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


def _count_containing(P: Sequence[int], den: int, n: int):
    """The tiles with P/den in their interior, as pairs (c_a, b) in the
    order they are found, or None when one tile has it on its boundary.
    b = L + dn*(s + 1) fixes the tile's coefficient sum s (below).  The
    sampler reads only how many pairs there are, and `_interior_coeffs`
    turns them into coefficients for an overlap witness.

    Only the tiles that the 2n one-coordinate facets 1 <= x_i <= n of the
    cross-section x allow are tested.  With s the coefficient sum and c_a
    the a-coefficient, the tile's offset is den*(s - n*c_i) on coordinate
    i < n-1 and den*s on the last, so the numerators of `_prefix_test` are

        L   = T - dn*c_a,  T = sum(P) - den*n(n+1)/2,
        Q_i = n*P_i - L - dn*s + n*dn*c_i   (i < n-1),
        Q_last = n*P_last - L - dn*s,

    and every tile whose closure holds P has dn <= Q_i <= n*dn for all i.
    The slab 0 <= L <= dn allows one c_a, or two when P is on a layer.
    The last coordinate allows at most n values of s.  On coordinate
    i < n-1 the window is narrower than the step n*dn, so c_i is its one
    value there, if any.  The entries sum to s exactly when the Q sum to
    dn*n(n+1)/2, as the numerators of any point of a tile do.

    These windows are the permutohedron's facets of sizes 1 and n-1: the
    smallest Q_i meets the size-1 bound dn exactly when every Q_i >= dn,
    and with the Q summing to dn*n(n+1)/2 the n-1 smallest meet theirs,
    dn*(n-1)n/2, exactly when the largest is at most n*dn.  So every
    candidate meets those two sizes, and is tight on one of them exactly
    when some Q_i is dn or n*dn; `_prefix_test` runs only for the sizes
    2..n-2 between, that is for n >= 4.  At n = 1 the cross-section is
    one point, whose one Q is dn, and only the layers bound the tile.
    """
    dn = den * n
    ndn = n * dn
    target = dn * (n * (n + 1) // 2)
    c_a, L = divmod(sum(P) - den * (n * (n + 1) // 2), dn)
    # the slab 0 <= L <= dn: L on a layer is its top in tile c_a - 1 too
    layer = not L
    slab = ((c_a - 1, dn), (c_a, 0)) if layer else ((c_a, L),)
    head = P[:-1]
    last = n * P[-1] + dn
    interior = []
    for c_a, L in slab:
        # b = L + dn*(s + 1), so that Q_last = last - b, over the s that put
        # Q_last in [dn, n*dn]: the b congruent to L mod dn in that window
        for b in range(last - ndn + (L - last) % dn, last - dn + 1, dn):
            # on i < n-1, the one value of Q_i in [dn, dn + n*dn), if at
            # most n*dn; b and c_a then fix c_i (`_interior_coeffs`)
            Q = []
            for p in head:
                q = (n * p - b) % ndn + dn
                if q > ndn:
                    break
                Q.append(q)
            else:
                Q.append(last - b)
                if sum(Q) != target:
                    continue
                if n > 3:
                    tight = _prefix_test(Q, dn, n)
                    if tight is None:
                        continue
                    if tight or layer:
                        return None
                # the windows decide sizes 1 and n-1, which n = 1 lacks
                elif layer or n > 1 and (dn in Q or ndn in Q):
                    return None
                interior.append((c_a, b))
    return interior


def _interior_coeffs(P: Sequence[int], den: int, n: int, pairs) -> list[Vec]:
    """The coefficients of the tiles that `_count_containing` returned as
    (c_a, b) pairs for P/den, in lexicographic order: c_i is
    (b - n*P_i) // (n*dn) + 1 on i < n-1, as Q_i > dn in an interior
    tile, then c_a."""
    ndn = n * n * den
    head = P[:-1]
    return sorted([(*[(b - n * p) // ndn + 1 for p in head], c_a)
                   for c_a, b in pairs])


def _tiling_chunk(args) -> dict:
    """Sample the index range [start, start + count), block by block.

    Block b holds the sample indices [64 b, 64 b + 64) and draws all its
    points, redraws included, from one generator seeded with seed * 1_000_003
    + b, or -seed * 1_000_003 - 1 - b for seed < 0 as CPython seeds by
    absolute value.  `start` must be a multiple of SAMPLE_BLOCK, so every
    block this chunk draws from starts here, whole and in order; the report
    then does not depend on how whole blocks are split into chunks.

    An accepted draw lies on no facet, so every tile that contains it
    contains it in its interior: covered means some interior tile.
    """
    n, lo, hi, seed, start, count = args
    if start % SAMPLE_BLOCK:
        raise ValueError(f"chunk start {start} is not a multiple of {SAMPLE_BLOCK}")
    den = SAMPLE_DENOMINATOR
    lo_den = lo * den
    width = (hi - lo) * den + 1
    bits = width.bit_length()
    covered = 0
    interior_one = 0
    resamples = 0
    overlaps = []
    redraws = range(FACET_REDRAWS)
    coordinates = range(n)
    for index in range(start, start + count):
        if index % SAMPLE_BLOCK == 0:
            block = index // SAMPLE_BLOCK
            key = seed * 1_000_003 + block if seed >= 0 else -seed * 1_000_003 - 1 - block
            getrandbits = random.Random(key).getrandbits
        for _ in redraws:
            # randint(lo_den, hi_den) per coordinate, without its call layers:
            # the same rejection loop over `bits` random bits
            P = []
            for _ in coordinates:
                r = getrandbits(bits)
                while r >= width:
                    r = getrandbits(bits)
                P.append(lo_den + r)
            interior = _count_containing(P, den, n)
            if interior is not None:
                break
            resamples += 1
        else:
            raise limits.BudgetExceededError(
                f"sample {index}: every one of {FACET_REDRAWS} draws "
                f"landed on a facet")
        if interior:
            covered += 1
        if len(interior) == 1:
            interior_one += 1
        elif len(interior) >= 2:
            point = tuple(Fraction(p, den) for p in P)
            overlaps.append((point, tuple(_interior_coeffs(P, den, n, interior))))
    return {
        "covered": covered,
        "interior_one": interior_one,
        "resamples": resamples,
        "overlaps": overlaps,
    }


def _box_vertex_match(n: int, lo: int, hi: int):
    """(vertex_match, vertex_count, vertex_mismatches, tile_count): the
    tile vertices in the box against the residue-distinct points there.

    With C_r the box values congruent to r mod n, both sides are unions of
    the boxes C_{r_1} x .. x C_{r_{n-1}} x {x}, keyed (r_1, .., r_{n-1}, x).
    Tile side: every tile vertex is C t + w for a permutation w of (1..n),
    the base tile's bottom layer (a tile's top layer is the bottom layer
    of the tile one a-step up, C t + w + a = C (t + e_a) + w), and integer
    t.  With s = t_a + sum_j t_j, coordinate n is w_n + s and coordinate
    i < n is w_i + s - n t_i, which runs over C_{(w_i + s) mod n}, so each
    (w, s) gives the key ((w_i + s) mod n, .., w_n + s).  Residue side:
    for each x in the box, every order of the residues other than x mod n.
    Once the box holds n integers no C_r is empty, so distinct keys stand
    for disjoint, non-empty boxes: the point sets are equal exactly when
    the key sets are, there are n! * prod |C_r| points, and the mismatches
    are the first 8 points of the differing keys' boxes.

    The n!*(hi-lo+1) (w, s) pairs are checked before any work; they bound
    the keys of both sides.  `tile_count`, the size of the coefficient
    window that holds every tile with a vertex in the box, bounds nothing.
    A box of fewer than n integers matches at once, with no vertex: some
    C_r is then empty, and a tile vertex has n distinct residues mod n.
    """
    _check_count(factorial(n) * (hi - lo + 1), "tile-side (vertex, s) pairs")
    # such a tile's offset C t lies in [lo - n - 1, hi - 1]^n, an interval
    # of span + 1 integers: |t_i| <= span/n for i < n, and t_a, the mean
    # of the offset, lies in the interval itself
    span = hi - lo + n
    tile_count = (2 * (span // n) + 1) ** (n - 1) * (span + 1)
    if hi - lo + 1 < n:
        return True, 0, (), tile_count
    classes = [range(lo + (r - lo) % n, hi + 1, n) for r in range(n)]
    from_tiles = {(*[(x + s) % n for x in head], last + s)
                  for *head, last in permutohedron_vertices(n)
                  for s in range(lo - last, hi - last + 1)}
    from_residues = {(*order, x) for x in range(lo, hi + 1)
                     for order in permutations([r for r in range(n) if r != x % n])}
    # product copies its inputs; a box's first 8 points need 8 values a class
    boxes = [product(*[classes[r][:8] for r in key[:-1]], key[-1:])
             for key in from_tiles ^ from_residues]
    return (not boxes, factorial(n) * prod(map(len, classes)),
            tuple(islice(merge(*boxes), 8)), tile_count)


def check_tiling(
    n: int,
    box: tuple[int, int],
    samples: int = 10_000,
    seed: int = 0,
    workers: int = 1,
) -> TilingReport:
    """Estimate cover/overlap behavior of the tiling on a box, exactly.

    Rational sample points with denominator 101 are classified against
    every tile that their one-coordinate facets allow; samples landing on
    a facet are redrawn deterministically.  The samples are drawn in
    blocks of SAMPLE_BLOCK, each from its own seeded stream, and `workers`
    processes split whole blocks, so the report does not depend on
    `workers`.  Also matches the tile vertices in the box against the
    residue-distinct points by product-box keys (`_box_vertex_match`).
    `box` is a pair (lo, hi).  n, the box ends, `samples`, `seed` and
    `workers` are read by the integer rule of `twisted.as_vector`: 4.0 or
    Fraction(4) is the int 4, and 4.5 or "4" is a ValueError.
    """
    n = _as_int(n, "n", 1, limits.MAX_PERMUTOHEDRON_N)
    try:
        lo, hi = box
    except (TypeError, ValueError):
        raise ValueError(f"box must be a pair (lo, hi), got {box!r}") from None
    lo, hi = _as_int(lo, "box lo"), _as_int(hi, "box hi")
    if lo >= hi:
        raise ValueError(f"box must have lo < hi, got [{lo}, {hi}]")
    samples = _as_int(samples, "samples", 0)
    _check_count(samples, "samples")
    seed = _as_int(seed, "seed")
    workers = _as_int(workers, "workers", 1, limits.MAX_WORKERS)

    match, count, mismatches, tile_count = _box_vertex_match(n, lo, hi)

    # ceil(blocks / workers) whole blocks per chunk (one block when there
    # are no samples, as range() takes no zero step)
    per = max(1, _ceil_div(samples, SAMPLE_BLOCK * workers)) * SAMPLE_BLOCK
    chunks = [(n, lo, hi, seed, start, min(per, samples - start))
              for start in range(0, samples, per)]
    if workers > 1 and len(chunks) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(workers, len(chunks))) as pool:
            results = list(pool.map(_tiling_chunk, chunks))
    else:
        results = [_tiling_chunk(c) for c in chunks]

    covered = sum(r["covered"] for r in results)
    interior_one = sum(r["interior_one"] for r in results)
    resamples = sum(r["resamples"] for r in results)
    overlaps = tuple(o for r in results for o in r["overlaps"])

    return TilingReport(
        n=n,
        box=(lo, hi),
        samples=samples,
        seed=seed,
        denominator=SAMPLE_DENOMINATOR,
        covered_count=covered,
        interior_one_count=interior_one,
        resample_count=resamples,
        overlap_witnesses=overlaps,
        vertex_match=match,
        vertex_count=count,
        vertex_mismatches=mismatches,
        tile_count_scanned=tile_count,
    )


@lru_cache(maxsize=None)
def _base_face_loops(n: int) -> tuple[tuple[int, ...], ...]:
    """Vertex index loops of the base tile's 2D faces, outward oriented;
    they serve every tile.

    A vertex is a permutation u of (1..n) on the bottom layer, or u + a on
    the top, and the facet of size m that it lies on is named by u: the
    m positions that hold its values 1..m, whose sum is the bound
    m(m+1)/2, which any other m positions exceed.  Each vertex joins its
    layer, then those facets for m = 1..n-1, and `_order_loop` orders
    each group of three or more in integers: no floats anywhere.  A tile
    lists its vertices as the base tile's shifted by its offset, in the
    same order, and neither the facets nor the cyclic order of a loop
    change under that shift.
    """
    base = permutohedron_vertices(n)
    verts = PrismTile(n, (0,) * n).vertices
    groups: dict = {}
    for idx, u in enumerate(base * 2):
        # u's positions, ordered by the values they hold
        order = sorted(range(n), key=u.__getitem__)
        for key in ["bottom" if idx < len(base) else "top",
                    *[frozenset(order[:m]) for m in range(1, n)]]:
            groups.setdefault(key, []).append(idx)
    if n == 2:
        loops = [list(range(len(verts)))]
    else:
        loops = [idx for idx in groups.values() if len(idx) >= 3]
    # times the vertex count, about the tile centre, padded to three entries
    total = [sum(column) for column in zip(*verts)]
    moved = [(*[len(verts) * x - t for x, t in zip(v, total)], 0, 0)[:3] for v in verts]
    return tuple(tuple(_order_loop([moved[i] for i in loop], loop)) for loop in loops)


def _order_loop(points, indices):
    """`indices` by angle in (-pi, pi] about the face centre from the first
    point, counterclockwise seen from the outside (the tile centre is 0);
    exact ties keep index order.  r = k p - sum(points) is k times p's
    offset from the face centre, and p's plane coordinates are r.u and
    r.(normal x u), for u the first r and the normal the first u x r != 0."""
    k = len(points)
    face = [sum(column) for column in zip(*points)]
    rel = [[k * x - s for x, s in zip(p, face)] for p in points]
    u = rel[0]
    normal = next(w for w in (_cross3(u, r) for r in rel[1:]) if any(w))
    if sum(map(mul, normal, face)) < 0:
        normal = [-x for x in normal]
    v = _cross3(normal, u)
    plane = []
    for r, i in zip(rel, indices):
        x, y = sum(map(mul, r, u)), sum(map(mul, r, v))
        # half planes (-pi, 0), [0, pi) and {pi} first: within one, angles
        # differ by less than pi, so the sign of a cross product orders them
        plane.append((0 if y < 0 else 1 if y > 0 or x > 0 else 2, x, y, i))
    order = cmp_to_key(lambda a, b: a[0] - b[0] or b[1] * a[2] - a[1] * b[2])
    return [i for *_, i in sorted(plane, key=order)]


def _cross3(u, v):
    return [
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    ]


def _base_rows(n: int) -> tuple[list[int], int]:
    """The base tile's vertex rows, bottom layer then top, laid end to end,
    and their count 2*n!.  A tile's rows are these plus its offset once
    per row, in the order of `PrismTile.vertices`."""
    bottom = [x for v in permutohedron_vertices(n) for x in v]
    return bottom + [x + 1 for x in bottom], 2 * factorial(n)


def _json_chunks(tiles: Sequence[PrismTile], n: int) -> Iterator[str]:
    """The bytes of json.dumps(doc, indent=2) and a newline, where doc is
    {"n": n, "tiles": [{"t": coeffs, "vertices": [[...], ...]}, ...]}.

    With `indent`, json.dumps runs its pure-Python encoder over one small
    list per vertex.  The layout here is fixed.  Entry j of a vertex row
    is o_j + w for the tile's offset o and a base entry w in 1..n+1, and
    its text, with the indent and brackets around column j, is one of
    n*(n+1) strings, formatted once per tile.  `idx` picks every entry's
    string out of that table, in the order of the base rows, and
    ",\n" joins them; the coefficient header is a small %-template.
    """
    rows, _ = _base_rows(n)
    idx = itemgetter(*[i % n * (n + 1) + w - 1 for i, w in enumerate(rows)])
    around = list(zip(["        [\n" + " " * 10] + [" " * 10] * (n - 1),
                      [""] * (n - 1) + ["\n        ]"]))
    later = (',\n    {\n      "t": [\n'
             + ",\n".join([" " * 8 + "%d"] * n)
             + '\n      ],\n      "vertices": [\n')
    first = later[2:]
    values = range(1, n + 2)
    yield '{\n  "n": %d,\n  "tiles": [\n' % n
    for i, t in enumerate(tiles):
        table = [p + str(o + w) + q
                 for (p, q), o in zip(around, _lattice_offset(t.coeffs))
                 for w in values]
        yield "".join(((later if i else first) % t.coeffs,
                       ",\n".join(idx(table)), "\n      ]\n    }"))
    yield "\n  ]\n}\n"


def _off_chunks(tiles: Sequence[PrismTile], n: int) -> Iterator[str]:
    """OFF text: the header, every tile's 2*n! vertex rows padded to three
    coordinates, then every tile's face rows: tile i's start at row 2*n!*i.

    The vertex rows of a tile come from one %-template of all 2*n! rows,
    filled in one call with the base rows plus the tile's offset.
    """
    rows, count = _base_rows(n)
    loops = _base_face_loops(n)
    yield f"OFF\n{len(tiles) * count} {len(tiles) * len(loops)} 0\n"
    vertices = (" ".join(["%d"] * n + ["0"] * (3 - n)) + "\n") * count
    for t in tiles:
        yield vertices % tuple(map(add, rows, _lattice_offset(t.coeffs) * count))
    faces = "".join(f"{len(loop)}" + " %d" * len(loop) + "\n" for loop in loops)
    corners = [i for loop in loops for i in loop]
    for base in range(0, len(tiles) * count, count):
        yield faces % tuple([base + i for i in corners])


def export_mesh(tiles: Sequence[PrismTile], format: str) -> Iterator[str]:
    """Serialize tiles as 'json' (any n) or 'off' (ambient dimension <= 3).

    Every check runs before this returns an iterator of text chunks: one
    per tile besides the opening and closing text, so memory stays flat.
    """
    if not isinstance(tiles, Sequence):
        raise ValueError(f"tiles must be a sequence, got {type(tiles).__name__}")
    if not tiles:
        raise ValueError("no tiles to export")
    n = getattr(tiles[0], "n", None)
    if any(not isinstance(t, PrismTile) or t.n != n for t in tiles):
        raise ValueError("tiles must be PrismTiles of one dimension")
    if format == "json":
        return _json_chunks(tiles, n)
    if format == "off":
        if n > 3:
            raise ValueError(f"off export needs ambient dimension <= 3, got {n}")
        return _off_chunks(tiles, n)
    raise ValueError(f"unknown format {format!r}")
