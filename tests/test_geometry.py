"""Exact geometry: decomposition, halfspaces, patches, tiling checks."""

import gc
import json
import math
import random
import re
import tracemalloc
from fractions import Fraction
from itertools import combinations, permutations, product
from math import lcm

import pytest
from hypothesis import example, given, settings, strategies as st

from latticetwist import geometry, limits
from latticetwist.geometry import (
    SAMPLE_BLOCK,
    SAMPLE_DENOMINATOR,
    Decomposition,
    NotAVertex,
    PrismTile,
    _base_face_loops,
    _box_vertex_match,
    _lattice_offset,
    _scaled,
    _tiling_chunk,
    check_tiling,
    coordinate_matrices,
    decompose_point,
    export_mesh,
    generate_patch,
    permutohedron_vertices,
    product_tile_vertices,
)
from latticetwist.limits import BudgetExceededError
from latticetwist.semidirect import split_to_factors
from latticetwist.twisted import ordered_cycles
from latticetwist.units import _residue_distinct, is_residue_distinct


def subset_scan(P, den, n):
    """Oracle for `PrismTile.classify` on the base tile, and for the facets
    of `_base_face_loops`: every proper subset's inequality in turn.
    Returns (status, the labels of the tight layers and facets) of P/den."""
    K = n * (n + 1) // 2
    L = sum(P) - den * K
    if L < 0 or L > den * n:
        return "outside", ()
    tight = []
    if L == 0:
        tight.append("layer_bottom")
    if L == den * n:
        tight.append("layer_top")
    for m in range(1, n):
        for subset in combinations(range(n), m):
            value = (n * sum(P[i] for i in subset) - m * L
                     - den * n * (m * (m + 1) // 2))
            if value < 0:
                return "outside", ()
            if value == 0:
                tight.append("facet_" + "_".join(str(i + 1) for i in subset))
    return ("boundary", tuple(tight)) if tight else ("interior", ())


def coefficient_window(n, lo, hi):
    """Per coefficient, the range that holds every tile with a vertex in
    the box."""
    d_lo, d_hi = lo - (n + 1), hi - 1
    ranges = [range(-((d_hi - d_lo) // n), (d_hi - d_lo) // n + 1)] * (n - 1)
    ranges.append(range(d_lo, d_hi + 1))
    return ranges


def window_size(n, lo, hi):
    return math.prod(len(r) for r in coefficient_window(n, lo, hi))


def materialized_box_vertices(n, lo, hi):
    """Oracle for the tile side of the box match: build every candidate
    tile's vertices and keep those in the box."""
    return {
        v
        for coeffs in product(*coefficient_window(n, lo, hi))
        for v in PrismTile(n, coeffs).vertices
        if all(lo <= x <= hi for x in v)
    }


def point_match(from_tiles, from_residues, tile_count):
    """The report fields (vertex_match, vertex_count, vertex_mismatches,
    tile_count) of a match that lists both sides as point sets."""
    return (from_tiles == from_residues, len(from_residues),
            tuple(sorted(from_tiles ^ from_residues))[:8], tile_count)


def full_box_walk(n, lo, hi, vertices=None):
    """Oracle for _box_vertex_match on any box: both sides listed point by
    point, with no shortcut for a box of fewer than n integers.  The tile
    side walks both layers of `vertices`, the base tile's by default."""
    from_tiles = set()
    for *head, last in base_tile(n).vertices if vertices is None else vertices:
        for s in range(lo - last, hi - last + 1):
            axes = [range(lo + (x + s - lo) % n, hi + 1, n) for x in head]
            from_tiles.update(product(*axes, (last + s,)))
    classes = [range(lo + (r - lo) % n, hi + 1, n) for r in range(n)]
    from_residues = {v for order in permutations(classes) for v in product(*order)}
    return point_match(from_tiles, from_residues, window_size(n, lo, hi))


def residue_filter_oracle(n, lo, hi):
    """Oracle for the residue side of the box match: every integer point
    of the box, kept when its entries are pairwise distinct mod n."""
    return {v for v in product(range(lo, hi + 1), repeat=n) if is_residue_distinct(v)}


def scaled_oracle(point, n):
    """`_scaled` reading every entry by `Fraction`, exact Fractions too."""
    try:
        pt = [Fraction(x) for x in point]
    except (TypeError, ValueError, OverflowError, ZeroDivisionError):
        raise ValueError(f"point is not rational: {point!r}") from None
    if len(pt) != n:
        raise ValueError(f"expected length {n}, got {len(pt)}")
    den = lcm(*[x.denominator for x in pt])
    return [x.numerator * (den // x.denominator) for x in pt], den


def decompose_oracle(p):
    """`decompose_point` testing each residue in turn as it walks."""
    n = len(p)
    seen = {}
    for v in range(1, n + 1):
        res = p[v - 1] % n
        if res in seen:
            return NotAVertex(seen[res], v, res)
        seen[res] = v
    u = tuple(((e - 1) % n) + 1 for e in p)
    d = [e - f for e, f in zip(p, u)]
    t = [(d[n - 1] - d[i]) // n for i in range(n - 1)]
    t.append(sum(d) // n)
    return Decomposition(tuple(t), u)


def outcome(call, *args):
    """The type and repr of a call's result, or the type and message of
    its error."""
    try:
        out = call(*args)
    except Exception as e:  # the kind of error is part of the outcome
        return "raises", type(e), str(e)
    return "returns", type(out), repr(out)


class _SubFraction(Fraction):
    """A Fraction subclass: `_scaled` reads it by `Fraction`, not as it is."""


def base_tile(n):
    return PrismTile(n, (0,) * n)


def classify_scaled(P, den, n):
    """`PrismTile.classify` of the point P/den against the base tile."""
    return base_tile(n).classify([Fraction(p, den) for p in P])


def inverse_oracle(n):
    """The exact rational inverse of C, row by row.

    Rows i < n-1 hold -1/n at column i and 1/n at column n-1; the last row
    is all 1/n.  `decompose_point` applies it in closed form.  The sampler
    needs no inverse: `_count_containing` solves the one-coordinate facets
    of the cross-section for the coefficients.
    """
    inv = [
        tuple(-Fraction(1, n) if j == i else
              Fraction(1, n) if j == n - 1 else Fraction(0) for j in range(n))
        for i in range(n - 1)
    ]
    inv.append((Fraction(1, n),) * n)
    return tuple(inv)


def classify_oracle(point, offset):
    """Oracle for the scaled classification of a point against the tile
    with this offset: the Fraction path.  The point is shifted in
    Fractions, scaled by the lcm of its denominators and classified by the
    subset scan."""
    n = len(offset)
    pt = [Fraction(x) for x in point]
    if len(pt) != n:
        raise ValueError(f"expected length {n}, got {len(pt)}")
    shifted = [x - o for x, o in zip(pt, offset)]
    den = lcm(*(x.denominator for x in shifted))
    return subset_scan([int(x * den) for x in shifted], den, n)


@st.composite
def points_near(draw, offset):
    """A rational point a few small steps from a vertex of the tile with
    this offset, so all three statuses occur.  Each entry comes as an int,
    a Fraction, a float (for a denominator 2^k) or a string such as
    "-10/4" that need not be in lowest terms."""
    n = len(offset)
    u = draw(st.permutations(range(1, n + 1)))
    layer = draw(st.integers(0, 1))
    point = []
    for o, x in zip(offset, u):
        den = draw(st.sampled_from([1, 2, 3, 4, 6, 8]))
        num = den * (o + x + layer) + draw(st.integers(-den, den))
        form = draw(st.sampled_from(["int", "fraction", "float", "str"]))
        if form == "int" and num % den == 0:
            point.append(num // den)
        elif form == "float" and den & (den - 1) == 0:
            point.append(num / den)
        elif form == "str":
            k = draw(st.integers(1, 3))
            point.append(f"{k * num}/{k * den}")
        else:
            point.append(Fraction(num, den))
    return tuple(point)


@st.composite
def points_on_facets(draw):
    """(P, den, n, kind): P/den in the closure of a random tile, placed by
    `kind` on a facet of size 1, of size n-1 or of a size between (n >= 4),
    on a layer, or anywhere.  The cross-section is a positive combination,
    with weights summing to den, of permutohedron vertices that all lie on
    the facet (a permutation of 1..m on its m positions), and the height
    over the bottom layer is h/den."""
    n = draw(st.integers(1, 8))
    den = draw(st.sampled_from([1, 2, 3, SAMPLE_DENOMINATOR]))
    kinds = ["anywhere", "layer"]
    if n >= 2:
        kinds += ["size 1", "size n-1"]
    if n >= 4:
        kinds.append("middle")
    kind = draw(st.sampled_from(kinds))
    m = {"size 1": 1, "size n-1": n - 1}.get(kind, 0)
    if kind == "middle":
        m = draw(st.integers(2, n - 2))
    positions = draw(st.permutations(range(n)))
    k = draw(st.integers(1, min(den, 3)))
    cuts = sorted(draw(st.lists(st.integers(1, den - 1), min_size=k - 1,
                                max_size=k - 1, unique=True))) if k > 1 else []
    weights = [b - a for a, b in zip([0, *cuts], [*cuts, den])]
    x = [0] * n
    for w in weights:
        # m smallest values on the facet's positions, the rest elsewhere
        values = (draw(st.permutations(range(1, m + 1)))
                  + draw(st.permutations(range(m + 1, n + 1))))
        for i, v in zip(positions, values):
            x[i] += w * v
    h = draw(st.sampled_from([0, den]) if kind == "layer" else st.integers(0, den))
    coeffs = draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n))
    offset = offset_oracle(coeffs)
    return [den * o + xi + h for o, xi in zip(offset, x)], den, n, kind


def offset_oracle(coeffs):
    """Oracle for _lattice_offset: the product with the matrix C."""
    n = len(coeffs)
    C = coordinate_matrices(n)
    return tuple(sum(C[i][j] * coeffs[j] for j in range(n)) for i in range(n))


def window_scan_oracle(P, den, n):
    """Oracle for _count_containing: the coefficient box that holds every
    tile whose closure could contain P/den (the base tile's coefficients
    lie in [(1-n)/n, (n-1)/n]^(n-1) x [(n+1)/2, (n+3)/2]), each tile in it
    tested by the subset scan.  Returns the interior tiles' coefficients,
    in lexicographic order, and whether some tile has P/den on its
    boundary."""
    dn = den * n
    ranges = []
    for i in range(n - 1):
        num = P[n - 1] - P[i]
        ranges.append(range(math.ceil(Fraction(num - den * (n - 1), dn)),
                            (num + den * (n - 1)) // dn + 1))
    total2 = 2 * sum(P)
    ranges.append(range(math.ceil(Fraction(total2 - dn * (n + 3), 2 * dn)),
                        (total2 - dn * (n + 1)) // (2 * dn) + 1))
    interior, any_tight = [], False
    for coeffs in product(*ranges):
        off = offset_oracle(coeffs)
        status, _ = subset_scan([p - den * o for p, o in zip(P, off)], den, n)
        if status == "boundary":
            any_tight = True
        elif status == "interior":
            interior.append(coeffs)
    return interior, any_tight


def sampler_interior(P, den, n):
    """`_count_containing` with its (c_a, b) pairs read as coefficients by
    `_interior_coeffs`, as an overlap witness reads them: comparable with
    `window_scan_oracle`'s interior list."""
    pairs = geometry._count_containing(P, den, n)
    return None if pairs is None else geometry._interior_coeffs(P, den, n, pairs)


def tiling_chunk_oracle(args, drawn=None):
    """Oracle for _tiling_chunk: a fresh generator at each block of 64
    samples, keyed apart for negative seeds, coordinates by `randint` and
    the tiles by the window scan.  Every point drawn is appended to
    `drawn` when given."""
    n, lo, hi, seed, start, count = args
    den = SAMPLE_DENOMINATOR
    covered = interior_one = resamples = 0
    overlaps = []
    for index in range(start, start + count):
        if index % 64 == 0:
            block = index // 64
            rng = random.Random(seed * 1_000_003 + block if seed >= 0
                                else -seed * 1_000_003 - 1 - block)
        for _ in range(64):
            P = [rng.randint(lo * den, hi * den) for _ in range(n)]
            if drawn is not None:
                drawn.append(tuple(P))
            interior, any_tight = window_scan_oracle(P, den, n)
            if not any_tight:
                break
            resamples += 1
        else:
            raise BudgetExceededError(f"sample {index}")
        covered += len(interior) >= 1
        interior_one += len(interior) == 1
        if len(interior) >= 2:
            overlaps.append((tuple(Fraction(p, den) for p in P), tuple(interior)))
    return {"covered": covered, "interior_one": interior_one,
            "resamples": resamples, "overlaps": overlaps}


class InlinePool:
    """Stands in for ProcessPoolExecutor: maps in this process."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


def json_mesh_oracle(tiles):
    """Oracle for the json text of export_mesh: the json module itself."""
    doc = {
        "n": tiles[0].n,
        "tiles": [
            {"t": list(t.coeffs), "vertices": [list(v) for v in t.vertices]}
            for t in tiles
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def off_mesh_oracle(tiles):
    """Oracle for the OFF text of export_mesh: each tile's own vertices and
    face loops, written line by line."""
    n = tiles[0].n
    vertices, faces = [], []
    for tile in tiles:
        base = len(vertices)
        vertices.extend(tile.vertices)
        if n >= 2:
            faces.extend([base + i for i in loop] for loop in _base_face_loops(n))
    lines = ["OFF", f"{len(vertices)} {len(faces)} 0"]
    lines += [" ".join(str(x) for x in (*v, 0, 0)[:3]) for v in vertices]
    lines += [" ".join(str(x) for x in (len(f), *f)) for f in faces]
    return "\n".join(lines) + "\n"


def far_tiles(n):
    """Hand-made tiles with negative and large coefficients."""
    return [PrismTile(n, c) for c in (
        (-1,) * n,
        tuple(range(-3 * n, -2 * n)),
        tuple((-1) ** i * 10 ** (12 + i) for i in range(n)),
        (2 ** 70,) + (-5,) * (n - 1),
    )]


def basis_columns(n):
    """Columns e_1..e_{n-1}, a of the change of basis C."""
    C = coordinate_matrices(n)
    return tuple(tuple(C[i][j] for i in range(n)) for j in range(n))


class TestBasis:
    def test_lattice_basis_shape(self):
        assert basis_columns(3) == ((-2, 1, 1), (1, -2, 1), (1, 1, 1))

    def test_matrices_are_inverse(self):
        for n in range(1, 9):
            C, Ci = coordinate_matrices(n), inverse_oracle(n)
            for i in range(n):
                for j in range(n):
                    entry = sum(Fraction(C[i][k]) * Ci[k][j] for k in range(n))
                    assert entry == (1 if i == j else 0)

    def test_columns_match_basis(self):
        assert basis_columns(4) == (
            (-3, 1, 1, 1), (1, -3, 1, 1), (1, 1, -3, 1), (1, 1, 1, 1))

    def test_permutohedron_count(self):
        for n in (1, 2, 3, 4):
            verts = permutohedron_vertices(n)
            assert len(verts) == math.factorial(n)
            total = n * (n + 1) // 2
            assert all(sum(v) == total for v in verts)

    def test_permutohedron_cap(self):
        with pytest.raises(BudgetExceededError):
            permutohedron_vertices(9)

    def test_matrix_cap(self):
        assert len(coordinate_matrices(1000)) == 1000
        with pytest.raises(BudgetExceededError, match="matrix entries"):
            coordinate_matrices(1001)


class TestDecompose:
    def test_example(self):
        assert decompose_point((3, 5, 4)) == Decomposition((1, 0, 2), (3, 2, 1))

    def test_collision_witness(self):
        out = decompose_point((2, 2, 1))
        assert out == NotAVertex(1, 2, 2)
        assert not is_residue_distinct((2, 2, 1))

    def test_vertex_predicate_matches_residue_distinctness(self):
        for n in (1, 2, 3):
            for p in product(range(-2, 4), repeat=n):
                witness = isinstance(decompose_point(p), NotAVertex)
                assert is_residue_distinct(p) == (not witness)

    @given(st.data())
    def test_roundtrip(self, data):
        n = data.draw(st.integers(1, 5))
        p = data.draw(st.tuples(*[st.integers(-100, 100)] * n))
        out = decompose_point(p)
        if isinstance(out, NotAVertex):
            assert p[out.v1 - 1] % n == p[out.v2 - 1] % n == out.residue
            return
        t, u = out
        assert sorted(u) == list(range(1, n + 1))
        tile = PrismTile(n, t)
        assert tuple(o + x for o, x in zip(tile.offset, u)) == p

    @given(st.lists(st.integers(-20, 20), min_size=1, max_size=8).map(tuple))
    def test_residue_tests_match_their_walking_oracles(self, p):
        n = len(p)
        assert _residue_distinct(p) == (len({e % n for e in p}) == n)
        assert outcome(decompose_point, p) == outcome(decompose_oracle, p)


class TestHalfspaces:
    def test_classification(self):
        tile = base_tile(3)
        assert tile.classify((0, 0, 0)) == "outside"
        assert tile.classify((1, 2, 3)) == "boundary"
        assert tile.classify((2, 2, 2)) == "boundary"   # base layer
        assert tile.classify((Fraction(5, 2),) * 3) == "interior"
        assert tile.classify(("5/2", 2.5, "15/6")) == "interior"

    def test_cross_section_is_required(self):
        # (1,4) satisfies the subset-sum inequalities read naively on the
        # raw coordinates, but its cross-section falls outside: the tile
        # must reject it or neighboring prisms would overlap
        p = (1, 4)
        assert sum(p) >= 3 and all(x >= 1 for x in p)
        assert base_tile(2).classify(p) == "outside"

    def test_inequalities_agree_with_classifier(self):
        # the tile as rational 'coeffs . x >= rhs' rows: the a-slab, then
        # one row per proper subset S on the cross-section
        n = 3
        K = Fraction(n * (n + 1), 2)
        rows = [((Fraction(1),) * n, K), ((Fraction(-1),) * n, -(K + n))]
        for m in range(1, n):
            for subset in combinations(range(n), m):
                coeffs = tuple(int(i in subset) - Fraction(m, n) for i in range(n))
                rows.append((coeffs, m * (m + 1) // 2 - Fraction(m, n) * K))
        tile = base_tile(n)
        for p in [(1, 2, 3), (0, 0, 0), (2, 3, 2), (Fraction(5, 2),) * 3,
                  (1, 4, 2), (4, 4, 4)]:
            pt = tuple(Fraction(x) for x in p)
            values = [sum(c * x for c, x in zip(coeffs, pt)) - rhs
                      for coeffs, rhs in rows]
            if any(v < 0 for v in values):
                expect = "outside"
            elif any(v == 0 for v in values):
                expect = "boundary"
            else:
                expect = "interior"
            assert tile.classify(p) == expect, p

    def test_wrong_length(self):
        with pytest.raises(ValueError):
            base_tile(3).classify((1, 2))

    @settings(max_examples=300)
    @given(st.data())
    def test_scaled_classification_matches_fraction_path(self, data):
        n = data.draw(st.integers(1, 6))
        point = data.draw(points_near((0,) * n))
        assert base_tile(n).classify(point) == classify_oracle(point, (0,) * n)[0], point
        coeffs = data.draw(st.tuples(*[st.integers(-3, 3)] * n))
        tile = PrismTile(n, coeffs)
        point = data.draw(points_near(tile.offset))
        assert tile.classify(point) == classify_oracle(point, tile.offset)[0], point

    @given(st.lists(st.one_of(
               st.fractions(), st.integers(-9, 9), st.integers(), st.booleans(), st.floats(),
               st.fractions().map(_SubFraction), st.sampled_from(["5/2", "x", None, "1/0"])),
           max_size=4).flatmap(lambda e: st.sampled_from([tuple(e), e, None, 5])),
           st.integers(1, 4))
    def test_scaled_matches_its_fraction_oracle(self, point, n):
        assert outcome(_scaled, point, n) == outcome(scaled_oracle, point, n)

    def test_sorted_prefix_matches_subset_scan_on_scaled_points(self):
        rng = random.Random(2024)
        for n in range(1, 7):
            for den in (2, 3, 7, 101):
                for _ in range(400):
                    # near a random vertex, so all three statuses occur
                    u = rng.sample(range(1, n + 1), n)
                    P = [den * x + rng.randint(-den // 2, den) for x in u]
                    assert classify_scaled(P, den, n) == subset_scan(P, den, n)[0], (P, den)

    def test_sorted_prefix_matches_subset_scan_on_lattice_points(self):
        # integer points around the base tile: ties at every sorted position
        for n in range(1, 7):
            reach = range(0, n + 2) if n <= 4 else range(1, 6)
            for P in product(reach, repeat=n):
                assert classify_scaled(P, 1, n) == subset_scan(P, 1, n)[0], P
                Q = [2 * x + 1 for x in P]
                assert classify_scaled(Q, 2, n) == subset_scan(Q, 2, n)[0], Q

    def test_sorted_prefix_matches_subset_scan_on_tile_vertices(self):
        for n in range(1, 7):
            for v in PrismTile(n, (0,) * n).vertices:
                assert classify_scaled(v, 1, n) == subset_scan(v, 1, n)[0], v

    @given(st.data())
    def test_sorted_prefix_matches_subset_scan_near_vertices(self, data):
        # points a few sample steps from a tile vertex, where facets tie
        n = data.draw(st.integers(1, 6))
        den = data.draw(st.sampled_from([1, 2, 3, SAMPLE_DENOMINATOR]))
        u = data.draw(st.permutations(range(1, n + 1)))
        layer = data.draw(st.integers(0, 1))
        moves = data.draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
        P = [den * (x + layer) + d for x, d in zip(u, moves)]
        assert classify_scaled(P, den, n) == subset_scan(P, den, n)[0], (P, den)


class TestTilesAndPatches:
    def test_vertex_count_and_layers(self):
        tile = PrismTile(3, (0, 0, 0))
        assert len(tile.vertices) == 12
        sums = sorted(sum(v) for v in tile.vertices)
        assert sums == [6] * 6 + [9] * 6

    def test_classify_checks_the_length(self):
        tile = PrismTile(3, (0, 0, 0))
        half = Fraction(5, 2)
        assert tile.classify((half,) * 3) == "interior"
        with pytest.raises(ValueError, match="^expected length 3, got 4$"):
            tile.classify((half,) * 3 + (99,))
        with pytest.raises(ValueError, match="^expected length 3, got 2$"):
            tile.classify((half,) * 2)

    def test_classify_names_a_point_it_cannot_read(self):
        tile = PrismTile(3, (0, 0, 0))
        for bad in [(None, 1), None, (float("inf"), 1), (2, math.nan, 2),
                    ("1/0", 2, 2), ("abc", 2, 2)]:
            with pytest.raises(ValueError,
                               match="^point is not rational: " + re.escape(repr(bad))):
                tile.classify(bad)
        # everything Fraction reads is still a coordinate
        assert tile.classify(iter(("5/2", 2.5, Fraction(5, 2)))) == "interior"

    def test_coeffs_are_n_integers(self):
        for n, coeffs in [(3, (0, 0)), (3, (0, 0, 0, 0)), (2, (0.5, 0)),
                          (2, (0, Fraction(1, 3)))]:
            with pytest.raises(ValueError, match="^coeffs must be"):
                PrismTile(n, coeffs)
        tile = PrismTile(2, [1.0, Fraction(-2)])
        assert tile.coeffs == (1, -2)
        assert all(type(c) is int for c in tile.coeffs + tile.offset)
        assert tile == PrismTile(2, (1, -2))

    def test_n_must_be_positive(self):
        for n in (0, -1):
            with pytest.raises(ValueError, match=f"^n must be >= 1, got {n}$"):
                PrismTile(n, ())

    def test_patch_tiles_equal_public_tiles(self):
        for n, radius in [(1, 3), (2, 2), (3, 1), (4, 1)]:
            tiles = generate_patch(n, radius)
            assert tiles == [PrismTile(n, t.coeffs) for t in tiles]
            assert all(vars(t) == vars(PrismTile(n, t.coeffs)) for t in tiles)
            assert all(type(c) is int for t in tiles for c in t.coeffs + t.offset)

    def test_patch_tiles_take_no_more_memory_than_public_tiles(self):
        def traced(build):
            # a full collection empties the free lists, so every object of
            # the build is a traced allocation whatever ran before
            gc.collect()
            tracemalloc.start()
            try:
                tiles = build()  # held while the memory is read
                return tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()

        builds = (lambda: generate_patch(2, 40),
                  lambda: [PrismTile(2, c) for c in product(range(-40, 41), repeat=2)])
        # each side is built once untraced, so that neither pays the
        # one-time allocations of the first build in the process
        for build in builds:
            build()
        patch, public = map(traced, builds)
        assert patch <= public

    def test_patch_makes_no_public_check(self, monkeypatch):
        # the patch builds its own integer coefficients, so its tiles skip
        # the checks; a public tile still makes them all
        def refuse(tile):
            raise AssertionError("a patch tile was checked")

        with monkeypatch.context() as mp:
            mp.setattr(PrismTile, "__post_init__", refuse)
            assert len(generate_patch(2, 3)) == 49
        for n, coeffs in [(0, ()), (-1, ()), (3, (0, 0)), (2, (0, 0, 0)),
                          (2, (0.5, 0)), (2, (0, "1"))]:
            with pytest.raises(ValueError):
                PrismTile(n, coeffs)

    def test_vertices_lie_on_boundary(self):
        tile = PrismTile(3, (1, 0, 2))
        for v in tile.vertices:
            assert tile.classify(v) == "boundary"

    def test_all_patch_vertices_are_residue_distinct(self):
        for tile in generate_patch(3, 1):
            for v in tile.vertices:
                assert is_residue_distinct(v)

    def test_patch_size(self):
        assert len(generate_patch(2, 1)) == 9
        assert len(generate_patch(3, 0)) == 1

    def test_patch_guards(self):
        # the cap is on exported vertex rows, (2r+1)^n * 2 * n!
        assert len(generate_patch(4, 4)) == 9 ** 4        # 314,928 rows
        assert len(generate_patch(4, 5)) == 11 ** 4       # 702,768 rows
        with pytest.raises(BudgetExceededError, match="1370928 patch vertex rows"):
            generate_patch(4, 6)
        assert len(generate_patch(5, 2)) == 5 ** 5        # 750,000 rows
        with pytest.raises(BudgetExceededError):
            generate_patch(5, 3)
        with pytest.raises(BudgetExceededError, match="1004004 patch vertex rows"):
            generate_patch(2, 250)
        with pytest.raises(BudgetExceededError, match="^n=9 exceeds the cap 8$"):
            generate_patch(9, 0)
        with pytest.raises(ValueError):
            generate_patch(2, -1)

    @given(st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=8))
    def test_offset_matches_matrix_product(self, coeffs):
        assert _lattice_offset(tuple(coeffs)) == offset_oracle(coeffs)

    def test_offset_is_integer_combination(self):
        tile = PrismTile(3, (2, -1, 1))
        expect = [0, 0, 0]
        for c, vec in zip(tile.coeffs, ((-2, 1, 1), (1, -2, 1), (1, 1, 1))):
            expect = [e + c * x for e, x in zip(expect, vec)]
        assert tile.offset == tuple(expect)


class TestProductTiles:
    def test_two_transpositions(self):
        tile = product_tile_vertices((2, 1, 4, 3))
        assert len(tile.vertices) == 16
        assert tile.permutohedron_dims == (1, 1)
        assert tile.interval_count == 2
        assert tile.description == "P1 x P1 x I^2"

    def test_identity_action_gives_unit_cube(self):
        tile = product_tile_vertices((1, 2))
        assert sorted(tile.vertices) == [(1, 1), (1, 2), (2, 1), (2, 2)]
        assert tile.description == "P0 x P0 x I^2"

    def test_single_cycle_matches_prism(self):
        tile = product_tile_vertices((3, 1, 2))
        assert set(tile.vertices) == set(PrismTile(3, (0, 0, 0)).vertices)
        assert tile.description == "P2 x I^1"

    def test_vertices_are_per_cycle_residue_distinct(self):
        for tau in [(2, 1, 4, 3), (2, 3, 1, 4), (1, 3, 2, 5, 4)]:
            cycles = ordered_cycles(tau)
            for v in product_tile_vertices(tau).vertices:
                assert all(
                    is_residue_distinct(f) for f in split_to_factors(v, cycles))

    def test_vertex_count_is_product_of_factorials(self):
        for tau in [(2, 1, 4, 3), (2, 3, 1, 4), (1, 2, 3, 4)]:
            cycles = ordered_cycles(tau)
            expect = 1
            for c in cycles:
                expect *= 2 * math.factorial(len(c))
            assert len(product_tile_vertices(tau).vertices) == expect

    def test_size_cap(self):
        # the cap is on the vertex count prod 2*|c|! and on each cycle length
        assert len(product_tile_vertices((2, 3, 4, 5, 6, 7, 1)).vertices) == 10_080
        with pytest.raises(BudgetExceededError,
                           match="^cycle length=9 exceeds the cap 8$"):
            product_tile_vertices((2, 3, 4, 5, 6, 7, 8, 9, 1))
        seven_and_eight = (2, 3, 4, 5, 6, 7, 1, 9, 10, 11, 12, 13, 14, 15, 8)
        with pytest.raises(BudgetExceededError, match="812851200 product tile"):
            product_tile_vertices(seven_and_eight)
        # twenty fixed points: 2^20 vertices, refused after the twentieth factor
        with pytest.raises(BudgetExceededError, match="1048576 product tile"):
            product_tile_vertices(range(1, 21))

    def test_long_cycle_is_refused_before_any_factorial(self, monkeypatch):
        def no_factorial(m):
            raise AssertionError(f"factorial({m}) computed")

        monkeypatch.setattr(geometry, "factorial", no_factorial)
        n = 10**5
        with pytest.raises(BudgetExceededError,
                           match=f"^cycle length={n} exceeds the cap 8$"):
            product_tile_vertices((*range(2, n + 1), 1))


class TestCheckTiling:
    def test_small_box_passes(self):
        report = check_tiling(2, (0, 4), samples=400, seed=7)
        assert report.passed
        assert report.covered_count == 400
        assert report.interior_one_count == 400
        assert report.overlap_witnesses == ()
        assert report.vertex_match
        assert report.vertex_count == 12
        assert report.covered_fraction == 1
        assert report.interior_one_fraction == 1

    def test_deterministic(self):
        a = check_tiling(2, (0, 4), samples=300, seed=5)
        b = check_tiling(2, (0, 4), samples=300, seed=5)
        assert (a.covered_count, a.interior_one_count, a.resample_count) == (
            b.covered_count, b.interior_one_count, b.resample_count)

    def test_workers_agree_with_serial(self):
        a = check_tiling(2, (0, 4), samples=200, seed=3, workers=1)
        b = check_tiling(2, (0, 4), samples=200, seed=3, workers=2)
        assert (a.covered_count, a.interior_one_count, a.resample_count) == (
            b.covered_count, b.interior_one_count, b.resample_count)

    def test_three_dimensional_run(self):
        report = check_tiling(3, (0, 6), samples=300, seed=0)
        assert report.passed

    def test_negative_box(self):
        report = check_tiling(2, (-4, 2), samples=200, seed=1)
        assert report.passed

    def test_vertex_scan_without_samples(self):
        report = check_tiling(3, (-6, 6), samples=0, seed=0)
        assert report.passed
        assert report.vertex_match
        assert report.samples == 0

    def test_four_dimensional_spot_check(self):
        report = check_tiling(4, (0, 6), samples=50, seed=2)
        assert report.passed
        assert report.vertex_match

    def test_workers_give_the_same_report(self):
        # two worker processes, no more; this seed redraws samples that land
        # on a facet, so the resample count shows how samples were drawn
        a = check_tiling(3, (-2, 4), samples=200, seed=4, workers=1)
        b = check_tiling(3, (-2, 4), samples=200, seed=4, workers=2)
        assert a.resample_count > 0
        assert a == b

    def test_box_match_agrees_with_materialized_tiles(self):
        for n in range(1, 5):
            for lo, hi in [(-3, 2), (-1, 0), (-6, -2), (-4, 4), (-2, 5), (0, 3)]:
                if n == 4 and hi - lo > 6:
                    continue
                expect = point_match(materialized_box_vertices(n, lo, hi),
                                     residue_filter_oracle(n, lo, hi),
                                     window_size(n, lo, hi))
                assert _box_vertex_match(n, lo, hi) == expect, (n, lo, hi)
                assert expect[0]

    def test_key_match_agrees_with_the_point_walk(self):
        # negative lo, hi - lo from n - 1 to 3n; at n = 6 to 2n + 1, as the
        # point walk takes 8 s for the rest
        for n in range(1, 7):
            for lo in ((-5, -1) if n < 6 else (-4,)):
                for hi in range(lo + max(1, n - 1), lo + (3 * n if n < 6 else 2 * n + 1) + 1):
                    assert _box_vertex_match(n, lo, hi) == full_box_walk(n, lo, hi), (n, lo, hi)

    @pytest.mark.parametrize("corrupt", ["shift 1", "shift 2", "drop"])
    def test_corrupted_tile_side_gives_the_oracle_mismatches(self, monkeypatch, corrupt):
        # one permutation w of the walk has its first n - 1 entries, and so
        # their residues, moved, or is left out: the key match must report
        # what listing the points finds.  Leaving one out changes neither
        # side: (w, s) gives the key of (w', s + 1) for w' = w - 1 mod n,
        # so each key comes from n pairs
        mismatched = set()
        for n in range(2, 7):
            bottom = permutohedron_vertices(n)
            *head, last = bottom.pop(len(bottom) // 2)
            if corrupt != "drop":
                bottom.append((*[x + int(corrupt[-1]) for x in head], last))
            both = bottom + [tuple(x + 1 for x in v) for v in bottom]
            monkeypatch.setattr(geometry, "permutohedron_vertices", lambda n: bottom)
            for hi in range(n - 5, 2 * n - 3):
                got = _box_vertex_match(n, -4, hi)
                assert got == full_box_walk(n, -4, hi, both), (corrupt, n, hi)
                if not got[0]:
                    mismatched.add(n)
        # a shift by 2 leaves every residue mod 2 as it was
        assert mismatched == {"shift 1": {2, 3, 4, 5, 6}, "shift 2": {3, 4, 5, 6},
                              "drop": set()}[corrupt]

    def test_narrow_box_matches_the_full_walk(self):
        for n in range(2, 7):
            for lo in range(-3, 4):
                for hi in range(lo, lo + n - 1):
                    got = _box_vertex_match(n, lo, hi)
                    assert got == (True, 0, (), got[3]), (n, lo, hi)
                    assert got == full_box_walk(n, lo, hi), (n, lo, hi)

    def test_narrow_box_lists_no_tile_vertex(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a narrow box walked the tile vertices")

        monkeypatch.setattr(PrismTile, "vertices", property(refuse))
        monkeypatch.setattr(geometry, "permutations", refuse)
        report = check_tiling(8, (0, 6), samples=0)
        assert (report.vertex_count, report.vertex_match) == (0, True)

    def test_box_match_walks_the_bottom_layer_only(self, monkeypatch):
        # a tile's top layer is the bottom layer of the tile one a-step up,
        # so the walk over the permutations of (1..n) lists both layers
        boxes = [(n, lo, hi) for n in range(1, 5)
                 for lo, hi in [(-3, 2), (-6, -2), (-2, 5), (0, 3), (0, 8)]
                 if n < 4 or hi - lo <= 8]
        expect = {box: full_box_walk(*box) for box in boxes}

        def refuse(*args):
            raise AssertionError("the box match listed a tile's vertices")

        monkeypatch.setattr(PrismTile, "vertices", property(refuse))
        for box in boxes:
            assert _box_vertex_match(*box) == expect[box], box
        report = check_tiling(4, (0, 8), samples=0)
        # 4! orders of the residue classes, of 3, 2, 2 and 2 box values
        assert (report.vertex_count, report.vertex_match) == (24 * 3 * 2 * 2 * 2, True)

    def test_residue_side_matches_filter(self, monkeypatch):
        # with no tile side, every residue-distinct point is a mismatch: the
        # first 8 come from the residue keys' boxes, and the count is theirs
        monkeypatch.setattr(geometry, "permutohedron_vertices", lambda n: [])
        for n in range(1, 6):
            for lo, hi in [(-3, 2), (-1, 0), (-6, -2), (-4, 4), (-2, 5), (0, 3),
                           (-9, -8), (5, 11)]:
                if (hi - lo + 1) ** n > 10**5:
                    continue
                expect = point_match(set(), residue_filter_oracle(n, lo, hi),
                                     window_size(n, lo, hi))
                assert _box_vertex_match(n, lo, hi) == expect, (n, lo, hi)

    def test_box_past_the_old_point_cap_is_matched(self):
        # 403,200,000 residue-distinct points, compared as 12,120 keys a side
        report = check_tiling(5, (-50, 50), samples=0)
        sizes = [len(range(-50 + (r + 50) % 5, 51, 5)) for r in range(5)]
        assert report.passed
        assert report.vertex_count == math.factorial(5) * math.prod(sizes) == 403_200_000

    def test_vertex_count_is_factorial_times_class_sizes(self):
        for n, lo, hi in [(1, -3, 3), (2, -5, 2), (3, -4, 6), (4, -7, 1), (5, -2, 3),
                          (5, 0, 3), (6, -1, 6)]:
            report = check_tiling(n, (lo, hi), samples=0)
            sizes = [sum(1 for v in range(lo, hi + 1) if v % n == r) for r in range(n)]
            assert report.vertex_count == math.factorial(n) * math.prod(sizes)
            assert report.vertex_match, (n, lo, hi)

    def test_six_dimensional_spot_check(self):
        report = check_tiling(6, (0, 6), samples=50, seed=1)
        assert report.passed
        assert report.vertex_count == 2 * math.factorial(6)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 4), lo=st.integers(-8, 3), width=st.integers(1, 6),
           seed=st.integers(-10**6, 10**6), block=st.integers(0, 160),
           count=st.integers(1, 200))
    @example(n=3, lo=-2, width=6, seed=4, block=0, count=200)  # redraws samples
    def test_chunk_matches_oracle(self, n, lo, width, seed, block, count):
        args = (n, lo, lo + width, seed, block * SAMPLE_BLOCK, count)
        assert _tiling_chunk(args) == tiling_chunk_oracle(args)

    def test_candidate_list_matches_window_scan(self):
        # small denominators put many points on a facet (the None path) or
        # on a layer, where two a-coefficients are candidates
        rng = random.Random(14)
        nones = layers = 0
        for n in range(1, 9):
            for den in (1, 2, 3, SAMPLE_DENOMINATOR):
                dn = den * n
                for _ in range(60 if n < 7 else 15):
                    P = [rng.randint(-3 * dn, 3 * dn) for _ in range(n)]
                    interior, any_tight = window_scan_oracle(P, den, n)
                    expect = None if any_tight else interior
                    assert sampler_interior(P, den, n) == expect, (P, den)
                    nones += any_tight
                    layers += (sum(P) - den * n * (n + 1) // 2) % dn == 0
        assert nones > 100 and layers > 50

    @settings(max_examples=400, deadline=None)
    @given(case=points_on_facets())
    @example(case=([150], 101, 1, "anywhere"))  # n = 1 has no facet but its layers
    @example(case=([3, 5], 2, 2, "size 1"))
    @example(case=([4, 4, 7], 2, 3, "size n-1"))
    @example(case=([4, 4, 8, 8], 2, 4, "middle"))
    def test_facet_points_match_window_scan(self, case):
        P, den, n, kind = case
        interior, any_tight = window_scan_oracle(P, den, n)
        if kind != "anywhere":
            assert any_tight, case
        expect = None if any_tight else interior
        assert sampler_interior(P, den, n) == expect, case

    @pytest.mark.parametrize("n", [2, 3])
    def test_small_n_makes_no_prefix_test(self, monkeypatch, n):
        # the windows decide the facets of sizes 1 and n-1, which are all
        # the sizes for n <= 3
        tested = []
        prefix_test = geometry._prefix_test

        def counting(Q, dn, n):
            tested.append(Q)
            return prefix_test(Q, dn, n)

        monkeypatch.setattr(geometry, "_prefix_test", counting)
        rng = random.Random(n)
        den = SAMPLE_DENOMINATOR
        results = [geometry._count_containing(
            [rng.randint(-6 * den, 6 * den) for _ in range(n)], den, n)
            for _ in range(500)]
        assert len(tested) == 0
        assert sum(r is not None and len(r) == 1 for r in results) >= 490

    def test_few_tiles_are_tested_per_draw(self, monkeypatch):
        # the coefficient box held 12 to 13 tiles per draw at n = 6 and
        # doubled with each n; the facet-derived list holds about one
        tested = []
        prefix_test = geometry._prefix_test

        def counting(Q, dn, n):
            tested.append(Q)
            return prefix_test(Q, dn, n)

        monkeypatch.setattr(geometry, "_prefix_test", counting)
        rng = random.Random(6)
        den = SAMPLE_DENOMINATOR
        for _ in range(500):
            P = [rng.randint(-6 * den, 6 * den) for _ in range(6)]
            geometry._count_containing(P, den, 6)
        assert 500 <= len(tested) <= 2 * 500

    def test_chunk_draws_the_oracle_points(self, monkeypatch):
        # the report hardly depends on which points are drawn, so compare
        # the points: each block of samples keeps its own generator stream
        drawn = []
        count_containing = geometry._count_containing

        def recording(P, den, n):
            drawn.append(tuple(P))
            return count_containing(P, den, n)

        monkeypatch.setattr(geometry, "_count_containing", recording)
        for args in [(3, -2, 4, 4, 0, 200), (4, -5, 1, 77, 1216, 40), (1, 0, 2, 5, 0, 10)]:
            drawn.clear()
            expect = []
            assert _tiling_chunk(args) == tiling_chunk_oracle(args, expect)
            assert drawn == expect, args
        assert len(expect) == 11  # ten samples, one redrawn

    @pytest.mark.parametrize("n, first", [
        (2, ((1, 0), (1, 1))),
        (3, ((0, -1, -1), (0, -1, 0))),
        (4, ((0, -1, 0, -2), (0, -1, 0, -1))),
    ])
    def test_overlap_witness_lists_coefficients_in_order(self, monkeypatch, n,
                                                         first):
        # no real sample lies in two tiles, so each draw's one pair (c_a, b)
        # comes back after (c_a + 1, b): the pair of the tile one step up in
        # a, as a point on a layer gets it, and lexicographically later
        drawn = []
        count_containing = geometry._count_containing

        def doubled(P, den, n):
            [(c_a, b)] = count_containing(P, den, n)
            drawn.append(tuple(P))
            return [(c_a + 1, b), (c_a, b)]

        monkeypatch.setattr(geometry, "_count_containing", doubled)
        result = _tiling_chunk((n, -2, 3, 5, 0, 4))
        assert (result["covered"], result["interior_one"]) == (4, 0)
        expect = []
        for P in drawn:
            [tile] = window_scan_oracle(P, SAMPLE_DENOMINATOR, n)[0]
            point = tuple(Fraction(p, SAMPLE_DENOMINATOR) for p in P)
            expect.append((point, (tile, (*tile[:-1], tile[-1] + 1))))
        assert result["overlaps"] == expect
        assert expect[0][1] == first

    def test_chunk_start_must_open_a_block(self):
        for start in (1, SAMPLE_BLOCK - 1, SAMPLE_BLOCK + 1):
            with pytest.raises(ValueError, match="not a multiple"):
                _tiling_chunk((2, 0, 4, 1, start, 5))

    @pytest.mark.parametrize("n, box, samples, seed, resamples, first", [
        (3, (-2, 4), 200, 4, 3,
         [(-93, 342, -115), (-109, 278, 378), (132, 380, 372)]),
        (2, (0, 4), 400, 7, 1, [(77, 367), (98, 325), (118, 298)]),
        (2, (0, 4), 400, -7, 4, [(327, 317), (380, 297), (14, 301)]),
    ])
    def test_sample_stream_is_pinned(self, monkeypatch, n, box, samples, seed,
                                     resamples, first):
        # the drawn points, as numerators over SAMPLE_DENOMINATOR, and the
        # redraw count of a seed; any change to the sample stream shows here
        drawn = []
        count_containing = geometry._count_containing

        def recording(P, den, n):
            drawn.append(tuple(P))
            return count_containing(P, den, n)

        monkeypatch.setattr(geometry, "_count_containing", recording)
        report = check_tiling(n, box, samples=samples, seed=seed)
        assert report.resample_count == resamples
        assert len(drawn) == samples + resamples
        assert drawn[:3] == first

    def test_negative_seeds_draw_their_own_points(self, monkeypatch):
        # CPython seeds an int by its absolute value, so seed -1 must not
        # key its blocks as seed 1 does
        drawn = []
        count_containing = geometry._count_containing

        def recording(P, den, n):
            drawn.append(tuple(P))
            return count_containing(P, den, n)

        monkeypatch.setattr(geometry, "_count_containing", recording)
        check_tiling(2, (0, 4), samples=64, seed=1)
        positive = drawn[:]
        drawn.clear()
        check_tiling(2, (0, 4), samples=64, seed=-1)
        assert drawn != positive

    def test_block_keys_stay_apart(self):
        # mod 1_000_003 a block key is b for seed >= 0 and 1_000_002 - b for
        # a negative seed: apart while there are fewer than 500_001 blocks
        assert math.ceil(limits.MAX_BOX_POINTS / SAMPLE_BLOCK) < 500_001

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 3), lo=st.integers(-4, 2), width=st.integers(1, 5),
           samples=st.sampled_from([1, 63, 65, 200]), seed=st.integers(0, 10**6))
    def test_report_does_not_depend_on_workers(self, n, lo, width, samples, seed):
        import concurrent.futures

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
            reports = [check_tiling(n, (lo, lo + width), samples=samples,
                                    seed=seed, workers=workers)
                       for workers in range(1, 6)]
        assert all(report == reports[0] for report in reports)

    @pytest.mark.parametrize("kwargs, message", [
        ({"box": (0.5, 4.9)}, "box lo must be an integer, got 0.5"),
        ({"box": (0, 4.9)}, "box hi must be an integer, got 4.9"),
        ({"seed": 1.5}, "seed must be an integer, got 1.5"),
        ({"samples": 2.5}, "samples must be an integer, got 2.5"),
        ({"workers": 1.5}, "workers must be an integer, got 1.5"),
        ({"n": Fraction(5, 2)}, "n must be an integer, got Fraction(5, 2)"),
        ({"box": (0, "4")}, "box hi must be an integer, got '4'"),
        ({"seed": None}, "seed must be an integer, got None"),
        ({"samples": float("inf")}, "samples must be an integer, got inf"),
    ], ids=["box-lo", "box-hi", "seed", "samples", "workers", "n", "text",
            "none", "infinity"])
    def test_non_integer_input_is_a_value_error(self, kwargs, message):
        args = {"n": 2, "box": (0, 4), "samples": 10, "seed": 0, "workers": 1}
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            check_tiling(**{**args, **kwargs})

    @pytest.mark.parametrize("box", [(0, 4, 99), 5, (3,), ()],
                             ids=["three-ends", "int", "one-end", "empty"])
    def test_box_that_is_not_a_pair_is_a_value_error(self, box):
        message = f"box must be a pair (lo, hi), got {box!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            check_tiling(2, box, samples=10)

    def test_integral_input_is_taken_as_int(self):
        report = check_tiling(2.0, (Fraction(0), 4.0), samples=64.0, seed=Fraction(7),
                              workers=1.0)
        assert report == check_tiling(2, (0, 4), samples=64, seed=7)
        assert all(type(x) is int for x in (report.n, *report.box, report.samples,
                                            report.seed))

    def test_sampler_that_cannot_avoid_facets_is_a_budget_error(self, monkeypatch):
        monkeypatch.setattr(geometry, "_count_containing",
                            lambda P, den, n: None)
        with pytest.raises(BudgetExceededError, match="facet"):
            check_tiling(2, (0, 4), samples=3, seed=1)

    def test_workers_cap_starts_no_process(self, monkeypatch):
        import concurrent.futures

        pools = []

        class RecordingPool(InlinePool):
            def __init__(self, max_workers):
                pools.append(max_workers)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        cap = limits.MAX_WORKERS
        with pytest.raises(BudgetExceededError):
            check_tiling(2, (0, 4), samples=200, seed=3, workers=cap + 1)
        assert pools == []
        serial = check_tiling(2, (0, 4), samples=200, seed=3)
        assert check_tiling(2, (0, 4), samples=200, seed=3, workers=cap) == serial
        # no more processes than chunks: 200 samples make four whole-block
        # chunks, and five samples make one chunk, which starts no pool
        check_tiling(2, (0, 4), samples=5, seed=3, workers=8)
        assert pools == [4]

    def test_guards(self, monkeypatch):
        with pytest.raises(BudgetExceededError, match="^n=9 exceeds the cap 8$"):
            check_tiling(9, (0, 4))
        assert check_tiling(5, (0, 4), samples=20).passed
        with pytest.raises(ValueError):
            check_tiling(2, (3, 3))
        with pytest.raises(ValueError):
            check_tiling(2, (0, 4), samples=-1)
        with pytest.raises(ValueError):
            check_tiling(2, (0, 4), workers=0)
        # [0, 59]^4 holds 24 * 15^4 residue-distinct points, matched by the
        # keys of 24 * 60 (vertex, s) pairs
        report = check_tiling(4, (0, 59), samples=0)
        assert (report.vertex_count, report.vertex_match) == (1_215_000, True)
        # n = 1 walks one (vertex, s) pair per integer of the box
        with pytest.raises(BudgetExceededError, match="1000001 tile-side"):
            check_tiling(1, (1, 1_000_001), samples=0)
        report = check_tiling(1, (1, 500_001), samples=0)
        assert report.passed and report.vertex_count == 500_001
        # too many samples are refused before the box match starts
        monkeypatch.setattr(geometry, "_box_vertex_match", None)
        cap = limits.MAX_BOX_POINTS
        with pytest.raises(BudgetExceededError, match=f"{cap + 1} samples"):
            check_tiling(2, (0, 4), samples=cap + 1)


class TestExport:
    def test_json_structure(self):
        tiles = generate_patch(2, 1)
        doc = json.loads("".join(export_mesh(tiles, "json")))
        assert doc["n"] == 2
        assert len(doc["tiles"]) == 9
        assert doc["tiles"][0].keys() == {"t", "vertices"}
        for tile in doc["tiles"]:
            for v in tile["vertices"]:
                assert all(isinstance(c, int) for c in v)

    def test_json_matches_json_module(self):
        for n in range(1, 5):
            for radius in range(3):
                tiles = generate_patch(n, radius)
                assert "".join(export_mesh(tiles, "json")) == json_mesh_oracle(tiles), (n, radius)
        for n, radius in [(5, 1), (6, 0), (7, 0)]:
            tiles = generate_patch(n, radius)
            assert "".join(export_mesh(tiles, "json")) == json_mesh_oracle(tiles), n
        tiles = [PrismTile(3, (-7, 0, 12)), PrismTile(3, (5, -3, -1000))]
        assert "".join(export_mesh(tiles, "json")) == json_mesh_oracle(tiles)
        for n in range(1, 5):
            tiles = far_tiles(n)
            assert "".join(export_mesh(tiles, "json")) == json_mesh_oracle(tiles), n

    def test_off_single_prism(self):
        text = "".join(export_mesh([PrismTile(3, (0, 0, 0))], "off"))
        lines = text.strip().split("\n")
        assert lines[0] == "OFF"
        nv, nf, ne = map(int, lines[1].split())
        assert (nv, nf, ne) == (12, 8, 0)
        verts = [tuple(map(int, l.split())) for l in lines[2:2 + nv]]
        faces = [list(map(int, l.split())) for l in lines[2 + nv:]]
        assert sorted(f[0] for f in faces) == [4] * 6 + [6] * 2
        for f in faces:
            assert f[0] == len(f) - 1
            idx = f[1:]
            for i in range(len(idx)):
                a, b = verts[idx[i]], verts[idx[(i + 1) % len(idx)]]
                gap = sum((x - y) ** 2 for x, y in zip(a, b))
                assert gap in (2, 3)  # swap edges and vertical prism edges

    def test_off_planar_patch(self):
        text = "".join(export_mesh(generate_patch(2, 1), "off"))
        lines = text.strip().split("\n")
        nv, nf, _ = map(int, lines[1].split())
        assert (nv, nf) == (36, 9)
        assert all(len(l.split()) == 3 for l in lines[2:2 + nv])

    def test_off_rejects_high_dimension(self):
        with pytest.raises(ValueError):
            export_mesh([PrismTile(4, (0, 0, 0, 0))], "off")

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            export_mesh(generate_patch(2, 0), "stl")

    def test_empty_and_mixed(self):
        with pytest.raises(ValueError):
            export_mesh([], "json")
        with pytest.raises(ValueError):
            export_mesh([PrismTile(2, (0, 0)), PrismTile(3, (0, 0, 0))], "json")

    @pytest.mark.parametrize("tiles", [
        5, "abc", {"a": 1}, iter([PrismTile(2, (0, 0))]), [PrismTile(2, (0, 0)), 3],
        (PrismTile(2, (0, 0)), None), [(0, 0)],
    ], ids=["int", "str", "dict", "iterator", "int-tile", "none-tile", "coeffs-tile"])
    @pytest.mark.parametrize("fmt", ["json", "off"])
    def test_tiles_that_are_not_a_sequence_of_tiles_are_a_value_error(self, tiles, fmt):
        with pytest.raises(ValueError, match="^tiles must be"):
            export_mesh(tiles, fmt)

    def test_off_loops_match_per_tile_computation(self):
        for n in range(1, 4):
            for radius in range(4 + 1):
                tiles = generate_patch(n, radius)
                assert "".join(export_mesh(tiles, "off")) == off_mesh_oracle(tiles), (n, radius)

    def test_off_far_tiles_match_per_tile_computation(self):
        for n in range(1, 4):
            tiles = far_tiles(n)
            assert "".join(export_mesh(tiles, "off")) == off_mesh_oracle(tiles), n

    def test_export_leaves_offset_uncached(self):
        for n, fmt in [(2, "json"), (2, "off"), (3, "off"), (4, "json")]:
            tiles = generate_patch(n, 1)
            for _ in export_mesh(tiles, fmt):
                pass
            assert all("offset" not in vars(t) for t in tiles), (n, fmt)

    def test_face_loops_are_pinned(self):
        # golden: the loops every OFF export has written, start vertex and
        # direction included
        assert _base_face_loops(1) == ()
        assert _base_face_loops(2) == ((2, 0, 1, 3),)
        assert _base_face_loops(3) == (
            (4, 2, 0, 1, 3, 5), (1, 0, 6, 7), (6, 0, 2, 8), (3, 1, 7, 9),
            (8, 2, 4, 10), (5, 3, 9, 11), (10, 4, 5, 11), (9, 7, 6, 8, 10, 11))

    def test_face_loops_turn_outward(self):
        # consecutive edges a, b of a loop turn counterclockwise seen from
        # outside: (a x b) . (face centre - tile centre) > 0, here scaled
        # by the face and tile vertex counts to stay in integers
        verts = PrismTile(3, (0, 0, 0)).vertices
        center = [sum(column) for column in zip(*verts)]
        for loop in _base_face_loops(3):
            face = [sum(verts[i][j] for i in loop) for j in range(3)]
            outward = [len(verts) * f - len(loop) * c for f, c in zip(face, center)]
            for i in range(len(loop)):
                p, q, r = (verts[loop[(i + k) % len(loop)]] for k in range(3))
                a = [y - x for x, y in zip(p, q)]
                b = [y - x for x, y in zip(q, r)]
                cross = (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
                         a[0] * b[1] - a[1] * b[0])
                assert sum(x * y for x, y in zip(cross, outward)) > 0, loop

    def test_face_loops_are_the_groups_that_the_subset_scan_finds(self):
        # each loop holds the vertices on one tight layer or facet of the
        # subset scan, read from the vertices' permutations without a scan
        groups = {}
        for i, v in enumerate(base_tile(3).vertices):
            for label in subset_scan(v, 1, 3)[1]:
                groups.setdefault(label, []).append(i)
        faces = sorted(g for g in groups.values() if len(g) >= 3)
        assert sorted(sorted(loop) for loop in _base_face_loops(3)) == faces
        for n in range(1, 7):
            tile = base_tile(n)
            assert {tile.classify(v) for v in tile.vertices} == {"boundary"}, n

    def test_chunks_come_one_per_tile(self):
        tiles = generate_patch(2, 1)
        assert len(list(export_mesh(tiles, "json"))) == len(tiles) + 2
        assert len(list(export_mesh(tiles, "off"))) == 2 * len(tiles) + 1
