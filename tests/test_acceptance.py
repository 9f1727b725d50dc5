"""Acceptance gate: ten end-to-end criteria, one pass/fail line each.

The lines are echoed in the terminal summary after any pytest run that
includes this file; add `-s` to watch them appear as criteria complete.
Each test also carries its criterion in the test name.
"""

import math
import random
import time
from contextlib import contextmanager
from itertools import product

from latticetwist.geometry import (
    check_tiling,
    coordinate_matrices,
    decompose_point,
    Decomposition,
    NotAVertex,
    product_tile_vertices,
    PrismTile,
)
from latticetwist.semidirect import (
    SemiElement,
    general_is_unit,
    perm_compose,
    perm_inverse,
    phi_backward,
    phi_forward,
    semi_multiply,
    split_to_factors,
)
from latticetwist.twisted import (
    Action,
    NotBijective,
    embed_constant,
    identity_element,
    invert,
    ordered_cycles,
    star_multiply,
    transport_permutation,
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
    generated_closure,
    relation_preset,
    standard_generators,
    verify_derived_identities,
    verify_relations,
)
from test_geometry import inverse_oracle


RESULT_LINES: list[str] = []


def _record(number, name, status):
    line = f"ACCEPTANCE {number} {name}: {status}"
    RESULT_LINES.append(line)
    print(line, flush=True)


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        _record(number, name, "FAIL")
        raise
    _record(number, name, "PASS")


def random_vec(rng, n, lo=-50, hi=50):
    return tuple(rng.randint(lo, hi) for _ in range(n))


def test_criterion_01_twisted_product_axioms():
    with criterion(1, "twisted-product-axioms"):
        rng = random.Random(101)
        actions = {}
        for n in range(1, 7):
            for _ in range(10_000):
                if rng.random() < 0.5:
                    action = cyclic_action(n)
                else:
                    tau = list(range(1, n + 1))
                    rng.shuffle(tau)
                    key = tuple(tau)
                    if key not in actions:
                        actions[key] = Action.from_permutation(key)
                    action = actions[key]
                a, b, c = (random_vec(rng, n) for _ in range(3))
                left = star_multiply(star_multiply(a, b, action), c, action)
                right = star_multiply(a, star_multiply(b, c, action), action)
                assert left == right
                e = identity_element(action)
                assert star_multiply(a, e, action) == a
                assert star_multiply(e, a, action) == a
                g, h = rng.randint(-9, 9), rng.randint(-9, 9)
                assert star_multiply(
                    embed_constant(g, action), embed_constant(h, action),
                    action,
                ) == embed_constant(g + h, action)


def test_criterion_02_unit_classification_count():
    with criterion(2, "unit-classification-count"):
        for n, expect in ((2, 2), (3, 6), (4, 24)):
            units = [
                x for x in product(range(n), repeat=n) if is_unit_member(x)]
            assert len(units) == expect == math.factorial(n)
            reps = enumerate_residue_classes(n)
            assert len(reps) == expect
            s = shift_vector(n)
            shifted = [tuple(a - b for a, b in zip(y, s)) for y in reps]
            assert all(is_unit_member(x) for x in shifted)
            # same residue classes: shifting by s matches units mod n
            assert {tuple(e % n for e in x) for x in shifted} == {
                tuple(e % n for e in x) for x in units}
            # membership is exactly bijectivity of v -> tau^{x_v}(v),
            # checked by literally iterating the cyclic step
            def step(v):
                return n if v == 1 else v - 1

            for x in product(range(n), repeat=n):
                images = set()
                for v in range(1, n + 1):
                    w = v
                    for _ in range(x[v - 1]):
                        w = step(w)
                    images.add(w)
                assert is_unit_member(x) == (len(images) == n)


def test_criterion_03_unit_inverses():
    with criterion(3, "unit-inverses"):
        for n in (2, 3, 4):
            action = cyclic_action(n)
            e = identity_element(action)
            for x in product(range(n), repeat=n):
                if not is_unit_member(x):
                    continue
                psi = invert(x, action)
                assert star_multiply(x, psi, action) == e
                assert star_multiply(psi, x, action) == e
            ed = shift_vector(n)
            for y in enumerate_residue_classes(n):
                yi = deformed_inverse(y)
                assert deformed_multiply(y, yi) == ed
                assert deformed_multiply(yi, y) == ed


def test_criterion_04_semidirect_isomorphism():
    with criterion(4, "semidirect-isomorphism"):
        rng = random.Random(404)

        def random_element(n):
            perm = list(range(1, n + 1))
            rng.shuffle(perm)
            return SemiElement(random_vec(rng, n, -50, 50), tuple(perm))

        for n in range(2, 7):
            for _ in range(10_000):
                ex, ey = random_element(n), random_element(n)
                x, y = phi_backward(ex), phi_backward(ey)
                assert phi_forward(x) == ex and phi_forward(y) == ey
                assert phi_forward(deformed_multiply(x, y)) == semi_multiply(
                    ex, ey)
                assert phi_backward(phi_forward(x)) == x
        # the reversed product convention fails on a concrete pair
        x, y = (0, 1, 2), (1, 0, 2)
        gx, gy = phi_forward(x), phi_forward(y)
        correct = semi_multiply(gx, gy)
        assert correct == phi_forward(deformed_multiply(x, y))
        s_inv = perm_inverse(gx.s)
        alt = SemiElement(
            tuple(gx.z[i] + gy.z[s_inv[i] - 1] for i in range(3)),
            perm_compose(gx.s, gy.s))
        assert alt != correct


def test_criterion_05_relation_presets():
    with criterion(5, "relation-presets"):
        for n in range(4, 9):
            for name in ("sn", "three_gen"):
                report = verify_relations(relation_preset(n, name))
                assert report.passed, (n, name)
        for n in range(2, 9):
            report = verify_relations(relation_preset(n, "two_gen"))
            assert report.passed, n


def test_criterion_06_derived_identities():
    with criterion(6, "derived-identities"):
        for n in range(2, 9):
            for seed in (0, 1):
                report = verify_derived_identities(n, seed=seed, draws=4)
                assert report.passed, (n, seed, [
                    (c.name, c.instance) for c in report.checks if not c.holds])
        counts = {n: len(verify_derived_identities(n).checks)
                  for n in range(2, 9)}
        assert counts[2] == 2 and counts[3] == 3 and counts[4] == 28


def test_criterion_07_generator_closure():
    with criterion(7, "generator-closure"):
        for n in (3, 4, 5, 6):
            gens = standard_generators(n)
            report = generated_closure([gens["s"], gens["t"]])
            assert report.closed
            assert report.element_count == math.factorial(n)
            assert report.permutations_complete
        for n in (3, 4, 5):
            gens = standard_generators(n)
            targets = {k: gens[k] for k in ("s", "t", "g")}
            report = generated_closure(
                [gens["a"], gens["b"]], budget=1_000_000,
                targets=targets, stop_early=True)
            assert not report.budget_exhausted
            assert all(report.targets_reached.values()), report.targets_reached
            assert report.permutations_complete
            assert report.translation_rank == n
            assert report.translations_span_lattice


def test_criterion_08_lattice_decomposition():
    with criterion(8, "lattice-decomposition"):
        from fractions import Fraction

        for n in range(2, 9):
            C, Ci = coordinate_matrices(n), inverse_oracle(n)
            for i in range(n):
                for j in range(n):
                    entry = sum(
                        Fraction(C[i][k]) * Ci[k][j] for k in range(n))
                    assert entry == (1 if i == j else 0)
        rng = random.Random(808)
        for n in (2, 3, 4):
            span = (100 - (n - 1)) // n
            for _ in range(10_000):
                base = list(range(n))
                rng.shuffle(base)
                p = tuple(
                    r + n * rng.randint(-span, span) for r in base)
                assert all(abs(e) <= 100 for e in p)
                out = decompose_point(p)
                assert isinstance(out, Decomposition)
                t, u = out
                assert sorted(u) == list(range(1, n + 1))
                assert tuple(
                    o + x for o, x in zip(PrismTile(n, t).offset, u)) == p
            collider = decompose_point((n, 0) + (1,) * (n - 2))
            assert isinstance(collider, NotAVertex)
        for n in (2, 3):
            report = check_tiling(n, (-6, 6), samples=0)
            assert report.vertex_match, report.vertex_mismatches


def test_criterion_09_prism_tiling():
    with criterion(9, "prism-tiling"):
        start = time.perf_counter()
        for n in (2, 3):
            report = check_tiling(n, (0, 2 * n), samples=10_000, seed=0)
            assert report.covered_count == report.samples
            assert report.interior_one_count == report.samples
            assert report.overlap_witnesses == ()
            assert report.vertex_match, report.vertex_mismatches
            assert report.passed
        elapsed = time.perf_counter() - start
        assert elapsed < 60, f"tiling check took {elapsed:.1f}s"


def random_unit_vector(rng, cycles):
    """Unit under the action with the given cycles, built cycle by cycle."""
    parts = []
    for cycle in cycles:
        m = len(cycle)
        targets = list(range(m))
        rng.shuffle(targets)
        # (j - f_j) mod m hits each residue exactly once
        parts.append(tuple(
            (j - targets[j - 1]) + m * rng.randint(-3, 3)
            for j in range(1, m + 1)))
    out = [0] * sum(len(c) for c in cycles)
    for part, cycle in zip(parts, cycles):
        for value, w in zip(part, cycle):
            out[w - 1] = value
    return tuple(out)


def test_criterion_10_general_action_units():
    with criterion(10, "general-action-units"):
        rng = random.Random(1010)
        actions = []
        for n in range(4, 9):
            for _ in range(20):
                tau = list(range(1, n + 1))
                rng.shuffle(tau)
                actions.append(tuple(tau))
        assert len(actions) == 100
        for tau in actions:
            n = len(tau)
            cycles = ordered_cycles(tau)
            action = Action.from_permutation(tau)
            for _ in range(1000):
                x = random_vec(rng, n, -2 * n, 2 * n)
                per_cycle = all(
                    is_unit_member(f) for f in split_to_factors(x, cycles))
                assert general_is_unit(x, tau) == per_cycle
                # both predicates run one kernel; the transport map is the
                # independent check
                bijective = not isinstance(
                    transport_permutation(x, action), NotBijective)
                assert per_cycle == bijective
        for _ in range(1000):
            tau = actions[rng.randrange(len(actions))]
            n = len(tau)
            action = Action.from_permutation(tau)
            cycles = ordered_cycles(tau)
            x = random_unit_vector(rng, cycles)
            y = random_unit_vector(rng, cycles)
            assert general_is_unit(x, tau) and general_is_unit(y, tau)
            xy = star_multiply(x, y, action)
            assert general_is_unit(xy, tau)
            whole = split_to_factors(xy, cycles)
            parts = [
                star_multiply(fx, fy, cyclic_action(len(c)))
                for fx, fy, c in zip(
                    split_to_factors(x, cycles),
                    split_to_factors(y, cycles), cycles)
            ]
            assert whole == parts
        tile = product_tile_vertices((2, 1, 4, 3))
        assert len(tile.vertices) == 16
        cycles = ordered_cycles((2, 1, 4, 3))
        for v in tile.vertices:
            assert all(
                is_residue_distinct(f) for f in split_to_factors(v, cycles))
