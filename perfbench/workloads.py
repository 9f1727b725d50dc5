"""Seeded workloads, how to run one op, and an independent oracle per op kind.

An op is a JSON-able dict with a "kind".  CLI kinds carry the argv that
goes through `latticetwist.cli.run`; library kinds carry the arguments of
one public call.  Every oracle below decides from closed forms written
here, never by calling the code under test.  Each kind also has a
`corrupt` function that damages a real outcome, so the harness can show
that its oracle notices a wrong answer.
"""

from __future__ import annotations

import io
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from itertools import product
from time import perf_counter_ns

from latticetwist import cli, geometry, semidirect, twisted, units, words

WORKLOADS = ("tiling", "closure", "arith")

# How many times the arith strata are repeated in one pass: enough calls
# that a pass is a few milliseconds and each op kind has many samples.
ARITH_REPEATS = 4


# --------------------------------------------------------------------------
# Generation.  A pass is a fixed list of ops whose mix of sizes does not
# depend on the seed (box offsets, sampling seeds, budgets, vector entries
# and words do), so runs with different seeds do comparable work.  The
# order is fixed too: what ran just before an op (say, a 10^5-element
# closure that freed its memory) changes that op's cost.

def generate(workload: str, seed: int) -> tuple[list[dict], list[dict]]:
    """(ops of one pass, warm-up ops: one small op of each job kind)."""
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"))


def _check_tiling_op(n, lo, hi, samples, seed):
    argv = ["check-tiling", "-n", str(n), f"--box={lo},{hi}",
            "--samples", str(samples), "--seed", str(seed),
            "--workers", "1", "--json"]
    return {"kind": "check-tiling", "argv": argv, "n": n, "lo": lo, "hi": hi,
            "samples": samples, "seed": seed}


def _tessellate_op(n, radius, fmt):
    argv = ["tessellate", "-n", str(n), "--radius", str(radius), "--format", fmt]
    return {"kind": f"tessellate-{fmt}", "argv": argv, "n": n, "radius": radius}


def _gen_tiling(rng):
    ops = []
    # Sample counts shrink as n and the box grow, so the n = 4 box match,
    # not sampling, sets the tail.  They are fixed per stratum: the seed
    # moves the box (negative lo included) and the sampling seed only.
    samples = {(2, 4): 2000, (2, 5): 1750, (2, 6): 1500, (2, 7): 1250, (2, 8): 1000,
               (3, 4): 1000, (3, 5): 875, (3, 6): 750, (3, 7): 625, (3, 8): 500,
               (4, 4): 500, (4, 6): 375, (4, 8): 250}
    for (n, width), count in samples.items():
        lo = rng.randint(-4, 2)
        ops.append(_check_tiling_op(n, lo, lo + width, count, rng.randrange(10**6)))
    for n, radius in ((2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (4, 2)):
        ops.append(_tessellate_op(n, radius, "json"))
    for n, radius in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3)):
        ops.append(_tessellate_op(n, radius, "off"))
    # 25 ops: with 10k + 5 ops per pass the median and the 90th percentile
    # each fall in the middle of one op's samples (here the n = 4, width 6
    # check), not between two ops of different cost.
    warmups = [
        _check_tiling_op(2, -1, 3, 50, rng.randrange(10**6)),
        _tessellate_op(2, 1, "json"),
        _tessellate_op(2, 1, "off"),
    ]
    return ops, warmups


def _closure_op(variant, n, gens, budget=None):
    argv = ["closure", "-n", str(n), "--gens", gens, "--json"]
    if variant == "stop-early":
        argv += ["--targets", "s,t,g", "--stop-early"]
    if budget is not None:
        argv += ["--budget", str(budget)]
    return {"kind": f"closure-{variant}", "argv": argv, "n": n, "gens": gens,
            "budget": budget}


def _relations_op(n, preset):
    return {"kind": "verify-relations", "n": n, "preset": preset,
            "argv": ["verify-relations", "-n", str(n), "--preset", preset, "--json"]}


def _identities_op(n, seed):
    return {"kind": "verify-identities", "n": n, "seed": seed,
            "argv": ["verify-identities", "-n", str(n), "--seed", str(seed), "--json"]}


def _gen_closure(rng):
    ops = [_closure_op("finite", n, "s,t") for n in (5, 6, 7)]
    ops += [_closure_op("stop-early", n, "a,b") for n in (4, 5, 6, 7)]
    # Capped closures of the infinite groups.  The seed moves each budget
    # by at most 2%; the 10^5 one is exact, so the largest visited set, and
    # with it peak memory, is the same for every seed.
    for gens, n, budget, copies in (("a,b", 3, 10_000, 1), ("s,t,g", 4, 20_000, 3),
                                    ("a,b", 5, 50_000, 1)):
        for _ in range(copies):
            ops.append(_closure_op("capped", n, gens, budget + rng.randint(0, budget // 50)))
    ops.append(_closure_op("capped", 5, "s,t,g", 100_000))
    # The identity jobs' seeds vary from job to job but not with the run
    # seed: the drawn exponents change a job's cost, and the median of the
    # pass falls among these jobs.
    for n in range(4, 9):
        for preset in ("sn", "three_gen", "two_gen"):
            ops.append(_relations_op(n, preset))
        for k in range(2 if n < 8 else 1):
            ops.append(_identities_op(n, 10 * n + k))
    # 37 ops: the median falls in the middle of one op's samples, and the
    # 90th percentile among the samples of the three 2*10^4 capped
    # closures, not between two ops of different cost.
    warmups = [
        _closure_op("finite", 4, "s,t"),
        _closure_op("stop-early", 4, "a,b"),
        _closure_op("capped", 3, "a,b", 1000),
        _relations_op(4, "two_gen"),
        _identities_op(4, 0),
    ]
    return ops, warmups


def _vec(rng, n):
    """Entries spanning several multiples of n, negatives included."""
    return [rng.randint(-3 * n, 3 * n) for _ in range(n)]


def _residue_distinct(rng, n):
    return [r + n * rng.randint(-3, 2) for r in rng.sample(range(n), n)]


def _invertible(rng, n):
    """Twisted-invertible: the displacements (v - x_v) mod n are distinct."""
    return [v - d + n * rng.randint(-3, 2)
            for v, d in zip(range(1, n + 1), rng.sample(range(n), n))]


def _colliding(rng, n):
    """Entries spanning several multiples of n, two of them equal mod n."""
    x = _residue_distinct(rng, n)
    i, j = rng.sample(range(n), 2)
    x[j] = x[i] + n * rng.randint(-2, 2)
    return x


def _perm(rng, n):
    return rng.sample(range(1, n + 1), n)


def _word(rng):
    """Four terms with exponents of sizes 1, 2, 3, 1 and one squared group."""
    terms = []
    for size in rng.sample((1, 2, 3, 1), 4):
        terms.append([rng.choice("stgab"), size * rng.choice((1, -1))])
    group = [rng.choice("stgab"), rng.choice("stgab")]
    group_exp = rng.choice((2, -2))
    pos = rng.randint(0, 4)
    text_terms = [sym if e == 1 else f"{sym}^{e}" for sym, e in terms]
    text_terms.insert(pos, f"({group[0]} {group[1]})^{group_exp}")
    inner = [[group[0], 1], [group[1], 1]]
    if group_exp < 0:
        inner = [[sym, -e] for sym, e in reversed(inner)]
    letters = terms[:pos] + inner * abs(group_exp) + terms[pos:]
    return " ".join(text_terms), letters


def _classify_point(rng, n, coeffs, variant):
    off = _lattice_offset(coeffs)
    if variant == "vertex":
        u = _perm(rng, n)
        lift = rng.randint(0, 1)
        rel = [Fraction(x + lift) for x in u]
    elif variant == "edge":
        u = _perm(rng, n)
        i = u.index(rng.randint(1, n - 1))
        j = u.index(u[i] + 1)
        v = list(u)
        v[i], v[j] = v[j], v[i]
        rel = [Fraction(a + b, 2) for a, b in zip(u, v)]
    elif variant == "interior":
        rel = [Fraction(n + 2, 2) + Fraction(rng.randint(-25, 25), 101)
               for _ in range(n)]
    else:
        rel = [Fraction(rng.randint(0, 7 * (n + 2)), 7) for _ in range(n)]
    return [_frac_text(o + x) for o, x in zip(off, rel)]


def _frac_text(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _gen_arith(rng):
    ops = []
    for _ in range(ARITH_REPEATS):
        for n in (3, 6, 8):
            ops += _arith_stratum(rng, n)
    warmups = []
    seen = set()
    for op in ops:
        key = (op["kind"], op.get("variant"))
        if key not in seen:
            seen.add(key)
            warmups.append(op)
    return ops, warmups


def _arith_stratum(rng, n):
    out = []
    for _ in range(8):
        out.append({"kind": "star_multiply", "n": n, "a": _vec(rng, n), "b": _vec(rng, n)})
        out.append({"kind": "transport_permutation", "n": n, "a": _vec(rng, n)})
        out.append({"kind": "deformed_multiply", "n": n,
                    "x": _residue_distinct(rng, n), "y": _residue_distinct(rng, n)})
        out.append({"kind": "deformed_inverse", "n": n, "x": _residue_distinct(rng, n)})
        out.append({"kind": "phi_forward", "n": n, "x": _residue_distinct(rng, n)})
        out.append({"kind": "phi_backward", "n": n,
                    "z": [rng.randint(-3, 3) for _ in range(n)], "s": _perm(rng, n)})
        out.append({"kind": "semi_multiply", "n": n,
                    "left": [[rng.randint(-3, 3) for _ in range(n)], _perm(rng, n)],
                    "right": [[rng.randint(-3, 3) for _ in range(n)], _perm(rng, n)]})
        out.append({"kind": "general_is_unit", "n": n, "x": _vec(rng, n),
                    "tau": _perm(rng, n)})
    # About a quarter of the invert and decompose inputs take the
    # rejection path, which exits early with a witness.
    for i in range(8):
        if i < 2:
            # v - a_v = 1 + x_v, so these displacements collide mod n.
            out.append({"kind": "invert", "variant": "reject", "n": n,
                        "a": [v - 1 - x for v, x in zip(range(1, n + 1), _colliding(rng, n))]})
            out.append({"kind": "decompose_point", "variant": "reject", "n": n,
                        "p": _colliding(rng, n)})
        else:
            out.append({"kind": "invert", "variant": "unit", "n": n,
                        "a": _invertible(rng, n)})
            out.append({"kind": "decompose_point", "variant": "vertex", "n": n,
                        "p": _residue_distinct(rng, n)})
    for _ in range(2):
        text, letters = _word(rng)
        out.append({"kind": "eval_word", "n": n, "text": text, "letters": letters})
    # PrismTile.classify needs the halfspace system, capped at n = 6.
    if n <= 6:
        for variant in ("vertex", "edge", "interior", "box"):
            coeffs = [rng.randint(-3, 3) for _ in range(n)]
            out.append({"kind": "classify", "variant": variant, "n": n,
                        "coeffs": coeffs,
                        "point": _classify_point(rng, n, coeffs, variant)})
    return out


_GENERATORS = {"tiling": _gen_tiling, "closure": _gen_closure, "arith": _gen_arith}


# --------------------------------------------------------------------------
# Running one op.  `prepare` turns the JSON op into a zero-argument call,
# outside the timed region; the library function is looked up on its
# module at call time so that trace wrappers, when installed, see it.

def prepare(op: dict):
    kind = op["kind"]
    if "argv" in op:
        return _prepare_cli(op["argv"])
    n = op["n"]
    t = tuple
    if kind == "star_multiply":
        action = units.cyclic_action(n)
        a, b = t(op["a"]), t(op["b"])
        return _call(lambda: twisted.star_multiply(a, b, action))
    if kind == "transport_permutation":
        action = units.cyclic_action(n)
        a = t(op["a"])
        return _call(lambda: twisted.transport_permutation(a, action))
    if kind == "invert":
        action = units.cyclic_action(n)
        a = t(op["a"])
        return _call(lambda: twisted.invert(a, action))
    if kind == "deformed_multiply":
        x, y = t(op["x"]), t(op["y"])
        return _call(lambda: units.deformed_multiply(x, y))
    if kind == "deformed_inverse":
        x = t(op["x"])
        return _call(lambda: units.deformed_inverse(x))
    if kind == "phi_forward":
        x = t(op["x"])
        return _call(lambda: semidirect.phi_forward(x))
    if kind == "phi_backward":
        g = semidirect.SemiElement(t(op["z"]), t(op["s"]))
        return _call(lambda: semidirect.phi_backward(g))
    if kind == "semi_multiply":
        left = semidirect.SemiElement(t(op["left"][0]), t(op["left"][1]))
        right = semidirect.SemiElement(t(op["right"][0]), t(op["right"][1]))
        return _call(lambda: semidirect.semi_multiply(left, right))
    if kind == "general_is_unit":
        x, tau = t(op["x"]), t(op["tau"])
        return _call(lambda: semidirect.general_is_unit(x, tau))
    if kind == "eval_word":
        text = op["text"]
        return _call(lambda: words.eval_word(words.parse_word(text), n))
    if kind == "decompose_point":
        p = t(op["p"])
        return _call(lambda: geometry.decompose_point(p))
    if kind == "classify":
        tile = geometry.PrismTile(n, t(op["coeffs"]))
        tile.offset  # lazy per-tile set-up, not part of the call
        point = t(Fraction(x) for x in op["point"])
        return _call(lambda: tile.classify(point))
    raise ValueError(f"unknown op kind {kind!r}")


def _prepare_cli(argv):
    argv = list(argv)

    def run():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            t0 = perf_counter_ns()
            rc = cli.run(argv)
            t1 = perf_counter_ns()
        return t1 - t0, ("cli", rc, out.getvalue(), err.getvalue())
    return run


def _call(fn):
    def run():
        t0 = perf_counter_ns()
        try:
            value = fn()
        except Exception as exc:  # an unexpected exception is a failed op
            t1 = perf_counter_ns()
            return t1 - t0, ("raise", exc)
        t1 = perf_counter_ns()
        return t1 - t0, ("ok", value)
    return run


# --------------------------------------------------------------------------
# Oracles.  check(op, outcome) returns None when the outcome is right and a
# short reason otherwise.

def check(op: dict, outcome) -> str | None:
    try:
        return _CHECKS[op["kind"]](op, outcome)
    except ValueError as exc:  # wrong exit code or exception, or unparsable output
        return str(exc)
    except (KeyError, IndexError, TypeError, AttributeError) as exc:
        return f"malformed outcome: {type(exc).__name__}: {exc}"


def canonical(op: dict, outcome) -> str:
    """The checked part of an outcome as text, for the output digest."""
    if outcome[0] == "cli":
        _, rc, out, _ = outcome
        if op["kind"].startswith("tessellate"):
            return f"{rc}:{out}"
        doc = json.loads(out) if out.strip() else None
        if isinstance(doc, dict):
            doc.pop("elapsed_seconds", None)
        return f"{rc}:{json.dumps(doc, sort_keys=True)}"
    tag, value = outcome
    if tag == "raise":
        return f"raise:{type(value).__name__}:{getattr(value, 'witness', value)!r}"
    return f"ok:{value!r}"


def _cli_json(outcome, want_rc=0):
    tag, rc, out, err = outcome
    if tag != "cli":
        raise ValueError("not a CLI outcome")
    if rc != want_rc:
        raise ValueError(f"exit code {rc}, expected {want_rc}: {err.strip()[:200]}")
    return json.loads(out)


def _shift(n):
    """(0, n-1, ..., 1): identity of the deformed addition."""
    return [0] + list(range(n - 1, 0, -1))


def _star(a, b):
    """Closed form of the cyclic twisted product: a_i + b_{(i - a_i) mod n}."""
    n = len(a)
    return [a[i] + b[(i - a[i]) % n] for i in range(n)]


def _images(a):
    """Transport map v -> 1 + ((v - 1 - a_v) mod n) of the cyclic action."""
    n = len(a)
    return [1 + ((v - 1 - a[v - 1]) % n) for v in range(1, n + 1)]


def _deformed(x, y):
    """Deformed addition as the shift conjugate of the twisted product."""
    s = _shift(len(x))
    xs = [a - b for a, b in zip(x, s)]
    ys = [a - b for a, b in zip(y, s)]
    return [a + b for a, b in zip(_star(xs, ys), s)]


def _residues_distinct(x):
    return len({e % len(x) for e in x}) == len(x)


def _semi_mul(left, right):
    """(z, s) . (k, r) = (z + k o s, r o s)."""
    (z, s), (k, r) = left, right
    return ([z[i] + k[s[i] - 1] for i in range(len(z))],
            [r[s[i] - 1] for i in range(len(z))])


def _semi_inv(g):
    z, s = g
    s_inv = [0] * len(s)
    for i, v in enumerate(s, start=1):
        s_inv[v - 1] = i
    return [-z[s_inv[j] - 1] for j in range(len(z))], s_inv


def _generators(n):
    ident = list(range(1, n + 1))
    zero = [0] * n
    s = (zero, [2, 1] + list(range(3, n + 1)))
    t = (zero, [n] + list(range(1, n)))
    g = (zero[:-1] + [1], ident)
    return {"s": s, "t": t, "g": g, "a": _semi_mul(g, t), "b": s}


def _lattice_offset(coeffs):
    """C . coeffs with columns e_i = (1,..,-(n-1),..,1) and a = (1,..,1)."""
    n = len(coeffs)
    if n == 1:
        return [coeffs[0]]
    return [sum(coeffs[: n - 1]) - n * coeffs[i] + coeffs[n - 1] if i < n - 1
            else sum(coeffs[: n - 1]) + coeffs[n - 1]
            for i in range(n)]


def _rado_classify(y):
    """Base-prism membership of y by majorization (Rado), not subset scans.

    Slab: L = sum(y) - n(n+1)/2 in [0, n].  Cross-section c = y - L/n
    lies in the permutohedron iff the k smallest entries of c sum to at
    least k(k+1)/2 for every k; equality anywhere is a boundary point.
    """
    n = len(y)
    L = sum(y) - Fraction(n * (n + 1), 2)
    if L < 0 or L > n:
        return "outside"
    tight = L == 0 or L == n
    c = sorted(v - L / n for v in y)
    partial = Fraction(0)
    for k in range(1, n):
        partial += c[k - 1]
        bound = k * (k + 1) // 2
        if partial < bound:
            return "outside"
        if partial == bound:
            tight = True
    return "boundary" if tight else "interior"


def _rc_count(n, lo, hi):
    """n! * prod_r c_r, c_r = integers in [lo, hi] with residue r mod n."""
    total = math.factorial(n)
    for r in range(n):
        total *= sum(1 for v in range(lo, hi + 1) if v % n == r)
    return total


def _check_tiling(op, outcome):
    doc = _cli_json(outcome)
    n, samples = op["n"], op["samples"]
    expect = {
        "n": n, "box": [op["lo"], op["hi"]], "samples": samples, "seed": op["seed"],
        "covered_count": samples, "interior_one_count": samples,
        "overlap_witnesses": [], "vertex_match": True, "vertex_mismatches": [],
        "vertex_count": _rc_count(n, op["lo"], op["hi"]), "passed": True,
    }
    for key, want in expect.items():
        if doc[key] != want:
            return f"{key} = {doc[key]!r}, expected {want!r}"
    return None


def _check_tessellate_json(op, outcome):
    doc = _cli_json(outcome)
    n, r = op["n"], op["radius"]
    if doc["n"] != n:
        return f"n = {doc['n']}"
    tiles = doc["tiles"]
    want_coeffs = set(product(range(-r, r + 1), repeat=n))
    got_coeffs = [tuple(tile["t"]) for tile in tiles]
    if len(got_coeffs) != (2 * r + 1) ** n or set(got_coeffs) != want_coeffs:
        return f"{len(tiles)} tiles, expected the (2r+1)^n = {len(want_coeffs)} patch"
    fact = math.factorial(n)
    for tile in tiles:
        verts = [tuple(v) for v in tile["vertices"]]
        if len(verts) != 2 * fact or len(set(verts)) != 2 * fact:
            return f"tile {tile['t']}: {len(verts)} vertices, expected {2 * fact} distinct"
        if not all(len(v) == n and _residues_distinct(v) for v in verts):
            return f"tile {tile['t']}: a vertex is not residue-distinct"
        sums = sorted(sum(v) for v in verts)
        if sums[0] != sums[fact - 1] or sums[fact:] != [sums[0] + n] * fact:
            return f"tile {tile['t']}: vertices are not two layers a apart"
    return None


def _check_tessellate_off(op, outcome):
    tag, rc, out, err = outcome
    if rc != 0:
        return f"exit code {rc}: {err.strip()[:200]}"
    n, r = op["n"], op["radius"]
    lines = out.splitlines()
    if lines[0] != "OFF":
        return "missing OFF header"
    nv, nf, ne = (int(x) for x in lines[1].split())
    tiles = (2 * r + 1) ** n
    want_v = tiles * 2 * math.factorial(n)
    want_f = tiles * (1 if n == 2 else 8)  # a square, or a hexagonal prism
    if (nv, nf, ne) != (want_v, want_f, 0):
        return f"header {nv} {nf} {ne}, expected {want_v} {want_f} 0"
    if len(lines) != 2 + nv + nf:
        return f"{len(lines) - 2} body lines, header says {nv + nf}"
    for line in lines[2:2 + nv]:
        coords = [int(x) for x in line.split()]
        if len(coords) != 3 or not _residues_distinct(coords[:n]) or any(coords[n:]):
            return f"bad vertex line {line!r}"
    for line in lines[2 + nv:]:
        face = [int(x) for x in line.split()]
        if face[0] != len(face) - 1 or face[0] < 3 or not all(0 <= i < nv for i in face[1:]):
            return f"bad face line {line!r}"
    return None


def _check_closure_finite(op, outcome):
    doc = _cli_json(outcome)
    fact = math.factorial(op["n"])
    expect = {"element_count": fact, "closed": True, "permutation_count": fact,
              "permutations_complete": True, "translation_rank": 0,
              "budget_exhausted": False}
    return _expect_fields(doc, expect)


def _check_closure_stop_early(op, outcome):
    doc = _cli_json(outcome)
    expect = {"targets_reached": {"s": True, "t": True, "g": True},
              "translation_rank": op["n"], "stopped_early": True,
              "budget_exhausted": False}
    return _expect_fields(doc, expect)


def _check_closure_capped(op, outcome):
    doc = _cli_json(outcome, want_rc=3)
    expect = {"element_count": op["budget"], "budget": op["budget"],
              "budget_exhausted": True, "closed": False}
    return _expect_fields(doc, expect)


def _expect_fields(doc, expect):
    for key, want in expect.items():
        if doc[key] != want:
            return f"{key} = {doc[key]!r}, expected {want!r}"
    return None


def _relation_count(n, preset):
    # sn: s^2, the braid word, (n-3) far commutations, the (s t)^(n-1) word.
    count = n
    if preset == "three_gen":
        count += (n - 2) + (n - 1)  # g against t^k s t^-k and t^l g t^-l
    return count


def _check_relations(op, outcome):
    doc = _cli_json(outcome)
    n, preset = op["n"], op["preset"]
    checks = doc["checks"]
    if doc["n"] != n or doc["preset"] != preset:
        return f"echoed n={doc['n']} preset={doc['preset']}"
    if len(checks) != _relation_count(n, preset):
        return f"{len(checks)} relations, expected {_relation_count(n, preset)}"
    if not all(c["holds"] is True for c in checks) or doc["passed"] is not True:
        return "a relation does not hold"
    return None


def _check_identities(op, outcome):
    doc = _cli_json(outcome)
    n, draws = op["n"], 4
    # swaps, t^n, three two-generator identities, prefix rewrites, and
    # per draw one commutation per l in 1..n-1 and per k in 0..n-3.
    want = (n - 1) + 1 + 3 + (n - 3) + draws * ((n - 1) + (n - 2))
    checks = doc["checks"]
    if doc["n"] != n or doc["seed"] != op["seed"]:
        return f"echoed n={doc['n']} seed={doc['seed']}"
    if len(checks) != want:
        return f"{len(checks)} identities, expected {want}"
    if not all(c["holds"] is True for c in checks) or doc["passed"] is not True:
        return "an identity does not hold"
    return None


def _value(outcome):
    tag, value = outcome
    if tag != "ok":
        raise ValueError(f"raised {type(value).__name__}: {value}")
    return value


def _check_star(op, outcome):
    got = list(_value(outcome))
    want = _star(op["a"], op["b"])
    return None if got == want else f"got {got}, expected {want}"


def _check_transport(op, outcome):
    got = _value(outcome)
    images = _images(op["a"])
    if len(set(images)) == len(images):
        return None if list(got) == images else f"got {got!r}, expected {images}"
    return _collision_reason(got, images)


def _collision_reason(w, images):
    v1, v2, image = w.v1, w.v2, w.image
    if v1 != v2 and images[v1 - 1] == images[v2 - 1] == image:
        return None
    return f"witness {v1},{v2}->{image} does not collide"


def _check_invert(op, outcome):
    a = op["a"]
    images = _images(a)
    if len(set(images)) != len(images):
        tag, exc = outcome
        if tag != "raise" or type(exc).__name__ != "NotInvertibleError":
            return f"expected NotInvertibleError, got {tag} {exc!r}"
        return _collision_reason(exc.witness, images)
    inv = list(_value(outcome))
    zero = [0] * len(a)
    if _star(a, inv) != zero or _star(inv, a) != zero:
        return f"{inv} is not a two-sided inverse of {a}"
    return None


def _check_deformed_multiply(op, outcome):
    got = list(_value(outcome))
    want = _deformed(op["x"], op["y"])
    return None if got == want else f"got {got}, expected {want}"


def _check_deformed_inverse(op, outcome):
    x = op["x"]
    inv = list(_value(outcome))
    s = _shift(len(x))
    if _deformed(x, inv) != s or _deformed(inv, x) != s:
        return f"{inv} is not a two-sided deformed inverse of {x}"
    return None


def _phi_closed_form(x):
    n = len(x)
    return [e // n for e in x], [1 + ((-e) % n) for e in x]


def _phi_back_closed_form(z, s):
    n = len(z)
    return [n * z[i] + ((1 - s[i]) % n) for i in range(n)]


def _check_phi_forward(op, outcome):
    got = _value(outcome)
    z, s = list(got.z), list(got.s)
    if (z, s) != _phi_closed_form(op["x"]) or _phi_back_closed_form(z, s) != op["x"]:
        return f"phi_forward gave z={z} s={s}"
    return None


def _check_phi_backward(op, outcome):
    got = list(_value(outcome))
    if got != _phi_back_closed_form(op["z"], op["s"]):
        return f"phi_backward gave {got}"
    if _phi_closed_form(got) != (op["z"], op["s"]):
        return f"phi_backward {got} does not round-trip"
    return None


def _check_semi_multiply(op, outcome):
    got = _value(outcome)
    want = _semi_mul(op["left"], op["right"])
    return None if (list(got.z), list(got.s)) == want else f"got {got!r}, expected {want}"


def _tau_power(tau, v, k):
    """tau^k(v) by walking v's cycle; tau^len fixes v."""
    cycle = [v]
    while tau[cycle[-1] - 1] != v:
        cycle.append(tau[cycle[-1] - 1])
    return cycle[k % len(cycle)]


def _check_general_is_unit(op, outcome):
    got = _value(outcome)
    x, tau = op["x"], op["tau"]
    images = [_tau_power(tau, v, x[v - 1]) for v in range(1, len(x) + 1)]
    want = len(set(images)) == len(images)
    return None if got is want else f"got {got!r}, expected {want}"


def _check_eval_word(op, outcome):
    got = _value(outcome)
    n = op["n"]
    gens = _generators(n)
    acc = ([0] * n, list(range(1, n + 1)))
    for sym, exp in op["letters"]:
        g = gens[sym] if exp > 0 else _semi_inv(gens[sym])
        for _ in range(abs(exp)):
            acc = _semi_mul(acc, g)
    return None if (list(got.z), list(got.s)) == acc else f"got {got!r}, expected {acc}"


def _check_decompose(op, outcome):
    got = _value(outcome)
    p = op["p"]
    n = len(p)
    if not _residues_distinct(p):
        v1, v2, res = got.v1, got.v2, got.residue
        if v1 != v2 and p[v1 - 1] % n == p[v2 - 1] % n == res:
            return None
        return f"witness {v1},{v2} residue {res} does not collide"
    t, u = list(got.t), list(got.u)
    if sorted(u) != list(range(1, n + 1)):
        return f"u = {u} is not a permutation"
    if [a + b for a, b in zip(_lattice_offset(t), u)] != p:
        return f"C t + u != p for t={t} u={u}"
    return None


def _check_classify(op, outcome):
    got = _value(outcome)
    off = _lattice_offset(op["coeffs"])
    y = [Fraction(x) - o for x, o in zip(op["point"], off)]
    want = _rado_classify(y)
    return None if got == want else f"got {got!r}, expected {want!r}"


_CHECKS = {
    "check-tiling": _check_tiling,
    "tessellate-json": _check_tessellate_json,
    "tessellate-off": _check_tessellate_off,
    "closure-finite": _check_closure_finite,
    "closure-stop-early": _check_closure_stop_early,
    "closure-capped": _check_closure_capped,
    "verify-relations": _check_relations,
    "verify-identities": _check_identities,
    "star_multiply": _check_star,
    "transport_permutation": _check_transport,
    "invert": _check_invert,
    "deformed_multiply": _check_deformed_multiply,
    "deformed_inverse": _check_deformed_inverse,
    "phi_forward": _check_phi_forward,
    "phi_backward": _check_phi_backward,
    "semi_multiply": _check_semi_multiply,
    "general_is_unit": _check_general_is_unit,
    "eval_word": _check_eval_word,
    "decompose_point": _check_decompose,
    "classify": _check_classify,
}


# --------------------------------------------------------------------------
# Corruptions for the oracle self-check: each returns a damaged copy of a
# real outcome that its kind's oracle must reject.

def corrupt(op: dict, outcome):
    kind = op["kind"]
    if outcome[0] == "cli":
        _, rc, out, err = outcome
        if kind == "tessellate-off":
            lines = out.splitlines()
            nv, nf, ne = lines[1].split()
            lines[1] = f"{nv} {int(nf) + 1} {ne}"
            return ("cli", rc, "\n".join(lines) + "\n", err)
        doc = json.loads(out)
        if kind == "check-tiling":
            doc["vertex_count"] += 1
        elif kind == "tessellate-json":
            doc["tiles"][0]["vertices"].pop()
        elif kind == "closure-finite":
            doc["element_count"] -= 1
        elif kind == "closure-stop-early":
            doc["targets_reached"]["g"] = False
        elif kind == "closure-capped":
            rc = 0
        elif kind in ("verify-relations", "verify-identities"):
            doc["checks"].pop()
        return ("cli", rc, json.dumps(doc), err)
    tag, value = outcome
    if tag == "raise":
        w = value.witness
        return ("raise", type(value)(type(w)(w.v1, w.v1, w.image)))
    if kind == "general_is_unit":
        return ("ok", not value)
    if kind == "classify":
        return ("ok", "outside" if value != "outside" else "interior")
    if kind in ("semi_multiply", "eval_word", "phi_forward"):
        return ("ok", type(value)(_bump(value.z), value.s))
    if kind == "decompose_point":
        if hasattr(value, "residue"):
            return ("ok", type(value)(value.v1, value.v1, value.residue))
        return ("ok", type(value)(_bump(value.t), value.u))
    if kind == "transport_permutation" and hasattr(value, "image"):
        return ("ok", type(value)(value.v1, value.v1, value.image))
    return ("ok", _bump(value))


def _bump(vec):
    return (vec[0] + 1, *vec[1:])
