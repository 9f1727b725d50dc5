"""Command-line interface.

Exit codes: 0 success / predicate holds; 1 mathematical failure
(non-invertible input, false predicate, failed verification); 2 usage
error, including a file that cannot be written; 3 resource budget
exceeded.

Vectors are comma-separated integers ("3,-1,2", or "-2,5" with a leading
minus); permutations are comma-separated images ("2,3,1" sends 1 to 2,
2 to 3, 3 to 1).
Computation commands print bare values and carry no timing, so their
output is byte-stable; verification commands print a report and include
elapsed time.

With --json a command prints one payload through one writer,
`_json_text`, whose text is what `json.dumps(payload, indent=2)` writes.
A Fraction in a payload is written as its int when it is integral and as
its "p/q" string otherwise.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
import time
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from . import geometry, limits, semidirect, twisted, units, words


def _parse_vec(text: str) -> twisted.Vec:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"not a comma-separated integer vector: {text!r}")


def _parse_perm(text: str) -> tuple[int, ...]:
    return twisted.check_permutation(_parse_vec(text))


def _format_vec(v) -> str:
    return ",".join(str(x) for x in v)


# JSON text of each scalar type a payload holds
_SCALAR_JSON = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: {False: "false", True: "true"}.__getitem__,
    float: json.dumps,
    type(None): json.dumps,
    Fraction: lambda f: (repr(f.numerator) if f.denominator == 1
                         else encode_basestring_ascii(str(f))),
}


def _emit_json(payload) -> None:
    print(_json_text(payload))


def _json_text(value, indent: str = "") -> str:
    """`json.dumps(value, indent=2)` text of `value` nested at `indent`.

    A scalar is written by `_SCALAR_JSON`, a dict by filling the template
    of its keys, and a list or tuple one item a line.  Keys must be str;
    a value of any other type raises TypeError.
    """
    write = _SCALAR_JSON.get(type(value))
    if write is not None:
        return write(value)
    inner = indent + "  "
    if type(value) is dict:
        return _object_template(tuple(value), indent) % tuple(
            [_json_text(item, inner) for item in value.values()])
    if type(value) is list or type(value) is tuple:
        if not value:
            return "[]"
        items = (",\n" + inner).join([_json_text(item, inner) for item in value])
        return f"[\n{inner}{items}\n{indent}]"
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


@functools.lru_cache(maxsize=256)
def _object_template(keys: tuple, indent: str) -> str:
    """%-template of an `indent=2` object at `indent`, one %s a value."""
    if not keys:
        return "{}"
    fields = ",".join(
        f"\n{indent}  {encode_basestring_ascii(key).replace('%', '%%')}: %s"
        for key in keys)
    return f"{{{fields}\n{indent}}}"


def _action_from_args(args) -> twisted.Action:
    if getattr(args, "tau", None):
        return twisted.Action.from_permutation(_parse_perm(args.tau))
    return units.cyclic_action(len(_parse_vec(args.x)))


def _cmd_mul(args) -> int:
    x, y = _parse_vec(args.x), _parse_vec(args.y)
    action = _action_from_args(args)
    print(_format_vec(twisted.star_multiply(x, y, action)))
    return 0


def _cmd_inv(args) -> int:
    x = _parse_vec(args.x)
    action = _action_from_args(args)
    print(_format_vec(twisted.invert(x, action)))
    return 0


def _cmd_is_unit(args) -> int:
    x = _parse_vec(args.x)
    ok = semidirect.general_is_unit(x, _action_from_args(args).tau)
    print("true" if ok else "false")
    return 0 if ok else 1


def _cmd_deformed_mul(args) -> int:
    x, y = _parse_vec(args.x), _parse_vec(args.y)
    for name, v in (("left", x), ("right", y)):
        if not units.is_residue_distinct(v):
            print(f"error: {name} operand is not residue-distinct: {_format_vec(v)}",
                  file=sys.stderr)
            return 1
    print(_format_vec(units.deformed_multiply(x, y)))
    return 0


def _cmd_iso(args) -> int:
    x = _parse_vec(args.x)
    if not units.is_residue_distinct(x):
        print(f"error: not residue-distinct: {_format_vec(x)}", file=sys.stderr)
        return 1
    elem = semidirect.phi_forward(x)
    print(f"z={_format_vec(elem.z)} s={_format_vec(elem.s)}")
    return 0


def _cmd_iso_back(args) -> int:
    z = _parse_vec(args.z)
    s = _parse_perm(args.s)
    print(_format_vec(semidirect.phi_backward(semidirect.SemiElement(z, s))))
    return 0


def _cmd_cycles(args) -> int:
    cycles = twisted.ordered_cycles(_parse_vec(args.perm))
    print("".join("(" + " ".join(str(w) for w in c) + ")" for c in cycles))
    return 0


def _cmd_decompose(args) -> int:
    p = _parse_vec(args.point)
    result = geometry.decompose_point(p)
    if isinstance(result, geometry.NotAVertex):
        print(f"error: not a tile vertex: positions {result.v1} and {result.v2} "
              f"share residue {result.residue}", file=sys.stderr)
        return 1
    print(f"t={_format_vec(result.t)} u={_format_vec(result.u)}")
    return 0


def _cmd_enumerate(args) -> int:
    for v in units.enumerate_residue_classes(args.n):
        print(_format_vec(v))
    return 0


def _print_checks(args, head: dict, rows, start: float) -> int:
    """Print a verification report from one (json row, text row) per check."""
    elapsed = time.perf_counter() - start
    holds = [row["holds"] for row, _ in rows]
    if args.json:
        _emit_json({**head, "checks": [row for row, _ in rows],
                    "passed": all(holds), "elapsed_seconds": round(elapsed, 6)})
    else:
        for ok, (_, text) in zip(holds, rows):
            print(f"{'ok  ' if ok else 'FAIL'} {text}")
        print(f"passed: {sum(holds)}/{len(holds)} ({elapsed:.3f}s)")
    return 0 if all(holds) else 1


def _cmd_verify_relations(args) -> int:
    start = time.perf_counter()
    report = words.verify_relations(words.relation_preset(args.n, args.preset))
    rows = [({"label": c.label, "holds": c.holds}, c.label) for c in report.checks]
    return _print_checks(args, {"n": report.n, "preset": report.preset}, rows, start)


def _cmd_verify_identities(args) -> int:
    start = time.perf_counter()
    report = words.verify_derived_identities(args.n, seed=args.seed, draws=args.draws)
    rows = [({"name": c.name, "instance": c.instance, "holds": c.holds},
             f"{c.name}: {c.instance}") for c in report.checks]
    return _print_checks(args, {"n": report.n, "seed": args.seed}, rows, start)


def _names_in(text: str, gens: dict, what: str) -> list[str]:
    """The comma-separated names in `text`, each one a key of `gens`."""
    names = [name.strip() for name in text.split(",") if name.strip()]
    unknown = [name for name in names if name not in gens]
    if unknown:
        raise ValueError(f"unknown {what} names {unknown}; choose from {sorted(gens)}")
    return names


def _cmd_closure(args) -> int:
    start = time.perf_counter()
    gens = words.standard_generators(args.n)
    names = _names_in(args.gens, gens, "generator")
    images = [gens[name] for name in names]
    targets = None
    if args.targets:
        targets = {name: gens[name] for name in _names_in(args.targets, gens, "target")}
    report = words.generated_closure(
        images, budget=args.budget, targets=targets, stop_early=args.stop_early)
    elapsed = time.perf_counter() - start
    if args.json:
        payload = {
            "n": report.n,
            "generators": names,
            "element_count": report.element_count,
            "closed": report.closed,
            "budget": report.budget,
            "budget_exhausted": report.budget_exhausted,
            "stopped_early": report.stopped_early,
            "permutation_count": report.permutation_count,
            "permutations_complete": report.permutations_complete,
            "translation_count": report.translation_count,
            "translation_rank": report.translation_rank,
            "translations_span_lattice": report.translations_span_lattice,
            "targets_reached": report.targets_reached,
            "elapsed_seconds": round(elapsed, 6),
        }
        _emit_json(payload)
    else:
        print(f"elements: {report.element_count}")
        print(f"closed: {report.closed}")
        print(f"permutations: {report.permutation_count} "
              f"(complete: {report.permutations_complete})")
        print(f"translations: {report.translation_count} "
              f"rank {report.translation_rank} "
              f"(span lattice: {report.translations_span_lattice})")
        for name, reached in report.targets_reached.items():
            print(f"target {name}: {'reached' if reached else 'not reached'}")
        print(f"elapsed: {elapsed:.3f}s")
    if report.budget_exhausted:
        return 3
    if targets is not None:
        return 0 if all(report.targets_reached.values()) else 1
    return 0 if report.closed else 1


def _cmd_tessellate(args) -> int:
    tiles = geometry.generate_patch(args.n, args.radius)
    chunks = geometry.export_mesh(tiles, args.format)
    if args.out is None:
        sys.stdout.writelines(chunks)
    else:
        with open(args.out, "w") as handle:
            handle.writelines(chunks)
        print(f"wrote {len(tiles)} tiles to {args.out}")
    return 0


def _cmd_check_tiling(args) -> int:
    start = time.perf_counter()
    lo_hi = _parse_vec(args.box)
    if len(lo_hi) != 2:
        raise ValueError(f"--box needs LO,HI, got {args.box!r}")
    report = geometry.check_tiling(
        args.n, (lo_hi[0], lo_hi[1]), samples=args.samples,
        seed=args.seed, workers=args.workers)
    elapsed = time.perf_counter() - start
    if args.json:
        payload = {
            "n": report.n,
            "box": report.box,
            "samples": report.samples,
            "seed": report.seed,
            "denominator": report.denominator,
            "covered_count": report.covered_count,
            "covered_fraction": report.covered_fraction,
            "interior_one_count": report.interior_one_count,
            "interior_one_fraction": report.interior_one_fraction,
            "resample_count": report.resample_count,
            "overlap_witnesses": report.overlap_witnesses,
            "vertex_match": report.vertex_match,
            "vertex_count": report.vertex_count,
            "vertex_mismatches": report.vertex_mismatches,
            "tile_count_scanned": report.tile_count_scanned,
            "passed": report.passed,
            "elapsed_seconds": round(elapsed, 6),
        }
        _emit_json(payload)
    else:
        print(f"covered: {report.covered_count}/{report.samples}")
        print(f"interior multiplicity 1: {report.interior_one_count}/{report.samples}")
        print(f"overlaps: {len(report.overlap_witnesses)}")
        for point, tiles in report.overlap_witnesses[:4]:
            print(f"  OVERLAP at ({', '.join(str(x) for x in point)}) "
                  f"in tiles {list(tiles)}")
        print(f"resamples: {report.resample_count}")
        print(f"vertex sets match: {report.vertex_match} "
              f"({report.vertex_count} vertices in box)")
        for v in report.vertex_mismatches[:4]:
            print(f"  MISMATCH vertex {_format_vec(v)}")
        print(f"result: {'PASS' if report.passed else 'FAIL'} ({elapsed:.3f}s)")
    return 0 if report.passed else 1


def _cmd_product_tile(args) -> int:
    tile = geometry.product_tile_vertices(_parse_perm(args.perm))
    if args.json:
        payload = {
            "tau": tile.tau,
            "cycles": tile.cycles,
            "shape": tile.description,
            "vertex_count": len(tile.vertices),
            "vertices": tile.vertices,
        }
        _emit_json(payload)
    else:
        print(f"shape: {tile.description}")
        print(f"vertices: {len(tile.vertices)}")
        for v in tile.vertices:
            print(_format_vec(v))
    return 0


class _Parser(argparse.ArgumentParser):
    """Reads an argument such as "-2,5" as a vector, not as an option.

    By default argparse reads only plain negative numbers ("-2") as
    values and any other argument that starts with "-" as an option.
    The pattern it tests them with is the private attribute set here;
    subcommand parsers inherit this class.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d+(,-?\d+)*$")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="latticetwist",
        description="Deformed addition on integer vectors: twisted products, "
                    "units, the semidirect-product picture, generator "
                    "relations, and the matching permutohedral-prism tiling.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        return p

    p = add("mul", _cmd_mul, "twisted product of two integer vectors")
    p.add_argument("x")
    p.add_argument("y")
    p.add_argument("--tau", help="permutation defining the action (default: cyclic)")

    p = add("inv", _cmd_inv, "twisted inverse of an invertible vector")
    p.add_argument("x")
    p.add_argument("--tau")

    p = add("is-unit", _cmd_is_unit, "test invertibility (exit 1 when false)")
    p.add_argument("x")
    p.add_argument("--tau")

    p = add("deformed-mul", _cmd_deformed_mul,
            "deformed product of two residue-distinct vectors")
    p.add_argument("x")
    p.add_argument("y")

    p = add("iso", _cmd_iso, "map a residue-distinct vector to (z, s)")
    p.add_argument("x")

    p = add("iso-back", _cmd_iso_back, "map (z, s) back to a vector")
    p.add_argument("z")
    p.add_argument("s")

    p = add("cycles", _cmd_cycles, "cycle decomposition of a permutation")
    p.add_argument("perm")

    p = add("decompose", _cmd_decompose,
            "split a tile vertex into lattice coefficients and a permutation")
    p.add_argument("point")

    p = add("enumerate", _cmd_enumerate,
            "list the residue classes of units, one representative per line")
    p.add_argument("-n", type=int, required=True)

    p = add("verify-relations", _cmd_verify_relations,
            "evaluate a relation preset on the standard generators")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--preset", required=True,
                   help="sn, three_gen, or two_gen")
    p.add_argument("--json", action="store_true")

    p = add("verify-identities", _cmd_verify_identities,
            "evaluate derived word identities, with randomized exponents")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--draws", type=int, default=4)
    p.add_argument("--json", action="store_true")

    p = add("closure", _cmd_closure,
            "breadth-first closure of named generators (exit 3 on budget)")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--gens", required=True, help="comma list from s,t,g,a,b")
    p.add_argument("--budget", type=int)
    p.add_argument("--targets", help="comma list of names that must be reached")
    p.add_argument("--stop-early", action="store_true")
    p.add_argument("--json", action="store_true")

    p = add("tessellate", _cmd_tessellate,
            "export a patch of prism tiles as json or off")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--radius", type=int, default=1)
    p.add_argument("--format", choices=("json", "off"), default="json")
    p.add_argument("--out", help="output path (default: stdout)")

    p = add("check-tiling", _cmd_check_tiling,
            "sample a box for cover/overlap and match the vertex set")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--box", required=True, help="LO,HI bounds of the cube")
    p.add_argument("--samples", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--json", action="store_true")

    p = add("product-tile", _cmd_product_tile,
            "vertex model of the unit set for an arbitrary permutation")
    p.add_argument("perm")
    p.add_argument("--json", action="store_true")

    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    # Parsing leaves no state in the parser, so one serves every run() call.
    return build_parser()


def run(argv=None) -> int:
    try:
        args = _shared_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except twisted.NotInvertibleError as exc:
        w = exc.witness
        print(f"error: not invertible: inputs {w.v1} and {w.v2} both land on "
              f"{w.image}", file=sys.stderr)
        return 1
    except limits.BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
