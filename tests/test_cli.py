"""In-process CLI checks: output formats, exit codes, stability."""

import concurrent.futures
import dataclasses
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import latticetwist
from latticetwist import cli, geometry, limits, words
from latticetwist.cli import run
from latticetwist.geometry import decompose_point
from latticetwist.twisted import star_multiply
from latticetwist.units import cyclic_action


def invoke(capsys, *args):
    code = run(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _jsonable(obj):
    """Oracle for the CLI's JSON output: a recursive walker that turns
    dataclasses, dicts, lists, tuples and Fractions into JSON values."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _jsonable(dataclasses.asdict(obj))
    if isinstance(obj, Fraction):
        return int(obj) if obj.denominator == 1 else f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(x) for x in obj]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    return str(obj)


def record_payloads(monkeypatch):
    """Keep every payload the CLI prints as JSON, in order."""
    payloads = []
    emit = cli._emit_json

    def recording(payload):
        payloads.append(payload)
        emit(payload)

    monkeypatch.setattr(cli, "_emit_json", recording)
    return payloads


def _child_env():
    """The environment of a CLI child process that imports this package."""
    src = os.path.dirname(os.path.dirname(latticetwist.__file__))
    return {**os.environ, "PYTHONPATH": src}


def mask_elapsed(out):
    out = re.sub(r'"elapsed_seconds": [^\n]*', '"elapsed_seconds": 0', out)
    return re.sub(r"\(\d+\.\d{3}s\)$", "(0.000s)", out, flags=re.M)


class TestComputeCommands:
    def test_mul(self, capsys):
        code, out, err = invoke(capsys, "mul", "1,2,0", "0,1,3")
        assert (code, out, err) == (0, "4,5,3\n", "")

    def test_mul_with_action(self, capsys):
        code, out, _ = invoke(capsys, "mul", "1,0,2,1", "2,0,1,3",
                              "--tau", "2,1,4,3")
        assert code == 0
        assert out == "1,0,3,2\n"

    def test_mul_is_byte_stable(self, capsys):
        first = invoke(capsys, "mul", "1,2,0", "0,1,3")
        second = invoke(capsys, "mul", "1,2,0", "0,1,3")
        assert first == second

    def test_inv(self, capsys):
        code, out, err = invoke(capsys, "inv", "1,0,2")
        assert (code, out, err) == (0, "-2,0,-1\n", "")

    def test_inv_failure_carries_witness(self, capsys):
        code, out, err = invoke(capsys, "inv", "1,1,0")
        assert code == 1
        assert out == ""
        assert "1" in err and "3" in err

    def test_is_unit_exit_codes(self, capsys):
        assert invoke(capsys, "is-unit", "1,0,2")[:2] == (0, "true\n")
        assert invoke(capsys, "is-unit", "1,1,0")[:2] == (1, "false\n")

    def test_is_unit_general_action(self, capsys):
        code, out, _ = invoke(capsys, "is-unit", "1,2,1,2", "--tau", "2,1,4,3")
        assert (code, out) == (1, "false\n")

    def test_deformed_mul(self, capsys):
        code, out, _ = invoke(capsys, "deformed-mul", "3,5,4", "1,0,2")
        assert (code, out) == (0, "4,3,5\n")

    def test_deformed_mul_rejects_collision(self, capsys):
        code, out, err = invoke(capsys, "deformed-mul", "2,2,1", "0,2,1")
        assert code == 1
        assert "residue-distinct" in err

    def test_iso_roundtrip(self, capsys):
        code, out, _ = invoke(capsys, "iso", "3,5,4")
        assert (code, out) == (0, "z=1,1,1 s=1,2,3\n")
        code, out, _ = invoke(capsys, "iso-back", "1,1,1", "1,2,3")
        assert (code, out) == (0, "3,5,4\n")

    def test_iso_is_byte_stable(self, capsys):
        assert invoke(capsys, "iso", "3,5,4") == invoke(capsys, "iso", "3,5,4")

    def test_cycles(self, capsys):
        code, out, _ = invoke(capsys, "cycles", "2,1,4,3")
        assert (code, out) == (0, "(1 2)(3 4)\n")

    def test_decompose(self, capsys):
        code, out, _ = invoke(capsys, "decompose", "3,5,4")
        assert (code, out) == (0, "t=1,0,2 u=3,2,1\n")

    def test_decompose_rejects_collision(self, capsys):
        code, _, err = invoke(capsys, "decompose", "2,2,1")
        assert code == 1
        assert "residue" in err

    def test_vectors_with_leading_minus(self, capsys):
        code, out, err = invoke(capsys, "decompose", "-1,0,4")
        t, u = decompose_point((-1, 0, 4))
        assert (code, out, err) == (0, f"t={','.join(map(str, t))} "
                                       f"u={','.join(map(str, u))}\n", "")
        code, out, _ = invoke(capsys, "mul", "-1,2,0", "0,-1,3")
        expect = star_multiply((-1, 2, 0), (0, -1, 3), cyclic_action(3))
        assert (code, out) == (0, ",".join(map(str, expect)) + "\n")

    def test_enumerate(self, capsys):
        code, out, _ = invoke(capsys, "enumerate", "-n", "3")
        lines = out.strip().split("\n")
        assert code == 0
        assert len(lines) == 6
        assert lines[0] == "0,1,2"


class TestReports:
    def test_verify_relations_text(self, capsys):
        code, out, _ = invoke(capsys, "verify-relations", "-n", "4",
                              "--preset", "two_gen")
        assert code == 0
        assert out.count("ok  ") == 4
        assert "passed: 4/4" in out

    def test_verify_relations_json(self, capsys):
        code, out, _ = invoke(capsys, "verify-relations", "-n", "5",
                              "--preset", "sn", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert len(doc["checks"]) == 5

    def test_verify_identities(self, capsys):
        code, out, _ = invoke(capsys, "verify-identities", "-n", "4", "--json")
        doc = json.loads(out)
        assert code == 0
        assert doc["passed"] is True
        assert len(doc["checks"]) == 28

    def test_closure_with_targets(self, capsys):
        code, out, _ = invoke(capsys, "closure", "-n", "3", "--gens", "a,b",
                              "--targets", "s,t,g", "--stop-early", "--json")
        doc = json.loads(out)
        assert code == 0
        assert doc["targets_reached"] == {"s": True, "t": True, "g": True}
        assert doc["translations_span_lattice"] is True

    def test_closure_budget_exit(self, capsys):
        code, _, _ = invoke(capsys, "closure", "-n", "3", "--gens", "a,b",
                            "--budget", "20")
        assert code == 3

    def test_check_tiling(self, capsys):
        code, out, _ = invoke(capsys, "check-tiling", "-n", "2",
                              "--box", "0,4", "--samples", "150", "--json")
        doc = json.loads(out)
        assert code == 0
        assert doc["passed"] is True
        assert doc["covered_count"] == 150
        assert doc["covered_fraction"] == 1

    def test_check_tiling_deterministic_fields(self, capsys):
        _, out1, _ = invoke(capsys, "check-tiling", "-n", "2", "--box", "0,4",
                            "--samples", "100", "--seed", "4", "--json")
        _, out2, _ = invoke(capsys, "check-tiling", "-n", "2", "--box", "0,4",
                            "--samples", "100", "--seed", "4", "--json")
        a, b = json.loads(out1), json.loads(out2)
        a.pop("elapsed_seconds")
        b.pop("elapsed_seconds")
        assert a == b

    def test_check_tiling_box_with_leading_minus(self, capsys):
        args = ("check-tiling", "-n", "3", "--samples", "60", "--json")
        code, out, err = invoke(capsys, *args, "--box", "-2,5")
        assert (code, err) == (0, "")
        _, out_eq, _ = invoke(capsys, *args, "--box=-2,5")
        a, b = json.loads(out), json.loads(out_eq)
        a.pop("elapsed_seconds")
        b.pop("elapsed_seconds")
        assert a == b
        assert a["box"] == [-2, 5]

    def test_product_tile(self, capsys):
        code, out, _ = invoke(capsys, "product-tile", "2,1,4,3", "--json")
        doc = json.loads(out)
        assert code == 0
        assert doc["vertex_count"] == 16
        assert doc["shape"] == "P1 x P1 x I^2"


# Every verify report of the ranges `cli_contract.REPORTS` runs, and the
# sha256 of their --json payloads without `elapsed_seconds`, one sorted-key
# line each.
GOLDEN_VERIFY_ARGV = (
    [("verify-relations", "-n", str(n), "--preset", "two_gen") for n in range(2, 9)]
    + [("verify-relations", "-n", str(n), "--preset", preset)
       for preset in ("sn", "three_gen") for n in range(4, 9)]
    + [("verify-identities", "-n", str(n), "--seed", str(seed))
       for n in range(2, 9) for seed in range(3)])
GOLDEN_VERIFY_SHA256 = "96dd8fec118e1e6829a94d73233d944157a893e851344f83ae4e10884268e79e"


class TestGoldenVerifyOutput:
    def test_payloads_match_the_golden_digest(self, capsys):
        digest = hashlib.sha256()
        for argv in GOLDEN_VERIFY_ARGV:
            code, out, err = invoke(capsys, *argv, "--json")
            assert (code, err) == (0, ""), argv
            doc = json.loads(out)
            assert doc["passed"] is True, argv
            doc.pop("elapsed_seconds")
            digest.update(json.dumps(doc, sort_keys=True).encode() + b"\n")
        assert len(GOLDEN_VERIFY_ARGV) == 38
        assert digest.hexdigest() == GOLDEN_VERIFY_SHA256


class TestJsonOutput:
    @pytest.mark.parametrize("argv", [
        ("verify-relations", "-n", "5", "--preset", "three_gen"),
        ("verify-identities", "-n", "5", "--seed", "3"),
        ("closure", "-n", "3", "--gens", "a,b", "--targets", "s,t,g",
         "--stop-early"),
        ("check-tiling", "-n", "3", "--box", "-1,3", "--samples", "40"),
        ("product-tile", "2,1,4,3"),
    ])
    def test_matches_the_recursive_walker(self, capsys, monkeypatch, argv):
        payloads = record_payloads(monkeypatch)
        code, out, err = invoke(capsys, *argv, "--json")
        assert (code, err) == (0, "")
        assert out == json.dumps(_jsonable(payloads[0]), indent=2) + "\n"

    def test_fractions_in_a_failing_tiling_report(self, capsys, monkeypatch):
        # by the sum of its numerators a sample lies in no tile, in one or
        # in two, so both fractions are non-integral and overlaps are listed
        monkeypatch.setattr(
            geometry, "_count_containing",
            lambda P, den, n: [[], [(0, 1)], [(0, 1), (1, 1)]][sum(P) % 3])
        payloads = record_payloads(monkeypatch)
        code, out, err = invoke(capsys, "check-tiling", "-n", "2", "--box",
                                "0,4", "--samples", "30", "--json")
        assert (code, err) == (1, "")
        payload = payloads[0]
        assert out == json.dumps(_jsonable(payload), indent=2) + "\n"
        covered = payload["covered_fraction"]
        assert isinstance(covered, Fraction) and covered.denominator > 1
        doc = json.loads(out)
        assert doc["covered_fraction"] == str(covered)
        points = [x for point, _ in doc["overlap_witnesses"] for x in point]
        assert any(isinstance(x, str) and "/" in x for x in points)
        assert doc["passed"] is False


# Strings with quotes, backslashes, control characters, non-ASCII text,
# template syntax and empty strings, beside arbitrary text.
_TEXTS = st.one_of(
    st.text(),
    st.sampled_from(['"', "\\", "\x00\x1f\n\t\x7f", "é ☃ 𝔄_n", "", "%s %% %(x)s",
                     '"holds": true', "\ud800"]))
_SCALARS = st.one_of(_TEXTS, st.booleans(), st.integers(), st.none(),
                     st.sampled_from([0.0, 1e-06, -0.5, 1e300, 0.1]))


@st.composite
def verify_payloads(draw):
    """Payloads of the verify shape: head keys, rows that share their keys,
    "passed" and "elapsed_seconds"."""
    head = {"n": draw(st.integers(2, 80))}
    if draw(st.booleans()):
        head["preset"] = draw(_TEXTS)
    else:
        head["seed"] = draw(st.integers())
    keys = draw(st.one_of(
        st.sampled_from([("label", "holds"), ("name", "instance", "holds"), ()]),
        st.lists(_TEXTS, unique=True, max_size=4)))
    rows = draw(st.lists(st.tuples(*[_SCALARS] * len(keys)).map(
        lambda values: dict(zip(keys, values))), max_size=6))
    elapsed = draw(st.one_of(st.sampled_from([0.0, 1e-06]),
                             st.floats(0, 10).map(lambda x: round(x, 6))))
    return {**head, "checks": rows, "passed": draw(st.booleans()),
            "elapsed_seconds": elapsed}


def _fraction_rule(obj):
    """`json.dumps` default of the CLI's rule: an integral Fraction is its
    int, any other its "p/q" string."""
    if isinstance(obj, Fraction):
        return obj.numerator if obj.denominator == 1 else str(obj)
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


# Scalars of every type a payload may hold, and payloads of str-keyed
# dicts, lists and tuples nested up to three deep around them.
_LEAVES = st.one_of(
    _SCALARS, st.integers(-10**80, 10**80), st.fractions(),
    st.integers(-10**30, 10**30).map(Fraction))


def _nested(depth):
    if depth == 0:
        return _LEAVES
    inner = _nested(depth - 1)
    return st.one_of(_LEAVES, st.lists(inner, max_size=4),
                     st.lists(inner, max_size=4).map(tuple),
                     st.dictionaries(_TEXTS, inner, max_size=4))


def emitted(payload):
    out = io.StringIO()
    with redirect_stdout(out):
        cli._emit_json(payload)
    return out.getvalue()


class TestVerifyJsonTemplate:
    @settings(max_examples=300)
    @given(verify_payloads())
    @example({"n": 4, "seed": -1, "checks": [
        {"%s": "%d", '"\\': "\x00", "é": True, "": None, "%(x)s %%": 1e-06}],
        "passed": False, "elapsed_seconds": 0.0})
    def test_matches_json_dumps(self, payload):
        assert emitted(payload) == json.dumps(
            payload, indent=2, default=_fraction_rule) + "\n"

    @given(verify_payloads(), st.data())
    def test_rows_of_other_key_orders(self, payload, data):
        for row in payload["checks"]:
            items = data.draw(st.permutations(list(row.items())))
            row.clear()
            row.update(items)
        assert emitted(payload) == json.dumps(
            payload, indent=2, default=_fraction_rule) + "\n"

    @pytest.mark.parametrize("payload", [
        {"n": 4, "checks": [{"label": "s^2", "holds": Fraction(1, 2)}]},
        {"n": 4, "checks": [{"label": ["s", 2]}], "passed": True},
        {"n": 4, "checks": [["s^2", True]]},
        {"n": 4, "checks": ({"label": "s^2"},)},
        {"n": 4, "checks": [{"cycles": ((1, 2), (3,), ())}]},
        {"box": (Fraction(-1), Fraction(5, 2)), "checks": [{"holds": None}]},
        {"checks": [], "targets": {"s": True}},
        {"checks": [{"holds": True}], "elapsed_seconds": Fraction(3, 1)},
    ])
    def test_other_payloads_take_json_dumps(self, payload):
        assert emitted(payload) == json.dumps(
            payload, indent=2, default=_fraction_rule) + "\n"


class TestJsonWriter:
    @settings(max_examples=300)
    @given(_nested(3))
    @example([])
    @example({"": [], "%s": {}, "%(x)s": ()})
    @example(({"a": [[], (), {}], "%%": [{"": ()}]}, []))
    @example({"f": [Fraction(3, 1), Fraction(-1, 3), Fraction(0)], "big": 10**40})
    def test_matches_json_dumps(self, payload):
        assert emitted(payload) == json.dumps(
            payload, indent=2, default=_fraction_rule) + "\n"

    @pytest.mark.parametrize("value", [{1, 2}, object()], ids=["set", "object"])
    def test_other_types_raise_type_error(self, value):
        message = f"{type(value).__name__} is not JSON serializable"
        with pytest.raises(TypeError, match=f"^{message}$"):
            emitted({"checks": [{"holds": value}]})


class TestFailingReports:
    def test_one_failing_relator(self, capsys, monkeypatch):
        preset = words.relation_preset

        def cubed(n, name):
            rels = tuple(
                rel if rel.label != "(b a^2 b a^-2)^2" else words.Relation(
                    "(b a^2 b a^-2)^3",
                    words.word_power(words.parse_word("b a^2 b a^-2"), 3))
                for rel in preset(n, name).relations)
            return words.RelationPreset("mutated", n, rels)

        monkeypatch.setattr(words, "relation_preset", cubed)
        argv = ("verify-relations", "-n", "4", "--preset", "two_gen")
        code, out, err = invoke(capsys, *argv)
        assert (code, err) == (1, "")
        assert mask_elapsed(out) == (
            "ok   b^2\n"
            "ok   (b a b a^-1)^3\n"
            "FAIL (b a^2 b a^-2)^3\n"
            "ok   b a^4 b a^-4\n"
            "passed: 3/4 (0.000s)\n")
        code, out, err = invoke(capsys, *argv, "--json")
        assert (code, err) == (1, "")
        labels = ["b^2", "(b a b a^-1)^3", "(b a^2 b a^-2)^3", "b a^4 b a^-4"]
        assert mask_elapsed(out) == json.dumps({
            "n": 4,
            "preset": "mutated",
            "checks": [{"label": label, "holds": label != labels[2]}
                       for label in labels],
            "passed": False,
            "elapsed_seconds": 0,
        }, indent=2) + "\n"

    def test_one_failing_identity(self, capsys, monkeypatch):
        identities = words.verify_derived_identities

        def flipped(n, seed=0, draws=4):
            report = identities(n, seed=seed, draws=draws)
            return words.IdentityReport(n, tuple(
                dataclasses.replace(c, holds=False) if c.name == "cycle_order"
                else c for c in report.checks))

        monkeypatch.setattr(words, "verify_derived_identities", flipped)
        argv = ("verify-identities", "-n", "4", "--draws", "0")
        code, out, err = invoke(capsys, *argv)
        assert (code, err) == (1, "")
        checks = [
            ("adjacent_swap_conjugate", "i=1"), ("adjacent_swap_conjugate", "i=2"),
            ("adjacent_swap_conjugate", "i=3"), ("cycle_order", "t^4"),
            ("cycle_from_two_generators", "t"),
            ("translation_from_two_generators", "g"),
            ("power_swap", "a^4 b = b a^4"), ("prefix_rewrite", "k=2"),
        ]
        assert mask_elapsed(out) == "".join(
            f"{'FAIL' if name == 'cycle_order' else 'ok  '} {name}: {instance}\n"
            for name, instance in checks) + "passed: 7/8 (0.000s)\n"
        code, out, err = invoke(capsys, *argv, "--json")
        assert (code, err) == (1, "")
        assert mask_elapsed(out) == json.dumps({
            "n": 4,
            "seed": 0,
            "checks": [{"name": name, "instance": instance,
                        "holds": name != "cycle_order"}
                       for name, instance in checks],
            "passed": False,
            "elapsed_seconds": 0,
        }, indent=2) + "\n"


class TestTessellate:
    def test_stdout_json(self, capsys):
        code, out, _ = invoke(capsys, "tessellate", "-n", "2", "--radius", "0")
        doc = json.loads(out)
        assert code == 0
        assert len(doc["tiles"]) == 1

    def test_writes_off_file(self, capsys, tmp_path):
        path = tmp_path / "patch.off"
        code, out, _ = invoke(capsys, "tessellate", "-n", "3", "--radius", "0",
                              "--format", "off", "--out", str(path))
        assert code == 0
        assert "wrote 1 tiles" in out
        assert path.read_text().startswith("OFF\n12 8 0\n")

    def test_out_file_holds_the_stdout_bytes(self, capsys, tmp_path):
        argv = ["tessellate", "-n", "3", "--radius", "2", "--format", "off"]
        code, out, _ = invoke(capsys, *argv)
        assert code == 0
        path = tmp_path / "patch.off"
        assert invoke(capsys, *argv, "--out", str(path))[0] == 0
        assert path.read_bytes() == out.encode()

    @pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss in KiB")
    def test_peak_memory_does_not_grow_with_the_patch(self):
        # 8,748 and 187,500 vertex rows: the output grows 21-fold, but
        # only one tile's text is held at a time
        def peak_mib(radius):
            code = ("import resource, sys\n"
                    "from latticetwist.cli import run\n"
                    f"rc = run(['tessellate', '-n', '3', '--radius', '{radius}',"
                    " '--format', 'off'])\n"
                    "sys.stdout.flush()\n"
                    "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,"
                    " file=sys.stderr)\n"
                    "sys.exit(rc)\n")
            proc = subprocess.run([sys.executable, "-c", code], env=_child_env(),
                                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                  text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            return int(proc.stderr) / 1024

        assert peak_mib(12) - peak_mib(4) < 24

    def test_closed_stdout_is_a_usage_error(self):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "latticetwist.cli", "tessellate", "-n", "3",
                 "--radius", "2", "--format", "off"],
                env=_child_env(), stdout=write_end, stderr=subprocess.PIPE,
                text=True, timeout=120)
        finally:
            os.close(write_end)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert "Exception ignored" not in proc.stderr

    def test_refused_export_creates_no_file(self, capsys, tmp_path):
        path = tmp_path / "patch.off"
        for argv, want in [(["-n", "4", "--format", "off"], 2),
                           (["-n", "2", "--radius", "250"], 3),
                           (["-n", "2", "--radius", "-1"], 2)]:
            code, out, err = invoke(capsys, "tessellate", *argv, "--out", str(path))
            assert (code, out) == (want, ""), argv
            assert err.startswith("error: ") and err.count("\n") == 1
            assert not path.exists(), argv

    def test_unwritable_out_path_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "missing" / "patch.off"
        code, out, err = invoke(capsys, "tessellate", "-n", "2",
                                "--out", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not path.exists()


class TestExitCodes:
    def test_usage_errors(self, capsys):
        assert invoke(capsys, "mul", "1,2", "bogus")[0] == 2
        assert invoke(capsys, "mul", "1,2")[0] == 2
        assert invoke(capsys, "unknown-command")[0] == 2
        assert invoke(capsys, "verify-relations", "-n", "4",
                      "--preset", "wat")[0] == 2
        assert invoke(capsys, "closure", "-n", "3", "--gens", "q")[0] == 2
        assert invoke(capsys, "iso-back", "1,1", "1,2,3")[0] == 2
        assert invoke(capsys, "decompose", "-x")[0] == 2
        assert invoke(capsys, "check-tiling", "-n", "3", "--box", "-2")[0] == 2

    def test_unknown_closure_names(self, capsys):
        choices = "choose from ['a', 'b', 'g', 's', 't']"
        assert invoke(capsys, "closure", "-n", "3", "--gens", "a, q,,r") == (
            2, "", f"error: unknown generator names ['q', 'r']; {choices}\n")
        assert invoke(capsys, "closure", "-n", "3", "--gens", "a,b",
                      "--targets", "s,x") == (
            2, "", f"error: unknown target names ['x']; {choices}\n")

    def test_budget_errors(self, capsys):
        assert invoke(capsys, "enumerate", "-n", "9")[0] == 3
        assert invoke(capsys, "check-tiling", "-n", "9", "--box", "0,4")[0] == 3
        assert invoke(capsys, "check-tiling", "-n", "2", "--box", "0,4", "--samples",
                      str(limits.MAX_BOX_POINTS + 1))[0] == 3
        too_many = str(limits.MAX_WORKERS + 1)
        assert invoke(capsys, "check-tiling", "-n", "2", "--box", "0,4",
                      "--workers", too_many)[0] == 3
        too_big = str(limits.MAX_VERIFY_N + 1)
        assert invoke(capsys, "verify-identities", "-n", too_big)[0] == 3
        assert invoke(capsys, "verify-identities", "-n", "4", "--draws",
                      str(limits.MAX_IDENTITY_DRAWS + 1))[0] == 3
        assert invoke(capsys, "verify-relations", "-n", too_big,
                      "--preset", "sn")[0] == 3
        assert invoke(capsys, "closure", "-n", too_big, "--gens", "s,t",
                      "--budget", "50")[0] == 3

    def test_sampler_that_cannot_avoid_facets_exits_3(self, capsys, monkeypatch):
        monkeypatch.setattr(geometry, "_count_containing",
                            lambda P, den, n: None)
        code, out, err = invoke(capsys, "check-tiling", "-n", "2", "--box",
                                "0,4", "--samples", "2")
        assert (code, out) == (3, "")
        assert err.startswith("error: sample 0:") and err.count("\n") == 1

    def test_mathematical_failures(self, capsys):
        assert invoke(capsys, "inv", "1,1,0")[0] == 1
        assert invoke(capsys, "iso", "2,2,1")[0] == 1


class TestParserReuse:
    # Flags on and off by turns, with usage errors in between: a reused
    # parser must not carry a value or an error from one call to the next.
    ARGVS = [
        ("closure", "-n", "3", "--gens", "a,b", "--targets", "s,t,g",
         "--stop-early", "--budget", "5000"),
        ("closure", "-n", "3", "--gens", "s,t"),
        ("closure", "-n", "3", "--gens", "a,b", "--budget", "20", "--json"),
        ("closure", "-n", "4", "--gens", "s,t", "--json"),
        ("closure", "-n", "3", "--gens", "a,b", "--budget", "0"),
        ("closure", "-n", "3", "--gens", "a,b", "--targets", "g",
         "--budget", "300", "--json"),
        ("mul", "1,2"),
        ("closure", "-n", "3", "--gens", "s,t", "--stop-early", "--json"),
        ("check-tiling", "-n", "2", "--box", "0,4", "--samples", "40",
         "--json"),
        ("closure", "-n", "3", "--gens", "a,b", "--bogus"),
        ("check-tiling", "-n", "2", "--box", "0,4", "--samples", "40"),
        ("check-tiling", "-n", "3", "--box=-1,2", "--samples", "30",
         "--seed", "3", "--json"),
        ("closure", "-n", "3", "--gens", "s", "--targets", "t"),
        ("check-tiling", "-n", "2", "--samples", "40"),
        ("check-tiling", "-n", "2", "--box", "0,4", "--samples", "40"),
    ]

    @staticmethod
    def _calls(capsys):
        out = []
        for argv in TestParserReuse.ARGVS:
            code = run(list(argv))
            captured = capsys.readouterr()
            out.append((code,) + tuple(
                re.sub(r'elapsed: [0-9.]+s|"elapsed_seconds": [0-9.e-]+'
                       r'|\([0-9.]+s\)', "<t>", text)
                for text in (captured.out, captured.err)))
        return out

    def test_matches_a_fresh_parser_per_call(self, capsys, monkeypatch):
        shared = self._calls(capsys)
        monkeypatch.setattr(cli, "_shared_parser", cli.build_parser)
        assert self._calls(capsys) == shared
        assert [code for code, _, _ in shared] == [
            0, 0, 3, 0, 2, 3, 2, 0, 0, 2, 0, 0, 1, 2, 0]

    def test_default_budget_is_read_at_each_call(self, capsys, monkeypatch):
        argv = ["closure", "-n", "3", "--gens", "s,t", "--json"]
        assert run(argv) == 0
        capsys.readouterr()
        monkeypatch.setattr(limits, "MAX_CLOSURE_BUDGET", 5)
        assert run(argv) == 3
        assert json.loads(capsys.readouterr().out)["budget"] == 5
        assert run(argv + ["--budget", "6"]) == 3
        assert capsys.readouterr().err == "error: budget=6 exceeds the cap 5\n"
        assert run(argv + ["--budget", "0"]) == 2

    def test_build_parser_returns_a_fresh_parser(self):
        assert cli.build_parser() is not cli.build_parser()
        assert cli._shared_parser() is cli._shared_parser()

# Small argument pools per subcommand for the argv fuzz test: every value
# keeps the work tiny or trips a cap.  "{tmp}" becomes a temporary directory.
_N = ["-1", "0", "1", "2", "3", "4", "5", "9", "81", "x"]
_VEC = ["1,0,2", "1,1,0", "3,5,4", "2,2,1", "-2,5", "0", "1,2,3,4", "", "a,b",
        "1,,2", "-x"]
_PERM = ["2,1,4,3", "3,1,2", "1", "1,1", "0,1", "2,3,4,5,6,7,1", "", "x"]
_JUNK = ["--bogus", "-", "--", "x", "-1", "1,2", "--json", "-h", "^", "(", "-n"]
_FLAG = None  # an option that takes no value

# subcommand -> (positional pools, {option: pool or _FLAG}, options always
# given: last, so that they win over anything drawn before them)
_COMMANDS = {
    "mul": ([_VEC, _VEC], {"--tau": _PERM}, []),
    "inv": ([_VEC], {"--tau": _PERM}, []),
    "is-unit": ([_VEC], {"--tau": _PERM}, []),
    "deformed-mul": ([_VEC, _VEC], {}, []),
    "iso": ([_VEC], {}, []),
    "iso-back": ([_VEC, _PERM], {}, []),
    "cycles": ([_PERM], {}, []),
    "decompose": ([_VEC], {}, []),
    "enumerate": ([], {}, [("-n", _N)]),
    "verify-relations": ([], {"--json": _FLAG}, [
        ("-n", _N), ("--preset", ["sn", "three_gen", "two_gen", "wat"])]),
    "verify-identities": ([], {
        "--seed": ["0", "7", "-1"], "--draws": ["0", "4", "17", "-1"],
        "--json": _FLAG}, [("-n", _N)]),
    "closure": ([], {
        "--targets": ["g", "s", "", "q"], "--stop-early": _FLAG, "--json": _FLAG},
        [("-n", _N), ("--gens", ["s,t", "a,b", "g", "s,t,g", "", "q"]),
         ("--budget", ["1", "50", "0", "-3"])]),
    "tessellate": ([], {
        "--radius": ["-1", "0", "1", "250000"], "--format": ["json", "off", "x"],
        "--out": ["{tmp}/m.txt", "{tmp}/missing/m.txt", "{tmp}"]},
        [("-n", _N)]),
    "check-tiling": ([], {"--seed": ["0", "5"], "--json": _FLAG}, [
        ("-n", _N),
        ("--box", ["0,4", "-2,3", "1,9", "3,3", "0", "a,b", "-100,100"]),
        ("--samples", ["0", "1", "7", "-1"]), ("--workers", ["1"])]),
    "product-tile": ([_PERM], {"--json": _FLAG}, []),
}


@st.composite
def _argv(draw):
    name = draw(st.sampled_from(sorted(_COMMANDS)))
    positional, options, given_last = _COMMANDS[name]
    argv = [name] + [draw(st.sampled_from(pool)) for pool in positional]
    chosen = draw(st.lists(st.sampled_from(sorted(options)), max_size=3)) if options else []
    for option in chosen:
        pool = options[option]
        argv += [option] if pool is _FLAG else [option, draw(st.sampled_from(pool))]
    for junk in draw(st.lists(st.sampled_from(_JUNK), max_size=1)):
        argv.insert(draw(st.integers(0, len(argv))), junk)
    for option, pool in given_last:
        argv += [option, draw(st.sampled_from(pool))]
    return argv


class TestArgvFuzz:
    @settings(max_examples=300)
    @given(_argv())
    def test_exit_code_is_always_defined(self, argv):
        pools = []

        class NoPool:
            """Stands in for ProcessPoolExecutor: records, starts nothing."""

            def __init__(self, max_workers):
                pools.append(max_workers)

        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            mp.setattr(concurrent.futures, "ProcessPoolExecutor", NoPool)
            argv = [token.replace("{tmp}", tmp) for token in argv]
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                code = run(argv)
        assert code in (0, 1, 2, 3), argv
        assert pools == [], argv
