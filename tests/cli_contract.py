"""The CLI contract of latticetwist, run through `python -m latticetwist.cli`.

This module is the contract: CI runs it only through the tier-1 suite
(tests/test_cli_contract.py), and no workflow repeats it.  Each check
runs its commands in child processes and asserts:

- `check_exit_codes`: each command of `EXIT_CODES` gives its exit code
  (0 success, 1 mathematical failure, 2 usage error, 3 budget exceeded);
- `check_reports_hold`: each verify report of `REPORTS` (every relation
  preset and derived identity for n = 2..8) exits 0 with
  `"passed": true`, and `verify-identities -n 80 --draws 16` exits 0;
- `check_json_text`: the `--json` text of each command of `JSON_REPORTS`
  equals `json.dumps(json.loads(text), indent=2)` plus a newline;
- `check_tiling_workers`: the check-tiling `--json` report with
  `--workers 1` equals the one with `--workers 2`, apart from
  `elapsed_seconds`;
- `check_tiling_one_tile`: for n = 1..8 each check-tiling report passes
  and counts every sample as covered by exactly one tile;
- `check_tessellate_out`: the file `tessellate --out` writes equals its
  stdout byte for byte;
- `check_tessellate_json_text`: as `check_json_text`, on
  `tessellate -n 4 --radius 1 --format json`;
- `check_bench_selfcheck`: `python perfbench/run.py --selfcheck`, run from
  the root of the checkout, exits 0 and its last line reads
  `selfcheck: ok`.

It needs no pytest.  From the root of a checkout,

    python -m tests.cli_contract

runs every check with that interpreter and exits 1 if any fails.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# (exit code, argv) of `check_exit_codes`
EXIT_CODES = (
    (0, ("enumerate", "-n", "3")),
    (1, ("inv", "1,1,0")),
    (2, ("enumerate", "-n", "0")),
    (3, ("enumerate", "-n", "9")),
    (0, ("verify-relations", "-n", "4", "--preset", "three_gen")),
    (2, ("verify-relations", "-n", "3", "--preset", "sn")),
    (2, ("verify-relations", "-n", "4", "--preset", "nope")),
    (3, ("verify-relations", "-n", "81", "--preset", "two_gen")),
    (0, ("check-tiling", "-n", "8", "--box=0,24", "--samples", "0")),
)

# the verify reports of `check_reports_hold`
REPORTS = tuple(
    [argv for n in range(2, 9) for argv in
     [("verify-relations", "-n", str(n), "--preset", "two_gen")]
     + [("verify-identities", "-n", str(n), "--seed", str(seed))
        for seed in range(3)]]
    + [("verify-relations", "-n", str(n), "--preset", preset)
       for n in range(4, 9) for preset in ("sn", "three_gen")])

# the commands of `check_json_text`, one of each command with --json
JSON_REPORTS = (
    ("verify-identities", "-n", "8", "--json"),
    ("verify-relations", "-n", "8", "--preset", "three_gen", "--json"),
    ("closure", "-n", "4", "--gens", "a,b", "--targets", "s,t,g", "--stop-early",
     "--json"),
    ("check-tiling", "-n", "3", "--box=-1,3", "--samples", "40", "--json"),
    ("product-tile", "2,1,4,3", "--json"),
)


def cli(argv, text=True) -> subprocess.CompletedProcess:
    """`python -m latticetwist.cli argv`, importing this checkout's src;
    with text=False its output is bytes."""
    return subprocess.run(
        [sys.executable, "-m", "latticetwist.cli", *argv],
        capture_output=True, text=text, timeout=600,
        env={**os.environ, "PYTHONPATH": SRC})


def _run_each(argvs) -> list[subprocess.CompletedProcess]:
    # two children at a time, results in the order of argvs
    with ThreadPoolExecutor(2) as pool:
        return list(pool.map(cli, argvs))


def _shown(argv) -> str:
    return "latticetwist " + " ".join(argv)


def _succeeded(argv, proc) -> None:
    assert proc.returncode == 0, (
        f"{_shown(argv)} -> exit {proc.returncode}: {proc.stderr.strip()}")


def check_exit_codes() -> str:
    for (want, argv), proc in zip(EXIT_CODES, _run_each([a for _, a in EXIT_CODES])):
        assert proc.returncode == want, (
            f"{_shown(argv)} -> exit {proc.returncode} (want {want}): "
            f"{proc.stderr.strip()}")
    return f"{len(EXIT_CODES)} commands gave their exit codes"


def check_reports_hold() -> str:
    argvs = [(*argv, "--json") for argv in REPORTS]
    argvs.append(("verify-identities", "-n", "80", "--draws", "16"))
    checks = 0
    for argv, proc in zip(argvs, _run_each(argvs)):
        _succeeded(argv, proc)
        if "--json" in argv:
            doc = json.loads(proc.stdout)
            assert doc["passed"] is True, f"{_shown(argv)}: {doc}"
            checks += len(doc["checks"])
    return f"{len(argvs)} reports passed, {checks} checks in the json ones"


def _json_text_size(argv, proc) -> int:
    """The size of the stdout of `argv`, which must be json.dumps text."""
    _succeeded(argv, proc)
    text = proc.stdout
    assert text == json.dumps(json.loads(text), indent=2) + "\n", (
        f"{_shown(argv)}: the text differs from json.dumps")
    return len(text)


def check_json_text() -> str:
    sizes = [_json_text_size(argv, proc)
             for argv, proc in zip(JSON_REPORTS, _run_each(JSON_REPORTS))]
    return f"{len(sizes)} reports, {sum(sizes)} bytes, as json.dumps writes them"


def check_tiling_workers() -> str:
    argvs = [("check-tiling", "-n", "3", "--box=-2,4", "--samples", "300",
              "--seed", "4", "--json", "--workers", workers)
             for workers in ("1", "2")]
    reports = []
    for argv, proc in zip(argvs, _run_each(argvs)):
        _succeeded(argv, proc)
        doc = json.loads(proc.stdout)
        doc.pop("elapsed_seconds")
        reports.append(doc)
    serial, pooled = reports
    assert serial == pooled, f"workers 1: {serial}\nworkers 2: {pooled}"
    return f"workers 1 and 2 gave the same {len(serial)}-key report"


def check_tiling_one_tile() -> str:
    argvs = [("check-tiling", "-n", str(n), "--box", "0,2", "--samples", "500",
              "--json") for n in range(1, 9)]
    for argv, proc in zip(argvs, _run_each(argvs)):
        _succeeded(argv, proc)
        doc = json.loads(proc.stdout)
        assert doc["passed"], f"{_shown(argv)}: {doc}"
        assert doc["covered_count"] == doc["interior_one_count"] == doc["samples"], (
            f"{_shown(argv)}: {doc}")
    return "n = 1..8 passed, each sample inside one tile"


def check_tessellate_out() -> str:
    argv = ("tessellate", "-n", "3", "--radius", "2", "--format", "off")
    with tempfile.TemporaryDirectory() as tmp:
        out_argv = (*argv, "--out", os.path.join(tmp, "out.off"))
        printed, written = cli(argv, text=False), cli(out_argv)
        _succeeded(argv, printed)
        _succeeded(out_argv, written)
        with open(out_argv[-1], "rb") as f:
            data = f.read()
    assert printed.stdout == data, (
        f"{_shown(argv)}: --out wrote other bytes than stdout")
    return f"{len(data.splitlines())} identical lines"


def check_tessellate_json_text() -> str:
    argv = ("tessellate", "-n", "4", "--radius", "1", "--format", "json")
    return f"{_json_text_size(argv, cli(argv))} bytes, as json.dumps writes them"


def check_bench_selfcheck() -> str:
    argv = (sys.executable, os.path.join("perfbench", "run.py"), "--selfcheck")
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=600, cwd=ROOT)
    lines = proc.stdout.splitlines()
    assert proc.returncode == 0, (
        f"perfbench/run.py --selfcheck -> exit {proc.returncode}: "
        f"{(lines or [''])[-1]} {proc.stderr.strip()}")
    assert lines and lines[-1] == "selfcheck: ok", f"last line: {lines[-1:]}"
    return f"{len(lines)} lines, the last 'selfcheck: ok'"


CHECKS = (check_exit_codes, check_reports_hold, check_json_text,
          check_tiling_workers, check_tiling_one_tile, check_tessellate_out,
          check_tessellate_json_text, check_bench_selfcheck)


def main() -> int:
    failed = 0
    for check in CHECKS:
        try:
            print(f"ok   {check.__name__}: {check()}")
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {check.__name__}: {exc}")
    print(f"python {sys.version.split()[0]}: {len(CHECKS) - failed}/{len(CHECKS)} checks")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
