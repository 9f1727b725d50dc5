"""Benchmark entry point: one seeded, closed-loop workload per run.

    python3 perfbench/run.py --workload tiling --seed 1 --seconds 30 --trace 0

--seconds defaults to run_seconds in BENCHMARK.json.

Run from the root of a checkout; the package is imported from ./src.
One process, one client, no threads: each op runs only after the last
one finished and was checked by its oracle.  Inputs are generated from
the seed before timing starts, and one warm-up op of each job kind runs
before the clock starts.  The loop runs whole passes over the op list
until --seconds have passed, so every run weighs the op kinds alike.

--trace 0 prints the end-to-end metrics; --trace 1 spends half the time
untraced and half with per-layer wrappers installed, and prints the
per-layer metrics.  The last stdout line is one JSON object with the
keys correct, attempted, failed and metrics.

Other modes:
    --workload all   run every workload in its own process and print a table
    --selfcheck      smoke-run every workload and show that every oracle
                     rejects a corrupted result
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(HERE, os.pardir, "BENCHMARK.json")
OUT_DIR = os.path.join(ROOT, "perfbench", "out")

SETUP_PROBES = 5          # fresh interpreters per run; setup_s is their median
LATENCY_SAMPLES = 200_000  # latencies kept: the most recent whole passes
CALIBRATION_INTERVAL_S = 0.005
REFERENCE_KERNEL_NS = 2_000_000  # kernel time that defines the reference speed
PROBE_TIMEOUT_S = 60
CHILD_TIMEOUT_S = 170

E2E_UNITS = {
    "throughput_ops_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


def _src_or_exit() -> None:
    """Import latticetwist from ./src, or exit with an error when it is not there."""
    if not os.path.isfile(os.path.join(SRC, "latticetwist", "__init__.py")):
        sys.exit(f"error: no src/latticetwist under {ROOT}; run from a checkout root")
    sys.path.insert(0, SRC)
    import latticetwist

    if not os.path.abspath(latticetwist.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: latticetwist imported from {latticetwist.__file__}, not {SRC}")


# --------------------------------------------------------------------------
# Measuring.

def _kernel_ns() -> int:
    """Time one run of the calibration kernel: fixed pure-Python work with
    the library's mix of small tuples, sets, dicts and integer arithmetic."""
    t0 = time.perf_counter_ns()
    acc = 0
    for i in range(1500):
        t = tuple((i * j) % 7 for j in range(6))
        acc += len(set(t)) + t[i % 6]
        d = {t[0]: i, t[1]: acc}
        acc += d.get(t[0], 0) & 3
    return time.perf_counter_ns() - t0


class Loop:
    """Closed-loop state shared by the untraced and traced phases.

    The calibration kernel runs between ops at least every
    CALIBRATION_INTERVAL_S, so after nearly every CLI op and every few
    milliseconds of library calls.  Each op's latency is scaled by
    REFERENCE_KERNEL_NS over the mean of the kernel runs just before and
    after it, so times read as if the machine ran at the reference speed.
    On a shared host the CPU's speed drifts by tens of percent within a
    second; the scaling removes most of that drift.  Raw times are
    reported as well.

    Latencies go into one array of doubles that grows with the op count
    up to `capacity` and then wraps; each chunk of them is scaled in place
    when the kernel run that closes the chunk is timed.  The first pass
    keeps only a digest of its checked outputs.
    """

    def __init__(self, ops, prepared, checker):
        self.ops = ops
        self.prepared = prepared
        self.check = checker
        per_pass = len(ops)
        self.capacity = per_pass * max(1, LATENCY_SAMPLES // per_pass)
        self.errors: list[str] = []
        self.outputs_sha256: str | None = None

    def run(self, seconds, tracer=None):
        """Whole passes until `seconds` elapse.

        Returns (ops, failed, scaled busy ns, raw busy ns, array of scaled
        latencies of the most recent whole passes, peak RSS in MiB read as
        soon as the loop ends).
        """
        from workloads import canonical

        cap = self.capacity
        lat = array("d")
        attempted = failed = pos = 0
        chunk_start = 0
        digest = hashlib.sha256() if self.outputs_sha256 is None else None
        before = _kernel_ns()
        chunk_ns = busy = raw_busy = 0.0

        def close_chunk():
            # Scale the latencies of the ops since the last kernel run.
            nonlocal before, chunk_ns, busy, raw_busy, chunk_start
            after = _kernel_ns()
            factor = 2 * REFERENCE_KERNEL_NS / (before + after)
            i = chunk_start
            while i != pos:
                lat[i] *= factor
                i = (i + 1) % cap
            if tracer is not None:
                tracer.flush(factor)
            busy += chunk_ns * factor
            raw_busy += chunk_ns
            before, chunk_ns, chunk_start = after, 0, pos

        start = last_cal = time.perf_counter()
        while True:
            for op, run in zip(self.ops, self.prepared):
                if tracer is not None:
                    tracer.enter("bench.op")
                    ns, outcome = run()
                    tracer.exit()
                else:
                    ns, outcome = run()
                if len(lat) < cap:
                    lat.append(ns)
                else:
                    lat[pos] = ns
                pos = (pos + 1) % cap
                attempted += 1
                chunk_ns += ns
                reason = self.check(op, outcome)
                if reason is not None:
                    failed += 1
                    if len(self.errors) < 5:
                        self.errors.append(f"{op['kind']} {op.get('argv', '')}: {reason}")
                if digest is not None:
                    digest.update(canonical(op, outcome).encode() + b"\n")
                if time.perf_counter() - last_cal >= CALIBRATION_INTERVAL_S:
                    close_chunk()
                    last_cal = time.perf_counter()
            if digest is not None:
                self.outputs_sha256, digest = digest.hexdigest()[:16], None
            if time.perf_counter() - start >= seconds:
                break
        close_chunk()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return attempted, failed, busy, raw_busy, lat, peak_rss_mb


def _measure_setup(warmups, probes=SETUP_PROBES):
    """Median (scaled, raw) seconds of `probes` fresh set-up processes.

    Each probe is scaled to the reference speed by the kernel runs just
    before and after it, like the op latencies.
    """
    spec = json.dumps(warmups)
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("PYTHONSTARTUP", None)
    scaled, raw = [], []
    for _ in range(probes):
        before = _kernel_ns()
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, os.path.join(HERE, "probe.py")],
                              input=spec, capture_output=True, text=True,
                              cwd=ROOT, env=env, timeout=PROBE_TIMEOUT_S)
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0 or proc.stdout.strip() != "ok":
            sys.exit(f"error: setup probe failed (exit {proc.returncode}): "
                     f"{proc.stderr.strip()[-500:]}")
        raw.append(elapsed)
        scaled.append(elapsed * 2 * REFERENCE_KERNEL_NS / (before + _kernel_ns()))
    return statistics.median(scaled), statistics.median(raw)


def _oracle_rows(warmups):
    """Run each warm-up op; (op, oracle on the real outcome, oracle on a
    corrupted copy).  A working oracle gives None, then a reason."""
    from workloads import check, corrupt, prepare

    rows = []
    for op in warmups:
        outcome = prepare(op)()[1]
        rows.append((op, check(op, outcome), check(op, corrupt(op, outcome))))
    return rows


def _meta(args, ops, loop):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "ops_per_pass": len(ops),
        "inputs_sha256": _digest(json.dumps(ops, sort_keys=True)),
        "outputs_sha256": loop.outputs_sha256,
    }


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def _commit():
    """HEAD of a git checkout, read from .git; 'unknown' in an exported tree."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as handle:
            ref = handle.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as handle:
                return handle.read().strip()
        return ref
    except OSError:
        return "unknown"


def _source_digest():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "latticetwist")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as handle:
                h.update(name.encode() + b"\0" + handle.read())
    return h.hexdigest()[:16]


def run_workload(args) -> int:
    _src_or_exit()
    import workloads

    ops, warmups = workloads.generate(args.workload, args.seed)
    prepared = [workloads.prepare(op) for op in ops]
    broken = [op["kind"] for op, _, damaged in _oracle_rows(warmups) if damaged is None]
    if broken:
        sys.exit(f"error: oracles accept corrupted results for {broken}")

    loop = Loop(ops, prepared, workloads.check)
    if args.trace:
        from tracer import LAYER_METRICS, Tracer

        half = args.seconds / 2
        base_ops, base_failed, base_busy, _, _, _ = loop.run(half)
        tracer = Tracer()
        tracer.install()
        try:
            ops_t, failed_t, busy_t, _, _, _ = loop.run(half, tracer)
        finally:
            tracer.uninstall()
        attempted, failed = base_ops + ops_t, base_failed + failed_t
        metrics = tracer.layer_metrics(ops_t)
        base_thr = (base_ops - base_failed) / (base_busy / 1e9)
        traced_thr = (ops_t - failed_t) / (busy_t / 1e9)
        metrics["trace.overhead_pct"] = (base_thr / traced_thr - 1) * 100
        units = {name: unit for name, (unit, _) in LAYER_METRICS.items()}
        notes = {name: f"  # moves {moves}" for name, (_, moves) in LAYER_METRICS.items()}
        os.makedirs(OUT_DIR, exist_ok=True)
        span_path = os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.jsonl")
        tracer.write_spans(span_path)
        print(f"# spans: {len(tracer.records)} of {tracer._next_id} written to "
              f"{os.path.relpath(span_path, ROOT)}")
    else:
        setup, setup_raw = _measure_setup(warmups)
        attempted, failed, busy, raw_busy, kept, peak_rss_mb = loop.run(args.seconds)
        cuts = statistics.quantiles(kept, n=100)
        metrics = {
            "throughput_ops_s": (attempted - failed) / (busy / 1e9),
            "latency_p50_ms": cuts[49] / 1e6,
            "latency_p90_ms": cuts[89] / 1e6,
            "setup_s": setup,
            "peak_rss_mb": peak_rss_mb,
        }
        units, notes = E2E_UNITS, {}
        print(f"# latency samples: {len(kept)} of {attempted} ops")
        print(f"# unscaled: throughput_ops_s {(attempted - failed) / (raw_busy / 1e9)!r}, "
              f"setup_s {setup_raw!r}; observed/reference kernel time {raw_busy / busy!r}")
        print(f"# error_rate: {failed / attempted!r} fraction ({failed}/{attempted})")

    print("# meta " + json.dumps(_meta(args, ops, loop), sort_keys=True))
    for err in loop.errors:
        print(f"# FAILED {err}")
    for name, value in metrics.items():
        print(f"{name} {value!r} {units[name]}{notes.get(name, '')}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


# --------------------------------------------------------------------------
# Table of every workload, and the harness self-check.

def _child(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_all(args) -> int:
    _src_or_exit()
    from workloads import WORKLOADS

    print(f"{'workload':10s} {'metric':18s} {'value':>14s}  unit")
    for workload in WORKLOADS:
        res = _child(workload, args.seed, args.seconds, args.trace)
        rows = [(name, m["value"], m["unit"]) for name, m in res["metrics"].items()]
        rows.append(("error_rate", res["failed"] / res["attempted"], "fraction"))
        rows.append(("ops", res["attempted"], "count"))
        for name, value, unit in rows:
            print(f"{workload:10s} {name:18s} {value:14.6g}  {unit}")
    return 0


def selfcheck(args) -> int:
    _src_or_exit()
    import workloads

    status = 0
    for workload in workloads.WORKLOADS:
        _, warmups = workloads.generate(workload, args.seed)
        for op, real, damaged in _oracle_rows(warmups):
            ok = real is None and damaged is not None
            status |= not ok
            print(f"oracle {workload:8s} {op['kind']:22s} {op.get('variant', ''):9s} "
                  f"real={'pass' if real is None else 'FAIL ' + real} "
                  f"corrupted={'rejected' if damaged else 'ACCEPTED'}")
        for trace in (0, 1):
            res = _child(workload, args.seed, 1, trace)
            ok = res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
            status |= not ok
            print(f"smoke  {workload:8s} trace={trace} correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']} "
                  f"metrics={len(res['metrics'])}")
    spec = _load_spec()
    from tracer import LAYER_METRICS

    for key, emitted in (("end_to_end", E2E_UNITS), ("per_layer", LAYER_METRICS)):
        listed = {m["name"]: m["unit"] for m in spec[key]}
        units = {name: (u if isinstance(u, str) else u[0]) for name, u in emitted.items()}
        ok = listed == units
        status |= not ok
        print(f"names  BENCHMARK.json {key}: {'match' if ok else 'DIFFER'} the metrics run.py prints")
    print("selfcheck:", "FAIL" if status else "ok")
    return status


def _load_spec():
    try:
        with open(SPEC) as handle:
            return json.load(handle)
    except (OSError, ValueError) as exc:
        sys.exit(f"error: cannot read BENCHMARK.json: {exc}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=("tiling", "closure", "arith", "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="measuring time (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = _load_spec()["run_seconds"]
    if args.selfcheck:
        return selfcheck(args)
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
