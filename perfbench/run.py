"""fcodt benchmark: one workload per run, one closed-loop client.

    python3 perfbench/run.py --workload tuned_cell --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
The last line of standard output is the result: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics of BENCHMARK.json with
``--trace 0``, its per-layer metrics with ``--trace 1``). End-to-end
timings are at a reference machine speed (see calibrate.py). The line
before it is the full report: provenance, the workload's own metrics with
units, raw wall times, the percentile behind each tail and every failed
check. The report (and,
for a traced run, every span) is also written to
``.perfbench_run/<workload>-seed<seed>-trace<t>.json[l]``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

import calibrate

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_run")
SETUP_REPEATS = 3
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
GATE_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_ms_p50": "ms",
              "op_ms_tail": "ms", "peak_rss_mb": "MB", "test_r2_mean": "R2"}


def import_package() -> float:
    """Import fcodt from the checkout's src/; returns the import time."""
    if not os.path.isfile(os.path.join(SRC, "fcodt", "__init__.py")):
        sys.exit("perfbench: src/fcodt not found; run from the root of a checkout")
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import fcodt.cli  # noqa: F401  (pulls in numpy and every module)
    elapsed = time.perf_counter() - start
    if os.path.dirname(os.path.dirname(os.path.abspath(fcodt.cli.__file__))) != SRC:
        sys.exit(f"perfbench: imported fcodt from {fcodt.cli.__file__}, not from {SRC}")
    return elapsed


def git_sha():
    """Commit of the checkout, read from .git without running git; None
    when the checkout is not a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def source_sha256() -> str:
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(SRC, "fcodt"))):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, SRC).encode("utf-8"))
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def provenance(args) -> dict:
    import numpy

    return {"git_sha": git_sha(), "source_sha256": source_sha256(),
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "platform": platform.platform(), "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace}


def tail(values):
    """Highest percentile with at least ten samples beyond it."""
    import numpy as np

    n = len(values)
    p = next((p for p in TAIL_PERCENTILES if n * (100.0 - p) / 100.0 >= 10), 50.0)
    return {"value": float(np.percentile(values, p)), "percentile": p,
            "samples": n, "beyond": n * (100.0 - p) / 100.0}


def run_pass(workload, index):
    """Run one pass's operations in order. The calibration kernel runs
    before the first operation and after each one, outside the timings;
    an operation records the mean of the slowdowns on either side of it."""
    from workloads import Op, Pass  # imports fcodt: only after the timed import

    start = time.perf_counter()
    probing = 0.0

    def probe():
        nonlocal probing
        t = time.perf_counter()
        value = calibrate.slowdown()
        probing += time.perf_counter() - t
        return value

    before = probe()
    ops, results = [], []
    for kind, rows, fn in workload.operations(index):
        t = time.perf_counter()
        try:
            result, error = fn(), ""
        except Exception as exc:  # a failed operation is counted, not fatal
            result, error = None, f"{type(exc).__name__}: {exc}"
        ms = (time.perf_counter() - t) * 1e3
        after = probe()
        op = Op(kind=kind, ms=ms, ok=not error, rows=rows, detail=error,
                slowdown=(before + after) / 2)
        if not error:
            op.ok, op.detail, op.quality, op.mse = workload.check(kind, result, index)
        ops.append(op)
        results.append(result)
        before = after
    checks = workload.end_pass(index, results)
    return Pass(wall_s=time.perf_counter() - start - probing, ops=ops, checks=checks)


def measure(workload, seconds, min_passes):
    """Closed loop: whole passes until ``seconds`` have passed."""
    passes = []
    deadline = time.perf_counter() + seconds
    while len(passes) < min_passes or time.perf_counter() < deadline:
        passes.append(run_pass(workload, len(passes)))
    return passes


def at_reference(passes):
    """The passes with each operation's time divided by its slowdown, and
    each pass's wall time by the mean slowdown of its operations."""
    return [dataclasses.replace(
        p, wall_s=p.wall_s / statistics.mean(op.slowdown for op in p.ops),
        ops=[dataclasses.replace(op, ms=op.ms / op.slowdown, slowdown=1.0) for op in p.ops])
        for p in passes]


def tally(passes, final_checks):
    ops = [op for p in passes for op in p.ops]
    checks = [c for p in passes for c in p.checks] + final_checks
    failures = ([f"{op.kind}: {op.detail}" for op in ops if not op.ok]
                + [f"{name}: {detail}" for name, ok, detail in checks if not ok])
    return len(ops) + len(checks), failures


def ops_per_s(passes):
    return statistics.median(len(p.ops) / p.wall_s for p in passes)


def op_timings(passes):
    ms = [op.ms for p in passes for op in p.ops]
    op_tail = tail(ms)
    return {"ops_per_s": ops_per_s(passes), "op_ms_p50": statistics.median(ms),
            "op_ms_tail": op_tail["value"]}, op_tail


def check_spec(metrics, key):
    """The printed metrics must be exactly BENCHMARK.json's list, units included."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        expected = {m["name"]: m["unit"] for m in json.load(fh)[key]}
    got = {name: m["unit"] for name, m in metrics.items()}
    if got != expected:
        diff = sorted(set(got.items()) ^ set(expected.items()))
        sys.exit(f"perfbench: metrics differ from BENCHMARK.json {key}: {diff}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["tuned_cell", "sweep", "score"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    import_s = import_package()
    import spans
    import workloads

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    try:
        slow = calibrate.slowdown()
        import_ref_s = import_s / slow
        setup_raw, setup_ref = [], []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            workload.setup()
            workload.warm_up()
            elapsed = time.perf_counter() - start
            after = calibrate.slowdown()
            setup_raw.append(elapsed)
            setup_ref.append(elapsed / ((slow + after) / 2))
            slow = after

        passes = measure(workload, args.seconds, workload.min_passes)
        traced = []
        tracer = None
        if args.trace:
            tracer = spans.Tracer()
            tracer.install(spans.package_targets())
            try:
                traced = measure(workload, 0, workload.trace_passes)
            finally:
                tracer.uninstall()
        final = workload.final_checks()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failures = tally(passes + traced, final)
    ref = at_reference(passes)
    timings, op_tail = op_timings(ref)
    raw_timings, raw_tail = op_timings(passes)
    own = workload.report(ref)
    gate = {
        "setup_s": import_ref_s + statistics.median(setup_ref),
        **timings,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "test_r2_mean": own["test_r2_mean"][0],
    }
    named = {"setup_s": (gate["setup_s"], "s"), "peak_rss_mb": (gate["peak_rss_mb"], "MB"),
             "ops_failed_frac": (len(failures) / attempted, "ratio")}
    if args.workload != "score":
        named.update({"cells_per_s": (gate["ops_per_s"], "1/s"),
                      "cell_ms_p50": (gate["op_ms_p50"], "ms"),
                      "cell_ms_tail": (gate["op_ms_tail"], "ms")})
    named.update(own)
    raw = {"setup_s": import_s + statistics.median(setup_raw), **raw_timings,
           **{k: v for k, (v, _) in workload.report(passes).items()}}
    slowdowns = [op.slowdown for p in passes for op in p.ops]

    report = {
        "provenance": provenance(args),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
        "tail": op_tail,
        "raw_wall_time": {"metrics": raw, "tail": raw_tail},
        "calibration": {"kernel_ref_s": calibrate.KERNEL_REF_S,
                        "slowdown_median": statistics.median(slowdowns),
                        "slowdown_min": min(slowdowns), "slowdown_max": max(slowdowns)},
        "counts": {"passes": len(passes), "ops": op_tail["samples"], "attempted": attempted,
                   "setup_repeats": SETUP_REPEATS, "import_s": import_s,
                   "setup_phase_s": setup_raw},
        "failures": failures,
    }
    if tracer is not None:
        top = tracer.top_level_seconds()
        wall = sum(p.wall_s for p in traced)
        traced_ops_per_s = ops_per_s(at_reference(traced))
        layer = tracer.metrics()
        layer.update({
            "trace.passes": (len(traced), "count"),
            "trace.spans": (len(tracer.spans), "count"),
            "trace.untraced_ops_per_s": (gate["ops_per_s"], "1/s"),
            "trace.traced_ops_per_s": (traced_ops_per_s, "1/s"),
            "trace.overhead_frac": (gate["ops_per_s"] / traced_ops_per_s - 1.0, "ratio"),
            "trace.top_span_coverage": (top / wall, "ratio"),
        })
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
        report["per_layer"] = metrics
        base = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace1")
        tracer.write(base + ".jsonl", report)
    else:
        metrics = {k: {"value": v, "unit": GATE_UNITS[k]} for k, v in gate.items()}
        base = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace0")
    check_spec(metrics, "per_layer" if args.trace else "end_to_end")
    with open(base + ".json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    for failure in failures[:20]:
        print(f"perfbench: failed: {failure}", file=sys.stderr)
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
