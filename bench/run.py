"""Run one benchmark workload for one seed and print its metrics.

    python3 bench/run.py --workload train-wide --seed 1 --seconds 60 --trace 0

Run it from the repository root; it imports the library from ``src/``.
``--trace 0`` measures the end-to-end metrics with no tracing; ``--trace 1``
runs the workload twice, untraced and then with every public function of
the library wrapped in a span, and reports the per-layer metrics.  Each
metric is printed as ``name = value unit``; the last line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 only when every output check passed.
"""

import os

# BLAS and OpenMP threads are pinned before numpy is first imported.
BLAS_THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 5


def machine_info():
    cpu = "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "commit": git_commit(),
    }


def git_commit():
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def run_rounds(workload, state, work, seconds, tally):
    """Run whole rounds with the step probe on; returns how many ran.

    Runs at least ``workload.min_rounds`` and stops before a round that,
    judged by the last one, would end past ``seconds``.
    """
    started, done = time.perf_counter(), 0
    while True:
        round_start = time.perf_counter()
        workload.run_round(state, work, done, tally, probe=True)
        done += 1
        now = time.perf_counter()
        if done >= workload.min_rounds and now - started + (now - round_start) > seconds:
            return done


def percentile(values, q):
    return float(np.percentile(values, q)) if values else None


def end_to_end(args, workload):
    import workloads

    setup_s = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(WORK, ignore_errors=True)
        start = time.perf_counter()
        state = workload.setup(WORK, args.seed, workloads.Tally())
        setup_s.append(time.perf_counter() - start)
    tally = workloads.Tally()
    rounds = run_rounds(workload, state, WORK, args.seconds, tally)
    metrics = {
        "setup_s": (statistics.median(setup_s), "s", SETUP_REPEATS),
        "throughput_per_s": (tally.items / tally.busy_s if tally.busy_s else None, "1/s", tally.items),
    }
    for slot in workloads.SLOTS:
        ops_ms = [1e3 * s for s in tally.op_s[slot]]
        metrics[f"op_ms_p50.{slot}"] = (percentile(ops_ms, 50), "ms", len(ops_ms))
        metrics[f"op_ms_p90.{slot}"] = (percentile(ops_ms, 90), "ms", len(ops_ms))
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics["peak_rss_mb"] = (peak_mb, "MB", None)
    print(f"rounds = {rounds}")
    return tally, metrics, True


def traced(args, workload):
    import spans
    import workloads

    # Rounds alternate between the untraced and the traced copy, so drift in
    # machine speed during the run falls on both alike.
    tracer, plain, tally = spans.Tracer(), workloads.Tally(), workloads.Tally()
    plain_state = workload.setup(WORK / "untraced", args.seed, plain)
    with spans.patched(tracer.wrap):
        traced_state = workload.setup(WORK / "traced", args.seed, tally)
    for index in range(workload.trace_rounds):
        workload.run_round(plain_state, WORK / "untraced", index, plain, probe=False)
        with spans.patched(tracer.wrap):
            workload.run_round(traced_state, WORK / "traced", index, tally, probe=False)
    same = plain.digests == tally.digests and plain.failed == tally.failed == 0
    print(f"traced outputs equal untraced outputs bit for bit: {same} "
          f"({len(tally.digests)} checked)")
    ops = max(tally.attempted, 1)
    metrics = {}
    for name in spans.SPAN_NAMES:
        metrics[f"{name}.self_ms"] = (1e3 * tracer.self_s[name] / ops, "ms", None)
        metrics[f"{name}.calls"] = (tracer.calls[name] / ops, "count", None)
    kept = tally.params_after / tally.params_before if tally.params_before else None
    metrics["factorized.kept_param_ratio"] = (kept, "ratio", None)
    ratio = None
    if plain.busy_s and tally.busy_s:
        ratio = (tally.items / tally.busy_s) / (plain.items / plain.busy_s)
    metrics["tracing_overhead_ratio"] = (ratio, "ratio", None)
    combined = workloads.Tally(attempted=plain.attempted + tally.attempted,
                               failed=plain.failed + tally.failed)
    return combined, metrics, same


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("train-wide", "train-narrow", "predict"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "tensorard" / "__init__.py").is_file():
        print(f"error: no library at {SRC / 'tensorard'}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    print("machine " + json.dumps(machine_info(), sort_keys=True), flush=True)
    workload = workloads.WORKLOADS[args.workload]
    measure = traced if args.trace else end_to_end
    try:
        tally, metrics, consistent = measure(args, workload)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    for name, (value, unit, count) in metrics.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{name} = {shown} {unit}" + (f" (n={count})" if count is not None else ""))
    failure_ratio = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"failure_ratio = {failure_ratio:.6g} ratio "
          f"({tally.failed} of {tally.attempted} ops failed)")
    correct = consistent and tally.failed == 0 and tally.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
