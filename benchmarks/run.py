"""headtrack benchmark: one workload, one seed; the jobs run in one process.

    python3 benchmarks/run.py --workload dense90_byte --seed 0 --seconds 30 --trace 0

Runs jobs of the workload back to back until --seconds have passed (the last
job finishes), checks every job's outputs, and prints as its last stdout line
one JSON object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end ones; with --trace 1, untraced and traced jobs
alternate and the metrics are the per-layer ones from the traced jobs, plus
the tracing overhead. See benchmarks/NOTES.md.

`--write-golden` records the digests of the golden seeds instead;
`--import-time` prints this process's import time and exits.
"""
import time

T_START = time.perf_counter()

import os  # noqa: E402

# BLAS and OpenMP pools must be pinned before numpy loads.
THREAD_PINS = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(THREAD_PINS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"
GOLDEN_SEEDS = (0, 7)  # the default seed and a held-out one
SETUP_REPEATS = 3
IMPORT_REPEATS = 5   # fresh processes whose import times setup_s takes the median of


def import_program():
    """Import headtrack from this checkout's src/, and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import headtrack
    except ImportError as e:
        sys.exit(f"cannot import headtrack from {SRC}: {e}")
    if Path(headtrack.__file__).resolve().parent.parent != SRC:
        sys.exit(f"headtrack imported from {headtrack.__file__}, not from {SRC}")
    sys.path.insert(0, str(HERE))
    import numpy
    import scipy
    import workloads
    return numpy, scipy, workloads


def environment(numpy, scipy) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        sha = proc.stdout.strip() or None
    try:
        loadavg = Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        loadavg = None
    return {"git_sha": sha, "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "thread_pins": THREAD_PINS, "loadavg_at_start": loadavg}


def import_times(n: int) -> list[float]:
    """Import times of `n` fresh processes that import as this one does."""
    out = []
    for _ in range(n):
        proc = subprocess.run([sys.executable, __file__, "--import-time"], capture_output=True,
                              text=True, timeout=120, check=True)
        out.append(float(proc.stdout))
    return out


def run(workload, seed: int, seconds: float, trace_on: bool, golden: str | None,
        import_s: float = 0.0, spans_path: Path | None = None) -> tuple[dict, str | None]:
    """Set up, run jobs for `seconds` and check them. Returns the result
    object and the digest of the first job's outputs."""
    from tracing import Tracer
    from workloads import CheckFailed, Ops

    (HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f"{workload.name}-", dir=HERE / "out") as tmp:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t = time.perf_counter()
            state = workload.setup(seed, Path(tmp))
            setup_times.append(time.perf_counter() - t)

        ops = Ops(workload.probe)
        tracer = Tracer() if trace_on else None
        walls = {False: [], True: []}   # job times, keyed by "traced"
        traced_jobs = 0
        first = last = None
        job = 0
        t0 = time.perf_counter()
        while job < (2 if trace_on else 1) or time.perf_counter() - t0 < seconds:
            traced = trace_on and job % 2 == 1
            attempted_before, failed_before = ops.attempted, ops.failed
            busy_before, garbage_before = ops.busy_s, ops.cycle_garbage
            if traced:
                tracer.job = job
                tracer.install()
                traced_jobs += 1
            try:
                try:
                    out = workload.job(state, ops)
                finally:
                    if traced:
                        tracer.restore()
                    job += 1
                wall = ops.busy_s - busy_before
                if traced:
                    tracer.counts["autodiff.graph_cycle_objects"] += (
                        ops.cycle_garbage - garbage_before)
                checked = workload.verify(state, out)
                first = first or checked
                if checked.digest != first.digest:
                    raise CheckFailed("digest differs from this run's first job")
                if golden is not None and checked.digest != golden:
                    raise CheckFailed("digest differs from the golden digest")
            except Exception as e:
                if isinstance(e, CheckFailed):
                    print(f"job {job}: {e}", file=sys.stderr)
                else:
                    traceback.print_exc(file=sys.stderr)
                # The job's every operation fails, and a job that failed
                # before its first operation counts as one failed operation.
                ops.attempted = max(ops.attempted, attempted_before + 1)
                ops.failed = failed_before + (ops.attempted - attempted_before)
                continue
            walls[traced].append(wall)
            last = checked

        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        probe_s = statistics.median(ops.probe_s) if ops.probe_s else 0.0
        # how much slower than the reference speed the host ran during the run
        slowdown = probe_s / workload.probe_ref_s if probe_s else 1.0
        correct = ops.failed == 0 and last is not None
        report = last.report if last else None
        if not trace_on and correct and report is None:
            # maps_fusion's mota/idf1: one more operation, after the timed window
            try:
                report = ops(workload.track_report, state)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                correct = False

    print("job times (s):", {"untraced": walls[False], "traced": walls[True]}, file=sys.stderr)
    setup_s = import_s + statistics.median(setup_times)
    if walls[False]:
        print(f"wall-clock frames/s {statistics.median(last.frames / w for w in walls[False])}, "
              f"wall-clock setup_s {setup_s}, probe median {probe_s} s", file=sys.stderr)
    if trace_on:
        metrics = {k: {"value": v, "unit": u}
                   for k, (v, u) in tracer.layer_metrics(max(traced_jobs, 1)).items()}
        untraced, traced = walls[False], walls[True]
        overhead = (statistics.median(traced) / statistics.median(untraced) - 1.0
                    if untraced and traced else 0.0)
        metrics["trace.overhead_frac"] = {"value": overhead, "unit": "frac"}
        if spans_path is not None:
            tracer.write_spans(spans_path)
    else:
        metrics = {
            # both timings at the reference host speed (see NOTES.md)
            "frames_per_s": {"value": statistics.median(last.frames / w for w in walls[False])
                             * slowdown if walls[False] else 0.0, "unit": "frames/s"},
            "setup_s": {"value": setup_s / slowdown, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "mota": {"value": report["MOTA"] if report else 0.0, "unit": "frac"},
            "idf1": {"value": report["IDF1"] if report else 0.0, "unit": "frac"},
            "ok_frac": {"value": 1.0 - ops.failed / max(ops.attempted, 1), "unit": "frac"},
        }
    result = {"correct": correct, "attempted": ops.attempted, "failed": ops.failed,
              "metrics": metrics}
    return result, first.digest if first else None


def write_golden(workloads) -> None:
    table = {}
    for name, cls in workloads.WORKLOADS.items():
        table[name] = {}
        for seed in GOLDEN_SEEDS:
            result, digest = run(cls(), seed, 0.0, False, None)
            if not result["correct"]:
                sys.exit(f"{name} seed {seed}: outputs do not check; no golden digest written")
            table[name][str(seed)] = digest
            print(name, seed, digest, file=sys.stderr)
    GOLDEN.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-golden", action="store_true")
    p.add_argument("--import-time", action="store_true")
    args = p.parse_args()
    numpy, scipy, workloads = import_program()
    import_s = time.perf_counter() - T_START
    if args.import_time:
        print(import_s)
        return 0
    if not args.write_golden and args.workload not in workloads.WORKLOADS:
        p.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    if args.write_golden:
        write_golden(workloads)
        return 0

    print(json.dumps({"environment": environment(numpy, scipy)}))
    golden = json.loads(GOLDEN.read_text()).get(args.workload, {}).get(str(args.seed))
    spans = HERE / "out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
    if not args.trace:
        import_s = statistics.median([import_s, *import_times(IMPORT_REPEATS)])
    result, _ = run(workloads.WORKLOADS[args.workload](), args.seed, args.seconds,
                    bool(args.trace), golden, import_s, spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
