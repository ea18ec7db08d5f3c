"""Self-tests of the benchmark's own checks, on a tiny dense scene.

    python3 benchmarks/selftest.py

1. A run with a golden digest passes, and the same run with one tracker row
   perturbed counts failed operations and reports correct = false.
2. A job that raises outside a timed call, or whose check raises something
   other than a failed check, counts all of its operations as failed.
3. An untraced run leaves every headtrack function object identical to the
   original, and a traced run restores every one it replaced.
"""
import inspect
import sys

import run

_, _, workloads = run.import_program()
import headtrack  # noqa: E402  (importable once run.import_program has set the path)
from headtrack import tracker  # noqa: E402

SMALL = dict(heads=10, frames=12)


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"FAIL: {what}")


def program_functions() -> dict[str, object]:
    """Every function object reachable as headtrack.<module>.<name> or
    headtrack.<module>.<Class>.<name>."""
    out = {}
    for mod_name, mod in vars(headtrack).items():
        if not inspect.ismodule(mod) or not mod.__name__.startswith("headtrack."):
            continue
        for name, obj in vars(mod).items():
            if callable(obj):
                out[f"{mod_name}.{name}"] = obj
            if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                for attr, member in vars(obj).items():
                    if callable(member):
                        out[f"{mod_name}.{name}.{attr}"] = member
    return out


def test_perturbed_row_fails() -> None:
    result, digest = run.run(workloads.DenseByte(**SMALL), 5, 0.0, False, None)
    expect(result["correct"] and digest, "clean run checks")
    result, _ = run.run(workloads.DenseByte(**SMALL), 5, 0.0, False, digest)
    expect(result["correct"] and result["failed"] == 0, "clean run matches its golden digest")

    step = tracker.Tracker.step

    def perturbed(self, frame, detections):
        out = step(self, frame, detections)
        if frame == SMALL["frames"] // 2 and out:
            out[0] = out[0]._replace(bbox=out[0].bbox.translate(0.01, 0.0))
        return out

    tracker.Tracker.step = perturbed
    try:
        result, _ = run.run(workloads.DenseByte(**SMALL), 5, 0.0, False, digest)
    finally:
        tracker.Tracker.step = step
    expect(not result["correct"], "a perturbed tracker row makes the run incorrect")
    expect(result["failed"] == result["attempted"] > 0,
           "every operation of the mismatching job counts as failed")
    print("PASS perturbed tracker row fails the digest check")


def test_any_exception_fails_the_job() -> None:
    to_records = tracker.outputs_to_records

    def broken(outputs):
        raise ValueError("broken outputs_to_records")

    class BadVerify(workloads.DenseByte):
        def verify(self, state, out):
            raise KeyError("missing report field")

    tracker.outputs_to_records = broken
    try:
        result, _ = run.run(workloads.DenseByte(**SMALL), 5, 0.0, False, None)
    finally:
        tracker.outputs_to_records = to_records
    expect(not result["correct"] and result["failed"] == result["attempted"] > 0,
           "a raise between timed calls fails every operation of the job")
    result, _ = run.run(BadVerify(**SMALL), 5, 0.0, False, None)
    expect(not result["correct"] and result["failed"] == result["attempted"] > 0,
           "a raise in the check fails every operation of the job")
    expect(result["metrics"]["ok_frac"]["value"] == 0.0, "ok_frac counts those failures")
    print("PASS any exception in a job or its check fails the job's operations")


def test_tracing_leaves_program_untouched() -> None:
    before = program_functions()
    expect("tracker.Tracker.step" in before and "geometry.iou" in before,
           "the snapshot covers methods and module functions")
    run.run(workloads.DenseByte(**SMALL), 5, 0.0, False, None)
    after = program_functions()
    expect(after.keys() == before.keys()
           and all(after[k] is before[k] for k in before),
           "an untraced run leaves every headtrack function object identical")
    result, _ = run.run(workloads.DenseByte(**SMALL), 5, 0.0, True, None)
    expect(result["correct"], "traced jobs give the untraced jobs' digest")
    expect(result["metrics"]["geometry.iou.calls"]["value"] > 0, "the traced run counted IoU calls")
    after = program_functions()
    expect(all(after[k] is before[k] for k in before),
           "a traced run restores every function object it replaced")
    print("PASS untraced run leaves headtrack untouched; traced run restores it")


if __name__ == "__main__":
    test_perturbed_row_fails()
    test_any_exception_fails_the_job()
    test_tracing_leaves_program_untouched()
    sys.exit(0)
