"""skylit benchmark: one command per workload, untraced or traced.

    python3 perfbench/run.py --workload train-default --seed 0 --seconds 40 --trace 0

Workloads: train-default and ddf-fit (see workloads.py and BENCHMARK.json
for why each was chosen). With ``--trace 0`` the run prints the end-to-end
metrics; with ``--trace 1`` it splits ``--seconds`` between an untraced and
a traced pass of the same ops, and prints the per-layer metrics plus the
tracing overhead. ``--smoke`` runs a few ops only. Human-readable lines
come first; the last line of stdout is one JSON object. A record with the
environment, checks and every op time is written to perfbench/results/.

BLAS and OpenMP pools are capped at ``BLAS_THREADS`` before numpy loads, and
the program runs in this one process and one Python thread.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402  (after the thread caps)

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
RESULTS_DIR = os.path.join(BENCH_DIR, "results")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["train-default", "ddf-fit"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true",
                   help="a few ops and one set-up, to check the harness")
    return p.parse_args(argv)


def import_skylit():
    """Import skylit from this checkout's src/, never from elsewhere."""
    src = os.path.join(REPO_ROOT, "src")
    if not os.path.isfile(os.path.join(src, "skylit", "__init__.py")):
        raise SystemExit(f"error: no skylit sources under {src}")
    sys.path.insert(0, src)
    import skylit

    if not os.path.abspath(skylit.__file__).startswith(src + os.sep):
        raise SystemExit(f"error: imported skylit from {skylit.__file__}")


def git_commit():
    """HEAD of the checkout, read from .git without starting a process."""
    git = os.path.join(REPO_ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, *ref.split("/"))
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(args, n_ops):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "ops": n_ops,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas, "blas_threads": BLAS_THREADS, "commit": git_commit(),
        "platform": platform.platform(),
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


TAIL_PCT = 90


def tail(times):
    """(p90, samples beyond it). A 40 s run has at least 100 ops, so at
    least ten samples lie beyond; a higher percentile, with only ten
    beyond, would be set by the host's rare stalls, not by the program."""
    value = float(np.percentile(times, TAIL_PCT))
    return value, sum(1 for t in times if t > value)


def same_arrays(a, b):
    return len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))


def repeated_setup(wl, seed, reps, workdir):
    """Median set-up time over ``reps`` set-ups; keeps the last one and
    checks that every set-up built identical inputs."""
    times, first, state, same = [], None, None, True
    for _ in range(reps):
        if state is not None:
            wl.cleanup(state)
        t0 = time.perf_counter()
        state = wl.setup(seed, workdir)
        times.append(time.perf_counter() - t0)
        fp = wl.fingerprint(state)
        if first is None:
            first = fp
        else:
            same = same and same_arrays(first, fp)
    return state, times, same


def untraced(wl, args, n_ops, workdir, checks):
    reps = 1 if args.smoke else wl.setup_reps
    state, setup_times, same = repeated_setup(wl, args.seed, reps, workdir)
    checks.append(("setup_deterministic", same,
                   f"{reps} set-ups built identical inputs"))
    rss_setup = peak_rss_mb()
    log = wl.run(state, n_ops)
    peak = peak_rss_mb()
    checks.append(("setup_below_peak", rss_setup < peak,
                   f"set-up peak {rss_setup:.1f} MB < run peak {peak:.1f} MB"))
    quality = safe_quality(wl, state)
    # replayed after the peak is read, so its memory never counts
    checks.extend(wl.checks(state, wl.replay(state)))
    wl.cleanup(state)
    value, beyond = tail(log.times)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "step_s_p50": (statistics.median(log.times), "s"),
        "step_s_tail": (value, "s"),
        "items_per_s": (wl.items(state, n_ops) / log.window_s, "1/s"),
        "peak_rss_mb": (peak, "MB"),
        "quality_err": (quality, "err"),
    }
    notes = [f"step_s_tail is p{TAIL_PCT} of {len(log.times)} ops, "
             f"{beyond} beyond it",
             f"items are {wl.item}; window {log.window_s:.3f} s",
             f"setup times {[round(t, 4) for t in setup_times]}"]
    return log, quality, metrics, notes


def safe_quality(wl, state):
    try:
        return wl.quality(state)
    except Exception as exc:  # noqa: BLE001 - reported as a failed check
        print(f"quality failed: {type(exc).__name__}: {exc}")
        return float("nan")


def traced(wl, args, n_ops, workdir, checks, spans_path):
    """Same ops twice: untraced, then under the tracer."""
    from layers import layer_metrics
    from tracing import Tracer

    state = wl.setup(args.seed, workdir)
    base = wl.run(state, n_ops)
    base_quality = safe_quality(wl, state)
    wl.cleanup(state)
    del state

    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span("bench.setup"):
            state = wl.setup(args.seed, workdir)
        with tracer.span("bench.ops"):
            log = wl.run(state, n_ops)
    finally:
        tracer.uninstall()
    quality = safe_quality(wl, state)
    wl.cleanup(state)
    checks.append(("tracing_changes_nothing", quality == base_quality,
                   f"traced quality {quality!r} == untraced {base_quality!r}"))
    tracer.write_spans(spans_path)
    p50_base = statistics.median(base.times)
    p50 = statistics.median(log.times)
    rejected = len(getattr(state.get("trainer"), "rejected_steps", ()))
    metrics = layer_metrics(tracer, n_ops, rejected)
    metrics["trace.step_s_p50"] = (p50, "s")
    metrics["trace.overhead_s"] = (p50 - p50_base, "s")
    metrics["trace.overhead_frac"] = ((p50 - p50_base) / p50_base, "frac")
    notes = [f"untraced step_s_p50 {p50_base:.6f} s, traced {p50:.6f} s",
             f"{len(tracer.names) + len(tracer.gc_spans)} spans written to "
             f"{os.path.relpath(spans_path, REPO_ROOT)}"]
    if tracer.missing:
        notes.append(f"not in this skylit, reported as 0: {tracer.missing}")
    for name, error in tracer.observer_errors.items():
        notes.append(f"counter of {name} failed, reported as 0: {error}")
    log.failed += base.failed
    return log, quality, metrics, notes


def main(argv=None):
    args = parse_args(argv)
    import_skylit()
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    # a traced run does the ops twice, untraced and traced, in --seconds
    n_ops = wl.n_ops(args.seconds / (1 + args.trace), args.smoke)
    env = environment(args, n_ops)
    print("env " + json.dumps(env))
    os.makedirs(RESULTS_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=RESULTS_DIR)
    stem = os.path.join(RESULTS_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    checks = []
    try:
        if args.trace:
            log, quality, metrics, notes = traced(wl, args, n_ops, workdir, checks,
                                                  stem + ".spans.jsonl")
        else:
            log, quality, metrics, notes = untraced(wl, args, n_ops, workdir, checks)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    bound = wl.smoke_quality_bound if args.smoke else wl.quality_bound
    checks.append(("quality_within_bound", math.isfinite(quality) and quality <= bound,
                   f"quality_err {quality:.6g} <= {bound}"))
    checks.append(("ops_succeeded", log.failed == 0,
                   f"{log.failed} of {n_ops} ops failed {log.errors}"))
    run_failures = sum(1 for name, ok, _ in checks
                       if not ok and name != "ops_succeeded")
    failed = min(n_ops, log.failed + run_failures)
    if not args.trace:
        metrics["ok_frac"] = (1.0 - failed / n_ops, "frac")

    for name, ok, detail in checks:
        print(f"check {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    for note in notes:
        print("note " + note)
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    correct = all(ok for _, ok, _ in checks)
    result = {
        "correct": correct, "attempted": n_ops, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({"env": env, "checks": checks, "notes": notes,
                   "op_times_s": log.times, **result}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
