"""Benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src/`` directory, and inputs are written under ``.bench_work/`` there.
With ``--trace 0`` the end-to-end metrics are measured untraced; with
``--trace 1`` the same passes run untraced and then traced, and the
per-layer metrics come from the traced ones. The last line of stdout is the
result; the line before it is the environment record, and the full record
(per-operation times, failures, spans) goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: an untraced run sets up at least SETUP_MIN_REPS times and goes on, up
#: to SETUP_MAX_REPS, until SETUP_MIN_SECONDS have passed; setup_s is the
#: median. A traced run sets up once.
SETUP_MIN_REPS, SETUP_MAX_REPS, SETUP_MIN_SECONDS = 3, 25, 2.0
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def configure_threads() -> dict[str, int]:
    """At most nproc BLAS threads and min(2, nproc) sweep threads; must run
    before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    blas = nproc
    for var in BLAS_VARS:
        value = os.environ.get(var, "")
        if value.isdigit() and 0 < int(value) < blas:
            blas = int(value)
    for var in BLAS_VARS:
        os.environ[var] = str(blas)
    sweep = min(2, nproc)
    os.environ["DISAGREE_THREADS"] = str(sweep)
    return {"nproc": nproc, "blas_threads": blas, "disagree_threads": sweep}


def last_level_cache_bytes() -> int | None:
    best = (0, None)
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1 << 10, "M": 1 << 20}.get(size[-1:], 1)
        value = int(size.rstrip("KM")) * scale
        best = max(best, (level, value))
    if best[1] is not None:
        return best[1]
    try:
        return os.sysconf("SC_LEVEL3_CACHE_SIZE") or None
    except (ValueError, OSError):
        return None


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def environment(threads: dict[str, int]) -> dict:
    import numpy
    import scipy

    import disagree_kit

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "disagree_kit": disagree_kit.__version__, **threads,
            "llc_bytes": last_level_cache_bytes(), "cpu": cpu_model(),
            "git_commit": git_commit()}


def lower_quartile(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[0]


def pass_s(passes: list[list]) -> float:
    """Time of one pass: the sum over its operations of each one's lower
    quartile over the passes run. The passes repeat the same deterministic
    work while the host's speed drifts; the lower quartile follows the
    run's faster stretches without resting on one lucky pass, as the
    fastest time would."""
    times: dict[str, list[float]] = {}
    for ops in passes:
        for op in ops:
            times.setdefault(op.label, []).append(op.seconds)
    return sum(lower_quartile(t) for t in times.values())


def setup_done(times: list[float], trace: int) -> bool:
    if trace:
        return bool(times)
    return len(times) >= SETUP_MAX_REPS or (
        len(times) >= SETUP_MIN_REPS and sum(times) >= SETUP_MIN_SECONDS)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def untraced(label, call):
    return call()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "disagree_kit" / "__init__.py").is_file():
        print(f"error: no disagree_kit sources under {SRC}", file=sys.stderr)
        return 2

    threads = configure_threads()
    sys.path.insert(0, str(SRC))
    import disagree_kit
    from layers import PER_LAYER_UNITS, traced_passes
    from workloads import WORKLOADS

    if Path(disagree_kit.__file__).resolve().parent != SRC / "disagree_kit":
        print(f"error: disagree_kit imported from {disagree_kit.__file__}",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(WORKLOADS)}")

    reference_error = None
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](work, args.seed)
        setup_times = []
        while not setup_done(setup_times, args.trace):
            start = perf_counter()
            workload.setup()
            setup_times.append(perf_counter() - start)
        workload.load()
        # a traced run splits its time between untraced and traced passes
        seconds = args.seconds / 2 if args.trace else args.seconds
        # peak memory after the first pass: later identical passes only
        # add allocator reuse effects that depend on how many fit
        peaks: list[float] = []
        plain = workload.measure(seconds, untraced,
                                 lambda: peaks.append(peak_rss_mb()))
        traced, layer_passes, self_passes, spans = [], [], [], []
        if args.trace:
            traced, layer_passes, self_passes, spans = traced_passes(
                workload, seconds, threads["disagree_threads"])
        try:
            workload.reference()
        except Exception as exc:  # every check below then fails
            reference_error = f"reference: {type(exc).__name__}: {exc}"
        workload.check_all(plain)
        for metrics, seen in zip(layer_passes, workload.check_all(traced)):
            metrics.update(seen)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ops = [op for p in plain + traced for op in p]
    failures = [f"{op.label}: {op.failure}" for op in ops if op.failure]
    if reference_error:
        failures.insert(0, reference_error)
    if args.trace:
        values = {name: statistics.median(m[name] for m in layer_passes)
                  for name in layer_passes[0]}
        values["trace.overhead_s"] = pass_s(traced) - pass_s(plain)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in PER_LAYER_UNITS.items()}
    else:
        metrics = {
            "wall_s": {"value": pass_s(plain), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": peaks[0], "unit": "MB"},
        }

    env = environment(threads)
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "environment": env,
        "setup_s": setup_times,
        "ops": [[op.label, op.seconds, op.failure] for p in plain for op in p],
        "traced_ops": [[op.label, op.seconds, op.failure]
                       for p in traced for op in p],
        "layer_self_s": self_passes, "metrics": metrics,
        "spans": [dataclasses.astuple(s) for s in spans],
    }
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    out_path = out_dir / (f"{args.workload}-seed{args.seed}"
                          f"-trace{args.trace}.json")
    out_path.write_text(json.dumps(record), encoding="utf-8")

    print(json.dumps({"environment": env, "ops": record["ops"],
                      "failures": failures,
                      "record": str(out_path.relative_to(ROOT))}))
    print(json.dumps({"correct": not failures, "attempted": len(ops),
                      "failed": sum(op.failure is not None for op in ops),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
