"""polarlens benchmark: one seeded workload per process, closed loop.

Run from the repository root:

    python3 perfbench/run.py --workload bsc7-grid --seed 0 --seconds 20 --trace 0

The process imports the library from this checkout's ``src/`` and nothing
else, builds the workload's inputs from ``--seed``, then repeats the
workload's fixed work ("a round") back to back until ``--seconds`` have
passed; every round runs at least once.  Each op of a round is checked
for correctness, and an op that raises, exits nonzero or misses a check
counts as one failure without stopping the run.

``--trace 0`` reports the end-to-end metrics (no wrappers are installed).
``--trace 1`` runs a warm-up round, one untraced round, one traced round
and a per-order-class re-run of the split kernel, reports the per-layer metrics, and
writes the spans to ``.perfbench-out/``.  The last stdout line is the
result object; the line before it records the provenance of the run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"

WORKLOADS = ("bsc7-grid", "bec7-moments", "verify-mix")

#: Set-up is timed in this many fresh interpreters besides the run itself.
SETUP_PROBES = 4

# Single-threaded baseline: pinned before numpy is first imported.
for _var in ("POLARLENS_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

#: glibc adapts its mmap and trim thresholds to the history of freed block
#: sizes, so the same work can peak 13% higher in RSS depending on the
#: order of its allocations.  Fixing them at the ceilings the adaptation
#: converges to (32 MiB, 64 MiB) keeps the speed and makes the peak a
#: function of the work.  Read by the C library at start-up only.
MALLOC_ENV = {"MALLOC_MMAP_THRESHOLD_": "33554432", "MALLOC_TRIM_THRESHOLD_": "67108864"}


class CheckoutError(RuntimeError):
    """The checkout does not hold the library sources the benchmark needs."""


def use_checkout_library():
    """Import polarlens from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "polarlens" / "__init__.py").is_file():
        raise CheckoutError(f"no library sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import polarlens

    if Path(polarlens.__file__).resolve().parent != SRC / "polarlens":
        raise CheckoutError(f"polarlens was imported from {polarlens.__file__}, not {SRC}")
    return polarlens


def setup(workload: str, seed: int, workdir: Path):
    """Import the library and build the workload's inputs; returns (workload, seconds)."""
    t0 = time.perf_counter()
    use_checkout_library()
    import workloads

    wl = workloads.build(workload, seed, workdir)
    return wl, time.perf_counter() - t0


def run_op(name: str, fn) -> bool:
    """Run one op; any exception or reported problem is one failure."""
    try:
        problems = fn()
    except Exception:  # the loop must go on: a crashing op is a counted failure
        problems = [traceback.format_exc()]
    for msg in problems:
        print(f"op {name} failed: {msg}", file=sys.stderr)
    return not problems


def run_round(ops) -> tuple[int, int]:
    """Run every op of one round once; returns (attempted, failed)."""
    failed = sum(not run_op(name, fn) for name, fn in ops)
    return len(ops), failed


def closed_loop(ops, seconds: float):
    """Repeat rounds until ``seconds`` have passed; returns (round times, attempted, failed)."""
    times = []
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        a, f = run_round(ops)
        times.append(time.perf_counter() - t0)
        attempted += a
        failed += f
        if time.perf_counter() >= deadline:
            return times, attempted, failed


def probe_setup_seconds(workload: str, seed: int) -> list[float]:
    """Set-up time of fresh interpreters, each importing and building inputs."""
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def provenance(args, rounds: int) -> dict:
    import mpmath
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    src_loc = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py"))
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": rounds,
        "nproc": os.cpu_count(),
        "polarlens_threads": os.environ["POLARLENS_THREADS"],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "cpu_model": cpu,
        "git_commit": commit,
        "src_loc": src_loc,
    }


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(args, wl, setup_s: float) -> tuple[dict, int, int, int]:
    setups = probe_setup_seconds(args.workload, args.seed) + [setup_s]
    times, attempted, failed = closed_loop(wl.ops(), args.seconds)
    metrics = {
        "solve_s": metric(statistics.median(times), "s"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mib": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        "ok_frac": metric((attempted - failed) / attempted, "ratio"),
    }
    return metrics, attempted, failed, len(times)


def per_layer(args, wl) -> tuple[dict, int, int, int]:
    import tracing
    import workloads

    ops = wl.ops()
    counts = [run_round(ops)]  # warm-up: first calls pay one-off costs
    t0 = time.perf_counter()
    counts.append(run_round(ops))
    untraced_s = time.perf_counter() - t0

    tracer = tracing.Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        counts.append(run_round(tracer.suite_spans(ops)))
        traced_s = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    counts.append((1, int(not run_op("split-by-class", tracer.split_by_class))))

    metrics = tracing.layer_metrics(tracer, untraced_s, traced_s)
    levels = tracer.level_shape() if isinstance(wl, workloads.Sweep) else []
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps({
        "provenance": provenance(args, 3),
        "levels": levels,
        "metrics": metrics,
        "spans": tracer.span_records(),
    }) + "\n", encoding="utf-8")
    print(json.dumps({"levels": levels, "spans_file": str(path.relative_to(ROOT))}))
    return metrics, sum(a for a, _ in counts), sum(f for _, f in counts), 3


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")

    workdir = ROOT / f".perfbench-work-{os.getpid()}"
    try:
        wl, setup_s = setup(args.workload, args.seed, workdir)
    except CheckoutError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    try:
        if args.probe_setup:
            print(repr(setup_s))
            return 0
        if args.trace:
            metrics, attempted, failed, rounds = per_layer(args, wl)
        else:
            metrics, attempted, failed, rounds = end_to_end(args, wl, setup_s)
    finally:
        wl.close()
    print(json.dumps({"provenance": provenance(args, rounds)}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    if any(os.environ.get(k) != v for k, v in MALLOC_ENV.items()):
        os.environ.update(MALLOC_ENV)
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.exit(main())
