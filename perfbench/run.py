"""fklab benchmark: four seeded closed-loop workloads, one client, one process.

Run from the repository root:

    python3 perfbench/run.py --workload heff|dobrushin|mc|contours \
        --seed N --seconds S --trace 0|1

A run sets up its inputs from the seed, then runs tasks back to back (each
waits for the previous one) until ``--seconds`` have passed, stopping on a
whole cycle of task shapes.  Every task's output is checked; a task that
raises or fails a check counts as failed.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json from an
untraced run.  ``--trace 1`` runs every task twice, untraced and then traced,
within the same ``--seconds``; it reports the per-layer metrics of
BENCHMARK.json and ``trace.overhead_frac`` (traced over untraced task time,
minus one), and writes every span to ``perfbench/out/``.  A per-layer metric
``<span>.ms`` is the mean self time of that span; one of a call the workload
never makes reads 0.

The last stdout line is the result object.  The line before it is a report:
the machine and build stamp, the sample count, task_p50_ms and task_p90_ms
(--trace 0), fail_frac and the first failures.
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
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREADS = 1      # held fixed, below nproc, so BLAS never competes with the task loop
SETUP_REPS = 5        # setup_s: median import time plus median setup time over this many tries
# numpy is imported before the clock starts: its import is not fklab's set-up,
# and it swings with the page cache of the host
IMPORT_PROBE = ("import sys, time, numpy; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import fklab; print(time.perf_counter() - t)")


class Run:
    """Task times, results and problems of one measured pass."""

    def __init__(self):
        self.times: list[float] = []
        self.results: list = []
        self.problems: list[list[str]] = []

    @property
    def failed(self) -> int:
        return sum(1 for p in self.problems if p)

    @property
    def units(self) -> float:
        return sum(r["units"] for r in self.results if r)


def measure(wl, state, tracers, seconds: float) -> list[Run]:
    """Run tasks 0, 1, ... in a closed loop, in whole cycles until ``seconds``
    have passed.  With several tracers each task runs once under each, back to
    back, so slow drifts of the machine hit every tracer alike."""
    runs = [Run() for _ in tracers]
    start = time.perf_counter()
    i = 0
    while not (i and i % wl.cycle == 0 and time.perf_counter() - start >= seconds):
        for tracer, run in zip(tracers, runs):
            t0 = time.perf_counter()
            try:
                with tracer.span("bench.task", task=i):
                    result = wl.task(state, i, tracer)
            except Exception as exc:   # a failing task is counted, and the run goes on
                run.times.append(time.perf_counter() - t0)
                if not run.failed:
                    traceback.print_exc()
                result, problems = None, [f"raised {exc!r}"]
            else:
                run.times.append(time.perf_counter() - t0)
                problems = wl.check(state, result, run.results)
            run.results.append(result)
            run.problems.append(problems)
        i += 1
    return runs


def import_seconds() -> float:
    """Median time to import fklab in a fresh interpreter."""
    times = []
    for _ in range(SETUP_REPS):
        probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src")],
                               capture_output=True, text=True, timeout=120, check=True)
        times.append(float(probe.stdout))
    return statistics.median(times)


def stamp(seed: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        vendor = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = dirty = None
    if (ROOT / ".git").exists():
        def git(*args):
            return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                                  text=True, timeout=60).stdout.strip()
        commit = git("rev-parse", "HEAD") or None
        dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "fklab").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": vendor,
        "blas_threads": BLAS_THREADS,
        "git_commit": commit,
        "git_dirty": dirty,
        "src_sha256": src.hexdigest(),
        "seed": seed,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("need --seed >= 0 and --seconds > 0")

    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import fklab
    except ImportError as exc:
        print(f"cannot import fklab from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if ROOT / "src" not in Path(fklab.__file__).resolve().parents:
        print(f"fklab was imported from {fklab.__file__}, not from this checkout", file=sys.stderr)
        return 2
    import spans
    import workloads

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"unknown workload {args.workload!r}; have {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    report = {"workload": wl.name, "trace": args.trace, "stamp": stamp(args.seed)}
    if not args.trace:
        import_s = import_seconds()
        setups = []
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            state = wl.setup(args.seed, spans.NULL)
            setups.append(time.perf_counter() - t0)
        runs = measure(wl, state, [spans.NULL], args.seconds)
        times = runs[0].times
        values = {
            "setup_s": import_s + statistics.median(setups),
            "units_per_s": runs[0].units / sum(times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        declared = bench["end_to_end"]
        # Task percentiles go to the report line, not to the gated metrics: the
        # host switches between speed states, and a median of one run jumps
        # between them where the mean (units_per_s) moves smoothly.  A
        # percentile is given only with at least ten samples beyond it.
        report["task_p50_ms"] = statistics.median(times) * 1e3
        report["task_p90_ms"] = (statistics.quantiles(times, n=10)[-1] * 1e3
                                 if len(times) >= 100 else None)
    else:
        tracer = spans.Tracer()
        with tracer.span("bench.setup"):
            state = wl.setup(args.seed, tracer)
        runs = plain, traced = measure(wl, state, [spans.NULL, tracer], args.seconds)
        wl.probe(state, traced.results, tracer)
        values = {m["name"]: tracer.mean_ms(m["name"][:-len(".ms")])
                  for m in bench["per_layer"] if m["name"].endswith(".ms")}
        values.update(wl.layer_metrics(tracer, traced.results))
        values["trace.overhead_frac"] = sum(traced.times) / sum(plain.times) - 1.0
        declared = bench["per_layer"]
        tasks = len(traced.times)
        report["layer_self_ms_per_task"] = {
            k: v / tasks for k, v in sorted(tracer.layer_self_ms().items())}

    unknown = set(values) - {m["name"] for m in declared}
    if unknown:
        print(f"metrics missing from BENCHMARK.json: {sorted(unknown)}", file=sys.stderr)
        return 2
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in declared}
    attempted = sum(len(r.times) for r in runs)
    failed = sum(r.failed for r in runs)
    report.update({
        "samples": len(runs[-1].times),
        "units": runs[-1].units,
        "fail_frac": failed / attempted,
        "failures": [p for r in runs for p in r.problems if p][:5],
    })
    print(json.dumps(report))
    if args.trace:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        with open(out_dir / f"trace-{wl.name}-{args.seed}.json", "w") as f:
            json.dump({"report": report, "metrics": values, "spans": tracer.to_json()}, f)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
