"""Run one benchmark workload and print its metrics.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload fleet-ideal --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  End-to-end timings are scaled to a nominal host speed
(see ``perfbench/host.py``).  The line before the result is the run
envelope (machine, versions, settings, host calibration, unscaled
figures, sample counts).  Exits non-zero
without a result when the program's sources are missing or a run
cannot complete.
"""

import os
import time

_FIRST_STATEMENT = time.perf_counter()

import sys  # noqa: E402

# Settings the process must start with, so the launcher re-executes
# itself once with them.  BLAS/OpenMP pools of one thread: the services
# already run several worker threads on few cores, and default BLAS
# threads made the Monte-Carlo sweep swing by tens of percent run to
# run.  One malloc arena: with per-thread arenas, peak memory depended
# on which thread happened to free which buffer and split runs of the
# same inputs into two levels about 12 % apart.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "MALLOC_ARENA_MAX": "1",
}
if any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
    os.environ.update(PINNED_ENV)
    os.execv(sys.executable, sys.orig_argv)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NoReturn  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BUILDS = 3
# Seconds of each host-clock sample taken during set-up: few samples,
# so each is longer than the timed phase's.
SETUP_SAMPLE_S = 0.15


def process_age() -> float:
    """Seconds since this process started (kernel start time)."""
    try:
        stat = Path("/proc/self/stat").read_text()
        ticks = int(stat.rsplit(")", 1)[1].split()[19])
        return time.clock_gettime(time.CLOCK_BOOTTIME) - ticks / os.sysconf(
            "SC_CLK_TCK"
        )
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter() - _FIRST_STATEMENT


def host_calib_ms() -> float:
    """Median time of a fixed pure-Python loop: the host's speed now."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def fail(message: str) -> NoReturn:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program() -> float:
    """Import numpy and the program from this checkout; seconds taken."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        fail(f"no program sources under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(ROOT))
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    import repro.experiments.report  # noqa: F401
    import repro.fleet  # noqa: F401
    import repro.pipeline  # noqa: F401
    import repro.serve  # noqa: F401
    import repro

    elapsed = time.perf_counter() - t0
    if not Path(repro.__file__).resolve().is_relative_to(src.resolve()):
        fail(f"imported repro from {repro.__file__}, not from {src}")
    return elapsed


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def end_to_end(
    outcome, setup_s: float, clock=None, pauses=()
) -> dict[str, float]:
    """The end-to-end metrics; scaled to the nominal host speed when a
    ``clock`` is given (collector ``pauses`` unscaled), unscaled
    otherwise."""
    import numpy as np

    lat_ms = np.asarray(outcome.latencies) * 1e3
    busy_s = outcome.busy_s
    if clock is not None:
        lat_ms = clock.scaled(outcome.intervals, pauses) * 1e3
        busy_s = clock.scaled_s(outcome.busy, pauses)
    return {
        "setup_s": setup_s,
        "throughput_qps": outcome.answered / busy_s,
        "latency_p50_ms": float(np.percentile(lat_ms, 50)),
        "latency_p99_ms": float(np.percentile(lat_ms, 99)),
        "peak_rss_mb": peak_rss_mb(),
    }


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def envelope(
    args, workload, outcome, calib_before, calib_after, gcw, cpus, clock,
    unscaled,
) -> dict:
    import numpy
    import scipy

    head = ROOT / ".git" / "HEAD"
    sha = "unknown"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            target = ROOT / ".git" / ref[5:]
            sha = target.read_text().strip() if target.is_file() else ref
        else:
            sha = ref
    return {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "cpus_pinned": cpus,
        "pinned_env": {k: os.environ.get(k) for k in PINNED_ENV},
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "host_calib_ms_before": calib_before,
        "host_calib_ms_after": calib_after,
        "host_clock": clock.summary(),
        "unscaled": unscaled,
        "latency_samples": len(outcome.latencies),
        "latency_call": outcome.call,
        "throughput_units": outcome.units,
        "gc": gcw.metrics(),
    }


def pin_cpus(count: int | None) -> list[int]:
    """Restrict this process to ``count`` usable CPUs (all when None).

    The serving stacks are GIL-bound worker threads; spread over two
    cores they hand the interpreter lock back and forth and settle into
    run-long fast or slow modes.  On one core that mode is gone.
    """
    usable = sorted(os.sched_getaffinity(0))
    if count is not None and count < len(usable):
        usable = usable[-count:]
        os.sched_setaffinity(0, usable)
    return usable


def build_median(workload, builds: int, clock) -> float:
    """Build ``builds`` times (each replacing the last); median seconds.

    The clock samples the host before, between and after the builds.
    """
    times = []
    clock.sample(SETUP_SAMPLE_S)
    for _ in range(builds):
        t0 = time.perf_counter()
        workload.build()
        times.append(time.perf_counter() - t0)
        # Leave no garbage of the previous build to the next phase, so
        # collections in the timed phase collect that phase's garbage.
        gc.collect()
        clock.sample(SETUP_SAMPLE_S)
    return statistics.median(times)


def traced_phase(workload, seconds: float, gcw, clock):
    """Untraced half, then a traced build and half; both outcomes."""
    from perfbench.layers import install
    from perfbench.spans import Tracer

    plain = workload.run(seconds / 2, clock)
    spool = ROOT / f".perfbench-spool-{os.getpid()}"
    tracer = Tracer(spool=spool)
    try:
        install(tracer)
        workload.build()
        with gcw:
            traced = workload.run(seconds / 2, clock)
        workload.verify()
    finally:
        tracer.close()
        tracer.collect_children()
        for leftover in spool.glob("*"):
            leftover.unlink()
        spool.rmdir()
    return tracer, plain, traced


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        fail("--seconds must be positive")
    import_s = import_program()
    ready_s = process_age()

    from perfbench.host import NOMINAL_CHUNK_MS, HostClock
    from perfbench.spans import GCWatch
    from perfbench.workloads import WORKLOADS, CheckFailed

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; have {sorted(WORKLOADS)}")
    spec = load_spec()
    workload = WORKLOADS[args.workload](args.seed)
    cpus = pin_cpus(workload.CPUS)
    calib_before = host_calib_ms()
    clock = HostClock()
    gcw = GCWatch()
    correct = True
    try:
        setup_s = ready_s + build_median(workload, BUILDS, clock)
        setup_scaled = setup_s * NOMINAL_CHUNK_MS / statistics.median(
            clock.chunks
        )
        if args.trace:
            tracer, plain, outcome = traced_phase(
                workload, args.seconds, gcw, clock
            )
        else:
            with gcw:
                outcome = workload.run(args.seconds, clock)
            workload.verify()
        if not outcome.latencies:
            raise CheckFailed("no query was answered")
    except CheckFailed as exc:
        print(f"perfbench: output check failed: {exc}", file=sys.stderr)
        correct = False
    finally:
        workload.close()
    calib_after = host_calib_ms()
    if not correct:
        # The figures of a run whose answers are wrong mean nothing.
        print(json.dumps({
            "correct": False, "attempted": 1, "failed": 1, "metrics": {},
        }))
        return 0

    if args.trace:
        from perfbench.layers import per_layer_metrics

        extra = dict(outcome.extra)
        extra.update(gcw.metrics())
        extra["py.import_s"] = import_s
        extra["host.calib_ms"] = (calib_before + calib_after) / 2
        # Extra time per query under tracing, from the two halves.
        extra["trace.overhead_pct"] = 100.0 * (
            (plain.answered / clock.scaled_s(plain.busy))
            / (outcome.answered / clock.scaled_s(outcome.busy)) - 1.0
        )
        values = per_layer_metrics(
            tracer, outcome.batch_sizes, outcome.queue_waits, extra
        )
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        values = end_to_end(outcome, setup_scaled, clock, gcw.intervals)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    print(json.dumps({"envelope": envelope(
        args, workload, outcome, calib_before, calib_after, gcw, cpus, clock,
        unscaled=end_to_end(outcome, setup_s),
    )}))
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.attempted - outcome.answered,
        "metrics": {
            name: {"value": values[name], "unit": units[name]}
            for name in units
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
