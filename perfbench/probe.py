"""Runs one workload in a fresh interpreter and prints one JSON object.

    python3 perfbench/probe.py setup   --workload W --seed S
    python3 perfbench/probe.py measure --workload W --seed S --seconds T --trace 0|1

`setup` imports indsat from the checkout's src/ and builds the workload's
inputs, and reports how long that took.  `measure` does the same set-up,
then runs the workload: after its warm-up cycles, for --seconds with
tracing off, or, with --trace 1, a fixed amount of work once untraced and
once traced.  run.py starts these
processes, so that set-up is measured in fresh interpreters and the peak
memory of a measured run includes nothing of the stream generation.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import shutil
import sys
import tempfile
from itertools import islice
from pathlib import Path
from time import perf_counter_ns

import stream
from speed import RefClock
from tracer import Tracer
from workloads import WORKLOADS, Meter, run_cycles

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def import_library():
    """indsat from the checkout's src/, never an installed copy."""
    package = SRC / "indsat"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"probe: no indsat package at {package}")
    sys.path.insert(0, str(SRC))
    import indsat
    if Path(indsat.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"probe: imported indsat from {indsat.__file__}, not {package}")
    return indsat


def timed_setup(workload):
    """(library, inputs, set-up time): the time at reference speed as
    "setup_s", the wall time as "wall_setup_s"."""
    clock = RefClock().start()
    try:
        started = perf_counter_ns()
        lib = import_library()
        inputs = workload.setup(lib)
        ended = perf_counter_ns()
    finally:
        clock.stop()
    return lib, inputs, {"setup_s": (clock.ref_ns(ended) - clock.ref_ns(started)) / 1e9,
                         "wall_setup_s": (ended - started) / 1e9}


def percentile(sorted_values: list, share: float):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(1, math.ceil(share * len(sorted_values))) - 1]


def peak_rss_kb() -> int:
    """Peak resident memory of this process plus the largest peak among its
    finished children (the pool workers).  This process's own peak is read
    from VmHWM, which exec resets: ru_maxrss would also count the memory of
    the parent that forked it."""
    with open("/proc/self/status") as status:
        own = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
    return own + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


def measure(workload, seed: int, seconds: int) -> dict:
    """Throughput and latency percentiles at reference speed (see speed.py);
    the wall-clock figures go into the info line."""
    lib, inputs, setup = timed_setup(workload)
    warmup = Meter()
    run_cycles(islice(workload.cycles(lib, inputs, seed), workload.warmup_cycles), warmup)
    meter = Meter()
    meter.problems += [f"warm-up: {problem}" for problem in warmup.problems]
    stream.CACHE_DIR.mkdir(exist_ok=True)
    spool = Path(tempfile.mkdtemp(prefix="spool-", dir=stream.CACHE_DIR))
    clock = RefClock(spool).start()
    try:
        started = perf_counter_ns()
        run_cycles(workload.cycles(lib, inputs, seed), meter, seconds)
        ended = perf_counter_ns()
    finally:
        clock.stop()
        shutil.rmtree(spool, ignore_errors=True)
    elapsed_s = (ended - started) / 1e9
    ref_elapsed_s = (clock.ref_ns(ended) - clock.ref_ns(started)) / 1e9
    latencies = sorted(end - start for start, end in meter.intervals_ns)
    ref_latencies = sorted(clock.ref_ns(end) - clock.ref_ns(start)
                           for start, end in meter.intervals_ns)

    def ms(values, share):
        return percentile(values, share) / 1e6 if values else 0.0

    return {**setup, "attempted": meter.attempted, "failed": meter.failed,
            "problems": meter.problems, "elapsed_s": elapsed_s, "ref_elapsed_s": ref_elapsed_s,
            "slowness": clock.slowness(), "speed_samples": clock.samples(),
            "throughput_per_s": meter.attempted / ref_elapsed_s,
            "latency_p50_ms": ms(ref_latencies, 0.50),
            "latency_p99_ms": ms(ref_latencies, 0.99),
            "wall_throughput_per_s": meter.attempted / elapsed_s,
            "wall_latency_p50_ms": ms(latencies, 0.50),
            "wall_latency_p99_ms": ms(latencies, 0.99),
            "latency_samples": len(latencies), "peak_rss_mb": peak_rss_kb() / 1024}


def trace(workload, seed: int, seconds: int) -> dict:
    """Per-layer metrics from a traced pass, and the tracing overhead: the
    traced pass's wall time minus that of an untraced pass over the same work."""
    lib, inputs, setup = timed_setup(workload)
    plain = Meter()
    untraced_s = run_cycles(workload.trace_cycles(lib, inputs, seed, seconds), plain)
    stream.CACHE_DIR.mkdir(exist_ok=True)
    spool = Path(tempfile.mkdtemp(prefix="spool-", dir=stream.CACHE_DIR))
    tracer = Tracer(spool)
    meter = Meter(tracer)
    tracer.install()
    try:
        traced_s = run_cycles(workload.trace_cycles(lib, inputs, seed, seconds), meter)
    finally:
        tracer.uninstall()
        tracer.absorb_spool()
        shutil.rmtree(spool, ignore_errors=True)
    spans_file = stream.CACHE_DIR / f"spans-{workload.name}.tsv"
    tracer.write_spans(spans_file)
    metrics = tracer.layer_metrics()
    metrics["trace.overhead_s"] = traced_s - untraced_s
    metrics["trace.overhead_share"] = (traced_s - untraced_s) / untraced_s
    return {**setup, "attempted": plain.attempted + meter.attempted,
            "failed": plain.failed + meter.failed,
            "problems": plain.problems + meter.problems,
            "untraced_s": untraced_s, "traced_s": traced_s,
            "spans": len(tracer.start), "spans_file": str(spans_file.relative_to(HERE.parent)),
            "layers": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "measure"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.mode == "setup":
        out = timed_setup(workload)[2]
    elif args.trace:
        out = trace(workload, args.seed, args.seconds)
    else:
        out = measure(workload, args.seed, args.seconds)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
