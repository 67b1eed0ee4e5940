"""The indsat benchmark: one workload, one JSON result line.

    python3 perfbench/run.py --workload sweep8 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

With --trace 0 the last line of standard output holds the end-to-end
metrics; with --trace 1 it holds the per-layer metrics of a traced run.
The line before it ("info") gives the machine facts, the item definition
and sample counts, and any correctness problems.  `--workload all` runs
every workload in turn and prints each metric by name with its unit.

The benchmark imports indsat from src/ next to this directory; it exits with
code 2, printing no result, when that package is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

import stream
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_PROBES = 8           # fresh interpreters timed for setup_s, besides the measured one
TIME_LIMIT_S = 170.0       # a run must end within 180 s

END_TO_END_UNITS = {
    "setup_s": "s", "ref_throughput_per_s": "1/s", "ref_latency_p50_ms": "ms",
    "ref_latency_p99_ms": "ms", "peak_rss_mb": "MB", "ok_ratio": "ratio",
}


class ProbeError(RuntimeError):
    pass


def layer_unit(name: str) -> str:
    if name.endswith(".calls"):
        return "count"
    if name.endswith("_s"):
        return "s"
    if name.endswith(".calls_per_graph"):
        return "calls/graph"
    return "ratio"


def run_probe(args: list[str], deadline: float) -> dict:
    """Run probe.py in its own process group; kill the group on timeout."""
    proc = subprocess.Popen([sys.executable, str(HERE / "probe.py"), *args],
                            stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ProbeError(f"probe {args[0]} ran past the time limit")
    if proc.returncode != 0:
        raise ProbeError(f"probe {args[0]} exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((SRC / "indsat").glob("*.py")))


def run_workload(name: str, seed: int, seconds: int, traced: bool) -> tuple[dict, dict]:
    """(info, result) for one run of one workload."""
    deadline = monotonic() + TIME_LIMIT_S
    workload = WORKLOADS[name]
    cache = "unused"
    if workload.uses_stream:
        cache = "warm" if stream.load()[1] else "cold"
    common = ["--workload", name, "--seed", str(seed)]
    setups = [] if traced else [run_probe(["setup", *common], deadline)
                                for _ in range(SETUP_PROBES)]
    out = run_probe(["measure", *common, "--seconds", str(seconds),
                     "--trace", str(int(traced))], deadline)
    attempted, failed = out["attempted"], out["failed"]
    info = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(traced),
            "item": workload.item, "attempted": attempted, "failed": failed,
            "problems": out["problems"], "cpu_count": os.cpu_count(),
            "python": platform.python_version(), "stream_cache": cache,
            "src_indsat_lines": src_lines()}
    if traced:
        metrics = {key: {"value": value, "unit": layer_unit(key)}
                   for key, value in out["layers"].items()}
        info.update({key: out[key] for key in ("untraced_s", "traced_s", "spans", "spans_file")})
    else:
        setups.append(out)
        values = {"setup_s": statistics.median(setup["setup_s"] for setup in setups),
                  "ref_throughput_per_s": out["throughput_per_s"],
                  "ref_latency_p50_ms": out["latency_p50_ms"],
                  "ref_latency_p99_ms": out["latency_p99_ms"],
                  "peak_rss_mb": out["peak_rss_mb"],
                  "ok_ratio": (attempted - failed) / attempted if attempted else 0.0}
        metrics = {key: {"value": value, "unit": END_TO_END_UNITS[key]}
                   for key, value in values.items()}
        info.update({key: out[key] for key in (
            "elapsed_s", "ref_elapsed_s", "slowness", "speed_samples", "wall_throughput_per_s",
            "wall_latency_p50_ms", "wall_latency_p99_ms", "latency_samples")})
        info["setup_samples"] = [setup["setup_s"] for setup in setups]
        info["wall_setup_samples"] = [setup["wall_setup_s"] for setup in setups]
    result = {"correct": failed == 0 and not out["problems"] and attempted > 0,
              "attempted": attempted, "failed": failed, "metrics": metrics}
    return info, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "indsat" / "__init__.py").is_file():
        print(f"run.py: no indsat package under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            info, result = run_workload(name, args.seed, args.seconds, bool(args.trace))
            print(json.dumps({"info": info}))
            if args.workload == "all":
                for key, metric in result["metrics"].items():
                    print(f"{name:18} {key:52} {metric['value']:>14.6g} {metric['unit']}")
            results[name] = result
    except (ProbeError, stream.StreamError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results if args.workload == "all" else results[names[0]]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
