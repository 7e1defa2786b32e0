"""Benchmark for exact Peterson-map verification.

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1
                         [--repeat K]

Each workload is a closed loop of cold processes (bench/child.py), one after
the other, while another round still fits in S seconds (at least one round);
every process builds its set-up,
runs one round of checks and is checked by the oracle.  The end-to-end
metrics are medians over the processes of one run.  With --trace 1 the run
makes one untraced and one traced process on the same inputs and reports the
per-layer metrics of bench/tracer.py.  --repeat K makes K runs on seeds
N..N+K-1 and prints each metric's median and quartiles.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
sys.pycache_prefix = str(BUILD / "pycache")

import tracer  # noqa: E402
import workloads  # noqa: E402

CHILD_TIMEOUT_S = 170


class BenchError(RuntimeError):
    pass


def run_child(workload: str, inputs, mode: str, trace: bool = False) -> dict:
    """Launch one workload process and return its report with the times
    measured from the launch."""
    request = {"root": str(ROOT), "workload": workload, "inputs": inputs, "mode": mode, "trace": trace}
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPYCACHEPREFIX=str(BUILD / "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # an installed kpet has its byte-code cached
    launched = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(ROOT / "bench" / "child.py")],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        cwd=ROOT,
        env=env,
    )
    try:
        out, err = proc.communicate(json.dumps(request).encode(), timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{workload}: process exceeded {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload}: process exited {proc.returncode}: {err.decode()[-2000:]}")
    report = json.loads(out.decode().strip().splitlines()[-1])
    if mode == "warm":
        return report
    report["setup_s"] = report["t_setup"] - launched
    if mode == "full":
        report["total_s"] = report["t_checks"] - launched
        report["verify_s"] = report["t_checks"] - report["t_setup"]
    return report


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run: the result object printed on the last line."""
    wl = workloads.WORKLOADS[name]
    run_child(name, None, "warm")  # compiles the byte-code caches once
    fulls = []
    if trace:
        inputs = wl.inputs(seed, 0)
        plain = run_child(name, inputs, "full")
        traced = run_child(name, inputs, "full", trace=True)
        fulls = [plain, traced]
        metrics = dict(traced["trace"])
        metrics["trace.overhead_s"] = traced["total_s"] - plain["total_s"]
        units = dict(tracer.PER_LAYER)
    else:
        # whole rounds while another one of the same length still fits
        start, round_s = time.monotonic(), 0.0
        while not fulls or time.monotonic() - start + round_s <= seconds:
            began = time.monotonic()
            fulls.append(run_child(name, wl.inputs(seed, len(fulls)), "full"))
            round_s = time.monotonic() - began
        setups = [r["setup_s"] for r in fulls]
        while len(setups) < wl.setup_repeats:
            setups.append(run_child(name, wl.inputs(seed, 0), "setup")["setup_s"])
        metrics = {
            "total_s": statistics.median(r["total_s"] for r in fulls),
            "setup_s": statistics.median(setups),
            "verify_s": statistics.median(r["verify_s"] for r in fulls),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in fulls),
        }
        units = dict(workloads.END_TO_END)
    for r in fulls:
        for message in r["errors"] + r["mismatches"]:
            print(f"# {name}: {message}", file=sys.stderr)
    return {
        "correct": all(r["mismatch_count"] == 0 for r in fulls),
        "attempted": sum(r["attempted"] for r in fulls),
        "failed": sum(r["failed"] for r in fulls),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "processes": len(fulls),
        "oracle_checks": sum(r["oracle_checks"] for r in fulls),
    }


def header(args) -> list:
    sys.path.insert(0, str(ROOT / "src"))
    from kpeterson.scalars import Rational

    backend = f"{Rational.__module__}.{Rational.__qualname__}"
    return [
        f"# kpeterson benchmark: workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds} trace={args.trace} repeat={args.repeat}",
        f"# scalar backend (kpeterson.scalars.Rational) = {backend}; "
        f"python {platform.python_version()}; nproc {len(os.sched_getaffinity(0))}",
    ]


def print_run(name: str, seed: int, result: dict):
    print(
        f"{name} seed={seed}: attempted {result['attempted']} checks, failed {result['failed']}, "
        f"oracle {'agrees' if result['correct'] else 'DISAGREES'} ({result['oracle_checks']} checks), "
        f"{result['processes']} process(es)"
    )
    for metric, entry in result["metrics"].items():
        print(f"  {name} {metric} = {entry['value']:.6g} {entry['unit']}")


def quartile_table(name: str, results: list):
    """Median, quartiles and (q3 - q1) / median of each metric over runs."""
    summary = {}
    for metric in results[0]["metrics"]:
        values = [r["metrics"][metric]["value"] for r in results]
        unit = results[0]["metrics"][metric]["unit"]
        q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
        spread = (q3 - q1) / med if med else 0.0
        print(
            f"  {name} {metric}: median {med:.6g} {unit}, quartiles {q1:.6g} .. {q3:.6g}, "
            f"spread {spread:.3%} over {len(values)} runs"
        )
        summary[metric] = {"value": med, "unit": unit}
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "kpeterson" / "__init__.py").is_file():
        print(f"error: the program is missing: no {ROOT / 'src' / 'kpeterson'}", file=sys.stderr)
        return 2
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")

    for line in header(args):
        print(line)
    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    final = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            results = []
            for k in range(args.repeat):
                seed = args.seed + k
                results.append(run_workload(name, seed, args.seconds, bool(args.trace)))
                print_run(name, seed, results[-1])
            metrics = quartile_table(name, results) if args.repeat > 1 else results[0]["metrics"]
            final["correct"] &= all(r["correct"] for r in results)
            final["attempted"] += sum(r["attempted"] for r in results)
            final["failed"] += sum(r["failed"] for r in results)
            prefix = "" if len(names) == 1 else name + "."
            final["metrics"].update({prefix + k: v for k, v in metrics.items()})
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
