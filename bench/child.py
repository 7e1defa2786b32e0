"""One cold workload process.

Reads a JSON request on stdin, imports the program from <root>/src, builds
the workload's shared state, runs its checks, and prints one JSON line.
The timestamps are time.monotonic() values, a clock shared by every process
on the machine, so the parent can measure from the moment it launched this
process.  The oracle runs after the clock and getrusage have been read, so
its cost is in no metric.
"""

import time

T_ENTRY = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main():
    request = json.load(sys.stdin)
    root = Path(request["root"])
    sys.path.insert(0, str(root / "src"))
    import workloads

    workload = workloads.WORKLOADS[request["workload"]]
    inputs = request["inputs"]
    tracer = None
    if request["trace"] or request["mode"] == "warm":
        import tracer as tracing

        for module in ("grothendieck", "matrices", "partitions", "peterson", "polynomials",
                       "quantum", "symfunc", "toda"):
            __import__(f"kpeterson.{module}")
        if request["mode"] == "warm":
            print("{}")
            return
        tracer = tracing.Tracer()
        tracer.install()

    state = workload.setup(inputs)
    t_setup = time.monotonic()
    result = {"t_entry": T_ENTRY, "t_setup": t_setup}
    if request["mode"] == "setup":
        print(json.dumps(result))
        return
    state.update(inputs=inputs, root=root)
    log, outputs = workload.checks(state)
    result["t_checks"] = time.monotonic()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        result["trace"] = tracer.snapshot()
    made, mismatches = workload.oracle(inputs, state, outputs)
    result.update(
        attempted=log.attempted,
        failed=log.failed,
        errors=log.errors[:5],
        oracle_checks=made,
        mismatches=mismatches[:5],
        mismatch_count=len(mismatches),
    )
    print(json.dumps(result))


if __name__ == "__main__":
    main()
