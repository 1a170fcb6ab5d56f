"""Build perfbench/reftimes.json: the reference engine's times on the
reference machine, by which run.py scales its measured ratios.

    python3 perfbench/make_reftimes.py

For each workload the reference engine (refengine/, in a child process as in
run.py) warms up, then runs the pool PASSES times; a request's time is its
median.  The set-up time, one for all workloads (they differ only in the
requests generated), is the median over SETUPS_PER_PASS fresh processes
before each pass of each workload.  The file is made once and committed:
every figure run.py reports is relative to it, so remaking it rescales them
all.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402

PASSES = 12
SETUPS_PER_PASS = 6


def measure(workload: str) -> tuple[list[float], dict]:
    """The reference engine's set-up times, and its request times by id."""
    _, _, reqs, _ = run.setup(workload, 0, "ref")
    run.setup_once(workload, 0, "ref")
    setups = []
    times: dict[str, list[float]] = {rid: [] for rid, _ in reqs}
    with run.RefEngine(workload, 0) as ref:
        for _, argv in reqs:
            ref.run(argv)
        for _ in range(PASSES):
            setups += [run.setup_once(workload, 0, "ref") for _ in range(SETUPS_PER_PASS)]
            for rid, argv in reqs:
                times[rid].append(ref.run(argv))
    return setups, {rid: statistics.median(ts) for rid, ts in sorted(times.items())}


def main() -> None:
    run.pin_to_one_cpu()
    out = {"about": "Seconds of the reference engine (refengine/) per request and per "
                    f"set-up, medians of {PASSES} passes after one warm-up pass and of "
                    f"{SETUPS_PER_PASS * PASSES * len(workloads.WORKLOADS)} set-ups; "
                    f"{platform.processor() or platform.machine()}, "
                    f"{os.cpu_count()} CPUs, Python {platform.python_version()}.",
           "workloads": {}}
    setups = []
    for name in workloads.WORKLOADS:
        times, out["workloads"][name] = measure(name)
        print(name, "set-up", statistics.median(times), flush=True)
        setups += times
    out["setup_s"] = statistics.median(setups)
    with open(os.path.join(HERE, "reftimes.json"), "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
