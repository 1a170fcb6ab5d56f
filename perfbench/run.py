"""The padic-cells benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all --seed N --seconds S [--trace 0|1]

One client calls padic_cells.cli.main(argv) in-process, in a closed loop:
the next request starts when the previous one has returned.  Requests come
from the workload's pool in a seeded order (workloads.py); stdout is
captured, and after the timed passes every output is checked against
expected.json.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.

Times are measured against a reference engine: refengine/ is a frozen copy
of padic_cells as it was when the benchmark was written, served by a child
process.  Every request, and every set-up, runs on both engines in turn,
never at once, and a time is reported as its ratio to the reference
engine's time next to it, multiplied by the reference engine's time on the
reference machine (reftimes.json).  The raw times are printed too, on the
lines above the result.

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1
alternates untraced and traced passes and reports the per-layer metrics
(tracing.py).  --all runs each workload in a fresh process, one after the
other, and prints the metrics of all of them.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, HERE)

import reference  # noqa: E402
import workloads  # noqa: E402

SETUP_PAIRS = 9
WARMUP_S = 3.0


def call_cli(main, argv: list[str]) -> tuple[int, str]:
    """One request to the CLI entry point `main`: (exit code, captured
    stdout).  A traceback is exit 1."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed request, not a failed run
            rc = 1
    return rc, out.getvalue()


def import_cli(engine: str):
    """The cli module of the program (`live`, padic_cells under src/) or of
    the frozen reference engine (`ref`)."""
    if engine == "ref":
        from refengine import cli
        return cli
    if not os.path.isdir(os.path.join(SRC, "padic_cells")):
        raise SystemExit(f"no padic_cells sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    from padic_cells import cli
    return cli


def pin_to_one_cpu() -> None:
    """Keep this process, and the processes it starts, on one CPU.  The
    virtual CPUs of a shared host run at different speeds at the same
    moment: with the two engines free to run on different CPUs, the times of
    the same request on each, taken one after the other, correlated at 0.14;
    on one CPU, at 0.8."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def setup(workload: str, seed: int, engine: str = "live"):
    """Import the engine, generate the requests and load the expected
    answers; returns (cli module, expected answers by id, requests, seconds)."""
    t0 = time.perf_counter()
    cli = import_cli(engine)
    with open(os.path.join(HERE, "expected.json")) as fh:
        pool = json.load(fh)["workloads"][workload]
    reqs = workloads.requests(pool, seed)
    return cli, {e["id"]: e for e in pool}, reqs, time.perf_counter() - t0


def setup_once(workload: str, seed: int, engine: str) -> float:
    """The set-up time of one fresh process on `engine`."""
    done = subprocess.run(
        [sys.executable, __file__, "--setup-only", engine, "--workload", workload,
         "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


def setup_pairs(workload: str, seed: int, pairs: int) -> list[tuple[float, float]]:
    """(live, reference) set-up times of `pairs` pairs of fresh processes,
    the engine that goes first alternating; one unrecorded pair first
    compiles both engines' bytecode."""
    out = []
    for k in range(-1, pairs):
        first, second = ("live", "ref") if k % 2 == 0 else ("ref", "live")
        times = {first: setup_once(workload, seed, first)}
        times[second] = setup_once(workload, seed, second)
        if k >= 0:
            out.append((times["live"], times["ref"]))
    return out


class RefEngine:
    """The reference engine in a child process, one request at a time: it
    reads an argv as a JSON line and answers with its exit code and the
    request's seconds.  The child runs only while the parent waits for it."""

    def __init__(self, workload: str, seed: int):
        self.proc = subprocess.Popen(
            [sys.executable, __file__, "--serve", "--workload", workload,
             "--seed", str(seed)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv: list[str]) -> float:
        self.proc.stdin.write(json.dumps(argv) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the reference engine exited")
        rc, seconds = line.split()
        if rc != "0":
            raise RuntimeError(f"the reference engine failed on {argv}")
        return float(seconds)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def serve() -> None:
    """The child side of RefEngine."""
    main = import_cli("ref").main
    gc.freeze()
    for line in sys.stdin:
        argv = json.loads(line)
        t0 = time.perf_counter()
        rc, _ = call_cli(main, argv)
        seconds = time.perf_counter() - t0
        sys.stdout.write(f"{rc} {seconds!r}\n")
        sys.stdout.flush()


class Client:
    """The closed-loop client: runs passes over the request list."""

    def __init__(self, cli, reqs):
        self.cli = cli
        self.reqs = reqs

    def run(self, argv):
        return call_cli(self.cli.main, argv)

    def warm_up(self, seconds: float, ref: RefEngine | None = None) -> None:
        end = time.perf_counter() + seconds
        for _, argv in reversed(self.reqs):
            self.run(argv)
            if ref is not None:
                ref.run(argv)
            if time.perf_counter() >= end:
                return

    def one_pass(self):
        """(wall seconds, [(id, exit code, stdout, latency seconds)])."""
        results = []
        start = time.perf_counter()
        for rid, argv in self.reqs:
            t0 = time.perf_counter()
            rc, out = self.run(argv)
            results.append((rid, rc, out, time.perf_counter() - t0))
        return time.perf_counter() - start, results

    def paired_passes(self, ref: RefEngine, deadline: float):
        """Passes over the request list, each request run on this engine and
        on `ref` in turn, the one that goes first alternating, until
        `deadline` (the first pass always completes; the last may stop
        part-way).  Returns passes of (id, exit code, stdout, latency
        seconds, reference seconds)."""
        passes = []
        while True:
            results = []
            passes.append(results)
            for i, (rid, argv) in enumerate(self.reqs):
                if len(passes) > 1 and time.perf_counter() >= deadline:
                    return [results for results in passes if results]
                if (i + len(passes)) % 2:
                    ref_s = ref.run(argv)
                t0 = time.perf_counter()
                rc, out = self.run(argv)
                latency = time.perf_counter() - t0
                if (i + len(passes)) % 2 == 0:
                    ref_s = ref.run(argv)
                results.append((rid, rc, out, latency, ref_s))


def keep_going(pass_times: list[float], seconds: float) -> bool:
    """Another pass while a pass of the median length still ends within
    `seconds`."""
    return sum(pass_times) + statistics.median(pass_times) <= seconds


def check(expected: dict, results) -> tuple[int, int]:
    """(failed requests, cells returned) for one pass; a request fails if it
    exits non-zero or its answer differs from expected.json."""
    failed = cells = 0
    for rid, rc, out, *_ in results:
        entry = expected[rid]
        try:
            payload = json.loads(out)
            answer = reference.answer_of(entry, payload)
        except (ValueError, KeyError, TypeError):  # no output, or not the schema
            answer = None
        if rc != 0 or answer != entry["answer"]:
            failed += 1
            continue
        cells += len(payload.get("cells", ()))
    return failed, cells


def report(metrics: dict, correct: bool, attempted: int, failed: int) -> dict:
    """Print the metrics for people; return the result object."""
    for name, (value, unit) in metrics.items():
        print(f"  {name} {value:.6g} {unit}")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def hd_quantile(values: list[float], q: float, steps: int = 16) -> float:
    """The Harrell-Davis estimate of the q-quantile: the mean of the order
    statistics weighted by a Beta((n+1)q, (n+1)(1-q)) distribution, each
    weight integrated by Simpson's rule.  A pool's latencies come in
    clusters, and a sample percentile that falls in a gap between two
    clusters jumps from one to the other under small noise; this estimate
    moves smoothly."""
    xs = sorted(values)
    n = len(xs)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def density(x: float) -> float:
        if not 0 < x < 1:
            return 0.0
        return math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_beta)

    h = 1 / (n * steps)
    total = 0.0
    for i, x in enumerate(xs):
        lo = i / n
        inner = sum((4 if k % 2 else 2) * density(lo + k * h) for k in range(1, steps))
        total += x * (density(lo) + inner + density(lo + 1 / n)) * h / 3
    return total


def latency_figures(latencies: list[float]) -> tuple[float, float, float]:
    """(requests per second, p50 ms, p90 ms) of per-request latencies."""
    return (len(latencies) / sum(latencies), hd_quantile(latencies, 0.5) * 1e3,
            hd_quantile(latencies, 0.9) * 1e3)


def load_reftimes(workload: str) -> tuple[float, dict]:
    """The reference engine's set-up seconds and request seconds by id, on
    the reference machine."""
    with open(os.path.join(HERE, "reftimes.json")) as fh:
        ref = json.load(fh)
    return ref["setup_s"], ref["workloads"][workload]


def end_to_end(workload: str, seed: int, seconds: float) -> dict:
    """Set-up pairs, a warm-up, then paired passes until `seconds` after
    the start."""
    cli, expected, reqs, _ = setup(workload, seed)
    start = time.perf_counter()
    pin_to_one_cpu()
    # The benchmark's own data (expected answers, generated requests) is
    # kept out of the collector's way, as in the reference engine's process.
    gc.freeze()
    ref_setup_s, ref_times = load_reftimes(workload)
    setups = setup_pairs(workload, seed, SETUP_PAIRS)
    client = Client(cli, reqs)
    with RefEngine(workload, seed) as ref:
        client.warm_up(WARMUP_S, ref)
        passes = client.paired_passes(ref, start + seconds)
    checks = [check(expected, results) for results in passes]
    failed = sum(f for f, _ in checks)
    attempted = sum(len(results) for results in passes)
    samples: dict[str, list] = {rid: [] for rid, _ in reqs}
    for results in passes:
        for rid, _, _, latency, ref_s in results:
            samples[rid].append((latency, ref_s))
    # A request's latency on the reference machine: its median ratio to the
    # reference engine, times the reference engine's time there.
    scaled = [statistics.median(t / r for t, r in samples[rid]) * ref_times[rid]
              for rid, _ in reqs]
    raw = [statistics.median(t for t, _ in samples[rid]) for rid, _ in reqs]
    speed = statistics.median(r / ref_times[rid] for rid, s in samples.items()
                              for _, r in s)
    rps, p50, p90 = latency_figures(scaled)
    metrics = {
        "setup_s": (statistics.median(t / r for t, r in setups) * ref_setup_s, "s"),
        "requests_per_s": (rps, "1/s"),
        "latency_p50_ms": (p50, "ms"),
        "latency_p90_ms": (p90, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "cells_out": (checks[0][1], "count"),
    }
    print(f"{workload} seed {seed}: {len(passes)} passes (the last may be partial) "
          f"of {len(reqs)} requests, each request paired with the reference engine; "
          f"set-up median of {len(setups)} pairs; this machine ran the reference "
          f"engine {speed:.3f}x as long as the reference machine")
    print("  raw: requests_per_s {:.6g}, latency_p50_ms {:.6g}, latency_p90_ms {:.6g}, "
          "setup_s {:.6g}".format(*latency_figures(raw),
                                  statistics.median(t for t, _ in setups)))
    print(f"  failed_ratio {failed / attempted:.4f} ratio "
          f"({failed} failed / {attempted} attempted)")
    complete = [c for (_, c), results in zip(checks, passes) if len(results) == len(reqs)]
    return report(metrics, failed == 0 and len(set(complete)) == 1, attempted, failed)


def traced(workload: str, seed: int, seconds: float) -> dict:
    import tracing

    cli, expected, reqs, _ = setup(workload, seed)
    pin_to_one_cpu()
    client = Client(cli, reqs)
    client.warm_up(WARMUP_S)
    tracer = tracing.Tracer()
    plain_times, traced_times, traced_passes = [], [], []
    identical = True
    failed = attempted = 0
    while not traced_times or keep_going(
            [a + b for a, b in zip(plain_times, traced_times)], seconds):
        wall, plain = client.one_pass()
        plain_times.append(wall)
        tracer.start_pass()
        with tracer.installed():
            wall, results = client.one_pass()
        traced_times.append(wall)
        traced_passes.append(tracer.end_pass(results))
        identical &= [r[2] for r in plain] == [r[2] for r in results]
        failed += check(expected, plain)[0] + check(expected, results)[0]
        attempted += len(plain) + len(results)
    metrics = tracing.per_layer(traced_passes)
    metrics["trace.overhead_ratio"] = (
        statistics.median(traced_times) / statistics.median(plain_times), "ratio")
    consistent = all(p["self_sum_ok"] for p in traced_passes)
    print(f"{workload} seed {seed}: {len(traced_times)} untraced/traced pass pairs; "
          f"stdout identical: {identical}; self times sum to the root spans: {consistent}")
    return report(metrics, failed == 0 and identical and consistent, attempted, failed)


def run_all(seed: int, seconds: float, trace_flag: int) -> dict:
    """Each workload in a fresh process, one after the other."""
    results = {}
    for name in workloads.WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace_flag)],
            capture_output=True, text=True, timeout=600, check=True)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        results[name] = json.loads(lines[-1])
    return results


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--all", action="store_true", help="every workload, fresh process each")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=42.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", choices=("live", "ref"), help=argparse.SUPPRESS)
    ap.add_argument("--serve", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.all:
        result = run_all(args.seed, args.seconds, args.trace)
    elif args.workload is None:
        ap.error("one of --workload or --all is required")
    elif args.serve:
        serve()
        return 0
    elif args.setup_only:
        print(setup(args.workload, args.seed, args.setup_only)[3])
        return 0
    elif args.trace:
        result = traced(args.workload, args.seed, args.seconds)
    else:
        result = end_to_end(args.workload, args.seed, args.seconds)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
