"""Benchmark runner for doublejets.

    python3 perfbench/run.py --workload canon-stream --seed 1 --seconds 30 --trace 0

Runs one workload in this process, single-threaded (BLAS pinned to one
thread), as a closed loop with one caller: the next item is submitted only
after the previous one returns.  Inputs come from --seed only.  Set-up
makes the inputs and processes them once (the census); the loop cycles
over the inputs the census completed, so no timed operation fails, and
the census's completed share is reported as completed_share.

--trace 0 reports the end-to-end metrics.  --trace 1 runs the untraced
loop for half the time, then whole passes with spans around every call
into the library's layers for the other half, and reports the per-layer
metrics and the tracing overhead.  Every census output is checked, and
every output of the loop must equal its census output.  The last stdout
line is the JSON result; the exit code is 1 when a correctness gate fails.
A detailed record (environment, census breakdown, per-layer table, spans)
is written to .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from array import array
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
WORKLOAD_NAMES = ("verify-sweep", "canon-stream", "wide-chart")
SETUP_REPEATS = 3
MIN_SAMPLES = 1000  # so that p99 has at least 10 samples beyond it
THROUGHPUT_NAME = {"trials": "trials_per_s", "values": "values_per_s"}
# Spans that every workload runs, reported in us per call.
PER_CALL_SPANS = (
    "linalg.numerical_rank.int", "linalg.numerical_rank.float", "linalg.pivot_rows",
    "linalg.safe_inv", "core.DoubleVelocity", "groups.PrincipalJetElement",
    "actions.act_P_double", "contact.double_contact_of", "contact.vertical_quotient",
    "contact.decompose_contact", "contact.contact_of")
# Spans that only some workloads run, reported as their share of the traced
# loop's time, so that a workload that never calls them reads 0 and no time.
SHARE_SPANS = (
    "core.exchange", "groups.compose_P", "groups.inverse_P", "actions.is_rho_regular",
    "actions.solve_transporter", "codec.decode", "codec.encode", "oracle.act_oracle",
    "oracle.rho_regular_fd")


def parse_args(argv):
    p = argparse.ArgumentParser(description="doublejets benchmark runner")
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be non-negative and --seconds positive")
    return args


def environment(np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
            "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
            "nproc": os.cpu_count(), "cpus_allowed": len(os.sched_getaffinity(0)),
            "cpu_model": cpu,
            "not_controlled": "CPU frequency and host load"}


class Loop:
    """A closed loop over the items in `order`, starting at its first and
    cycling.

    `outcomes` and `work_of` hold the output and work of every item seen
    so far, starting with the census; an item must give the same output
    every time it is processed."""

    def __init__(self, wl, items, order, outcomes, work_of):
        self.wl = wl
        self.items = items
        self.order = order
        self.outcomes, self.work_of = outcomes, work_of
        self.latency = array("d")
        self.work = 0
        self.elapsed = 0.0

    def run(self, seconds: float, min_samples: int = 0, whole_passes: bool = False) -> "Loop":
        wl, items, order = self.wl, self.items, self.order
        outcomes, work_of = self.outcomes, self.work_of
        n = len(order)
        step = wl.pass_length(order) if whole_passes else 1
        clock = time.perf_counter
        start = clock()
        i = 0
        while True:
            idx = order[i % n]
            t0 = clock()
            try:
                out = wl.process(items[idx])
            except wl.rejections as exc:
                raise wl.check_error(f"item {idx}: rejected in the loop ({exc!r}), "
                                     f"not in the census") from exc
            t1 = clock()
            self.latency.append(t1 - t0)
            known = outcomes.get(idx)
            if known is None:
                outcomes[idx] = out
                work_of[idx] = wl.accept(items[idx], out)
            elif out != known:
                raise wl.check_error(f"item {idx}: output differs from its census output")
            self.work += work_of[idx]
            i += 1
            if t1 - start >= seconds and i >= min_samples and i % step == 0:
                break
        self.elapsed = clock() - start
        return self

    @property
    def rate(self) -> float:
        return self.work / self.elapsed


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile."""
    rank = -(-q * len(sorted_values) // 1)
    return sorted_values[max(0, int(rank) - 1)]


def block_percentile(latency, q: float) -> float:
    """Median over consecutive blocks of MIN_SAMPLES latencies of each
    block's percentile.  Host contention comes in bursts of a few
    milliseconds; a burst moves the tail of the block it falls in, not the
    median over blocks."""
    blocks = range(0, len(latency) - MIN_SAMPLES + 1, MIN_SAMPLES)
    return statistics.median(percentile(sorted(latency[i:i + MIN_SAMPLES]), q)
                             for i in blocks)


def end_to_end(loop: Loop, setup_s: float, completed_share: float) -> dict:
    lat = loop.latency
    return {
        "setup_s": (setup_s, "s"),
        "throughput_per_s": (loop.rate, "1/s"),
        "value_p50_us": (block_percentile(lat, 0.50) * 1e6, "us"),
        "value_p99_us": (block_percentile(lat, 0.99) * 1e6, "us"),
        "completed_share": (completed_share, "share"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(tracer, untraced: Loop, traced: Loop, non_leading_share: float,
              suites) -> dict:
    stats = tracer.stats
    ops = traced.work
    traced_ns = traced.elapsed * 1e9

    def us_per_call(name):
        calls, total, _ = stats.get(name, (0, 0, 0))
        return total / calls / 1e3 if calls else 0.0

    def share(name):
        return stats.get(name, (0, 0, 0))[1] / traced_ns

    metrics = {f"{name}.us": (us_per_call(name), "us") for name in PER_CALL_SPANS}
    pivot_calls = stats.get("linalg.pivot_rows", (0,))[0]
    tried = tracer.counts.get("linalg.pivot_rows.subsets_tried", 0)
    metrics["linalg.pivot_rows.subsets_tried"] = (
        tried / pivot_calls if pivot_calls else 0.0, "count")
    metrics.update({f"{name}.share": (share(name), "share")
                    for name in SHARE_SPANS + tuple(f"verify.{s}" for s in suites)})
    for layer, (calls, self_ns) in tracer.layer_totals().items():
        metrics[f"{layer}.self_share"] = (self_ns / traced_ns, "share")
        metrics[f"{layer}.calls_per_op"] = (calls / ops, "count")
    metrics["pivot.non_leading_share"] = (non_leading_share, "share")
    metrics["trace.untraced_per_s"] = (untraced.rate, "1/s")
    metrics["trace.traced_per_s"] = (traced.rate, "1/s")
    metrics["trace.overhead_per_s"] = (traced.rate - untraced.rate, "1/s")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "doublejets" / "__init__.py").is_file():
        print(f"error: no doublejets sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:  # must precede the numpy import
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    load_before = os.getloadavg()

    t = time.perf_counter()
    import numpy as np
    import tracing
    import workloads
    import_s = time.perf_counter() - t

    wl = workloads.WORKLOADS[args.workload](args.seed)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "unit": wl.unit, "import_s": import_s,
              "setup_repeats_s": []}
    loops = []
    tracer = tracing.Tracer()
    items, census = [], None
    censused = 0  # items the census processed
    correct = True
    try:
        for _ in range(SETUP_REPEATS):
            t = time.perf_counter()
            fresh = wl.generate()
            fresh_census = wl.census(fresh)
            record["setup_repeats_s"].append(time.perf_counter() - t)
            if items and (fresh != items or fresh_census != census):
                raise workloads.CheckError("input generation or census is not deterministic")
            items, census = fresh, fresh_census
        outcomes, work_of, rejected = census
        censused = len(outcomes) + len(rejected)
        check, moved = wl.check(items, outcomes)
        failed_items = {**rejected, **moved}
        order = [i for i in range(len(items)) if i not in failed_items]
        seconds = args.seconds / 2 if args.trace else args.seconds
        loops.append(Loop(wl, items, order, outcomes, work_of)
                     .run(seconds, 0 if args.trace else MIN_SAMPLES))
        if args.trace:
            extra = [(name, workloads, attr) for name, attr in workloads.CODEC_SPANS]
            with tracing.instrument(tracer, extra):
                loops.append(Loop(wl, items, order, outcomes, work_of)
                             .run(seconds, whole_passes=True))
    except workloads.CheckError as exc:
        print(f"correctness gate failed: {exc}", file=sys.stderr)
        correct = False
        check, failed_items = {"error": str(exc)}, {}
    record["check"] = check

    # The census outcome of every item it processed: completed, rejected by
    # exception type, or moved chart; per scale exponent on the streams.
    failures = {}
    for idx, label in failed_items.items():
        key = f"{label}@k={items[idx][2]}" if isinstance(items[idx], tuple) else label
        failures[key] = failures.get(key, 0) + 1
    record["census"] = {"items": censused, "not_completed": len(failed_items),
                        "by_type_and_scale": dict(sorted(failures.items()))}
    completed_share = 1.0 - len(failed_items) / max(1, censused)
    attempted = sum(len(lp.latency) for lp in loops)

    metrics = {}
    if correct and not args.trace:
        setup_s = import_s + statistics.median(record["setup_repeats_s"])
        metrics = end_to_end(loops[0], setup_s, completed_share)
        record["samples"] = len(loops[0].latency)
    elif correct:
        metrics = per_layer(tracer, loops[0], loops[1],
                            check.get("non_leading_share", 0.0), workloads.verify.SUITE_ORDER)
        record["layers"] = {name: {"calls": c, "us_per_call": tot / c / 1e3,
                                   "self_s": s / 1e9}
                            for name, (c, tot, s) in sorted(tracer.stats.items())}
        record["spans"] = tracer.spans
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    env = environment(np)
    env["loadavg_before"] = load_before
    env["loadavg_after"] = os.getloadavg()
    record["env"] = env

    print_report(record, attempted)
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record))
    # The loop runs only items the census completed; one that fails there
    # makes the run invalid, so no timed operation is counted as failed.
    print(json.dumps({"correct": correct, "attempted": max(1, attempted),
                      "failed": 0, "metrics": record["metrics"]}))
    return 0 if correct else 1


def print_report(record, attempted: int) -> None:
    unit = record["unit"]
    print(f"# doublejets benchmark: {record['workload']} seed={record['seed']} "
          f"seconds={record['seconds']} trace={record['trace']}")
    print("env " + json.dumps(record["env"]))
    print("check " + json.dumps(record["check"]))
    census = record["census"]
    print(f"{'failed_share':32s} {census['not_completed'] / max(1, census['items']):.6g} share "
          f"({census['not_completed']} of {census['items']} census items; "
          f"{attempted} timed operations, none failed)")
    if census["by_type_and_scale"]:
        print("census failures by type and scale exponent "
              + json.dumps(census["by_type_and_scale"]))
    for name, m in record["metrics"].items():
        alias = f"  = {THROUGHPUT_NAME[unit]}" if name == "throughput_per_s" else ""
        print(f"{name:32s} {m['value']:.6g} {m['unit']}{alias}")
    if "samples" in record:
        print(f"{'latency samples':32s} {record['samples']} in blocks of "
              f"{MIN_SAMPLES} ({MIN_SAMPLES // 100} beyond p99 in each)")
    for name, row in record.get("layers", {}).items():
        print(f"  span {name:42s} calls={row['calls']:<9d} "
              f"us/call={row['us_per_call']:10.2f} self_s={row['self_s']:.4f}")


if __name__ == "__main__":
    sys.exit(main())
