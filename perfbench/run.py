"""Benchmark entry point: one workload, one seed, one result line.

Usage, from the repository root::

    python3 perfbench/run.py --workload fleet_256 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --workload http_predict --seconds 2 --smoke

With ``--trace 0`` the result carries the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` the per-layer metrics.  Human-readable
lines and one ``DETAIL`` JSON line (provenance, configuration, checks,
batch-size histograms, output digests) come first; the last line of
standard output is always the result object.  ``--workload all`` runs each
workload in its own process and prints their results in turn.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import subprocess
import sys
import time
import traceback
from typing import Any, Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")

#: Segments of one run: untraced only, or untraced and traced quarters.
PLAN = {0: (False,), 1: (False, True, False, True)}

#: Share of the run spent warming up before the first measured segment.
WARMUP_SHARE = 0.1

#: Environment the measuring process runs under (``run.py`` re-executes
#: itself when it differs).  String hashing is salted per process unless
#: fixed, and the salt alone moved tick medians by about 10% between
#: otherwise identical runs.  OpenBLAS otherwise starts a spinning thread
#: per CPU for the model's matrix products, which then compete with the
#: program's own threads for the two vCPUs.
PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def load_spec() -> Dict[str, Any]:
    with open(SPEC_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> Dict[str, Any]:
    import tracing
    from harness import host_reference_ms, peak_rss_mb, percentile, provenance, timing_summary
    from workloads import TAIL_Q, WORKLOADS, config_for

    config = config_for(name, smoke)
    if "cpus" in config:
        # Before any thread starts: threads inherit the affinity.
        os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[: config["cpus"]])
    host_before = host_reference_ms()
    workload = WORKLOADS[name](config, seed, ROOT, seconds)
    tracer = tracing.Tracer()
    plan = PLAN[int(trace)]
    traced_intervals: List[Tuple[float, float]] = []
    served = [0, 0]  # requests served / batches dispatched during traced segments
    try:
        workload.setup()
        workload.warm_up(seconds * WARMUP_SHARE)
        # The fleet's per-stream histories grow with every tick for the
        # first ~1000 ticks, so a peak taken after the timed load would rise
        # with speed: memory is read before it.
        serving_rss_mb = peak_rss_mb()
        measured = seconds * (1.0 - WARMUP_SHARE)
        for traced in plan:
            before = workload.server.stats
            if traced:
                tracer.install()
            start = time.perf_counter()
            try:
                workload.segment(traced, measured / len(plan))
            finally:
                end = time.perf_counter()
                tracer.uninstall()
            if traced:
                traced_intervals.append((start, end))
                after = workload.server.stats
                served[0] += after["requests_served"] - before["requests_served"]
                served[1] += after["batches_dispatched"] - before["batches_dispatched"]
        workload.epilogue(tracer if trace else None)
    finally:
        tracer.uninstall()
        workload.close()

    summary = timing_summary(workload.primary[False], TAIL_Q)
    result: Dict[str, Any] = {
        "provenance": provenance(ROOT, name, seed, config),
        "host_reference_ms": [host_before, host_reference_ms()],
        "primary": summary,
        "peak_rss_end_mb": peak_rss_mb(),
        "checks": workload.checks,
        **workload.detail,
    }
    if not trace:
        metrics = {
            "setup_s": percentile(workload.setup_times, 50.0),
            "peak_rss_mb": serving_rss_mb,
            "throughput_per_s": workload.primary_work[False] / workload.primary_time[False],
            "p50_ms": summary["p50_ms"],
            "tail_ms": summary[f"p{TAIL_Q:g}_ms"],
        }
    else:
        metrics, result["decomposition"] = layer_metrics(
            workload, tracer.spans, traced_intervals, served
        )
        workload.check("decomposition", result["decomposition"]["overlapping_spans"] == 0
                       and result["decomposition"]["negative_residuals"] == 0)
    result["setup_s"] = workload.setup_times
    result["metrics"] = metrics
    result["attempted"] = workload.attempted
    result["failed"] = workload.failed
    result["correct"] = all(workload.checks.values()) and workload.failed == 0
    return result


def layer_metrics(
    workload: Any,
    spans: List[Any],
    traced: List[Tuple[float, float]],
    served: List[int],
) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """Every per-layer metric, from the spans of the traced segments.

    A layer the workload never calls reads 0.  "Primary requests" are the
    windows of the workload's primary operation: every window of a fleet
    tick on ``fleet_256``, single-window predicts on the HTTP workloads.
    """
    import tracing
    from harness import mean, percentile

    wall = sum(end - start for start, end in traced)
    decomposition = tracing.tick_decomposition(spans)
    ticks = decomposition["ticks"]
    forwards = [
        call for call in workload.forwards.calls
        if any(start <= call[0] <= end for start, end in traced)
    ]
    forward_ms = [(end - start) * 1e3 for start, end, _ in forwards]
    primary_size = None if workload.name == "fleet_256" else 1
    requests = [
        span for span in tracing.by_name(spans, "serving.request")
        if primary_size is None or span[4] == primary_size
    ]
    submits = [
        span for span in tracing.by_name(spans, "serving.submit")
        if primary_size is None or span[4] == primary_size
    ]
    # A request's own forward is the last forward to end before it was done.
    ordered = sorted(workload.forwards.calls, key=lambda call: call[1])
    ends = [call[1] for call in ordered]
    hol_wait = []
    for _, _, start, done, _ in requests:
        index = bisect.bisect_right(ends, done) - 1
        if index >= 0:
            own = ordered[index]
            hol_wait.append((done - start) - (own[1] - own[0]))
    request_s = [span[3] - span[2] for span in requests]
    per_forward = max(len(forwards), 1)

    metrics: Dict[str, Any] = {
        name: decomposition[name]
        for name in (
            "streaming.resolve_ms",
            "streaming.detect_ms",
            "streaming.append_ms",
            "streaming.window_ms",
            "streaming.record_ms",
            "fleet.wait_ms",
            "obs.slo_step_ms",
            "fleet.other_ms",
            "fleet.tick_ms",
        )
    }
    metrics.update(
        {
            "serving.submit_ms": mean([span[3] - span[2] for span in submits]) * 1e3,
            "serving.request_p50_ms": percentile(request_s, 50.0) * 1e3 if request_s else 0.0,
            "serving.request_p90_ms": percentile(request_s, 90.0) * 1e3 if request_s else 0.0,
            "serving.hol_wait_ms": percentile(hol_wait, 50.0) * 1e3 if hol_wait else 0.0,
            "serving.mean_batch": served[0] / served[1] if served[1] else 0.0,
            "core.forward_ms": mean(forward_ms),
            "core.forward_calls": len(forwards) / ticks if ticks else 0.0,
            "core.windows_per_call": mean([call[2] for call in forwards]),
            "core.busy_frac": sum(forward_ms) / 1e3 / wall if wall else 0.0,
        }
    )
    for layer in ("cell", "avwgcn", "dropout", "cat"):
        layer_s = tracing.durations(spans, f"nn.{layer}")
        metrics[f"nn.{layer}_ms"] = sum(layer_s) / per_forward * 1e3
        metrics[f"nn.{layer}_calls"] = len(layer_s) / per_forward
    client = workload.primary[True]
    metrics["gateway.overhead_ms"] = (
        (mean(client) - mean(request_s)) * 1e3 if workload.name != "fleet_256" and request_s else 0.0
    )
    render = tracing.durations(spans, "obs.render")
    metrics["obs.render_ms"] = percentile(render, 50.0) * 1e3 if render else 0.0
    for name in (
        "fleet.save_ms",
        "fleet.restore_ms",
        "streaming.get_state_ms",
        "fleet.save_io_ms",
        "streaming.set_state_ms",
        "gateway.observe_overhead_ms",
        "gateway.observe_p50_ms",
        "gateway.observe_p90_ms",
        "gateway.scrape_p50_ms",
    ):
        metrics[name] = 0.0
    workload.layer_metrics(spans)
    metrics.update(workload.layers)
    untraced_p50 = percentile(workload.primary[False], 50.0)
    traced_p50 = percentile(client, 50.0)
    metrics["trace.overhead_frac"] = traced_p50 / untraced_p50 - 1.0 if untraced_p50 else 0.0
    return metrics, decomposition


def emit(spec: Dict[str, Any], result: Dict[str, Any], trace: bool) -> int:
    """Print the human-readable report, the DETAIL line and the result line."""
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = result.pop("metrics")
    out: Dict[str, Any] = {}
    print(f"workload {result['provenance']['workload']}  seed {result['provenance']['seed']}  "
          f"trace {int(trace)}  sha {result['provenance']['git_sha'][:12]}")
    for entry in declared:
        value = float(metrics[entry["name"]])
        out[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"  {entry['name']:<32} {value:>14.4f} {entry['unit']}")
    for check, ok in sorted(result["checks"].items()):
        print(f"  check {check:<26} {'ok' if ok else 'FAILED'}")
    print(f"  attempted {result['attempted']}  failed {result['failed']}  "
          f"correct {result['correct']}")
    print("DETAIL " + json.dumps(result, sort_keys=True, default=str))
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": out,
    }), flush=True)
    return 0


def run_all(args: argparse.Namespace, spec: Dict[str, Any]) -> int:
    """Each workload in its own process, so peak memory stays per workload."""
    code = 0
    for workload in spec["workloads"]:
        command = [
            sys.executable, os.path.abspath(__file__),
            "--workload", workload["name"], "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ] + (["--smoke"] if args.smoke else [])
        completed = subprocess.run(command, cwd=ROOT, timeout=600)
        code = code or completed.returncode
    return code


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes for self-tests")
    args = parser.parse_args(argv)

    source = os.path.join(ROOT, "src", "repro", "__init__.py")
    if not os.path.isfile(source):
        print(f"error: the program's sources are missing ({source})", file=sys.stderr)
        return 2
    spec = load_spec()
    if args.workload == "all":
        return run_all(args, spec)
    if args.workload not in {entry["name"] for entry in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if any(os.environ.get(key) != value for key, value in PINNED_ENV.items()):
        env = dict(os.environ, **PINNED_ENV)
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__), *argv], env)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    except Exception:
        traceback.print_exc()
        return 1
    return emit(spec, result, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
