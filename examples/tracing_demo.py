"""Observability demo: tracing, tick profiling and structured logs, live.

Run with::

    python examples/tracing_demo.py          # default sizes
    python examples/tracing_demo.py --fast   # smaller run, a couple seconds

The script turns the ``repro.obs`` layer on and shows every surface over a
real HTTP gateway:

1. enable tracing + profiling + structured logging with a fixed seed
   (``repro.obs.configure``) — IDs and sampling are deterministic;
2. send ``POST /predict`` requests and follow one ``X-Trace-Id`` into
   ``GET /trace``: the span tree crosses threads, from the gateway handler
   through the router into the batch worker and the model pass;
3. drive a small :class:`~repro.fleet.StreamFleet` through warmup so every
   tick is its own trace and the per-tick phases (``window_build``,
   ``batch_wait``, ``model_forward``, ``calibrate``, ``aci_update``, ...)
   accumulate in the profiler — then print the cost breakdown;
4. print the structured event ring (promotions, drift, chaos would land
   here too) and the obs families a Prometheus scrape exports.

Every surface is also plain HTTP — the same ``curl`` works against any
long-running gateway with obs enabled.
"""

from __future__ import annotations

import argparse
import json
import urllib.request

import numpy as np

import repro.obs as obs
from repro.core.inference import PredictionResult
from repro.fleet import StreamFleet
from repro.gateway import Gateway, parse_prometheus_text
from repro.obs.events import recent_events
from repro.obs.profiler import profiler
from repro.serving import InferenceServer

HISTORY, HORIZON, NODES = 8, 4, 4


def http_call(url: str, method: str, path: str, body=None):
    """One JSON request; returns ``(status, parsed_body, headers)``."""
    data = json.dumps(body).encode() if body is not None else None
    request = urllib.request.Request(
        url + path, data=data, method=method,
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=15) as response:
        status, raw = response.status, response.read().decode()
        headers = dict(response.headers)
    if headers.get("Content-Type", "").startswith("application/json"):
        return status, json.loads(raw), headers
    return status, raw, headers


class Persistence:
    """Repeat-last-value forecaster — fast and deterministic."""

    def predict(self, windows: np.ndarray) -> PredictionResult:
        mean = np.repeat(windows[:, -1:, :], HORIZON, axis=1)
        variance = np.full_like(mean, 36.0)
        return PredictionResult(
            mean=mean, aleatoric_var=variance, epistemic_var=np.zeros_like(mean)
        )


def print_span_tree(tree: dict) -> None:
    def walk(record: dict, depth: int) -> None:
        duration = record["duration_ms"]
        timing = f"{duration:.2f} ms" if duration is not None else "open"
        print(f"    {'  ' * depth}{record['name']}  [{timing}]  ({record['thread']})")
        for child in record["children"]:
            walk(child, depth + 1)

    print(f"  trace {tree['trace_id']} ({tree['num_spans']} spans)")
    for root in tree["spans"]:
        walk(root, 0)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fast", action="store_true", help="smaller run")
    parser.add_argument("--streams", type=int, default=None)
    parser.add_argument("--ticks", type=int, default=None)
    args = parser.parse_args()
    num_streams = args.streams or (4 if args.fast else 16)
    num_ticks = args.ticks or (HISTORY + 4 if args.fast else HISTORY + 24)

    # 1. Flip the whole obs layer on (it is off, and free, by default).
    obs.configure(enabled=True, seed=0, log_sink=False)
    print("Tracing enabled: deterministic IDs under seed 0\n")

    model = Persistence()
    server = InferenceServer(
        model.predict, model_version="demo", max_batch_size=64, max_wait_ms=2.0
    )
    fleet = StreamFleet(server, history=HISTORY, horizon=HORIZON)
    stream_names = [f"corridor-{i}" for i in range(num_streams)]
    fleet.add_streams(stream_names)
    gateway = Gateway(server, fleet=fleet)
    gateway.start(port=0)
    print(f"Gateway listening on {gateway.url}\n")
    try:
        # 2. One traced request, followed end to end by its X-Trace-Id.
        rng = np.random.default_rng(0)
        window = rng.uniform(0.0, 120.0, size=(HISTORY, NODES)).tolist()
        status, _, headers = http_call(
            gateway.url, "POST", "/predict", {"window": window}
        )
        trace_id = headers.get("X-Trace-Id")
        print(f"POST /predict -> {status}, X-Trace-Id: {trace_id}")

        status, body, _ = http_call(gateway.url, "GET", "/trace?limit=5")
        [tree] = [t for t in body["traces"] if t["trace_id"] == trace_id]
        print("the request's span tree (note the thread hop into the batch worker):")
        print_span_tree(tree)

        # 3. Tick the fleet through warmup; every tick is its own trace and
        #    every phase lands in the shared profiler.
        for tick in range(num_ticks):
            observations = {
                name: rng.uniform(0.0, 120.0, size=NODES).tolist()
                for name in stream_names
            }
            status, _, _ = http_call(
                gateway.url, "POST", "/observe", {"observations": observations}
            )
            assert status == 200
        print(f"\nObserved {num_ticks} ticks over {num_streams} streams.")
        print("Phase profile (where a tick's time goes):")
        print(profiler().summary())
        print(f"top phases by total cost: {', '.join(profiler().top_phases(3))}")

        # 4. The structured event ring + what Prometheus scrapes.
        print("\nEvent log (most recent structured events):")
        for record in recent_events(limit=5):
            kind = record["kind"]
            rest = {
                key: value
                for key, value in record.items()
                if key not in ("ts", "kind")
            }
            print(f"  {kind}: {rest}")
        if not recent_events():
            print("  (no drift/lifecycle events this short run)")

        status, text, _ = http_call(gateway.url, "GET", "/metrics")
        series = parse_prometheus_text(text)
        obs_families = sorted(
            name
            for name in series
            if name.startswith("obs_") or name.startswith("repro_phase_seconds")
        )
        print("\nObs families on GET /metrics:")
        for name in obs_families:
            print(f"  {name}")
        forward = series.get("repro_phase_seconds_count", {})
        count = forward.get((("phase", "model_forward"),))
        print(f"model_forward occurrences scraped: {count:.0f}")
    finally:
        gateway.stop(timeout=10.0)
        server.stop()
        obs.reset()
    print("\ngateway stopped cleanly")


if __name__ == "__main__":
    main()
