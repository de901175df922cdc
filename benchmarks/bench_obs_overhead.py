"""Observability overhead — the obs layer must be near-free on the hot path.

The obs layer's contract: disabled it costs one flag check per call site,
and *enabled* (tracing + profiling + event logging + per-tick SLO
evaluation all on) it may not tax the fleet tick measurably — the ISSUE
gate is **< 3 % tick-throughput overhead on a 256-stream fleet tick**.  This benchmark measures exactly
that, end to end, with the same realistic MC-dropout AGCRN workload as
``bench_fleet_throughput``:

* run ``ROUNDS`` alternating measurement rounds of ``MEASURED_TICKS``
  ticks each with obs fully disabled and fully enabled (alternation keeps
  thermal/allocator drift from biasing one side);
* score each mode by its *fastest* round (the classic low-noise
  estimator) and gate ``enabled / disabled - 1`` under 3 %.
"""

import time

import numpy as np

import repro.obs as obs
from repro.core.inference import BatchedPredictor
from repro.data import StreamingTrafficFeed
from repro.data.scalers import StandardScaler
from repro.graph import grid_network
from repro.fleet import StreamFleet
from repro.models.agcrn import AGCRN
from repro.obs.slo import SLOEngine, default_slos
from repro.serving import InferenceServer

NODES_GRID = (2, 2)
HISTORY, HORIZON = 12, 4
N_MC = 16
NUM_STREAMS = 256             # the gate applies at fleet scale
WARMUP_TICKS = HISTORY
MEASURED_TICKS = 8
ROUNDS = 3                    # alternating disabled/enabled rounds per mode
GATE_OVERHEAD = 0.03


def _predict_fn():
    rng = np.random.default_rng(0)
    num_nodes = NODES_GRID[0] * NODES_GRID[1]
    model = AGCRN(
        num_nodes=num_nodes, history=HISTORY, horizon=HORIZON,
        hidden_dim=8, embed_dim=3, encoder_dropout=0.1, decoder_dropout=0.2,
        heads=("mean", "log_var"), rng=rng,
    )
    scaler = StandardScaler().fit(np.array([0.0, 400.0]))
    predictor = BatchedPredictor(model, scaler)

    def predict(windows):
        return predictor.monte_carlo(
            scaler.transform(windows), num_samples=N_MC, rng=np.random.default_rng(3)
        )

    return predict


def _rows():
    network = grid_network(*NODES_GRID)
    steps = WARMUP_TICKS + MEASURED_TICKS * ROUNDS
    return {
        f"c{i}": list(StreamingTrafficFeed(network, num_steps=steps, seed=i))
        for i in range(NUM_STREAMS)
    }


def _build_fleet(predict, rows):
    server = InferenceServer(
        predict, model_version="bench", max_batch_size=64,
        max_wait_ms=2.0, cache_size=0,
    )
    server.start()
    fleet = StreamFleet(server, HISTORY, HORIZON, detector_factory=list)
    for name in rows:
        fleet.add_stream(name)
    return server, fleet


def run_obs_overhead():
    """Returns ``(disabled_s, enabled_s, overhead)``.

    One fleet per mode, both fed identical rows; the measured rounds
    alternate disabled-fleet / enabled-fleet so slow drift hits both.
    """
    rows = _rows()
    obs.reset()
    servers = {}
    fleets = {}
    for mode in ("disabled", "enabled"):
        servers[mode], fleets[mode] = _build_fleet(_predict_fn(), rows)
        if mode == "enabled":
            # "Fully enabled" includes the SLO layer: every measured tick
            # samples all sources and burn-rate-evaluates the default specs
            # (the per-stream coverage wildcard fans out to 256 alerts).
            fleets[mode].attach_slo(SLOEngine(specs=default_slos()))
        for t in range(WARMUP_TICKS):
            fleets[mode].tick({name: r[t] for name, r in rows.items()})

    best = {"disabled": float("inf"), "enabled": float("inf")}
    try:
        for round_index in range(ROUNDS):
            lo = WARMUP_TICKS + round_index * MEASURED_TICKS
            for mode in ("disabled", "enabled"):
                if mode == "enabled":
                    obs.configure(enabled=True, seed=0, log_sink=False)
                else:
                    obs.configure(enabled=False)
                fleet = fleets[mode]
                start = time.perf_counter()
                for t in range(lo, lo + MEASURED_TICKS):
                    fleet.tick({name: r[t] for name, r in rows.items()})
                best[mode] = min(best[mode], time.perf_counter() - start)
    finally:
        obs.reset()
        for server in servers.values():
            server.stop()
    overhead = best["enabled"] / best["disabled"] - 1.0
    return best["disabled"], best["enabled"], overhead


def test_obs_overhead(benchmark, save_result):
    disabled_s, enabled_s, overhead = benchmark.pedantic(
        run_obs_overhead, rounds=1, iterations=1
    )
    per_tick = lambda seconds: seconds / MEASURED_TICKS * 1e3  # noqa: E731
    header = (
        f"Obs overhead on a {NUM_STREAMS}-stream fleet tick "
        f"(MC-dropout AGCRN, N_MC={N_MC}, horizon {HORIZON}, "
        f"best of {ROUNDS} alternating rounds x {MEASURED_TICKS} ticks)"
    )
    text = "\n".join(
        [
            header,
            f"obs disabled: {per_tick(disabled_s):9.1f} ms/tick",
            f"obs enabled:  {per_tick(enabled_s):9.1f} ms/tick",
            f"overhead:     {overhead * 100.0:+9.2f}%   (gate < "
            f"{GATE_OVERHEAD * 100.0:.0f}%)",
        ]
    )
    save_result("obs_overhead", text)
    # Acceptance gate: fully-enabled obs must stay under 3% tick overhead.
    assert overhead < GATE_OVERHEAD, (
        f"obs overhead {overhead * 100.0:.2f}% exceeds the "
        f"{GATE_OVERHEAD * 100.0:.0f}% gate"
    )
