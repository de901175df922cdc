"""The SLO engine's bounded row store evaluates exactly like the 1,024-row
metrics history it replaced.

The engine used to sample into a separate ``MetricsHistory`` ring of 1,024
rows and evaluate its specs over that ring; now it keeps only as many rows
as its longest ``long_window``.  Every window is at most that depth, so
every alert must move at the same tick with the same burn rates.  The old
history and spec evaluation are frozen below as the reference (the alert
state machine, :class:`~repro.obs.slo.Alert`, did not change), and both
engines are driven for 1,500 ticks, past the old ring's capacity, from one
seeded feed.
"""

import fnmatch
import math
from collections import deque

import numpy as np
import pytest

from repro.obs.slo import Alert, SLOEngine, SLOSpec, default_slos

TICKS = 1500
RAISE_AT = 777  # the one tick at which the server source raises


# --------------------------------------------------------------------------- #
# The reference: metrics history and spec evaluation as they were before the
# engine kept its own rows.
# --------------------------------------------------------------------------- #
class _FrozenHistory:
    def __init__(self, capacity=1024):
        self._sources = {}
        self._samples = deque(maxlen=capacity)
        self.source_errors = 0

    def add_source(self, name, source):
        self._sources[str(name)] = source

    def sample(self, tick):
        values = {}
        for name, source in list(self._sources.items()):
            try:
                metrics = source()
            except Exception:
                self.source_errors += 1
                continue
            for key, raw in metrics.items():
                try:
                    value = float(raw)
                except (TypeError, ValueError):
                    continue
                if math.isfinite(value):
                    values[f"{name}.{key}"] = value
        self._samples.append((int(tick), values))

    def names(self):
        if not self._samples:
            return []
        return sorted(self._samples[-1][1])

    def _recent(self, window):
        rows = list(self._samples)
        if window is not None:
            rows = rows[-max(int(window), 0):]
        return rows

    def values(self, metric, window):
        return [values[metric] for _, values in self._recent(window) if metric in values]

    def counter_delta(self, metric, window):
        rows = self._recent(window)
        points = [(tick, row[metric]) for tick, row in rows if metric in row]
        if not points:
            return 0.0
        if rows[0][0] < points[0][0]:
            return points[-1][1]
        if len(points) < 2:
            return 0.0
        return points[-1][1] - points[0][1]


def _frozen_bad_fraction(spec, history, series, window):
    if spec.kind == "ratio":
        total = history.counter_delta(spec.total, window)
        if total <= 0.0:
            return 0.0
        good = history.counter_delta(spec.good, window)
        return min(max(1.0 - good / total, 0.0), 1.0)
    if spec.kind == "zero":
        return 1.0 if history.counter_delta(series, window) > 0.0 else 0.0
    values = history.values(series, window)
    if not values:
        return 0.0
    if spec.kind == "upper":
        bad = sum(1 for value in values if value > spec.bound)
    else:
        bad = sum(1 for value in values if value < spec.bound)
    return bad / len(values)


def _frozen_expand(spec, history):
    if spec.kind == "ratio":
        return [spec.name]
    if "*" not in spec.metric and "?" not in spec.metric:
        return [spec.metric]
    return sorted(fnmatch.filter(history.names(), spec.metric))


class _FrozenEngine:
    def __init__(self, specs):
        self.history = _FrozenHistory()
        self.specs = list(specs)
        self.alerts = {}

    def step(self, tick):
        self.history.sample(tick)
        performed = []
        for spec in self.specs:
            for series in _frozen_expand(spec, self.history):
                burn_long = _frozen_bad_fraction(
                    spec, self.history, series, spec.long_window
                ) / spec.budget
                burn_short = _frozen_bad_fraction(
                    spec, self.history, series, spec.short_window
                ) / spec.budget
                breached = (
                    burn_long >= spec.burn_threshold
                    and burn_short >= spec.burn_threshold
                )
                alert = self.alerts.setdefault((spec.name, series), Alert(spec, series))
                alert.burn_long = burn_long
                alert.burn_short = burn_short
                for _ in range(2):
                    moved = alert.update(tick, breached)
                    if moved is None:
                        break
                    performed.append(
                        {
                            "tick": tick,
                            "state": moved,
                            "slo": spec.name,
                            "series": series,
                            "severity": spec.severity,
                            "burn_long": burn_long,
                            "burn_short": burn_short,
                        }
                    )
                    if moved != "pending" or spec.for_ticks > 0:
                        break
        return performed


# --------------------------------------------------------------------------- #
# One seeded feed both engines sample
# --------------------------------------------------------------------------- #
class _Feed:
    """Fleet, gateway and server metrics for one tick, from a fixed seed.

    * per-stream coverage with NaN gaps, two streams appearing mid-run;
    * a drop counter that only exists from its first event on;
    * request counters with error bursts and long stretches of no traffic;
    * a p99 gauge that appears mid-run, with NaN gaps;
    * a server source that raises at exactly one tick.
    """

    def __init__(self, seed=0):
        self.rng = np.random.default_rng(seed)
        self.tick = -1
        self.fleet = {}
        self.gateway = {}
        self.server = {}
        self._requests = 0.0
        self._errors = 0.0
        self._drops = 0.0

    def advance(self, tick):
        rng = self.rng
        self.tick = tick
        fleet = {"tick": float(tick)}
        streams = ["s0", "s1", "s2", "s3"]
        if tick >= 300:
            streams.append("s4")
        if tick >= 1100:
            streams.append("s5")
        for index, name in enumerate(streams):
            # Stretches of low coverage on a rotating stream fire the
            # coverage alerts; the rest hovers above the 85% floor.
            low = (tick // 60) % 6 == index and (tick // 60) % 2 == 0
            coverage = rng.normal(70.0 if low else 93.0, 4.0)
            if rng.random() < 0.08:
                coverage = float("nan")  # a warm-up / degenerate window
            fleet[f"stream.{name}.coverage"] = coverage
            fleet[f"stream.{name}.mae"] = abs(rng.normal(3.0, 1.0))
        if tick >= 420 and rng.random() < 0.01:
            self._drops += float(rng.integers(1, 4))
        if self._drops > 0.0:
            fleet["events.stream_predict_failed"] = self._drops
        self.fleet = fleet

        quiet = 400 <= tick < 520 or 1200 <= tick < 1330
        if not quiet:
            arrivals = float(rng.integers(0, 12))
            burst = (tick // 90) % 5 == 3
            errors = float(rng.binomial(int(arrivals), 0.3 if burst else 0.005))
            self._requests += arrivals
            self._errors += errors
        gateway = {
            "requests_total": self._requests,
            "errors_total": self._errors,
            "ok_total": self._requests - self._errors,
        }
        if tick >= 50:
            p99 = rng.lognormal(np.log(0.2), 0.8)
            gateway["p99/predict"] = float("nan") if rng.random() < 0.05 else p99
        self.gateway = gateway
        self.server = {"queue_depth": float(rng.poisson(2.0)), "running": True}

    def fleet_source(self):
        return dict(self.fleet)

    def gateway_source(self):
        return dict(self.gateway)

    def server_source(self):
        if self.tick == RAISE_AT:
            raise RuntimeError("stats backend down for one tick")
        return dict(self.server)


def _specs():
    return default_slos() + [
        SLOSpec(name="availability_fast", kind="ratio", good="gateway.ok_total",
                total="gateway.requests_total", target=0.95, long_window=6,
                short_window=2, for_ticks=1),
        SLOSpec(name="coverage_slow", kind="lower", metric="fleet.stream.*.coverage",
                bound=88.0, target=0.7, long_window=40, short_window=10, for_ticks=3),
        SLOSpec(name="mae_ceiling", kind="upper", metric="fleet.stream.s?.mae",
                bound=4.5, target=0.75, long_window=7, short_window=3),
        SLOSpec(name="queue_depth", kind="upper", metric="server.queue_depth",
                bound=4.0, target=0.8, long_window=12, short_window=1),
        SLOSpec(name="drops_slow", kind="zero", metric="fleet.events.stream_predict_failed",
                target=0.99, long_window=33, short_window=7, burn_threshold=2.0),
    ]


@pytest.fixture(scope="module")
def runs():
    feed = _Feed(seed=20)
    engine = SLOEngine(_specs())
    reference = _FrozenEngine(_specs())
    for name in ("fleet", "gateway", "server"):
        source = getattr(feed, f"{name}_source")
        engine.add_source(name, source)
        reference.history.add_source(name, source)
    per_tick = []
    for tick in range(TICKS):
        feed.advance(tick)
        got = engine.step(tick)
        want = reference.step(tick)
        burns = {
            (alert.spec.name, alert.series): (alert.burn_long, alert.burn_short)
            for alert in engine.alerts()
        }
        reference_burns = {
            key: (alert.burn_long, alert.burn_short)
            for key, alert in reference.alerts.items()
        }
        per_tick.append((tick, got, want, burns, reference_burns))
    return engine, reference, per_tick


class TestBoundedRowsMatchTheOldHistory:
    def test_transitions_and_burn_rates_equal_at_every_tick(self, runs):
        _, _, per_tick = runs
        for tick, got, want, burns, reference_burns in per_tick:
            assert got == want, f"transitions differ at tick {tick}"
            assert burns == reference_burns, f"burn rates differ at tick {tick}"

    def test_the_run_exercises_what_it_claims(self, runs):
        engine, reference, per_tick = runs
        assert TICKS > 1024  # past the old ring's capacity
        assert len(reference.history._samples) == 1024
        assert engine.stats["samples"] == engine.stats["capacity"] == 40
        assert engine.stats["source_errors"] == reference.history.source_errors == 1
        moved = {
            (record["slo"], record["state"])
            for _, got, _, _, _ in per_tick
            for record in got
        }
        for slo in ("availability", "availability_fast", "stream_coverage",
                    "coverage_slow", "zero_drop", "predict_p99_latency",
                    "queue_depth", "mae_ceiling"):
            assert (slo, "firing") in moved, slo
            assert (slo, "resolved") in moved, slo
        series = {alert.series for alert in engine.alerts()}
        assert "fleet.stream.s5.coverage" in series  # appeared at tick 1100
        # Ticks late in the run fire too, after the old ring had wrapped.
        late = [record for _, got, _, _, _ in per_tick[1100:] for record in got]
        assert any(record["state"] == "firing" for record in late)
