"""Differential oracle for the fleet tick's batched resolve and record.

The fleet resolves and records all of a tick's streams in one pass
(:func:`repro.streaming.shard.resolve_many` / :func:`~repro.streaming.shard.record_many`).
This module keeps the per-stream loop they replaced — one ``resolve`` and one
``record`` per stream, with the calibrator and monitor updates they call — as
a frozen reference, drives a live fleet and a reference fleet with the same
seeded rows, and requires byte-equal step results, events and ``get_state``
on every tick.  Any RuntimeWarning fails the module, so vectorized masking
cannot silently divide by zero.
"""

import json
from bisect import bisect_left, insort
from contextlib import ExitStack
from typing import Any, Dict, List, Optional
from unittest import mock

import numpy as np
import pytest

from repro.core.inference import PredictionResult
from repro.fleet import StreamFleet
from repro.metrics.uncertainty import Z_95, norm_ppf
from repro.serving import InferenceServer
from repro.streaming import shard
from repro.streaming.monitor import StreamingMonitor
from repro.streaming.shard import Forecasts, Pending, ResolvedStep

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

HISTORY, HORIZON, TICKS = 4, 3, 72


# ---------------------------------------------------------------------- #
# The per-stream reference: the loop the batch code replaced, frozen.
# ---------------------------------------------------------------------- #
def _corrected_level(n: int, significance: float) -> float:
    return min(np.ceil((n + 1) * (1.0 - significance)) / n, 1.0)


def _sorted_quantile(sorted_values: List[float], level: float) -> float:
    n = len(sorted_values)
    position = min(max(level, 0.0), 1.0) * (n - 1)
    low = int(position)
    t = position - low
    a = sorted_values[low]
    if t == 0.0 or low + 1 >= n:
        return a
    b = sorted_values[low + 1]
    if t >= 0.5:
        return b - (b - a) * (1.0 - t)
    return a + (b - a) * t


def _quantiles(cal) -> np.ndarray:
    quantiles = np.empty(cal.horizon, dtype=np.float64)
    for h in range(cal.horizon):
        level = 1.0 - cal.alpha_t[h]
        n = int(cal._count[h])
        if n < cal.config.min_scores:
            quantiles[h] = norm_ppf(0.5 + level / 2.0)
            continue
        quantiles[h] = _sorted_quantile(cal._sorted[h], _corrected_level(n, cal.alpha_t[h]))
    return quantiles


def _margins(cal) -> np.ndarray:
    margins = np.zeros(cal.horizon, dtype=np.float64)
    for h in range(cal.horizon):
        n = int(cal._count[h])
        if n < cal.config.min_scores:
            continue
        margins[h] = _sorted_quantile(cal._sorted[h], _corrected_level(n, cal.alpha_t[h]))
    return margins


def _scale(result: PredictionResult) -> np.ndarray:
    std = result.std
    return np.where(std > 1e-12, std, 1.0)


def _native_reference(cal, result: PredictionResult):
    if result.has_native_bounds:
        return result.lower, result.upper
    half = np.array(
        [norm_ppf(0.5 + (1.0 - alpha) / 2.0) for alpha in cal.alpha_t]
    ).reshape(1, -1, 1) * _scale(result)
    return result.mean - half, result.mean + half


def _intervals(cal, result: PredictionResult):
    if cal.uses_native(result):
        native_lower, native_upper = _native_reference(cal, result)
        margin = _margins(cal).reshape(1, -1, 1)
        lower = native_lower - margin
        upper = native_upper + margin
        mid = 0.5 * (lower + upper)
        return np.minimum(lower, mid), np.maximum(upper, mid)
    half = _quantiles(cal).reshape(1, -1, 1) * _scale(result)
    return result.mean - half, result.mean + half


def _fold(cal, result, lower, upper):
    if cal.uses_native(result):
        return result.replace_interval_bounds(lower, upper)
    return result.replace_interval_std((upper - lower) / (2.0 * Z_95))


def _score(cal, observed, mean, scale, lower=None, upper=None):
    if cal.uses_native() and lower is not None and upper is not None:
        return np.maximum(lower - observed, observed - upper)
    return np.abs(observed - mean) / scale


def _calibrator_update(cal, h, scores, miscoverage=None) -> None:
    cfg = cal.config
    scores = np.asarray(scores, dtype=np.float64).reshape(-1)
    scores = scores[np.isfinite(scores)]
    cal.updates += 1
    if cfg.mode == "aci" and miscoverage is not None and cfg.gamma > 0.0:
        cal.alpha_t[h] = np.clip(
            cal.alpha_t[h] + cfg.gamma * (cfg.significance - float(miscoverage)),
            cfg.alpha_clip,
            1.0 - cfg.alpha_clip,
        )
    if scores.size == 0 or cal._frozen[h]:
        return
    if scores.size >= cfg.window:
        scores = scores[-cfg.window:]
    sorted_h = cal._sorted[h]
    pos = int(cal._pos[h])
    count = int(cal._count[h])
    row = cal._scores[h]
    for value in scores:
        value = float(value)
        if count == cfg.window:
            evicted = row[pos]
            sorted_h.pop(bisect_left(sorted_h, evicted))
        else:
            count += 1
        row[pos] = value
        insort(sorted_h, value)
        pos = (pos + 1) % cfg.window
    cal._pos[h] = pos
    cal._count[h] = count
    if cfg.mode == "static" and count == cfg.window:
        cal._frozen[h] = True


def _monitor_update(monitor, target, mean, lower, upper) -> Optional[float]:
    mask = np.isfinite(target)
    monitor.steps += 1
    if not mask.any():
        return None
    t, m = target[mask], mean[mask]
    lo, up = lower[mask], upper[mask]
    covered = float(np.mean((t >= lo) & (t <= up)))
    width = up - lo
    below = (lo - t) * (t < lo)
    above = (t - up) * (t > up)
    winkler = float(np.mean(width + (2.0 / monitor.significance) * (below + above)))
    error = t - m
    monitor._covered.push(covered)
    monitor._width.push(float(np.mean(width)))
    monitor._abs_error.push(float(np.mean(np.abs(error))))
    monitor._sq_error.push(float(np.mean(error ** 2)))
    monitor._winkler.push(winkler)
    return covered


def reference_resolve(core, s, obs, valid) -> ResolvedStep:
    targets, means, lowers, uppers, steps = [], [], [], [], []
    masked = np.where(valid, obs, np.nan)
    for entry in core._pending:
        h = s - entry.step - 1
        if not 0 <= h < core.horizon:
            continue
        mu, scale = entry.field("mean")[h], entry.field("scale")[h]
        lo, up = entry.field("lower")[h], entry.field("upper")[h]
        targets.append(masked)
        means.append(mu)
        lowers.append(lo)
        uppers.append(up)
        steps.append(entry.step)
        if valid.any():
            nat_lo, nat_up = entry.field("native_lower"), entry.field("native_upper")
            scores = _score(
                core.calibrator,
                obs[valid],
                mu[valid],
                scale[valid],
                lower=nat_lo[h][valid] if nat_lo is not None else None,
                upper=nat_up[h][valid] if nat_up is not None else None,
            )
            miss = float(((obs[valid] < lo[valid]) | (obs[valid] > up[valid])).mean())
        else:
            scores, miss = np.empty(0), None
        _calibrator_update(core.calibrator, h, scores, miscoverage=miss)
    resolved = ResolvedStep(observed=obs, filled=obs, valid=valid, covered=None, abs_error=None)
    if not targets:
        return resolved
    target = np.stack(targets)
    mean = np.stack(means)
    resolved.target, resolved.mean = target, mean
    resolved.lower, resolved.upper = np.stack(lowers), np.stack(uppers)
    resolved.steps = np.asarray(steps)
    resolved.covered = _monitor_update(core.monitor, target, mean, resolved.lower, resolved.upper)
    finite = np.isfinite(target)
    if finite.any():
        resolved.abs_error = float(np.mean(np.abs(target[finite] - mean[finite])))
    return resolved


def reference_record(core, raw: PredictionResult):
    cal = core.calibrator
    lower_b, upper_b = _intervals(cal, raw)
    calibrated = _fold(cal, raw, lower_b, upper_b)
    scale = _scale(raw)
    if cal.uses_native():
        native_lower, native_upper = _native_reference(cal, raw)
        native_lower, native_upper = native_lower[0], native_upper[0]
    else:
        native_lower = raw.lower[0] if raw.lower is not None else None
        native_upper = raw.upper[0] if raw.upper is not None else None
    fields = {
        "mean": raw.mean[0], "scale": scale[0], "lower": lower_b[0], "upper": upper_b[0],
        "native_lower": native_lower, "native_upper": native_upper,
    }
    core._pending.append(Pending(core.step, Forecasts.single(fields), 0))
    return calibrated, lower_b[0], upper_b[0]


def _reference_tick(fleet, observations, masks=None):
    """One tick of ``fleet`` with the batch functions replaced by the per-stream loop."""
    def resolve_many(cores, steps, observations_, valids):
        return [reference_resolve(*args) for args in zip(cores, steps, observations_, valids)]

    def record_many(cores, raws):
        return [reference_record(core, raw) for core, raw in zip(cores, raws)]

    with ExitStack() as stack:
        stack.enter_context(mock.patch.object(shard, "resolve_many", resolve_many))
        stack.enter_context(mock.patch.object(shard, "record_many", record_many))
        return fleet.tick(observations, masks=masks)


# ---------------------------------------------------------------------- #
# A heterogeneous fleet
# ---------------------------------------------------------------------- #
class _Model:
    """Deterministic forecaster: damped last value, std from the window."""

    def __init__(self, native: bool = False) -> None:
        self.native = native

    def predict(self, windows: np.ndarray) -> PredictionResult:
        last = windows[:, -1:, :]
        steps = np.arange(1, HORIZON + 1).reshape(1, -1, 1)
        mean = last + 0.1 * steps * (windows.mean(axis=1, keepdims=True) - last)
        spread = windows.std(axis=1, keepdims=True) + 0.25 * steps
        var = np.broadcast_to(spread ** 2, mean.shape).copy()
        if not self.native:
            return PredictionResult(mean=mean, aleatoric_var=0.6 * var, epistemic_var=0.4 * var)
        return PredictionResult(
            mean=mean,
            aleatoric_var=var,
            epistemic_var=np.zeros_like(var),
            lower=mean - 1.4 * spread - 0.2,
            upper=mean + 2.1 * spread,
        )


def _server() -> InferenceServer:
    server = InferenceServer(max_batch_size=64, max_wait_ms=1.0, cache_size=0)
    server.deploy("base", _Model().predict)
    server.deploy("wide", _Model().predict)
    server.deploy("cqr", _Model(native=True).predict)
    return server


#: name -> (region, sensors, add_stream keyword overrides)
STREAMS: Dict[str, Any] = {
    "n0": ("north", 4, {}),
    "n1": ("north", 4, {"aci": {"mode": "static", "window": 30, "min_scores": 5}}),
    "n2": ("north", 4, {"aci": {"mode": "rolling", "window": 25, "min_scores": 8}}),
    "n3": ("north", 4, {"aci": {"gamma": 0.05, "window": 12, "min_scores": 3}}),
    "n4": ("north", 4, {"aci": {"significance": 0.2, "min_scores": 4}}),
    "n5": ("north", 4, {"aci": {"window": 40, "min_scores": 6}}),
    "s0": ("south", 3, {"aci": {"window": 20, "min_scores": 5}}),
    "s1": ("south", 3, {"aci": {"mode": "rolling", "window": 15, "min_scores": 4}}),
    "s2": ("south", 3, {}),
    "q0": ("quant", 4, {"aci": {"window": 30, "min_scores": 6}}),
}
LATE = ("late", "north", 4, {"aci": {"window": 16, "min_scores": 4}})
LATE_TICK, RESET_TICK = 20, 45
SKIPPED = "n5"


def _add(fleet: StreamFleet, name: str, region: str, sensors: int, overrides: Dict[str, Any]):
    kwargs = dict(overrides)
    if name in ("n3", "s1"):
        kwargs["monitor"] = StreamingMonitor(window=7, significance=0.05)
    fleet.add_stream(name, region=region, key=name, **kwargs)
    deployment = {"north": "base", "south": "wide", "quant": "cqr"}[region]
    fleet.router.set_routes({name: deployment})


def _build(server: InferenceServer) -> StreamFleet:
    fleet = StreamFleet(server, HISTORY, HORIZON, monitor_window=10)
    for name, (region, sensors, overrides) in STREAMS.items():
        _add(fleet, name, region, sensors, overrides)
    return fleet


def _feed(seed: int = 7):
    """Per-tick ``(observations, masks)`` with NaNs, masks, gaps and blackouts."""
    rng = np.random.default_rng(seed)
    names = list(STREAMS) + [LATE[0]]
    sensors = {name: STREAMS[name][1] for name in STREAMS}
    sensors[LATE[0]] = LATE[2]
    base = {name: rng.uniform(20.0, 80.0, sensors[name]) for name in names}
    ticks = []
    for t in range(TICKS):
        observations, masks = {}, {}
        for name in names:
            if name == LATE[0] and t < LATE_TICK:
                continue
            if name == SKIPPED and t % 5 == 3:
                continue  # skipped this tick
            shift = 25.0 if t >= 40 and name in ("n0", "s0", "q0") else 0.0
            row = base[name] + shift + rng.normal(0.0, 6.0, sensors[name])
            row[rng.random(sensors[name]) < 0.12] = np.nan
            if name == "n2" and 30 <= t < 34:
                row[:] = np.nan  # fully missing rows
            observations[name] = row
            if name in ("n0", "s1") and t % 4 == 1:
                masks[name] = rng.random(sensors[name]) < 0.7
            if name == "n4" and t in (37, 38):
                masks[name] = np.zeros(sensors[name], dtype=bool)  # fully masked
        ticks.append((observations, masks))
    return ticks


# ---------------------------------------------------------------------- #
# Byte-level comparison
# ---------------------------------------------------------------------- #
def _same_array(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _event_records(events) -> List[Any]:
    return [(e.kind, e.step, repr(e.value), repr(e.threshold), e.message) for e in events]


def _assert_results_equal(live, reference, tick: int) -> None:
    assert set(live.results) == set(reference.results), tick
    assert _event_records(live.events) == _event_records(reference.events), tick
    for name, got in live.results.items():
        want = reference.results[name]
        where = (tick, name)
        assert got.step == want.step and got.served_by == want.served_by, where
        assert _same_array(got.observed, want.observed), where
        assert _same_array(got.mask, want.mask), where
        assert np.float64(got.coverage).tobytes() == np.float64(want.coverage).tobytes(), where
        assert _event_records(got.events) == _event_records(want.events), where
        assert _same_array(got.lower, want.lower), where
        assert _same_array(got.upper, want.upper), where
        if want.prediction is None:
            assert got.prediction is None, where
            continue
        for attr in ("mean", "aleatoric_var", "epistemic_var", "lower", "upper"):
            assert _same_array(
                getattr(got.prediction, attr), getattr(want.prediction, attr)
            ), (where, attr)


def _assert_states_equal(live: StreamFleet, reference: StreamFleet, tick: int) -> None:
    assert set(live.streams) == set(reference.streams)
    for name in live.streams:
        got = live.streams[name].core.get_state()
        want = reference.streams[name].core.get_state()
        assert json.dumps(got["meta"], sort_keys=True) == json.dumps(
            want["meta"], sort_keys=True
        ), (tick, name)
        assert list(got["arrays"]) == list(want["arrays"]), (tick, name)
        for key, value in got["arrays"].items():
            assert _same_array(value, want["arrays"][key]), (tick, name, key)


# ---------------------------------------------------------------------- #
class TestBatchedTickMatchesPerStreamLoop:
    def test_every_tick_is_byte_identical(self):
        feed = _feed()
        with _server() as live_server, _server() as reference_server:
            live, reference = _build(live_server), _build(reference_server)
            forecasts = 0
            for tick, (observations, masks) in enumerate(feed):
                if tick == LATE_TICK:
                    for fleet in (live, reference):
                        _add(fleet, *LATE)
                if tick == RESET_TICK:
                    for fleet in (live, reference):
                        fleet["n0"].core.reset_scores()
                        fleet["s0"].core.reset_scores(keep_alpha=False)
                got = live.tick(observations, masks=masks)
                want = _reference_tick(reference, observations, masks=masks)
                _assert_results_equal(got, want, tick)
                _assert_states_equal(live, reference, tick)
                forecasts += sum(step.prediction is not None for step in got.results.values())
        # The run exercised what it claims to: forecasts on every region,
        # a native-latched stream, a skipped stream, frozen and wrapped rings.
        assert forecasts > len(STREAMS) * (TICKS - 2 * HISTORY)
        assert live["q0"].core.calibrator.uses_native()
        assert not live["n0"].core.calibrator.uses_native()
        assert live[SKIPPED].core.step < TICKS - 10
        assert live["late"].core.step == TICKS - LATE_TICK
        assert live["n1"].core.calibrator._frozen.all()
        assert (live["n3"].core.calibrator._count == 12).all()
        assert live["s0"].core.calibrator.updates > 0

    def test_one_core_calls_match_the_reference(self):
        """The solo path (``StreamCore.resolve`` / ``record``) is the same code."""
        feed = _feed(seed=11)
        with _server() as live_server, _server() as reference_server:
            live, reference = _build(live_server), _build(reference_server)
            for tick, (observations, masks) in enumerate(feed[:30]):
                observations = {k: v for k, v in observations.items() if k != LATE[0]}
                got = live.tick(observations, masks=masks)
                want = _reference_tick(reference, observations, masks=masks)
                _assert_results_equal(got, want, tick)
            _assert_states_equal(live, reference, 30)
            observations, _ = feed[30]
            raw = _Model(native=True).predict(live["q0"].core.window())
            core, ref_core = live["q0"].core, reference["q0"].core
            obs, valid = core.normalize(observations["q0"])
            got = core.resolve(core.step, obs, valid)
            want = reference_resolve(ref_core, ref_core.step, obs, valid)
            assert (got.covered, got.abs_error) == (want.covered, want.abs_error)
            for attr in ("target", "mean", "lower", "upper", "steps"):
                assert _same_array(getattr(got, attr), getattr(want, attr)), attr
            got_cal, got_lo, got_up = core.record(raw)
            want_cal, want_lo, want_up = reference_record(ref_core, raw)
            assert _same_array(got_lo, want_lo) and _same_array(got_up, want_up)
            assert _same_array(got_cal.lower, want_cal.lower)
            _assert_states_equal(live, reference, 31)


class TestRowwiseReductionMatchesOneDimensional:
    """The property the batched monitor relies on: summing rows of a
    C-contiguous 2-D array along the last axis gives, bit for bit, the 1-D
    sum of each row."""

    @pytest.mark.parametrize(
        "length", list(range(1, 40)) + [64, 128, 129, 200, 288, 300, 1000, 2000]
    )
    def test_row_sums_equal_one_dimensional_sums(self, length):
        rng = np.random.default_rng(length)
        rows = rng.standard_normal((9, length)) * 10.0 ** rng.integers(-6, 6, (9, 1))
        batched = rows.sum(axis=1)
        for row, value in zip(rows, batched):
            assert np.float64(value).tobytes() == np.float64(row.sum()).tobytes()
