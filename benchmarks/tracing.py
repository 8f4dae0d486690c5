"""Spans around the public functions of each dpris layer, installed from
outside the package.

Each wrapper goes on the name its callers look up at call time: a module
attribute is also that module's global, so ``dpris.channel.correlation_sqrt``
covers the call inside ``build_channel_statistics``, and ``capacity``'s own
imported name ``dpris.capacity.sample_channel`` covers the Monte Carlo loop.
Spans stay in memory; ``Tracer.restore`` puts the originals back.  A target
that no longer exists is reported as absent.

The cost of tracing is estimated, not timed against an untraced pass: on a
shared machine two passes of the same code can differ by more than the
spans cost.  One span's cost is timed on a no-op target, and the estimate
is that cost times the number of spans recorded.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

#: (module, attribute) -> span group.  Groups are the per-layer metric stems.
TARGETS = {
    ("geometry", "build_ris_grid"): "geometry.build_ris_grid",
    ("feed", "build_propagation_matrix"): "feed.build_propagation_matrix",
    ("ris", "build_configuration"): "ris.build_configuration",
    ("channel", "correlation_matrix"): "channel.correlation_matrix",
    ("channel", "correlation_sqrt"): "channel.correlation_sqrt",
    ("capacity", "sample_channel"): "channel.sample_channel",
    ("capacity", "ergodic_capacity_mc"): "capacity.mc",
    ("capacity", "single_pol_capacity_mc"): "capacity.mc",
    ("capacity", "compute_O"): "capacity.quadform",
    ("capacity", "expected_gram_moments"): "capacity.quadform",
    ("capacity", "closed_form_upper_bound"): "capacity.bound",
    ("capacity", "moment_upper_bound"): "capacity.bound",
    ("capacity", "single_pol_upper_bound"): "capacity.bound",
    ("capacity", "equal_allocation_lower_bound"): "capacity.bound",
    ("capacity", "optimal_power_allocation"): "capacity.bound",
    ("capacity", "xpd_threshold"): "capacity.bound",
    ("scenario", "build_link_model"): "scenario.build_link_model",
    ("sweep", "run_sweep"): "sweep.run_sweep",
    ("sweep", "write_csv"): "sweep.write_csv",
}

#: Groups whose call count is a per-layer metric.
COUNTED = (
    "channel.correlation_matrix",
    "channel.correlation_sqrt",
    "channel.sample_channel",
    "capacity.quadform",
    "scenario.build_link_model",
)

#: Groups whose self time is a per-layer metric, by metric name.
SELF_TIMES = {
    "geometry.build_ris_grid_ms": "geometry.build_ris_grid",
    "feed.build_propagation_matrix_ms": "feed.build_propagation_matrix",
    "ris.build_configuration_ms": "ris.build_configuration",
    "channel.correlation_matrix_ms": "channel.correlation_matrix",
    "channel.correlation_sqrt_ms": "channel.correlation_sqrt",
    "channel.sample_channel_ms": "channel.sample_channel",
    "capacity.quadform_ms": "capacity.quadform",
    "capacity.bound_ms": "capacity.bound",
    "scenario.build_link_model_ms": "scenario.build_link_model",
    "sweep.self_ms": "sweep.run_sweep",
    "sweep.write_csv_ms": "sweep.write_csv",
}

#: No-op calls per calibration round, and rounds, for ``Tracer.span_cost_s``.
CALIBRATION_CALLS = 20_000
CALIBRATION_ROUNDS = 5


class Tracer:
    """Records one span per call of every target: group, start, end, parent."""

    def __init__(self):
        self.spans: list[list] = []
        self.trials = 0
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._originals: list[tuple] = []
        for (module_name, attr), group in TARGETS.items():
            module = importlib.import_module(f"dpris.{module_name}")
            original = getattr(module, attr, None)
            if original is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original, group))

    def restore(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def _wrap(self, fn, group: str):
        signature = inspect.signature(fn) if group == "capacity.mc" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if signature is not None:
                trials = signature.bind(*args, **kwargs).arguments.get("trials")
                self.trials += int(trials or 0)
            index = len(self.spans)
            self.spans.append([group, 0.0, 0.0, self._stack[-1] if self._stack else -1])
            self._stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index][1:3] = start, end

        return traced

    def span_cost_s(self) -> float:
        """Seconds one span adds to a call: the least over several rounds of
        the time of traced no-op calls minus as many untraced ones."""

        def noop():
            pass

        traced = self._wrap(noop, "calibration")
        recorded = len(self.spans)
        costs = []
        for _ in range(CALIBRATION_ROUNDS):
            start = time.perf_counter()
            for _ in range(CALIBRATION_CALLS):
                noop()
            middle = time.perf_counter()
            for _ in range(CALIBRATION_CALLS):
                traced()
            costs.append((time.perf_counter() - middle) - (middle - start))
            del self.spans[recorded:]
        return max(min(costs), 0.0) / CALIBRATION_CALLS

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer totals for everything recorded so far, in a pass whose
        traced rows took ``wall_s``."""
        child_time = [0.0] * len(self.spans)
        for group, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_time: dict[str, float] = {}
        total_time: dict[str, float] = {}
        calls: dict[str, int] = {}
        for (group, start, end, _), children in zip(self.spans, child_time):
            self_time[group] = self_time.get(group, 0.0) + (end - start - children)
            total_time[group] = total_time.get(group, 0.0) + (end - start)
            calls[group] = calls.get(group, 0) + 1
        out = {name: 1e3 * self_time.get(group, 0.0) for name, group in SELF_TIMES.items()}
        for group in COUNTED:
            out[f"{group}_calls"] = calls.get(group, 0)
        mc_time = total_time.get("capacity.mc", 0.0)
        out["capacity.mc_us_per_trial"] = 1e6 * mc_time / self.trials if self.trials else 0.0
        out["capacity.mc_trials"] = self.trials
        spans_s = len(self.spans) * self.span_cost_s()
        out["trace.overhead_frac"] = spans_s / (wall_s - spans_s)
        return out
