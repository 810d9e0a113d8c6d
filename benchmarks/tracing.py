"""Per-layer tracing of krc from outside the package.

``Tracer.install`` wraps the public functions listed in ``LAYER_FUNCTIONS``.
A wrapped plain function is rebound in every ``krc.*`` module namespace that
holds it, because modules call each other through their own imported names;
``Kernel.weight``, ``ComparisonDataset.with_max_time`` and
``OnlineState.from_dataset`` are patched on their classes.

For every wrapped function the tracer counts calls, inclusive seconds and
self seconds (inclusive minus the time covered by wrapped callees).  It
keeps a span ``(name, start, end, parent)`` for each call except those in
``HOT``, which run too often to keep and get counters only.  Spans and
counters stay in memory and are written once, by ``write``.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from pathlib import Path

import numpy as np

# (metric prefix, module, attribute); a dotted attribute names a class member.
LAYER_FUNCTIONS = (
    ("data.ingest_csv", "krc.data", "ingest_csv"),
    ("data.with_max_time", "krc.data", "ComparisonDataset.with_max_time"),
    ("data.check_strong_connectivity", "krc.data", "check_strong_connectivity"),
    ("kernels.weight", "krc.kernels", "Kernel.weight"),
    ("estimator.estimate_curve", "krc.estimator", "estimate_curve"),
    ("estimator.fit_scores", "krc.estimator", "fit_scores"),
    ("estimator.pair_fractions", "krc.estimator", "pair_fractions"),
    ("estimator.transition_from_fractions", "krc.estimator", "transition_from_fractions"),
    ("estimator.stationary", "krc.estimator", "stationary"),
    ("online.from_dataset", "krc.online", "OnlineState.from_dataset"),
    ("online.apply_observation", "krc.online", "apply_observation"),
    ("online.rank_one_update", "krc.online", "rank_one_update"),
    ("online.refresh", "krc.online", "refresh"),
    ("online.group_inverse", "krc.online", "group_inverse"),
    ("inference.plug_in_alpha", "krc.inference", "plug_in_alpha"),
    ("baselines.static_rank_centrality", "krc.baselines", "static_rank_centrality"),
    ("baselines.bt_mle_mm", "krc.baselines", "bt_mle_mm"),
    ("baselines.wmle", "krc.baselines", "wmle"),
    ("simulate.generate", "krc.simulate", "generate"),
    ("experiments.backtest", "krc.experiments", "backtest"),
    ("experiments.coverage_experiment", "krc.experiments", "coverage_experiment"),
)

HOT = frozenset({"kernels.weight"})

# Counters recorded beside calls / s / self_s.
EXTRA_COUNTERS = (
    ("kernels.weight.points", "count", "lower"),
    ("kernels.weight.nonzero_frac", "ratio", "higher"),
    ("online.refresh.unscheduled", "count", "lower"),
    ("experiments.backtest.failed_fits", "count", "lower"),
)


def per_layer_metric_names() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    names = []
    for prefix, _, _ in LAYER_FUNCTIONS:
        names += [
            (f"{prefix}.calls", "count", "lower"),
            (f"{prefix}.s", "s", "lower"),
            (f"{prefix}.self_s", "s", "lower"),
        ]
    return names + list(EXTRA_COUNTERS) + [("trace.overhead_frac", "ratio", "lower")]


class Tracer:
    def __init__(self):
        self.calls = {name: 0 for name, _, _ in LAYER_FUNCTIONS}
        self.total = {name: 0.0 for name, _, _ in LAYER_FUNCTIONS}
        self.self_time = {name: 0.0 for name, _, _ in LAYER_FUNCTIONS}
        self.weight_points = 0
        self.weight_nonzero = 0
        self.unscheduled_refreshes = 0
        self.failed_fits = 0
        self.spans: list[tuple[str, float, float, int]] = []
        # Open frames: [name, start, time covered by wrapped callees, span index].
        self._stack: list[list] = []
        self.recording = True
        self._origin = time.perf_counter()

    # -- spans -----------------------------------------------------------

    def _enter(self, name: str) -> list:
        frame = [name, time.perf_counter(), 0.0, -1]
        if name not in HOT:
            parent = self._stack[-1][3] if self._stack else -1
            frame[3] = len(self.spans)
            self.spans.append((name, frame[1] - self._origin, 0.0, parent))
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        name, start, covered, index = frame
        duration = end - start
        if index >= 0:
            span = self.spans[index]
            self.spans[index] = (span[0], span[1], end - self._origin, span[3])
        if self._stack:
            self._stack[-1][2] += duration
        if name in self.calls:
            self.calls[name] += 1
            self.total[name] += duration
            self.self_time[name] += duration - covered

    @contextlib.contextmanager
    def span(self, name: str):
        """A benchmark-level span, such as one set-up or one op."""
        frame = self._enter(name) if self.recording else None
        try:
            yield
        finally:
            if frame is not None:
                self._exit(frame)

    # -- wrapping --------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            frame = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            tracer._observe(name, result)
            return result

        return wrapper

    def _observe(self, name: str, result) -> None:
        if name == "kernels.weight":
            # A float for one observation time, else an array of weights.
            if isinstance(result, float):
                self.weight_points += 1
                self.weight_nonzero += int(result > 0.0)
            else:  # weights are never negative
                self.weight_points += result.size
                self.weight_nonzero += int(np.count_nonzero(result))
        elif name == "experiments.backtest":
            self.failed_fits += result.n_failed_fits

    def _note_refresh(self, state) -> None:
        caller = self._stack[-1][0] if self._stack else ""
        if caller == "online.apply_observation" and (
            state.updates_since_refresh < state.refresh_every
        ):
            self.unscheduled_refreshes += 1

    def install(self) -> None:
        """Wrap every function in LAYER_FUNCTIONS; call after ``import krc``."""
        modules = [m for k, m in sys.modules.items() if k == "krc" or k.startswith("krc.")]
        for name, module_name, attr in LAYER_FUNCTIONS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, member = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[member]
                if isinstance(raw, classmethod):
                    setattr(cls, member, classmethod(self._wrap(name, raw.__func__)))
                else:
                    setattr(cls, member, self._wrap(name, raw))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            if name == "online.refresh":
                wrapper = self._refresh_wrapper(wrapper)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def _refresh_wrapper(self, wrapped):
        tracer = self

        @functools.wraps(wrapped)
        def refresh(state):
            if tracer.recording:
                tracer._note_refresh(state)
            return wrapped(state)

        return refresh

    # -- output ----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric except the overhead, which needs an
        untraced run to compare with."""
        out: dict[str, float] = {}
        for name, _, _ in LAYER_FUNCTIONS:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.s"] = self.total[name]
            out[f"{name}.self_s"] = self.self_time[name]
        out["kernels.weight.points"] = self.weight_points
        out["kernels.weight.nonzero_frac"] = (
            self.weight_nonzero / self.weight_points if self.weight_points else 0.0
        )
        out["online.refresh.unscheduled"] = self.unscheduled_refreshes
        out["experiments.backtest.failed_fits"] = self.failed_fits
        return out

    def write(self, path: Path, header: dict) -> None:
        """Write ``{"header", "counters", "spans"}``; a span is
        ``[name, start_s, end_s, parent_index]`` with -1 for no parent and
        times in seconds from tracer creation."""
        path.parent.mkdir(parents=True, exist_ok=True)
        counters = {
            name: {"calls": self.calls[name], "s": self.total[name],
                   "self_s": self.self_time[name]}
            for name, _, _ in LAYER_FUNCTIONS
        }
        payload = {"header": header, "counters": counters,
                   "spans": [list(s) for s in self.spans]}
        path.write_text(json.dumps(payload))
