"""Outside-in layer tracing for the gradest benchmark.

The program is not instrumented. Instead, each layer's public entry points
are wrapped where the calling module looks them up (a module attribute, or a
method on a class), so `experiments.estimate_with_retry` and
`optimizer.estimate_with_retry` are patched separately. Spans are kept in
memory (layer, parent layer and self time, in flat arrays) and summarised after each traced repetition:

  <layer>.calls   outermost entries into the layer (a span whose parent span
                  belongs to another layer, or to no layer)
  <layer>.self_s  span time minus the time of its direct child spans

An entry point that the program no longer has is listed in `absent` and its
layer reports zeros; tracing never fails because of it.
"""
from __future__ import annotations

import functools
import time
import weakref
from array import array

import numpy as np

LAYERS = (
    "core.eval_batch",
    "core.oracle_call",
    "sampling.generator",
    "sampling.directions",
    "sampling.orthonormal",
    "sampling.mc_moment",
    "estimators.estimate",
    "bounds",
    "optimizer.loop",
    "optimizer.armijo",
    "optimizer.lbfgs",
    "experiments.driver",
    "experiments.render",
    "cli",
)

# counters kept beside the spans, at the same boundaries
COUNTERS = (
    "core.eval_batch.rows",
    "sampling.directions.rows",
    "sampling.mc_moment.draws",
    "estimators.li_redraws",
    "experiments.render.bytes",
    "optimizer.ls_evals",
    "optimizer.repeat_fx_evals",
    # read from the solver traces by the dfo_race workload
    "optimizer.iterations",
    "optimizer.evals",
    "optimizer.backtracks",
    "optimizer.null_steps",
    "optimizer.step_failure_runs",
)

_BOUNDS_FUNCTIONS = (
    "deterministic_error_bound", "smoothing_bias_bound", "variance_kappa",
    "chebyshev_sample_size", "bernstein_sample_size", "condition_table",
    "condition_report", "ffd_exact_sigma_interval", "error_floor",
)
_DRIVERS = ("run_relative_error_sweep", "run_theta_distribution",
            "run_bound_validation", "run_optimizer_benchmark")
_SOLVERS = ("run_dfo", "fixed_step_dfo")


class Tracer:
    """Span recorder plus the patch table for gradest's layers."""

    def __init__(self):
        self.absent: list[str] = []
        self._patched: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.layer = array("b")
        self.parent_layer = array("b")
        self.self_time = array("d")
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._stack: list[list] = []  # [layer, start, child seconds]
        self._depth = [0] * len(LAYERS)
        self._li_frames: list[int] = []
        # per oracle: bytes of the last point whose f the caller already holds
        self._known_x = weakref.WeakKeyDictionary()

    # -- spans ---------------------------------------------------------------

    def _enter(self, lid: int) -> None:
        self._depth[lid] += 1
        self._stack.append([lid, time.perf_counter(), 0.0])

    def _exit(self) -> None:
        lid, start, child = self._stack.pop()
        dur = time.perf_counter() - start
        self._depth[lid] -= 1
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += dur
        self.layer.append(lid)
        self.parent_layer.append(parent[0] if parent is not None else -1)
        self.self_time.append(dur - child)

    def _span(self, layer: str, fn, before=None, after=None):
        lid = LAYERS.index(layer)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = before(args, kwargs) if before is not None else None
            tracer._enter(lid)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._exit()
                if after is not None:
                    after(token, args, kwargs, None, exc)
                raise
            tracer._exit()
            if after is not None:
                after(token, args, kwargs, result, None)
            return result

        return traced

    def _patch(self, owner, attr: str, layer: str, before=None, after=None) -> None:
        fn = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if fn is None:
            self.absent.append(f"{owner.__name__}.{attr}")
            return
        self._patched.append((owner, attr, fn))
        setattr(owner, attr, self._span(layer, fn, before, after))

    # -- counters ------------------------------------------------------------

    def _count(self, name: str, measure):
        def after(token, args, kwargs, result, exc):
            if exc is None:
                self.counts[name] += measure(args, kwargs, result)
        return after

    def _oracle_call_before(self, args, kwargs):
        # a scalar evaluation inside an estimate at the point whose f(x) the
        # caller (line search or solver loop) already computed is a repeat
        oracle, x = args[0], args[1]
        key = np.ascontiguousarray(x, dtype=float).tobytes()
        if self._depth[_ESTIMATE]:
            if self._known_x.get(oracle) == key:
                self.counts["optimizer.repeat_fx_evals"] += 1
        else:
            self._known_x[oracle] = key

    def _armijo_before(self, args, kwargs):
        return args[0].eval_count

    def _armijo_after(self, token, args, kwargs, result, exc):
        oracle = args[0]
        self.counts["optimizer.ls_evals"] += oracle.eval_count - token
        if exc is not None and type(exc).__name__ == "StepFailure":
            # the solver stays at the departure point, whose f it holds
            self._known_x[oracle] = np.ascontiguousarray(args[1], dtype=float).tobytes()

    def _estimate_before(self, args, kwargs):
        if self._depth[_ESTIMATE] == 0:
            self._li_frames.append(0)

    def _estimate_after(self, token, args, kwargs, result, exc):
        if self._depth[_ESTIMATE] == 0:
            self.counts["estimators.li_redraws"] += max(0, self._li_frames.pop() - 1)

    def _interp_after(self, token, args, kwargs, result, exc):
        if exc is None:
            self.counts["sampling.directions.rows"] += result.N
            if self._li_frames:
                self._li_frames[-1] += 1

    # -- install / remove ----------------------------------------------------

    def install(self) -> None:
        """Wrap every known entry point; missing ones go to `absent`."""
        from gradest import (bounds, cli, core, estimators, experiments,
                             optimizer, sampling)

        self.absent = []
        rows = self._count("core.eval_batch.rows", lambda a, k, r: len(r))
        self._patch(core.NoisyOracle, "eval_batch", "core.eval_batch", after=rows)
        self._patch(core.NoisyOracle, "__call__", "core.oracle_call",
                    before=self._oracle_call_before)
        self._patch(sampling.RngStream, "generator", "sampling.generator")

        dir_rows = self._count("sampling.directions.rows", lambda a, k, r: r.N)
        for name in ("gaussian_directions", "sphere_directions"):
            self._patch(estimators, name, "sampling.directions", after=dir_rows)
        self._patch(estimators, "interpolation_directions", "sampling.directions",
                    after=self._interp_after)
        self._patch(sampling, "orthonormal_directions", "sampling.orthonormal")
        draws = self._count("sampling.mc_moment.draws",
                            lambda a, k, r: k["K"] if "K" in k else a[3])
        self._patch(sampling, "monte_carlo_moment", "sampling.mc_moment", after=draws)

        est = dict(before=self._estimate_before, after=self._estimate_after)
        self._patch(estimators, "estimate", "estimators.estimate", **est)
        for owner in (experiments, optimizer, cli):
            self._patch(owner, "estimate_with_retry", "estimators.estimate", **est)
        self._patch(experiments, "gsg", "estimators.estimate", **est)

        for name in _BOUNDS_FUNCTIONS:
            self._patch(bounds, name, "bounds")

        for owner in (optimizer, experiments, cli):
            for name in _SOLVERS:
                self._patch(owner, name, "optimizer.loop")
        self._patch(optimizer, "armijo_search", "optimizer.armijo",
                    before=self._armijo_before, after=self._armijo_after)
        self._patch(optimizer, "lbfgs_direction", "optimizer.lbfgs")

        for name in _DRIVERS:
            self._patch(cli, name, "experiments.driver")
        rendered = self._count("experiments.render.bytes", lambda a, k, r: len(r))
        self._patch(experiments.CsvTable, "text", "experiments.render", after=rendered)
        self._patch(cli, "main", "cli")

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched = []

    # -- summary -------------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """calls / self_s per layer plus the counters, for one repetition."""
        out = {}
        for name in LAYERS:
            out[f"{name}.calls"] = 0
            out[f"{name}.self_s"] = 0.0
        for lid, parent, self_s in zip(self.layer, self.parent_layer, self.self_time):
            name = LAYERS[lid]
            out[f"{name}.self_s"] += self_s
            if parent != lid:
                out[f"{name}.calls"] += 1
        out.update(self.counts)
        out["self_s_total"] = sum(self.self_time)
        return out


_ESTIMATE = LAYERS.index("estimators.estimate")
