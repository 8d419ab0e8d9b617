"""Outside-in tracing of mlmc_sde: spans around the public names of each layer.

``Tracer.install`` rebinds module-level names (and model methods) to
wrappers that time each call.  Open spans sit on a stack, each knowing its
parent, so a span's self time is its duration minus the time of its
children and its phase is read off its ancestors.  Aggregates are kept
online, not as a span list, because the kernels are called millions of
times.  Pool workers are forked from the traced process, so their calls
are wrapped too, but their spans stay in the worker and are not counted.
"""

from __future__ import annotations

import functools
import inspect
import math
from collections import defaultdict
from time import perf_counter

# spans that mark a phase: a sample_many call under run_multilevel belongs to
# the run phase, every other one (rate pilots, v0/v_last/varf draws, variance
# tables, oracle sampling) to the pilot phase
RUN_SPAN = "estimators.run_multilevel"
PLAN_SPANS = ("estimators.mlmc_plan", "estimators.ml2r_plan")

MODEL_FLOWS = ("drift_flow", "diffusion_flow")
MODEL_COEFS = ("drift", "diffusion", "jacobian_product", "stratonovich_drift")


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # open spans: [name, child seconds]
        self.spans = defaultdict(lambda: [0.0, 0.0])  # name -> total, self seconds
        self.rows = defaultdict(int)  # kernel name -> sample-steps advanced
        self.variates = 0
        self.draws: list[dict] = []  # one record per sample_many call
        self.run_units = 0.0
        self.pool_starts = 0
        self.pool_seconds = 0.0

    def wrap(self, name: str, fn, after=None):
        """Time every call of fn as span ``name``; ``after`` sees the call's
        arguments, result and duration."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            tracer.stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = perf_counter() - start
                tracer.stack.pop()
                if tracer.stack:
                    tracer.stack[-1][1] += seconds
                agg = tracer.spans[name]
                agg[0] += seconds
                agg[1] += seconds - frame[1]
            if after is not None:
                after(args, kwargs, result, seconds)
            return result

        return traced

    def install(self, cli, calibrate, estimators, schemes, models):
        """Rebind the public names of each mlmc_sde module to traced wrappers."""
        tracer = self

        def kernel_rows(name):
            def after(args, kwargs, result, seconds):
                tracer.rows[name] += args[1].shape[0]
            return after

        def drawn(args, kwargs, path, seconds):
            tracer.variates += path.dw.size + path.eta.size

        signature = inspect.signature(schemes.sample_many)

        def sampled(args, kwargs, sample, seconds):
            call = signature.bind(*args, **kwargs)
            call.apply_defaults()
            a = call.arguments
            tracer.draws.append({
                "key": (a["sampler"].coupling, a["level"], a["m"], a["seed"], a["experiment"]),
                "units": sample.cost_units,
                "seconds": seconds,
                "blocks": math.ceil(a["m"] / schemes.BLOCK_SAMPLES),
                "phase": "run" if any(f[0] == RUN_SPAN for f in tracer.stack) else "pilot",
            })

        def ran(args, kwargs, result, seconds):
            tracer.run_units += result.cost_units

        for name in ("nv_step", "gs_step"):
            setattr(schemes, name, self.wrap(f"schemes.{name}", getattr(schemes, name),
                                             kernel_rows(f"schemes.{name}")))
        for name in ("simulate_path", "sample_level"):
            setattr(schemes, name, self.wrap(f"schemes.{name}", getattr(schemes, name)))
        schemes.sample_level_path = self.wrap("paths.sample_level_path",
                                              schemes.sample_level_path, drawn)
        sample_many = self.wrap("schemes.sample_many", schemes.sample_many, sampled)
        for module in (schemes, calibrate, estimators, cli):
            module.sample_many = sample_many
        for cls in (models.ClarkCameronModel, models.HestonModel):
            for name in MODEL_FLOWS + MODEL_COEFS:
                setattr(cls, name, self.wrap(f"{cls.__name__}.{name}", cls.__dict__[name]))
        for name in ("pilot_stats", "variance_table"):
            setattr(calibrate, name, self.wrap(f"calibrate.{name}", getattr(calibrate, name)))
        estimators.run_multilevel = self.wrap(RUN_SPAN, estimators.run_multilevel, ran)
        for name in ("mlmc_plan", "ml2r_plan", "crude_mc"):
            setattr(estimators, name, self.wrap(f"estimators.{name}", getattr(estimators, name)))
        cli.write_csv = self.wrap("cli.write_csv", cli.write_csv)

        base = schemes.ProcessPoolExecutor

        class CountingPool(base):
            """Counts pool starts and the time from start to shutdown, during
            which the caller is blocked on the pool's results."""

            def __init__(self, *args, **kwargs):
                tracer.pool_starts += 1
                self._started = perf_counter()
                super().__init__(*args, **kwargs)

            def shutdown(self, *args, **kwargs):
                super().shutdown(*args, **kwargs)
                tracer.pool_seconds += perf_counter() - self._started

        schemes.ProcessPoolExecutor = CountingPool

    def _total(self, name):
        return self.spans[name][0] if name in self.spans else 0.0

    def _self(self, *names):
        return sum((self.spans[n][1] for n in names if n in self.spans), 0.0)

    def layers(self) -> dict[str, float]:
        """Per-layer figures of this process's calls (see perfbench/README.md)."""
        models = ("ClarkCameronModel", "HestonModel")
        flows = [f"{m}.{n}" for m in models for n in MODEL_FLOWS]
        coefs = [f"{m}.{n}" for m in models for n in MODEL_COEFS]
        draw_s = self._self("paths.sample_level_path")
        out = {
            "paths.draw_s": draw_s,
            "paths.ns_per_variate": _per(draw_s, self.variates),
            "models.flow_s": self._self(*flows),
            "models.coef_s": self._self(*coefs),
        }
        for kernel in ("nv", "gs"):
            seconds = self._total(f"schemes.{kernel}_step")
            out[f"schemes.{kernel}_step_s"] = seconds
            out[f"schemes.{kernel}_ns_per_sample_step"] = _per(
                seconds, self.rows[f"schemes.{kernel}_step"])
        for name in ("simulate_path", "sample_level", "sample_many"):
            out[f"schemes.{name}_self_s"] = self._self(f"schemes.{name}")
        out["schemes.blocks"] = sum(d["blocks"] for d in self.draws)
        out["schemes.pool_starts"] = self.pool_starts
        out["schemes.pool_wait_s"] = self.pool_seconds
        out["schemes.sample_many_s"] = self._total("schemes.sample_many")

        pilots = [d for d in self.draws if d["phase"] == "pilot"]
        seen, pilot_units, dup_units = set(), 0.0, 0.0
        for draw in pilots:
            pilot_units += draw["units"]
            if draw["key"] in seen:
                dup_units += draw["units"]
            seen.add(draw["key"])
        run_s = self._total(RUN_SPAN)
        out["phase.pilot_s"] = sum(d["seconds"] for d in pilots)
        out["phase.plan_s"] = sum(self._total(n) for n in PLAN_SPANS)
        out["phase.run_s"] = run_s
        out["calibrate.pilot_units"] = pilot_units
        out["calibrate.dup_unit_frac"] = dup_units / pilot_units if pilot_units else 0.0
        out["estimators.run_ns_per_unit"] = _per(run_s, self.run_units)
        out["cli.write_csv_s"] = self._total("cli.write_csv")
        return out


def _per(seconds: float, count: float) -> float:
    """Nanoseconds per unit of work; 0 when the layer did no work."""
    return 1e9 * seconds / count if count else 0.0
