"""Span tracing around the public functions of every perifp layer.

The tracer wraps functions from the outside (nothing under ``src/``
changes): each wrapped call records its duration and how much of it
its wrapped callees took, so a layer's self time is its total minus its
child spans.  Calls that happen at most a few thousand times per pass
are kept as individual spans (name, start, end, parent); hot calls
(coefficient evaluation, assembly, single steps) are aggregated as
count and total per (function, parent).  Hooks read counts off
arguments and results at the same boundaries.
"""

from __future__ import annotations

import hashlib
import importlib
import inspect
import json
from collections import defaultdict
from time import perf_counter

# (module, attribute path, span name, hot)
TARGETS = [
    ("cli", "run", "cli.run", False),
    ("coeff_dsl", "parse_expr", "coeff_dsl.parse", False),
    ("coeff_dsl", "CoefficientField.__call__", "coeff_dsl.eval", True),
    ("markov", "detect_period", "markov.detect", False),
    ("bl_metric", "dbl", "bl_metric.dbl", False),
    ("bl_metric", "coarsen", "bl_metric.coarsen", False),
    ("bl_metric", "cesaro_defect", "bl_metric.cesaro", False),
    ("fpe_grid", "assemble_generator", "fpe_grid.assemble", True),
    ("fpe_grid", "solve_shifted", "fpe_grid.solve", True),
    ("fpe_grid", "step_cn", "fpe_grid.step", True),
    ("fpe_grid", "step_ie", "fpe_grid.step", True),
    ("fpe_grid", "solve_ivp", "fpe_grid.march", False),
    ("fpe_grid", "stationary_closed_form", "fpe_grid.stationary", False),
    ("fpe_grid", "check_stationarity_condition", "fpe_grid.condition", False),
    ("period_map", "build_period_map", "period_map.build", False),
    ("period_map", "power_iteration", "period_map.power", False),
    ("sde_reflect", "sample_laws", "sde_reflect.sample", False),
    ("sde_reflect", "em_reflect_step", "sde_reflect.em_step", True),
    ("sde_reflect", "periodicity_diagnostic", "sde_reflect.diag", False),
    ("semilinear", "estimate_c", "semilinear.estimate_c", False),
    ("semilinear", "PeriodicLinearSolver.__post_init__", "semilinear.solver_build", False),
    ("semilinear", "PeriodicLinearSolver.solve", "semilinear.solve", False),
    ("semilinear", "monotone_iterate", "semilinear.iterate", False),
]
LAYERS = ("cli", "coeff_dsl", "markov", "bl_metric", "fpe_grid", "period_map",
          "sde_reflect", "semilinear")

# n x n float64 arrays one dense period-map step writes: for CN the
# matrix product (3), its scaling, the sum, and solve_banded's copy of
# the right-hand side; for implicit Euler only that copy
DENSE_ARRAYS_PER_STEP = {"cn": 6, "ie": 1}


def _digest(measure) -> bytes:
    h = hashlib.sha1(measure.points.tobytes())
    h.update(measure.weights.tobytes())
    return h.digest()


class Tracer:
    def __init__(self):
        self._stack = []                       # child-time accumulators
        self._ids = []                         # span index of each open span
        self.totals = defaultdict(float)       # span name -> total seconds
        self.self_time = defaultdict(float)    # span name -> seconds minus children
        self.calls = defaultdict(int)
        self.spans = []                        # [name, start, end, parent index]
        self.hot = defaultdict(lambda: [0, 0.0])   # (name, parent name) -> [calls, s]
        self.counts = defaultdict(float)
        self.pairs = set()
        self.k_values = []

    # -- installation -------------------------------------------------------

    def install(self):
        """Wrap every target in place, in each perifp module that binds it."""
        mods = {name: importlib.import_module(f"perifp.{name}") for name in LAYERS}
        hooks = {"dbl": self._after_dbl, "sample_laws": self._after_sample_laws,
                 "build_period_map": self._after_build_period_map,
                 "power_iteration": self._after_power_iteration,
                 "monotone_iterate": self._after_monotone_iterate}
        for mod_name, attr, span, hot in TARGETS:
            owner_name, _, fn_name = attr.rpartition(".")
            owner = getattr(mods[mod_name], owner_name) if owner_name else mods[mod_name]
            original = getattr(owner, fn_name)
            hook = hooks.get(attr)
            wrapped = self._wrap(original, span, hot, hook)
            if owner_name:
                setattr(owner, fn_name, wrapped)
                continue
            for mod in mods.values():
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapped)

    def _wrap(self, fn, span, hot, hook):
        stack, ids, spans = self._stack, self._ids, self.spans
        totals, self_time, calls, hot_table = (self.totals, self.self_time,
                                               self.calls, self.hot)
        sig = inspect.signature(fn) if hook else None

        def wrapper(*args, **kwargs):
            child = [0.0]
            parent_id = ids[-1] if ids else -1
            if not hot:
                my_id = len(spans)
                ids.append(my_id)
                spans.append([span, 0.0, 0.0, parent_id])
            stack.append(child)
            error = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = exc
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][0] += dur
                totals[span] += dur
                self_time[span] += dur - child[0]
                calls[span] += 1
                if hot:
                    parent = spans[parent_id][0] if parent_id >= 0 else ""
                    entry = hot_table[(span, parent)]
                    entry[0] += 1
                    entry[1] += dur
                else:
                    ids.pop()
                    spans[my_id][1:3] = [t0, t1]
                if hook is not None:
                    bound = sig.bind(*args, **kwargs)
                    hook(bound.arguments, None if error else result, error)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- count hooks ----------------------------------------------------------

    def _after_dbl(self, args, result, error):
        if result is None:
            return
        K = len(result.support)
        self.k_values.append(K)
        if K > 1:   # rows of the LP, computed from the support size
            self.counts["pair_constraints"] += K * (K - 1)
        if result.status != "optimal":
            self.counts["non_optimal"] += 1
        self.pairs.add(frozenset((_digest(args["mu"]), _digest(args["nu"]))))

    def _after_sample_laws(self, args, result, error):
        if result is None:
            return
        steps = round(args["n_periods"] * args["sys"].period_T / args["dt"])
        self.counts["path_steps"] += args["M"] * steps
        self.counts["reflections"] += int(result.reflection_counts.sum())

    def _after_build_period_map(self, args, result, error):
        n = args["grid"].n_cells
        steps = round(args["T"] / args["dt"])
        arrays = DENSE_ARRAYS_PER_STEP.get(args.get("integrator", "cn"), 1)
        self.counts["dense_bytes"] += steps * n * n * 8 * arrays

    def _after_power_iteration(self, args, result, error):
        if result is not None:
            self.counts["power_iters"] += result.iterations
        elif hasattr(error, "iterations"):
            self.counts["power_iters"] += error.iterations
            self.counts["not_converged"] += 1

    def _after_monotone_iterate(self, args, result, error):
        if result is not None:
            self.counts["sl_iterations"] += result.iterations
            self.counts["sl_c"] = max(self.counts["sl_c"], result.c)

    # -- results --------------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer numbers for one pass (units in the metric table of run.py)."""
        t, s, n, c = self.totals, self.self_time, self.calls, self.counts
        layer_self = defaultdict(float)
        for span, value in s.items():
            layer_self[span.split(".")[0]] += value
        steps = n["fpe_grid.step"]
        dbl_calls = n["bl_metric.dbl"]
        m = {f"{layer}.self_s": layer_self[layer] for layer in LAYERS}
        m.update({
            "coeff_dsl.eval_calls": n["coeff_dsl.eval"],
            "coeff_dsl.eval_s": t["coeff_dsl.eval"],
            "coeff_dsl.parse_calls": n["coeff_dsl.parse"],
            "markov.detect_calls": n["markov.detect"],
            "markov.detect_s": t["markov.detect"],
            "bl_metric.dbl_calls": dbl_calls,
            "bl_metric.dbl_s": t["bl_metric.dbl"],
            "bl_metric.support_k_max": max(self.k_values, default=0),
            "bl_metric.support_k_mean": (sum(self.k_values) / len(self.k_values)
                                         if self.k_values else 0.0),
            "bl_metric.pair_constraints": c["pair_constraints"],
            "bl_metric.unique_pair_ratio": len(self.pairs) / dbl_calls if dbl_calls else 0.0,
            "bl_metric.non_optimal": c["non_optimal"],
            "bl_metric.coarsen_s": t["bl_metric.coarsen"],
            "bl_metric.cesaro_s": t["bl_metric.cesaro"],
            "fpe_grid.steps": steps,
            "fpe_grid.step_us": 1e6 * t["fpe_grid.step"] / steps if steps else 0.0,
            "fpe_grid.assemble_calls": n["fpe_grid.assemble"],
            "fpe_grid.assemble_self_s": s["fpe_grid.assemble"],
            "fpe_grid.solve_calls": n["fpe_grid.solve"],
            "fpe_grid.solve_s": t["fpe_grid.solve"],
            "fpe_grid.march_s": t["fpe_grid.march"],
            "period_map.build_calls": n["period_map.build"],
            "period_map.build_s": t["period_map.build"],
            "period_map.build_self_s": s["period_map.build"],
            "period_map.dense_bytes_computed": c["dense_bytes"],
            "period_map.power_calls": n["period_map.power"],
            "period_map.power_iters": c["power_iters"],
            "period_map.power_s": t["period_map.power"],
            "period_map.not_converged": c["not_converged"],
            "sde_reflect.sample_s": t["sde_reflect.sample"],
            "sde_reflect.em_step_s": t["sde_reflect.em_step"],
            "sde_reflect.sample_self_s": s["sde_reflect.sample"],
            "sde_reflect.path_steps": c["path_steps"],
            "sde_reflect.path_steps_per_s": (c["path_steps"] / t["sde_reflect.sample"]
                                             if t["sde_reflect.sample"] else 0.0),
            "sde_reflect.diag_s": t["sde_reflect.diag"],
            "sde_reflect.reflections": c["reflections"],
            "semilinear.iterations": c["sl_iterations"],
            "semilinear.c": c["sl_c"],
            "semilinear.estimate_c_s": t["semilinear.estimate_c"],
            "semilinear.solver_build_s": t["semilinear.solver_build"],
            "semilinear.solve_calls": n["semilinear.solve"],
            "semilinear.solve_s": t["semilinear.solve"],
            "semilinear.iterate_s": t["semilinear.iterate"],
        })
        return m

    def dump(self, path):
        """Write the spans and the aggregated hot calls as JSON."""
        doc = {"spans": self.spans,
               "aggregated": [[name, parent, calls, total]
                              for (name, parent), (calls, total) in sorted(self.hot.items())]}
        with open(path, "w") as fh:
            json.dump(doc, fh)

