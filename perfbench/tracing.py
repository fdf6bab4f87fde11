"""Per-layer spans and counts, installed around the package from outside.

The package has no tracing of its own, so a traced run replaces the entry
points of each ``skewsum`` module with timing wrappers for the length of a
``with installed(tracer):`` block and puts the originals back on exit,
also when the block raises. A name bound by ``from ... import`` is a
separate reference in the importing module, so each wrapper goes where the
name is looked up at call time: ``hermitian_eig`` in ``linalg``,
``states`` and ``measures``; the measures in ``bounds``; the bound
functions in ``bounds._BOUND_FUNCS``. A target that a later version of the
package no longer has is skipped and its metrics read 0.

A span's self time is its duration minus the time of the spans it
directly encloses.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

FUZZ_CELLS = [(d, n) for d in (2, 3, 4) for n in (2, 3, 4)]

# name -> unit of every per-layer metric, in report order
LAYER_UNITS = {
    "rng.normals": "count",
    "rng.time_s": "s",
    "cli.fuzz_instance_self_s": "s",
    "cli.self_s": "s",
    "states.density_calls": "count",
    "states.density_self_s": "s",
    "linalg.eig_calls": "count",
    "linalg.eig_self_s": "s",
    "linalg.eig_per_eval": "count/eval",
    "linalg.hermitian_calls": "count",
    "linalg.hermitian_s": "s",
    "kernels.jacobi_calls": "count",
    "kernels.jacobi_sweeps": "count",
    "kernels.jacobi_s": "s",
    "measures.variance_calls": "count",
    "measures.variance_s": "s",
    "measures.skew_calls": "count",
    "measures.skew_s": "s",
    "measures.amplitude_calls": "count",
    "measures.amplitude_self_s": "s",
    "bounds.theorem1_tuples": "count",
    "bounds.scan_inputs_s": "s",
    "kernels.scan_calls": "count",
    "kernels.scan_s": "s",
    "bounds.theorem1_self_s": "s",
    "bounds.other_bounds_self_s": "s",
    "bounds.evaluate_calls": "count",
    "bounds.evaluate_self_s": "s",
    **{f"bounds.evaluate_ms.d{d}n{n}": "ms" for d, n in FUZZ_CELLS},
    "scenarios.instance_s": "s",
    "scenarios.run_sweep_self_s": "s",
    "trace.overhead_frac": "frac",
}


class Tracer:
    """Calls, total time and self time per span name, plus free counters."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack = []

    def wrap(self, name: str, fn, on_return=None):
        """``fn`` recorded as span ``name``; ``on_return(tracer, args,
        kwargs, result, seconds)`` runs after each successful call."""
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                self.calls[name] += 1
                self.total[name] += dt
                self.self_time[name] += dt - children[0]
            if on_return is not None:
                on_return(self, args, kwargs, result, dt)
            return result

        return traced


class Patches:
    """Undo log of attribute and mapping-item replacements."""

    def __init__(self):
        self._undo = []

    def attr(self, owner, name: str, replace):
        """Set ``owner.name`` to ``replace(old)`` where ``owner`` itself defines it."""
        namespace = vars(owner)
        if name not in namespace:
            return
        old = namespace[name]
        setattr(owner, name, replace(old))
        self._undo.append(lambda: setattr(owner, name, old))

    def item(self, mapping, key, replace):
        """Set ``mapping[key]`` to ``replace(old)`` where the key exists."""
        if key not in mapping:
            return
        old = mapping[key]
        mapping[key] = replace(old)
        self._undo.append(lambda: mapping.__setitem__(key, old))

    def restore(self):
        while self._undo:
            self._undo.pop()()


def _deviates(per_element: int):
    def count(tracer, args, kwargs, result, dt):
        tracer.counts["rng.normals"] += per_element * int(getattr(result, "size", 0))

    return count


def _jacobi_sweeps(tracer, args, kwargs, result, dt):
    tracer.counts["kernels.jacobi_sweeps"] += int(result[0])


def _cell(observables):
    return len(observables), np.shape(observables[0])[0]


def _theorem1_tuples(tracer, args, kwargs, result, dt):
    if getattr(result, "applicable", False):
        n, d = _cell(args[1])
        tracer.counts["bounds.theorem1_tuples"] += math.factorial(d) ** (n - 1)


def _evaluate_cell(tracer, args, kwargs, result, dt):
    n, d = _cell(args[1])
    tracer.counts[f"cell_calls.d{d}n{n}"] += 1
    tracer.counts[f"cell_s.d{d}n{n}"] += dt


def install(tracer: Tracer, patches: Patches):
    """Wrap every traced entry point of the package, logging each in ``patches``."""
    from skewsum import _kernels, bounds, cli, linalg, measures, rng, scenarios, states

    def span(name, on_return=None):
        return lambda fn: tracer.wrap(name, fn, on_return)

    patches.attr(rng.SplitMix64, "normals", span("rng.draw", _deviates(1)))
    patches.attr(rng.SplitMix64, "complex_normals", span("rng.draw", _deviates(2)))
    patches.attr(cli, "fuzz_instance", span("cli.fuzz_instance"))
    patches.attr(cli, "run_sweep", span("scenarios.run_sweep"))
    patches.attr(states.DensityMatrix, "__init__", span("states.density"))
    patches.attr(linalg.HermitianMatrix, "__init__", span("linalg.hermitian"))
    for module in (linalg, states, measures):
        patches.attr(module, "hermitian_eig", span("linalg.eig"))
    patches.attr(_kernels, "jacobi_sweeps", span("kernels.jacobi", _jacobi_sweeps))
    patches.attr(_kernels, "theorem1_scan", span("kernels.scan"))
    patches.attr(bounds, "scan_inputs", span("bounds.scan_inputs"))
    patches.attr(bounds, "variance", span("measures.variance"))
    patches.attr(bounds, "skew_information", span("measures.skew"))
    patches.attr(bounds, "amplitude_vector", span("measures.amplitude"))
    funcs = getattr(bounds, "_BOUND_FUNCS", {})
    for name in list(funcs):
        if name == "theorem1":
            patches.item(funcs, name, span("bounds.theorem1", _theorem1_tuples))
        else:
            patches.item(funcs, name, span("bounds.other_bounds"))
    for module in (cli, scenarios):
        patches.attr(module, "evaluate_all", span("bounds.evaluate", _evaluate_cell))
    for key in list(scenarios.SCENARIOS):
        patches.item(
            scenarios.SCENARIOS,
            key,
            lambda scen: dataclasses.replace(
                scen, make=tracer.wrap("scenarios.instance", scen.make)
            ),
        )


@contextmanager
def installed(tracer: Tracer):
    """Trace the package inside the block; restore every patched name after."""
    patches = Patches()
    try:
        install(tracer, patches)
        yield tracer
    finally:
        patches.restore()


def layer_metrics(tracer: Tracer, evals: int, overhead_frac: float) -> dict:
    """Every per-layer metric, named as in :data:`LAYER_UNITS`."""
    calls, total, own, counts = tracer.calls, tracer.total, tracer.self_time, tracer.counts
    values = {
        "rng.normals": counts["rng.normals"],
        "rng.time_s": total["rng.draw"],
        "cli.fuzz_instance_self_s": own["cli.fuzz_instance"],
        "cli.self_s": own["cli.main"],
        "states.density_calls": calls["states.density"],
        "states.density_self_s": own["states.density"],
        "linalg.eig_calls": calls["linalg.eig"],
        "linalg.eig_self_s": own["linalg.eig"],
        "linalg.eig_per_eval": calls["linalg.eig"] / evals,
        "linalg.hermitian_calls": calls["linalg.hermitian"],
        "linalg.hermitian_s": total["linalg.hermitian"],
        "kernels.jacobi_calls": calls["kernels.jacobi"],
        "kernels.jacobi_sweeps": counts["kernels.jacobi_sweeps"],
        "kernels.jacobi_s": total["kernels.jacobi"],
        "measures.variance_calls": calls["measures.variance"],
        "measures.variance_s": total["measures.variance"],
        "measures.skew_calls": calls["measures.skew"],
        "measures.skew_s": total["measures.skew"],
        "measures.amplitude_calls": calls["measures.amplitude"],
        "measures.amplitude_self_s": own["measures.amplitude"],
        "bounds.theorem1_tuples": counts["bounds.theorem1_tuples"],
        "bounds.scan_inputs_s": total["bounds.scan_inputs"],
        "kernels.scan_calls": calls["kernels.scan"],
        "kernels.scan_s": total["kernels.scan"],
        "bounds.theorem1_self_s": own["bounds.theorem1"],
        "bounds.other_bounds_self_s": own["bounds.other_bounds"],
        "bounds.evaluate_calls": calls["bounds.evaluate"],
        "bounds.evaluate_self_s": own["bounds.evaluate"],
        "scenarios.instance_s": total["scenarios.instance"],
        "scenarios.run_sweep_self_s": own["scenarios.run_sweep"],
        "trace.overhead_frac": overhead_frac,
    }
    for d, n in FUZZ_CELLS:
        cell_calls = counts[f"cell_calls.d{d}n{n}"]
        cell_s = counts[f"cell_s.d{d}n{n}"]
        values[f"bounds.evaluate_ms.d{d}n{n}"] = 1e3 * cell_s / cell_calls if cell_calls else 0.0
    return {name: values[name] for name in LAYER_UNITS}
