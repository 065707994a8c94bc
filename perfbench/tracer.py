"""Spans around the public functions of threshq, recorded from outside.

``Tracer.install`` wraps every public function of the traced modules and the
listed methods, and rebinds each name wherever it is looked up: a module
that imported a function by name and one that calls it through the module
attribute both reach the wrapper. A span is (name, start, end, parent,
query id, attributes); spans stay in memory until the run ends.
``layer_metrics`` turns spans into the per-layer metrics of BENCHMARK.json.
"""
from __future__ import annotations

import functools
import inspect
import math
import sys
import time

MODULES = ("model", "delay", "equilibrium", "sim", "cli")
METHODS = (("delay", "DelayTable", "to_csv"),)

# the spans the per-layer metrics are computed from; a name the program no
# longer has is reported as absent and its metrics read 0
REQUIRED = (
    "model.load_instance",
    "delay.solve_delay_table",
    "delay.DelayTable.to_csv",
    "equilibrium.enumerate_pure_equilibria",
    "equilibrium.find_mixed_equilibria",
    "equilibrium.marginal_delay",
    "equilibrium.sweep_pure",
    "equilibrium.sweep_mixed",
    "sim.simulate_sojourn",
    "sim.run_coupling",
    "cli.main",
)


def _argument(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def unit_intervals(x_min: float, x_max: float) -> int:
    """Unit intervals (k, k+1) that the mixed search over (x_min, x_max) probes."""
    return sum(1 for k in range(max(math.floor(x_min), 0), math.ceil(x_max))
               if min(k + 1.0, x_max) > max(float(k), x_min))


# attributes read from a call's arguments and result once its span has ended
ATTRIBUTES = {
    "delay.solve_delay_table": lambda a, k, r: {"n0": r.n0},
    "equilibrium.enumerate_pure_equilibria": lambda a, k, r: {
        "candidates": len(r.diagnostics), "equilibria": len(r.pure_equilibria)},
    "equilibrium.find_mixed_equilibria": lambda a, k, r: {
        "roots": len(r[0]),
        "intervals": unit_intervals(_argument(a, k, 2, "x_min"), _argument(a, k, 3, "x_max"))},
    "sim.simulate_sojourn": lambda a, k, r: {"reps": _argument(a, k, 0, "config").replications},
    "sim.run_coupling": lambda a, k, r: {"reps": r.replications,
                                         "violations": r.violation_count},
}


class Tracer:
    """Records spans of wrapped calls; set ``query`` to tag one query's spans."""

    def __init__(self):
        self.spans: list = []
        self.query = None
        self.wrapped: list[str] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._undo: list = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        attributes = ATTRIBUTES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.query, None)
            if attributes is not None:
                try:
                    attrs = attributes(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    attrs = None  # the program changed this signature or result
                spans[index] = (name, start, end, parent, self.query, attrs)
            return result

        self.wrapped.append(name)
        return wrapper

    def install(self, package) -> None:
        """Wrap the traced modules of ``package``, the imported threshq."""
        self.wrapped = []
        wrappers = {}
        for short in MODULES:
            module = getattr(package, short, None)
            if module is None:
                continue
            for attr, obj in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
        prefix = package.__name__ + "."
        for key, module in list(sys.modules.items()):
            if module is None or not (key == package.__name__ or key.startswith(prefix)):
                continue
            for attr, obj in list(vars(module).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._undo.append((module, attr, obj))
                    setattr(module, attr, entry[1])
        for short, cls_name, method in METHODS:
            cls = getattr(getattr(package, short, None), cls_name, None)
            fn = vars(cls).get(method) if isinstance(cls, type) else None
            if inspect.isfunction(fn):
                self._undo.append((cls, method, fn))
                setattr(cls, method, self._wrap(f"{short}.{cls_name}.{method}", fn))
        self.absent = [name for name in REQUIRED if name not in self.wrapped]

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def layer_metrics(spans: list, passes: int, bytes_out: int, exit_nonzero: int) -> dict[str, float]:
    """Per-layer metrics per traced pass.

    ``spans`` as recorded by ``Tracer`` over ``passes`` traced passes;
    ``bytes_out`` is the output of one pass and ``exit_nonzero`` the query
    runs, over all traced passes, that did not exit 0. A module's self time is a
    span's duration minus the time covered by its nearest descendants in
    other modules, so nested calls within one module count as its own work.
    """
    children: dict[int, list[int]] = {}
    for i, span in enumerate(spans):
        children.setdefault(span[3], []).append(i)

    def duration(i):
        return spans[i][2] - spans[i][1]

    def foreign(i, layer):
        covered = 0.0
        for c in children.get(i, ()):
            covered += duration(c) if _layer(spans[c][0]) != layer else foreign(c, layer)
        return covered

    def self_time(name):
        return sum(duration(i) - foreign(i, _layer(name)) for i in by_name.get(name, ()))

    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span[0], []).append(i)

    def total(name):
        return sum(duration(i) for i in by_name.get(name, ()))

    def attr_sum(name, key):
        return sum((spans[i][5] or {}).get(key, 0) for i in by_name.get(name, ()))

    def calls(name):
        return len(by_name.get(name, ()))

    inside_mixed: dict[int, bool] = {-1: False}

    def under_mixed(i):
        if i not in inside_mixed:
            parent = spans[i][3]
            inside_mixed[i] = (spans[parent][0] == "equilibrium.find_mixed_equilibria"
                               if parent >= 0 else False) or under_mixed(parent)
        return inside_mixed[i]

    solve = "delay.solve_delay_table"
    n0s = [(spans[i][5] or {}).get("n0", 0) for i in by_name.get(solve, ())]
    entries = sum(n * (n + 1) // 2 for n in n0s)
    candidates = attr_sum("equilibrium.enumerate_pure_equilibria", "candidates")
    marginal = sum(1 for i in by_name.get("equilibrium.marginal_delay", ()) if under_mixed(i))
    intervals = attr_sum("equilibrium.find_mixed_equilibria", "intervals")
    sim_s, cpl_s = total("sim.simulate_sojourn"), total("sim.run_coupling")
    per_pass = {
        "model.load_instance.calls": calls("model.load_instance"),
        "model.load_instance.s": total("model.load_instance"),
        "delay.solve.calls": calls(solve),
        "delay.solve.s": total(solve),
        "delay.solve.entries": entries,
        "delay.to_csv.s": total("delay.DelayTable.to_csv"),
        "cli.self_s": self_time("cli.main"),
        "cli.bytes_out": bytes_out * passes,
        "cli.exit_nonzero": exit_nonzero,
        "equilibrium.enumerate.calls": calls("equilibrium.enumerate_pure_equilibria"),
        "equilibrium.enumerate.self_s": self_time("equilibrium.enumerate_pure_equilibria"),
        "equilibrium.candidates": candidates,
        "equilibrium.mixed.calls": calls("equilibrium.find_mixed_equilibria"),
        "equilibrium.mixed.self_s": self_time("equilibrium.find_mixed_equilibria"),
        "equilibrium.mixed.marginal_calls": marginal,
        "equilibrium.mixed.roots": attr_sum("equilibrium.find_mixed_equilibria", "roots"),
        "equilibrium.sweep.s": total("equilibrium.sweep_pure") + total("equilibrium.sweep_mixed"),
        "sim.simulate.calls": calls("sim.simulate_sojourn"),
        "sim.simulate.s": sim_s,
        "sim.coupling.calls": calls("sim.run_coupling"),
        "sim.coupling.s": cpl_s,
        "sim.coupling.violations": attr_sum("sim.run_coupling", "violations"),
    }
    metrics = {name: value / passes for name, value in per_pass.items()}
    metrics.update({
        "delay.solve.ns_per_entry": 1e9 * per_pass["delay.solve.s"] / entries if entries else 0.0,
        "delay.solve.max_n0": max(n0s, default=0),
        "equilibrium.eq_per_candidate": (attr_sum("equilibrium.enumerate_pure_equilibria",
                                                  "equilibria") / candidates
                                         if candidates else 0.0),
        "equilibrium.mixed.marginal_per_interval": marginal / intervals if intervals else 0.0,
        "sim.simulate.reps_per_s": attr_sum("sim.simulate_sojourn", "reps") / sim_s if sim_s else 0.0,
        "sim.coupling.reps_per_s": attr_sum("sim.run_coupling", "reps") / cpl_s if cpl_s else 0.0,
    })
    return metrics
