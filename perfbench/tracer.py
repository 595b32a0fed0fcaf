"""Outside-in span tracer for the weakhyp layers.

`Tracer.install()` replaces each traced function with a wrapper at every
place the program can reach it from: the attribute of the defining
module, every `from .x import y` copy in the other weakhyp modules and
the package namespace, and the class attribute for methods.  The
program itself is not modified; `uninstall()` puts the originals back.

Each call records one span `(name, start, end, parent, op)` in memory,
where `parent` is the index of the enclosing traced span (or -1) and
`op` identifies the scenario pass the call belongs to.  `summary()`
turns the spans into per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict

LAYERS = ("quantize", "energy", "solver", "symbols", "spectral", "cjs",
          "audits", "constraints", "reporting", "cli")

# (metric name, module, attribute); a dotted attribute is Class.method
TARGETS = (
    ("quantize.quantize", "quantize", "quantize"),
    ("quantize.sample_symbol_b", "quantize", "sample_symbol_b"),
    ("quantize.dequantize", "quantize", "dequantize"),
    ("quantize.invert_b", "quantize", "invert_b"),
    ("quantize.operator_norm", "quantize", "operator_norm"),
    ("energy.symmetrizer", "energy", "Symmetrizer.__post_init__"),
    ("energy.dt_b_matrix", "energy", "Symmetrizer.dt_b_matrix"),
    ("energy.dt_energy_breakdown", "energy", "dt_energy_breakdown"),
    ("energy.energy", "energy", "energy"),
    ("solver.step_rk4", "solver", "step_rk4"),
    ("solver.rhs", "solver", "rhs"),
    ("solver.max_dt", "solver", "RunConfig.max_dt"),
    ("solver.run_with_energy", "solver", "run_with_energy"),
    ("solver.measure_tau_threshold", "solver", "measure_tau_threshold"),
    ("symbols.b", "symbols", "SymbolB.b"),
    ("symbols.dt_b", "symbols", "SymbolB.dt_b"),
    ("symbols.sup_a", "symbols", "CoefficientField.sup_a"),
    ("spectral.gevrey_multiplier", "spectral", "gevrey_multiplier"),
    ("cjs.growth_exponent_fit", "cjs", "growth_exponent_fit"),
    ("cjs.max_energy_growth", "cjs", "max_energy_growth"),
    ("audits.derivative_bound_audit", "audits", "derivative_bound_audit"),
    ("audits.glaeser_audit_a", "audits", "glaeser_audit_a"),
    ("audits.faa_di_bruno_check", "audits", "faa_di_bruno_check"),
    ("audits.metric_admissibility_audit", "audits",
     "metric_admissibility_audit"),
    ("audits.weight_admissibility_audit", "audits",
     "weight_admissibility_audit"),
    ("constraints.constraint_table", "constraints", "constraint_table"),
    ("reporting.write_csv", "reporting", "write_csv"),
    ("reporting.write_json", "reporting", "write_json"),
    ("cli.run_scenario", "cli", "run_scenario"),
)

# Computed, not measured: a Weyl quantization reads the (2n, n) complex
# symbol samples and writes the (n, n) complex kernel, 16 bytes each.
QUANTIZE_BYTES_PER_N2 = 16 * (2 + 1)


def _quantize_hook(tracer, args, kwargs, result):
    p = args[0] if args else kwargs["p"]
    mode = args[1] if len(args) > 1 else kwargs.get("mode", "weyl")
    n = p.grid.n
    tracer.keys["quantize.quantize"].add((n, p.label, p.time, mode))
    tracer.counts["quantize.quantize.bytes_computed"] += \
        QUANTIZE_BYTES_PER_N2 * n * n


def _symmetrizer_hook(tracer, args, kwargs, result):
    sym = args[0]
    tracer.keys["energy.symmetrizer"].add((sym.grid.n, sym.sb.c, sym.t))


def _file_bytes_hook(name):
    def hook(tracer, args, kwargs, result):
        path = args[0] if args else kwargs["path"]
        tracer.counts[name + ".bytes"] += os.path.getsize(path)
    return hook


def _rows_hook(tracer, args, kwargs, result):
    tracer.counts["constraints.constraint_table.rows"] += len(result)


def _mode_steps_hook(tracer, args, kwargs, result):
    tracer.counts["cjs.mode_steps"] += result[1]


def _failed_hook(tracer, args, kwargs, result):
    tracer.counts["cli.run_scenario.failed"] += int(result != 0)


HOOKS = {
    "quantize.quantize": _quantize_hook,
    "energy.symmetrizer": _symmetrizer_hook,
    "reporting.write_csv": _file_bytes_hook("reporting.write_csv"),
    "reporting.write_json": _file_bytes_hook("reporting.write_json"),
    "constraints.constraint_table": _rows_hook,
    "cjs.max_energy_growth": _mode_steps_hook,
    "cli.run_scenario": _failed_hook,
}


def _percentile(sorted_values, q):
    """Value at the nearest index to q of an ascending list (0 if empty)."""
    if not sorted_values:
        return 0.0
    return sorted_values[round(q * (len(sorted_values) - 1))]


class Tracer:
    """In-memory spans around the weakhyp layer functions."""

    def __init__(self):
        self.spans = []
        self.op = ""
        self.keys = defaultdict(set)
        self.counts = defaultdict(int)
        self._stack = []
        self._rebound = []

    def _wrap(self, name, fn):
        hook = HOOKS.get(name)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return wrapper

    def install(self):
        """Rebind every traced function at all of its binding sites."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "weakhyp" or key.startswith("weakhyp.")]
        for name, module_name, attr in TARGETS:
            module = importlib.import_module("weakhyp." + module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[meth]
                self._rebind(owner, meth, original, self._wrap(name, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, key, original, wrapper)
        return self

    def _rebind(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._rebound.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._rebound):
            setattr(owner, attr, original)
        self._rebound.clear()

    def write_spans(self, path):
        """One JSON list per line: name, start, end, parent, op."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def summary(self):
        """Per-function and per-layer metrics from the recorded spans."""
        calls = defaultdict(int)
        incl = defaultdict(float)
        child = defaultdict(float)
        durations = defaultdict(list)
        for name, start, end, parent, _ in self.spans:
            dur = end - start
            calls[name] += 1
            incl[name] += dur
            durations[name].append(dur)
            if parent >= 0:
                child[parent] += dur
        self_s = defaultdict(float)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            self_s[name] += (end - start) - child[index]

        out = {}
        for name, _, _ in TARGETS:
            out[name + ".calls"] = calls[name]
            out[name + ".s"] = incl[name]
            out[name + ".self_s"] = self_s[name]
        for layer in LAYERS:
            out[layer + ".self_s"] = sum(self_s[name] for name, _, _ in TARGETS
                                         if name.startswith(layer + "."))
        for name, keys in (("quantize.quantize",
                            self.keys["quantize.quantize"]),
                           ("energy.symmetrizer",
                            self.keys["energy.symmetrizer"])):
            out[name + ".distinct_ratio"] = (len(keys) / calls[name]
                                             if calls[name] else 0.0)
        ordered = sorted(durations["energy.dt_energy_breakdown"])
        out["energy.dt_energy_breakdown.p50_s"] = _percentile(ordered, 0.5)
        out["energy.dt_energy_breakdown.p90_s"] = _percentile(ordered, 0.9)
        out["solver.steps_per_s"] = (calls["solver.step_rk4"]
                                     / incl["solver.step_rk4"]
                                     if calls["solver.step_rk4"] else 0.0)
        out["cjs.mode_steps_per_s"] = (self.counts["cjs.mode_steps"]
                                       / incl["cjs.max_energy_growth"]
                                       if calls["cjs.max_energy_growth"]
                                       else 0.0)
        for key in ("quantize.quantize.bytes_computed",
                    "reporting.write_csv.bytes", "reporting.write_json.bytes",
                    "constraints.constraint_table.rows", "cjs.mode_steps",
                    "cli.run_scenario.failed"):
            out[key] = self.counts[key]
        return out
