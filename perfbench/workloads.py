"""Workload definitions and output checks of the weakhyp benchmark.

A workload is a list of named scenarios.  They are built from the
repository's own `scenarios/*.json` where one exists, with the
overrides below, and from the seed.  The seed moves only inputs that
leave the work unchanged (the same steps, records and call counts):
the packet frequency of the energy runs, the time of the symbol audit
and the sampling seed of the metric audit.  Seed 0 is the default
input and the one the stored references were made with.
"""

from __future__ import annotations

import json
import math
import os
import random

DEFAULT_SEED = 0

WORKLOADS = ("observer_heavy", "stepping_heavy", "audit_suite")

# Tolerances of the reference comparison (seed 0).  Trace terms are
# compared relative to the row's E1 + |E2| + |E3| + |E4|, so a wrong
# budget term fails while roundoff passes.
TRACE_RTOL = 1e-8
SUMMARY_RTOL = 1e-8
AUDIT_RTOL = 1e-6
AUDIT_ATOL = 1e-12
CJS_ATOL = 1e-8          # absolute: the slope is an exponent of order 1

TRACE_COLUMNS = ("t", "tau", "E", "E1", "E2", "E3", "E4", "r2", "r3", "r4")


def _load(root, name):
    with open(os.path.join(root, "scenarios", name)) as fh:
        return json.load(fh)


def _uniform(rng, lo, hi, seed):
    return (lo + hi) / 2.0 if seed == DEFAULT_SEED else rng.uniform(lo, hi)


def scenarios(workload: str, seed: int, root: str) -> list:
    """(name, kind, config) of each scenario of a workload, in run order."""
    rng = random.Random(seed)
    if workload == "observer_heavy":
        base = _load(root, "energy_headline.json")
        config = dict(base["config"], n=512,
                      packet_xi=_uniform(rng, 20.0, 28.0, seed))
        return [("energy_headline", base["kind"], config)]
    if workload == "stepping_heavy":
        config = {"n": 512, "sigma": 0.5, "tau0": 1.0, "taudot": 0.0,
                  "nonlinear": True, "sample_stride": 256,
                  "coeff": {"T": 0.45, "T_outer": 0.9},
                  "packet_xi": _uniform(rng, 20.0, 28.0, seed)}
        return [("energy_stepping", "energy_estimate", config)]
    if workload == "audit_suite":
        symbols = {} if seed == DEFAULT_SEED else {
            "t": rng.uniform(0.0, 0.04)}
        metric = {} if seed == DEFAULT_SEED else {
            "seed": rng.randrange(1, 10_000)}
        quantizer = _load(root, "quantizer_audit.json")
        cjs = _load(root, "cjs_parabola.json")
        table = _load(root, "constraint_table.json")
        return [
            ("audit_symbols", "symbol_audit", symbols),
            ("audit_metric", "metric_audit", metric),
            ("audit_quantizer", quantizer["kind"],
             dict(quantizer["config"], sizes=[256, 512, 1024])),
            ("cjs_parabola", cjs["kind"], cjs["config"]),
            ("constraint_table", table["kind"], table["config"]),
        ]
    raise ValueError(f"unknown workload {workload!r}")


# -- outputs ---------------------------------------------------------------

def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _records(path):
    return [{"check": r["check"], "constant": r["constant"], "pass": r["pass"]}
            for r in _read_json(path)["records"]]


def extract(kind: str, out: str) -> dict:
    """The checked outputs of one scenario run, read from its directory."""
    if kind == "energy_estimate":
        with open(os.path.join(out, "trace.csv")) as fh:
            header = fh.readline().strip().split(",")
            rows = [[float(v) for v in line.split(",")] for line in fh]
        summary = _read_json(os.path.join(out, "summary.json"))
        return {"columns": header,
                "trace": {c: [r[i] for r in rows] for i, c in enumerate(header)},
                "summary": {k: summary[k] for k in
                            ("max_ratio", "threshold", "taudot", "aborted")}}
    if kind == "symbol_audit":
        return {"records": _records(os.path.join(out, "audit.json"))}
    if kind == "metric_audit":
        return {"records": _records(os.path.join(out, "metric.json"))}
    if kind == "quantizer_audit":
        return {"records": _records(os.path.join(out, "quantizer.json"))}
    if kind == "cjs_sweep":
        summary = _read_json(os.path.join(out, "summary.json"))
        return {"slope": summary["slope"], "pass": summary["pass"]}
    if kind == "constraint_table":
        summary = _read_json(os.path.join(out, "summary.json"))
        return {"min_feasible_sigma": summary["min_feasible_sigma"],
                "n_rows": summary["n_rows"]}
    raise ValueError(f"unknown scenario kind {kind!r}")


def own_checks(kind: str, got: dict) -> list:
    """Checks that hold for every seed, beyond exit code 0."""
    if kind == "energy_estimate":
        problems = []
        if got["columns"] != list(TRACE_COLUMNS):
            problems.append(f"trace.csv columns {got['columns']}")
        if got["summary"]["aborted"]:
            problems.append("run aborted")
        if not all(math.isfinite(v) for col in got["trace"].values()
                   for v in col):
            problems.append("non-finite trace value")
        return problems
    return []


def _close(x, ref, tol):
    return abs(x - ref) <= tol


def compare(kind: str, got: dict, ref: dict) -> list:
    """Differences between a run's outputs and the stored reference."""
    if kind == "energy_estimate":
        return _compare_energy(got, ref)
    if kind in ("symbol_audit", "metric_audit", "quantizer_audit"):
        problems = []
        if [r["check"] for r in got["records"]] != \
                [r["check"] for r in ref["records"]]:
            return ["audit record list differs"]
        for g, r in zip(got["records"], ref["records"]):
            if g["pass"] != r["pass"]:
                problems.append(f"{r['check']}: pass {g['pass']} != {r['pass']}")
            tol = AUDIT_RTOL * abs(r["constant"]) + AUDIT_ATOL
            if not _close(g["constant"], r["constant"], tol):
                problems.append(f"{r['check']}: constant {g['constant']!r} "
                                f"!= {r['constant']!r}")
        return problems
    if kind == "cjs_sweep":
        problems = []
        if got["pass"] != ref["pass"]:
            problems.append(f"cjs pass {got['pass']} != {ref['pass']}")
        if not _close(got["slope"], ref["slope"], CJS_ATOL):
            problems.append(f"cjs slope {got['slope']!r} != {ref['slope']!r}")
        return problems
    if kind == "constraint_table":
        return [] if got == ref else [f"constraint table {got} != {ref}"]
    raise ValueError(f"unknown scenario kind {kind!r}")


def _compare_energy(got, ref):
    problems = []
    if got["columns"] != ref["columns"]:
        return [f"trace.csv columns {got['columns']} != {ref['columns']}"]
    g, r = got["trace"], ref["trace"]
    if len(g["t"]) != len(r["t"]):
        return [f"trace has {len(g['t'])} rows, reference {len(r['t'])}"]
    for i in range(len(r["t"])):
        scale = r["E1"][i] + abs(r["E2"][i]) + abs(r["E3"][i]) + abs(r["E4"][i])
        tols = {"t": TRACE_RTOL, "tau": TRACE_RTOL,
                "E": TRACE_RTOL * abs(r["E"][i]),
                "E1": TRACE_RTOL * scale, "E2": TRACE_RTOL * scale,
                "E3": TRACE_RTOL * scale, "E4": TRACE_RTOL * scale}
        ratio_tol = TRACE_RTOL * scale / r["E1"][i] if r["E1"][i] > 0 else 0.0
        for col in TRACE_COLUMNS:
            tol = tols.get(col, ratio_tol)
            if not _close(g[col][i], r[col][i], tol):
                problems.append(f"trace row {i} {col}: {g[col][i]!r} != "
                                f"{r[col][i]!r}")
    for key in ("max_ratio", "threshold", "taudot"):
        gv, rv = got["summary"][key], ref["summary"][key]
        if (gv is None) != (rv is None) or (
                rv is not None
                and not _close(gv, rv, SUMMARY_RTOL * abs(rv))):
            problems.append(f"summary {key}: {gv!r} != {rv!r}")
    if got["summary"]["aborted"] != ref["summary"]["aborted"]:
        problems.append("summary aborted differs")
    return problems
