"""Tests of the benchmark's tracer on reduced workloads.

    python -m pytest -q perfbench/tests

Each pass runs in a fresh interpreter through `perfbench/child.py`, as
in the benchmark.  The tracer must not change any output byte, its
call counts must repeat exactly, and no binding site may escape the
wrappers.
"""

import importlib
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import run  # noqa: E402
import tracer  # noqa: E402

REDUCED = {
    "energy": [
        ("energy", "energy_estimate",
         {"n": 64, "taudot": "auto", "packet_xi": 8.0, "sample_stride": 4}),
    ],
    "audit": [
        ("symbols", "symbol_audit", {"orders": [[0, 0], [1, 1]]}),
        ("metric", "metric_audit", {"n_pairs": 200}),
        ("quantizer", "quantizer_audit", {"sizes": [32, 64]}),
        ("cjs", "cjs_sweep", {"profile": "parabola", "k": 2,
                              "xi_ladder": [4, 8, 16, 32, 64, 128]}),
        ("table", "constraint_table", {"step": "0.01"}),
    ],
}

COUNTS = ("calls", "bytes", "bytes_computed", "rows", "failed", "mode_steps",
          "distinct_ratio")


def _pass(root, scenarios, traced):
    work = str(root)
    _, result, stderr = run.single_pass(scenarios, work, traced)
    assert result is not None, stderr
    assert [r["code"] for r in result["runs"]] == [0] * len(scenarios)
    return (result, run.output_digest(os.path.join(work, "out")),
            os.path.join(work, "spans.jsonl"))


@pytest.fixture(scope="module", params=sorted(REDUCED))
def passes(request, tmp_path_factory):
    scenarios = REDUCED[request.param]
    root = tmp_path_factory.mktemp(request.param)
    untraced = _pass(root / "untraced", scenarios, traced=False)
    traced = [_pass(root / f"traced{i}", scenarios, traced=True)
              for i in range(2)]
    return request.param, untraced, traced


def test_traced_outputs_are_byte_identical(passes):
    _, untraced, traced = passes
    assert {t[1] for t in traced} == {untraced[1]}


def test_call_counts_repeat_exactly(passes):
    _, _, traced = passes
    first, second = (t[0]["layers"] for t in traced)
    counted = [k for k in first if k.endswith(COUNTS)]
    assert len(counted) > len(tracer.TARGETS)
    assert {k: first[k] for k in counted} == {k: second[k] for k in counted}


def test_no_binding_site_escapes(passes):
    name, _, traced = passes
    layers = traced[0][0]["layers"]
    if name == "energy":
        assert layers["solver.step_rk4.calls"] > 0
        assert layers["quantize.quantize.calls"] == (
            layers["energy.symmetrizer.calls"]
            + layers["energy.dt_b_matrix.calls"])
        assert layers["symbols.sup_a.calls"] >= layers["solver.step_rk4.calls"]
        assert layers["energy.dt_energy_breakdown.calls"] > 0
    else:
        for key in ("solver.step_rk4.calls", "solver.rhs.calls",
                    "energy.symmetrizer.calls", "energy.energy.calls"):
            assert layers[key] == 0
        for key in ("audits.derivative_bound_audit.calls",
                    "quantize.operator_norm.calls", "quantize.invert_b.calls",
                    "cjs.max_energy_growth.calls", "symbols.b.calls"):
            assert layers[key] > 0
    assert layers["cli.run_scenario.calls"] == len(REDUCED[name])


def test_spans_name_parent_and_pass(passes):
    name, _, traced = passes
    result, _, spans_path = traced[0]
    with open(spans_path) as fh:
        spans = [json.loads(line) for line in fh]
    assert len(spans) == sum(result["layers"][t[0] + ".calls"]
                             for t in tracer.TARGETS)
    ops = {f"0/{s[0]}" for s in REDUCED[name]}
    for index, (span_name, start, end, parent, op) in enumerate(spans):
        assert start <= end
        assert op in ops
        assert parent < index
        if parent >= 0:
            p_start, p_end = spans[parent][1], spans[parent][2]
            assert p_start <= start and end <= p_end
        else:
            assert span_name == "cli.run_scenario"


def _defining_sites():
    """(owner, attribute, current value) where each target is defined."""
    sites = []
    for _, module_name, attr in tracer.TARGETS:
        owner = importlib.import_module("weakhyp." + module_name)
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = getattr(owner, cls_name)
        sites.append((owner, attr, owner.__dict__[attr]))
    return sites


def test_install_rebinds_every_site_and_uninstall_restores():
    import weakhyp  # noqa: F401
    modules = [mod for key, mod in sys.modules.items()
               if key == "weakhyp" or key.startswith("weakhyp.")]
    before = [(mod, dict(vars(mod))) for mod in modules]
    originals = _defining_sites()

    t = tracer.Tracer().install()
    try:
        for mod in modules:
            for value in vars(mod).values():
                assert not any(value is o for _, _, o in originals)
        for owner, attr, original in originals:
            assert owner.__dict__[attr] is not original
    finally:
        t.uninstall()
    for mod, names in before:
        assert all(vars(mod)[k] is v for k, v in names.items())
    for owner, attr, original in originals:
        assert owner.__dict__[attr] is original
