"""The weakhyp benchmark: cold time-to-result of CLI scenario runs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each pass is a fresh interpreter
(`perfbench/child.py`) that imports weakhyp and runs the workload's
scenarios through `weakhyp.cli.run_scenario`, exactly as `weakhyp run`
does, with no warm-up.  Passes repeat for about S seconds.  Between
passes, set-up-only interpreters time `import weakhyp` plus scenario
loading again, so `setup_s` has many samples.

With `--trace 0` the last stdout line reports the end-to-end metrics:
times are means over the run's samples, memory the median.  With
`--trace 1`, traced and untraced passes alternate, and the last line
reports the per-layer metrics of the traced passes plus the tracing
overhead.  Every scenario output is written under `.perfbench/` (never to the scenario's own `output_dir`)
and checked: against the stored reference for seed 0, and against the
scenario's own checks for every seed.  The full result, with the
environment record, goes to `.perfbench/results/`.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STATE = os.path.join(ROOT, ".perfbench")

# One BLAS thread on both sides of every comparison: on the shared
# 2-CPU machine the default thread count doubled CPU time per wall second
# and made runs depend on what else was running.
BLAS_THREADS = 1
SETUP_PROBES_PER_PASS = 4
PASS_TIMEOUT_S = 120.0

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
SCENARIO_METRICS = {"audit_symbols": "symbol_audit_s",
                    "audit_quantizer": "quantizer_audit_s",
                    "cjs_parabola": "cjs_sweep_s"}


class BenchError(RuntimeError):
    pass


def child_env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_child(spec_path, result_path, *flags):
    """Start one interpreter; return (its result, stderr, spawn time)."""
    if os.path.exists(result_path):
        os.remove(result_path)
    cmd = [sys.executable, os.path.join(HERE, "child.py"), spec_path,
           result_path, *flags]
    t_spawn = time.perf_counter()
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0 or not os.path.exists(result_path):
        return None, proc.stderr, t_spawn
    with open(result_path) as fh:
        return json.load(fh), proc.stderr, t_spawn


def prepare(scenarios, work):
    """Write (name, kind, config) scenario files; outputs go under `work`."""
    os.makedirs(os.path.join(work, "scenarios"))
    entries = []
    for name, kind, config in scenarios:
        path = os.path.join(work, "scenarios", name + ".json")
        with open(path, "w") as fh:
            json.dump({"kind": kind, "config": config,
                       "output_dir": os.path.join(work, "out", name)}, fh)
        entries.append({"name": name, "kind": kind, "path": path})
    return entries


def single_pass(scenarios, work, traced=False):
    """Write `scenarios` under `work` and run them in one pass.

    Returns (entries, result, stderr); a traced pass writes its spans
    to `work/spans.jsonl`.
    """
    entries = prepare(scenarios, work)
    spec = os.path.join(work, "spec.json")
    with open(spec, "w") as fh:
        json.dump({"pass": 0, "scenarios": entries,
                   "spans": os.path.join(work, "spans.jsonl") if traced
                   else None}, fh)
    result, stderr, _ = run_child(spec, os.path.join(work, "result.json"),
                                  *(["--trace"] if traced else []))
    return entries, result, stderr


def output_digest(out):
    """sha256 over every output file, for the rerun-identity check."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(out)):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, out).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def check_pass(entries, result, stderr, references, work):
    """Per-scenario problems of one pass (empty list = scenario passed)."""
    problems = {}
    runs = {r["name"]: r for r in result["runs"]} if result else {}
    for entry in entries:
        name, kind = entry["name"], entry["kind"]
        run = runs.get(name)
        found = []
        if run is None:
            found.append("pass crashed: " + stderr.strip()[-400:])
        elif run["error"]:
            found.append("traceback: " + run["error"].strip().splitlines()[-1])
        elif run["code"] != 0:
            found.append(f"exit code {run['code']}")
        else:
            try:
                got = workloads.extract(kind, os.path.join(work, "out", name))
            except (OSError, ValueError, KeyError) as err:
                found.append(f"unreadable outputs: {err}")
            else:
                found.extend(workloads.own_checks(kind, got))
                if references is not None:
                    found.extend(workloads.compare(kind, got,
                                                   references[name]))
        problems[name] = found
    return problems


def load_references(workload, seed):
    if seed != workloads.DEFAULT_SEED:
        return None
    path = os.path.join(HERE, "reference", workload + ".json")
    with open(path) as fh:
        return json.load(fh)


def environment(seed, traced, probe_env):
    def cpu_model():
        try:
            with open("/proc/cpuinfo") as fh:
                for line in fh:
                    if line.startswith("model name"):
                        return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return platform.processor() or None

    def git_commit():
        if not os.path.exists(os.path.join(ROOT, ".git")):
            return None
        try:
            return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True,
                                  timeout=30).stdout.strip() or None
        except OSError:
            return None

    src = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(
            os.path.join(ROOT, "src", "weakhyp"))):
        dirnames.sort()
        for name in sorted(f for f in filenames if f.endswith(".py")):
            with open(os.path.join(dirpath, name), "rb") as fh:
                src.update(name.encode() + fh.read())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": probe_env.get("numpy"),
        "blas": probe_env.get("blas"),
        "blas_threads_set": BLAS_THREADS,
        "blas_threads_in_effect": probe_env.get("blas_threads"),
        "git_commit": git_commit(),
        "source_sha256": src.hexdigest(),
        "seed": seed,
        "trace": traced,
    }


def measure(workload, seed, seconds, traced, work, spans_path=None):
    """Run passes for about `seconds`; return the raw samples."""
    entries = prepare(workloads.scenarios(workload, seed, ROOT), work)
    references = load_references(workload, seed)
    spec_path = os.path.join(work, "spec.json")
    result_path = os.path.join(work, "result.json")
    probe_env = {}
    samples = {"setup_s": [], "untraced": [], "traced": []}
    attempted = failed = 0
    failures = []
    digests = set()
    iteration_s = []
    t_start = time.perf_counter()
    k = 0
    while True:
        t_iteration = time.perf_counter()
        # traced passes first, so a short traced run still has two of them
        is_traced = traced and k % 2 == 0
        with open(spec_path, "w") as fh:
            json.dump({"pass": k, "scenarios": entries,
                       "spans": spans_path if is_traced else None}, fh)
        for _ in range(SETUP_PROBES_PER_PASS):
            result, stderr, t_spawn = run_child(spec_path, result_path,
                                                "--setup-only")
            if result is None:
                raise BenchError("set-up probe failed:\n" + stderr)
            samples["setup_s"].append(result["t_first"] - t_spawn)
            probe_env = result["env"]

        result, stderr, t_spawn = run_child(
            spec_path, result_path, *(["--trace"] if is_traced else []))
        problems = check_pass(entries, result, stderr, references, work)
        out = os.path.join(work, "out")
        if result is not None and not any(problems.values()):
            digests.add(output_digest(out))
        shutil.rmtree(out, ignore_errors=True)
        attempted += len(entries)
        for name, found in problems.items():
            if found:
                failed += 1
                failures.append({"pass": k, "scenario": name,
                                 "problems": found[:5]})
        if result is not None:
            samples["setup_s"].append(result["t_first"] - t_spawn)
            sample = {"wall_s": result["t_last"] - result["t_first"],
                      "peak_rss_mb": result["maxrss_kb"] / 1024.0,
                      "scenarios": {r["name"]: r["s"] for r in result["runs"]},
                      "layers": result.get("layers")}
            samples["traced" if is_traced else "untraced"].append(sample)
        k += 1
        now = time.perf_counter()
        iteration_s.append(now - t_iteration)
        need_both = traced and k < 2
        if not need_both and \
                now - t_start + statistics.median(iteration_s) > seconds:
            break
    return {"samples": samples, "attempted": attempted, "failed": failed,
            "failures": failures, "reproducible": len(digests) <= 1,
            "env": probe_env, "measured_s": time.perf_counter() - t_start}


def _median(values):
    return statistics.median(values) if values else 0.0


def _mean(values):
    """The estimate of a time over a run's samples.

    On the shared host the processor runs slower or faster for tens of
    seconds at a time, and a run holds only a few passes of the long
    workloads.  Over such samples the mean, which uses every pass,
    moved less from run to run than the median did (see README.md).
    """
    return statistics.fmean(values) if values else 0.0


def _describe(name, values, unit, stat=_mean, label="mean"):
    if not values:
        return f"{name} = n/a"
    return (f"{name} = {stat(values):.6g} {unit} "
            f"({label} of {len(values)}; min {min(values):.6g}, "
            f"median {statistics.median(values):.6g}, "
            f"max {max(values):.6g})")


def end_to_end(raw):
    runs = raw["samples"]["untraced"]
    metrics = {
        "wall_s": _mean([s["wall_s"] for s in runs]),
        "setup_s": _mean(raw["samples"]["setup_s"]),
        "peak_rss_mb": _median([s["peak_rss_mb"] for s in runs]),
    }
    lines = [_describe("wall_s", [s["wall_s"] for s in runs], "s"),
             _describe("setup_s", raw["samples"]["setup_s"], "s"),
             _describe("peak_rss_mb", [s["peak_rss_mb"] for s in runs], "MB",
                       _median, "median")]
    for scenario, metric in SCENARIO_METRICS.items():
        values = [s["scenarios"][scenario] for s in runs
                  if scenario in s["scenarios"]]
        if values:
            lines.append(_describe(metric, values, "s"))
    return ({k: {"value": v, "unit": END_TO_END_UNITS[k]}
             for k, v in metrics.items()}, lines)


def per_layer(raw, units):
    """Medians of the traced passes' layer metrics, plus overhead."""
    traced = raw["samples"]["traced"]
    untraced = raw["samples"]["untraced"]
    values = dict.fromkeys(units, 0.0)
    for key in traced[0]["layers"] if traced else ():
        values[key] = _median([s["layers"][key] for s in traced])
    for scenario, metric in SCENARIO_METRICS.items():
        values[metric] = _mean([s["scenarios"].get(scenario, 0.0)
                                for s in untraced])
    traced_wall = _mean([s["wall_s"] for s in traced])
    untraced_wall = _mean([s["wall_s"] for s in untraced])
    values["trace.wall_s"] = traced_wall
    values["trace.untraced_wall_s"] = untraced_wall
    values["trace.overhead_s"] = traced_wall - untraced_wall
    counts_repeat = all(
        s["layers"][k] == traced[0]["layers"][k]
        for s in traced for k in traced[0]["layers"]
        if k.endswith(".calls"))
    lines = [f"traced passes: {len(traced)}, untraced passes: "
             f"{len(untraced)}, call counts repeat: {counts_repeat}",
             f"trace.overhead_s = {values['trace.overhead_s']:.6g} s "
             f"(traced wall {traced_wall:.6g} s - untraced wall "
             f"{untraced_wall:.6g} s)"]
    if traced_wall > 0:
        top = sorted(((k, v) for k, v in values.items()
                      if k.count(".") == 1 and k.endswith(".self_s")),
                     key=lambda kv: -kv[1])
        lines.append("layer self time, share of traced wall: " + ", ".join(
            f"{k[:-7]} {v / traced_wall:.0%}" for k, v in top if v > 0))
    derived = set(SCENARIO_METRICS.values()) | {
        "trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s"}
    missing = set(units) - derived - set(traced[0]["layers"] if traced else units)
    if missing:
        raise BenchError(f"per-layer metrics not produced: {sorted(missing)}")
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    return metrics, lines, counts_repeat


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for required in (os.path.join("src", "weakhyp", "__init__.py"),
                     os.path.join("scenarios", "energy_headline.json"),
                     "BENCHMARK.json"):
        if not os.path.exists(os.path.join(ROOT, required)):
            print(f"error: {required} not found under {ROOT}; run from the "
                  "root of a weakhyp checkout", file=sys.stderr)
            return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        units = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}

    # the bytecode build a package install performs
    compileall.compile_dir(os.path.join(ROOT, "src", "weakhyp"), quiet=1)
    compileall.compile_dir(HERE, quiet=1, maxlevels=0)

    os.makedirs(os.path.join(STATE, "results"), exist_ok=True)
    work = os.path.join(STATE, f"work-{os.getpid()}")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans_path = os.path.join(STATE, "results", tag + "-spans.jsonl")
    try:
        raw = measure(args.workload, args.seed, args.seconds,
                      bool(args.trace), work, spans_path)
    except (BenchError, subprocess.TimeoutExpired) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = environment(args.seed, bool(args.trace), raw["env"])
    print("env " + json.dumps(env, sort_keys=True))
    try:
        if args.trace:
            metrics, lines, counts_repeat = per_layer(raw, units)
        else:
            (metrics, lines), counts_repeat = end_to_end(raw), True
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    correct = (raw["failed"] == 0 and raw["reproducible"] and counts_repeat)
    for line in lines:
        print(line)
    print(f"operations attempted {raw['attempted']}, failed {raw['failed']}; "
          f"outputs identical across passes: {raw['reproducible']}")
    for failure in raw["failures"][:10]:
        print("FAILED " + json.dumps(failure), file=sys.stderr)

    with open(os.path.join(STATE, "results", tag + ".json"), "w") as fh:
        json.dump({"env": env, "metrics": metrics, "raw": raw}, fh, indent=1)
    print(json.dumps({"correct": correct, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
