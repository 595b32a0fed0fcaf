"""One benchmark pass in a fresh interpreter, as a CLI user runs it.

    python3 perfbench/child.py SPEC.json RESULT.json [--setup-only] [--trace]

SPEC.json lists the scenario files of the pass.  The pass imports
weakhyp, loads every scenario with `weakhyp.cli.load_scenario` and runs
them in order through `weakhyp.cli.run_scenario`, with no warm-up.
RESULT.json receives the clock readings, the per-scenario exit codes
and times, and the peak resident memory; a traced pass adds the layer
metrics, with the layer warnings counted.  The clock is
`time.perf_counter` (CLOCK_MONOTONIC), which the parent process shares,
so the parent can time set-up from before it started this interpreter.
"""

import json
import sys
import time
import traceback
import warnings


def blas_info():
    """numpy version, BLAS build and the BLAS thread count in effect."""
    import ctypes
    import glob
    import os

    import numpy as np

    info = {"numpy": np.__version__, "blas": None, "blas_threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        pass
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir,
                          "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                info["blas_threads"] = fn()
                return info
    return info


def _warning_counts(caught):
    from weakhyp.quantize import PowerIterationWarning

    unconverged = sum(issubclass(w.category, PowerIterationWarning)
                      for w in caught)
    defect = sum(str(w.message).startswith("invert_b defect increased")
                 for w in caught)
    return {"quantize.operator_norm.unconverged": unconverged,
            "quantize.invert_b.defect_increased": defect}


def main(argv):
    spec_path, result_path = argv[0], argv[1]
    setup_only = "--setup-only" in argv
    traced = "--trace" in argv
    with open(spec_path) as fh:
        spec = json.load(fh)

    from weakhyp import cli

    scenarios = [(entry["name"], cli.load_scenario(entry["path"]))
                 for entry in spec["scenarios"]]
    t_first = time.perf_counter()
    result = {"t_first": t_first}
    if setup_only:
        result["env"] = blas_info()
        with open(result_path, "w") as fh:
            json.dump(result, fh)
        return 0

    tracer = None
    if traced:
        from tracer import Tracer
        tracer = Tracer().install()
        t_first = time.perf_counter()

    runs = []
    warned = {}
    for name, scenario in scenarios:
        if tracer is not None:
            tracer.op = f"{spec['pass']}/{name}"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            start = time.perf_counter()
            try:
                code = cli.run_scenario(scenario)
                error = None
            except Exception:
                code = None
                error = traceback.format_exc()
                print(error, file=sys.stderr)
            end = time.perf_counter()
        runs.append({"name": name, "code": code, "error": error,
                     "s": end - start})
        for key, count in _warning_counts(caught).items():
            warned[key] = warned.get(key, 0) + count
    t_last = time.perf_counter()

    import resource
    result.update({
        "t_first": t_first,
        "t_last": t_last,
        "runs": runs,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    })
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = dict(tracer.summary(), **warned)
        if spec.get("spans"):
            tracer.write_spans(spec["spans"])
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
