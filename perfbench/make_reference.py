"""Regenerate the stored reference outputs of the default seed.

    python3 perfbench/make_reference.py

Runs one untraced pass of every workload with seed 0 and writes the
checked outputs (see `workloads.extract`) to `perfbench/reference/`.
Run it only when a change to the program is meant to change results.
"""

import json
import os
import shutil
import sys

import run
import workloads


def main():
    out_dir = os.path.join(run.HERE, "reference")
    os.makedirs(out_dir, exist_ok=True)
    for workload in workloads.WORKLOADS:
        work = os.path.join(run.STATE, f"reference-{os.getpid()}")
        try:
            entries, result, stderr = run.single_pass(workloads.scenarios(
                workload, workloads.DEFAULT_SEED, run.ROOT), work)
            if result is None or any(r["code"] != 0 for r in result["runs"]):
                print(f"error: {workload} did not pass:\n{stderr}",
                      file=sys.stderr)
                return 1
            ref = {e["name"]: workloads.extract(
                e["kind"], os.path.join(work, "out", e["name"]))
                for e in entries}
        finally:
            shutil.rmtree(work, ignore_errors=True)
        with open(os.path.join(out_dir, workload + ".json"), "w") as fh:
            json.dump(ref, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote reference/{workload}.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
