"""Rewrite reference.json: the outputs of each workload's gate instance.

    python3 perfbench/record_reference.py

Only for a change that is meant to alter what the library computes; the
correctness gate compares every benchmark run against this file.
"""

from __future__ import annotations

import json
import os
import tempfile

import run  # sets the BLAS threads and puts src/ on the path
import workloads


def main():
    outputs = {}
    with tempfile.TemporaryDirectory() as workdir:
        for name, wl in workloads.WORKLOADS.items():
            r = run.gate_round(wl, workdir)
            if r.errors:
                raise SystemExit(f"{name}: {r.errors}")
            outputs[name] = r.outputs
            print(name, r.outputs)
    with open(os.path.join(run.HERE, "reference.json"), "w", encoding="ascii") as fh:
        json.dump({"gate_seed": workloads.GATE_SEED, "rtol": workloads.RTOL,
                   "atol": workloads.ATOL, "outputs": outputs}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
