"""Regenerate bench/reference.json: the expected outputs of one op per case.

    python3 bench/make_reference.py

Run it only on a commit whose outputs are trusted; a change to the program
that moves these values beyond a workload's rtol must say why.
"""

from __future__ import annotations

import json

import run


def main() -> None:
    threads = run.pin_blas_threads()
    rl = run.import_ritzlab()
    import workloads

    doc = {"workloads": {}}
    for name, workload in workloads.WORKLOADS.items():
        cases = []
        for case in range(workloads.N_CASES):
            state = workload.setup(rl, case)
            cases.append(workload.outputs(workload.op(rl, state, state.problem)))
            print(f"{name} case {case}: {cases[-1]}", flush=True)
        doc["workloads"][name] = cases
    doc["n_cases"] = workloads.N_CASES
    doc["environment"] = run.environment(threads)
    run.REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
