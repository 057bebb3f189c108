"""Benchmark entry point: one workload, one seed, one closed loop of ops.

Run from the repository root:

    python3 bench/run.py --workload train_wide --seed 0 --seconds 36 --trace 0

With --trace 0 it prints the end-to-end metrics, with --trace 1 the
per-module metrics of a traced run (spans go to bench/out/).  Lines before
the last are a readable summary and the recorded environment (the `# env`
line; a spans file carries it too); the last line is one JSON object with
exactly the keys correct, attempted, failed and metrics.
The package is imported from this checkout's src/, never from elsewhere.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference.json"
OUT = BENCH / "out"
MAX_BLAS_THREADS = 2
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads() -> int:
    """Fix the BLAS pool before numpy loads: min(2, usable cores) threads."""
    n = min(MAX_BLAS_THREADS, len(os.sched_getaffinity(0)))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(n)
    return n


def import_ritzlab():
    """Import ritzlab from SRC, after numpy and yaml, its declared dependencies."""
    if not (SRC / "ritzlab" / "__init__.py").is_file():
        raise SystemExit(f"error: no ritzlab package under {SRC}; run from a ritzlab checkout")
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401
    import yaml  # noqa: F401

    import ritzlab
    if SRC not in Path(ritzlab.__file__).resolve().parents:
        raise SystemExit(f"error: imported ritzlab from {ritzlab.__file__}, not from {SRC}")
    return ritzlab


def _blas_threads_in_effect():
    """Ask the loaded OpenBLAS for its thread count; None if it cannot be found."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                return int(fn())
    return None


def _git_sha():
    """HEAD of the checkout read from .git without running git; None when absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(threads_requested: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((SRC / "ritzlab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_requested": threads_requested,
        "blas_threads_in_effect": _blas_threads_in_effect(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "git_sha": _git_sha(),
        "src_sha256": digest.hexdigest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    threads = pin_blas_threads()
    import spans
    import workloads

    rl = import_ritzlab()

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    reference = json.loads(REFERENCE.read_text())["workloads"][workload.name]

    env = environment(threads)
    result = workloads.run_workload(
        rl, workload, args.seed, args.seconds, bool(args.trace), reference)

    if result.spans:
        OUT.mkdir(exist_ok=True)
        path = OUT / f"spans-{workload.name}-seed{args.seed}.json"
        path.write_text(json.dumps(dict(spans.spans_document(result.spans), environment=env)))
        print(f"# spans: {len(result.spans)} written to {path.relative_to(ROOT)}")
    for msg in result.messages:
        print(f"# failed op: {msg}", file=sys.stderr)
    for msg in result.accounting_errors:
        print(f"# accounting error: {msg}", file=sys.stderr)

    table = spans.PER_LAYER if args.trace else workloads.END_TO_END
    print(f"# env {json.dumps(env)}")
    print(f"# workload={workload.name} seed={args.seed} case={args.seed % workloads.N_CASES} "
          f"trace={args.trace} ops={result.attempted} "
          f"op_s={[round(s, 4) for s in result.op_seconds]} work_per_op={workload.work_per_op:g}")
    print(f"# ops_failed_frac = {result.failed / result.attempted:g} "
          f"({result.failed} of {result.attempted})")
    for name, unit, _ in table:
        alias = f" ({workload.rate_name})" if name == "work_per_s" else ""
        print(f"# {name}{alias} = {result.metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": result.failed == 0 and not result.accounting_errors,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": result.metrics[name], "unit": unit} for name, unit, _ in table},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
