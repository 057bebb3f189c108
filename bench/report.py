"""Print every benchmark metric, by name and unit, for every workload.

    python3 bench/report.py [--trace]

Runs bench/run.py once per workload with seed 0 and BENCHMARK.json's
run_seconds, each in its own process so that peak memory is the workload's
own, and waits for each to finish.  Each workload's table starts with the
environment its run recorded.  With --trace it also makes the traced run of
each workload and prints its per-module metrics.  Exits non-zero if any op
failed or any run did not complete.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RATE_NAMES = ("train_steps_per_s", "eval_points_per_s")
SEED = 0
SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
ENV_PREFIX = "# env "


def run_one(workload: str, trace: int) -> tuple:
    """(last-line result, recorded environment) of one run.py process."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    env = next(json.loads(ln[len(ENV_PREFIX):]) for ln in lines if ln.startswith(ENV_PREFIX))
    return json.loads(lines[-1]), env


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--trace", action="store_true", help="also print per-module metrics")
    args = parser.parse_args()

    sys.path.insert(0, str(BENCH))
    import workloads

    ok = True
    for name, workload in workloads.WORKLOADS.items():
        result, env = run_one(name, 0)
        metrics = result["metrics"]
        rows = [(rate, metrics["work_per_s"]["value"], "1/s") if rate == workload.rate_name
                else (rate, "n/a", "") for rate in RATE_NAMES]
        rows += [(m, metrics[m]["value"], metrics[m]["unit"]) for m in ("setup_s", "peak_rss_mb")]
        rows.append(("ops_failed_frac", result["failed"] / result["attempted"], "ratio"))
        if args.trace:
            traced, _ = run_one(name, 1)
            rows += [(m, v["value"], v["unit"]) for m, v in traced["metrics"].items()]
            ok = ok and traced["correct"]
        ok = ok and result["correct"]
        print(f"== {name} (seed {SEED}, {result['attempted']} ops)")
        print(f"  environment {json.dumps(env)}")
        for metric, value, unit in rows:
            shown = f"{value:.6g}" if isinstance(value, float) else str(value)
            print(f"  {metric:40s} {shown:>14s} {unit}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
