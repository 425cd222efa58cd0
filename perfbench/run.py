"""nctorus benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the root of a checkout; the package is imported from its src/.
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.

--trace 0: the end-to-end metrics of NAME.  set-up runs in SETUPS fresh
worker processes besides the measuring one and setup_s is their median.
Timings are scaled by the host's slowness during the run (bench.REF_MS);
the unscaled figures go to stderr and to perfbench/results/.
--trace 1: the per-layer metrics.  NAME runs for T seconds with the call
tracer on; the other workloads run one traced round each so that every
per-layer metric is reported.

Only the standard library is used here; the work happens in worker.py
processes, one at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("algebra_exact", "plane_twisted", "cli_documents")
SETUPS = 2          # extra set-up-only processes per untraced run
WORKER_TIMEOUT = 170


def bench_env() -> dict:
    """Environment of every process the benchmark starts: the checkout's
    src/ first on the path, one numerical-library thread, NCTORUS_THREADS
    unset (the package default)."""
    env = dict(os.environ)
    env.pop("NCTORUS_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def worker(workload: str, seed: int, seconds: float, trace: int, setup_only=False) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(cmd, cwd=ROOT, env=bench_env(), stdout=subprocess.PIPE,
                          timeout=WORKER_TIMEOUT, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"worker {workload} exited with {proc.returncode}")
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "nctorus" / "__init__.py").is_file():
        print(f"error: no nctorus package under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    if args.trace:
        runs = [worker(w, args.seed, args.seconds if w == args.workload else 0, 1)
                for w in WORKLOADS]
        metrics = {}
        for r in runs:
            metrics.update(r["metrics"])
        result = {"correct": all(r["correct"] for r in runs),
                  "attempted": sum(r["attempted"] for r in runs),
                  "failed": sum(r["failed"] for r in runs)}
        main_run = runs[WORKLOADS.index(args.workload)]
        print(f"traced ops_per_s {main_run['ops_per_s']:.6g} over {main_run['rounds']} rounds, "
              f"{main_run['spans']} spans", file=sys.stderr)
    else:
        setups = [worker(args.workload, args.seed, 0, 0, setup_only=True)["setup_s"]
                  for _ in range(SETUPS)]
        main_run = worker(args.workload, args.seed, args.seconds, 0)
        setups.append(main_run["raw"]["setup_s"])
        # set-up is too short to time the reference kernel beside it; the
        # measuring run's slowness, taken a few seconds later, scales it
        raw = dict(main_run["raw"], setup_s=statistics.median(setups))
        metrics = dict(main_run["metrics"], setup_s=raw["setup_s"] / raw["slowness"])
        result = {k: main_run[k] for k in ("correct", "attempted", "failed")}
        print(f"rounds {main_run['rounds']}, {len(main_run['latencies_ms'])} latencies, "
              f"setups {[round(s, 4) for s in setups]}, unscaled "
              f"{ {k: round(v, 4) for k, v in raw.items()} }", file=sys.stderr)
        out_dir = HERE / "results"
        out_dir.mkdir(exist_ok=True)
        with open(out_dir / f"run-{args.workload}-seed{args.seed}.json", "w") as fh:
            json.dump(dict(result, metrics=metrics, raw=raw, setups=setups,
                           rounds=main_run["rounds"], latencies_ms=main_run["latencies_ms"]), fh)

    declared = spec["per_layer" if args.trace else "end_to_end"]
    if set(metrics) != {m["name"] for m in declared}:
        print(f"error: measured {sorted(metrics)} but BENCHMARK.json declares "
              f"{sorted(m['name'] for m in declared)}", file=sys.stderr)
        return 1
    result["metrics"] = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                         for m in declared}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
