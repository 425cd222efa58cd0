"""Run the benchmark on several seeds and summarise the spread.

    python3 perfbench/stats.py --workload NAME [--seeds 1-10] [--seconds 30]

For each end-to-end metric: median, first and third quartile
(statistics.quantiles, n=4) and (Q3 - Q1) / median, the figure the
regression bounds are compared with.  The same for the unscaled timings
and the slowness they were scaled by (see bench.REF_MS).  Also the latency
tail of the pooled samples and the share of failed operations.  Writes
perfbench/results/stats-NAME-seedsLO-HI.json, so sets of other seeds do
not overwrite it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds_of(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default="30")
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"]
              for m in json.loads((HERE.parent / "BENCHMARK.json").read_text())["end_to_end"]}
    runs = []
    for seed in seeds_of(args.seeds):
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                               "--seed", str(seed), "--seconds", args.seconds, "--trace", "0"],
                              cwd=HERE.parent, stdout=subprocess.PIPE, check=True)
        res = json.loads(proc.stdout.decode().strip().splitlines()[-1])
        detail = json.loads((HERE / "results" / f"run-{args.workload}-seed{seed}.json").read_text())
        runs.append({"seed": seed, **res, "raw": detail["raw"],
                     "latencies_ms": detail["latencies_ms"]})
        print(seed, {k: round(v["value"], 4) for k, v in res["metrics"].items()},
              res["attempted"], res["failed"], res["correct"], file=sys.stderr)
    summary = {}
    for name in runs[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
                         "bound": bounds.get(name), "values": vals}
        print(f"{name:16s} median {med:10.4f}  q1 {q1:10.4f}  q3 {q3:10.4f}  "
              f"spread {(q3 - q1) / med:.4f}  bound {bounds.get(name)}")
    for name in runs[0]["raw"]:
        vals = [r["raw"][name] for r in runs]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        summary[f"unscaled.{name}"] = {"median": med, "q1": q1, "q3": q3,
                                       "spread": (q3 - q1) / med, "values": vals}
        print(f"unscaled {name:16s} median {med:10.4f}  q1 {q1:10.4f}  q3 {q3:10.4f}  "
              f"spread {(q3 - q1) / med:.4f}")
    lat = sorted(x for r in runs for x in r["latencies_ms"])
    tails = {f"p{p}": lat[min(len(lat) - 1, int(p / 100 * len(lat)))] for p in (50, 90, 99)}
    print(f"pooled latencies: {len(lat)} samples, {tails}")
    print(f"failed share: {[r['failed'] / r['attempted'] for r in runs]}, "
          f"correct: {all(r['correct'] for r in runs)}")
    seeds = seeds_of(args.seeds)
    name = f"stats-{args.workload}-seeds{seeds[0]}-{seeds[-1]}.json"
    (HERE / "results" / name).write_text(json.dumps(
        {"workload": args.workload, "seconds": args.seconds, "summary": summary,
         "latency_samples": len(lat), "tails_ms": tails,
         "runs": [{k: v for k, v in r.items() if k != "latencies_ms"} for r in runs]}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
