"""One benchmark process: set up a workload, run whole rounds of it for the
given time, check every output, print one JSON line.

    python3 perfbench/worker.py --workload NAME --seed N --seconds T --trace 0|1
                                [--setup-only]

run.py starts it with numerical-library threads pinned to one and with
``src/`` of the checkout first on PYTHONPATH.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

from bench import Tracer, reference, same, slowness  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
MODULES = {"algebra_exact": "algebra", "plane_twisted": "plane", "cli_documents": "cli_docs"}
# Share of the timed run given to the reference kernel.  It runs between
# operations in proportion to their time, so its median weighs the host's
# speed as ops_per_s does, and several samples follow each long operation:
# the first after an nctorus subprocess reads slow, on cold caches.
REF_SHARE = 0.03


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(MODULES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    # a warning from the program (decay, overflow) fails the operation
    warnings.simplefilter("error", RuntimeWarning)
    wl_mod = importlib.import_module(MODULES[args.workload])
    import nctorus
    if Path(nctorus.__file__).resolve().parent != SRC / "nctorus":
        print(f"nctorus imported from {nctorus.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    tr = Tracer(bool(args.trace))
    wl = wl_mod.Workload(args.seed, tr)
    try:
        return measure(args, wl, tr)
    finally:
        if hasattr(wl, "close"):
            wl.close()


def measure(args, wl, tr) -> int:
    wl.warmup()
    setup_s = time.perf_counter() - _T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    first: dict = {}
    errors: list[str] = []     # operations that raised
    unstable: list[str] = []   # outputs that differ from round 0
    latencies: list[float] = []
    refs: list[float] = []     # reference kernel times
    ref_due = 0.0
    busy = 0.0
    attempted = failed = rounds = 0
    start = time.perf_counter()
    while True:
        for op in wl.ops:
            attempted += 1
            tr.op = op.name
            t0 = time.perf_counter()
            try:
                out, ok = op.fn(tr), True
            except Exception as exc:  # an operation that fails is counted, not fatal
                ok = False
                failed += 1
                errors.append(f"{op.name}: {type(exc).__name__}: {exc}")
            dt = time.perf_counter() - t0
            busy += dt
            ref_due += REF_SHARE * dt
            while ref_due > 0:
                refs.append(reference())
                ref_due -= refs[-1]
            if not ok:
                continue
            latencies.append(dt)
            if op.name not in first:  # the first output that did not raise is checked
                first[op.name] = out
            elif not same(out, first[op.name]):
                unstable.append(f"{op.name}: round {rounds} output differs from its first")
        rounds += 1
        # stop at the whole number of rounds whose end is nearest --seconds
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / rounds >= args.seconds:
            break
    timed_s = time.perf_counter() - start
    # before the checks, whose oracles run in this process too
    who = getattr(wl, "rss_of", resource.RUSAGE_SELF)
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    tr.op = "check"
    bad = unstable + wl.check(first)
    print(f"set-up {setup_s:.2f} s, {rounds} rounds in {timed_s:.2f} s, "
          f"checks {time.perf_counter() - start - timed_s:.2f} s", file=sys.stderr)
    for msg in errors:
        print(f"FAILED {msg}", file=sys.stderr)
    for msg in bad:
        print(f"CHECK {msg}", file=sys.stderr)

    result = {"correct": not bad,
              "attempted": attempted, "failed": failed, "rounds": rounds}
    if args.trace:
        result["metrics"] = wl.layer_metrics(tr, first)
        result["spans"] = len(tr.spans)
        result["ops_per_s"] = (attempted - failed) / busy
        out_dir = HERE / "results"
        out_dir.mkdir(exist_ok=True)
        with open(out_dir / f"trace-{args.workload}-seed{args.seed}.json", "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "spans": [{"layer": s[0], "key": s[1], "start": s[2] - start,
                                  "end": s[3] - start, "op": s[4]} for s in tr.spans]}, fh)
    else:
        raw = {"setup_s": setup_s,
               "ops_per_s": (attempted - failed) / busy,
               "latency_p50_ms": 1e3 * statistics.median(latencies) if latencies else float("nan")}
        slow = slowness(refs)
        result["metrics"] = {
            "setup_s": raw["setup_s"] / slow,
            "ops_per_s": raw["ops_per_s"] * slow,
            "latency_p50_ms": raw["latency_p50_ms"] / slow,
            "peak_rss_mb": peak_rss_mb,  # ru_maxrss is in KiB on Linux
        }
        result["raw"] = dict(raw, slowness=slow)
        result["latencies_ms"] = [round(1e3 * x, 4) for x in latencies]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
