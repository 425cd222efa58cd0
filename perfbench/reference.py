"""Reference figures: the baseline rows of ROADMAP item 1, measured again.

    python3 perfbench/reference.py

Run from the root of a checkout.  Each case is timed REPEATS times (fewer
for the slowest) in
this process (one numerical-library thread) and reported as median and
minimum in ms; process cases start fresh interpreters.  Prints a table
and writes perfbench/results/reference.json.  Not part of the benchmark
runs: it gives the per-kernel figures the README quotes.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("NCTORUS_THREADS", None)

import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))
os.environ["PYTHONPATH"] = str(SRC)

import numpy as np  # noqa: E402

import nctorus as nc  # noqa: E402
from nctorus import grids  # noqa: E402

REPEATS = 5


def timed(fn, repeats: int) -> tuple[float, float]:
    ts = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        ts.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(ts), 1e3 * min(ts)


def element(r: int, q, rng) -> nc.TorusElement:
    c = rng.standard_normal((2 * r + 1, 2 * r + 1)) + 1j * rng.standard_normal((2 * r + 1, 2 * r + 1))
    return nc.TorusElement(nc.CoeffLattice2(r, r, c), q)


def main() -> int:
    n = REPEATS
    (HERE / "results").mkdir(exist_ok=True)
    rng = np.random.default_rng(0)
    rows = []

    def row(layer, case, fn, reps=n):
        med, lo = timed(fn, reps)
        rows.append({"layer": layer, "case": case, "median_ms": med, "min_ms": lo, "repeats": reps})
        print(f"{layer:8s} {case:58s} {med:10.2f} {lo:10.2f}", flush=True)

    print(f"{'layer':8s} {'case':58s} {'median ms':>10s} {'min ms':>10s}")
    qi = nc.PhaseQ.irrational(1.234)
    for r in (10, 30, 60):
        f, g = element(r, qi, rng), element(r, qi, rng)
        row("kernel", f"q_mul, irrational q, radius {r}", lambda f=f, g=g: nc.q_mul(f, g))
    a = nc.gaussian_2d(16, 16, 256, 256, center=(0.3, -0.2))
    b = nc.gaussian_2d(16, 16, 256, 256, center=(-0.1, 0.4), width=(1.1, 0.9))
    for name in ("twisted_conv", "other_twisted_conv", "heisenberg_group_conv"):
        row("kernel", f"{name}, 256^2", lambda fn=getattr(nc, name): fn(a, b, 0.5))
    row("kernel", "plain_conv, 256^2", lambda: nc.plain_conv(a, b))
    for m in (3, 5, 7):
        alg = nc.torus_quotient(nc.PhaseQ.rational(1, m))
        phi = nc.PositiveForm(alg.unit_vector())
        row("kernel", f"gram_matrix, trace form, torus_quotient N={m}",
            lambda phi=phi, alg=alg: nc.gram_matrix(phi, alg))
    row("kernel", "gns_build, trace form, torus_quotient N=7", lambda: nc.gns_build(phi, alg), 3)
    for r in (1, 2, 3):
        row("kernel", f"truncated_box r={r}", lambda r=r: nc.truncated_box(r, r, qi))
    uv = nc.TorusElement(nc.CoeffLattice2.delta(1, 1), qi)
    spec = nc.DerivationSpec.from_inner(uv)
    for r in (5, 10):
        f = element(r, qi, rng)
        row("kernel", f"apply_derivation, inner ad(UV), radius {r}",
            lambda f=f: nc.apply_derivation(spec, f))
    m7 = rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7))
    row("kernel", "opnorm 7x7 (power iteration)", lambda: nc.opnorm(m7), 50)
    row("kernel", "np.linalg.norm(m, 2) 7x7", lambda: np.linalg.norm(m7, 2), 50)

    text = json.dumps(grids.grid2d_to_obj(a))
    obj = json.loads(text)
    row("io", "256^2 grid: json.loads", lambda: json.loads(text))
    row("io", "256^2 grid: grid2d_from_obj", lambda: grids.grid2d_from_obj(obj))
    row("io", "256^2 grid: grid2d_to_obj + json.dumps(indent=2)",
        lambda: json.dumps(grids.grid2d_to_obj(a), indent=2))

    py = [sys.executable]
    row("process", "python -c 'import nctorus'",
        lambda: subprocess.run(py + ["-c", "import nctorus"], check=True))
    row("process", "python -c 'pass'", lambda: subprocess.run(py + ["-c", "pass"], check=True))
    imp = subprocess.run(py + ["-X", "importtime", "-c", "import nctorus"], check=True,
                         stderr=subprocess.PIPE).stderr.decode().splitlines()
    cumulative = {ln.split("|")[2].strip(): int(ln.split("|")[1]) for ln in imp[1:]}
    share = cumulative.get("scipy.integrate", 0) / cumulative["nctorus"]
    print(f"importtime: nctorus {cumulative['nctorus'] / 1e3:.0f} ms cumulative, "
          f"scipy.integrate {cumulative.get('scipy.integrate', 0) / 1e3:.0f} ms ({share:.0%})")
    with tempfile.TemporaryDirectory(dir=HERE / "results") as tmp:
        for name, g in (("a", a), ("b", b)):
            Path(tmp, f"{name}.json").write_text(json.dumps(grids.grid2d_to_obj(g)))
        argv = py + ["-m", "nctorus.cli", "twisted-conv", f"{tmp}/a.json", f"{tmp}/b.json",
                     "--variant", "symplectic", "--hbar", "0.5"]
        row("e2e", "nctorus twisted-conv --variant symplectic, 256^2",
            lambda: subprocess.run(argv, check=True, stdout=subprocess.DEVNULL), 3)
    for idx in (4, 8, 9, 12):
        row("e2e", f"criterion {idx}", lambda idx=idx: nc.run_criterion(idx, 42), 3)

    info = {"cpus": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "machine": platform.machine()}
    print(info)
    (HERE / "results" / "reference.json").write_text(json.dumps(
        {"machine": info, "rows": rows,
         "import": {"nctorus_us": cumulative["nctorus"],
                    "scipy_integrate_us": cumulative.get("scipy.integrate", 0)}}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
