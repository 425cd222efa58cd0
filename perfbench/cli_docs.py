"""cli_documents: one ``nctorus`` process per operation, one at a time.

Set-up writes the documents of one round (seeded contents, fixed sizes):

- small: ``torus-mul`` of two radius-3 elements, ``torus-check-derivation``
  of ad(a) with a of radius 2, ``matrep-eval`` of a radius-3 element at one
  fiber, ``gns-build`` of the trace form on ``torus_quotient`` N = 4,
  ``moyal-star`` of two degree-4 symbols to order 4, ``circle-check``;
- grid: ``twisted-conv --variant symplectic`` at 128^2 and ``--variant
  ordered`` at 256^2 on Gaussians with half-extent 16 (0.7 and 2.8 MB of
  input JSON).

Process start and ``import nctorus`` dominate the small documents, the
``[re, im]`` JSON codec the grid ones.  Six of the eight operations are
small, so the median latency is a small document's.  Every output is
compared with the library result for the same document in this process.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

import nctorus as nc
import oracles as O
from bench import Op, Tracer, complex_box, rng_for

HERE = Path(__file__).resolve().parent
GRID_L = 16.0
PROBES = 5          # fresh interpreters for cli.import_ms / cli.interpreter_ms
INPROC_REPEATS = 3  # in-process repeats per document in the traced run
TOL = 1e-12


def _pairs(values: np.ndarray) -> list:
    return [[float(z.real), float(z.imag)] for z in np.asarray(values).reshape(-1)]


def _lattice_doc(c: np.ndarray) -> dict:
    return {"radius_k": (c.shape[0] - 1) // 2, "radius_l": (c.shape[1] - 1) // 2,
            "coeffs": _pairs(c)}


def _q_doc(q: nc.PhaseQ) -> dict:
    return {"rational": [q.p, q.modulus]} if q.kind == "rational" else {"theta": q.theta_value}


def _symbol_doc(rng: np.random.Generator) -> dict:
    return {"nvars": 2, "terms": [
        {"exps": [e1, e2], "re": float(rng.integers(-3, 4)), "im": float(rng.integers(-3, 4))}
        for e1 in range(5) for e2 in range(5 - e1)]}


def _leaves(obj, path=""):
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _leaves(v, f"{path}/{k}")
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _leaves(v, f"{path}/{i}")
    else:
        yield path, obj


def compare_docs(name: str, got: dict, want: dict, tol: float = TOL) -> list[str]:
    """Every leaf of want must be in got; numbers within tol relative to the
    largest magnitude of their top-level field (at least 1)."""
    have = dict(_leaves(got))
    errs = []
    for field, sub in want.items():
        leaves = list(_leaves(sub, f"/{field}"))
        nums = [abs(v) for _, v in leaves if isinstance(v, (int, float)) and not isinstance(v, bool)]
        scale = max(nums + [1.0])
        for path, v in leaves:
            if path not in have:
                errs.append(f"{name}: output lacks {path}")
            elif isinstance(v, (bool, str)) or v is None:
                if have[path] != v:
                    errs.append(f"{name}: {path} = {have[path]!r}, want {v!r}")
            elif not (isinstance(have[path], (int, float)) and abs(have[path] - v) <= tol * scale):
                errs.append(f"{name}: {path} = {have[path]!r}, want {v!r}")
        if len(errs) > 5:
            break
    return errs


class Workload:
    rss_of = resource.RUSAGE_CHILDREN

    def __init__(self, seed: int, tr: Tracer):
        rng = rng_for(seed, "cli_documents")
        self.dir = HERE / "results" / f"docs-{os.getpid()}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.ops: list[Op] = []
        self.docs = {}   # op name -> (argv, expected-result function)
        self.sizes = {}

        q = nc.PhaseQ.rational(int(rng.choice([1, 2])), int(rng.choice([3, 5, 7])))
        f, g = complex_box(rng, 3, 3), complex_box(rng, 3, 3)
        self._doc("torus-mul", ["torus-mul", self._write("f", _lattice_doc(f)),
                                self._write("g", _lattice_doc(g)), "--q", json.dumps(_q_doc(q))],
                  lambda: {"coeffs": nc.lattice.lattice_to_obj(
                      nc.q_mul(nc.TorusElement(nc.CoeffLattice2(3, 3, f), q),
                               nc.TorusElement(nc.CoeffLattice2(3, 3, g), q)).coeffs)})

        qi = nc.PhaseQ.irrational(float(rng.uniform(0.3, 6.0)))
        a = complex_box(rng, 2, 2)
        u_gen, v_gen = np.array([[0], [0], [1]]), np.array([[0, 0, 1]])
        du = O.product_full(a, u_gen, qi) - O.product_full(u_gen, a, qi)
        dv = O.product_full(a, v_gen, qi) - O.product_full(v_gen, a, qi)

        def derivation():
            r = nc.check_derivation_relation(nc.DerivationSpec(
                nc.CoeffLattice2(3, 2, du), nc.CoeffLattice2(2, 3, dv), qi))
            errs = O.check_derivation_report(du, dv, qi, r.ok, r.max_residual)
            if errs:
                raise AssertionError(errs)
            return {"ok": True, "max_residual": r.max_residual, "first_violation": None}
        self._doc("torus-check-derivation",
                  ["torus-check-derivation", self._write("du", _lattice_doc(du)),
                   self._write("dv", _lattice_doc(dv)), "--q", json.dumps(_q_doc(qi))], derivation)

        qm = nc.PhaseQ.rational(1, int(rng.choice([3, 5, 7])))
        fm = complex_box(rng, 3, 3)
        u, v = (complex(z) for z in np.exp(1j * rng.uniform(0, 2 * np.pi, 2)))

        def matrep():
            fe = nc.TorusElement(nc.CoeffLattice2(3, 3, fm), qm)
            mat = nc.eval_section(fe, u, v)
            errs = O.check_close("matrep-eval own fiber", mat, O.fiber_value(fm, qm, u, v), TOL)
            if errs:
                raise AssertionError(errs)
            return {"n": qm.modulus, "matrix": [_pairs(row) for row in mat],
                    "opnorm": nc.opnorm(mat), "equivariance_ok": True,
                    "center_residual": nc.center_scalar_residual(fe, nc.fiber_grid(16))}
        self._doc("matrep-eval", ["matrep-eval", self._write("fm", _lattice_doc(fm)),
                                  "--q", json.dumps(_q_doc(qm)), f"--u={u.real!r},{u.imag!r}",
                                  f"--v={v.real!r},{v.imag!r}"], matrep)

        q4 = nc.PhaseQ.rational(int(rng.choice([1, 3])), 4)
        phi = np.eye(16)[0]

        def gns():
            alg = nc.torus_quotient(q4)
            trip = nc.gns_build(nc.PositiveForm(phi), alg)
            errs = O.check_gns(alg, trip, nc.gram_matrix(nc.PositiveForm(phi), alg), phi,
                               O.quotient_tables(q4, 4), 16, q4, True, (4, 1))
            if errs:
                raise AssertionError(errs)
            return {"quotient_dim": trip.quotient_dim, "omega": _pairs(trip.omega),
                    "pi_u": [_pairs(r) for r in trip.pi_mats[4]],
                    "pi_v": [_pairs(r) for r in trip.pi_mats[1]]}
        self._doc("gns-build", ["gns-build",
                                self._write("algebra", {"kind": "torus_quotient", "q": _q_doc(q4)}),
                                self._write("form", {"values": _pairs(phi)})], gns)

        sf, sg = _symbol_doc(rng), _symbol_doc(rng)

        def moyal():
            a_, b_ = nc.symbols.symbol_from_obj(sf), nc.symbols.symbol_from_obj(sg)
            ab, ba = nc.moyal_star(a_, b_, 4), nc.moyal_star(b_, a_, 4)
            errs = O.check_moyal(a_, b_, ab, ba)
            if errs:
                raise AssertionError(errs)
            return {"result": nc.symbols.series_to_obj(ab)}
        self._doc("moyal-star", ["moyal-star", self._write("sf", sf), self._write("sg", sg),
                                 "--order", "4"], moyal)

        ca, cb = [(1, 2), (2, 3), (3, 4), (3, 2), (1, 1)][int(rng.integers(5))]
        cap, cbp = _bezout(ca, cb)
        cq = nc.PhaseQ.rational(1, int(rng.choice([3, 5, 7])))
        terms = [{"j": int(rng.integers(-2, 3)), "s": s, "t": (2 * s + 1) % cq.modulus,
                  "re": float(rng.standard_normal()), "im": float(rng.standard_normal())}
                 for s in range(3)]

        def circle():
            spec = nc.CircleSpec(ca, cb, cap, cbp, cq)
            off = (math.sqrt(5.0) - 1.0) / 2.0
            zs = [complex(np.exp(2j * np.pi * (j + off) / 16)) for j in range(16)]
            mat = nc.circle_eval({(x["j"], x["s"], x["t"]): complex(x["re"], x["im"])
                                  for x in terms}, spec, zs[0])
            return {"max_residual": nc.circle_check_relations(spec, zs), "ok": True,
                    "sample_opnorm": nc.opnorm(mat)}
        self._doc("circle-check", ["circle-check", self._write("circle", {
            "spec": {"a": ca, "b": cb, "a_prime": cap, "b_prime": cbp, "q": _q_doc(cq)},
            "coeffs": terms})], circle)

        for n, variant, fn in ((128, "symplectic", nc.other_twisted_conv),
                               (256, "ordered", nc.twisted_conv)):
            hbar = float(rng.choice([0.25, 0.5, 1.0]))
            grid = nc.GridFunction2D(GRID_L, GRID_L, n, n, np.zeros((n, n)))
            x1, x2 = O.grid_axes(grid)
            gauss = [O.Gauss.bump(rng.uniform(-0.8, 0.8, 2), rng.uniform(0.8, 1.2, 2),
                                  rng.uniform(-1.0, 1.0, 2),
                                  complex(rng.standard_normal(), rng.standard_normal()))
                     for _ in range(2)]
            vals = [gs.values(x1, x2) for gs in gauss]
            docs = [self._write(f"grid{n}{i}", {"n_t": n, "n_s": n, "half_extent_t": GRID_L,
                                                "half_extent_s": GRID_L, "values": _pairs(v)})
                    for i, v in enumerate(vals)]

            def conv(fn=fn, vals=vals, grid=grid, gauss=gauss, hbar=hbar, variant=variant):
                out = fn(grid.with_values(vals[0]), grid.with_values(vals[1]), hbar).values
                errs = O.check_close(f"{variant} closed form", out, O.gauss_product(
                    variant, *gauss, hbar, *O.grid_axes(grid)), 1e-11)
                if errs:
                    raise AssertionError(errs)
                return {"result": {"values": _pairs(out)}}
            self._doc(f"twisted-conv.n{n}", ["twisted-conv", *docs, "--variant", variant,
                                             "--hbar", repr(hbar)], conv)

    def _write(self, stem: str, doc: dict) -> str:
        path = self.dir / f"{stem}.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def _doc(self, key: str, argv: list[str], expected) -> None:
        self.docs[key] = (argv, expected)
        self.sizes[key] = sum(os.path.getsize(a) for a in argv if a.endswith(".json"))
        self.ops.append(Op(key, lambda t: t.call("cli", key, self.run, argv)))

    @staticmethod
    def run(argv: list[str]) -> bytes:
        proc = subprocess.run([sys.executable, "-m", "nctorus.cli", *argv],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              env=os.environ, timeout=120, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.decode()[-300:]}")
        return proc.stdout

    def warmup(self) -> None:
        """One small document end to end: interpreter, import and page cache."""
        self.run(self.docs["torus-mul"][0])

    def check(self, outputs: dict) -> list[str]:
        errs = []
        for key, out in outputs.items():
            try:
                want = self.docs[key][1]()
            except AssertionError as exc:  # the in-process result failed its own check
                errs.append(f"{key} in process: {exc}")
                continue
            errs += compare_docs(key, json.loads(out), want)
        return errs

    def layer_metrics(self, tr: Tracer, outputs: dict) -> dict:
        from nctorus import cli, grids, lattice
        m = {}
        for key, (argv, _) in self.docs.items():
            m[f"cli.{key}.ms"] = tr.median_ms("cli", key)
            for _ in range(INPROC_REPEATS):
                with contextlib.redirect_stdout(io.StringIO()):
                    code = tr.call("cli", f"{key}.inproc", cli.main, argv)
                if code != 0:
                    raise RuntimeError(f"in-process {key} exited {code}")
            m[f"cli.{key}.inproc_ms"] = tr.median_ms("cli", f"{key}.inproc")
        for key in ("twisted-conv.n128", "twisted-conv.n256"):
            n = key[-3:]
            for path in self.docs[key][0][1:3]:
                obj = json.loads(Path(path).read_text())
                for _ in range(INPROC_REPEATS):
                    g = tr.call("grids", f"grid2d_from_obj.n{n}", grids.grid2d_from_obj, obj)
                    tr.call("grids", f"grid2d_to_obj.n{n}", grids.grid2d_to_obj, g)
            m[f"grids.grid2d_from_obj.n{n}.ms"] = tr.median_ms("grids", f"grid2d_from_obj.n{n}")
            m[f"grids.grid2d_to_obj.n{n}.ms"] = tr.median_ms("grids", f"grid2d_to_obj.n{n}")
        for path in self.docs["torus-mul"][0][1:3] + self.docs["matrep-eval"][0][1:2]:
            obj = json.loads(Path(path).read_text())
            for _ in range(INPROC_REPEATS):
                tr.call("lattice", "lattice_from_obj", lattice.lattice_from_obj, obj)
        m["lattice.lattice_from_obj.ms"] = tr.median_ms("lattice", "lattice_from_obj")
        for key, code in (("import", "import nctorus"), ("interpreter", "pass")):
            for _ in range(PROBES):
                tr.call("cli", key, subprocess.run, [sys.executable, "-c", code],
                        env=os.environ, check=True, timeout=60)
            m[f"cli.{key}_ms"] = tr.median_ms("cli", key)
        ran = [op for lay, _, _, _, op in tr.spans if lay == "cli" and op in self.docs]
        m["cli.bytes_in"] = statistics.mean(self.sizes[op] for op in ran)
        m["cli.bytes_out"] = statistics.mean(len(outputs[op]) for op in ran if op in outputs)
        return m

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def _bezout(a: int, b: int) -> tuple[int, int]:
    """(a', b') with a a' + b b' = 1 for coprime a, b."""
    for ap in range(-abs(b) - 1, abs(b) + 2):
        if (1 - a * ap) % b == 0:
            return ap, (1 - a * ap) // b
    raise ValueError(f"{a}, {b} are not coprime")
