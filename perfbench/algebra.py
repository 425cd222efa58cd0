"""algebra_exact: in-process calls into torus, matrep, gns and symbols.

One round is a fixed list of operations whose sizes do not depend on the
seed (only the coefficients, twists and states do), so every seed costs
the same work:

- 36 ``q_mul``: both operands of radius r for r = 8..16, twice, once with
  a rational twist (N cycling over 3, 5, 7) and once with an irrational one;
- 12 ``apply_derivation`` of ad(a), a of radius 2, f of radius 3 or 4,
  twists alternating rational/irrational, and 2 ``check_derivation_relation``;
- ``homomorphism_residual`` and ``star_residual`` on ``fiber_grid(8)`` for
  radius-3 elements at N = 3, 5, 7;
- ``torus_quotient`` + ``gns_build`` for N = 4, 5, 6 with the trace form and
  with a clock/shift vector state, and ``truncated_box(2, 2)`` + ``gns_build``;
- ``moyal_star`` of two degree-4 symbols to order 4, in both orders.

The counts put torus, matrep and gns each between 15% and 50% of the busy
time, and the median latency inside the q_mul group.
"""

from __future__ import annotations

import math

import numpy as np

import nctorus as nc
import oracles as O
from bench import Op, Tracer, complex_box, rng_for

Q_RADII = range(8, 17)
Q_COPIES = 2
DERIV_RADII = (3, 4) * 6
FIBER_N = (3, 5, 7)
GNS_N = (4, 5, 6)
LAYERS = ("torus", "matrep", "gns", "symbols")


def _rational(rng: np.random.Generator, n: int) -> nc.PhaseQ:
    return nc.PhaseQ.rational(int(rng.choice([p for p in range(1, n) if math.gcd(p, n) == 1])), n)


def _irrational(rng: np.random.Generator) -> nc.PhaseQ:
    return nc.PhaseQ.irrational(float(rng.uniform(0.3, 2.0 * np.pi - 0.3)))


def _element(c: np.ndarray, q: nc.PhaseQ) -> nc.TorusElement:
    r = (c.shape[0] - 1) // 2, (c.shape[1] - 1) // 2
    return nc.TorusElement(nc.CoeffLattice2(r[0], r[1], c), q)


def _symbol(rng: np.random.Generator, degree: int) -> nc.PolySymbol:
    terms = {(e1, e2): nc.CRat.of(int(rng.integers(-3, 4)), int(rng.integers(-3, 4)))
             for e1 in range(degree + 1) for e2 in range(degree + 1 - e1)}
    return nc.PolySymbol(2, terms)


class Workload:
    def __init__(self, seed: int, tr: Tracer):
        rng = rng_for(seed, "algebra_exact")
        self.check_rng = rng_for(seed, "algebra_exact/check")
        self.ops: list[Op] = []
        self.checks = {}   # op name -> callable(output) -> list of failures
        self.madds = {}    # q_mul op name -> multiply-adds
        self.fiber_evals = {}

        for copy in range(Q_COPIES):
            for r in Q_RADII:
                for kind in ("rational", "irrational"):
                    q = (_rational(rng, FIBER_N[(r + copy) % 3]) if kind == "rational"
                         else _irrational(rng))
                    f, g = complex_box(rng, r, r), complex_box(rng, r, r)
                    name = f"q_mul.{kind}.r{r}.{copy}"
                    self._add(name, lambda t, F=_element(f, q), G=_element(g, q), k=kind:
                              t.call("torus", f"q_mul.{k}", nc.q_mul, F, G).coeffs.coeffs,
                              lambda out, f=f, g=g, q=q: O.check_q_mul(f, g, q, out, self.check_rng))
                    self.madds[name] = np.count_nonzero(f) * g.size

        for i, r in enumerate(DERIV_RADII):
            q = _rational(rng, FIBER_N[i % 3]) if i % 2 == 0 else _irrational(rng)
            a, f = complex_box(rng, 2, 2), complex_box(rng, r, r)
            spec = tr.call("torus", "setup.from_inner", nc.DerivationSpec.from_inner, _element(a, q))
            self._add(f"apply_derivation.{i}",
                      lambda t, s=spec, F=_element(f, q):
                      t.call("torus", "apply_derivation", nc.apply_derivation, s, F).coeffs.coeffs,
                      lambda out, a=a, f=f, q=q: O.check_inner_derivation(a, f, q, out))
            if i < 2:
                self._add(f"check_derivation_relation.{i}",
                          lambda t, s=spec: _report(t.call(
                              "torus", "check_derivation_relation", nc.check_derivation_relation, s)),
                          lambda out, s=spec, q=q: O.check_derivation_report(
                              s.du_value.coeffs, s.dv_value.coeffs, q, *out))

        grid = tr.call("matrep", "setup.fiber_grid", nc.fiber_grid, 8)
        points = O.grid_points(8)
        for n in FIBER_N:
            q = _rational(rng, n)
            f, g = complex_box(rng, 3, 3), complex_box(rng, 3, 3)
            F, G = _element(f, q), _element(g, q)
            fg = tr.call("torus", "setup.q_mul", nc.q_mul, F, G)
            fs = tr.call("torus", "setup.adjoint", nc.adjoint, F)
            scale = float(np.sum(np.abs(f)) * np.sum(np.abs(g)))
            self._add(f"homomorphism_residual.n{n}",
                      lambda t, F=F, G=G, fg=fg: t.call(
                          "matrep", "homomorphism_residual", nc.homomorphism_residual, F, G, fg, grid),
                      lambda out, f=f, g=g, fg=fg.coeffs.coeffs, q=q, s=scale: O.check_fiber_residual(
                          out, O.fiber_residual(lambda u, v: O.fiber_value(fg, q, u, v)
                                                - O.fiber_value(f, q, u, v) @ O.fiber_value(g, q, u, v),
                                                points), s))
            self._add(f"star_residual.n{n}",
                      lambda t, F=F, fs=fs: t.call(
                          "matrep", "star_residual", nc.star_residual, F, fs, grid),
                      lambda out, f=f, fs=fs.coeffs.coeffs, q=q: O.check_fiber_residual(
                          out, O.fiber_residual(lambda u, v: O.fiber_value(fs, q, u, v)
                                                - O.fiber_value(f, q, u, v).conj().T, points),
                          float(np.sum(np.abs(f)))))
            self.fiber_evals[f"homomorphism_residual.n{n}"] = 3 * len(grid)
            self.fiber_evals[f"star_residual.n{n}"] = 2 * len(grid)

        for n in GNS_N:
            for form in ("trace", "vector"):
                q = _rational(rng, n)
                if form == "trace":
                    phi = np.eye(n * n, dtype=np.complex128)[0]
                else:
                    xi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                    phi = O.vector_state(q, xi / np.linalg.norm(xi))
                self._add(f"gns.{form}.n{n}",
                          lambda t, q=q, phi=phi, key=f"gns_build.{form}.n{n}": _gns(
                              t, "torus_quotient", key, (q,), nc.PositiveForm(phi)),
                          lambda out, q=q, phi=phi, n=n, form=form: _check_gns(
                              out, phi, O.quotient_tables(q, n),
                              n * n if form == "trace" else n, q, form == "trace", (n, 1)))
        q = _irrational(rng)
        phi = np.eye(25, dtype=np.complex128)[12]
        self._add("gns.box",
                  lambda t: _gns(t, "truncated_box", "gns_build.box", (2, 2, q), nc.PositiveForm(phi)),
                  lambda out: _check_gns(out, phi, O.box_tables(q, 2), 25, q, True))

        f, g = _symbol(rng, 4), _symbol(rng, 4)
        self._add("moyal_star.fg", lambda t: t.call("symbols", "moyal_star", nc.moyal_star, f, g, 4),
                  lambda out: [])
        self._add("moyal_star.gf", lambda t: t.call("symbols", "moyal_star", nc.moyal_star, g, f, 4),
                  lambda out: [])
        self.moyal_pair = (f, g)

    def _add(self, name, fn, check):
        self.ops.append(Op(name, fn))
        self.checks[name] = check

    def warmup(self) -> None:
        """One operation of each kind, untraced, so lazy set-up in numpy and
        the package is paid before timing."""
        seen = set()
        off = Tracer(False)
        for op in self.ops:
            kind = op.name.split(".")[0]
            if kind not in seen:
                seen.add(kind)
                op.fn(off)

    def check(self, outputs: dict) -> list[str]:
        errs = []
        for name, out in outputs.items():
            errs += [f"{name}: {e}" for e in self.checks[name](out)]
        if "moyal_star.fg" in outputs and "moyal_star.gf" in outputs:
            errs += O.check_moyal(*self.moyal_pair, outputs["moyal_star.fg"],
                                  outputs["moyal_star.gf"])
        return errs

    def layer_metrics(self, tr: Tracer, outputs: dict) -> dict:
        m = {}
        for key in ("q_mul.rational", "q_mul.irrational", "apply_derivation",
                    "check_derivation_relation"):
            m[f"torus.{key}.ms"] = tr.median_ms("torus", key)
        q_spans = [(t1 - t0, op) for lay, k, t0, t1, op in tr.spans
                   if lay == "torus" and k.startswith("q_mul.")]
        m["torus.q_mul.madd_per_s"] = (sum(self.madds[op] for _, op in q_spans)
                                       / sum(d for d, _ in q_spans))
        for key in ("homomorphism_residual", "star_residual"):
            m[f"matrep.{key}.ms"] = tr.median_ms("matrep", key)
        f_spans = [(t1 - t0, op) for lay, k, t0, t1, op in tr.spans
                   if lay == "matrep" and op in self.fiber_evals]
        m["matrep.fiber_evals_per_s"] = (sum(self.fiber_evals[op] for _, op in f_spans)
                                         / sum(d for d, _ in f_spans))
        for key in ("torus_quotient", "truncated_box", "gns_build.box"):
            m[f"gns.{key}.ms"] = tr.median_ms("gns", key)
        for form in ("trace", "vector"):
            for n in GNS_N:
                m[f"gns.gns_build.{form}.n{n}.ms"] = tr.median_ms("gns", f"gns_build.{form}.n{n}")
        m["gns.algebra_bytes"] = max(out[0].lmats.nbytes + out[0].starmat.nbytes
                                     for name, out in outputs.items() if name.startswith("gns."))
        m["symbols.moyal_star.ms"] = tr.median_ms("symbols", "moyal_star")
        m.update(tr.busy_shares(LAYERS))
        return m


def _report(rep) -> tuple[bool, float]:
    return rep.ok, rep.max_residual


def _gns(t: Tracer, builder: str, key: str, args: tuple, phi):
    algebra = t.call("gns", builder, getattr(nc, builder), *args)
    return algebra, t.call("gns", key, nc.gns_build, phi, algebra)


def _check_gns(out, phi: np.ndarray, *args) -> list[str]:
    """O.check_gns, given also the program's Gram matrix of phi on the
    returned algebra."""
    algebra, triplet = out
    return O.check_gns(algebra, triplet, nc.gram_matrix(nc.PositiveForm(phi), algebra),
                       phi, *args)
