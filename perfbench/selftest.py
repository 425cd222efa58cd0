"""Show that no check of the benchmark passes vacuously.

    PYTHONPATH=src python3 perfbench/selftest.py

Runs one round of each workload on the inputs of seed SEED, confirms that
every output passes its checks, then feeds each check a corrupted copy of
one output and confirms that the check reports it.  Exits 1 if a corrupted output slips through.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import warnings

import numpy as np

import algebra
import cli_docs
import nctorus as nc
import plane
from bench import Tracer

SEED = 1


def bump(arr: np.ndarray, rel: float = 1e-6, at=None) -> np.ndarray:
    """Copy of arr with one entry (the largest, or `at`) moved by rel of itself."""
    out = np.array(arr, copy=True)
    idx = np.unravel_index(np.argmax(np.abs(out)), out.shape) if at is None else at
    out[idx] = out[idx] * (1 + rel) + rel * (out[idx] == 0)
    return out


def edit_gns(out, pi_entry=None, omega=False, table=False, basis=False, star=False):
    alg, trip = out
    if basis:
        trip = dataclasses.replace(trip, basis=bump(trip.basis))
    if pi_entry is not None:
        mats = list(trip.pi_mats)
        mats[pi_entry] = bump(mats[pi_entry], 1e-6, (0, 0))
        trip = dataclasses.replace(trip, pi_mats=tuple(mats))
    if omega:
        trip = dataclasses.replace(trip, omega=bump(trip.omega))
    if table:
        lm = np.array(alg.lmats, copy=True)
        i, k, j = map(int, np.argwhere(lm != 0)[5])
        lm[i, k, j] *= 1 + 1e-6
        alg = dataclasses.replace(alg, lmats=lm)
    if star:
        alg = dataclasses.replace(alg, starmat=bump(alg.starmat))
    return alg, trip


def edit_moyal(series):
    c0 = series.coeffs[0]
    exps = sorted(c0.terms)[0]
    terms = dict(c0.terms)
    terms[exps] = terms[exps] + nc.CRat.of(0, 1)
    return nc.HbarSeries((nc.PolySymbol(2, terms),) + series.coeffs[1:])


def edit_json(raw: bytes, path: list, rel: float = 1e-6, value=None) -> bytes:
    """One leaf of a JSON output moved by rel of itself, or set to value."""
    doc = json.loads(raw)
    node = doc
    for key in path[:-1]:
        node = node[key]
    v = node[path[-1]]
    if value is not None:
        node[path[-1]] = value
    elif isinstance(v, int) and not isinstance(v, bool):
        node[path[-1]] = v + 1
    else:
        node[path[-1]] = v * (1 + rel) or rel
    return json.dumps(doc).encode()


# (workload module, description, op names kept, corruption, message expected)
CASES = [
    (algebra, "q_mul coefficient, radius 8, rational, direct sum at every site",
     ["q_mul.rational.r8.0"], lambda o: {k: bump(v, at=(3, 5)) for k, v in o.items()}, "direct sum"),
    (algebra, "q_mul coefficient, radius 16, irrational, off the sampled sites",
     ["q_mul.irrational.r16.0"], lambda o: {k: bump(v, at=(0, 0)) for k, v in o.items()},
     "generating value"),
    (algebra, "q_mul trace coefficient, radius 12, irrational",
     ["q_mul.irrational.r12.1"], lambda o: {k: bump(v, at=(24, 24)) for k, v in o.items()},
     "tr(fg)"),
    (algebra, "apply_derivation coefficient", ["apply_derivation.1"],
     lambda o: {k: bump(v) for k, v in o.items()}, "ad(a) f gap"),
    (algebra, "check_derivation_relation verdict", ["check_derivation_relation.0"],
     lambda o: {k: (False, v[1]) for k, v in o.items()}, "reported as violating"),
    (algebra, "check_derivation_relation residual", ["check_derivation_relation.1"],
     lambda o: {k: (v[0], v[1] + 1e-6) for k, v in o.items()}, "relation residual"),
    (algebra, "homomorphism_residual value", ["homomorphism_residual.n5"],
     lambda o: {k: v + 1e-6 for k, v in o.items()}, "reported residual"),
    (algebra, "star_residual value", ["star_residual.n7"],
     lambda o: {k: v + 1e-6 for k, v in o.items()}, "reported residual"),
    (algebra, "GNS matrix entry pi(U)[0, 0], trace form N=5", ["gns.trace.n5"],
     lambda o: {k: edit_gns(v, pi_entry=5) for k, v in o.items()}, "pi(U)pi(V)"),
    (algebra, "GNS matrix entry pi(e_1)[0, 0], vector state N=4", ["gns.vector.n4"],
     lambda o: {k: edit_gns(v, pi_entry=1) for k, v in o.items()}, "pi(e_m)"),
    (algebra, "GNS cyclic vector, truncated box", ["gns.box"],
     lambda o: {k: edit_gns(v, omega=True) for k, v in o.items()}, "pi(e_m)"),
    (algebra, "algebra structure constant, quotient N=6", ["gns.vector.n6"],
     lambda o: {k: edit_gns(v, table=True) for k, v in o.items()}, "structure tables"),
    (algebra, "GNS quotient basis entry, trace form N=4", ["gns.trace.n4"],
     lambda o: {k: edit_gns(v, basis=True) for k, v in o.items()}, "not orthonormal"),
    (algebra, "GNS quotient basis entry, vector state N=5", ["gns.vector.n5"],
     lambda o: {k: edit_gns(v, basis=True) for k, v in o.items()}, "not orthonormal"),
    (algebra, "algebra star matrix entry, trace form N=6 (program Gram)", ["gns.trace.n6"],
     lambda o: {k: edit_gns(v, star=True) for k, v in o.items()}, "program Gram"),
    (algebra, "moyal_star order-0 coefficient", ["moyal_star.fg", "moyal_star.gf"],
     lambda o: dict(o, **{"moyal_star.fg": edit_moyal(o["moyal_star.fg"])}), "pointwise product"),
    (plane, "ordered product value, unmatched 256^2", ["twisted_conv.unmatched.n256.0"],
     lambda o: {k: bump(v) for k, v in o.items()}, "relative gap"),
    (plane, "symplectic product value, matched 128^2", ["other_twisted_conv.matched.n128.1"],
     lambda o: {k: bump(v) for k, v in o.items()}, "relative gap"),
    (plane, "group product against symplectic, matched 256^2",
     ["heisenberg_group_conv.matched.n256.0", "other_twisted_conv.matched.n256.0"],
     lambda o: dict(o, **{"heisenberg_group_conv.matched.n256.0":
                          bump(o["heisenberg_group_conv.matched.n256.0"])}), "vs symplectic"),
    (plane, "gauge transport, unmatched 128^2",
     ["twisted_conv.unmatched.n128.0", "other_twisted_conv.unmatched.n128.0"],
     lambda o: dict(o, **{"twisted_conv.unmatched.n128.0":
                          o["twisted_conv.unmatched.n128.0"] * (1 + 1e-5)}), "gauge transport"),
    (plane, "associativity, matched 128^2 ordered", ["twisted_conv.matched.n128.0"],
     lambda o: {k: bump(v) for k, v in o.items()}, "associativity"),
    (plane, "plain_conv value", ["plain_conv"], lambda o: {k: bump(v) for k, v in o.items()},
     "relative gap"),
    (plane, "gauge_iso value", ["gauge_iso"], lambda o: {k: bump(v) for k, v in o.items()},
     "relative gap"),
    (plane, "fourier_bridge_error value", ["fourier_bridge_error"],
     lambda o: {k: 0.5 for k in o}, "outside"),
    (cli_docs, "CLI torus-mul output coefficient", ["torus-mul"],
     lambda o: {k: edit_json(v, ["coeffs", "coeffs", 7, 0]) for k, v in o.items()}, "want"),
    (cli_docs, "CLI twisted-conv 128^2 output value", ["twisted-conv.n128"],
     lambda o: {k: edit_json(v, ["result", "values", 8256, 1]) for k, v in o.items()}, "want"),
    (cli_docs, "CLI gns-build quotient_dim", ["gns-build"],
     lambda o: {k: edit_json(v, ["quotient_dim"]) for k, v in o.items()}, "want"),
    (cli_docs, "CLI moyal-star series coefficient", ["moyal-star"],
     lambda o: {k: edit_json(v, ["result", "coeffs", 1, "terms", 2, "re"]) for k, v in o.items()},
     "want"),
    (cli_docs, "CLI torus-check-derivation verdict", ["torus-check-derivation"],
     lambda o: {k: edit_json(v, ["ok"], value=False) for k, v in o.items()}, "want"),
    (cli_docs, "CLI circle-check residual", ["circle-check"],
     lambda o: {k: edit_json(v, ["max_residual"], value=1e-6) for k, v in o.items()}, "want"),
    (cli_docs, "CLI matrep-eval matrix entry", ["matrep-eval"],
     lambda o: {k: edit_json(v, ["matrix", 0, 0, 0]) for k, v in o.items()}, "want"),
]


def main() -> int:
    warnings.simplefilter("error", RuntimeWarning)
    vacuous = 0
    for mod in (algebra, plane, cli_docs):
        wl = mod.Workload(SEED, Tracer(False))
        try:
            outputs = {op.name: op.fn(Tracer(False)) for op in wl.ops}
            clean = wl.check(outputs)
            print(f"{mod.__name__}: {len(outputs)} outputs, clean round "
                  f"{'passes' if not clean else 'FAILS: ' + '; '.join(clean)}")
            vacuous += bool(clean)
            for case_mod, what, names, corrupt, expect in CASES:
                if case_mod is not mod:
                    continue
                errs = wl.check(corrupt({n: outputs[n] for n in names}))
                caught = any(expect in e for e in errs)
                vacuous += not caught
                print(f"  {'caught' if caught else 'MISSED'}  {what}"
                      + (f": {[e for e in errs if expect in e][0]}" if caught else f" {errs}"))
        finally:
            if hasattr(wl, "close"):
                wl.close()
    print("every check fails on its corrupted output" if not vacuous
          else f"{vacuous} checks did not catch their corruption")
    return 1 if vacuous else 0


if __name__ == "__main__":
    sys.exit(main())
