"""Command line interface.

Exit codes: 0 success, 1 a measured residual exceeded its tolerance,
2 malformed input (every message names the offending field or file).
Output is deterministic JSON on stdout; --out additionally writes the
same bytes to a file.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import gns as gnsmod
from . import matrep, suite, twisted, weyl
from .grids import (GridFormatError, GridMismatchError, values_from_list,
                    gaussian_1d, grid1d_from_obj, grid1d_to_obj,
                    grid2d_from_obj, grid2d_to_obj)
from .lattice import (CoeffLattice2, LatticeFormatError, PhaseQ,
                      lattice_from_obj, lattice_to_obj, phaseq_from_obj,
                      phaseq_to_obj, retruncate, seminorm, to_primed)
from .symbols import (SymbolFormatError, associativity_defect, half_moyal,
                      moyal_star, poisson_bracket, series_to_obj,
                      star_commutator, symbol_from_obj, symbol_to_obj)
from .torus import (DerivationSpec, PhaseMismatchError, TorusElement, adjoint,
                    apply_derivation, check_derivation_relation, d_power,
                    inner_derivation, l2_state, q_mul, reorder_phase,
                    smooth_seminorm, trace)

__all__ = ["main", "OPERATIONS"]


class CliError(ValueError):
    """Bad input; the message names the offending field."""


class ToleranceFailure(Exception):
    """Carries the report of a check that exceeded its tolerance."""

    def __init__(self, report: dict):
        super().__init__("tolerance exceeded")
        self.report = report


# operation -> owning subcommand; the test suite checks the inverse map
# is single valued and that each subcommand actually runs its operations
OPERATIONS = {
    "torus-mul": ("q_mul", "reorder_phase"),
    "torus-adjoint": ("adjoint",),
    "torus-seminorm": ("seminorm", "smooth_seminorm", "to_primed",
                       "retruncate", "trace", "l2_state"),
    "torus-derive": ("apply_derivation", "d_power", "inner_derivation"),
    "torus-check-derivation": ("check_derivation_relation",),
    "matrep-eval": ("eval_section", "clock_shift", "opnorm", "section_family",
                    "equivariance_check", "covariance_residual", "fiber_grid",
                    "homomorphism_residual", "star_residual",
                    "center_scalar_residual"),
    "circle-check": ("circle_eval", "circle_check_relations"),
    "weyl-check": ("apply_Q", "apply_P", "weyl_Q", "weyl_P"),
    "rep-lattice": ("rep_lattice_measure", "calibrate_q", "composition_phase"),
    "solve-inner": ("solve_inner_generator",),
    "twisted-conv": ("twisted_conv", "other_twisted_conv",
                     "heisenberg_group_conv", "plain_conv", "gauge_iso"),
    "moyal-star": ("moyal_star", "half_moyal", "star_commutator",
                   "poisson_bracket", "associativity_defect", "moyal_coeff"),
    "fourier-bridge": ("fourier_bridge_error", "moyal_series_on_grid",
                       "fourier_2d", "inverse_fourier_2d"),
    "hbar-probe": ("hbar_smoothness_probe",),
    "gns-build": ("torus_quotient", "truncated_box", "gns_build",
                  "intertwiner"),
    "gns-check": ("gram_matrix", "is_positive", "schwarz_check",
                  "state_action", "separation_rank"),
    "suite": ("run_suite",),
}


def _read_doc(path: str):
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "rb") as fh:
                text = fh.read()
        return json.loads(text)
    except OSError as exc:
        raise CliError(f"input '{path}': {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliError(f"input '{path}': invalid JSON ({exc})") from exc


def _parse_q_flag(text: str | None) -> PhaseQ | None:
    if text is None:
        return None
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError(f"flag '--q': invalid JSON ({exc})") from exc
    return phaseq_from_obj(obj)


def _element_from_doc(doc, q_flag: PhaseQ | None, name: str) -> TorusElement:
    if not isinstance(doc, dict):
        raise CliError(f"input '{name}': expected a JSON object")
    if "radius_k" in doc:  # bare lattice; phase comes from --q
        coeffs = lattice_from_obj(doc)
        q_doc = None
    elif "coeffs" in doc:
        coeffs = lattice_from_obj(doc["coeffs"])
        q_doc = phaseq_from_obj(doc.get("q")) if "q" in doc else None
    else:
        raise CliError(f"input '{name}': expected 'radius_k' (bare lattice) "
                       "or 'coeffs' (element with embedded phase)")
    q = q_doc if q_doc is not None else q_flag
    if q is None:
        raise CliError(f"field 'q': missing for '{name}' (no --q flag and "
                       "no embedded phase)")
    if q_doc is not None and q_flag is not None and q_doc != q_flag:
        raise CliError(f"field 'q': '{name}' embeds a phase that differs "
                       "from --q")
    return TorusElement(coeffs, q)


def _pair(z: complex) -> list[float]:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def _matrix_obj(m: np.ndarray) -> list:
    return [[_pair(m[i, j]) for j in range(m.shape[1])]
            for i in range(m.shape[0])]


def _element_obj(f: TorusElement) -> dict:
    return {"coeffs": lattice_to_obj(f.coeffs), "q": phaseq_to_obj(f.q)}


def _emit(obj: dict, out: str | None) -> None:
    text = json.dumps(obj, indent=2) + "\n"
    sys.stdout.write(text)
    if out:
        with open(out, "w") as fh:
            fh.write(text)


def _parse_int_list(text: str, flag: str) -> list[int]:
    try:
        return [int(p) for p in text.split(",") if p.strip() != ""]
    except ValueError as exc:
        raise CliError(f"flag '{flag}': expected comma separated integers, "
                       f"got '{text}'") from exc


def _parse_complex(text: str, flag: str) -> complex:
    parts = text.split(",")
    if len(parts) != 2:
        raise CliError(f"flag '{flag}': expected 're,im', got '{text}'")
    try:
        return complex(float(parts[0]), float(parts[1]))
    except ValueError as exc:
        raise CliError(f"flag '{flag}': expected 're,im', got '{text}'") from exc


# -- subcommand bodies ---------------------------------------------------

def _cmd_torus_mul(args) -> dict:
    q = _parse_q_flag(args.q)
    if args.word is not None:
        if q is None:
            raise CliError("field 'q': --word needs --q")
        word = _parse_int_list(args.word, "--word")
        exps, phase = reorder_phase(word, q)
        return {"exponents": [int(e) for e in exps], "phase": _pair(phase)}
    if len(args.inputs) != 2:
        raise CliError("inputs: torus-mul needs two element files "
                       "(or --word)")
    f = _element_from_doc(_read_doc(args.inputs[0]), q, args.inputs[0])
    g = _element_from_doc(_read_doc(args.inputs[1]), q, args.inputs[1])
    return _element_obj(q_mul(f, g))


def _cmd_torus_adjoint(args) -> dict:
    q = _parse_q_flag(args.q)
    f = _element_from_doc(_read_doc(args.input), q, args.input)
    return _element_obj(adjoint(f))


def _cmd_torus_seminorm(args) -> dict:
    q = _parse_q_flag(args.q)
    f = _element_from_doc(_read_doc(args.input), q, args.input)
    out = {
        "order": args.order,
        "seminorm": seminorm(f.coeffs, args.order),
        "l2_state": l2_state(f),
        "trace": _pair(trace(f)),
        "primed_coeffs": lattice_to_obj(to_primed(f.coeffs, f.q)),
    }
    if args.deriv_word is not None:
        word = []
        for pair in args.deriv_word.split(";"):
            mn = _parse_int_list(pair, "--deriv-word")
            if len(mn) != 2:
                raise CliError("flag '--deriv-word': expected 'm,n;m,n;...'")
            word.append((mn[0], mn[1]))
        out["smooth_seminorm"] = smooth_seminorm(f, word)
    if args.truncate is not None:
        rk_rl = _parse_int_list(args.truncate, "--truncate")
        if len(rk_rl) != 2:
            raise CliError("flag '--truncate': expected 'radius_k,radius_l'")
        cut, tail = retruncate(f.coeffs, rk_rl[0], rk_rl[1])
        out["truncated_coeffs"] = lattice_to_obj(cut)
        out["truncation_tail"] = tail
    return out


def _cmd_torus_derive(args) -> dict:
    q = _parse_q_flag(args.q)
    f = _element_from_doc(_read_doc(args.input), q, args.input)
    modes = sum(x is not None for x in (args.power, args.inner, args.du))
    if modes != 1:
        raise CliError("flags: pick exactly one of --power, --inner, "
                       "or --du/--dv")
    if args.power is not None:
        mn = _parse_int_list(args.power, "--power")
        if len(mn) != 2:
            raise CliError("flag '--power': expected 'm,n'")
        return _element_obj(d_power(f, mn[0], mn[1]))
    if args.inner is not None:
        a = _element_from_doc(_read_doc(args.inner), f.q, args.inner)
        return _element_obj(inner_derivation(a, f))
    if args.dv is None:
        raise CliError("flag '--dv': required when --du is given")
    du = _element_from_doc(_read_doc(args.du), f.q, args.du)
    dv = _element_from_doc(_read_doc(args.dv), f.q, args.dv)
    spec = DerivationSpec(du.coeffs, dv.coeffs, f.q)
    try:
        result = apply_derivation(spec, f, tol=args.tol)
    except ValueError as exc:
        raise ToleranceFailure({"error": str(exc)}) from exc
    return _element_obj(result)


def _cmd_torus_check_derivation(args) -> dict:
    q = _parse_q_flag(args.q)
    du = _element_from_doc(_read_doc(args.du), q, args.du)
    dv = _element_from_doc(_read_doc(args.dv), du.q, args.dv)
    rep = check_derivation_relation(DerivationSpec(du.coeffs, dv.coeffs, du.q),
                                    tol=args.tol)
    out = {"ok": rep.ok, "max_residual": rep.max_residual,
           "first_violation": list(rep.first_violation)
           if rep.first_violation else None,
           "tol": rep.tol}
    if not rep.ok:
        raise ToleranceFailure(out)
    return out


def _cmd_matrep_eval(args) -> dict:
    q = _parse_q_flag(args.q)
    f = _element_from_doc(_read_doc(args.inputs[0]), q, args.inputs[0])
    try:
        # checks q (rational, modulus within the limit) before allocating
        family = matrep.section_family(f)
    except ValueError as exc:
        raise CliError(f"field 'q': {exc}") from exc
    u = _parse_complex(args.u, "--u")
    v = _parse_complex(args.v, "--v")
    try:
        mat = matrep.eval_section(f, u, v)
    except ValueError as exc:
        raise CliError(f"flags '--u/--v': {exc}") from exc
    eq_ok, eq_bad = matrep.equivariance_check(family, f.q)
    grid = matrep.fiber_grid(16)
    cov = max(matrep.covariance_residual(f, u, v, 1, 1),
              matrep.covariance_residual(f, u, v, 0, 1))
    out = {
        "n": f.q.modulus,
        "u": _pair(u),
        "v": _pair(v),
        "matrix": _matrix_obj(mat),
        "opnorm": matrep.opnorm(mat),
        "equivariance_ok": eq_ok,
        "equivariance_violation": list(eq_bad) if eq_bad else None,
        "covariance_residual": cov,
        "center_residual": matrep.center_scalar_residual(f, grid),
    }
    failures = {}
    if len(args.inputs) > 1:
        g = _element_from_doc(_read_doc(args.inputs[1]), f.q, args.inputs[1])
        hom = matrep.homomorphism_residual(f, g, q_mul(f, g), grid)
        star = matrep.star_residual(f, adjoint(f), grid)
        out["homomorphism_residual"] = hom
        out["star_residual"] = star
        if hom > args.tol:
            failures["homomorphism_residual"] = hom
        if star > args.tol:
            failures["star_residual"] = star
    if cov > args.tol:
        failures["covariance_residual"] = cov
    if not eq_ok:
        failures["equivariance"] = 1.0
    if failures:
        out["failures"] = failures
        raise ToleranceFailure(out)
    return out


def _parse_circle_doc(doc, name: str):
    if not isinstance(doc, dict) or "spec" not in doc:
        raise CliError(f"input '{name}': expected an object with a 'spec' "
                       "field")
    spec_obj = doc["spec"]
    try:
        spec = matrep.CircleSpec(int(spec_obj["a"]), int(spec_obj["b"]),
                                 int(spec_obj["a_prime"]),
                                 int(spec_obj["b_prime"]),
                                 phaseq_from_obj(spec_obj["q"]))
    except KeyError as exc:
        raise CliError(f"field 'spec.{exc.args[0]}': missing") from exc
    except ValueError as exc:
        raise CliError(f"field 'spec': {exc}") from exc
    coeffs = {}
    for i, term in enumerate(doc.get("coeffs", [])):
        try:
            key = (int(term["j"]), int(term["s"]), int(term["t"]))
            coeffs[key] = complex(float(term["re"]), float(term["im"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise CliError(f"field 'coeffs[{i}]': expected j, s, t, re, im "
                           f"({exc})") from exc
    return spec, coeffs


def _cmd_circle_check(args) -> dict:
    spec, coeffs = _parse_circle_doc(_read_doc(args.input), args.input)
    off = (math.sqrt(5.0) - 1.0) / 2.0
    samples = [complex(np.exp(2j * np.pi * (j + off) / 16)) for j in range(16)]
    res = matrep.circle_check_relations(spec, samples)
    out = {"max_residual": res, "tol": args.tol,
           "samples": len(samples), "ok": res <= args.tol}
    if coeffs:
        try:
            mat = matrep.circle_eval(coeffs, spec, samples[0])
        except ValueError as exc:
            raise CliError(f"field 'coeffs': {exc}") from exc
        out["sample_opnorm"] = matrep.opnorm(mat)
    if res > args.tol:
        raise ToleranceFailure(out)
    return out


def _cmd_weyl_check(args) -> dict:
    checks = suite.weyl_battery(args.grid_extent, args.grid_n, args.hbar)
    out = {"hbar": args.hbar, "grid_n": args.grid_n,
           "grid_extent": args.grid_extent, "checks": checks,
           "pass": all(c["pass"] for c in checks)}
    if not out["pass"]:
        raise ToleranceFailure(out)
    return out


def _cmd_rep_lattice(args) -> dict:
    doc = _read_doc(args.coeffs)
    if isinstance(doc, dict) and "coeffs" in doc and "radius_k" not in doc:
        c = lattice_from_obj(doc["coeffs"])
    else:
        c = lattice_from_obj(doc)
    if args.state is not None:
        f = grid1d_from_obj(_read_doc(args.state))
    else:
        f = gaussian_1d(args.grid_extent, args.grid_n, center=0.4, width=1.2)
    result = weyl.rep_lattice_measure(c, args.sigma, args.hbar, f)
    measured = weyl.calibrate_q(args.sigma, args.hbar,
                                half_extent=args.grid_extent, n=args.grid_n)
    closed = weyl.composition_phase(args.sigma, args.hbar)
    return {
        "sigma": args.sigma,
        "hbar": args.hbar,
        "calibrated_q": phaseq_to_obj(measured),
        "closed_form_phase": _pair(closed),
        "calibration_gap": abs(measured.q - closed),
        "result": grid1d_to_obj(result),
    }


def _cmd_solve_inner(args) -> dict:
    a_q = grid2d_from_obj(_read_doc(args.a_q))
    a_p = grid2d_from_obj(_read_doc(args.a_p))
    try:
        data = weyl.DerivationData(a_q, a_p, args.hbar)
        result = weyl.solve_inner_generator(data, tol=args.tol)
    except GridMismatchError as exc:
        raise CliError(f"inputs: {exc}") from exc
    except ValueError as exc:
        raise ToleranceFailure({"error": str(exc)}) from exc
    return {
        "compat_residual": result.compat_residual,
        "overlap_residual": result.overlap_residual,
        "b": grid2d_to_obj(result.b),
    }


def _cmd_twisted_conv(args) -> dict:
    a = grid2d_from_obj(_read_doc(args.inputs[0]))
    if args.variant == "gauge":
        out = twisted.gauge_iso(a, args.hbar, args.direction)
        return {"variant": "gauge", "hbar": args.hbar,
                "result": grid2d_to_obj(out)}
    if len(args.inputs) != 2:
        raise CliError("inputs: this variant needs two grid files")
    b = grid2d_from_obj(_read_doc(args.inputs[1]))
    try:
        if args.variant == "ordered":
            out = twisted.twisted_conv(a, b, args.hbar)
        elif args.variant == "symplectic":
            out = twisted.other_twisted_conv(a, b, args.hbar)
        elif args.variant == "group":
            out = twisted.heisenberg_group_conv(a, b, args.hbar)
        else:
            out = twisted.plain_conv(a, b)
    except GridMismatchError as exc:
        raise CliError(f"inputs: {exc}") from exc
    return {"variant": args.variant, "hbar": args.hbar,
            "result": grid2d_to_obj(out)}


def _cmd_moyal_star(args) -> dict:
    if args.mode == "assoc" and len(args.inputs) != 3:
        raise CliError("inputs: mode 'assoc' needs three symbol files")
    if len(args.inputs) < 2:
        raise CliError(f"inputs: mode '{args.mode}' needs two symbol files")
    count = 3 if args.mode == "assoc" else 2
    syms = [symbol_from_obj(_read_doc(path)) for path in args.inputs[:count]]
    nvars = syms[0].nvars
    for path, sym in zip(args.inputs[1:], syms[1:]):
        if sym.nvars != nvars:
            raise CliError(f"field 'nvars': '{path}' has {sym.nvars}, "
                           f"'{args.inputs[0]}' has {nvars}")
    if nvars % 2:
        raise CliError("field 'nvars': phase-space symbols need an even "
                       f"variable count, got {nvars}")
    if args.mode == "half" and nvars != 2:
        raise CliError("field 'nvars': mode 'half' needs one symplectic pair "
                       f"(nvars 2), got {nvars}")
    if args.order < 0:
        raise CliError(f"flag '--order': must be non-negative, got {args.order}")
    f, g = syms[:2]
    if args.mode == "assoc":
        defect = associativity_defect(*syms, args.order)
        return {"mode": "assoc", "order": args.order,
                "defect": series_to_obj(defect),
                "is_zero": defect.is_zero()}
    if args.mode == "poisson":
        return {"mode": "poisson",
                "result": symbol_to_obj(poisson_bracket(f, g))}
    if args.mode == "commutator":
        series = star_commutator(f, g, args.order)
    elif args.mode == "half":
        series = half_moyal(f, g, args.order)
    else:
        series = moyal_star(f, g, args.order)
    return {"mode": args.mode, "order": args.order,
            "result": series_to_obj(series)}


def _cmd_fourier_bridge(args) -> dict:
    f = grid2d_from_obj(_read_doc(args.inputs[0]))
    g = grid2d_from_obj(_read_doc(args.inputs[1]))
    try:
        err = twisted.fourier_bridge_error(f, g, args.hbar, args.order)
    except GridMismatchError as exc:
        raise CliError(f"inputs: {exc}") from exc
    out = {"hbar": args.hbar, "order": args.order, "relative_error": err}
    if args.tol is not None:
        out["tol"] = args.tol
        if err > args.tol:
            raise ToleranceFailure(out)
    return out


def _cmd_hbar_probe(args) -> dict:
    a = grid2d_from_obj(_read_doc(args.inputs[0]))
    b = grid2d_from_obj(_read_doc(args.inputs[1]))
    try:
        r = twisted.hbar_smoothness_probe(a, b, args.hbar, args.delta)
    except GridMismatchError as exc:
        raise CliError(f"inputs: {exc}") from exc
    ok = 3.5 <= r.ratio <= 4.5
    out = {"hbar": args.hbar, "delta": args.delta, "ratio": r.ratio,
           "residual_coarse": r.residual_coarse,
           "residual_fine": r.residual_fine,
           "ratio_band": [3.5, 4.5], "ok": ok,
           "derivative": grid2d_to_obj(r.derivative)}
    if not ok:
        raise ToleranceFailure(out)
    return out


def _parse_algebra(doc, name: str) -> gnsmod.FiniteAlgebra:
    if not isinstance(doc, dict) or "kind" not in doc:
        raise CliError(f"input '{name}': expected an object with 'kind'")
    kind = doc["kind"]
    try:
        if kind == "torus_quotient":
            return gnsmod.torus_quotient(phaseq_from_obj(doc["q"]))
        if kind == "truncated_box":
            return gnsmod.truncated_box(doc["radius_k"], doc["radius_l"],
                                        phaseq_from_obj(doc["q"]))
    except KeyError as exc:
        raise CliError(f"field '{exc.args[0]}': missing in '{name}'") from exc
    except ValueError as exc:
        raise CliError(f"input '{name}': {exc}") from exc
    raise CliError(f"field 'kind': unknown algebra kind '{kind}'")


def _parse_form(doc, a: gnsmod.FiniteAlgebra, name: str) -> gnsmod.PositiveForm:
    if not isinstance(doc, dict) or "values" not in doc:
        raise CliError(f"input '{name}': expected an object with 'values'")
    return gnsmod.PositiveForm(values_from_list(doc["values"], a.dim, "values"))


def _cmd_gns_build(args) -> dict:
    a = _parse_algebra(_read_doc(args.algebra), args.algebra)
    phi = _parse_form(_read_doc(args.form), a, args.form)
    try:
        trip = gnsmod.gns_build(phi, a, tol=args.tol)
    except ValueError as exc:
        raise ToleranceFailure({"error": str(exc)}) from exc
    out = {
        "quotient_dim": trip.quotient_dim,
        "recon_residual": trip.recon_residual,
        "hom_residual": trip.hom_residual,
        "star_residual": trip.star_residual,
        "omega": [_pair(z) for z in trip.omega],
    }
    gen_u = (1, 0) if (1, 0) in a.labels else None
    gen_v = (0, 1) if (0, 1) in a.labels else None
    if trip.quotient_dim > 0 and gen_u and gen_v:
        out["pi_u"] = _matrix_obj(trip.pi_mats[a.index_of(gen_u)])
        out["pi_v"] = _matrix_obj(trip.pi_mats[a.index_of(gen_v)])
    if trip.quotient_dim > 0:
        other = gnsmod.gns_build(phi, a, tol=args.tol,
                                 order=list(reversed(range(a.dim))))
        _, res = gnsmod.intertwiner(trip, other, a)
        out["uniqueness_residual"] = res
    return out


def _cmd_gns_check(args) -> dict:
    a = _parse_algebra(_read_doc(args.algebra), args.algebra)
    phi = _parse_form(_read_doc(args.form), a, args.form)
    rep = gnsmod.is_positive(phi, a, tol=args.tol)
    schwarz = 0.0
    for i in range(a.dim):
        schwarz = max(schwarz, gnsmod.schwarz_check(phi, a.basis_vector(i), a))
    rg, rp = (0, 0)
    if rep.ok:
        rg, rp = gnsmod.separation_rank([phi], a)
    out = {
        "positive": rep.ok,
        "min_eigenvalue": rep.min_eigenvalue,
        "hermiticity_residual": rep.hermiticity_residual,
        "star_residual": rep.star_residual,
        "gram_trace": _pair(np.trace(rep.gram)),
        "schwarz_max": schwarz,
        "witness": [_pair(z) for z in rep.witness]
        if rep.witness is not None else None,
    }
    if rep.ok:
        out["separation_ranks"] = [rg, rp]
        transported = gnsmod.state_action(phi, a.basis_vector(a.unit_index), a)
        out["transported_positive"] = gnsmod.is_positive(transported, a).ok
    if not rep.ok or schwarz > args.tol:
        raise ToleranceFailure(out)
    return out


def _cmd_suite(args) -> dict:
    report = suite.run_suite(args.seed)
    if not report["pass"]:
        raise ToleranceFailure(report)
    return report


# -- parser --------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="nctorus",
        description="exact q-twisted torus arithmetic, twisted convolutions, "
                    "Weyl calculus, and finite GNS constructions")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--out", default=None, help="also write the JSON "
                        "report to this file")
        return sp

    sp = add("torus-mul", "multiply two torus elements, or normal order a "
             "generator word with --word")
    sp.add_argument("inputs", nargs="*", help="element JSON files")
    sp.add_argument("--q", default=None, help="phase JSON, e.g. "
                    '\'{"rational":[1,4]}\'')
    sp.add_argument("--word", default=None, help="signed generator indices, "
                    "e.g. '2,1,-2'")

    sp = add("torus-adjoint", "adjoint of a torus element")
    sp.add_argument("input")
    sp.add_argument("--q", default=None)

    sp = add("torus-seminorm", "seminorms, trace, and convention views of an "
             "element")
    sp.add_argument("input")
    sp.add_argument("--q", default=None)
    sp.add_argument("--order", type=int, default=0, help="seminorm weight m")
    sp.add_argument("--deriv-word", default=None,
                    help="derivative word 'm,n;m,n;...' for the smooth "
                    "seminorm")
    sp.add_argument("--truncate", default=None,
                    help="'radius_k,radius_l' box to truncate to")

    sp = add("torus-derive", "apply a derivation to an element")
    sp.add_argument("input")
    sp.add_argument("--q", default=None)
    sp.add_argument("--power", default=None, help="'m,n' coordinate powers")
    sp.add_argument("--inner", default=None, help="element file a for ad(a)")
    sp.add_argument("--du", default=None, help="element file with D(U)")
    sp.add_argument("--dv", default=None, help="element file with D(V)")
    sp.add_argument("--tol", type=float, default=1e-10)

    sp = add("torus-check-derivation", "test whether (D(U), D(V)) extends to "
             "a derivation")
    sp.add_argument("du")
    sp.add_argument("dv")
    sp.add_argument("--q", default=None)
    sp.add_argument("--tol", type=float, default=1e-10)

    sp = add("matrep-eval", "evaluate an element in the clock and shift "
             "fiber at (u, v)")
    sp.add_argument("inputs", nargs="+", help="element file, optionally a "
                    "second element for homomorphism checks")
    sp.add_argument("--q", default=None)
    sp.add_argument("--u", default="1,0", help="fiber point 're,im'")
    sp.add_argument("--v", default="1,0", help="fiber point 're,im'")
    sp.add_argument("--tol", type=float, default=1e-10)

    sp = add("circle-check", "verify the circle-fibered relations for a spec")
    sp.add_argument("input")
    sp.add_argument("--tol", type=float, default=1e-12)

    sp = add("weyl-check", "run the Weyl relation battery on a 1d grid")
    sp.add_argument("--hbar", type=float, default=0.7)
    sp.add_argument("--grid-n", type=int, default=512)
    sp.add_argument("--grid-extent", type=float, default=16.0)

    sp = add("rep-lattice", "apply the lattice measure representation and "
             "calibrate its composition phase")
    sp.add_argument("coeffs", help="lattice JSON file")
    sp.add_argument("state", nargs="?", default=None,
                    help="1d grid JSON (default: a fixed gaussian)")
    sp.add_argument("--sigma", type=float, default=1.0)
    sp.add_argument("--hbar", type=float, default=1.0)
    sp.add_argument("--grid-n", type=int, default=512)
    sp.add_argument("--grid-extent", type=float, default=16.0)

    sp = add("solve-inner", "recover the generator of an inner derivation "
             "from its component data")
    sp.add_argument("a_q")
    sp.add_argument("a_p")
    sp.add_argument("--hbar", type=float, default=1.0)
    sp.add_argument("--tol", type=float, default=1e-6)

    sp = add("twisted-conv", "twisted convolutions and the gauge transport "
             "on 2d grids")
    sp.add_argument("inputs", nargs="+", help="grid JSON files")
    sp.add_argument("--hbar", type=float, default=1.0)
    sp.add_argument("--variant", default="ordered",
                    choices=["ordered", "symplectic", "group", "plain",
                             "gauge"])
    sp.add_argument("--direction", default="forward",
                    choices=["forward", "inverse"],
                    help="gauge variant only")

    sp = add("moyal-star", "formal star products of polynomial symbols")
    sp.add_argument("inputs", nargs="+", help="symbol JSON files")
    sp.add_argument("--order", type=int, default=4)
    sp.add_argument("--mode", default="full",
                    choices=["full", "half", "commutator", "poisson",
                             "assoc"])

    sp = add("fourier-bridge", "compare the convolution route with the "
             "truncated star expansion")
    sp.add_argument("inputs", nargs=2, help="grid JSON files")
    sp.add_argument("--hbar", type=float, default=0.05)
    sp.add_argument("--order", type=int, default=8)
    sp.add_argument("--tol", type=float, default=None)

    sp = add("hbar-probe", "Richardson probe of hbar smoothness of the "
             "twisted product")
    sp.add_argument("inputs", nargs=2, help="grid JSON files")
    sp.add_argument("--hbar", type=float, default=0.5)
    sp.add_argument("--delta", type=float, default=1e-2)

    sp = add("gns-build", "build the GNS triplet of a positive form")
    sp.add_argument("algebra")
    sp.add_argument("form")
    sp.add_argument("--tol", type=float, default=None)

    sp = add("gns-check", "positivity, Schwarz, and separation diagnostics "
             "for a form")
    sp.add_argument("algebra")
    sp.add_argument("form")
    sp.add_argument("--tol", type=float, default=1e-10)

    sp = add("suite", "run the full deterministic acceptance battery")
    sp.add_argument("--seed", type=int, default=42)
    return p


_DISPATCH = {
    "torus-mul": _cmd_torus_mul,
    "torus-adjoint": _cmd_torus_adjoint,
    "torus-seminorm": _cmd_torus_seminorm,
    "torus-derive": _cmd_torus_derive,
    "torus-check-derivation": _cmd_torus_check_derivation,
    "matrep-eval": _cmd_matrep_eval,
    "circle-check": _cmd_circle_check,
    "weyl-check": _cmd_weyl_check,
    "rep-lattice": _cmd_rep_lattice,
    "solve-inner": _cmd_solve_inner,
    "twisted-conv": _cmd_twisted_conv,
    "moyal-star": _cmd_moyal_star,
    "fourier-bridge": _cmd_fourier_bridge,
    "hbar-probe": _cmd_hbar_probe,
    "gns-build": _cmd_gns_build,
    "gns-check": _cmd_gns_check,
    "suite": _cmd_suite,
}


def _glue_point_flags(argv: list[str]) -> list[str]:
    """Rewrite '--u X' as '--u=X' (and --v) so that a fiber point with a
    negative real part, such as '-0.6,0.8', is not taken for a flag."""
    out: list[str] = []
    for tok in argv:
        if out and out[-1] in ("--u", "--v"):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(_glue_point_flags(sys.argv[1:] if argv is None else list(argv)))
    try:
        report = _DISPATCH[args.command](args)
    except ToleranceFailure as exc:
        _emit(exc.report, getattr(args, "out", None))
        return 1
    except (CliError, LatticeFormatError, GridFormatError, SymbolFormatError,
            PhaseMismatchError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    _emit(report, getattr(args, "out", None))
    return 0


if __name__ == "__main__":
    sys.exit(main())
